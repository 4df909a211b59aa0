// Reproduces Table 1 of the paper: the recovery / garbage-collection
// walk-through. A multiplex with a coordinator and one writer (W1) plays
// the scripted event sequence — checkpoint, key-range allocation, commits,
// a coordinator crash + recovery, a rollback, and a writer crash +
// restart — printing the coordinator's active set after each event.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "keygen/object_key_generator.h"
#include "store/physical_loc.h"

namespace cloudiq {
namespace {

std::string ActiveSetString(const ObjectKeyGenerator& gen, NodeId node) {
  const IntervalSet& set = gen.ActiveSet(node);
  if (set.empty()) return "(empty)";
  std::string out;
  for (const auto& iv : set.Intervals()) {
    if (!out.empty()) out += ", ";
    // Print offsets from 2^63 so the table reads like the paper's
    // 101-200 example.
    out += "{" + std::to_string(iv.begin - kCloudKeyBase) + "-" +
           std::to_string(iv.end - 1 - kCloudKeyBase) + "}";
  }
  return "W1: " + out;
}

void Row(int clock, const char* event, const char* description,
         const std::string& active_set) {
  std::printf("| %5d | %-22s | %-58s | %-18s |\n", clock, event, description,
              active_set.c_str());
}

int Main() {
  std::printf(
      "=== Table 1: recovery and garbage collection walk-through ===\n");
  std::printf("(key offsets are relative to 2^63, mirroring the paper's "
              "101-200 presentation)\n\n");
  std::printf("| clock | event                  | description            "
              "                                    | active set(s)      |\n");

  ObjectKeyGenerator::Options opts;
  opts.first_key = kCloudKeyBase + 101;
  opts.min_range_size = 1;
  ObjectKeyGenerator gen(opts);

  // Clock 50: checkpoint.
  std::vector<uint8_t> checkpoint = gen.Checkpoint();
  Row(50, "Checkpoint", "metadata incl. active sets flushed to disk",
      "(empty)");

  // Clock 60: range 101-200 allocated to W1.
  KeyRange range = gen.AllocateRange(/*node=*/1, 100);
  Row(60, "W1 allocation", "key range 101-200 allocated to W1",
      ActiveSetString(gen, 1));

  // Clock 70: T1 flushes objects 101-130 (recorded in T1's RB bitmap).
  IntervalSet t1;
  t1.InsertRange(range.begin, range.begin + 30);
  Row(70, "T1 begins on W1",
      "objects 101-130 flushed; range recorded in T1's RB bitmap",
      ActiveSetString(gen, 1));

  // Clock 80: T2 uses 131-150.
  IntervalSet t2;
  t2.InsertRange(range.begin + 30, range.begin + 50);
  Row(80, "T2 begins on W1",
      "objects 131-150 used by T2; recorded in T2's RB bitmap",
      ActiveSetString(gen, 1));

  // Clock 90: T1 commits; its keys leave the active set.
  gen.OnTransactionCommitted(1, t1);
  Row(90, "T1 commits", "RF/RB of T1 flushed; active set updated",
      ActiveSetString(gen, 1));

  // Clock 100: T3 flushes 151-160.
  Row(100, "T3 begins on W1",
      "objects 151-160 flushed; recorded in T3's RB bitmap",
      ActiveSetString(gen, 1));

  // Clock 110: coordinator crashes — volatile state gone.
  std::vector<KeygenLogRecord> replay_log = gen.pending_log();
  Row(110, "Coordinator crashes", "", "(empty)");

  // Clock 120: coordinator recovers from checkpoint + log replay.
  Result<ObjectKeyGenerator> recovered_or =
      ObjectKeyGenerator::Recover(checkpoint, replay_log, opts);
  if (!recovered_or.ok()) {
    std::printf("recovery failed: %s\n",
                recovered_or.status().ToString().c_str());
    return 1;
  }
  ObjectKeyGenerator recovered = std::move(recovered_or).value();
  Row(120, "Coordinator recovers", "active set recovered",
      ActiveSetString(recovered, 1));

  // Clock 130: T2 rolls back; W1 deletes 131-150 locally, the
  // coordinator is deliberately NOT notified.
  Row(130, "T2 rolls back",
      "objects 131-150 garbage collected; active set NOT updated",
      ActiveSetString(recovered, 1));

  // Clock 140: W1 crashes.
  Row(140, "W1 crashes", "", ActiveSetString(recovered, 1));

  // Clock 150: W1 restarts; the coordinator polls the entire active set
  // for garbage collection (idempotently re-covering 131-150).
  IntervalSet polled = recovered.TakeActiveSetForRecovery(1);
  Row(150, "W1 restarts",
      "outstanding allocations garbage collected on the coordinator",
      ActiveSetString(recovered, 1));

  std::printf("\nPolled for GC at clock 150: %llu keys "
              "(131-200, including T2's already-deleted 131-150 and the "
              "unconsumed tail)\n",
              static_cast<unsigned long long>(polled.Count()));
  bool ok = polled.Count() == 70 &&
            polled.Contains(kCloudKeyBase + 131) &&
            polled.Contains(kCloudKeyBase + 200) &&
            !polled.Contains(kCloudKeyBase + 130);
  std::printf("Matches the paper's Table 1 semantics: %s\n",
              ok ? "YES" : "NO");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace cloudiq

int main(int argc, char** argv) {
  // No simulated environment here (pure keygen walk-through), but the
  // shared flags are accepted so every bench binary has the same CLI.
  cloudiq::bench::InitTelemetry(argc, argv);
  return cloudiq::Main();
}
