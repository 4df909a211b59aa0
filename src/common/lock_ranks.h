#ifndef CLOUDIQ_COMMON_LOCK_RANKS_H_
#define CLOUDIQ_COMMON_LOCK_RANKS_H_

// GENERATED FILE — do not edit by hand.
//
// Emitted from LOCKS.md (the lock-rank manifest) by:
//   python3 tools/cloudiq_locks.py --emit-ranks src/common/lock_ranks.h
// scripts/check.sh locks fails if this file is stale (--check-ranks).
//
// Rank ascends toward the leaves: a thread may acquire a mutex only
// while every mutex it already holds has a strictly smaller rank.
// Rank 0 means unranked (tests/benches); the tripwire ignores it.

namespace cloudiq {
namespace lockrank {

inline constexpr int kWorkloadEngine = 10;
inline constexpr int kTaskPool = 15;
inline constexpr int kAdmissionController = 20;
inline constexpr int kFairScheduler = 21;
inline constexpr int kStepFiber = 25;
inline constexpr int kMultiplex = 30;
inline constexpr int kTransactionManager = 40;
inline constexpr int kSnapshotManager = 45;
inline constexpr int kBufferManager = 50;
inline constexpr int kObjectCacheManager = 55;
inline constexpr int kObjectKeyGenerator = 60;
inline constexpr int kNodeKeyCache = 61;
inline constexpr int kSimObjectStore = 70;
inline constexpr int kSpendPredictor = 80;
inline constexpr int kCostLedger = 91;
inline constexpr int kStatsRegistry = 92;
inline constexpr int kTracer = 93;

// Human name for a rank, for tripwire diagnostics.
inline constexpr const char* RankName(int rank) {
  switch (rank) {
    case 10: return "WorkloadEngine";
    case 15: return "TaskPool";
    case 20: return "AdmissionController";
    case 21: return "FairScheduler";
    case 25: return "StepFiber";
    case 30: return "Multiplex";
    case 40: return "TransactionManager";
    case 45: return "SnapshotManager";
    case 50: return "BufferManager";
    case 55: return "ObjectCacheManager";
    case 60: return "ObjectKeyGenerator";
    case 61: return "NodeKeyCache";
    case 70: return "SimObjectStore";
    case 80: return "SpendPredictor";
    case 91: return "CostLedger";
    case 92: return "StatsRegistry";
    case 93: return "Tracer";
    default: return "unranked";
  }
}

}  // namespace lockrank
}  // namespace cloudiq

#endif  // CLOUDIQ_COMMON_LOCK_RANKS_H_
