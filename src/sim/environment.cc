#include "sim/environment.h"

#include <algorithm>

namespace cloudiq {

namespace {
// SAP IQ's flush/prefetch pipelines stop scaling near this stream count
// at the 512 KB page size; see NodeContext::IoWidth(). At ~15 MB/s per
// S3 stream this is what produces the ~9 Gb/s NIC plateau the paper
// observes on the 96-vCPU instance (Figure 8).
constexpr int kMaxIoStreams = 80;

LocalSsdOptions SsdOptionsFor(const InstanceProfile& profile) {
  LocalSsdOptions o;
  o.devices = std::max(1, profile.ssd_devices);
  o.capacity_bytes = profile.ssd_gb * 1e9;
  return o;
}
}  // namespace

NodeContext::NodeContext(const InstanceProfile& profile, SimEnvironment* env)
    : profile_(profile),
      env_(env),
      trace_pid_(static_cast<uint32_t>(env->node_count()) + 1),
      nic_(profile.nic_gbps),
      ssd_(SsdOptionsFor(profile)),
      io_(&clock_, &executor_) {
  io_.set_profiler(&env->telemetry().profiler());
  Tracer& tracer = env->telemetry().tracer();
  std::string node = "node" + std::to_string(trace_pid_ - 1);
  tracer.SetProcessName(trace_pid_, node + " (" + profile.name + ")");
  tracer.SetTrackName(trace_pid_, kTrackExec, "executor");
  tracer.SetTrackName(trace_pid_, kTrackTxn, "transactions");
  tracer.SetTrackName(trace_pid_, kTrackBuffer, "buffer manager");
  tracer.SetTrackName(trace_pid_, kTrackOcm, "OCM (SSD cache)");
  tracer.SetTrackName(trace_pid_, kTrackStoreIo, "object-store I/O");
  tracer.SetTrackName(trace_pid_, kTrackKeygen, "key generator");
  tracer.SetTrackName(trace_pid_, kTrackStall, "wait-state stalls");
}

int NodeContext::IoWidth() const {
  // Each vCPU drives a couple of asynchronous requests; the pipeline
  // tops out at kMaxIoStreams.
  return std::min(2 * profile_.vcpus, kMaxIoStreams);
}

SimEnvironment::SimEnvironment(ObjectStoreOptions store_options)
    : object_store_(store_options) {
  object_store_.set_telemetry(&telemetry_);
  telemetry_.tracer().SetProcessName(kClusterPid, "cluster");
  telemetry_.tracer().SetTrackName(kClusterPid, kTrackObjectStore,
                                   "object store (S3)");
}

SimBlockVolume& SimEnvironment::CreateVolume(const std::string& name,
                                             BlockVolumeOptions options) {
  auto it = volumes_.find(name);
  if (it == volumes_.end()) {
    it = volumes_
             .emplace(name, std::make_unique<SimBlockVolume>(options))
             .first;
  }
  return *it->second;
}

SimBlockVolume* SimEnvironment::FindVolume(const std::string& name) {
  auto it = volumes_.find(name);
  return it == volumes_.end() ? nullptr : it->second.get();
}

NodeContext& SimEnvironment::AddNode(const InstanceProfile& profile) {
  nodes_.push_back(std::make_unique<NodeContext>(profile, this));
  return *nodes_.back();
}

}  // namespace cloudiq
