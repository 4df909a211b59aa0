#ifndef CLOUDIQ_SIM_ENVIRONMENT_H_
#define CLOUDIQ_SIM_ENVIRONMENT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/block_volume.h"
#include "sim/instance_profile.h"
#include "sim/io_scheduler.h"
#include "sim/local_ssd.h"
#include "sim/nic.h"
#include "sim/object_store.h"
#include "sim/sim_clock.h"
#include "sim/sim_executor.h"
#include "telemetry/telemetry.h"

namespace cloudiq {

class SimEnvironment;

// All simulated resources owned by one compute node: its own virtual
// timeline, NIC, local SSDs and background executor. Cluster-shared
// resources (the object store, network block volumes, telemetry) live
// in SimEnvironment and are referenced from here.
class NodeContext {
 public:
  NodeContext(const InstanceProfile& profile, SimEnvironment* env);

  const InstanceProfile& profile() const { return profile_; }
  SimClock& clock() { return clock_; }
  SimExecutor& executor() { return executor_; }
  Nic& nic() { return nic_; }
  SimLocalSsd& ssd() { return ssd_; }
  IoScheduler& io() { return io_; }
  SimEnvironment& env() { return *env_; }
  // Cluster-shared telemetry (defined below SimEnvironment).
  Telemetry& telemetry();
  // Chrome-trace process id of this node (0 is the shared object store).
  uint32_t trace_pid() const { return trace_pid_; }

  // Maximum useful I/O stream width for this node. Bounded by vCPUs and by
  // the engine's intrinsic ~48-stream flush/prefetch pipeline limit (the
  // paper attributes the ~9 Gb/s NIC plateau on the 96-vCPU instance to
  // limitations tied to the fixed 512 KB page size).
  int IoWidth() const;

 private:
  InstanceProfile profile_;
  SimEnvironment* env_;
  uint32_t trace_pid_ = 0;
  SimClock clock_;
  SimExecutor executor_;
  Nic nic_;
  SimLocalSsd ssd_;
  IoScheduler io_;
};

// The simulated cloud: one object store, any number of network block
// volumes, cluster telemetry (whose cost ledger is the run's bill), and
// the compute nodes.
class SimEnvironment {
 public:
  explicit SimEnvironment(ObjectStoreOptions store_options = {});

  SimObjectStore& object_store() { return object_store_; }
  Telemetry& telemetry() { return telemetry_; }

  // Creates (or returns the existing) named block volume.
  SimBlockVolume& CreateVolume(const std::string& name,
                               BlockVolumeOptions options);
  SimBlockVolume* FindVolume(const std::string& name);

  // Adds a compute node; returns its index.
  NodeContext& AddNode(const InstanceProfile& profile);
  NodeContext& node(size_t i) { return *nodes_[i]; }
  size_t node_count() const { return nodes_.size(); }

 private:
  Telemetry telemetry_;  // before the object store, which points into it
  SimObjectStore object_store_;
  std::map<std::string, std::unique_ptr<SimBlockVolume>> volumes_;
  std::vector<std::unique_ptr<NodeContext>> nodes_;
};

inline Telemetry& NodeContext::telemetry() { return env_->telemetry(); }

}  // namespace cloudiq

#endif  // CLOUDIQ_SIM_ENVIRONMENT_H_
