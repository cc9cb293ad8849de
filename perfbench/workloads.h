// The four case-study workloads, driven through the simulators' public
// entry points only. Each job starts from a fresh set-up (inputs generated
// from the seed, models trained, datapath Init()-ed and its model installed)
// and then runs one closed loop: one caller, and the next decision starts
// only after the previous one returned. Only the outermost decision call is
// timed; the program's own telemetry stays at its shipped defaults.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/ledger.h"
#include "src/base/status.h"

namespace perfbench {

// How one job runs.
struct JobMode {
  // Interpreter tier with tiering off: the semantic reference. The job
  // records every boundary output instead of comparing against them.
  bool reference = false;
  // Install a FireCapture on every hook registry of the job: digests the
  // fire stream and keeps probe inputs. Off in the untraced run.
  bool traced = false;
  // Change one boundary output after its call returns, inputs unchanged
  // (the comparator's self-test).
  bool perturb = false;
  // Regenerate the inputs and retrain the models before this job, so its
  // set-up covers generation and training. Otherwise the job reuses the
  // last ones and its set-up is the datapath's Init() and model install.
  // The first job of a workload always prepares.
  bool prepare = true;
};

struct JobResult {
  // Set-up: workload start to the first timed event, and its parts.
  bool prepared = false;  // the set-up regenerated inputs and retrained
  double setup_s = 0;
  double gen_s = 0;      // workloads: trace / job generation
  double train_s = 0;    // ml: training (and the data collection it needs)
  double init_s = 0;     // rmt.cp: datapath Init()

  uint64_t phase_ns = 0;                 // timed phase wall time
  std::vector<uint64_t> decision_ns;     // one sample per wrapped call
  uint64_t events = 0;                   // simulated events in the job
  uint64_t attempted = 0;                // decisions attempted at the boundary
  uint64_t failed = 0;                   // errors, fallbacks, store overflows
  uint64_t mismatches = 0;               // boundary outputs != reference
  std::string first_mismatch;            // description of the first one
  double policy_score = 0;               // percent
  Counts counts;
  uint64_t fire_digest = 0;              // traced jobs only
  uint64_t digest_fires = 0;
};

// Results of the post-run probes: lower-layer public calls replayed on a
// fixed sample of the traced job's own captured inputs. 0 = the layer has
// no such call on this workload.
struct Probes {
  double fire_ns = 0;              // HookRegistry::Fire on decision-hook events
  double batch_ns_per_event = 0;   // FireBatch, summed over batched hooks per event
  double lookup_lpm_ns = 0;        // RmtTable::Match, per kind
  double lookup_ternary_ns = 0;
  double lookup_exact_ns = 0;
  double decision_lookup_ns = 0;   // Match on the decision hook's table
  double vm_exec_ns = 0;           // AttachedTable::Execute minus the lookup
  double predict_ns = 0;           // Model::Predict on the workload's rows
  double mutation_ns = 0;          // one InsertFlow + EvictFlow pair
  double model_install_ns = 0;     // ControlPlane::InstallModel
  double verify_ns = 0;            // Verifier::Verify per action

  // Fires per decision, to turn per-fire costs into a per-decision sum.
  double single_fires_per_decision = 0;  // decision-hook Fire calls
  double batched_events_per_decision = 0;  // events through FireBatch
  double mutation_pairs_per_decision = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  // The fixed tail percentile of decision_tail_ns.
  virtual double tail_pct() const = 0;
  // What one simulated event is, for the report.
  virtual const char* event_unit() const = 0;

  // Runs one job from a fresh set-up. A reference job records the boundary
  // outputs; any other job compares against the last reference job.
  virtual rkd::Status RunJob(const JobMode& mode, JobResult& out) = 0;

  // Replays the last traced job's captured inputs into the lower layers.
  // Valid only after a traced job; may mutate that job's datapath.
  virtual rkd::Status Probe(Probes& out) = 0;

  // Wall ns of the simulator alone: the job's sim driven by the reference
  // job's recorded decisions instead of the datapath. Negative when the
  // simulator cannot run without its datapath (the net sim decides inside
  // the timed window, so its own work is part of every decision).
  virtual double ReplaySimNs() = 0;
};

// `tiny` shrinks every input to smoke-test size.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, bool tiny);

// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
