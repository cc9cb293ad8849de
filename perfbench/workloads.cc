#include "perfbench/workloads.h"

#include <algorithm>
#include <array>
#include <deque>
#include <span>
#include <unordered_map>
#include <utility>

#include "src/base/epoch.h"
#include "src/ml/dataset.h"
#include "src/ml/mlp.h"
#include "src/ml/quantize.h"
#include "src/rmt/control_plane.h"
#include "src/rmt/pipeline.h"
#include "src/sim/mem/memory_sim.h"
#include "src/sim/mem/ml_prefetcher.h"
#include "src/sim/net/net_sim.h"
#include "src/sim/net/rx_datapath.h"
#include "src/sim/sched/cfs_sim.h"
#include "src/sim/sched/rmt_oracle.h"
#include "src/verifier/verifier.h"
#include "src/workloads/access_trace.h"
#include "src/workloads/cpu_jobs.h"
#include "src/workloads/packet_trace.h"

namespace perfbench {
namespace {

using rkd::ControlPlane;
using rkd::HookId;
using rkd::HookRegistry;
using rkd::Status;

// Probe inputs kept per hook, and how many of them one probe pass replays.
constexpr size_t kCaptureLimit = 1 << 14;
constexpr size_t kProbeSample = 4096;
constexpr int kProbePasses = 5;

// Keeps probe results observable so the timed loops are not optimized away.
volatile uint64_t g_probe_sink = 0;

double Seconds(uint64_t begin_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

// Median over passes of the mean ns per op of body(i), i in [0, ops).
template <typename Body>
double NsPerOp(size_t ops, Body&& body) {
  if (ops == 0) {
    return 0.0;
  }
  std::vector<double> per_pass;
  uint64_t sink = 0;
  for (int pass = 0; pass < kProbePasses; ++pass) {
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < ops; ++i) {
      sink += static_cast<uint64_t>(body(i));
    }
    per_pass.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(ops));
  }
  g_probe_sink = g_probe_sink + sink;
  return Median(per_pass);
}

std::span<const rkd::HookEvent> Sample(std::span<const rkd::HookEvent> events) {
  return events.first(std::min(events.size(), kProbeSample));
}

// --- Counts every workload shares ------------------------------------------

// Table versions right after set-up; the delta at the end of the job is the
// number of index publishes the job's mutations caused.
std::vector<uint64_t> TableVersions(ControlPlane& cp, ControlPlane::ProgramHandle handle) {
  std::vector<uint64_t> versions;
  for (const auto& table : cp.Get(handle)->tables()) {
    versions.push_back(table->table().version());
  }
  return versions;
}

// Adds one program's hook, table, tier and control-plane counts to the job's,
// and its exec errors and governor fallbacks to the job's failures.
void AddRmtCounts(HookRegistry& hooks, ControlPlane& cp, ControlPlane::ProgramHandle handle,
                  const std::vector<uint64_t>& base_versions, JobResult& out) {
  Counts& c = out.counts;
  for (HookId id = 0; static_cast<size_t>(id) < hooks.size(); ++id) {
    const rkd::HookMetrics m = hooks.MetricsOf(id);
    c["hook." + hooks.NameOf(id) + ".fires"] += m.fires();
    c["rmt.hooks.fires"] += m.fires();
    c["rmt.hooks.exec_errors"] += m.exec_errors();
    c["rmt.hooks.degraded_fires"] += m.degraded_fires();
    c["rmt.hooks.shed_fires"] += m.shed_fires();
    out.failed += m.exec_errors() + m.degraded_fires() + m.shed_fires();
  }
  rkd::InstalledProgram* program = cp.Get(handle);
  const auto& tables = program->tables();
  for (size_t i = 0; i < tables.size(); ++i) {
    const rkd::RmtTable& table = tables[i]->table();
    c["rmt.table.hits"] += table.hits();
    c["rmt.table.misses"] += table.misses();
    c["rmt.table.mutations"] += table.version() - base_versions[i];
  }
  const rkd::Tier3Stats& tier3 = program->tier3_stats();
  c["vm.execs"] += program->exec_metrics().execs->value();
  c["vm.tier3_execs"] += tier3.execs.value();
  c["vm.tier3_deopts.map_write"] +=
      tier3.deopts[static_cast<size_t>(rkd::DeoptReason::kMapWrite)].value();
  c["vm.tier3_deopts.model_install"] +=
      tier3.deopts[static_cast<size_t>(rkd::DeoptReason::kModelInstall)].value();
  c["vm.tier3_deopts.table_mutation"] +=
      tier3.deopts[static_cast<size_t>(rkd::DeoptReason::kTableMutation)].value();
  c["vm.specializations"] += cp.Metrics().tier3_specializations->value();
  c["rmt.cp.model_swaps"] += cp.Metrics().model_swaps->value();
}

// --- Probes every workload shares ------------------------------------------

struct ProbeTarget {
  HookRegistry* hooks = nullptr;
  ControlPlane* cp = nullptr;
  ControlPlane::ProgramHandle handle = -1;
  const FireCapture* capture = nullptr;
  HookId decision_hook = rkd::kInvalidHook;  // fired one event at a time
  std::vector<HookId> batched_hooks;          // fired through FireBatch
  size_t batch_size = 0;
  rkd::ModelPtr model;                         // slot 0
  std::vector<std::vector<int32_t>> rows;      // the model's input rows
  rkd::RmtProgramSpec spec;
};

void RunCommonProbes(const ProbeTarget& t, Probes& out) {
  rkd::InstalledProgram* program = t.cp->Get(t.handle);

  // Table lookups on the keys each table's hook saw.
  std::array<std::vector<double>, 4> by_kind;
  for (const auto& table : program->tables()) {
    const std::span<const rkd::HookEvent> events = Sample(t.capture->events(table->hook()));
    rkd::RmtTable& index = table->table();
    const double ns = NsPerOp(events.size(), [&](size_t i) {
      rkd::EpochGuard guard(rkd::GlobalEpochDomain());
      return index.Match(events[i].key) != nullptr ? 1 : 0;
    });
    by_kind[static_cast<size_t>(index.match_kind())].push_back(ns);
    if (table->hook() == t.decision_hook) {
      out.decision_lookup_ns = ns;
    }
  }
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  out.lookup_lpm_ns = mean(by_kind[static_cast<size_t>(rkd::MatchKind::kLpm)]);
  out.lookup_ternary_ns = mean(by_kind[static_cast<size_t>(rkd::MatchKind::kTernary)]);
  out.lookup_exact_ns = mean(by_kind[static_cast<size_t>(rkd::MatchKind::kExact)]);

  // Whole fires and bare executions of the decision hook.
  if (t.decision_hook != rkd::kInvalidHook) {
    const std::span<const rkd::HookEvent> events = Sample(t.capture->events(t.decision_hook));
    out.fire_ns = NsPerOp(events.size(), [&](size_t i) {
      return t.hooks->Fire(t.decision_hook, events[i].key,
                           std::span(events[i].args.data(), events[i].num_args));
    });
    for (const auto& table : program->tables()) {
      if (table->hook() != t.decision_hook) {
        continue;
      }
      const double exec_ns = NsPerOp(events.size(), [&](size_t i) {
        rkd::EpochGuard guard(rkd::GlobalEpochDomain());
        const rkd::Result<int64_t> r = table->Execute(
            events[i].key, std::span(events[i].args.data(), events[i].num_args));
        return r.ok() ? *r : 0;
      });
      out.vm_exec_ns = exec_ns - out.decision_lookup_ns;
    }
  }

  // Batched fires at the workload's window size, per event of each hook.
  std::vector<int64_t> results(t.batch_size);
  for (const HookId hook : t.batched_hooks) {
    const std::span<const rkd::HookEvent> events = t.capture->events(hook);
    const size_t windows = std::max<size_t>(1, std::min(events.size(), kProbeSample * 4) /
                                                   std::max<size_t>(1, t.batch_size));
    const size_t len = std::min(t.batch_size, events.size());
    if (len == 0) {
      continue;
    }
    const double per_window = NsPerOp(windows, [&](size_t w) {
      const size_t offset = (w * len) % (events.size() - len + 1);
      t.hooks->FireBatch(hook, events.subspan(offset, len), results);
      return results[0];
    });
    out.batch_ns_per_event += per_window / static_cast<double>(len);
  }

  if (t.model != nullptr && !t.rows.empty()) {
    const size_t n = std::min(t.rows.size(), kProbeSample);
    out.predict_ns = NsPerOp(n, [&](size_t i) { return t.model->Predict(t.rows[i]); });
  }
  if (t.model != nullptr) {
    out.model_install_ns = NsPerOp(16, [&](size_t) {
      return t.cp->InstallModel(t.handle, 0, t.model).ok() ? 1 : 0;
    });
  }

  // Admission checks on every action of the program as Init() installs it.
  std::vector<const rkd::BytecodeProgram*> actions;
  for (const rkd::RmtTableSpec& table : t.spec.tables) {
    for (const rkd::BytecodeProgram& action : table.actions) {
      actions.push_back(&action);
    }
  }
  const rkd::Verifier verifier;
  out.verify_ns = NsPerOp(actions.size(), [&](size_t i) {
    return verifier.Verify(*actions[i], &program->models(), &program->tensors()).ok() ? 1 : 0;
  });
}

// Installs `sink` on `hooks` for the lifetime of the scope.
class ScopedSink {
 public:
  ScopedSink(HookRegistry& hooks, rkd::HookEventSink* sink) : hooks_(hooks) {
    hooks_.set_event_sink(sink);
  }
  ~ScopedSink() { hooks_.set_event_sink(nullptr); }
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  HookRegistry& hooks_;
};

void NoteMismatch(JobResult& out, const std::string& what) {
  if (out.mismatches++ == 0) {
    out.first_mismatch = what;
  }
}

// ===========================================================================
// prefetch_online: MemorySim + RmtMlPrefetcher with online training.
// ===========================================================================

rkd::MemSimConfig PrefetchSimConfig() {
  rkd::MemSimConfig config;
  config.frame_capacity = 192;  // the Table 1 substrate
  return config;
}

// Boundary decorator: times each OnFault and checks the emitted pages
// against `reference` (one entry per fault), or records them there.
class TimedPrefetcher final : public rkd::Prefetcher {
 public:
  TimedPrefetcher(rkd::Prefetcher* inner, JobResult* out,
                  std::vector<std::vector<int64_t>>* reference, bool record, bool perturb,
                  bool capture_rows)
      : inner_(inner), out_(out), reference_(reference), record_(record), perturb_(perturb),
        capture_rows_(capture_rows) {}

  std::string_view name() const override { return inner_->name(); }
  void OnAccess(uint64_t pid, int64_t page, bool hit) override {
    inner_->OnAccess(pid, page, hit);
    if (capture_rows_) {
      auto [it, fresh] = last_page_.try_emplace(pid, page);
      if (!fresh) {
        std::deque<int32_t>& deltas = deltas_[pid];
        deltas.push_front(static_cast<int32_t>(page - it->second));
        if (deltas.size() > 4) deltas.pop_back();
        it->second = page;
      }
    }
  }
  void OnFault(uint64_t pid, int64_t page, std::vector<int64_t>& out_pages) override {
    const size_t before = out_pages.size();
    const uint64_t t0 = NowNs();
    inner_->OnFault(pid, page, out_pages);
    const uint64_t t1 = NowNs();
    out_->decision_ns.push_back(t1 - t0);
    if (perturb_ && calls_ == 7) {
      out_pages.push_back(page + 1000003);
    }
    const std::span<const int64_t> emitted = std::span(out_pages).subspan(before);
    if (record_) {
      reference_->emplace_back(emitted.begin(), emitted.end());
    } else if (calls_ >= reference_->size() ||
               !std::ranges::equal(emitted, (*reference_)[calls_])) {
      NoteMismatch(*out_, "OnFault #" + std::to_string(calls_) + " emitted other pages");
    }
    if (capture_rows_ && rows.size() < kCaptureLimit) {
      const std::deque<int32_t>& deltas = deltas_[pid];
      std::vector<int32_t> row(4, 0);
      for (size_t i = 0; i < deltas.size(); ++i) row[i] = deltas[i];
      rows.push_back(std::move(row));
    }
    ++calls_;
  }
  void OnRunEnd() override { inner_->OnRunEnd(); }

  uint64_t calls() const { return calls_; }
  std::vector<std::vector<int32_t>> rows;  // model input rows at each fault

 private:
  rkd::Prefetcher* inner_;
  JobResult* out_;
  std::vector<std::vector<int64_t>>* reference_;
  bool record_;
  bool perturb_;
  bool capture_rows_;
  uint64_t calls_ = 0;
  std::unordered_map<uint64_t, int64_t> last_page_;
  std::unordered_map<uint64_t, std::deque<int32_t>> deltas_;
};

bool SameMem(const rkd::MemMetrics& a, const rkd::MemMetrics& b) {
  return a.accesses == b.accesses && a.hits == b.hits && a.faults == b.faults &&
         a.prefetch_hits == b.prefetch_hits && a.prefetched == b.prefetched &&
         a.prefetch_used == b.prefetch_used &&
         a.prefetch_evicted_unused == b.prefetch_evicted_unused && a.total_ns == b.total_ns;
}

class PrefetchOnline final : public Workload {
 public:
  PrefetchOnline(uint64_t seed, bool tiny) : seed_(seed), tiny_(tiny) {}
  const char* name() const override { return "prefetch_online"; }
  double tail_pct() const override { return 99.0; }
  const char* event_unit() const override { return "accesses"; }

  Status RunJob(const JobMode& mode, JobResult& out) override {
    const uint64_t start = NowNs();
    if (mode.prepare || trace_.empty()) {
      trace_ = MakeTrace();  // online training: nothing to train up front
      out.prepared = true;
    }
    const uint64_t generated = NowNs();
    out.gen_s = Seconds(start, generated);
    const rkd::AccessTrace& trace = trace_;

    rkd::MlPrefetcherConfig config;
    if (mode.reference) {
      config.tier = rkd::ExecTier::kInterpreter;
      config.enable_tiering = false;
    }
    auto prefetcher = std::make_unique<rkd::RmtMlPrefetcher>(config);
    RKD_RETURN_IF_ERROR(prefetcher->Init());
    const uint64_t initialized = NowNs();
    out.init_s = Seconds(generated, initialized);
    const std::vector<uint64_t> versions =
        TableVersions(prefetcher->control_plane(), prefetcher->handle());

    auto capture = std::make_unique<FireCapture>(kCaptureLimit);
    std::unique_ptr<ScopedSink> sink;
    if (mode.traced) {
      sink = std::make_unique<ScopedSink>(prefetcher->hooks(), capture.get());
    }
    if (mode.reference) {
      reference_emits_.clear();
    }
    auto timed = std::make_unique<TimedPrefetcher>(prefetcher.get(), &out, &reference_emits_,
                                                   mode.reference, mode.perturb, mode.traced);
    rkd::MemorySim sim(PrefetchSimConfig(), timed.get());
    const uint64_t t0 = NowNs();
    out.setup_s = Seconds(start, t0);
    const rkd::MemMetrics metrics = sim.Run(trace);
    out.phase_ns = NowNs() - t0;
    sink.reset();

    if (mode.reference) {
      reference_metrics_ = metrics;
    } else if (!SameMem(metrics, reference_metrics_)) {
      NoteMismatch(out, "MemMetrics differ from the reference");
    }
    out.events = metrics.accesses;
    out.attempted = timed->calls();
    out.policy_score = metrics.accuracy() * 100.0;
    AddRmtCounts(prefetcher->hooks(), prefetcher->control_plane(), prefetcher->handle(),
                 versions, out);
    out.counts["ml.retrains"] = prefetcher->windows_trained();
    out.counts["sim.faults"] = metrics.faults;
    out.counts["sim.prefetched"] = metrics.prefetched;
    out.fire_digest = capture->digest();
    out.digest_fires = capture->fires();

    if (mode.traced) {
      prefetcher_ = std::move(prefetcher);
      capture_ = std::move(capture);
      timed_ = std::move(timed);
      faults_ = metrics.faults;
      accesses_ = metrics.accesses;
    }
    return rkd::OkStatus();
  }

  Status Probe(Probes& out) override {
    if (prefetcher_ == nullptr) {
      return rkd::FailedPreconditionError("no traced job to probe");
    }
    ProbeTarget t;
    t.hooks = &prefetcher_->hooks();
    t.cp = &prefetcher_->control_plane();
    t.handle = prefetcher_->handle();
    t.capture = capture_.get();
    t.decision_hook = *t.hooks->Lookup("mm.swap_cluster_readahead");
    t.batched_hooks = {*t.hooks->Lookup("mm.lookup_swap_cache")};
    t.batch_size = rkd::MlPrefetcherConfig().access_batch;
    t.model = t.cp->Get(t.handle)->models().Get(0);
    t.rows = timed_->rows;
    t.spec = prefetcher_->BuildProgramSpec();
    RunCommonProbes(t, out);
    out.single_fires_per_decision = 1.0;
    out.batched_events_per_decision =
        faults_ == 0 ? 0.0 : static_cast<double>(accesses_) / static_cast<double>(faults_);
    return rkd::OkStatus();
  }

  double ReplaySimNs() override {
    // Emits the reference job's pages fault by fault; monitoring is a no-op.
    class Replay final : public rkd::Prefetcher {
     public:
      explicit Replay(const std::vector<std::vector<int64_t>>& emits) : emits_(emits) {}
      std::string_view name() const override { return "replay"; }
      void OnAccess(uint64_t, int64_t, bool) override {}
      void OnFault(uint64_t, int64_t, std::vector<int64_t>& out_pages) override {
        if (next_ < emits_.size()) {
          const std::vector<int64_t>& pages = emits_[next_++];
          out_pages.insert(out_pages.end(), pages.begin(), pages.end());
        }
      }

     private:
      const std::vector<std::vector<int64_t>>& emits_;
      size_t next_ = 0;
    };
    Replay replay(reference_emits_);
    rkd::MemorySim sim(PrefetchSimConfig(), &replay);
    const uint64_t t0 = NowNs();
    const rkd::MemMetrics metrics = sim.Run(trace_);
    const uint64_t t1 = NowNs();
    return SameMem(metrics, reference_metrics_) ? static_cast<double>(t1 - t0) : -1.0;
  }

 private:
  rkd::AccessTrace MakeTrace() const {
    // Video resize (pid 1) interleaved with matrix convolution (pid 2).
    rkd::VideoResizeConfig video;
    rkd::MatrixConvConfig conv;
    // Eight times the Table 1 traces: ~60k faults and ~750 retrains a job.
    video.frames = tiny_ ? 2 : 192;
    conv.height = tiny_ ? 48 : 5760;
    rkd::Rng video_rng(seed_);
    rkd::Rng conv_rng(seed_ ^ 0x5eedc0deull);
    return rkd::Interleave(
        {rkd::MakeVideoResizeTrace(video, video_rng), rkd::MakeMatrixConvTrace(conv, conv_rng)});
  }

  uint64_t seed_;
  bool tiny_;
  rkd::AccessTrace trace_;
  std::vector<std::vector<int64_t>> reference_emits_;  // pages each OnFault emitted
  rkd::MemMetrics reference_metrics_;
  // The last traced job, kept for the probes.
  std::unique_ptr<rkd::RmtMlPrefetcher> prefetcher_;
  std::unique_ptr<FireCapture> capture_;
  std::unique_ptr<TimedPrefetcher> timed_;
  uint64_t faults_ = 0;
  uint64_t accesses_ = 0;
};

// ===========================================================================
// sched_balance: CfsSim::Run + RmtMigrationOracle::AsOracle + quantized MLP.
// ===========================================================================

bool SameSched(const std::vector<rkd::SchedMetrics>& a, const std::vector<rkd::SchedMetrics>& b) {
  return std::ranges::equal(a, b, [](const rkd::SchedMetrics& x, const rkd::SchedMetrics& y) {
    return x.ticks == y.ticks && x.migrations == y.migrations && x.decisions == y.decisions &&
           x.oracle_fallbacks == y.oracle_fallbacks && x.ctx_store_full == y.ctx_store_full &&
           x.oracle_agreements == y.oracle_agreements && x.completed == y.completed;
  });
}

rkd::SchedMetrics Total(const std::vector<rkd::SchedMetrics>& per_job) {
  rkd::SchedMetrics total;
  total.completed = true;
  for (const rkd::SchedMetrics& m : per_job) {
    total.ticks += m.ticks;
    total.migrations += m.migrations;
    total.decisions += m.decisions;
    total.oracle_fallbacks += m.oracle_fallbacks;
    total.ctx_store_full += m.ctx_store_full;
    total.oracle_agreements += m.oracle_agreements;
    total.completed = total.completed && m.completed;
  }
  return total;
}

class SchedBalance final : public Workload {
 public:
  SchedBalance(uint64_t seed, bool tiny) : seed_(seed), tiny_(tiny) {}
  const char* name() const override { return "sched_balance"; }
  double tail_pct() const override { return 99.0; }
  const char* event_unit() const override { return "ticks"; }

  Status RunJob(const JobMode& mode, JobResult& out) override {
    const uint64_t start = NowNs();
    const rkd::SchedConfig sched_config = SchedConfigFor();
    uint64_t generated = start;
    if (mode.prepare || parts_.empty()) {
      // Six independent Fib jobs (one when tiny), each with its own model:
      // how well a model mimics CFS, and with it the job's decision count,
      // depends on the draw, and six draws keep the run's totals close
      // from one seed to the next.
      const size_t count = tiny_ ? 1 : 6;
      parts_.clear();
      std::vector<rkd::JobSpec> twins;
      for (size_t k = 0; k < count; ++k) {
        parts_.push_back({MakeSchedJob(seed_ * 16 + k), nullptr});
        twins.push_back(MakeSchedJob(seed_ * 16 + 8 + k));
      }
      generated = NowNs();
      // Trained the way table2_scheduler trains: stock-CFS decision traces
      // of the same job under two seeds, a 15-16-16-2 MLP, int16 weights.
      for (size_t k = 0; k < count; ++k) {
        rkd::Dataset train = rkd::CollectMigrationDataset(sched_config, parts_[k].job);
        rkd::CfsSim collect(sched_config);
        (void)collect.Run(twins[k], {}, &train);
        rkd::MlpConfig mlp_config;
        mlp_config.hidden_sizes = {16, 16};
        mlp_config.epochs = 60;
        mlp_config.seed = 5;
        RKD_ASSIGN_OR_RETURN(rkd::Mlp mlp, rkd::Mlp::Train(train, mlp_config));
        RKD_ASSIGN_OR_RETURN(rkd::QuantizedMlp quantized, rkd::QuantizedMlp::FromMlp(mlp));
        parts_[k].model = std::make_shared<rkd::QuantizedMlp>(std::move(quantized));
      }
      out.prepared = true;
    }
    out.gen_s = Seconds(start, generated);
    out.train_s = Seconds(generated, NowNs());

    // One oracle per job, Init()-ed and given its job's model before the
    // first timed event.
    rkd::RmtOracleConfig config;
    if (mode.reference) {
      config.tier = rkd::ExecTier::kInterpreter;
      config.enable_tiering = false;
    }
    auto capture = std::make_unique<FireCapture>(kCaptureLimit);
    std::vector<std::unique_ptr<rkd::RmtMigrationOracle>> oracles;
    std::vector<rkd::MigrationOracle> inners;
    std::vector<std::vector<uint64_t>> versions;
    std::vector<std::unique_ptr<ScopedSink>> sinks;
    for (const Part& part : parts_) {
      const uint64_t t0 = NowNs();
      oracles.push_back(std::make_unique<rkd::RmtMigrationOracle>(config));
      rkd::RmtMigrationOracle& oracle = *oracles.back();
      RKD_RETURN_IF_ERROR(oracle.Init());
      out.init_s += Seconds(t0, NowNs());
      RKD_RETURN_IF_ERROR(oracle.InstallModel(part.model));
      versions.push_back(TableVersions(oracle.control_plane(), oracle.handle()));
      inners.push_back(oracle.AsOracle());
      if (mode.traced) {
        sinks.push_back(std::make_unique<ScopedSink>(oracle.hooks(), capture.get()));
      }
    }
    if (mode.reference) {
      reference_decisions_.clear();
    }
    std::vector<std::vector<int32_t>> rows;
    const rkd::MigrationOracle* inner = nullptr;
    uint64_t calls = 0;
    rkd::MigrationOracle wrapped = [&](int64_t pid, const rkd::SchedFeatures& features) {
      const uint64_t t0 = NowNs();
      int64_t decision = (*inner)(pid, features);
      const uint64_t t1 = NowNs();
      out.decision_ns.push_back(t1 - t0);
      if (mode.perturb && calls == 7) {
        decision = decision == 1 ? 0 : 1;
      }
      if (mode.reference) {
        reference_decisions_.push_back(decision);
      } else if (calls >= reference_decisions_.size() ||
                 reference_decisions_[calls] != decision) {
        NoteMismatch(out, "oracle call #" + std::to_string(calls) + " returned another decision");
      }
      if (mode.traced && rows.size() < kCaptureLimit) {
        std::vector<int32_t> row(rkd::kSchedNumFeatures);
        for (size_t i = 0; i < row.size(); ++i) row[i] = rkd::RawToQ16(features[i]);
        rows.push_back(std::move(row));
      }
      ++calls;
      return decision;
    };

    std::vector<rkd::SchedMetrics> per_job;
    const uint64_t t0 = NowNs();
    out.setup_s = Seconds(start, t0);
    for (size_t k = 0; k < parts_.size(); ++k) {
      inner = &inners[k];
      rkd::CfsSim sim(sched_config);
      per_job.push_back(sim.Run(parts_[k].job, wrapped));
    }
    out.phase_ns = NowNs() - t0;
    sinks.clear();

    if (mode.reference) {
      reference_metrics_ = per_job;
    } else if (!SameSched(per_job, reference_metrics_)) {
      NoteMismatch(out, "SchedMetrics differ from the reference");
    }
    const rkd::SchedMetrics metrics = Total(per_job);
    out.events = metrics.ticks;
    out.attempted = calls;
    out.failed += metrics.ctx_store_full;
    out.policy_score = metrics.agreement() * 100.0;
    for (size_t k = 0; k < oracles.size(); ++k) {
      AddRmtCounts(oracles[k]->hooks(), oracles[k]->control_plane(), oracles[k]->handle(),
                   versions[k], out);
    }
    out.counts["sim.decisions"] = metrics.decisions;
    out.counts["sim.migrations"] = metrics.migrations;
    out.counts["sim.ctx_store_full"] = metrics.ctx_store_full;
    out.fire_digest = capture->digest();
    out.digest_fires = capture->fires();

    if (mode.traced) {
      oracle_ = std::move(oracles.back());  // the probes replay into the last job's oracle
      capture_ = std::move(capture);
      rows_ = std::move(rows);
    }
    return rkd::OkStatus();
  }

  Status Probe(Probes& out) override {
    if (oracle_ == nullptr) {
      return rkd::FailedPreconditionError("no traced job to probe");
    }
    ProbeTarget t;
    t.hooks = &oracle_->hooks();
    t.cp = &oracle_->control_plane();
    t.handle = oracle_->handle();
    t.capture = capture_.get();
    t.decision_hook = *t.hooks->Lookup("sched.can_migrate_task");
    t.model = parts_.back().model;
    t.rows = rows_;
    t.spec = oracle_->BuildProgramSpec();
    RunCommonProbes(t, out);
    out.single_fires_per_decision = 1.0;
    return rkd::OkStatus();
  }

  double ReplaySimNs() override {
    size_t next = 0;
    const rkd::MigrationOracle replay = [&](int64_t, const rkd::SchedFeatures&) {
      return next < reference_decisions_.size() ? reference_decisions_[next++] : -1;
    };
    std::vector<rkd::SchedMetrics> per_job;
    const uint64_t t0 = NowNs();
    for (const Part& part : parts_) {
      rkd::CfsSim sim(SchedConfigFor());
      per_job.push_back(sim.Run(part.job, replay));
    }
    const uint64_t t1 = NowNs();
    return SameSched(per_job, reference_metrics_) ? static_cast<double>(t1 - t0) : -1.0;
  }

 private:
  struct Part {
    rkd::JobSpec job;
    rkd::ModelPtr model;
  };

  // Fib: staggered arrivals and geometric task sizes keep the queues
  // imbalanced, so with 32 tasks a core the balancer consults
  // can_migrate_task ~7k times a job.
  rkd::JobSpec MakeSchedJob(uint64_t seed) const {
    rkd::JobConfig config;
    config.num_tasks = tiny_ ? 16 : 128;
    config.base_work = tiny_ ? 400 : 12000;
    config.seed = seed;
    return rkd::MakeJob(rkd::JobKind::kFib, config);
  }
  static rkd::SchedConfig SchedConfigFor() {
    rkd::SchedConfig config;
    config.cores = 4;
    return config;
  }

  uint64_t seed_;
  bool tiny_;
  std::vector<Part> parts_;
  std::vector<int64_t> reference_decisions_;
  std::vector<rkd::SchedMetrics> reference_metrics_;  // one per job
  std::unique_ptr<rkd::RmtMigrationOracle> oracle_;
  std::unique_ptr<FireCapture> capture_;
  std::vector<std::vector<int32_t>> rows_;
};

// ===========================================================================
// net_rx_learned / net_rx_flood_rss: NetRxSim + RmtRxDatapath, one timed
// NetRxSim::Run call per batch_size window.
// ===========================================================================

// Digest of every NetMetrics field: the sim's cumulative boundary output,
// taken after each window. `bump` adds one to the first field, as a wrong
// decision that moved one count would (the comparator's self-test).
uint64_t NetDigest(const rkd::NetMetrics& m, bool bump) {
  Digest d;
  for (const uint64_t v : {m.packets + (bump ? 1 : 0), m.bytes, m.cache_hits, m.cache_misses,
                           m.legit_cache_hits, m.legit_cache_misses, m.policy_drops,
                           m.overflow_drops, m.redirects, m.fallback_decisions,
                           m.flood_packets, m.flood_dropped, m.flood_delivered,
                           m.legit_packets, m.legit_dropped, m.legit_delivered,
                           m.slow_path_ns}) {
    d.Add(v);
  }
  for (const std::vector<uint64_t>* queues : {&m.queue_packets, &m.queue_bytes}) {
    d.Add(queues->size());
    for (const uint64_t v : *queues) d.Add(v);
  }
  return d.value();
}

class NetRx final : public Workload {
 public:
  NetRx(uint64_t seed, bool tiny, rkd::RxPolicyKind policy)
      : seed_(seed), tiny_(tiny), policy_(policy) {}
  const char* name() const override {
    return policy_ == rkd::RxPolicyKind::kLearned ? "net_rx_learned" : "net_rx_flood_rss";
  }
  double tail_pct() const override { return 90.0; }
  const char* event_unit() const override { return "packets"; }

  Status RunJob(const JobMode& mode, JobResult& out) override {
    const uint64_t start = NowNs();
    rkd::NetConfig config;
    if (tiny_) {
      config.batch_size = 512;
    }
    uint64_t generated = start;
    if (mode.prepare || trace_.empty()) {
      trace_ = MakeTrace(seed_);
      rkd::PacketTrace train_trace;
      if (policy_ == rkd::RxPolicyKind::kLearned) {
        train_trace = MakeTrace(seed_ + 1);
      }
      generated = NowNs();
      if (policy_ == rkd::RxPolicyKind::kLearned) {
        // The forest learns from a heuristic run over another seed's trace.
        rkd::RmtRxDatapath teacher(config, rkd::RxPolicyKind::kHeuristic);
        RKD_RETURN_IF_ERROR(teacher.Init());
        rkd::Dataset training(rkd::kNetFeatureCount);
        rkd::NetRxSim teacher_sim(&teacher);
        teacher_sim.set_training_sink(&training);
        teacher_sim.Run(train_trace);
        RKD_ASSIGN_OR_RETURN(model_,
                             rkd::TrainNetModel(training, rkd::NetModelFamily::kRandomForest,
                                                seed_));
        rows_.clear();
        for (size_t i = 0; i < training.size() && rows_.size() < kCaptureLimit; ++i) {
          const std::span<const int32_t> row = training.row(i);
          rows_.emplace_back(row.begin(), row.end());
        }
      }
      out.prepared = true;
    }
    const uint64_t trained = NowNs();
    out.gen_s = Seconds(start, generated);
    out.train_s = Seconds(generated, trained);
    const rkd::ModelPtr model = model_;

    if (mode.reference) {
      config.tier = rkd::ExecTier::kInterpreter;
      config.enable_tiering = false;
    }
    auto datapath = std::make_unique<rkd::RmtRxDatapath>(config, policy_);
    RKD_RETURN_IF_ERROR(datapath->Init());
    const uint64_t initialized = NowNs();
    out.init_s = Seconds(trained, initialized);
    if (model != nullptr) {
      RKD_RETURN_IF_ERROR(datapath->InstallModel(model));
    }
    const std::vector<uint64_t> versions =
        TableVersions(datapath->control_plane(), datapath->handle());

    auto capture = std::make_unique<FireCapture>(kCaptureLimit);
    std::unique_ptr<ScopedSink> sink;
    if (mode.traced) {
      sink = std::make_unique<ScopedSink>(datapath->hooks(), capture.get());
    }
    auto sim = std::make_unique<rkd::NetRxSim>(datapath.get());
    const size_t window = config.batch_size;
    const std::span<const rkd::PacketEvent> packets(trace_);
    if (mode.reference) {
      reference_windows_.clear();
    }
    uint64_t windows = 0;
    const uint64_t t0 = NowNs();
    out.setup_s = Seconds(start, t0);
    for (size_t offset = 0; offset < packets.size(); offset += window) {
      const std::span<const rkd::PacketEvent> slice =
          packets.subspan(offset, std::min(window, packets.size() - offset));
      const uint64_t w0 = NowNs();
      sim->Run(slice);
      out.decision_ns.push_back(NowNs() - w0);
      const uint64_t digest = NetDigest(sim->metrics(), mode.perturb && windows == 7);
      if (mode.reference) {
        reference_windows_.push_back(digest);
      } else if (windows >= reference_windows_.size() ||
                 reference_windows_[windows] != digest) {
        NoteMismatch(out, "window #" + std::to_string(windows) +
                              ": NetMetrics differ from the reference");
      }
      ++windows;
    }
    out.phase_ns = NowNs() - t0;
    sink.reset();
    if (windows != reference_windows_.size()) {
      NoteMismatch(out, "the job ran another number of windows than the reference");
    }

    const rkd::NetMetrics& metrics = sim->metrics();
    out.events = metrics.packets;
    out.attempted = metrics.packets;
    out.failed += datapath->context_publish_failures();
    out.policy_score = metrics.LegitDeliveryRate() * 100.0;
    AddRmtCounts(datapath->hooks(), datapath->control_plane(), datapath->handle(), versions,
                 out);
    out.counts["net.context_publish_failures"] = datapath->context_publish_failures();
    out.counts["sim.cache_misses"] = metrics.cache_misses;
    out.counts["sim.policy_drops"] = metrics.policy_drops;
    out.counts["sim.windows"] = windows;
    out.fire_digest = capture->digest();
    out.digest_fires = capture->fires();

    if (mode.traced) {
      datapath_ = std::move(datapath);
      capture_ = std::move(capture);
      windows_ = windows;
      mutations_ = out.counts["rmt.table.mutations"];
    }
    return rkd::OkStatus();
  }

  Status Probe(Probes& out) override {
    if (datapath_ == nullptr) {
      return rkd::FailedPreconditionError("no traced job to probe");
    }
    ProbeTarget t;
    t.hooks = &datapath_->hooks();
    t.cp = &datapath_->control_plane();
    t.handle = datapath_->handle();
    t.capture = capture_.get();
    t.decision_hook = datapath_->packet_hook();
    t.batched_hooks = {datapath_->route_hook(), datapath_->classify_hook(),
                       datapath_->packet_hook()};
    t.batch_size = datapath_->config().batch_size;
    t.model = model_;
    t.rows = rows_;
    t.spec = datapath_->BuildProgramSpec();
    RunCommonProbes(t, out);
    // The window fires no single events: its per-decision cost is the three
    // batched stages over every packet, plus the flow-table mutations.
    out.single_fires_per_decision = 0.0;
    out.batched_events_per_decision = static_cast<double>(t.batch_size);
    out.mutation_pairs_per_decision =
        windows_ == 0 ? 0.0 : static_cast<double>(mutations_) / 2.0 /
                                  static_cast<double>(windows_);

    // One InsertFlow + EvictFlow pair on a fresh datapath of the same config
    // whose flow table is as full as the LRU keeps it under a flood (every
    // mutation republishes the whole index, so the table size sets the cost).
    rkd::RmtRxDatapath fresh(datapath_->config(), policy_);
    RKD_RETURN_IF_ERROR(fresh.Init());
    const size_t resident = datapath_->config().flow_cache_capacity - 1;
    for (size_t i = 0; i < resident; ++i) {
      RKD_RETURN_IF_ERROR(fresh.InsertFlow(0x1000 + i));
    }
    out.mutation_ns = NsPerOp(64, [&](size_t i) {
      const uint64_t flow = 0xf1000000ull + i;
      return (fresh.InsertFlow(flow).ok() ? 1 : 0) + (fresh.EvictFlow(flow).ok() ? 1 : 0);
    });
    return rkd::OkStatus();
  }

  double ReplaySimNs() override { return -1.0; }

 private:
  // Four independent segments (one when tiny) of the rkd_net trace shape:
  // Zipf flows, bursts, churn, and a spoofed-source UDP flood toward one
  // prefix over 0.55-0.85 of each segment. Which elephants collide on an RSS
  // queue depends on the draw; several draws per job keep the job's
  // behaviour close from one seed to the next.
  rkd::PacketTrace MakeTrace(uint64_t seed) const {
    const size_t segments = tiny_ ? 1 : 4;
    rkd::Rng rng(seed);
    rkd::PacketTrace trace;
    for (size_t i = 0; i < segments; ++i) {
      const rkd::PacketTrace segment = rkd::MakePacketTrace(TraceConfig(), rng);
      trace.insert(trace.end(), segment.begin(), segment.end());
    }
    return trace;
  }
  rkd::PacketTraceConfig TraceConfig() const {
    rkd::PacketTraceConfig config;
    config.packets = tiny_ ? 8192 : 16384;
    config.flows = 512;
    config.zipf_skew = 1.1;
    config.prefixes = 64;
    config.flood_begin = 0.55;
    config.flood_end = 0.85;
    config.flood_prob = 0.5;
    config.victim_prefix = 7;
    config.victim_port = 53;
    return config;
  }

  uint64_t seed_;
  bool tiny_;
  rkd::RxPolicyKind policy_;
  rkd::PacketTrace trace_;
  rkd::ModelPtr model_;                     // learned policy only
  std::vector<std::vector<int32_t>> rows_;  // the forest's training rows
  std::vector<uint64_t> reference_windows_;  // NetDigest after each window
  std::unique_ptr<rkd::RmtRxDatapath> datapath_;
  std::unique_ptr<FireCapture> capture_;
  uint64_t windows_ = 0;
  uint64_t mutations_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"net_rx_learned", "prefetch_online",
                                                 "sched_balance", "net_rx_flood_rss"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, bool tiny) {
  if (name == "prefetch_online") return std::make_unique<PrefetchOnline>(seed, tiny);
  if (name == "sched_balance") return std::make_unique<SchedBalance>(seed, tiny);
  if (name == "net_rx_learned") {
    return std::make_unique<NetRx>(seed, tiny, rkd::RxPolicyKind::kLearned);
  }
  if (name == "net_rx_flood_rss") {
    return std::make_unique<NetRx>(seed, tiny, rkd::RxPolicyKind::kHeuristic);
  }
  return nullptr;
}

}  // namespace perfbench
