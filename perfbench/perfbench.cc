// rkd_perfbench: one workload, one seed, one run of the repository
// benchmark. perfbench/run.py builds this binary and is the entry point;
// BENCHMARK.json at the repository root lists the workloads and metrics.
//
//   rkd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--tiny] [--perturb]
//
// A run first executes the job once on the reference configuration
// (interpreter tier, tiering off) and records every boundary output. Then it
// repeats the job, each time from a fresh set-up, until the timed phases add
// up to --seconds, comparing every repetition's outputs with the reference
// and its per-layer counts with the first repetition's.
//
//   --trace 0  reports the end-to-end metrics.
//   --trace 1  alternates untraced and traced repetitions (the traced ones
//              digest every fire and capture probe inputs), then runs the
//              per-layer probes and reports the per-layer metrics.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Exit code 0 = every output matched and every count repeated;
// 1 = a reference mismatch, a count that did not repeat, or a failed job;
// 2 = usage error.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/calibrate.h"
#include "perfbench/ledger.h"
#include "perfbench/workloads.h"

#ifndef RKD_BENCH_BUILD_TYPE
#define RKD_BENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Repetitions regenerate inputs and retrain until at least kSetupReps of
// them and kSetupBudgetS of set-up time have been measured; later ones
// reuse the last inputs and models.
constexpr size_t kSetupReps = 3;
constexpr double kSetupBudgetS = 1.0;
constexpr double kWallBudgetS = 140;  // stop adding repetitions past this
// Calibration slices timed before and after each repetition (the fastest
// of each group counts), and the slice time the report's timings are scaled
// to: about what one slice takes on an uncontended 4-vCPU Xeon VM.
constexpr int kCalibrationSlices = 3;
constexpr double kReferenceSliceNs = 1.6e6;

#if defined(__GNUC__) && !defined(__clang__)
constexpr const char* kCompiler = "gcc-" __VERSION__;
#else
constexpr const char* kCompiler = __VERSION__;
#endif

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool perturb = false;
};

void Usage() {
  std::fprintf(stderr,
               "usage: rkd_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--tiny] [--perturb]\n  workloads:");
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseOptions(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opts.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--tiny") {
      opts.tiny = true;
    } else if (arg == "--perturb") {
      opts.perturb = true;
    } else {
      return false;
    }
  }
  return !opts.workload.empty() && opts.seconds > 0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// One metric of the final JSON line, printed with every digit it has.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonLine(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

std::string CountsJson(const Counts& counts) {
  std::string out = "{";
  for (const auto& [name, value] : counts) {
    out += (out.size() == 1 ? "\"" : ", \"") + name + "\": " + std::to_string(value);
  }
  return out + "}";
}

// Aggregates over a set of repetitions. Rates and medians are taken per
// repetition and reported as the median over repetitions; the tail pools
// every repetition's decisions in a histogram.
//
// Timings are reported at a reference host speed. The calibration slice is
// timed right before and right after every repetition, and the
// repetition's times are scaled by kReferenceSliceNs over the mean of the
// two: on a shared host whose speed shifts by half for seconds to minutes,
// that keeps a repetition run in a slow spell comparable with one run in a
// fast spell. The raw figures are printed next to the scaled ones.
struct Summary {
  struct Rep {
    double events_per_s = 0;  // raw
    double p50_ns = 0;        // raw
    double slice_ns = 0;      // calibration slice time around the repetition
    double scale = 1;         // kReferenceSliceNs / slice_ns
  };
  std::vector<Rep> reps;
  double tail_pct = 99;
  LatencyHistogram tail, tail_raw;  // every decision, scaled and raw
  uint64_t phase_ns = 0;
  uint64_t decision_total_ns = 0;
  uint64_t decisions = 0;
  uint64_t events = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  // Set-up parts of the repetitions that prepared, then of every repetition.
  // setup_s is scaled; setup_raw_s and the parts are not.
  std::vector<double> setup_s, setup_raw_s, gen_s, train_s;
  std::vector<double> init_s;

  void Add(JobResult& r, double slice_ns) {
    const double scale = kReferenceSliceNs / slice_ns;
    phase_ns += r.phase_ns;
    events += r.events;
    attempted += r.attempted;
    failed += r.failed;
    mismatches += r.mismatches;
    decisions += r.decision_ns.size();
    for (const uint64_t ns : r.decision_ns) {
      decision_total_ns += ns;
      tail.Add(static_cast<double>(ns) * scale);
      tail_raw.Add(static_cast<double>(ns));
    }
    reps.push_back({static_cast<double>(r.events) * 1e9 /
                        static_cast<double>(std::max<uint64_t>(1, r.phase_ns)),
                    MedianNs(r.decision_ns), slice_ns, scale});
    if (r.prepared) {
      setup_s.push_back(r.setup_s * scale);
      setup_raw_s.push_back(r.setup_s);
      gen_s.push_back(r.gen_s);
      train_s.push_back(r.train_s);
    }
    init_s.push_back(r.init_s);
  }

  // `scaled` selects the reference-speed figure; false gives the raw one.
  double events_per_s(bool scaled = true) const {
    std::vector<double> values;
    for (const Rep& rep : reps) {
      values.push_back(rep.events_per_s / (scaled ? rep.scale : 1.0));
    }
    return Median(values);
  }
  double p50_ns(bool scaled = true) const {
    std::vector<double> values;
    for (const Rep& rep : reps) {
      values.push_back(rep.p50_ns * (scaled ? rep.scale : 1.0));
    }
    return Median(values);
  }
  // The tail percentile pooled over every repetition's decisions.
  double tail_ns(bool scaled = true) const {
    return (scaled ? tail : tail_raw).Percentile(tail_pct);
  }
  std::vector<double> slice_ns() const {
    std::vector<double> values;
    for (const Rep& rep : reps) values.push_back(rep.slice_ns);
    return values;
  }
  // Decisions beyond the tail percentile's nearest rank.
  uint64_t beyond_tail() const {
    return decisions -
           static_cast<uint64_t>(std::ceil(tail_pct / 100.0 * static_cast<double>(decisions)));
  }
  double setup_total_s() const {
    double sum = 0;
    for (const double s : setup_raw_s) sum += s;
    return sum;
  }
};

class Run {
 public:
  explicit Run(const Options& opts) : opts_(opts) {}

  int Execute() {
    workload_ = MakeWorkload(opts_.workload, opts_.seed, opts_.tiny);
    if (workload_ == nullptr) {
      Usage();
      return 2;
    }
    start_ns_ = NowNs();
    std::printf("== rkd perfbench: %s, seed %" PRIu64 ", %g s, %s ==\n", workload_->name(),
                opts_.seed, opts_.seconds, opts_.trace ? "traced" : "untraced");
    std::printf("build: type=%s compiler=%s\n", RKD_BENCH_BUILD_TYPE, kCompiler);

    // Reference: interpreter, tiering off, untimed; excluded from set-up.
    JobMode reference_mode;
    reference_mode.reference = true;
    reference_mode.traced = opts_.trace;
    if (!RunJob(reference_mode, reference_)) {
      return 1;
    }
    std::printf("reference: interpreter tier, tiering off: %zu decisions, %" PRIu64
                " %s recorded\n",
                reference_.decision_ns.size(), reference_.events, workload_->event_unit());

    if (!(opts_.trace ? RepeatTraced() : RepeatUntraced())) {
      return 1;
    }
    peak_rss_mb_ = PeakRssMb();  // before the report's own allocations
    return opts_.trace ? ReportTraced() : ReportUntraced();
  }

 private:
  bool RunJob(const JobMode& mode, JobResult& out) {
    const rkd::Status status = workload_->RunJob(mode, out);
    if (!status.ok()) {
      std::printf("job failed: %s\n", status.ToString().c_str());
      return false;
    }
    return true;
  }

  double Elapsed() const { return static_cast<double>(NowNs() - start_ns_) * 1e-9; }

  // Runs one non-reference repetition and checks it: boundary outputs
  // against the reference (inside the workload), counts against the first
  // repetition, and — traced — the fire-stream digest against the
  // reference's.
  bool Repeat(bool traced, Summary& into) {
    JobMode mode;
    mode.traced = traced;
    mode.perturb = opts_.perturb;
    mode.prepare = into.setup_s.size() < kSetupReps || into.setup_total_s() < kSetupBudgetS;
    JobResult result;
    result.decision_ns.reserve(reference_.decision_ns.size());
    const uint64_t slice_before = calibrator_.MinSliceNs(kCalibrationSlices);
    if (!RunJob(mode, result)) {
      return false;
    }
    const uint64_t slice_after = calibrator_.MinSliceNs(kCalibrationSlices);
    const double slice_ns = 0.5 * static_cast<double>(slice_before + slice_after);
    if (traced && (result.fire_digest != reference_.fire_digest ||
                   result.digest_fires != reference_.digest_fires)) {
      if (result.mismatches++ == 0) {
        result.first_mismatch = "fire-stream digest differs from the reference";
      }
    }
    if (first_counts_.empty()) {
      first_counts_ = result.counts;
    } else {
      for (const std::string& name : CountDiffs(first_counts_, result.counts)) {
        nondeterministic_.insert(name);
      }
    }
    const uint64_t decision_ns = [&] {
      uint64_t sum = 0;
      for (const uint64_t ns : result.decision_ns) sum += ns;
      return sum;
    }();
    // The first repetitions and every mismatching one are printed.
    if (++reps_ <= 4 || result.mismatches > 0) {
      std::printf("rep %zu%s: setup %.3f s, timed %.3f s (decisions %.3f s), %" PRIu64
                  " %s, %" PRIu64 " decisions, %" PRIu64 " mismatches, rss %.1f MB%s%s\n",
                  reps_, traced ? " traced" : "", result.setup_s,
                  static_cast<double>(result.phase_ns) * 1e-9,
                  static_cast<double>(decision_ns) * 1e-9, result.events,
                  workload_->event_unit(), result.attempted, result.mismatches, PeakRssMb(),
                  result.mismatches > 0 ? ": " : "", result.first_mismatch.c_str());
    }
    into.tail_pct = workload_->tail_pct();
    into.Add(result, slice_ns);
    last_counts_ = std::move(result.counts);
    if (traced) {
      traced_policy_ = result.policy_score;
    } else {
      policy_ = result.policy_score;
    }
    return true;
  }

  bool RepeatUntraced() {
    do {
      if (!Repeat(false, untraced_)) {
        return false;
      }
    } while ((static_cast<double>(untraced_.phase_ns) * 1e-9 < opts_.seconds ||
              untraced_.setup_s.size() < kSetupReps) &&
             Elapsed() < kWallBudgetS);
    return true;
  }

  // Alternates untraced and traced repetitions, so drift hits both alike.
  bool RepeatTraced() {
    do {
      if (!Repeat(false, untraced_) || !Repeat(true, traced_)) {
        return false;
      }
    } while ((static_cast<double>(untraced_.phase_ns + traced_.phase_ns) * 1e-9 <
                  opts_.seconds ||
              traced_.setup_s.size() < kSetupReps) &&
             Elapsed() < kWallBudgetS);
    return true;
  }

  // Prints the verdict lines shared by both runs and returns the exit code.
  int Verdict(uint64_t mismatches) const {
    if (!nondeterministic_.empty()) {
      std::printf("COUNT NONDETERMINISM:");
      for (const std::string& name : nondeterministic_) {
        std::printf(" %s", name.c_str());
      }
      std::printf("\n");
    }
    if (mismatches > 0) {
      std::printf("REFERENCE MISMATCH: %" PRIu64 " boundary outputs differ\n", mismatches);
    }
    return mismatches == 0 && nondeterministic_.empty() ? 0 : 1;
  }

  int ReportUntraced() {
    const Summary& s = untraced_;
    const double tail_pct = workload_->tail_pct();
    const uint64_t n = s.decisions;
    const uint64_t beyond = s.beyond_tail();
    const uint64_t failed = s.failed + s.mismatches;
    const double tail = s.tail_ns();

    std::vector<Metric> metrics = {
        {"events_per_s", s.events_per_s(), "1/s"},
        {"decision_p50_ns", s.p50_ns(), "ns"},
        {"decision_tail_ns", tail, "ns"},
        {"setup_s", Median(s.setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb_, "MB"},
        {"policy_score", policy_, "%"},
    };
    const std::vector<double> slices = s.slice_ns();
    std::printf("end-to-end (untraced, %zu reps, %.3f s timed):\n", s.reps.size(),
                static_cast<double>(s.phase_ns) * 1e-9);
    std::printf("  host speed: calibration slice %.3f ms median over the reps (%.3f-%.3f); "
                "timings below are scaled to a %.3f ms slice, raw figures in brackets\n",
                Median(slices) * 1e-6, *std::min_element(slices.begin(), slices.end()) * 1e-6,
                *std::max_element(slices.begin(), slices.end()) * 1e-6,
                kReferenceSliceNs * 1e-6);
    std::printf("  %-18s %.6g 1/s [%.6g] (%s per second of timed phase, median of reps)\n",
                "events_per_s", metrics[0].value, s.events_per_s(false),
                workload_->event_unit());
    std::printf("  %-18s %.6g ns [%.6g] (median of per-rep p50s; %" PRIu64 " decisions)\n",
                "decision_p50_ns", metrics[1].value, s.p50_ns(false), n);
    std::printf("  %-18s %.6g ns [%.6g] (p%g over %" PRIu64 " decisions, %" PRIu64
                " beyond%s)\n",
                "decision_tail_ns", metrics[2].value, s.tail_ns(false), tail_pct, n, beyond,
                beyond < 10 ? "; fewer than 10: run longer" : "");
    std::printf("  %-18s %.6g s [%.6g] (median of %zu set-ups that regenerated and "
                "retrained)\n",
                "setup_s", metrics[3].value, Median(s.setup_raw_s), s.setup_s.size());
    std::printf("  %-18s %.6g MB\n", "peak_rss_mb", metrics[4].value);
    std::printf("  %-18s %.6g %%\n", "policy_score", metrics[5].value);
    std::printf("  %-18s %.6g ratio (%" PRIu64 " failed / %" PRIu64 " attempted)\n",
                "error_rate",
                s.attempted == 0 ? 0.0
                                 : static_cast<double>(failed) / static_cast<double>(s.attempted),
                failed, s.attempted);
    std::printf("counts %s\n", CountsJson(last_counts_).c_str());
    const int code = Verdict(s.mismatches);
    std::printf("%s\n", JsonLine(code == 0, s.attempted, failed, metrics).c_str());
    return code;
  }

  int ReportTraced() {
    Probes probes;
    if (const rkd::Status status = workload_->Probe(probes); !status.ok()) {
      std::printf("probe failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::vector<double> replays;
    for (int i = 0; i < 3; ++i) {
      replays.push_back(workload_->ReplaySimNs());
    }
    const double replay_ns = Median(replays);

    const Summary& t = traced_;
    const Counts& c = last_counts_;
    auto count = [&](const char* name) {
      const auto it = c.find(name);
      return it == c.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double reps = static_cast<double>(t.reps.size());
    const double events = static_cast<double>(t.events);
    const double phase_ns = static_cast<double>(t.phase_ns);
    const double decision_ns = static_cast<double>(t.decision_total_ns);
    const double self_ns = phase_ns - decision_ns;
    const double lookups = count("rmt.table.hits") + count("rmt.table.misses");
    const double execs = count("vm.execs");
    const double overhead = untraced_.events_per_s() / t.events_per_s() - 1.0;

    // Ledger 1: the timed phase splits into the wrapped decision calls and
    // the time outside them (sim.self). The sim-only replay measures the
    // simulator's own work independently; the rest of sim.self is work no
    // layer metric explains.
    const double replay_per_job = replay_ns > 0 ? replay_ns : 0.0;
    const double unattributed_phase = self_ns - replay_per_job * reps;
    // Ledger 2: the probes' per-decision sum against the measured decision.
    const double p50 = t.p50_ns(false);  // raw, like the probes
    const double mean_decision =
        t.decisions == 0 ? 0.0 : decision_ns / static_cast<double>(t.decisions);
    const double probe_sum = probes.single_fires_per_decision * probes.fire_ns +
                             probes.batched_events_per_decision * probes.batch_ns_per_event +
                             probes.mutation_pairs_per_decision * probes.mutation_ns;

    std::vector<Metric> metrics = {
        {"sim.self_ns_per_event", events == 0 ? 0.0 : self_ns / events, "ns/event"},
        {"rmt.hooks.fire_ns", probes.fire_ns, "ns"},
        {"rmt.hooks.batch_ns_per_event", probes.batch_ns_per_event, "ns/event"},
        {"rmt.hooks.fires", count("rmt.hooks.fires"), "count"},
        {"rmt.hooks.exec_errors", count("rmt.hooks.exec_errors"), "count"},
        {"rmt.hooks.degraded_fires", count("rmt.hooks.degraded_fires"), "count"},
        {"rmt.hooks.shed_fires", count("rmt.hooks.shed_fires"), "count"},
        {"rmt.table.lookup_ns.lpm", probes.lookup_lpm_ns, "ns"},
        {"rmt.table.lookup_ns.ternary", probes.lookup_ternary_ns, "ns"},
        {"rmt.table.lookup_ns.exact", probes.lookup_exact_ns, "ns"},
        {"rmt.table.hit_ratio", lookups == 0 ? 0.0 : count("rmt.table.hits") / lookups,
         "ratio"},
        {"rmt.table.mutation_ns", probes.mutation_ns, "ns"},
        {"rmt.table.mutations", count("rmt.table.mutations"), "count"},
        {"vm.exec_ns", probes.vm_exec_ns, "ns"},
        {"vm.tier3_share", execs == 0 ? 0.0 : count("vm.tier3_execs") / execs, "ratio"},
        {"vm.tier3_deopts.map_write", count("vm.tier3_deopts.map_write"), "count"},
        {"vm.tier3_deopts.model_install", count("vm.tier3_deopts.model_install"), "count"},
        {"vm.tier3_deopts.table_mutation", count("vm.tier3_deopts.table_mutation"), "count"},
        {"vm.specializations", count("vm.specializations"), "count"},
        {"ml.predict_ns", probes.predict_ns, "ns"},
        {"ml.train_s", Median(t.train_s), "s"},
        {"ml.retrains", count("ml.retrains"), "count"},
        {"rmt.cp.init_s", Median(t.init_s), "s"},
        {"rmt.cp.model_install_ns", probes.model_install_ns, "ns"},
        {"rmt.cp.model_swaps", count("rmt.cp.model_swaps"), "count"},
        {"verifier.verify_ns", probes.verify_ns, "ns"},
        {"workloads.gen_s", Median(t.gen_s), "s"},
        {"telemetry.trace_overhead", overhead, "ratio"},
    };

    std::printf("per-layer (traced, %zu reps, %.3f s timed; untraced %.6g vs traced %.6g "
                "%s/s):\n",
                t.reps.size(), phase_ns * 1e-9, untraced_.events_per_s(),
                t.events_per_s(), workload_->event_unit());
    for (const Metric& m : metrics) {
      std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }

    std::printf("ledger 1, timed phase per job: wall %.3f ms = decisions %.3f ms + sim.self "
                "%.3f ms\n",
                phase_ns / reps * 1e-6, decision_ns / reps * 1e-6, self_ns / reps * 1e-6);
    if (replay_ns > 0) {
      std::printf("  sim-only replay of the reference decisions %.3f ms; unattributed "
                  "remainder %.3f ms (%.1f%% of wall)\n",
                  replay_ns * 1e-6, unattributed_phase / reps * 1e-6,
                  100.0 * unattributed_phase / phase_ns);
    } else {
      std::printf("  no sim-only replay on this workload; sim.self %.3f ms is unattributed "
                  "(%.1f%% of wall)\n",
                  self_ns / reps * 1e-6, 100.0 * unattributed_phase / phase_ns);
    }
    std::printf("ledger 2, one decision: probes %.1f ns = %.2f fires x %.1f + %.1f batched "
                "events x %.2f + %.2f mutation pairs x %.1f\n",
                probe_sum, probes.single_fires_per_decision, probes.fire_ns,
                probes.batched_events_per_decision, probes.batch_ns_per_event,
                probes.mutation_pairs_per_decision, probes.mutation_ns);
    if (probes.fire_ns > 0) {
      const double ml = probes.predict_ns;
      const double vm_self = probes.vm_exec_ns - ml;
      const double hook_self = probes.fire_ns - probes.vm_exec_ns - probes.decision_lookup_ns;
      std::printf("  one fire %.1f ns = hook %.1f + table %.1f + vm %.1f + ml %.1f\n",
                  probes.fire_ns, hook_self, probes.decision_lookup_ns, vm_self, ml);
    }
    std::printf("  vs decision_p50 %.1f ns: unattributed %.1f ns (%.1f%%); vs mean %.1f ns: "
                "unattributed %.1f ns (%.1f%%)\n",
                p50, p50 - probe_sum, p50 == 0 ? 0.0 : 100.0 * (p50 - probe_sum) / p50,
                mean_decision, mean_decision - probe_sum,
                mean_decision == 0 ? 0.0 : 100.0 * (mean_decision - probe_sum) / mean_decision);
    std::printf("counts %s\n", CountsJson(last_counts_).c_str());

    if (traced_policy_ != policy_) {
      nondeterministic_.insert("policy_score");
    }
    const uint64_t mismatches = untraced_.mismatches + traced_.mismatches;
    const uint64_t attempted = untraced_.attempted + traced_.attempted;
    const uint64_t failed = untraced_.failed + traced_.failed + mismatches;
    const int code = Verdict(mismatches);
    std::printf("%s\n", JsonLine(code == 0, attempted, failed, metrics).c_str());
    return code;
  }

  Options opts_;
  Calibrator calibrator_;
  std::unique_ptr<Workload> workload_;
  uint64_t start_ns_ = 0;
  JobResult reference_;
  Summary untraced_;
  Summary traced_;
  size_t reps_ = 0;
  double peak_rss_mb_ = 0;
  Counts first_counts_;
  Counts last_counts_;
  std::set<std::string> nondeterministic_;  // counts that did not repeat
  double policy_ = 0;
  double traced_policy_ = 0;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opts;
  if (!perfbench::ParseOptions(argc, argv, opts)) {
    perfbench::Usage();
    return 2;
  }
  return perfbench::Run(opts).Execute();
}
