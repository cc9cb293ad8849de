// Benchmark-side measurement primitives: the wall clock, per-call latency
// samples, deterministic count ledgers, and the fire-stream digest sink.
// Everything here lives outside the rkd libraries; the benchmark times the
// public calls it makes into them and reads counters they already export.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/rmt/hooks.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Median of one repetition's decision latencies (sorts `samples`).
inline double MedianNs(std::vector<uint64_t>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  const auto mid = samples.begin() + static_cast<std::ptrdiff_t>((samples.size() - 1) / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  return static_cast<double>(*mid);
}

// Decision latencies pooled over every repetition, in log-spaced buckets
// 1/512 of a power of two wide: percentiles to within 0.2%, in a fixed
// 160 KiB however many repetitions run, so the run's peak RSS does not grow
// with its length.
class LatencyHistogram {
 public:
  LatencyHistogram() : buckets_(kExponents * kSub, 0) {}

  void Add(double ns) {
    int exponent = 0;
    const double mantissa = std::frexp(std::max(ns, 1.0), &exponent);  // [0.5, 1)
    const int sub = std::min(kSub - 1, static_cast<int>((mantissa - 0.5) * 2 * kSub));
    const int e = std::min(exponent, kExponents - 1);
    ++buckets_[static_cast<size_t>(e * kSub + sub)];
    ++count_;
  }

  // Nearest-rank percentile: the midpoint of the bucket holding that rank.
  double Percentile(double pct) const {
    if (count_ == 0) {
      return 0.0;
    }
    const auto rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(pct / 100.0 * static_cast<double>(count_))));
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= rank) {
        const int e = static_cast<int>(i) / kSub;
        const double sub = static_cast<double>(static_cast<int>(i) % kSub) + 0.5;
        return std::ldexp(0.5 + sub / (2.0 * kSub), e);
      }
    }
    return 0.0;
  }

 private:
  static constexpr int kExponents = 40;  // up to 2^40 ns, about 18 minutes
  static constexpr int kSub = 512;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

// FNV-1a over 64-bit words: the digest of boundary outputs and fire streams.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (word >> (8 * i)) & 0xff;
      state_ *= 0x100000001b3ull;
    }
  }
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ull;
};

// Per-layer counts of one job. Every entry must repeat exactly between
// repetitions of one seed and between traced and untraced repetitions.
using Counts = std::map<std::string, uint64_t>;

// Names of the counts that differ between two ledgers (either side missing
// counts as a difference).
inline std::vector<std::string> CountDiffs(const Counts& a, const Counts& b) {
  std::vector<std::string> diffs;
  for (const auto& [name, value] : a) {
    const auto it = b.find(name);
    if (it == b.end() || it->second != value) {
      diffs.push_back(name);
    }
  }
  for (const auto& [name, value] : b) {
    if (!a.contains(name)) {
      diffs.push_back(name);
    }
  }
  return diffs;
}

// Traced-run observer on a hook registry: digests every fire result in
// order (the reference comparison) and keeps the first `capture_limit`
// events of each hook as probe inputs.
class FireCapture final : public rkd::HookEventSink {
 public:
  explicit FireCapture(size_t capture_limit) : capture_limit_(capture_limit) {}

  void OnFire(rkd::HookId id, uint64_t key, std::span<const int64_t> args,
              int64_t result) override {
    digest_.Add(static_cast<uint64_t>(id));
    digest_.Add(key);
    for (const int64_t arg : args) {
      digest_.Add(static_cast<uint64_t>(arg));
    }
    digest_.Add(static_cast<uint64_t>(result));
    ++fires_;
    if (id < 0) {
      return;
    }
    if (static_cast<size_t>(id) >= events_.size()) {
      events_.resize(static_cast<size_t>(id) + 1);
    }
    std::vector<rkd::HookEvent>& events = events_[static_cast<size_t>(id)];
    if (events.size() < capture_limit_) {
      rkd::HookEvent event;
      event.key = key;
      for (const int64_t arg : args) {
        if (event.num_args >= event.args.size()) {
          break;
        }
        event.args[event.num_args++] = arg;
      }
      events.push_back(event);
    }
  }

  uint64_t digest() const { return digest_.value(); }
  uint64_t fires() const { return fires_; }
  // Captured events of hook `id` (empty when the hook never fired).
  std::span<const rkd::HookEvent> events(rkd::HookId id) const {
    if (id < 0 || static_cast<size_t>(id) >= events_.size()) {
      return {};
    }
    return events_[static_cast<size_t>(id)];
  }

 private:
  size_t capture_limit_;
  Digest digest_;
  uint64_t fires_ = 0;
  std::vector<std::vector<rkd::HookEvent>> events_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
