// A fixed calibration kernel timed next to every repetition, so the report
// can state the host's speed at the moment each repetition ran.
//
// The kernel is a frozen mix of the kinds of work the workloads do:
// interpreter-style indirect dispatch over a byte program, dependent loads
// from a table larger than L1, multiplicative hashing, and a small int32
// matrix-vector product like the scheduler's quantized MLP. It lives in the
// benchmark, not in the rkd libraries, so no change to the program under
// test changes what it measures.
#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

#include <cstdint>
#include <vector>

#include "perfbench/ledger.h"

namespace perfbench {

class Calibrator {
 public:
  Calibrator() : table_(kTableWords), program_(kProgramLen) {
    uint64_t x = 0x9E3779B97F4A7C15ull;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (uint32_t& word : table_) word = static_cast<uint32_t>(next());
    for (uint8_t& op : program_) op = static_cast<uint8_t>(next() % 6);
    for (int32_t& w : weights_) w = static_cast<int32_t>(next() % 512) - 256;
  }

  // Runs `slices` fixed slices and returns the wall ns of the fastest: a
  // context switch during one slice must not read as a slower host.
  uint64_t MinSliceNs(int slices) {
    uint64_t best = UINT64_MAX;
    for (int i = 0; i < slices; ++i) {
      const uint64_t t0 = NowNs();
      Slice();
      best = std::min(best, NowNs() - t0);
    }
    return best;
  }

 private:
  static constexpr uint32_t kTableWords = 1u << 17;  // 512 KiB
  static constexpr uint32_t kProgramLen = 4096;
  static constexpr int kDim = 16;
  static constexpr int kPasses = 16;

  void Slice() {
    uint64_t acc = sink_;
    uint32_t cursor = static_cast<uint32_t>(acc);
    int32_t vec[kDim];
    for (int i = 0; i < kDim; ++i) vec[i] = static_cast<int32_t>(acc >> i) & 0xFF;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (uint32_t pc = 0; pc < kProgramLen; ++pc) {
        switch (program_[pc]) {
          case 0:
            cursor = table_[cursor & (kTableWords - 1)];
            break;
          case 1:
            acc = (acc ^ cursor) * 0x9E3779B97F4A7C15ull;
            break;
          case 2:
            acc += table_[(acc >> 7) & (kTableWords - 1)];
            break;
          case 3:
            cursor ^= static_cast<uint32_t>(acc >> 29);
            break;
          case 4:
            if ((acc & 3) == 0) acc = ~acc;
            break;
          default: {
            int32_t out[kDim];
            for (int r = 0; r < kDim; ++r) {
              int32_t sum = 0;
              for (int c = 0; c < kDim; ++c) sum += weights_[r * kDim + c] * vec[c];
              out[r] = sum > 0 ? (sum >> 8) & 0xFF : 0;
            }
            for (int r = 0; r < kDim; ++r) vec[r] = out[r] ^ static_cast<int32_t>(cursor & r);
            acc += static_cast<uint64_t>(vec[acc & (kDim - 1)]);
            break;
          }
        }
      }
    }
    sink_ = acc ^ cursor;
  }

  std::vector<uint32_t> table_;
  std::vector<uint8_t> program_;
  int32_t weights_[kDim * kDim];
  volatile uint64_t sink_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H_
