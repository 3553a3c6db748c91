// The reference work: a fixed piece of CPU work that calls nothing in the
// library, timed between the measured set-ups and windows to track how fast
// the host runs the same instructions at the moment.
//
// On a shared host, the CPU time of one and the same piece of work moves by
// 15–40% over minutes: other guests share the core and its caches, and no
// clock inside the guest shows it. The end-to-end timings are scaled by
// kNominalSeconds over the reference's time around them, to what they would
// read on a host that runs the reference in kNominalSeconds. A change to
// the library cannot move the reference, so the scaling passes any change
// in the program's own speed through unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class ReferenceWork {
 public:
  /// The CPU time of one run() that figures are scaled to: about what it
  /// took on a 4-vCPU test VM, where run medians ranged from 24 to 36 ms.
  static constexpr double kNominalSeconds = 0.033;

  /// Builds the tables the work reads (not timed).
  ReferenceWork();

  /// Run the work once, on the CPU clock: ordered-map lookups by string
  /// key, a sort of string pointers, and an integer hash loop. Allocates
  /// nothing. Returns its CPU seconds.
  double run();

 private:
  std::map<std::string, std::uint32_t> index_;
  std::vector<const std::string*> keys_;  // index_'s keys, in insertion order
  std::vector<const std::string*> order_;
  std::uint64_t sink_ = 0;
};

/// Factor that scales a CPU time measured between two reference runs to the
/// nominal host: kNominalSeconds over their mean. Multiply times by it and
/// divide rates by it.
[[nodiscard]] double nominal_factor(double reference_before_s,
                                    double reference_after_s);

}  // namespace perfbench
