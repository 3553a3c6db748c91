// The clock the end-to-end MCAM figures are timed with, and the CPU pin
// that makes it a faithful stand-in for wall time.
//
// The MCAM workloads are one thread that never blocks: the Sequential
// runtime runs in virtual time and the closed loop pumps it without
// waiting. Pinned to one CPU, the process's CPU time then advances exactly
// as wall time does on a CPU of its own. It leaves out what a shared host
// takes away — hypervisor steal and other processes' turns on the CPU —
// which wall time counts and which no change to the program causes.
// CpuIdleMeter checks the one assumption the clock rests on: that the
// pinned CPU never sat idle while the benchmark ran.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <optional>

#include <sched.h>

namespace perfbench {

/// CPU time of every thread of this process (CLOCK_PROCESS_CPUTIME_ID),
/// as a std::chrono clock.
struct CpuClock {
  using rep = std::int64_t;
  using period = std::nano;
  using duration = std::chrono::nanoseconds;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;

  static time_point now() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return time_point(duration(static_cast<rep>(ts.tv_sec) * 1'000'000'000 +
                               ts.tv_nsec));
  }
};

[[nodiscard]] inline double cpu_seconds(CpuClock::duration d) noexcept {
  return std::chrono::duration<double>(d).count();
}

/// Pins the process to the CPU it runs on while in scope (threads started
/// meanwhile inherit the pin); restores the previous CPU set on exit.
class CpuPin {
 public:
  CpuPin();
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

  /// The CPU pinned to, or -1 when pinning failed.
  [[nodiscard]] int cpu() const noexcept { return cpu_; }

 private:
  cpu_set_t saved_{};
  int cpu_ = -1;
};

/// Share of the wall time since construction that `cpu` spent idle
/// (/proc/stat idle + iowait). With the benchmark pinned to `cpu` and never
/// blocking, it stays near 0; a rise means the program waited, which
/// CpuClock does not see.
class CpuIdleMeter {
 public:
  explicit CpuIdleMeter(int cpu);
  [[nodiscard]] double share() const;

 private:
  int cpu_;
  std::optional<double> idle0_s_;
  std::chrono::steady_clock::time_point wall0_;
};

}  // namespace perfbench
