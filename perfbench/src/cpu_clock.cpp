#include "cpu_clock.hpp"

#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

namespace {

/// Idle plus iowait seconds of `cpu` since boot, from its /proc/stat line.
std::optional<double> idle_seconds(int cpu) {
  std::ifstream stat("/proc/stat");
  const std::string want = "cpu" + std::to_string(cpu);
  std::string line;
  while (std::getline(stat, line)) {
    std::istringstream in(line);
    std::string name;
    in >> name;
    if (name != want) continue;
    unsigned long long user = 0, nice = 0, sys = 0, idle = 0, iowait = 0;
    if (!(in >> user >> nice >> sys >> idle >> iowait)) return std::nullopt;
    return static_cast<double>(idle + iowait) /
           static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  return std::nullopt;
}

}  // namespace

CpuPin::CpuPin() {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) == 0) cpu_ = cpu;
}

CpuPin::~CpuPin() {
  if (cpu_ >= 0) (void)sched_setaffinity(0, sizeof saved_, &saved_);
}

CpuIdleMeter::CpuIdleMeter(int cpu)
    : cpu_(cpu),
      idle0_s_(cpu >= 0 ? idle_seconds(cpu) : std::nullopt),
      wall0_(std::chrono::steady_clock::now()) {}

double CpuIdleMeter::share() const {
  const std::optional<double> idle =
      idle0_s_ ? idle_seconds(cpu_) : std::nullopt;
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall0_)
                          .count();
  return idle && wall > 0 ? (*idle - *idle0_s_) / wall : 0.0;
}

}  // namespace perfbench
