#include "reference_work.hpp"

#include <algorithm>

#include "cpu_clock.hpp"

namespace perfbench {

namespace {

constexpr int kKeys = 10'000;
constexpr int kLookups = 40'000;
constexpr int kSorts = 40;
constexpr int kHashSteps = 4'000'000;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

ReferenceWork::ReferenceWork() {
  std::uint64_t x = 0x9E3779B97F4A7C15u;
  keys_.reserve(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    std::string k = "movie-";
    for (int j = 0; j < 14; ++j)
      k.push_back(static_cast<char>('a' + xorshift(x) % 26));
    const auto [it, fresh] =
        index_.emplace(std::move(k), static_cast<std::uint32_t>(i));
    if (fresh) keys_.push_back(&it->first);
  }
  order_.reserve(keys_.size());
}

double ReferenceWork::run() {
  const CpuClock::time_point t0 = CpuClock::now();
  std::uint64_t x = 7;
  for (int i = 0; i < kLookups; ++i)
    sink_ += index_.find(*keys_[xorshift(x) % keys_.size()])->second;
  for (int r = 0; r < kSorts; ++r) {
    order_.clear();
    for (auto i = static_cast<std::size_t>(r % 7); i < keys_.size(); i += 5)
      order_.push_back(keys_[i]);
    std::sort(order_.begin(), order_.end(),
              [](const std::string* a, const std::string* b) {
                return *a < *b;
              });
    sink_ += order_.front()->size();
  }
  std::uint64_t h = 0;
  for (int i = 0; i < kHashSteps; ++i) {
    h = (h ^ xorshift(x)) * 1099511628211u;
    if ((h & 1) != 0) h += x >> 3;
  }
  sink_ += h;
  return cpu_seconds(CpuClock::now() - t0);
}

double nominal_factor(double reference_before_s, double reference_after_s) {
  const double mean = (reference_before_s + reference_after_s) / 2;
  return mean > 0 ? ReferenceWork::kNominalSeconds / mean : 1.0;
}

}  // namespace perfbench
