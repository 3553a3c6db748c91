// Process-wide heap allocation counter.
//
// The benchmark binary replaces the global operator new (alloc_count.cpp),
// so every allocation in the process — library, runtime worker threads and
// the benchmark itself — is counted. Threads add to their own cache-line
// stripe, so the count costs one uncontended atomic add per allocation even
// under the echo episodes' worker pools.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made so far by every thread of the process. Exact when the
/// counting threads are quiescent (between runs); a running thread's
/// in-progress additions may or may not be included.
[[nodiscard]] std::uint64_t allocations() noexcept;

}  // namespace perfbench
