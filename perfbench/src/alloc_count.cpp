#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

constexpr int kStripes = 64;

struct alignas(64) Stripe {
  std::atomic<std::uint64_t> count{0};
};

Stripe g_stripes[kStripes];
std::atomic<unsigned> g_next_stripe{0};

std::atomic<std::uint64_t>& my_stripe() noexcept {
  thread_local const unsigned index =
      g_next_stripe.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return g_stripes[index].count;
}

void* counted_alloc(std::size_t size) {
  my_stripe().fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  my_stripe().fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (size == 0) size = a;
  size = (size + a - 1) / a * a;  // aligned_alloc wants a multiple of `a`
  if (void* p = std::aligned_alloc(a, size)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace perfbench {

std::uint64_t allocations() noexcept {
  std::uint64_t total = 0;
  for (const Stripe& s : g_stripes)
    total += s.count.load(std::memory_order_relaxed);
  return total;
}

}  // namespace perfbench

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
