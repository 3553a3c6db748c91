// Allocation counts of the typed MCAM codec on a catalog-sized response:
// a 33-hit x 10-attribute MovieSearchResp. With the output buffer warm the
// encoder allocates nothing, peek_op allocates nothing, and decode allocates
// only what the decoded struct owns.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>

#include "mcam/pdus.hpp"

namespace {

// Global allocation counter: every operator new bumps it.
std::atomic<unsigned long long> g_allocs{0};

}  // namespace

// The replacement operators below pair malloc with free; GCC's
// -Wmismatched-new-delete cannot see that operator new is replaced too.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace mcam::core {
namespace {

MovieSearchResp catalog_search_resp() {
  MovieSearchResp resp{ResultCode::Success, {}};
  for (std::uint64_t id = 1; id <= 33; ++id) {
    SearchHit hit{id * 7919, {}};
    hit.attrs = {{"title", "movie-" + std::to_string(id)},
                 {"format", "mjpeg"},
                 {"fps", "25.000"},
                 {"duration", std::to_string(1000 + id)},
                 {"width", "640"},
                 {"height", "480"},
                 {"rights", "public"},
                 {"owner", "archive"},
                 {"created", "1994-06-21T10:00:00Z"},
                 {"description", "a catalog entry long enough for the heap"}};
    resp.hits.push_back(std::move(hit));
  }
  return resp;
}

unsigned long long allocs_during(const auto& f) {
  const unsigned long long before = g_allocs.load(std::memory_order_relaxed);
  f();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(CodecAllocations, WarmEncodeOfSearchResponseAllocatesNothing) {
  const Pdu pdu{catalog_search_resp()};
  Bytes buf;
  encode_to(pdu, buf);  // warm: the buffer reaches its final capacity
  buf.clear();
  EXPECT_EQ(allocs_during([&] { encode_to(pdu, buf); }), 0u);
  EXPECT_EQ(buf, encode(pdu));
  EXPECT_GT(buf.size(), 4096u);  // multi-octet lengths at three levels
}

TEST(CodecAllocations, PeekOpOfSearchResponseAllocatesNothing) {
  const Bytes wire = encode(Pdu{catalog_search_resp()});
  common::Result<Op> op = Op::ErrorResp;
  EXPECT_EQ(allocs_during([&] { op = peek_op(wire); }), 0u);
  ASSERT_TRUE(op.ok());
  EXPECT_EQ(op.value(), Op::MovieSearchResp);
}

TEST(CodecAllocations, DecodeAllocatesOnlyWhatTheStructOwns) {
  const MovieSearchResp resp = catalog_search_resp();
  const Bytes wire = encode(Pdu{resp});
  // The hit vector, one attribute vector per hit, and every string past
  // the small-string buffer.
  unsigned long long owned = 1 + resp.hits.size();
  for (const SearchHit& hit : resp.hits)
    for (const Attr& a : hit.attrs)
      owned += (a.name.size() > 15) + (a.value.size() > 15);
  std::optional<common::Result<Pdu>> decoded;
  EXPECT_EQ(allocs_during([&] { decoded.emplace(decode(wire)); }), owned);
  ASSERT_TRUE(decoded->ok());
  EXPECT_TRUE(decoded->value() == Pdu{resp});
}

}  // namespace
}  // namespace mcam::core
