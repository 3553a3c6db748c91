// SegmentPool / BufferChain: the pooled scatter-gather transmit queue the
// socket transport drains with one sendmsg per flush. These tests pin the
// byte-exactness of arbitrary append/consume interleavings against a flat
// reference buffer, the refcounted sharing of append_block, and the pool
// economics (steady-state reuse, bounded free list) the zero-allocation
// bench gate relies on.
#include "estelle/transport/buffer_chain.hpp"

#include <gtest/gtest.h>
#include <random>
#include <sys/uio.h>
#include <vector>

namespace mcam::estelle {
namespace {

using common::ByteSpan;
using common::Bytes;

Bytes pattern(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::uint8_t>(seed + i * 7);
  return b;
}

/// Every queued byte, gathered through the same iovec view the socket uses.
Bytes gather(const BufferChain& c) {
  std::vector<iovec> iov(c.segments() + 1);
  const std::size_t n = c.fill_iov(iov.data(), iov.size());
  Bytes out;
  out.reserve(c.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto* p = static_cast<const std::uint8_t*>(iov[i].iov_base);
    out.insert(out.end(), p, p + iov[i].iov_len);
  }
  return out;
}

TEST(BufferChain, AppendAndGatherCrossSegmentBoundaries) {
  SegmentPool pool;
  BufferChain c(&pool);
  Bytes ref;
  // Sizes straddling every interesting boundary: empty, one byte, exactly
  // one segment, one segment minus/plus one, several segments.
  const std::size_t sizes[] = {0,
                               1,
                               SegmentPool::kSegmentBytes - 1,
                               1,
                               SegmentPool::kSegmentBytes,
                               SegmentPool::kSegmentBytes + 1,
                               3 * SegmentPool::kSegmentBytes + 17};
  std::uint8_t seed = 1;
  for (const std::size_t n : sizes) {
    const Bytes b = pattern(n, seed++);
    c.append(ByteSpan{b});
    ref.insert(ref.end(), b.begin(), b.end());
  }
  EXPECT_EQ(c.size(), ref.size());
  EXPECT_EQ(gather(c), ref);
}

TEST(BufferChain, ConsumeDropsExactPrefixes) {
  SegmentPool pool;
  BufferChain c(&pool);
  Bytes ref = pattern(5 * SegmentPool::kSegmentBytes + 123, 9);
  c.append(ByteSpan{ref});
  // Consume at sub-byte granularity around every segment boundary.
  const std::size_t cuts[] = {1,
                              SegmentPool::kSegmentBytes - 2,
                              1,
                              1,
                              SegmentPool::kSegmentBytes,
                              2 * SegmentPool::kSegmentBytes + 5};
  std::size_t dropped = 0;
  for (const std::size_t cut : cuts) {
    c.consume(cut);
    dropped += cut;
    EXPECT_EQ(c.size(), ref.size() - dropped);
    EXPECT_EQ(gather(c), Bytes(ref.begin() + static_cast<std::ptrdiff_t>(
                                                 dropped),
                               ref.end()));
  }
  c.consume(c.size());
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.segments(), 0u);
}

TEST(BufferChain, DrainedTailSegmentKeepsFilling) {
  // Fill a little, drain it all, fill again: the drained tail segment goes
  // back through the pool's free list and the next append reuses it — this
  // is what makes a warmed send/flush cycle allocation-free.
  SegmentPool pool;
  BufferChain c(&pool);
  const Bytes b = pattern(100, 3);
  c.append(ByteSpan{b});
  c.consume(100);
  EXPECT_TRUE(c.empty());
  const std::uint64_t spills_before = pool.spills();
  for (int i = 0; i < 50; ++i) {
    c.append(ByteSpan{b});
    EXPECT_EQ(gather(c), b);
    c.consume(100);
  }
  EXPECT_EQ(pool.spills(), spills_before);
}

TEST(BufferChain, SteadyStateReusesPooledSegments) {
  SegmentPool pool;
  BufferChain c(&pool);
  const Bytes b = pattern(2 * SegmentPool::kSegmentBytes + 50, 11);
  c.append(ByteSpan{b});  // warm the pool's working set
  c.consume(c.size());
  const std::uint64_t spills_after_warmup = pool.spills();
  for (int i = 0; i < 100; ++i) {
    c.append(ByteSpan{b});
    c.consume(c.size());
  }
  EXPECT_EQ(pool.spills(), spills_after_warmup);
  EXPECT_GT(pool.pool_hits(), 0u);
}

TEST(BufferChain, AppendBlockSharesWithoutCopying) {
  SegmentPool pool;
  BufferChain src(&pool);
  const Bytes b = pattern(SegmentPool::kSegmentBytes + 500, 21);
  src.append(ByteSpan{b});

  BufferChain dst(&pool);
  dst.append_block(src);
  EXPECT_EQ(dst.size(), src.size());
  // The views alias the same segments — no new segment was acquired.
  {
    std::vector<iovec> a(src.segments()), d(dst.segments());
    ASSERT_EQ(src.fill_iov(a.data(), a.size()), dst.fill_iov(d.data(),
                                                             d.size()));
    EXPECT_EQ(a[0].iov_base, d[0].iov_base);
  }
  // Dropping the source must not invalidate the sharer's bytes.
  src.clear();
  EXPECT_EQ(gather(dst), b);
  dst.consume(dst.size());
  EXPECT_TRUE(dst.empty());
}

TEST(BufferChain, FreeListIsSpillBounded) {
  SegmentPool pool(/*max_free=*/2);
  {
    BufferChain c(&pool);
    c.append(ByteSpan{pattern(10 * SegmentPool::kSegmentBytes, 5)});
    c.clear();
  }
  EXPECT_LE(pool.free_count(), 2u);
}

TEST(BufferChain, FillIovHonorsTheCap) {
  SegmentPool pool;
  BufferChain src(&pool);
  src.append(ByteSpan{pattern(100, 1)});
  BufferChain c(&pool);
  for (int i = 0; i < 10; ++i) c.append_block(src);  // 10 distinct views
  iovec iov[4];
  EXPECT_EQ(c.fill_iov(iov, 4), 4u);
}

TEST(BufferChain, MoveTransfersOwnership) {
  SegmentPool pool;
  BufferChain a(&pool);
  const Bytes b = pattern(1000, 7);
  a.append(ByteSpan{b});
  BufferChain c(std::move(a));
  EXPECT_EQ(gather(c), b);
  BufferChain d(&pool);
  d = std::move(c);
  EXPECT_EQ(gather(d), b);
}

TEST(BufferChain, RandomizedInterleavingMatchesReference) {
  std::mt19937 rng(0xC4A1u);
  SegmentPool pool(8);
  BufferChain c(&pool);
  Bytes ref;
  std::size_t ref_head = 0;
  for (int op = 0; op < 4000; ++op) {
    if (ref.size() - ref_head == 0 || (rng() & 1) != 0) {
      const std::size_t n = rng() % (SegmentPool::kSegmentBytes / 2);
      const Bytes b = pattern(n, static_cast<std::uint8_t>(rng()));
      c.append(ByteSpan{b});
      ref.insert(ref.end(), b.begin(), b.end());
    } else {
      const std::size_t n = rng() % (ref.size() - ref_head) + 1;
      c.consume(n);
      ref_head += n;
    }
    ASSERT_EQ(c.size(), ref.size() - ref_head);
    if (op % 97 == 0) {
      ASSERT_EQ(gather(c),
                Bytes(ref.begin() + static_cast<std::ptrdiff_t>(ref_head),
                      ref.end()));
    }
    if (ref_head == ref.size() && ref.size() > (1u << 20)) {
      ref.clear();
      ref_head = 0;
    }
  }
  ASSERT_EQ(gather(c),
            Bytes(ref.begin() + static_cast<std::ptrdiff_t>(ref_head),
                  ref.end()));
}

}  // namespace
}  // namespace mcam::estelle
