// The echo episodes' payload stamp: each echo request carries its initiator's
// sequence number and tag, and the echo must bring both back unchanged.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace perfbench {

/// 16-byte echo payload: big-endian sequence number, then the tag.
inline mcam::common::Bytes stamp(std::uint64_t seq, std::uint64_t tag) {
  mcam::common::Bytes b(16);
  for (int i = 0; i < 8; ++i) {
    b[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(seq >> (56 - 8 * i));
    b[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(tag >> (56 - 8 * i));
  }
  return b;
}

/// True when `b` is exactly stamp(seq, tag).
inline bool stamped(const mcam::common::Bytes& b, std::uint64_t seq,
                    std::uint64_t tag) {
  if (b.size() != 16) return false;
  std::uint64_t got_seq = 0, got_tag = 0;
  for (int i = 0; i < 8; ++i) {
    got_seq = got_seq << 8 | b[static_cast<std::size_t>(i)];
    got_tag = got_tag << 8 | b[static_cast<std::size_t>(8 + i)];
  }
  return got_seq == seq && got_tag == tag;
}

}  // namespace perfbench
