// Stream Provider System (SPS): the SPA and SUA agents of Fig. 1.
//
// In the MCAM functional model, the Stream Provider Agent (SPA) lives on the
// server and owns the outgoing CM streams; the Stream User Agent (SUA) lives
// on the client and terminates them. The MCA drives the SPA in response to
// MCAM Play/Pause/Resume/Stop PDUs and tells the client's SUA (via the
// control connection) where the stream will arrive.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common/result.hpp"
#include "mtp/mtp.hpp"

namespace mcam::mtp {

enum SpsError : int {
  kUnknownStream = 3001,
  kStreamFinished = 3002,
};

/// Server-side agent: one instance per server host; manages any number of
/// concurrent outgoing streams (the paper's "thousands of clients" goal is
/// bounded here only by simulation time).
class StreamProviderAgent {
 public:
  StreamProviderAgent(net::SimNetwork& net, std::string host,
                      std::uint16_t first_port = 5000);

  /// Open a new stream towards `dest`, playing `source` from
  /// `start_frame`. Returns the stream id carried back in the Play response.
  /// Ids and ports are recycled once their stream stops; throws
  /// std::length_error when every id or every port is held by a live stream.
  std::uint16_t open_stream(FrameSource source, const net::Address& dest,
                            std::uint64_t start_frame = 0);

  common::Status pause(std::uint16_t stream);
  common::Status resume(std::uint16_t stream);
  /// Stop and tear down (the stream's port is unbound); returns the frame
  /// position at stop time.
  common::Result<std::uint64_t> stop(std::uint16_t stream);
  common::Result<std::uint64_t> position(std::uint16_t stream) const;
  common::Result<SenderStats> stats(std::uint16_t stream) const;
  [[nodiscard]] bool finished(std::uint16_t stream) const;
  [[nodiscard]] std::size_t active_streams() const noexcept {
    return streams_.size();
  }

  /// Advance all senders to `now` (emit due frames).
  void step(common::SimTime now);

 private:
  struct Entry {
    net::Socket* socket = nullptr;
    std::unique_ptr<StreamSender> sender;
  };

  std::uint16_t take_stream_id();
  net::Address take_address();

  net::SimNetwork& net_;
  std::string host_;
  std::uint16_t first_port_;
  std::uint16_t next_port_;
  std::uint16_t next_stream_id_ = 1;
  std::map<std::uint16_t, Entry> streams_;
};

/// Client-side agent: binds a datagram port, reassembles arriving MTP
/// frames, exposes receiver statistics to the application.
class StreamUserAgent {
 public:
  StreamUserAgent(net::SimNetwork& net, const net::Address& listen,
                  StreamReceiver::Config cfg = StreamReceiver::Config{});

  void set_sink(StreamReceiver::FrameSink sink) {
    receiver_.set_sink(std::move(sink));
  }
  /// Drain arrived packets; returns frames completed.
  std::size_t poll(common::SimTime now) { return receiver_.poll(now); }
  [[nodiscard]] const ReceiverStats& stats() const noexcept {
    return receiver_.stats();
  }
  [[nodiscard]] const net::Address& address() const noexcept {
    return socket_.address();
  }

 private:
  net::Socket& socket_;
  StreamReceiver receiver_;
};

}  // namespace mcam::mtp
