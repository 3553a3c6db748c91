#include "mtp/sps.hpp"

#include <stdexcept>

namespace mcam::mtp {

using common::Error;
using common::Result;
using common::Status;

StreamProviderAgent::StreamProviderAgent(net::SimNetwork& net,
                                         std::string host,
                                         std::uint16_t first_port)
    : net_(net),
      host_(std::move(host)),
      first_port_(first_port),
      next_port_(first_port) {}

std::uint16_t StreamProviderAgent::take_stream_id() {
  // 0 is never issued; once the u16 counter wraps, ids of live streams are
  // skipped so a new stream never aliases one still playing.
  if (streams_.size() >= 0xFFFF)
    throw std::length_error("StreamProviderAgent: no free stream id");
  while (next_stream_id_ == 0 || streams_.contains(next_stream_id_))
    ++next_stream_id_;
  return next_stream_id_++;
}

net::Address StreamProviderAgent::take_address() {
  // Ports cycle through [first_port_, 65535] round-robin, skipping ports
  // still bound, so a port freed by stop() is reused as late as possible.
  for (std::uint32_t tried = 0; tried < 0x10000u - first_port_; ++tried) {
    net::Address addr{host_, next_port_};
    next_port_ = next_port_ == 0xFFFF
                     ? first_port_
                     : static_cast<std::uint16_t>(next_port_ + 1);
    if (!net_.bound(addr)) return addr;
  }
  throw std::length_error("StreamProviderAgent: no free port on " + host_);
}

std::uint16_t StreamProviderAgent::open_stream(FrameSource source,
                                               const net::Address& dest,
                                               std::uint64_t start_frame) {
  const std::uint16_t id = take_stream_id();
  Entry entry;
  entry.socket = &net_.open(take_address());
  source.seek(start_frame);
  StreamSender::Config cfg;
  cfg.stream_id = id;
  entry.sender = std::make_unique<StreamSender>(*entry.socket, dest,
                                                std::move(source), cfg);
  streams_.emplace(id, std::move(entry));
  return id;
}

Status StreamProviderAgent::pause(std::uint16_t stream) {
  auto it = streams_.find(stream);
  if (it == streams_.end())
    return Error::make(kUnknownStream, "unknown stream");
  it->second.sender->pause();
  return Status{};
}

Status StreamProviderAgent::resume(std::uint16_t stream) {
  auto it = streams_.find(stream);
  if (it == streams_.end())
    return Error::make(kUnknownStream, "unknown stream");
  it->second.sender->resume(net_.now());
  return Status{};
}

Result<std::uint64_t> StreamProviderAgent::stop(std::uint16_t stream) {
  auto it = streams_.find(stream);
  if (it == streams_.end())
    return Error::make(kUnknownStream, "unknown stream");
  const std::uint64_t pos = it->second.sender->current_frame();
  const net::Address addr = it->second.socket->address();
  streams_.erase(it);  // the sender goes before the socket it references
  net_.close(addr);
  return pos;
}

Result<std::uint64_t> StreamProviderAgent::position(
    std::uint16_t stream) const {
  auto it = streams_.find(stream);
  if (it == streams_.end())
    return Error::make(kUnknownStream, "unknown stream");
  return it->second.sender->current_frame();
}

Result<SenderStats> StreamProviderAgent::stats(std::uint16_t stream) const {
  auto it = streams_.find(stream);
  if (it == streams_.end())
    return Error::make(kUnknownStream, "unknown stream");
  return it->second.sender->stats();
}

bool StreamProviderAgent::finished(std::uint16_t stream) const {
  auto it = streams_.find(stream);
  return it == streams_.end() || it->second.sender->finished();
}

void StreamProviderAgent::step(common::SimTime now) {
  for (auto& [id, entry] : streams_) entry.sender->step(now);
}

StreamUserAgent::StreamUserAgent(net::SimNetwork& net,
                                 const net::Address& listen,
                                 StreamReceiver::Config cfg)
    : socket_(net.open(listen)), receiver_(socket_, cfg) {}

}  // namespace mcam::mtp
