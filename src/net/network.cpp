#include "net/network.hpp"

#include <stdexcept>

namespace mcam::net {

SimTime Socket::send(const Address& dst, Bytes payload) {
  return net_.submit(*this, dst, std::move(payload));
}

std::optional<Datagram> Socket::receive() {
  if (rx_.empty()) return std::nullopt;
  Datagram d = std::move(rx_.front());
  rx_.pop_front();
  return d;
}

SimNetwork::SimNetwork(std::uint64_t seed, Impairments default_link)
    : rng_(seed), default_link_(default_link) {}

Socket& SimNetwork::open(Address addr) {
  auto [it, inserted] =
      sockets_.try_emplace(addr, std::make_unique<Socket>(*this, addr));
  if (!inserted)
    throw std::logic_error("address already bound: " + addr.to_string());
  return *it->second;
}

void SimNetwork::close(const Address& addr) { sockets_.erase(addr); }

void SimNetwork::set_link(const std::string& from_host,
                          const std::string& to_host, Impairments imp) {
  links_[{from_host, to_host}] = imp;
}

const Impairments& SimNetwork::link_for(const std::string& from,
                                        const std::string& to) const {
  auto it = links_.find({from, to});
  return it == links_.end() ? default_link_ : it->second;
}

SimTime SimNetwork::submit(Socket& from, const Address& dst, Bytes payload) {
  const SimTime sent_at = clock_.now();
  ++stats_.sent;
  stats_.bytes_sent += payload.size();

  const Impairments& link = link_for(from.addr_.host, dst.host);
  if (link.loss > 0.0 && rng_.chance(link.loss)) {
    ++stats_.dropped;
    return sent_at;
  }

  // Serialization delay: the link transmits one datagram at a time.
  SimTime depart = sent_at;
  if (link.bandwidth_bps > 0.0) {
    const auto key = std::make_pair(from.addr_.host, dst.host);
    SimTime& free_at = link_free_at_[key];
    if (free_at > depart) depart = free_at;
    const double tx_seconds =
        static_cast<double>(payload.size()) * 8.0 / link.bandwidth_bps;
    depart += SimTime::from_s(tx_seconds);
    free_at = depart;
  }

  SimTime arrival = depart + link.latency;
  if (link.jitter.ns > 0)
    arrival += SimTime::from_ns(static_cast<std::int64_t>(
        rng_.uniform() * static_cast<double>(link.jitter.ns)));

  Pending p;
  p.at = arrival;
  p.seq = next_seq_++;
  p.datagram = Datagram{from.addr_, dst, std::move(payload), sent_at, arrival};
  queue_.push(std::move(p));
  return sent_at;
}

void SimNetwork::run_until(SimTime t) {
  while (!queue_.empty() && queue_.top().at <= t) {
    Pending p = queue_.top();
    queue_.pop();
    clock_.advance_to(p.at);
    auto it = sockets_.find(p.datagram.dst);
    if (it == sockets_.end()) {
      ++stats_.dropped;  // no listener: ICMP-less silent drop
      continue;
    }
    ++stats_.delivered;
    stats_.bytes_delivered += p.datagram.payload.size();
    it->second->rx_.push_back(std::move(p.datagram));
  }
  clock_.advance_to(t);
}

void SimNetwork::run_all() {
  while (!queue_.empty()) run_until(queue_.top().at);
}

std::optional<SimTime> SimNetwork::next_event() const {
  if (queue_.empty()) return std::nullopt;
  return queue_.top().at;
}

}  // namespace mcam::net
