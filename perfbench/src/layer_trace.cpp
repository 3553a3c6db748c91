#include "layer_trace.hpp"

#include "mcam/mca.hpp"
#include "osi/isode.hpp"
#include "osi/presentation.hpp"
#include "osi/session.hpp"
#include "osi/transport.hpp"

namespace perfbench {

namespace estelle = mcam::estelle;

void SpanObserver::map_modules(estelle::Specification& spec) {
  layer_of_.clear();
  spec.root().for_each([this](estelle::Module& m) {
    Layer l = Layer::Other;
    if (dynamic_cast<mcam::osi::PresentationModule*>(&m)) l = Layer::Presentation;
    else if (dynamic_cast<mcam::osi::SessionModule*>(&m)) l = Layer::Session;
    else if (dynamic_cast<mcam::osi::TransportModule*>(&m)) l = Layer::Transport;
    else if (dynamic_cast<mcam::core::McaClientModule*>(&m)) l = Layer::McaClient;
    else if (dynamic_cast<mcam::core::McaServerModule*>(&m)) l = Layer::McaServer;
    else if (dynamic_cast<mcam::osi::isode::IsodeInterfaceModule*>(&m))
      l = Layer::Isode;
    layer_of_.emplace(&m, l);
  });
}

void SpanObserver::close(Clock::time_point t) noexcept {
  if (open_ != Layer::kCount)
    layer_ns_[static_cast<std::size_t>(open_)] += nanos(t - span_start_);
  open_ = Layer::kCount;
}

void SpanObserver::on_run_begin(estelle::Executor&) {
  run_start_ = Clock::now();
  open_ = Layer::kCount;
}

void SpanObserver::on_fire(const estelle::Module& module,
                           const estelle::Transition&, mcam::common::SimTime) {
  const Clock::time_point t = Clock::now();
  close(t);
  auto it = layer_of_.find(&module);
  open_ = it == layer_of_.end() ? Layer::Other : it->second;
  span_start_ = t;
}

void SpanObserver::on_round_end(estelle::Executor&, std::uint64_t) {
  close(Clock::now());
}

void SpanObserver::on_run_end(estelle::Executor&, const estelle::RunReport&) {
  const Clock::time_point t = Clock::now();
  close(t);
  run_ns_ += nanos(t - run_start_);
}

std::int64_t SpanObserver::sched_ns() const noexcept {
  std::int64_t spans = 0;
  for (const std::int64_t ns : layer_ns_) spans += ns;
  return run_ns_ - spans;
}

mcam::common::Status TimingTransport::send(int peer, estelle::Frame& f) {
  const Clock::time_point t = Clock::now();
  auto status = inner_->send(peer, f);
  send_ns_ += nanos(Clock::now() - t);
  return status;
}

void TimingTransport::flush() {
  const Clock::time_point t = Clock::now();
  inner_->flush();
  flush_ns_ += nanos(Clock::now() - t);
}

estelle::MailboxTransport::RecvOutcome TimingTransport::recv(
    int* from, estelle::Frame* out, int timeout_ms, std::string* error) {
  const Clock::time_point t = Clock::now();
  const RecvOutcome outcome = inner_->recv(from, out, timeout_ms, error);
  recv_ns_ += nanos(Clock::now() - t);
  return outcome;
}

}  // namespace perfbench
