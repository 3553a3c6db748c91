// Per-layer instruments the traced run attaches from outside the library:
// a RunObserver that turns firing intervals into per-layer busy time, and a
// MailboxTransport decorator that times the distributed runner's calls into
// its transport.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "estelle/executor.hpp"
#include "estelle/module.hpp"
#include "estelle/transport/transport.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t nanos(Clock::duration d) noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}
[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) noexcept {
  return std::chrono::duration<double>(b - a).count();
}

/// The module types a firing is attributed to.
enum class Layer {
  Presentation,
  Session,
  Transport,
  McaClient,
  McaServer,
  Isode,
  Other,
  kCount,
};

/// Firing-interval spans. A span opens at on_fire and closes at the next
/// callback (the next on_fire, on_round_end or on_run_end): under the
/// Sequential backend that interval is the transition's action plus the
/// revalidation of the next candidate. Run time not covered by any span
/// is scheduler time (candidate collection, round bookkeeping, the stop
/// predicate). All callbacks arrive on the thread that called run().
class SpanObserver final : public mcam::estelle::RunObserver {
 public:
  /// Classify every module of `spec` by its type once, so on_fire is a
  /// table lookup.
  void map_modules(mcam::estelle::Specification& spec);

  void on_run_begin(mcam::estelle::Executor&) override;
  void on_fire(const mcam::estelle::Module& module,
               const mcam::estelle::Transition&,
               mcam::common::SimTime) override;
  void on_round_end(mcam::estelle::Executor&, std::uint64_t) override;
  void on_run_end(mcam::estelle::Executor&,
                  const mcam::estelle::RunReport&) override;

  [[nodiscard]] std::int64_t layer_ns(Layer l) const noexcept {
    return layer_ns_[static_cast<std::size_t>(l)];
  }
  /// Wall time inside run() calls.
  [[nodiscard]] std::int64_t run_ns() const noexcept { return run_ns_; }
  /// run_ns() minus every span.
  [[nodiscard]] std::int64_t sched_ns() const noexcept;

 private:
  void close(Clock::time_point t) noexcept;

  std::unordered_map<const mcam::estelle::Module*, Layer> layer_of_;
  std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)>
      layer_ns_{};
  std::int64_t run_ns_ = 0;
  Clock::time_point run_start_{};
  Clock::time_point span_start_{};
  Layer open_ = Layer::kCount;  // kCount: no span open
};

/// Times send(), flush() and recv() of the wrapped transport. The
/// distributed runner calls its transport from its run thread only, so the
/// counters need no synchronization.
class TimingTransport final : public mcam::estelle::MailboxTransport {
 public:
  explicit TimingTransport(
      std::unique_ptr<mcam::estelle::MailboxTransport> inner)
      : inner_(std::move(inner)) {}

  void configure_session(const SessionOptions& so) override {
    inner_->configure_session(so);
  }
  bool sever(int peer) override { return inner_->sever(peer); }
  [[nodiscard]] const std::vector<int>& peers() const noexcept override {
    return inner_->peers();
  }
  mcam::common::Status send(int peer, mcam::estelle::Frame& f) override;
  void flush() override;
  RecvOutcome recv(int* from, mcam::estelle::Frame* out, int timeout_ms,
                   std::string* error) override;
  [[nodiscard]] const mcam::estelle::TransportStats& stats()
      const noexcept override {
    return inner_->stats();
  }
  [[nodiscard]] mcam::estelle::TransportStats& mutable_stats() noexcept
      override {
    return inner_->mutable_stats();
  }

  [[nodiscard]] std::int64_t send_ns() const noexcept { return send_ns_; }
  [[nodiscard]] std::int64_t flush_ns() const noexcept { return flush_ns_; }
  [[nodiscard]] std::int64_t recv_ns() const noexcept { return recv_ns_; }

 private:
  std::unique_ptr<mcam::estelle::MailboxTransport> inner_;
  std::int64_t send_ns_ = 0;
  std::int64_t flush_ns_ = 0;
  std::int64_t recv_ns_ = 0;
};

}  // namespace perfbench
