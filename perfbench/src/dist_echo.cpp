// Echo episodes — the §5.1 test environment over the distributed runtime,
// which give the per-layer metrics of the distributed wire path and the
// gate/round protocol (estelle.transport.*, estelle.dist.*).
//
// Per connection an initiator sits on presentation, session and transport
// modules in a client host, and an echo responder on the mirror stack in a
// server host. The client hosts are node 0's shards and the server hosts
// node 1's; the two nodes run as threads of this process over a Unix-socket
// mesh. Every initiator keeps one 16-byte P-DATA echo outstanding, stamped
// with its sequence number, until it has received its configured count.
//
// Episodes run each node's sequential per-node loop (worker width 1), and
// the node-parallel width nproc / 2 beside it (estelle.dist.wide_*). Each
// builds both worlds and the mesh afresh (one distributed run() per process
// group). The first, short episode calibrates the echo count of the others
// to the time budget.
//
// These episodes are not an end-to-end workload: their wall-time figures
// hang on thread wake-ups between the two nodes, and on a shared host they
// swung by more than any bound the benchmark may set (NOTES.md).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "asn1/value.hpp"
#include "echo_stamp.hpp"
#include "estelle/executor.hpp"
#include "estelle/module.hpp"
#include "estelle/transport/dist_runner.hpp"
#include "estelle/transport/socket_transport.hpp"
#include "layer_trace.hpp"
#include "osi/presentation.hpp"
#include "osi/service.hpp"
#include "osi/session.hpp"
#include "osi/transport.hpp"
#include "outcome.hpp"
#include "stats.hpp"

namespace perfbench {

namespace estelle = mcam::estelle;
namespace osi = mcam::osi;
using estelle::Attribute;
using estelle::Interaction;
using estelle::Module;
using mcam::common::Bytes;
using mcam::common::SimTime;

namespace {

constexpr int kHostsPerSide = 4;
constexpr int kConnsPerHost = 8;
constexpr int kConnections = kHostsPerSide * kConnsPerHost;
constexpr int kCalibrationEchoes = 100;
const SimTime kEndpointCost = SimTime::from_us(20);
constexpr auto kDialWait = std::chrono::seconds(10);

/// Opens the connection, then sends `count` echo requests one at a time,
/// each stamped with its sequence number; checks every echo and records its
/// wall latency in its own buffer (workers run initiators concurrently).
class EchoInitiator final : public Module {
 public:
  enum State { kInit = 0, kWaiting, kOpen, kDone };

  EchoInitiator(std::string name, int count, std::uint64_t tag)
      : Module(std::move(name), Attribute::Process), count_(count), tag_(tag) {
    svc_ = &ip("svc");
    latencies_us_.reserve(static_cast<std::size_t>(count));
    trans("start").from(kInit).to(kWaiting).cost(kEndpointCost).action(
        [this](Module&, const Interaction*) {
          svc_->output(Interaction(osi::kPConReq, Bytes(16, 0x5a)));
        });
    trans("conf")
        .from(kWaiting)
        .when(*svc_, osi::kPConConf)
        .to(kOpen)
        .cost(kEndpointCost)
        .action([this](Module&, const Interaction*) { send(); });
    trans("echo")
        .from(kOpen)
        .when(*svc_, osi::kPDatInd)
        .cost(kEndpointCost)
        .action([this](Module& m, const Interaction* msg) {
          last_ = Clock::now();
          latencies_us_.push_back(
              std::chrono::duration<double, std::micro>(last_ - issued_)
                  .count());
          if (!stamped(msg->payload, received_, tag_)) ++mismatches_;
          ++received_;
          const bool last = received_ == static_cast<std::uint64_t>(count_);
          if (!last) send();
          else m.set_state(kDone);
        });
    trans("ignore")
        .when(*svc_)
        .priority(1000)
        .cost(kEndpointCost)
        .action([](Module&, const Interaction*) {});
  }

  [[nodiscard]] std::uint64_t received() const noexcept { return received_; }
  [[nodiscard]] std::uint64_t mismatches() const noexcept {
    return mismatches_;
  }
  [[nodiscard]] Clock::time_point first_issue() const noexcept {
    return first_;
  }
  [[nodiscard]] Clock::time_point last_response() const noexcept {
    return last_;
  }
  [[nodiscard]] const std::vector<double>& latencies_us() const noexcept {
    return latencies_us_;
  }

 private:
  void send() {
    issued_ = Clock::now();
    if (received_ == 0) first_ = issued_;
    svc_->output(Interaction(osi::kPDatReq, stamp(received_, tag_)));
  }

  estelle::InteractionPoint* svc_ = nullptr;
  int count_;
  std::uint64_t tag_;
  std::uint64_t received_ = 0;
  std::uint64_t mismatches_ = 0;
  Clock::time_point issued_{};
  Clock::time_point first_{};
  Clock::time_point last_{};
  std::vector<double> latencies_us_;
};

/// Accepts the connection and returns every P-DATA unit unchanged.
class EchoResponder final : public Module {
 public:
  explicit EchoResponder(std::string name)
      : Module(std::move(name), Attribute::Process) {
    svc_ = &ip("svc");
    trans("accept").when(*svc_, osi::kPConInd).cost(kEndpointCost).action(
        [this](Module&, const Interaction*) {
          svc_->output(Interaction(osi::kPConResp,
                                   mcam::asn1::Value::boolean(true)));
        });
    trans("echo").when(*svc_, osi::kPDatInd).cost(kEndpointCost).action(
        [this](Module&, const Interaction* msg) {
          ++echoed_;
          svc_->output(Interaction(osi::kPDatReq, msg->payload));
        });
    trans("ignore")
        .when(*svc_)
        .priority(1000)
        .cost(kEndpointCost)
        .action([](Module&, const Interaction*) {});
  }

  [[nodiscard]] std::uint64_t echoed() const noexcept { return echoed_; }

 private:
  estelle::InteractionPoint* svc_ = nullptr;
  std::uint64_t echoed_ = 0;
};

/// The specification every node builds identically: client hosts first
/// (shards 0..H-1, node 0), then server hosts (shards H..2H-1, node 1).
struct EchoWorld {
  estelle::Specification spec{"dist-echo"};
  std::vector<EchoInitiator*> initiators;
  std::vector<EchoResponder*> responders;

  EchoWorld(int count, std::uint64_t seed) {
    std::vector<Module*> clients, servers;
    for (int h = 0; h < kHostsPerSide; ++h) {
      auto& sys = spec.root().create_child<Module>(
          "client" + std::to_string(h + 1), Attribute::SystemProcess);
      sys.set_uniprocessor_host(true);
      clients.push_back(&sys);
    }
    for (int h = 0; h < kHostsPerSide; ++h)
      servers.push_back(&spec.root().create_child<Module>(
          "server" + std::to_string(h + 1), Attribute::SystemProcess));
    for (int c = 0; c < kConnections; ++c) {
      const std::string tag = std::to_string(c + 1);
      auto& cconn = clients[static_cast<std::size_t>(c / kConnsPerHost)]
                        ->create_child<Module>("conn" + tag,
                                               Attribute::Process);
      auto& sconn = servers[static_cast<std::size_t>(c / kConnsPerHost)]
                        ->create_child<Module>("conn" + tag,
                                               Attribute::Process);
      auto& init = cconn.create_child<EchoInitiator>(
          "init" + tag, count, seed * 1000003u + static_cast<unsigned>(c));
      auto& resp = sconn.create_child<EchoResponder>("resp" + tag);
      estelle::InteractionPoint* client_top = &init.ip("svc");
      estelle::InteractionPoint* server_top = &resp.ip("svc");
      osi::TransportModule* tps[2] = {};
      for (int side = 0; side < 2; ++side) {
        Module& parent = side == 0 ? cconn : sconn;
        auto& pres = parent.create_child<osi::PresentationModule>("pres" + tag);
        auto& sess = parent.create_child<osi::SessionModule>("sess" + tag);
        auto& tp = parent.create_child<osi::TransportModule>("tp" + tag);
        estelle::connect(side == 0 ? *client_top : *server_top, pres.upper());
        estelle::connect(pres.lower(), sess.upper());
        estelle::connect(sess.lower(), tp.upper());
        tps[side] = &tp;
      }
      estelle::connect(tps[0]->net(), tps[1]->net());
      initiators.push_back(&init);
      responders.push_back(&resp);
    }
    spec.initialize();
  }
};

struct NodeResult {
  estelle::RunReport report;
  std::string error;
  std::int64_t run_ns = 0;
  std::int64_t send_ns = 0;
  std::int64_t flush_ns = 0;
  std::int64_t recv_ns = 0;
};

struct Episode {
  std::vector<double> latencies_us;
  double wall_s = 0.0;  // first echo issued .. last echo received
  std::uint64_t completed = 0;
  NodeResult nodes[2];

  [[nodiscard]] double rate() const {
    return wall_s > 0 ? static_cast<double>(completed) / wall_s : 0.0;
  }
};

/// Worker width of the node-parallel dispatch: the cores split between the
/// two nodes.
int wide_width() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()) / 2);
}

Episode run_episode(const Options& opt, int count, bool trace, int width,
                    Outcome& out) {
  Episode ep;
  std::unique_ptr<EchoWorld> worlds[2];
  {
    std::vector<std::jthread> threads;
    for (int node = 0; node < 2; ++node)
      threads.emplace_back([&, node] {
        NodeResult& res = ep.nodes[node];
        try {
          worlds[node] = std::make_unique<EchoWorld>(count, opt.seed);
          // Node 1 dials node 0. Dialing before node 0 listens costs a
          // 10 ms retry sleep inside unix_mesh, a thread-start race that
          // would make set-up bimodal; wait for node 0's socket instead.
          const Clock::time_point give_up = Clock::now() + kDialWait;
          if (node == 1)
            while (!std::filesystem::exists(opt.sock_dir + "/node0.sock") &&
                   Clock::now() < give_up)
              std::this_thread::sleep_for(std::chrono::microseconds(50));
          auto mesh =
              estelle::StreamSocketTransport::unix_mesh(node, 2, opt.sock_dir);
          if (!mesh.ok()) {
            res.error = "unix mesh: " + mesh.error().message;
            return;
          }
          std::shared_ptr<estelle::MailboxTransport> transport;
          TimingTransport* timing = nullptr;
          if (trace) {
            auto t = std::make_shared<TimingTransport>(std::move(mesh.value()));
            timing = t.get();
            transport = std::move(t);
          } else {
            transport = std::move(mesh.value());
          }
          estelle::DistOptions dist;
          dist.node = node;
          dist.nodes = 2;
          dist.transport = transport;
          dist.assignment.assign(2 * kHostsPerSide, 0);
          std::fill(dist.assignment.begin() + kHostsPerSide,
                    dist.assignment.end(), 1);
          dist.worker_count = width;
          estelle::ExecutorConfig cfg;
          cfg.kind = estelle::ExecutorKind::Distributed;
          cfg.backend_options = dist;
          auto executor = estelle::make_executor(worlds[node]->spec, cfg);
          const Clock::time_point r0 = Clock::now();
          res.report = executor->run();
          res.run_ns = nanos(Clock::now() - r0);
          if (timing != nullptr) {
            res.send_ns = timing->send_ns();
            res.flush_ns = timing->flush_ns();
            res.recv_ns = timing->recv_ns();
          }
        } catch (const std::exception& e) {
          res.error = e.what();
        }
      });
  }
  // The next episode's node 1 must not find this episode's socket.
  std::filesystem::remove(opt.sock_dir + "/node0.sock");

  for (int node = 0; node < 2; ++node) {
    const NodeResult& res = ep.nodes[node];
    if (!res.error.empty()) {
      out.fail("node " + std::to_string(node) + ": " + res.error);
      return ep;
    }
    if (res.report.reason != estelle::StopReason::Quiescent ||
        !res.report.error.empty()) {
      out.fail("node " + std::to_string(node) + " ended " +
               estelle::stop_reason_name(res.report.reason) + ": " +
               res.report.error);
      return ep;
    }
  }
  Clock::time_point first = Clock::time_point::max();
  Clock::time_point last = Clock::time_point::min();
  for (const EchoInitiator* init : worlds[0]->initiators) {
    if (init->received() != static_cast<std::uint64_t>(count))
      out.fail(init->name() + " received " + std::to_string(init->received()) +
               " of " + std::to_string(count) + " echoes");
    if (init->mismatches() != 0)
      out.fail(init->name() + ": " + std::to_string(init->mismatches()) +
               " echoes with the wrong sequence stamp");
    if (init->received() == 0) continue;
    first = std::min(first, init->first_issue());
    last = std::max(last, init->last_response());
    ep.latencies_us.insert(ep.latencies_us.end(), init->latencies_us().begin(),
                           init->latencies_us().end());
    ep.completed += init->received();
  }
  for (const EchoResponder* resp : worlds[1]->responders)
    if (resp->echoed() != static_cast<std::uint64_t>(count))
      out.fail(resp->name() + " echoed " + std::to_string(resp->echoed()) +
               " of " + std::to_string(count));
  if (ep.completed > 0) ep.wall_s = seconds_between(first, last);
  return ep;
}

void log_episode(const char* phase, int count, const Episode& ep) {
  const LatencySummary s = summarize(ep.latencies_us);
  std::fprintf(stderr,
               "%s episode: %d echoes x %d, %zu samples (%zu beyond p99), "
               "%.0f req/s, p50 %.1f us, p99 %.1f us\n",
               phase, count, kConnections, s.samples,
               samples_beyond(s.samples, 99.0), ep.rate(), s.p50_us, s.p99_us);
}

/// Echo count per initiator that makes one episode last `budget_s` at the
/// calibration episode's rate (at least enough for a p99 on ten samples).
int size_episode(const Episode& calibration, double budget_s) {
  const double per_initiator =
      calibration.rate() * budget_s / static_cast<double>(kConnections);
  const int floor = static_cast<int>(kMinSamples / kConnections) + 1;
  return std::clamp(static_cast<int>(per_initiator), floor, 1'000'000);
}

}  // namespace

void add_dist_layer_metrics(const Options& opt, Outcome& out) {
  std::filesystem::remove_all(opt.sock_dir);
  std::filesystem::create_directories(opt.sock_dir);
  const double budget = static_cast<double>(opt.seconds);
  const auto episode = [&](const char* phase, int count, bool trace,
                           int width) {
    Episode ep = run_episode(opt, count, trace, width, out);
    out.attempted += static_cast<std::uint64_t>(count) * kConnections;
    log_episode(phase, count, ep);
    return ep;
  };
  const Episode calibration = episode("calibration", kCalibrationEchoes,
                                      false, 1);
  if (!out.correct) {
    std::filesystem::remove_all(opt.sock_dir);
    return;
  }

  // Width-1 episodes untraced and traced (the per-layer figures), and
  // untraced episodes at the node-parallel width, two rounds of the three.
  const int count = size_episode(calibration, budget / 12);
  std::vector<double> plain_rates, wide_rates, wide_p99s;
  std::uint64_t completed = 0, frames = 0, bytes = 0, syscalls = 0;
  std::uint64_t steps = 0, node0_steps = 0, null_rounds = 0;
  std::uint64_t wide_steps = 0, wide_par_rounds = 0, wide_overlap = 0;
  std::int64_t send_ns = 0, flush_ns = 0, recv_ns = 0, node0_run_ns = 0;
  for (int rep = 0; rep < 2 && out.correct; ++rep) {
    plain_rates.push_back(episode("untraced", count, false, 1).rate());
    const Episode wide = episode("wide", count, false, wide_width());
    wide_rates.push_back(wide.rate());
    wide_p99s.push_back(summarize(wide.latencies_us).p99_us);
    for (const NodeResult& n : wide.nodes) {
      wide_steps += n.report.steps;
      wide_par_rounds += n.report.transport.parallel_shard_rounds;
      wide_overlap += n.report.transport.io_overlap_polls;
    }
    const Episode ep = episode("traced", count, true, 1);
    completed += ep.completed;
    for (const NodeResult& n : ep.nodes) {
      const estelle::TransportStats& t = n.report.transport;
      frames += t.frames_sent;
      bytes += t.bytes_sent;
      syscalls += t.syscalls;
      null_rounds += t.null_rounds_serviced;
      steps += n.report.steps;
      send_ns += n.send_ns;
      flush_ns += n.flush_ns;
      recv_ns += n.recv_ns;
    }
    node0_steps += ep.nodes[0].report.steps;
    node0_run_ns += ep.nodes[0].run_ns;
  }
  std::filesystem::remove_all(opt.sock_dir);
  const double n = completed > 0 ? static_cast<double>(completed) : 1.0;
  const auto per_req = [&](std::uint64_t v) {
    return static_cast<double>(v) / n;
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  out.add("estelle.transport.frames_per_req", per_req(frames), "count");
  out.add("estelle.transport.bytes_per_req", per_req(bytes), "bytes");
  out.add("estelle.transport.syscalls_per_req", per_req(syscalls), "count");
  out.add("estelle.transport.send_us_per_req", send_ns / 1e3 / n, "us");
  out.add("estelle.transport.flush_us_per_req", flush_ns / 1e3 / n, "us");
  out.add("estelle.transport.recv_blocked_us_per_round",
          ratio(recv_ns / 1e3, static_cast<double>(steps)), "us");
  out.add("estelle.dist.rounds_per_req", per_req(node0_steps), "count");
  out.add("estelle.dist.round_us",
          ratio(node0_run_ns / 1e3, static_cast<double>(node0_steps)), "us");
  out.add("estelle.dist.null_rounds_per_round",
          ratio(static_cast<double>(null_rounds), static_cast<double>(steps)),
          "count");
  out.add("estelle.dist.parallel_round_share",
          ratio(static_cast<double>(wide_par_rounds),
                static_cast<double>(wide_steps)),
          "ratio");
  out.add("estelle.dist.overlap_polls_per_round",
          ratio(static_cast<double>(wide_overlap),
                static_cast<double>(wide_steps)),
          "count");
  out.add("estelle.dist.wide_over_narrow_req_per_s",
          ratio(median(wide_rates), median(plain_rates)), "ratio");
  out.add("estelle.dist.wide_p99_us", median(wide_p99s), "us");
}

}  // namespace perfbench
