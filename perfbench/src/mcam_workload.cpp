// The two MCAM workloads: a closed loop of simulated users driving the
// Fig. 2 testbed (mcam::core::Testbed) through its application channels.
//
// mcam_control — Estelle-generated stack, Sequential runtime, 1024
//   associations (16 client hosts x 64), 1000 movies; 8 users each keep one
//   small control request outstanding on a random idle association.
// mcam_catalog — Estelle-generated stack, 8 associations all active, 10^4
//   movies; searches and all-attribute queries plus one third writes.
//
// McamClient is synchronous (one request per call), so the loop writes the
// encoded request PDUs straight onto the application channels, as
// McamClient::call does, and pumps the executor until any outstanding
// association has a response.
//
// The end-to-end figures are timed on CpuClock (cpu_clock.hpp): the loop is
// one thread that never blocks, pinned to one CPU, so its CPU time is the
// wall time it would take on a CPU of its own. Each set-up and window is
// then scaled to the nominal host by the reference work run around it
// (reference_work.hpp).
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "alloc_count.hpp"
#include "cpu_clock.hpp"
#include "directory/directory.hpp"
#include "generator.hpp"
#include "layer_trace.hpp"
#include "mcam/testbed.hpp"
#include "outcome.hpp"
#include "reference_work.hpp"
#include "stats.hpp"

namespace perfbench {

namespace core = mcam::core;
namespace directory = mcam::directory;
namespace estelle = mcam::estelle;

namespace {

struct Shape {
  Mix mix = Mix::Control;
  int clients = 1;
  int per_client = 1;
  int movies = 0;
};

Shape shape_of(const std::string& workload) {
  if (workload == "mcam_control") return {Mix::Control, 16, 64, 1000};
  return {Mix::Catalog, Generator::kUsers, 1, 10'000};
}

struct World {
  std::unique_ptr<core::Testbed> tb;
  std::unique_ptr<Generator> gen;
  std::vector<core::AppModule*> apps;  // by connection index
  std::vector<mcam::osi::TransportModule*> transports;
  double setup_s = 0.0;

  [[nodiscard]] std::uint64_t retransmissions() const {
    std::uint64_t n = 0;
    for (const auto* t : transports) n += t->retransmissions();
    return n;
  }
};

/// Construct the testbed, load the directory and equipment, and associate
/// every connection with McamClient::associate, one after another. The
/// set-up is timed on CpuClock.
std::unique_ptr<World> build_world(const Shape& s, std::uint64_t seed,
                                   core::StackKind stack) {
  const CpuClock::time_point t0 = CpuClock::now();
  auto w = std::make_unique<World>();
  core::Testbed::Config cfg;
  cfg.stack = stack;
  cfg.clients = s.clients;
  cfg.connections_per_client = s.per_client;
  cfg.seed = seed;
  w->tb = std::make_unique<core::Testbed>(cfg);
  const int conns = s.clients * s.per_client;
  w->gen = std::make_unique<Generator>(
      Generator::Config{s.mix, seed, conns, s.movies});
  w->gen->provision(w->tb->server().directory(), w->tb->server().eca());
  for (int c = 0; c < conns; ++c) {
    auto& conn = w->tb->connection(c / s.per_client, c % s.per_client);
    w->apps.push_back(conn.app);
    for (auto* t : {conn.client_stack.transport, conn.server_stack.transport})
      if (t != nullptr) w->transports.push_back(t);
    auto assoc = core::McamClient(*conn.app, w->tb->executor())
                     .associate(Generator::user_of(c));
    if (!assoc.ok())
      throw std::runtime_error("associate connection " + std::to_string(c) +
                               ": " + assoc.error().message);
  }
  w->setup_s = cpu_seconds(CpuClock::now() - t0);
  return w;
}

/// Per-layer accumulators of a traced window.
struct Tracer {
  SpanObserver spans;
  std::int64_t codec_ns = 0;
  std::uint64_t codec_allocs = 0;
  std::uint64_t pdu_bytes = 0;
  std::uint64_t guards = 0;
  std::uint64_t candidates = 0;
  std::uint64_t rounds = 0;
  std::uint64_t fired = 0;
  std::uint64_t alloc_rounds = 0;
  std::uint64_t run_calls = 0;

  /// Directory work the server did for one exchange, replayed later on a
  /// copy of the directory.
  struct DirOp {
    Kind kind = Kind::Select;
    core::Pdu request;
    std::string user;
    std::uint64_t created = 0;  // id the server assigned (Create)
  };
  std::vector<DirOp> dir_log;

  template <typename F>
  auto codec(F&& f) {
    const std::uint64_t a0 = allocations();
    const Clock::time_point t0 = Clock::now();
    auto r = f();
    codec_ns += nanos(Clock::now() - t0);
    codec_allocs += allocations() - a0;
    return r;
  }
};

/// Completions the allocation count of an untraced run spans.
constexpr std::uint64_t kAllocMark = 5000;

bool touches_directory(Kind k) {
  switch (k) {
    case Kind::Select:
    case Kind::Play:
    case Kind::QueryOne:
    case Kind::QueryAll:
    case Kind::Search:
    case Kind::Create:
    case Kind::Modify:
    case Kind::Delete:
      return true;
    default:
      return false;
  }
}

/// One window of the loop. Latencies and the rate are on CpuClock; the
/// wall time is the base the traced run's firing spans are shares of.
struct Window {
  std::vector<double> latencies_us;
  double cpu_s = 0.0;
  double wall_s = 0.0;

  [[nodiscard]] double rate() const {
    return cpu_s > 0 ? static_cast<double>(latencies_us.size()) / cpu_s : 0.0;
  }
};

/// The closed loop: one slot per simulated user, each with one exchange in
/// flight.
class Loop {
 public:
  Loop(World& w, Outcome& out)
      : w_(w), out_(out), slots_(Generator::kUsers) {}

  /// Issue every user's first request; the first window's clock and the
  /// allocation count start here. `tr` traces these first issues.
  void start(Tracer* tr = nullptr) {
    tracer_ = tr;
    completed_ = 0;
    mark_ = CpuClock::now();
    wall_mark_ = Clock::now();
    const std::uint64_t a0 = allocations();
    for (std::size_t u = 0; u < slots_.size(); ++u) issue(u);
    loop_allocs_ = allocations() - a0;
  }

  /// Run until `duration` of CPU time has passed and `min_samples` exchanges
  /// completed,
  /// or — when `exact` > 0 — until exactly `exact` completed. Returns
  /// false with `ok()` cleared if the world went quiescent with requests
  /// outstanding.
  Window run_window(CpuClock::duration duration, std::size_t min_samples,
                    std::size_t exact, Tracer* tr) {
    Window win;
    win.latencies_us.reserve(1u << 20);
    tracer_ = tr;
    const std::uint64_t a0 = allocations();
    const CpuClock::time_point until = mark_ + duration;
    const auto done = [&] {
      const std::size_t n = win.latencies_us.size();
      if (exact > 0) return n >= exact;
      return n >= min_samples && CpuClock::now() >= until;
    };
    while (ok_ && !done()) {
      // Responses left from the previous window are harvested before the
      // next run_until, so the run_until calls (each allocates) do not
      // depend on where the windows fall.
      if (!any_input() && !pump()) break;
      const CpuClock::time_point observed = CpuClock::now();
      for (std::size_t u = 0; u < slots_.size() && !done(); ++u) {
        Slot& s = slots_[u];
        if (!s.channel->has_input()) continue;
        if (!harvest(s)) continue;  // a position notification
        win.latencies_us.push_back(
            std::chrono::duration<double, std::micro>(observed - s.issued)
                .count());
        if (++completed_ == kAllocMark)
          allocs_at_mark_ = loop_allocs_ + (allocations() - a0);
        issue(u);
      }
    }
    loop_allocs_ += allocations() - a0;
    const CpuClock::time_point end = CpuClock::now();
    const Clock::time_point wall_end = Clock::now();
    win.cpu_s = cpu_seconds(end - mark_);
    win.wall_s = seconds_between(wall_mark_, wall_end);
    mark_ = end;
    wall_mark_ = wall_end;
    tracer_ = nullptr;
    return win;
  }

  /// Leave `d` of CPU time spent outside the loop, between two windows, out
  /// of the next window and of the outstanding exchanges' latencies.
  void skip(CpuClock::duration d) {
    mark_ += d;
    for (Slot& s : slots_) s.issued += d;
  }

  /// Complete every outstanding exchange without issuing more.
  void drain() {
    for (;;) {
      bool any = false;
      for (const Slot& s : slots_) any = any || s.active;
      if (!any || !ok_ || !pump()) return;
      for (Slot& s : slots_)
        if (s.active && s.channel->has_input() && harvest(s))
          s.active = false;
    }
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::uint64_t issued() const noexcept { return issued_; }

  /// Allocations per exchange over the first kAllocMark completions after
  /// start(): a fixed stretch of a deterministic exchange sequence, so the
  /// figure repeats exactly at a fixed seed. Only the loop's own work is
  /// counted (issue, run_until, harvest), not the benchmark's bookkeeping
  /// between windows, whose count depends on where the windows fall. If
  /// the run completed fewer, the average over what it completed.
  [[nodiscard]] double allocs_per_exchange() const {
    if (completed_ >= kAllocMark)
      return static_cast<double>(allocs_at_mark_) / kAllocMark;
    return completed_ > 0 ? static_cast<double>(loop_allocs_) /
                                static_cast<double>(completed_)
                          : 0.0;
  }

 private:
  struct Slot {
    Exchange ex;
    estelle::InteractionPoint* channel = nullptr;
    CpuClock::time_point issued{};
    bool active = false;
  };

  void issue(std::size_t u) {
    Slot& s = slots_[u];
    s.ex = w_.gen->next(static_cast<int>(u));
    s.channel = &w_.apps[static_cast<std::size_t>(s.ex.conn)]->mca();
    mcam::common::Bytes bytes;
    if (tracer_ != nullptr) {
      bytes = tracer_->codec([&] { return core::encode(s.ex.request); });
      // The server decodes what the client encoded.
      (void)tracer_->codec([&] { return core::decode(bytes); });
      tracer_->pdu_bytes += bytes.size();
    } else {
      bytes = core::encode(s.ex.request);
    }
    s.channel->output(estelle::Interaction(
        static_cast<int>(core::op_of(s.ex.request)), std::move(bytes)));
    s.issued = CpuClock::now();
    s.active = true;
    ++issued_;
  }

  [[nodiscard]] bool any_input() const {
    for (const Slot& s : slots_)
      if (s.active && s.channel->has_input()) return true;
    return false;
  }

  /// One run_until call; false (and every outstanding exchange failed) if
  /// the world went quiescent without a response.
  bool pump() {
    const estelle::RunReport r =
        w_.tb->executor().run_until([this] { return any_input(); });
    if (tracer_ != nullptr) {
      tracer_->guards += r.guards_examined;
      tracer_->candidates += r.candidates_considered;
      tracer_->rounds += r.steps;
      tracer_->fired += r.fired;
      tracer_->alloc_rounds += r.rounds_with_allocation;
      ++tracer_->run_calls;
    }
    if (any_input()) return true;
    for (Slot& s : slots_) {
      if (!s.active) continue;
      out_.fail(std::string("no response to ") + kind_name(s.ex.kind) +
                " (world quiescent)");
      (void)w_.gen->complete(s.ex, core::ErrorResp{});
      s.active = false;
    }
    ok_ = false;
    return false;
  }

  /// Pop and check the response waiting on `s`. False when it was an
  /// unsolicited PositionInd (the exchange is still outstanding).
  bool harvest(Slot& s) {
    estelle::Interaction msg = s.channel->pop();
    auto decoded = tracer_ != nullptr
                       ? tracer_->codec([&] { return core::decode(msg.payload); })
                       : core::decode(msg.payload);
    if (decoded.ok() &&
        std::holds_alternative<core::PositionInd>(decoded.value()))
      return false;
    std::string verdict;
    if (!decoded.ok()) {
      verdict = "undecodable response: " + decoded.error().message;
      (void)w_.gen->complete(s.ex, core::ErrorResp{});
    } else {
      if (tracer_ != nullptr) {
        // The server encoded what the client decodes.
        (void)tracer_->codec([&] { return core::encode(decoded.value()); });
        tracer_->pdu_bytes += msg.payload.size();
        if (touches_directory(s.ex.kind)) {
          Tracer::DirOp op{s.ex.kind, s.ex.request,
                           Generator::user_of(s.ex.conn), 0};
          if (const auto* c =
                  std::get_if<core::MovieCreateResp>(&decoded.value()))
            op.created = c->movie_id;
          tracer_->dir_log.push_back(std::move(op));
        }
      }
      verdict = w_.gen->complete(s.ex, decoded.value());
    }
    if (!verdict.empty())
      out_.fail(std::string(kind_name(s.ex.kind)) + ": " + verdict);
    s.active = false;
    return true;
  }

  World& w_;
  Outcome& out_;
  std::vector<Slot> slots_;
  Tracer* tracer_ = nullptr;
  CpuClock::time_point mark_{};
  Clock::time_point wall_mark_{};
  std::uint64_t loop_allocs_ = 0;  // inside start() and windows
  std::uint64_t allocs_at_mark_ = 0;
  std::uint64_t completed_ = 0;  // since start()
  std::uint64_t issued_ = 0;
  bool ok_ = true;
};

struct DirectoryTiming {
  double read_us_per_op = 0.0;
  double write_us_per_op = 0.0;
  double hits_per_search = 0.0;
};

/// Time the directory calls the server made for the logged exchanges,
/// against a copy of the directory as it stood when the log began.
DirectoryTiming replay_directory(const directory::Dsa& snapshot,
                                 const std::vector<Tracer::DirOp>& log) {
  directory::Dsa dsa = snapshot;
  std::unordered_map<std::uint64_t, std::uint64_t> remap;  // logged -> copy
  const auto id_of = [&](std::uint64_t id) {
    auto it = remap.find(id);
    return it == remap.end() ? id : it->second;
  };
  std::int64_t read_ns = 0, write_ns = 0;
  std::uint64_t reads = 0, writes = 0, searches = 0, hits = 0, failed = 0;
  for (const Tracer::DirOp& op : log) {
    Clock::time_point t0 = Clock::now();
    bool ok = true;
    bool write = false;
    switch (op.kind) {
      case Kind::Select:
        ok = dsa.find_by_title(std::get<core::MovieSelectReq>(op.request).title)
                 .ok();
        break;
      case Kind::Play:
        ok = dsa.read(id_of(std::get<core::PlayReq>(op.request).movie_id)).ok();
        break;
      case Kind::QueryOne:
      case Kind::QueryAll:
        ok = dsa.read(id_of(std::get<core::AttrQueryReq>(op.request).movie_id))
                 .ok();
        break;
      case Kind::Search:
        hits += dsa.search_chained(
                       std::get<core::MovieSearchReq>(op.request).filter)
                    .size();
        ++searches;
        break;
      case Kind::Create: {
        write = true;
        const auto& req = std::get<core::MovieCreateReq>(op.request);
        directory::MovieEntry e;
        e.title = req.title;
        e.location_host = dsa.domain();
        e.rights = op.user;
        for (const core::Attr& a : req.attrs)
          ok = ok && e.set_attribute(a.name, a.value).ok();
        t0 = Clock::now();  // building the entry is not directory work
        auto id = dsa.add(std::move(e));
        ok = ok && id.ok();
        if (id.ok()) remap[op.created] = id.value();
        break;
      }
      case Kind::Modify: {
        write = true;
        const auto& req = std::get<core::AttrModifyReq>(op.request);
        ok = dsa.read(id_of(req.movie_id)).ok();
        for (const core::Attr& a : req.attrs)
          ok = ok && dsa.modify(id_of(req.movie_id), a.name, a.value).ok();
        break;
      }
      case Kind::Delete: {
        write = true;
        const std::uint64_t id =
            id_of(std::get<core::MovieDeleteReq>(op.request).movie_id);
        ok = dsa.read(id).ok() && dsa.remove(id).ok();
        break;
      }
      default:
        continue;
    }
    const std::int64_t ns = nanos(Clock::now() - t0);
    if (write) {
      write_ns += ns;
      ++writes;
    } else {
      read_ns += ns;
      ++reads;
    }
    if (!ok) ++failed;
  }
  if (failed > 0)
    std::fprintf(stderr, "directory replay: %llu of %zu operations failed\n",
                 static_cast<unsigned long long>(failed), log.size());
  DirectoryTiming t;
  if (reads > 0) t.read_us_per_op = read_ns / 1e3 / static_cast<double>(reads);
  if (writes > 0)
    t.write_us_per_op = write_ns / 1e3 / static_cast<double>(writes);
  if (searches > 0)
    t.hits_per_search =
        static_cast<double>(hits) / static_cast<double>(searches);
  return t;
}

void log_window(const char* phase, int k, const Window& w) {
  const LatencySummary s = summarize(w.latencies_us);
  std::fprintf(stderr,
               "%s window %d: %zu samples (%zu beyond p99), %.0f req/s, "
               "p50 %.1f us, p99 %.1f us, CPU time %.0f%% of wall\n",
               phase, k, s.samples, samples_beyond(s.samples, 99.0), w.rate(),
               s.p50_us, s.p99_us,
               w.wall_s > 0 ? 100 * w.cpu_s / w.wall_s : 0.0);
}

Outcome run_untraced(const Options& opt, const Shape& shape, int cpu) {
  Outcome out;
  const CpuIdleMeter idle(cpu);
  ReferenceWork reference;
  double ref_before = reference.run();
  std::vector<double> setups;
  double setup_spent = 0.0;
  std::unique_ptr<World> w;
  while (setups.size() < kSetups ||
         (setup_spent < kSetupShare * opt.seconds &&
          setups.size() < kMaxSetups)) {
    w.reset();
    w = build_world(shape, opt.seed, core::StackKind::EstelleGenerated);
    const double ref_after = reference.run();
    const double f = nominal_factor(ref_before, ref_after);
    ref_before = ref_after;
    setups.push_back(w->setup_s * f);
    setup_spent += w->setup_s;
    std::fprintf(stderr,
                 "setup %zu: %.3f s, reference %.2f ms, %.3f s nominal\n",
                 setups.size(), w->setup_s, 1e3 * ref_after, setups.back());
  }
  Loop loop(*w, out);
  loop.start();
  std::vector<WindowFigures> windows;
  const CpuClock::duration slice = std::chrono::seconds(opt.seconds) / kWindows;
  while (loop.ok() && windows.size() < kWindows) {
    const Window win = loop.run_window(slice, kMinSamples, 0, nullptr);
    const CpuClock::time_point r0 = CpuClock::now();
    const double ref_after = reference.run();
    loop.skip(CpuClock::now() - r0);
    const double f = nominal_factor(ref_before, ref_after);
    ref_before = ref_after;
    const LatencySummary s = summarize(win.latencies_us);
    windows.push_back({win.rate() / f, s.p50_us * f, s.p99_us * f});
    log_window("measure", static_cast<int>(windows.size()), win);
    std::fprintf(stderr,
                 "  reference %.2f ms; nominal: %.0f req/s, p50 %.1f us, "
                 "p99 %.1f us\n",
                 1e3 * ref_after, windows.back().rate, windows.back().p50_us,
                 windows.back().p99_us);
  }
  const double allocs_per_req = loop.allocs_per_exchange();
  loop.drain();
  out.correct = out.correct && loop.ok();
  out.attempted = loop.issued();
  const double idle_share = idle.share();
  std::fprintf(stderr, "CPU %d idle for %.2f%% of the run\n", cpu,
               100 * idle_share);
  if (idle_share > kMaxIdleShare)
    out.fail("CPU " + std::to_string(cpu) + " sat idle for " +
             std::to_string(100 * idle_share) +
             "% of the run: the loop waited, which CPU time does not count");
  add_window_medians(out, windows);
  out.add("allocs_per_req", allocs_per_req, "count");
  out.add("setup_s", median(std::move(setups)), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

Outcome run_traced(const Options& opt, const Shape& shape) {
  Outcome out;
  const CpuClock::duration total = std::chrono::seconds(opt.seconds);
  auto w = build_world(shape, opt.seed, core::StackKind::EstelleGenerated);
  Loop loop(*w, out);
  loop.start();

  // A: untraced, the base of trace.overhead_frac and of the ISODE ratio.
  const Window a = loop.run_window(total * 3 / 10, kMinSamples, 0, nullptr);
  log_window("untraced", 0, a);

  // B: traced, from a drained world, so the directory snapshot the replay
  // starts from holds the effect of every exchange before B and of none in
  // it.
  loop.drain();
  const directory::Dsa snapshot = w->tb->server().directory();
  const std::uint64_t retrans0 = w->retransmissions();
  Tracer tr;
  tr.spans.map_modules(w->tb->spec());
  w->tb->executor().add_run_observer(&tr.spans);
  loop.start(&tr);
  const Window b = loop.run_window(total * 4 / 10, kMinSamples, 0, &tr);
  w->tb->executor().remove_run_observer(&tr.spans);
  log_window("traced", 0, b);
  const std::uint64_t retransmits = w->retransmissions() - retrans0;
  loop.drain();
  out.attempted += loop.issued();
  out.correct = out.correct && loop.ok();
  const DirectoryTiming dir = replay_directory(snapshot, tr.dir_log);
  w.reset();

  // C: the same seed and request count over the hand-coded ISODE stack.
  auto wi = build_world(shape, opt.seed, core::StackKind::IsodeHandCoded);
  Loop li(*wi, out);
  li.start();
  const Window c = li.run_window({}, 0, a.latencies_us.size(), nullptr);
  log_window("isode", 0, c);
  li.drain();
  out.attempted += li.issued();
  out.correct = out.correct && li.ok();

  const double n = static_cast<double>(b.latencies_us.size());
  const auto per_req_us = [&](std::int64_t ns) { return ns / 1e3 / n; };
  const auto per_req = [&](std::uint64_t v) {
    return static_cast<double>(v) / n;
  };
  out.add("estelle.guards_per_req", per_req(tr.guards), "count");
  out.add("estelle.candidates_per_req", per_req(tr.candidates), "count");
  out.add("estelle.rounds_per_req", per_req(tr.rounds), "count");
  out.add("estelle.fired_per_req", per_req(tr.fired), "count");
  out.add("estelle.alloc_rounds_per_req", per_req(tr.alloc_rounds), "count");
  out.add("estelle.sched_us_per_req", per_req_us(tr.spans.sched_ns()), "us");
  out.add("estelle.run_calls_per_req", per_req(tr.run_calls), "count");
  out.add("osi.presentation_us_per_req",
          per_req_us(tr.spans.layer_ns(Layer::Presentation)), "us");
  out.add("osi.session_us_per_req",
          per_req_us(tr.spans.layer_ns(Layer::Session)), "us");
  out.add("osi.transport_us_per_req",
          per_req_us(tr.spans.layer_ns(Layer::Transport)), "us");
  out.add("osi.transport_retransmits_per_req", per_req(retransmits), "count");
  const double c_n = static_cast<double>(c.latencies_us.size());
  const double a_n = static_cast<double>(a.latencies_us.size());
  const double isode_us = c_n > 0 ? c.cpu_s * 1e6 / c_n : 0.0;
  const double estelle_us = a_n > 0 ? a.cpu_s * 1e6 / a_n : 0.0;
  out.add("osi.isode_us_per_req", isode_us, "us");
  out.add("osi.generated_over_isode",
          isode_us > 0 ? estelle_us / isode_us : 0.0, "ratio");
  out.add("mcam.mca_client_us_per_req",
          per_req_us(tr.spans.layer_ns(Layer::McaClient)), "us");
  out.add("mcam.mca_server_us_per_req",
          per_req_us(tr.spans.layer_ns(Layer::McaServer)), "us");
  out.add("mcam.pdu_codec_us_per_req", per_req_us(tr.codec_ns), "us");
  out.add("mcam.pdu_codec_allocs_per_req", per_req(tr.codec_allocs), "count");
  out.add("mcam.pdu_bytes_per_req", per_req(tr.pdu_bytes), "bytes");
  out.add("directory.read_us_per_op", dir.read_us_per_op, "us");
  out.add("directory.write_us_per_op", dir.write_us_per_op, "us");
  out.add("directory.hits_per_search", dir.hits_per_search, "count");
  out.add("trace.overhead_frac", a.rate() > 0 ? 1.0 - b.rate() / a.rate() : 0,
          "ratio");
  out.add("trace.accounted_frac",
          b.wall_s > 0 ? tr.spans.run_ns() / 1e9 / b.wall_s : 0.0, "ratio");
  std::fprintf(stderr,
               "traced: %zu exchanges, %llu directory operations replayed\n",
               b.latencies_us.size(),
               static_cast<unsigned long long>(tr.dir_log.size()));
  return out;
}

}  // namespace

Outcome run_mcam(const Options& opt) {
  const Shape shape = shape_of(opt.workload);
  Outcome out;
  {
    const CpuPin pin;
    out = opt.trace ? run_traced(opt, shape)
                    : run_untraced(opt, shape, pin.cpu());
  }
  // The distributed runtime's layers ride along with the catalog's traced
  // run, on every CPU (the pin above is released).
  if (opt.trace && shape.mix == Mix::Catalog && out.correct)
    add_dist_layer_metrics(opt, out);
  return out;
}

}  // namespace perfbench
