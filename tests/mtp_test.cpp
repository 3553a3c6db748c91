// MTP stream-protocol tests: packet codec, frame source determinism,
// isochronous pacing, fragmentation/reassembly, loss accounting, pause/
// resume/seek, and the SPA/SUA agents.
#include <gtest/gtest.h>

#include "mtp/mtp.hpp"
#include "mtp/sps.hpp"

namespace mcam::mtp {
namespace {

using common::SimTime;

net::Impairments fast_link() {
  net::Impairments imp;
  imp.latency = SimTime::from_ms(1);
  imp.jitter = {};
  imp.loss = 0.0;
  imp.bandwidth_bps = 100e6;
  return imp;
}

TEST(PacketCodec, RoundTrip) {
  PacketHeader h;
  h.stream = 3;
  h.seq = 12345;
  h.frame = 99;
  h.frag = 2;
  h.nfrags = 5;
  h.flags = kFlagIntra;
  h.capture_ts_ns = 777777;
  const common::Bytes payload(100, 0x42);
  auto v = parse_packet(build_packet(h, payload));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().header.stream, 3);
  EXPECT_EQ(v.value().header.seq, 12345u);
  EXPECT_EQ(v.value().header.frame, 99u);
  EXPECT_EQ(v.value().header.frag, 2);
  EXPECT_EQ(v.value().header.nfrags, 5);
  EXPECT_EQ(v.value().header.flags, kFlagIntra);
  EXPECT_EQ(v.value().header.capture_ts_ns, 777777);
  EXPECT_EQ(v.value().payload, payload);
}

TEST(PacketCodec, RejectsShortPacket) {
  EXPECT_FALSE(parse_packet(common::Bytes(kHeaderSize - 1, 0)).ok());
}

TEST(FrameSource, DeterministicAndGopPatterned) {
  FrameSource::Config cfg;
  cfg.total_frames = 36;
  cfg.gop = 12;
  FrameSource a(cfg), b(cfg);
  for (int i = 0; i < 36; ++i) {
    auto fa = a.next();
    auto fb = b.next();
    ASSERT_TRUE(fa && fb);
    EXPECT_EQ(fa->data, fb->data);
    EXPECT_EQ(fa->intra, i % 12 == 0);
  }
  EXPECT_FALSE(a.next().has_value());
  EXPECT_TRUE(a.exhausted());
}

TEST(FrameSource, IntraFramesAreLarger) {
  FrameSource::Config cfg;
  cfg.total_frames = 120;
  cfg.gop = 12;
  cfg.intra_scale = 2.5;
  FrameSource src(cfg);
  double intra_sum = 0, inter_sum = 0;
  int intra_n = 0, inter_n = 0;
  while (auto f = src.next()) {
    if (f->intra) {
      intra_sum += static_cast<double>(f->data.size());
      ++intra_n;
    } else {
      inter_sum += static_cast<double>(f->data.size());
      ++inter_n;
    }
  }
  EXPECT_GT(intra_sum / intra_n, 1.8 * (inter_sum / inter_n));
}

struct StreamWorld {
  net::SimNetwork net{2024, fast_link()};
  net::Socket& tx;
  net::Socket& rx;

  StreamWorld() : tx(net.open({"server", 1})), rx(net.open({"client", 1})) {}

  /// Run sender and receiver in lockstep until `until`.
  void pump(StreamSender& sender, StreamReceiver& receiver, SimTime until,
            SimTime tick = SimTime::from_ms(5)) {
    while (net.now() < until) {
      SimTime next = net.now() + tick;
      if (next > until) next = until;
      sender.step(net.now());
      net.run_until(next);
      receiver.poll(net.now());
    }
    sender.step(net.now());
    net.run_all();
    receiver.poll(net.now());
  }
};

TEST(Stream, DeliversAllFramesIntactOnCleanLink) {
  StreamWorld w;
  FrameSource::Config cfg;
  cfg.total_frames = 50;
  cfg.fps = 25.0;
  StreamSender sender(w.tx, w.rx.address(), FrameSource(cfg));
  StreamReceiver receiver(w.rx);

  std::vector<std::uint32_t> frames;
  bool payload_ok = true;
  receiver.set_sink([&](std::uint32_t frame, const common::Bytes& data, bool) {
    frames.push_back(frame);
    for (std::size_t i = 0; i < data.size(); ++i)
      if (data[i] !=
          static_cast<std::uint8_t>((frame * 131 + i * 31) & 0xff)) {
        payload_ok = false;
        break;
      }
  });

  w.pump(sender, receiver, SimTime::from_s(2.5));
  EXPECT_TRUE(sender.finished());
  EXPECT_EQ(sender.stats().frames_sent, 50u);
  ASSERT_EQ(frames.size(), 50u);
  EXPECT_TRUE(payload_ok) << "reassembled payload corrupted";
  for (std::size_t i = 0; i < frames.size(); ++i)
    EXPECT_EQ(frames[i], i);  // in order on a clean link
  EXPECT_EQ(receiver.stats().packets_lost, 0u);
  EXPECT_TRUE(receiver.stats().end_of_stream);
}

TEST(Stream, IsochronousPacing) {
  StreamWorld w;
  FrameSource::Config cfg;
  cfg.total_frames = 10;
  cfg.fps = 20.0;  // 50ms interval
  StreamSender sender(w.tx, w.rx.address(), FrameSource(cfg));
  // At t=0 only frame 0 is due.
  sender.step(w.net.now());
  EXPECT_EQ(sender.stats().frames_sent, 1u);
  // At t=125ms frames 1 and 2 are due as well.
  w.net.run_until(SimTime::from_ms(125));
  sender.step(w.net.now());
  EXPECT_EQ(sender.stats().frames_sent, 3u);
}

TEST(Stream, LargeFramesAreFragmented) {
  StreamWorld w;
  FrameSource::Config cfg;
  cfg.total_frames = 4;
  cfg.mean_frame_bytes = 6000;
  cfg.stddev_bytes = 0;
  cfg.gop = 0;  // no intra scaling
  StreamSender::Config scfg;
  scfg.mtu_payload = 1400;
  StreamSender sender(w.tx, w.rx.address(), FrameSource(cfg), scfg);
  StreamReceiver receiver(w.rx);
  std::size_t frames = 0;
  receiver.set_sink([&](std::uint32_t, const common::Bytes& data, bool) {
    ++frames;
    EXPECT_GE(data.size(), 5000u);
  });
  w.pump(sender, receiver, SimTime::from_s(1));
  EXPECT_EQ(frames, 4u);
  // ~6000/1400 ⇒ 5 fragments per frame.
  EXPECT_GE(sender.stats().packets_sent, 4u * 4);
}

TEST(Stream, LossIsDetectedNotRepaired) {
  net::Impairments lossy = fast_link();
  lossy.loss = 0.15;
  net::SimNetwork net(7, lossy);
  net::Socket& tx = net.open({"server", 1});
  net::Socket& rx = net.open({"client", 1});

  FrameSource::Config cfg;
  cfg.total_frames = 200;
  cfg.mean_frame_bytes = 4000;
  StreamSender sender(tx, rx.address(), FrameSource(cfg));
  StreamReceiver receiver(rx);

  SimTime t{};
  while (!sender.finished() || net.next_event()) {
    t += SimTime::from_ms(5);
    sender.step(net.now());
    net.run_until(t);
    receiver.poll(net.now());
  }
  const ReceiverStats& s = receiver.stats();
  EXPECT_GT(s.packets_lost, 0u);
  EXPECT_LT(s.packet_delivery_ratio(), 0.95);
  EXPECT_GT(s.packet_delivery_ratio(), 0.70);
  // Damaged frames were given up, not retransmitted (lightweight handling).
  EXPECT_GT(s.frames_damaged, 0u);
  EXPECT_LT(s.frames_complete, 200u);
  EXPECT_GT(s.frames_complete, 100u);
}

TEST(Stream, JitterMeasuredUnderJitteryLink) {
  net::Impairments jittery = fast_link();
  jittery.jitter = SimTime::from_ms(10);
  net::SimNetwork net(3, jittery);
  net::Socket& tx = net.open({"server", 1});
  net::Socket& rx = net.open({"client", 1});
  FrameSource::Config cfg;
  cfg.total_frames = 100;
  cfg.mean_frame_bytes = 1000;
  StreamSender sender(tx, rx.address(), FrameSource(cfg));
  StreamReceiver receiver(rx);
  SimTime t{};
  while (!sender.finished() || net.next_event()) {
    t += SimTime::from_ms(5);
    sender.step(net.now());
    net.run_until(t);
    receiver.poll(net.now());
  }
  EXPECT_GT(receiver.stats().jitter_ms, 0.5);
  EXPECT_GT(receiver.stats().mean_delay_ms, 1.0);
}

TEST(Stream, PauseStopsEmissionResumeContinues) {
  StreamWorld w;
  FrameSource::Config cfg;
  cfg.total_frames = 100;
  cfg.fps = 25;
  StreamSender sender(w.tx, w.rx.address(), FrameSource(cfg));

  sender.step(w.net.now());
  w.net.run_until(SimTime::from_ms(200));
  sender.step(w.net.now());
  const auto sent_before = sender.stats().frames_sent;
  sender.pause();
  w.net.run_until(SimTime::from_ms(800));
  sender.step(w.net.now());
  EXPECT_EQ(sender.stats().frames_sent, sent_before);  // paused: nothing

  sender.resume(w.net.now());
  w.net.run_until(SimTime::from_ms(1000));
  sender.step(w.net.now());
  EXPECT_GT(sender.stats().frames_sent, sent_before);
}

TEST(Sps, OpenPlayStopLifecycle) {
  net::SimNetwork net(5, fast_link());
  StreamProviderAgent spa(net, "server");
  StreamUserAgent sua(net, {"client", 7000});

  FrameSource::Config cfg;
  cfg.total_frames = 30;
  const std::uint16_t stream = spa.open_stream(FrameSource(cfg),
                                               sua.address());
  EXPECT_EQ(spa.active_streams(), 1u);

  SimTime t{};
  for (int i = 0; i < 400 && !spa.finished(stream); ++i) {
    t += SimTime::from_ms(5);
    spa.step(net.now());
    net.run_until(t);
    sua.poll(net.now());
  }
  net.run_all();
  sua.poll(net.now());
  EXPECT_EQ(sua.stats().frames_complete, 30u);
  EXPECT_TRUE(sua.stats().end_of_stream);

  auto pos = spa.stop(stream);
  ASSERT_TRUE(pos.ok());
  EXPECT_EQ(pos.value(), 30u);
  EXPECT_EQ(spa.active_streams(), 0u);
  EXPECT_FALSE(spa.stop(stream).ok());  // unknown after stop
}

TEST(Sps, StartFrameSeeks) {
  net::SimNetwork net(5, fast_link());
  StreamProviderAgent spa(net, "server");
  StreamUserAgent sua(net, {"client", 7000});
  FrameSource::Config cfg;
  cfg.total_frames = 20;
  std::vector<std::uint32_t> frames;
  sua.set_sink([&](std::uint32_t f, const common::Bytes&, bool) {
    frames.push_back(f);
  });
  spa.open_stream(FrameSource(cfg), sua.address(), /*start_frame=*/15);
  SimTime t{};
  for (int i = 0; i < 200; ++i) {
    t += SimTime::from_ms(5);
    spa.step(net.now());
    net.run_until(t);
    sua.poll(net.now());
  }
  ASSERT_EQ(frames.size(), 5u);
  EXPECT_EQ(frames.front(), 15u);
  EXPECT_EQ(frames.back(), 19u);
}

TEST(Sps, ConcurrentStreamsAreIndependent) {
  net::SimNetwork net(5, fast_link());
  StreamProviderAgent spa(net, "server");
  StreamUserAgent sua1(net, {"client1", 7000});
  StreamUserAgent sua2(net, {"client2", 7000});
  FrameSource::Config cfg;
  cfg.total_frames = 10;
  const auto s1 = spa.open_stream(FrameSource(cfg), sua1.address());
  const auto s2 = spa.open_stream(FrameSource(cfg), sua2.address());
  EXPECT_NE(s1, s2);
  ASSERT_TRUE(spa.pause(s2).ok());

  SimTime t{};
  for (int i = 0; i < 200; ++i) {
    t += SimTime::from_ms(5);
    spa.step(net.now());
    net.run_until(t);
    sua1.poll(net.now());
    sua2.poll(net.now());
  }
  EXPECT_EQ(sua1.stats().frames_complete, 10u);
  EXPECT_EQ(sua2.stats().frames_complete, 0u);  // paused before any emission

  ASSERT_TRUE(spa.resume(s2).ok());
  for (int i = 0; i < 200; ++i) {
    t += SimTime::from_ms(5);
    spa.step(net.now());
    net.run_until(t);
    sua2.poll(net.now());
  }
  EXPECT_EQ(sua2.stats().frames_complete, 10u);
}

TEST(Sps, ErrorsOnUnknownStream) {
  net::SimNetwork net;
  StreamProviderAgent spa(net, "server");
  EXPECT_FALSE(spa.pause(99).ok());
  EXPECT_FALSE(spa.resume(99).ok());
  EXPECT_FALSE(spa.stop(99).ok());
  EXPECT_FALSE(spa.position(99).ok());
  EXPECT_FALSE(spa.stats(99).ok());
}

TEST(Sps, StopUnbindsAndIdsAndPortsRecycle) {
  net::SimNetwork net(5, fast_link());
  StreamProviderAgent spa(net, "server");
  StreamUserAgent sua(net, {"client", 7000});
  FrameSource::Config cfg;
  cfg.total_frames = 10;

  // A stream that stays live through the whole churn, on the first port.
  const std::uint16_t keep = spa.open_stream(FrameSource(cfg), sua.address());
  EXPECT_TRUE(net.bound({"server", 5000}));

  // More cycles than there are u16 stream ids or ports: without unbinding
  // on stop the port range runs out, and without skipping live ids the
  // counter wraps onto `keep`.
  constexpr int kCycles = 70000;
  for (int i = 0; i < kCycles; ++i) {
    std::uint16_t id = 0;
    ASSERT_NO_THROW(id = spa.open_stream(FrameSource(cfg), sua.address()))
        << "cycle " << i;
    ASSERT_NE(id, 0) << "cycle " << i;
    ASSERT_NE(id, keep) << "cycle " << i << ": aliases a live stream";
    ASSERT_EQ(spa.active_streams(), 2u);
    ASSERT_TRUE(spa.stop(id).ok()) << "cycle " << i;
  }
  EXPECT_EQ(spa.active_streams(), 1u);
  EXPECT_TRUE(net.bound({"server", 5000}));
  EXPECT_FALSE(net.bound({"server", 5001}));  // freed by stop

  // The survivor still plays, and only its frames reach the client.
  SimTime t = net.now();
  for (int i = 0; i < 200 && !spa.finished(keep); ++i) {
    t += SimTime::from_ms(5);
    spa.step(net.now());
    net.run_until(t);
    sua.poll(net.now());
  }
  EXPECT_EQ(sua.stats().frames_complete, 10u);
  ASSERT_TRUE(spa.stop(keep).ok());
  EXPECT_FALSE(net.bound({"server", 5000}));
}

TEST(Sps, DatagramsToAStoppedStreamAreDropped) {
  net::SimNetwork net(5, fast_link());
  StreamProviderAgent spa(net, "server");
  StreamUserAgent sua(net, {"client", 7000});
  FrameSource::Config cfg;
  cfg.total_frames = 10;
  const std::uint16_t id = spa.open_stream(FrameSource(cfg), sua.address());
  net::Socket& probe = net.open({"client", 7001});
  probe.send({"server", 5000}, common::Bytes(8, 0x1));
  ASSERT_TRUE(spa.stop(id).ok());
  const std::uint64_t dropped = net.stats().dropped;
  net.run_all();  // arrives after the close: no listener
  EXPECT_EQ(net.stats().dropped, dropped + 1);
}

}  // namespace
}  // namespace mcam::mtp
