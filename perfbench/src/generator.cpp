#include "generator.hpp"

#include <cstdio>
#include <stdexcept>
#include <variant>

namespace perfbench {

namespace core = mcam::core;
namespace directory = mcam::directory;
namespace equipment = mcam::equipment;

namespace {

const char* const kQueryAttrs[] = {"title", "size", "width", "location-path",
                                   "rights"};
constexpr int kWidths[] = {320, 352, 640, 720};
constexpr int kSelectRetries = 16;

std::string fmt(const char* f, auto... args) {
  char buf[96];
  std::snprintf(buf, sizeof buf, f, args...);
  return buf;
}

template <typename T>
const T* as(const core::Pdu& pdu) {
  return std::get_if<T>(&pdu);
}

}  // namespace

const char* kind_name(Kind k) noexcept {
  switch (k) {
    case Kind::Select: return "select";
    case Kind::Play: return "play";
    case Kind::Pause: return "pause";
    case Kind::Resume: return "resume";
    case Kind::Stop: return "stop";
    case Kind::QueryOne: return "query-one";
    case Kind::EquipList: return "equip-list";
    case Kind::EquipSet: return "equip-set";
    case Kind::EquipGet: return "equip-get";
    case Kind::Search: return "search";
    case Kind::QueryAll: return "query-all";
    case Kind::Create: return "create";
    case Kind::Modify: return "modify";
    case Kind::Delete: return "delete";
  }
  return "?";
}

Generator::Generator(Config cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      by_tag_(kTags),
      conns_(static_cast<std::size_t>(cfg.connections)),
      tag_readers_(kTags, 0),
      tag_writers_(kTags, 0) {
  for (int i = 1; i <= cfg_.movies; ++i) {
    Movie m;
    m.tag = static_cast<int>(rng_.below(kTags));
    m.title = fmt("movie-%05d ", i) + tag_token(m.tag);
    m.owner = "public";
    m.path = fmt("/vault/%05d.mjpg", i);
    m.size = 1'000'000 + rng_.below(90'000'000);
    m.width = kWidths[rng_.below(4)];
    add_movie(static_cast<std::uint64_t>(i), std::move(m));
  }
  static const char* const kParams[] = {"zoom", "gain", "volume",
                                        "brightness"};
  for (int i = 1; i <= kDevices; ++i) {
    Device d;
    d.id = static_cast<std::uint32_t>(i);
    d.kind = static_cast<equipment::Kind>((i - 1) % 4);
    d.name = fmt("%s-%d", equipment::kind_name(d.kind), i);
    d.param = kParams[(i - 1) % 4];
    d.value = static_cast<int>(rng_.below(101));
    devices_.push_back(std::move(d));
  }
}

void Generator::provision(directory::Dsa& dsa,
                          equipment::EquipmentControlAgent& eca) const {
  for (std::uint64_t id = 1; id <= static_cast<std::uint64_t>(cfg_.movies);
       ++id) {
    const Movie& m = movies_.at(id);
    directory::MovieEntry e;
    e.title = m.title;
    e.location_host = dsa.domain();
    e.location_path = m.path;
    e.size_bytes = m.size;
    e.width = m.width;
    e.height = m.width * 3 / 4;
    e.duration_frames = 25 * 60 * 90;
    auto added = dsa.add(std::move(e));
    if (!added.ok() || added.value() != id)
      throw std::runtime_error("provision: directory was not empty");
  }
  for (const Device& d : devices_) {
    const std::uint32_t id = eca.register_device(d.kind, d.name,
                                                 {{d.param, d.value}});
    if (id != d.id)
      throw std::runtime_error("provision: equipment agent was not empty");
    if (!eca.execute(id, equipment::Command::PowerOn, "operator").ok())
      throw std::runtime_error("provision: power-on failed");
  }
}

std::string Generator::user_of(int conn) { return fmt("user%d", conn); }

std::string Generator::tag_token(int t) { return fmt("k%03dx", t); }

void Generator::add_movie(std::uint64_t id, Movie m) {
  by_tag_[static_cast<std::size_t>(m.tag)].insert(id);
  by_title_.emplace(m.title, id);
  live_pos_.emplace(id, live_.size());
  live_.push_back(id);
  movies_.emplace(id, std::move(m));
}

void Generator::remove_movie(std::uint64_t id) {
  const Movie& m = movies_.at(id);
  by_tag_[static_cast<std::size_t>(m.tag)].erase(id);
  by_title_.erase(m.title);
  const std::size_t pos = live_pos_.at(id);
  live_pos_[live_.back()] = pos;
  live_[pos] = live_.back();
  live_.pop_back();
  live_pos_.erase(id);
  movies_.erase(id);
}

bool Generator::may_write(const Movie& m, int conn) const {
  return m.owner == "public" || m.owner == user_of(conn);
}

std::uint64_t Generator::pick_movie(int conn, bool write) {
  for (int attempt = 0; attempt < kSelectRetries && !live_.empty();
       ++attempt) {
    const std::uint64_t id = live_[rng_.below(live_.size())];
    if (busy_movies_.contains(id)) continue;
    if (write && !may_write(movies_.at(id), conn)) continue;
    return id;
  }
  return 0;
}

std::string Generator::attr_value(const Movie& m,
                                  const std::string& attr) const {
  if (attr == "title") return m.title;
  if (attr == "size") return std::to_string(m.size);
  if (attr == "width") return std::to_string(m.width);
  if (attr == "location-path") return m.path;
  if (attr == "rights") return m.owner;
  return {};
}

Exchange Generator::next(int user) {
  int conn = user;
  if (cfg_.mix == Mix::Control) {
    do {
      conn = static_cast<int>(rng_.below(conns_.size()));
    } while (conns_[static_cast<std::size_t>(conn)].busy);
  }
  conns_[static_cast<std::size_t>(conn)].busy = true;
  Exchange ex = cfg_.mix == Mix::Control ? next_control(conn)
                                         : next_catalog(conn);
  if (ex.movie != 0) busy_movies_.insert(ex.movie);
  if (ex.device != 0) busy_devices_.insert(ex.device);
  if (ex.tag >= 0) {
    auto& locks = ex.kind == Kind::Search ? tag_readers_ : tag_writers_;
    ++locks[static_cast<std::size_t>(ex.tag)];
  }
  return ex;
}

Exchange Generator::equipment_request(int conn) {
  Exchange ex;
  ex.conn = conn;
  const auto& d = devices_[rng_.below(devices_.size())];
  if (busy_devices_.contains(d.id) || rng_.chance(0.25)) {
    ex.kind = Kind::EquipList;
    ex.request = core::EquipListReq{-1};
    return ex;
  }
  ex.device = d.id;
  if (rng_.chance(0.5)) {
    ex.kind = Kind::EquipSet;
    ex.request = core::EquipControlReq{
        d.id, static_cast<int>(equipment::Command::SetParam), d.param,
        static_cast<int>(rng_.below(101))};
  } else {
    ex.kind = Kind::EquipGet;
    ex.request = core::EquipControlReq{
        d.id, static_cast<int>(equipment::Command::GetStatus), d.param, 0};
  }
  return ex;
}

Exchange Generator::next_control(int conn) {
  const Conn& c = conns_[static_cast<std::size_t>(conn)];
  Exchange ex;
  ex.conn = conn;
  const auto r = rng_.below(8);
  const auto query_one = [&] {
    ex.kind = Kind::QueryOne;
    const std::uint64_t id = live_[rng_.below(live_.size())];
    ex.request = core::AttrQueryReq{id, {kQueryAttrs[rng_.below(5)]}};
  };
  const auto select = [&] {
    ex.kind = Kind::Select;
    ex.request = core::MovieSelectReq{
        movies_.at(live_[rng_.below(live_.size())]).title};
  };
  switch (c.phase) {
    case Conn::kIdle:
      if (r < 3) select();
      else if (r < 6) query_one();
      else return equipment_request(conn);
      break;
    case Conn::kSelected:
      if (r < 4) {
        ex.kind = Kind::Play;
        ex.request = core::PlayReq{
            c.movie, 0, fmt("client%d", conn / 64 + 1),
            static_cast<std::uint16_t>(6000 + conn), 0, 0};
      } else if (r < 5) {
        select();
      } else if (r < 7) {
        query_one();
      } else {
        return equipment_request(conn);
      }
      break;
    case Conn::kPlaying:
      if (r < 3) {
        ex.kind = Kind::Pause;
        ex.request = core::PauseReq{c.movie};
      } else if (r < 5) {
        ex.kind = Kind::Stop;
        ex.request = core::StopReq{c.movie};
      } else if (r < 7) {
        query_one();
      } else {
        return equipment_request(conn);
      }
      break;
    case Conn::kPaused:
      if (r < 4) {
        ex.kind = Kind::Resume;
        ex.request = core::ResumeReq{c.movie};
      } else if (r < 6) {
        ex.kind = Kind::Stop;
        ex.request = core::StopReq{c.movie};
      } else {
        query_one();
      }
      break;
  }
  return ex;
}

Exchange Generator::next_catalog(int conn) {
  Exchange ex;
  ex.conn = conn;
  const auto r = rng_.below(9);
  if (r >= 6) {
    // Writes: create, modify, delete in equal shares.
    ++writes_;
    if (r == 6) {
      const int tag = static_cast<int>(rng_.below(kTags));
      if (tag_readers_[static_cast<std::size_t>(tag)] == 0) {
        ex.kind = Kind::Create;
        ex.tag = tag;
        const std::string title =
            fmt("new-%llx-%llu ", static_cast<unsigned long long>(cfg_.seed),
                static_cast<unsigned long long>(++created_)) +
            tag_token(tag);
        ex.request = core::MovieCreateReq{
            title,
            {{"size", std::to_string(1'000 + rng_.below(1'000'000))},
             {"width", std::to_string(kWidths[rng_.below(4)])},
             {"location-path", fmt("/incoming/%llu.mjpg",
                                   static_cast<unsigned long long>(
                                       created_))}}};
        return ex;
      }
    } else if (const std::uint64_t id = pick_movie(conn, true); id != 0) {
      ex.movie = id;
      if (r == 7) {
        ex.kind = Kind::Modify;
        std::vector<core::Attr> attrs;
        if (rng_.chance(0.5))
          attrs.push_back({"location-path",
                           fmt("/moved/%llu.mjpg",
                               static_cast<unsigned long long>(writes_))});
        else
          attrs.push_back({"size", std::to_string(rng_.below(1u << 30))});
        ex.request = core::AttrModifyReq{id, std::move(attrs)};
        return ex;
      }
      const int tag = movies_.at(id).tag;
      if (tag_readers_[static_cast<std::size_t>(tag)] == 0) {
        ex.kind = Kind::Delete;
        ex.tag = tag;
        ex.request = core::MovieDeleteReq{id};
        return ex;
      }
      ex.movie = 0;
    }
    // The chosen write collided with an exchange in flight: fall through
    // to a read.
  }
  if (r % 2 == 0) {
    for (int attempt = 0; attempt < kSelectRetries; ++attempt) {
      const int tag = static_cast<int>(rng_.below(kTags));
      if (tag_writers_[static_cast<std::size_t>(tag)] != 0) continue;
      ex.kind = Kind::Search;
      ex.tag = tag;
      ex.request = core::MovieSearchReq{
          directory::Filter::substring("title", tag_token(tag)), true};
      return ex;
    }
  }
  ex.kind = Kind::QueryAll;
  ex.movie = pick_movie(conn, false);
  if (ex.movie == 0)
    throw std::logic_error("generator: no idle movie to query");
  ex.request = core::AttrQueryReq{ex.movie, {}};
  return ex;
}

std::string Generator::complete(const Exchange& ex,
                                const core::Pdu& response) {
  std::string verdict = check(ex, response);
  conns_[static_cast<std::size_t>(ex.conn)].busy = false;
  if (ex.movie != 0) busy_movies_.erase(ex.movie);
  if (ex.device != 0) busy_devices_.erase(ex.device);
  if (ex.tag >= 0) {
    auto& locks = ex.kind == Kind::Search ? tag_readers_ : tag_writers_;
    --locks[static_cast<std::size_t>(ex.tag)];
  }
  return verdict;
}

std::string Generator::check(const Exchange& ex, const core::Pdu& response) {
  using core::ResultCode;
  if (const auto* err = as<core::ErrorResp>(response))
    return std::string("ErrorResp ") + core::result_name(err->result) + ": " +
           err->diagnostic;
  const auto result_of = [](const auto& resp) { return resp.result; };
  const auto expect = [&](const auto* resp) -> std::string {
    if (resp == nullptr)
      return std::string("wrong response op ") +
             core::op_name(core::op_of(response));
    if (result_of(*resp) != ResultCode::Success)
      return std::string("result ") + core::result_name(result_of(*resp));
    return {};
  };
  Conn& c = conns_[static_cast<std::size_t>(ex.conn)];

  switch (ex.kind) {
    case Kind::Select: {
      const auto* resp = as<core::MovieSelectResp>(response);
      if (auto e = expect(resp); !e.empty()) return e;
      const std::string& title = std::get<core::MovieSelectReq>(ex.request).title;
      const std::uint64_t id = by_title_.at(title);
      if (resp->movie_id != id) return "select: wrong movie id";
      if (resp->attrs.size() != 10 || resp->attrs[0].value != title)
        return "select: wrong attributes";
      c.phase = Conn::kSelected;
      c.movie = id;
      return {};
    }
    case Kind::Play: {
      if (auto e = expect(as<core::PlayResp>(response)); !e.empty()) return e;
      c.phase = Conn::kPlaying;
      return {};
    }
    case Kind::Pause: {
      if (auto e = expect(as<core::PauseResp>(response)); !e.empty()) return e;
      c.phase = Conn::kPaused;
      return {};
    }
    case Kind::Resume: {
      if (auto e = expect(as<core::ResumeResp>(response)); !e.empty())
        return e;
      c.phase = Conn::kPlaying;
      return {};
    }
    case Kind::Stop: {
      if (auto e = expect(as<core::StopResp>(response)); !e.empty()) return e;
      c.phase = Conn::kSelected;
      return {};
    }
    case Kind::QueryOne: {
      const auto* resp = as<core::AttrQueryResp>(response);
      if (auto e = expect(resp); !e.empty()) return e;
      const auto& req = std::get<core::AttrQueryReq>(ex.request);
      const std::string want =
          attr_value(movies_.at(req.movie_id), req.names.front());
      if (resp->attrs.size() != 1 || resp->attrs[0].name != req.names[0] ||
          resp->attrs[0].value != want)
        return "query: " + req.names[0] + " differs from the last write";
      return {};
    }
    case Kind::EquipList: {
      const auto* resp = as<core::EquipListResp>(response);
      if (auto e = expect(resp); !e.empty()) return e;
      if (resp->items.size() != devices_.size()) return "equip-list: count";
      for (std::size_t i = 0; i < devices_.size(); ++i) {
        const auto& item = resp->items[i];
        if (item.id != devices_[i].id || item.name != devices_[i].name ||
            !item.powered || !item.reserved_by.empty())
          return "equip-list: device " + std::to_string(devices_[i].id);
      }
      return {};
    }
    case Kind::EquipSet:
    case Kind::EquipGet: {
      const auto* resp = as<core::EquipControlResp>(response);
      if (auto e = expect(resp); !e.empty()) return e;
      Device& d = devices_[ex.device - 1];
      const int want = ex.kind == Kind::EquipSet
                           ? std::get<core::EquipControlReq>(ex.request).value
                           : d.value;
      if (!resp->powered || resp->value != want)
        return "equip: parameter differs from the last write";
      d.value = want;
      return {};
    }
    case Kind::Search: {
      const auto* resp = as<core::MovieSearchResp>(response);
      if (auto e = expect(resp); !e.empty()) return e;
      const std::string user = user_of(ex.conn);
      std::size_t visible = 0;
      for (const std::uint64_t id : by_tag_[static_cast<std::size_t>(ex.tag)]) {
        const Movie& m = movies_.at(id);
        if (m.owner == "public" || m.owner == user) ++visible;
      }
      if (resp->hits.size() != visible)
        return "search: " + std::to_string(resp->hits.size()) +
               " hits, model has " + std::to_string(visible);
      for (const auto& hit : resp->hits) {
        auto it = movies_.find(hit.movie_id);
        if (it == movies_.end() || it->second.tag != ex.tag ||
            hit.attrs.empty() || hit.attrs[0].value != it->second.title)
          return "search: unexpected hit " + std::to_string(hit.movie_id);
      }
      return {};
    }
    case Kind::QueryAll: {
      const auto* resp = as<core::AttrQueryResp>(response);
      if (auto e = expect(resp); !e.empty()) return e;
      const Movie& m = movies_.at(ex.movie);
      if (resp->attrs.size() != 10) return "query-all: attribute count";
      for (const auto& a : resp->attrs) {
        const std::string want = attr_value(m, a.name);
        if (!want.empty() && a.value != want)
          return "query-all: " + a.name + " differs from the last write";
      }
      return {};
    }
    case Kind::Create: {
      const auto* resp = as<core::MovieCreateResp>(response);
      if (auto e = expect(resp); !e.empty()) return e;
      if (resp->movie_id == 0 || movies_.contains(resp->movie_id))
        return "create: id already live";
      const auto& req = std::get<core::MovieCreateReq>(ex.request);
      Movie m;
      m.title = req.title;
      m.tag = ex.tag;
      m.owner = user_of(ex.conn);
      m.size = std::stoull(req.attrs[0].value);
      m.width = std::stoi(req.attrs[1].value);
      m.path = req.attrs[2].value;
      add_movie(resp->movie_id, std::move(m));
      return {};
    }
    case Kind::Modify: {
      if (auto e = expect(as<core::AttrModifyResp>(response)); !e.empty())
        return e;
      Movie& m = movies_.at(ex.movie);
      for (const auto& a : std::get<core::AttrModifyReq>(ex.request).attrs) {
        if (a.name == "size") m.size = std::stoull(a.value);
        else m.path = a.value;
      }
      return {};
    }
    case Kind::Delete: {
      if (auto e = expect(as<core::MovieDeleteResp>(response)); !e.empty())
        return e;
      remove_movie(ex.movie);
      return {};
    }
  }
  return "unknown exchange kind";
}

}  // namespace perfbench
