// Seeded MCAM request generator with a model of the server's state.
//
// The generator provisions the server (movie directory, CM equipment) from
// its seed, then hands out requests that are valid against its model: a
// delete targets a live movie the user may delete, a create uses a fresh
// title, a play follows a select on the same association. No two requests
// in flight touch the same movie, search tag or device, so every response
// has exactly one correct value, and complete() checks it: the operation,
// the ResultCode, and the values (a query returns the last value written, a
// search's hit count and ids match the model). A response that fails a
// check is a failure of the system under test, never of the load.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "directory/directory.hpp"
#include "equipment/equipment.hpp"
#include "mcam/pdus.hpp"

namespace perfbench {

enum class Mix {
  Control,  // select, play/pause/resume/stop, one-attribute query, equipment
  Catalog,  // substring search, all-attribute query, create/modify/delete
};

enum class Kind {
  Select,
  Play,
  Pause,
  Resume,
  Stop,
  QueryOne,
  EquipList,
  EquipSet,
  EquipGet,
  Search,
  QueryAll,
  Create,
  Modify,
  Delete,
};

[[nodiscard]] const char* kind_name(Kind k) noexcept;

/// One request/response exchange as issued: the request and what the
/// generator locked for it.
struct Exchange {
  int conn = 0;
  Kind kind = Kind::Select;
  mcam::core::Pdu request;
  std::uint64_t movie = 0;   // movie read or written (0: none)
  int tag = -1;              // title tag searched, created or deleted
  std::uint32_t device = 0;  // device controlled (0: none)
};

class Generator {
 public:
  struct Config {
    Mix mix = Mix::Control;
    std::uint64_t seed = 1;
    int connections = 8;
    int movies = 1000;
  };

  /// Simulated users, each with one exchange in flight. Catalog: user u
  /// always uses connection u. Control: each request picks a random idle
  /// connection.
  static constexpr int kUsers = 8;
  /// CM equipment devices the server is provisioned with.
  static constexpr int kDevices = 8;

  /// Distinct title tags; with 10^4 movies a tag search hits ~33.
  static constexpr int kTags = 300;

  explicit Generator(Config cfg);

  /// Load the movies and devices the model describes into a fresh server
  /// (every device powered on). Deterministic in the seed.
  void provision(mcam::directory::Dsa& dsa,
                 mcam::equipment::EquipmentControlAgent& eca) const;

  /// Association user name of a connection.
  [[nodiscard]] static std::string user_of(int conn);
  /// The substring that marks tag `t` in a title.
  [[nodiscard]] static std::string tag_token(int t);

  /// The next request of simulated user `user`, valid against the model
  /// and disjoint from every exchange in flight.
  [[nodiscard]] Exchange next(int user);

  /// Check `response` to `ex`; on success apply the exchange's effect to the
  /// model. Always releases the exchange's locks. Returns "" when the
  /// response is correct, else what was wrong.
  std::string complete(const Exchange& ex, const mcam::core::Pdu& response);

 private:
  struct Movie {
    std::string title;
    int tag = 0;
    std::string owner;  // "public" or the creating user
    std::string path;
    std::uint64_t size = 0;
    int width = 0;
  };
  struct Device {
    std::uint32_t id = 0;
    mcam::equipment::Kind kind{};
    std::string name;
    std::string param;
    int value = 0;
  };
  struct Conn {
    enum Phase { kIdle, kSelected, kPlaying, kPaused };
    Phase phase = kIdle;
    std::uint64_t movie = 0;
    bool busy = false;
  };

  Exchange next_control(int conn);
  Exchange next_catalog(int conn);
  Exchange equipment_request(int conn);
  [[nodiscard]] bool may_write(const Movie& m, int conn) const;
  /// A live movie id no exchange in flight touches and that `conn` may
  /// write when `write` is set; 0 if sampling found none.
  std::uint64_t pick_movie(int conn, bool write);
  [[nodiscard]] std::string attr_value(const Movie& m,
                                       const std::string& attr) const;
  std::string check(const Exchange& ex, const mcam::core::Pdu& response);
  void add_movie(std::uint64_t id, Movie m);
  void remove_movie(std::uint64_t id);

  Config cfg_;
  mcam::common::Rng rng_;
  std::unordered_map<std::uint64_t, Movie> movies_;
  std::vector<std::uint64_t> live_;  // ids of movies_, for uniform picks
  std::unordered_map<std::uint64_t, std::size_t> live_pos_;
  std::vector<std::unordered_set<std::uint64_t>> by_tag_;
  std::unordered_map<std::string, std::uint64_t> by_title_;
  std::vector<Device> devices_;
  std::vector<Conn> conns_;
  // In-flight locks.
  std::unordered_set<std::uint64_t> busy_movies_;
  std::vector<int> tag_readers_;
  std::vector<int> tag_writers_;
  std::unordered_set<std::uint32_t> busy_devices_;
  std::uint64_t created_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace perfbench
