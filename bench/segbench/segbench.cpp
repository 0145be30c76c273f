// segbench: wall-clock benchmark of a full SeGShare deployment.
//
// Builds client → server → enclave → store from the public APIs, runs one
// of four seeded closed-loop workloads with no WAN model, checks every
// answer against a model of the namespace, and reports:
//
//   * end-to-end metrics (default, untraced run, client tracing off);
//   * per-layer metrics (--trace 1): the same op stream with traced and
//     untraced blocks interleaved, each layer timed from outside by the
//     calls into its public functions (pump callback, store decorator,
//     telemetry_snapshot() deltas, channel and SGX meters).
//
// The last line of stdout is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and a segshare-bench-v1 report goes to $SEGSHARE_BENCH_JSON_DIR (or the
// working directory). README.md explains the workloads and metrics.
#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_json.h"
#include "deployment.h"
#include "fs/path.h"
#include "fs/records.h"

namespace seg::segbench {
namespace {

// ---------------------------------------------------------------- options --

/// A workload that runs longer than this (set-up, phases, audits and
/// restarts together) fails.
constexpr double kCapSeconds = 120;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Restarts per run; restart_s is their median.
constexpr int kRestarts = 5;
/// Fresh sessions opened after the timed phase; connect_p50_ms is their
/// median.
constexpr int kConnectProbes = 48;
/// Traced and untraced blocks alternate with this period in a traced run.
constexpr std::uint64_t kBlockNs = 500'000'000;
constexpr std::uint64_t kBlockSteps = 8;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  std::uint64_t steps = 0;  // > 0: fixed step count per lane instead of time
  bool traced = false;
  bool smoke = false;
};

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t now_ns() { return telemetry::steady_now_ns(); }

class Watchdog {
 public:
  Watchdog() : start_ns_(now_ns()) {}
  void check() const {
    if (static_cast<double>(now_ns() - start_ns_) / 1e9 > kCapSeconds)
      throw std::runtime_error("hard cap of 120 s exceeded");
  }

 private:
  std::uint64_t start_ns_;
};

// --------------------------------------------------------------- op kinds --

enum class Kind : std::size_t {
  kPut,
  kGet,
  kGetDenied,
  kDelete,
  kList,
  kStat,
  kAddMember,
  kSetPerm,
  kRemoveMember,
  kConnect,
};
constexpr std::size_t kKinds = 10;
constexpr std::array<const char*, kKinds> kKindNames = {
    "put",      "get",        "get_denied", "delete",        "list",
    "stat",     "add_member", "set_perm",   "remove_member", "connect"};

std::string name_of(Kind k) { return kKindNames[static_cast<std::size_t>(k)]; }

/// read_p50_ms and write_p50_ms pool these verbs; a denied GET and a
/// session open are neither.
bool is_read(Kind k) {
  return k == Kind::kGet || k == Kind::kList || k == Kind::kStat;
}
bool is_write(Kind k) {
  return k == Kind::kPut || k == Kind::kDelete || k == Kind::kAddMember ||
         k == Kind::kSetPerm || k == Kind::kRemoveMember;
}

using bench::percentile;

double median(const std::vector<double>& v) { return percentile(v, 50); }

// --------------------------------------------------------------- recorder --

/// What one lane (client thread) measured.
struct Tally {
  std::array<std::vector<double>, kKinds> ms{};  // measured op latencies
  std::uint64_t attempted = 0;  // every op, warm-up included
  std::uint64_t failed = 0;
  std::uint64_t measured_ops = 0;
  std::uint64_t user_put_bytes = 0;  // request bodies of measured ops
  std::uint64_t user_get_bytes = 0;  // response bodies of measured ops
  // Traced runs: ops and step wall time in each block kind, and the
  // traced ops' own wall and pump time.
  std::uint64_t traced_ops = 0;
  std::uint64_t untraced_ops = 0;
  std::uint64_t traced_step_ns = 0;
  std::uint64_t untraced_step_ns = 0;
  std::uint64_t traced_wall_ns = 0;
  std::uint64_t traced_pump_ns = 0;
  std::uint32_t sequence_hash = 2166136261u;  // FNV-1a over the op stream
  std::vector<std::string> errors;

  void merge(const Tally& o) {
    for (std::size_t k = 0; k < kKinds; ++k)
      ms[k].insert(ms[k].end(), o.ms[k].begin(), o.ms[k].end());
    attempted += o.attempted;
    failed += o.failed;
    measured_ops += o.measured_ops;
    user_put_bytes += o.user_put_bytes;
    user_get_bytes += o.user_get_bytes;
    traced_ops += o.traced_ops;
    untraced_ops += o.untraced_ops;
    traced_step_ns += o.traced_step_ns;
    untraced_step_ns += o.untraced_step_ns;
    traced_wall_ns += o.traced_wall_ns;
    traced_pump_ns += o.traced_pump_ns;
    sequence_hash = (sequence_hash ^ o.sequence_hash) * 16777619u;
    for (const auto& e : o.errors)
      if (errors.size() < 8) errors.push_back(e);
  }
};

class Recorder {
 public:
  bool measuring = false;
  Tally tally;

  /// Runs one client request and records its latency.
  template <typename F>
  auto timed(Kind kind, const std::string& path, F&& fn) {
    note_sequence(kind, path);
    t_lane.pump_ns = 0;
    const std::uint64_t start = now_ns();
    auto result = fn();
    const std::uint64_t elapsed = now_ns() - start;
    ++tally.attempted;
    if (measuring) {
      tally.ms[static_cast<std::size_t>(kind)].push_back(
          static_cast<double>(elapsed) / 1e6);
      ++tally.measured_ops;
      if (t_lane.traced) {
        ++tally.traced_ops;
        tally.traced_wall_ns += elapsed;
        tally.traced_pump_ns += t_lane.pump_ns;
      } else {
        ++tally.untraced_ops;
      }
    }
    return result;
  }

  /// Counts a wrong answer; returns `ok`.
  bool check(bool ok, const std::string& what) {
    if (!ok) fail(what);
    return ok;
  }
  void fail(const std::string& what) {
    ++tally.failed;
    if (tally.errors.size() < 8) tally.errors.push_back(what);
  }
  void moved(std::uint64_t put_bytes, std::uint64_t get_bytes) {
    if (!measuring) return;
    tally.user_put_bytes += put_bytes;
    tally.user_get_bytes += get_bytes;
  }

 private:
  void note_sequence(Kind kind, const std::string& path) {
    std::uint32_t h = tally.sequence_hash;
    h = (h ^ static_cast<std::uint32_t>(kind)) * 16777619u;
    for (const char c : path) h = (h ^ static_cast<std::uint8_t>(c)) * 16777619u;
    tally.sequence_hash = h;
  }
};

// ------------------------------------------------------------------ model --

using Content = std::shared_ptr<const Bytes>;

/// What the namespace must hold: every file with its content, every
/// directory the workload created.
struct Model {
  std::map<std::string, Content> files;
  std::set<std::string> dirs;
};

Content random_content(TestRng& rng, std::size_t size) {
  Bytes bytes(size);
  rng.fill(bytes);
  return std::make_shared<const Bytes>(std::move(bytes));
}

/// Log-uniform size in [lo, hi].
std::size_t log_uniform(TestRng& rng, std::size_t lo, std::size_t hi) {
  const double u = static_cast<double>(rng.next() >> 11) / 9007199254740992.0;
  return static_cast<std::size_t>(
      std::round(static_cast<double>(lo) *
                 std::pow(static_cast<double>(hi) / static_cast<double>(lo), u)));
}

void must(const proto::Response& response, const std::string& what) {
  if (!response.ok())
    throw std::runtime_error(what + ": " + proto::status_name(response.status) +
                             " " + response.message);
}

std::string numbered(const char* prefix, std::size_t i, int width) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s%0*zu", prefix, width, i);
  return buf;
}

/// Timed PUT; on success the model takes the new content.
void put_checked(Recorder& rec, Session& session, const std::string& path,
                 const Content& content, Model& model) {
  const proto::Response r = rec.timed(Kind::kPut, path, [&] {
    return session.client().put_file(path, *content);
  });
  if (rec.check(r.ok(), "PUT " + path + ": " + r.message)) {
    model.files[path] = content;
    rec.moved(content->size(), 0);
  }
}

/// Timed GET that must return exactly the model's content.
void get_checked(Recorder& rec, Session& session, const std::string& path,
                 const Model& model) {
  const auto [r, body] = rec.timed(Kind::kGet, path, [&] {
    return session.client().get_file(path);
  });
  const Content& want = model.files.at(path);
  rec.check(r.ok() && body == *want, "GET " + path + " wrong answer");
  rec.moved(0, body.size());
}

// -------------------------------------------------------------- workloads --

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::size_t lanes() const { return 1; }
  /// Builds the namespace and opens every session the steps use.
  virtual void setup(Deployment& d) = 0;
  /// One unit of closed-loop work on `lane`: one request, or one round.
  virtual void step(std::size_t lane, Recorder& rec) = 0;
  /// Closes every session (before a restart or teardown).
  virtual void close_sessions() = 0;
  virtual Model model() const = 0;
  /// Users for the connect probe.
  virtual std::vector<std::string> users() const = 0;
};

/// Large files, one client: PUT of fresh 4 MiB content alternating with
/// GET, over 8 rotating paths. Data-path layers do nearly all the work.
class Bulk final : public Workload {
 public:
  Bulk(std::uint64_t seed, bool smoke)
      : rng_(mix(seed, 2)),
        seed_(seed),
        bytes_(smoke ? 64u << 10 : 4u << 20) {}

  void setup(Deployment& d) override {
    admin_ = d.connect("admin", mix(seed_, 100));
    must(admin_->client().mkdir("/bulk/"), "mkdir /bulk/");
    model_.dirs.insert("/bulk/");
    for (std::size_t i = 0; i < kFiles; ++i) {
      paths_.push_back(numbered("/bulk/f", i, 1) + ".bin");
      const Content content = random_content(rng_, bytes_);
      must(admin_->client().put_file(paths_.back(), *content), "seed PUT");
      model_.files[paths_.back()] = content;
    }
  }

  void step(std::size_t, Recorder& rec) override {
    if (step_++ % 2 == 0) {
      put_checked(rec, *admin_, paths_[next_put_++ % kFiles],
                  random_content(rng_, bytes_), model_);
    } else {
      get_checked(rec, *admin_, paths_[rng_.uniform(kFiles)], model_);
    }
  }

  void close_sessions() override { admin_.reset(); }
  Model model() const override { return model_; }
  std::vector<std::string> users() const override { return {"admin"}; }

 private:
  static constexpr std::size_t kFiles = 8;
  TestRng rng_;
  std::uint64_t seed_;
  std::size_t bytes_;
  std::unique_ptr<Session> admin_;
  std::vector<std::string> paths_;
  Model model_;
  std::uint64_t step_ = 0;
  std::uint64_t next_put_ = 0;
};

/// The paper's management path: per round an admin adds a member to a
/// group, grants the group read on a file, the member reads it, the grant
/// is revoked, the member's read is denied, and the membership removed.
/// Every 10th round the member opens a fresh session.
class Share final : public Workload {
 public:
  Share(std::uint64_t seed, bool smoke)
      : rng_(mix(seed, 2)),
        seed_(seed),
        dirs_(smoke ? 4 : 16),
        files_per_dir_(smoke ? 8 : 64),
        users_(smoke ? 64 : 512),
        groups_(smoke ? 8 : 32) {}

  void setup(Deployment& d) override {
    d_ = &d;
    admin_ = d.connect("admin", mix(seed_, 100));
    client::UserClient& admin = admin_->client();
    for (std::size_t i = 0; i < dirs_; ++i) {
      const std::string dir = numbered("/s", i, 2) + "/";
      must(admin.mkdir(dir), "mkdir " + dir);
      model_.dirs.insert(dir);
      for (std::size_t j = 0; j < files_per_dir_; ++j) {
        const std::string path = dir + numbered("f", j, 3);
        const Content content = random_content(rng_, kFileBytes);
        must(admin.put_file(path, *content), "seed PUT " + path);
        model_.files[path] = content;
        paths_.push_back(path);
      }
    }
    for (std::size_t u = 0; u < users_; ++u)
      must(admin.add_user_to_group(user(u), group(u % groups_)),
           "seed member " + user(u));
    for (std::size_t m = 0; m < kMembers; ++m)
      members_.push_back(d.connect(user(m), mix(seed_, 200 + m)));
  }

  void step(std::size_t, Recorder& rec) override {
    const std::size_t m = round_ % kMembers;
    if (round_ % 10 == 9) {
      members_[m].reset();
      members_[m] = rec.timed(Kind::kConnect, user(m), [&] {
        return d_->connect(user(m), mix(seed_, 1000 + round_));
      });
    }
    ++round_;
    // Any group but the member's own, so the grant is the only way in.
    std::size_t g = rng_.uniform(groups_ - 1);
    if (g >= m % groups_) ++g;
    const std::string& path = paths_[rng_.uniform(paths_.size())];
    client::UserClient& admin = admin_->client();
    Session& member = *members_[m];
    const auto ok = [&](Kind kind, auto&& fn) {
      const proto::Response r = rec.timed(kind, path, fn);
      return rec.check(r.ok(), name_of(kind) + " " + path + ": " + r.message);
    };
    if (!ok(Kind::kAddMember,
            [&] { return admin.add_user_to_group(user(m), group(g)); }))
      return;
    ok(Kind::kSetPerm,
       [&] { return admin.set_permission(path, group(g), fs::kPermRead); });
    get_checked(rec, member, path, model_);
    ok(Kind::kSetPerm,
       [&] { return admin.set_permission(path, group(g), fs::kPermNone); });
    const proto::Response denied =
        rec.timed(Kind::kGetDenied, path,
                  [&] { return member.client().get_file(path).first; });
    rec.check(denied.status == proto::Status::kForbidden,
              "GET after revoke not denied: " + path);
    ok(Kind::kRemoveMember,
       [&] { return admin.remove_user_from_group(user(m), group(g)); });
  }

  void close_sessions() override {
    members_.clear();
    admin_.reset();
  }
  Model model() const override { return model_; }
  std::vector<std::string> users() const override {
    std::vector<std::string> out;
    for (std::size_t m = 0; m < kMembers; ++m) out.push_back(user(m));
    return out;
  }

 private:
  static constexpr std::size_t kMembers = 8;
  static constexpr std::size_t kFileBytes = 4 << 10;
  static std::string user(std::size_t u) { return numbered("u", u, 4); }
  static std::string group(std::size_t g) { return numbered("team", g, 2); }

  TestRng rng_;
  std::uint64_t seed_;
  std::size_t dirs_, files_per_dir_, users_, groups_;
  Deployment* d_ = nullptr;
  std::unique_ptr<Session> admin_;
  std::vector<std::unique_ptr<Session>> members_;
  std::vector<std::string> paths_;
  Model model_;
  std::uint64_t round_ = 0;
};

/// Contention: 4 client threads on persistent connections, 70 % GET of a
/// shared hot set, 20 % PUT to each client's own files, 10 % LIST/STAT,
/// sizes log-uniform in 4–64 KiB.
class Office final : public Workload {
 public:
  Office(std::uint64_t seed, bool smoke)
      : rng_(mix(seed, 2)), seed_(seed), hot_files_(smoke ? 32 : 256) {}

  std::size_t lanes() const override { return kClients; }

  void setup(Deployment& d) override {
    admin_ = d.connect("admin", mix(seed_, 100));
    client::UserClient& admin = admin_->client();
    must(admin.mkdir("/hot/"), "mkdir /hot/");
    hot_.dirs.insert("/hot/");
    for (std::size_t c = 0; c < kClients; ++c)
      must(admin.add_user_to_group(client_user(c), "office"), "member");
    must(admin.set_permission("/hot/", "office", fs::kPermRead), "grant");
    for (std::size_t i = 0; i < hot_files_; ++i) {
      const std::string path = numbered("/hot/h", i, 3);
      const Content content = random_content(rng_, size(rng_));
      must(admin.put_file(path, *content), "seed PUT " + path);
      must(admin.set_permission(path, "office", fs::kPermRead), "grant");
      hot_.files[path] = content;
      hot_paths_.push_back(path);
    }
    lanes_.resize(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      Lane& lane = lanes_[c];
      lane.rng = TestRng(mix(seed_, 10 + c));
      lane.dir = numbered("/own", c, 1) + "/";
      must(admin.mkdir(lane.dir), "mkdir " + lane.dir);
      must(admin.set_permission(lane.dir, "user:" + client_user(c),
                                fs::kPermReadWrite),
           "grant own dir");
      lane.model.dirs.insert(lane.dir);
      for (std::size_t j = 0; j < kOwnFiles; ++j) {
        const std::string path = lane.dir + numbered("f", j, 2);
        const Content content = random_content(rng_, size(rng_));
        must(admin.put_file(path, *content), "seed PUT " + path);
        lane.model.files[path] = content;
        lane.paths.push_back(path);
      }
      lane.session = d.connect(client_user(c), mix(seed_, 200 + c));
    }
  }

  void step(std::size_t c, Recorder& rec) override {
    Lane& lane = lanes_[c];
    Session& session = *lane.session;
    const std::uint64_t roll = lane.rng.uniform(100);
    if (roll < 70) {
      get_checked(rec, session, hot_paths_[lane.rng.uniform(hot_paths_.size())],
                  hot_);
    } else if (roll < 90) {
      const std::string& path = lane.paths[lane.rng.uniform(kOwnFiles)];
      put_checked(rec, session, path,
                  random_content(lane.rng, size(lane.rng)), lane.model);
    } else if (roll < 95) {
      const proto::Response r = rec.timed(Kind::kList, lane.dir, [&] {
        return session.client().list(lane.dir);
      });
      rec.check(r.ok() && r.listing == lane.paths, "LIST " + lane.dir);
    } else {
      const std::string& path =
          hot_paths_[lane.rng.uniform(hot_paths_.size())];
      const proto::Response r = rec.timed(Kind::kStat, path, [&] {
        return session.client().stat(path);
      });
      rec.check(r.ok() && r.body_size == hot_.files.at(path)->size(),
                "STAT " + path);
    }
  }

  void close_sessions() override {
    for (Lane& lane : lanes_) lane.session.reset();
    admin_.reset();
  }

  Model model() const override {
    Model out = hot_;
    for (const Lane& lane : lanes_) {
      out.dirs.insert(lane.model.dirs.begin(), lane.model.dirs.end());
      out.files.insert(lane.model.files.begin(), lane.model.files.end());
    }
    return out;
  }
  std::vector<std::string> users() const override {
    std::vector<std::string> out;
    for (std::size_t c = 0; c < kClients; ++c) out.push_back(client_user(c));
    return out;
  }

 private:
  static constexpr std::size_t kClients = 4;
  static constexpr std::size_t kOwnFiles = 16;
  static std::string client_user(std::size_t c) { return numbered("c", c, 1); }
  static std::size_t size(TestRng& rng) {
    return log_uniform(rng, 4 << 10, 64 << 10);
  }

  // Each lane touches only its own state; the hot set is read-only once
  // set up, so the lanes share nothing mutable.
  struct Lane {
    TestRng rng;
    std::string dir;
    std::vector<std::string> paths;  // sorted: the expected listing
    Model model;
    std::unique_ptr<Session> session;
  };

  TestRng rng_;
  std::uint64_t seed_;
  std::size_t hot_files_;
  std::unique_ptr<Session> admin_;
  Model hot_;
  std::vector<std::string> hot_paths_;
  std::vector<Lane> lanes_;
};

/// Writes beside reads over 1,024 paths: 50 % PUT of 64 KiB (half from a
/// 64-blob pool, so dedup hits; half fresh), 20 % DELETE, 30 % GET.
class Churn final : public Workload {
 public:
  Churn(std::uint64_t seed, bool smoke)
      : rng_(mix(seed, 2)),
        seed_(seed),
        dirs_(smoke ? 4 : 16),
        bytes_(smoke ? 16u << 10 : 64u << 10) {}

  void setup(Deployment& d) override {
    admin_ = d.connect("admin", mix(seed_, 100));
    for (std::size_t i = 0; i < kPool; ++i)
      pool_.push_back(random_content(rng_, bytes_));
    for (std::size_t i = 0; i < dirs_; ++i) {
      const std::string dir = numbered("/c", i, 2) + "/";
      must(admin_->client().mkdir(dir), "mkdir " + dir);
      model_.dirs.insert(dir);
      for (std::size_t j = 0; j < kFilesPerDir; ++j)
        paths_.push_back(dir + numbered("f", j, 2));
    }
    // Start at the mix's equilibrium: PUT creates with probability
    // 1 - live/N and DELETE removes at 0.2 per op, so live/N -> 0.6.
    for (const std::string& path : paths_) {
      if (rng_.uniform(10) >= 6) continue;
      const Content content = next_content();
      must(admin_->client().put_file(path, *content), "seed PUT " + path);
      model_.files[path] = content;
      live_.push_back(path);
    }
  }

  void step(std::size_t, Recorder& rec) override {
    const std::uint64_t roll = rng_.uniform(100);
    if (roll < 50 || live_.empty()) {
      const std::string& path = paths_[rng_.uniform(paths_.size())];
      const bool existed = model_.files.contains(path);
      put_checked(rec, *admin_, path, next_content(), model_);
      if (!existed && model_.files.contains(path)) live_.push_back(path);
      return;
    }
    const std::size_t pick = rng_.uniform(live_.size());
    const std::string path = live_[pick];
    if (roll < 70) {
      const proto::Response r = rec.timed(Kind::kDelete, path, [&] {
        return admin_->client().remove(path);
      });
      if (rec.check(r.ok(), "DELETE " + path + ": " + r.message)) {
        model_.files.erase(path);
        live_[pick] = live_.back();
        live_.pop_back();
      }
    } else {
      get_checked(rec, *admin_, path, model_);
    }
  }

  void close_sessions() override { admin_.reset(); }
  Model model() const override { return model_; }
  std::vector<std::string> users() const override { return {"admin"}; }

 private:
  static constexpr std::size_t kPool = 64;
  static constexpr std::size_t kFilesPerDir = 64;

  Content next_content() {
    if (rng_.uniform(2) == 0) return pool_[rng_.uniform(kPool)];
    return random_content(rng_, bytes_);
  }

  TestRng rng_;
  std::uint64_t seed_;
  std::size_t dirs_;
  std::size_t bytes_;
  std::unique_ptr<Session> admin_;
  std::vector<Content> pool_;
  std::vector<std::string> paths_;
  std::vector<std::string> live_;
  Model model_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke) {
  if (name == "bulk") return std::make_unique<Bulk>(seed, smoke);
  if (name == "share") return std::make_unique<Share>(seed, smoke);
  if (name == "office") return std::make_unique<Office>(seed, smoke);
  if (name == "churn") return std::make_unique<Churn>(seed, smoke);
  return nullptr;
}

// ------------------------------------------------------------------ audit --

/// Checks the deployment against the model through a fresh admin session:
/// every listing, every size, the content of a seeded sample and, with
/// `check_dedup`, the dedup reference count against the live links (the
/// enclave keeps those counts in memory, so a restarted enclave starts
/// them from zero). Returns the mismatches.
std::vector<std::string> audit(Deployment& d, const Model& model,
                               std::uint64_t seed, bool check_dedup) {
  std::vector<std::string> errors;
  const auto note = [&errors](const std::string& e) {
    if (errors.size() < 8) errors.push_back(e);
  };
  const auto admin = d.connect("admin", seed);
  client::UserClient& client = admin->client();

  std::map<std::string, std::vector<std::string>> children;
  for (const std::string& dir : model.dirs)
    children[fs::parent(dir)].push_back(dir);
  for (const auto& [path, content] : model.files)
    children[fs::parent(path)].push_back(path);
  for (auto& [dir, expected] : children) {
    std::sort(expected.begin(), expected.end());
    const proto::Response r = client.list(dir);
    std::vector<std::string> listing = r.listing;
    std::sort(listing.begin(), listing.end());
    if (!r.ok() || listing != expected) note("listing of " + dir);
  }
  for (const auto& [path, content] : model.files) {
    const proto::Response r = client.stat(path);
    if (!r.ok() || r.body_size != content->size()) note("size of " + path);
  }
  TestRng pick(seed);
  std::vector<const std::pair<const std::string, Content>*> files;
  for (const auto& entry : model.files) files.push_back(&entry);
  for (int i = 0; i < 64 && !files.empty(); ++i) {
    const auto& [path, content] = *files[pick.uniform(files.size())];
    if (client.get_file(path).second != *content) note("content of " + path);
  }
  if (!check_dedup) return errors;
  // Every PUT commits a dedup link, so live references equal live files
  // and live blobs equal distinct contents.
  std::unordered_set<std::string_view> distinct;
  for (const auto& [path, content] : model.files)
    distinct.emplace(reinterpret_cast<const char*>(content->data()),
                     content->size());
  const auto dedup = d.enclave().file_manager().dedup_stats();
  if (dedup.refs != model.files.size())
    note("dedup refs " + std::to_string(dedup.refs) + " != live links " +
         std::to_string(model.files.size()));
  if (dedup.blobs != distinct.size())
    note("dedup blobs " + std::to_string(dedup.blobs) + " != contents " +
         std::to_string(distinct.size()));
  return errors;
}

// ---------------------------------------------------------------- counters --

struct Counters {
  telemetry::Snapshot telemetry;
  sgx::SgxStats sgx;
  StoreCounts store;
  net::ChannelStats wire;
  core::TrustedFileManager::DedupStats dedup;
};

Counters read_counters(Deployment& d) {
  return {d.enclave().telemetry_snapshot(), d.platform().stats_snapshot(),
          d.store_counts(), d.wire_totals(),
          d.enclave().file_manager().dedup_stats()};
}

telemetry::HistogramSnapshot hist(const telemetry::Snapshot& s,
                                  const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? telemetry::HistogramSnapshot{}
                                  : it->second;
}

/// Bucket-wise difference of two cumulative histograms.
telemetry::HistogramSnapshot hist_delta(const Counters& a, const Counters& b,
                                        const std::string& name) {
  telemetry::HistogramSnapshot out = hist(b.telemetry, name);
  const telemetry::HistogramSnapshot before = hist(a.telemetry, name);
  if (before.counts.size() == out.counts.size())
    for (std::size_t i = 0; i < out.counts.size(); ++i)
      out.counts[i] -= before.counts[i];
  out.count -= before.count;
  out.sum -= before.sum;
  return out;
}

// ------------------------------------------------------------------ phases --

struct Phase {
  bool measuring = false;
  bool trace = false;
  std::uint64_t steps = 0;   // > 0: steps per lane
  double seconds = 0;        // otherwise: wall time
};

/// Runs every lane of `w` through one phase; returns its wall seconds.
/// An exception in any lane stops them all and fails the run.
double run_phase(Workload& w, std::vector<Recorder>& recorders,
                 const Phase& phase, const Watchdog& watchdog) {
  std::atomic<bool> abort{false};
  const std::uint64_t start = now_ns();
  const std::uint64_t end =
      start + static_cast<std::uint64_t>(phase.seconds * 1e9);
  const auto lane = [&](std::size_t i) {
    Recorder& rec = recorders[i];
    rec.measuring = phase.measuring;
    for (std::uint64_t k = 0; !abort; ++k) {
      const std::uint64_t t = now_ns();
      if (phase.steps > 0 ? k >= phase.steps : t >= end) break;
      const bool traced =
          phase.trace && (phase.steps > 0 ? (k / kBlockSteps) % 2 == 1
                                          : ((t - start) / kBlockNs) % 2 == 1);
      t_lane.traced = traced;
      t_time_store_calls = traced;
      try {
        watchdog.check();
        w.step(i, rec);
      } catch (const std::exception& e) {
        ++rec.tally.attempted;
        rec.fail(std::string("lane ") + std::to_string(i) + ": " + e.what());
        abort = true;
      }
      if (phase.measuring && phase.trace)
        (traced ? rec.tally.traced_step_ns : rec.tally.untraced_step_ns) +=
            now_ns() - t;
    }
    t_lane.traced = false;
    t_time_store_calls = false;
  };
  if (w.lanes() == 1) {
    lane(0);
  } else {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < w.lanes(); ++i) threads.emplace_back(lane, i);
    for (auto& thread : threads) thread.join();
  }
  if (abort) {
    for (const Recorder& rec : recorders)
      if (!rec.tally.errors.empty())
        throw std::runtime_error(rec.tally.errors.back());
  }
  return static_cast<double>(now_ns() - start) / 1e9;
}

// ----------------------------------------------------------------- results --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  // what the last JSON line carries
  std::vector<Metric> report;   // everything, for the bench report
  std::vector<std::string> errors;
};

/// Frequency-weighted mean of the per-verb medians of the verbs `select`
/// picks. A plain median over a mix of verbs would sit on the boundary
/// between two verbs' modes and jump between them from run to run.
template <typename Select>
double pooled_p50(const Tally& t, Select select) {
  double weighted = 0;
  std::size_t n = 0;
  for (std::size_t k = 0; k < kKinds; ++k) {
    if (!select(static_cast<Kind>(k)) || t.ms[k].empty()) continue;
    weighted += median(t.ms[k]) * static_cast<double>(t.ms[k].size());
    n += t.ms[k].size();
  }
  return n == 0 ? 0 : weighted / static_cast<double>(n);
}

/// Highest of p90/p99/p99.9 with at least ten samples beyond it.
std::pair<double, double> supported_tail(const std::vector<double>& v) {
  double best = 0;
  for (const double p : {90.0, 99.0, 99.9})
    if (static_cast<double>(v.size()) * (100 - p) / 100 >= 10) best = p;
  return {best, best > 0 ? percentile(v, best) : 0};
}

Result run_workload(const std::string& name, const Options& opt) {
  const Watchdog watchdog;
  Result result;

  // Set-up, several times from scratch; the last deployment is used.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    if (w) w->close_sessions();
    w.reset();
    d.reset();
    const std::uint64_t start = now_ns();
    d = std::make_unique<Deployment>(mix(opt.seed, 1));
    w = make_workload(name, opt.seed, opt.smoke);
    w->setup(*d);
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    watchdog.check();
  }

  // Warm-up (the first 5 % of the run), then the measured phase.
  std::vector<Recorder> recorders(w->lanes());
  Phase warm;
  warm.steps = opt.steps > 0 ? std::max<std::uint64_t>(1, opt.steps / 20) : 0;
  warm.seconds = opt.seconds / 20;
  run_phase(*w, recorders, warm, watchdog);
  const Counters before = read_counters(*d);
  Phase measured;
  measured.measuring = true;
  measured.trace = opt.traced;
  measured.steps = opt.steps;
  measured.seconds = opt.seconds;
  const double window_s = run_phase(*w, recorders, measured, watchdog);
  const Counters after = read_counters(*d);

  Tally t;
  for (const Recorder& rec : recorders) t.merge(rec.tally);
  const Model model = w->model();
  std::uint64_t live_bytes = 0;
  for (const auto& [path, content] : model.files) live_bytes += content->size();
  const std::uint64_t stored_bytes = d->stored_bytes();

  // Session opens on a quiet server.
  std::vector<double> connect_ms;
  const std::vector<std::string> users = w->users();
  for (int i = 0; i < kConnectProbes; ++i) {
    const std::uint64_t start = now_ns();
    const auto s = d->connect(users[i % users.size()], mix(opt.seed, 5000 + i));
    connect_ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
  }

  std::vector<std::string> errors = audit(*d, model, mix(opt.seed, 3), true);
  w->close_sessions();

  // Restart over the same stores until the first request is answered.
  std::vector<double> restart_s;
  for (int i = 0; i < kRestarts && errors.empty(); ++i) {
    watchdog.check();
    const std::uint64_t start = now_ns();
    d->restart();
    const auto admin = d->connect("admin", mix(opt.seed, 6000 + i));
    const proto::Response r = admin->client().stat("/");
    restart_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    if (!r.ok()) errors.push_back("restarted enclave refuses requests");
  }
  if (errors.empty()) {
    for (const std::string& e : audit(*d, model, mix(opt.seed, 4), false))
      errors.push_back("after restart: " + e);
  }
  watchdog.check();

  result.attempted = t.attempted;
  result.failed = t.failed + errors.size();
  result.correct = result.failed == 0;
  result.errors = t.errors;
  result.errors.insert(result.errors.end(), errors.begin(), errors.end());

  // Everything goes to the bench report; metric() also puts it on the
  // JSON result line.
  const auto report = [&result](const std::string& n, double v,
                                const char* unit) {
    result.report.push_back({n, std::isfinite(v) ? v : 0.0, unit});
  };
  const auto metric = [&](const std::string& n, double v, const char* unit) {
    report(n, v, unit);
    result.metrics.push_back(result.report.back());
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto d64 = [](std::uint64_t v) { return static_cast<double>(v); };

  // Deltas over the measured phase.
  const double ops = d64(t.measured_ops);
  const StoreCounts store = after.store - before.store;
  const double wire_bytes =
      d64(after.wire.bytes_a_to_b + after.wire.bytes_b_to_a -
          before.wire.bytes_a_to_b - before.wire.bytes_b_to_a);
  const double wire_messages =
      d64(after.wire.messages_a_to_b + after.wire.messages_b_to_a -
          before.wire.messages_a_to_b - before.wire.messages_b_to_a);
  const double transitions =
      d64(after.sgx.ecalls + after.sgx.ocalls + after.sgx.switchless_calls -
          before.sgx.ecalls - before.sgx.ocalls - before.sgx.switchless_calls);
  const double storage_x = ratio(d64(stored_bytes), d64(live_bytes));

  if (!opt.traced) {
    std::vector<double> all_ms;
    for (const auto& v : t.ms) all_ms.insert(all_ms.end(), v.begin(), v.end());
    metric("setup_s", median(setup_s), "s");
    metric("ops_s", ratio(ops, window_s), "1/s");
    metric("read_p50_ms", pooled_p50(t, is_read), "ms");
    metric("write_p50_ms", pooled_p50(t, is_write), "ms");
    metric("op_p90_ms", percentile(all_ms, 90), "ms");
    metric("connect_p50_ms", median(connect_ms), "ms");
    metric("restart_s", median(restart_s), "s");
  } else {
    // Bench-side timers run only in traced blocks, so their per-op costs
    // divide by traced ops; the enclave's own telemetry and the meters
    // count every op.
    const double traced_ops = d64(t.traced_ops);
    const double pump_ms = ratio(d64(t.traced_pump_ns) / 1e6, traced_ops);
    const auto per_op_ms = [&](const std::string& histogram) {
      return ratio(d64(hist(after.telemetry, histogram).sum -
                       hist(before.telemetry, histogram).sum) /
                       1e6,
                   ops);
    };
    const double enclave_ms = per_op_ms("enclave.request_real_ns");
    const double dedup_hits = d64(after.dedup.hits - before.dedup.hits);
    const double dedup_stores = d64(after.dedup.stores - before.dedup.stores);
    const double traced_rate = ratio(traced_ops, d64(t.traced_step_ns));
    const double untraced_rate =
        ratio(d64(t.untraced_ops), d64(t.untraced_step_ns));

    metric("client.self_ms_per_op",
        ratio(d64(t.traced_wall_ns - t.traced_pump_ns) / 1e6, traced_ops),
        "ms");
    metric("core.pump_ms_per_op", pump_ms, "ms");
    metric("core.enclave_ms_per_op", enclave_ms, "ms");
    metric("core.unattributed_pct",
        pump_ms > 0 ? 100.0 * (pump_ms - enclave_ms) / pump_ms : 0.0, "%");
    metric("core.crypto_ms_per_op", per_op_ms("enclave.segment.crypto_ns"),
        "ms");
    metric("core.store_io_ms_per_op",
        per_op_ms("enclave.segment.store_io_ns"), "ms");
    metric("core.handler_ms_per_op", per_op_ms("enclave.segment.handler_ns"),
        "ms");
    metric("core.lock_wait_ms_per_op",
        per_op_ms("enclave.segment.lock_wait_ns"), "ms");
    metric("core.lock_wait_exclusive_p99_us",
        d64(hist_delta(before, after, "enclave.lock_wait_exclusive_ns")
                .percentile(99)) /
            1e3,
        "us");
    metric("core.queue_wait_ms_per_op",
        per_op_ms("enclave.segment.queue_wait_ns"), "ms");
    metric("core.dedup_hit_ratio",
        ratio(dedup_hits, dedup_hits + dedup_stores), "ratio");
    metric("store.ms_per_op", ratio(d64(store.busy_ns) / 1e6, traced_ops),
        "ms");
    metric("store.gets_per_op", ratio(d64(store.gets), ops), "count");
    metric("store.puts_per_op", ratio(d64(store.puts), ops), "count");
    metric("store.removes_per_op", ratio(d64(store.removes), ops), "count");
    metric("store.write_amp",
        ratio(d64(store.put_bytes), d64(t.user_put_bytes)), "ratio");
    metric("store.read_amp",
        ratio(d64(store.get_bytes), d64(t.user_get_bytes)), "ratio");
    metric("store.storage_x", storage_x, "ratio");
    metric("net.wire_amp",
        ratio(wire_bytes, d64(t.user_put_bytes + t.user_get_bytes)), "ratio");
    metric("net.messages_per_op", ratio(wire_messages, ops), "count");
    metric("sgx.transitions_per_op", ratio(transitions, ops), "count");
    metric("sgx.epc_pages_in_per_op",
        ratio(d64(after.sgx.epc_pages_in - before.sgx.epc_pages_in), ops),
        "count");
    metric("sgx.modeled_ms_per_op",
        ratio(d64(after.sgx.charged_ns - before.sgx.charged_ns) / 1e6, ops),
        "ms");
    metric("telemetry.trace_overhead_pct",
        traced_rate > 0 ? 100.0 * (untraced_rate / traced_rate - 1) : 0.0,
        "%");
  }

  // Per-verb latencies, sample counts and exact counters: the report only.
  for (std::size_t k = 0; k < kKinds; ++k) {
    if (t.ms[k].empty()) continue;
    const std::string prefix = std::string("verb.") + kKindNames[k];
    report(prefix + ".n", d64(t.ms[k].size()), "count");
    report(prefix + ".p50_ms", median(t.ms[k]), "ms");
    const auto [p, v] = supported_tail(t.ms[k]);
    if (p > 0) {
      char name[32];
      std::snprintf(name, sizeof name, ".p%g_ms", p);
      report(prefix + name, v, "ms");
    }
  }
  report("counts.ops", ops, "count");
  report("counts.sequence_hash", d64(t.sequence_hash), "count");
  report("counts.store_gets", d64(store.gets), "count");
  report("counts.store_puts", d64(store.puts), "count");
  report("counts.store_removes", d64(store.removes), "count");
  report("counts.store_get_bytes", d64(store.get_bytes), "bytes");
  report("counts.store_put_bytes", d64(store.put_bytes), "bytes");
  report("counts.wire_bytes", wire_bytes, "bytes");
  report("counts.sgx_transitions", transitions, "count");
  report("counts.stored_bytes", d64(stored_bytes), "bytes");
  report("counts.live_bytes", d64(live_bytes), "bytes");
  report("counts.storage_x", storage_x, "ratio");
  report("counts.failed", d64(result.failed), "count");
  report("counts.attempted", d64(result.attempted), "count");
  report("window_s", window_s, "s");
  return result;
}

// -------------------------------------------------------------------- CLI --

const std::vector<std::string> kWorkloads = {"bulk", "share", "office",
                                             "churn"};

int usage() {
  std::fprintf(stderr,
               "usage: segbench --workload <bulk|share|office|churn|all> "
               "--seed N [--seconds S] [--trace 0|1] [--traced] [--steps N]\n");
  return 2;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--traced") {
      opt.traced = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      if (!(opt.seconds > 0)) return false;
    } else if (arg == "--trace") {
      opt.traced = std::string(v) == "1";
      if (!opt.traced && std::string(v) != "0") return false;
    } else if (arg == "--steps") {
      opt.steps = std::strtoull(v, &end, 10);
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return opt.workload == "all" ||
         std::find(kWorkloads.begin(), kWorkloads.end(), opt.workload) !=
             kWorkloads.end();
}

void print_json_line(const Result& result) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              result.correct ? "true" : "false", result.attempted,
              result.failed);
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace seg::segbench

int main(int argc, char** argv) {
  using namespace seg::segbench;
  Options opt;
  opt.smoke = seg::bench::smoke_mode();
  if (opt.smoke) opt.steps = 120;
  if (!parse(argc, argv, opt)) return usage();

  const std::vector<std::string> names =
      opt.workload == "all" ? kWorkloads
                            : std::vector<std::string>{opt.workload};
  seg::bench::BenchReport report("segbench");
  Result total;
  const std::string length = opt.steps > 0
                                 ? "steps=" + std::to_string(opt.steps)
                                 : "seconds=" + std::to_string(opt.seconds);
  for (const std::string& name : names) {
    std::printf("== segbench workload=%s seed=%" PRIu64 " %s %s\n",
                name.c_str(), opt.seed, opt.traced ? "traced" : "untraced",
                length.c_str());
    Result result;
    try {
      result = run_workload(name, opt);
    } catch (const std::exception& e) {
      result.correct = false;
      result.attempted = std::max<std::uint64_t>(result.attempted, 1);
      result.failed = std::max<std::uint64_t>(result.failed, 1);
      result.errors.push_back(e.what());
    }
    for (const Metric& m : result.report) {
      std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
      report.add(name + "." + m.name, m.value, m.unit);
    }
    for (const std::string& e : result.errors)
      std::printf("  FAIL: %s\n", e.c_str());
    total.correct = total.correct && result.correct;
    total.attempted += result.attempted;
    total.failed += result.failed;
    for (const Metric& m : result.metrics)
      total.metrics.push_back(
          {names.size() == 1 ? m.name : name + "." + m.name, m.value, m.unit});
  }
  report.write();
  std::fflush(stdout);
  print_json_line(total);
  return total.correct ? 0 : 1;
}
