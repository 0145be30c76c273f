// A full client → server → enclave → store deployment built from the
// public APIs, with the measurement hooks segbench needs: metered stores,
// a timed pump callback per session, wire totals across every session
// ever opened, and an enclave restart over the same stores.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "client/user_client.h"
#include "common/rng.h"
#include "core/config.h"
#include "core/enclave.h"
#include "core/server.h"
#include "net/channel.h"
#include "sgx/platform.h"
#include "store/untrusted_store.h"
#include "telemetry/trace.h"
#include "timed_store.h"
#include "tls/certificate.h"

namespace seg::segbench {

/// Per-thread trace switch and pump-time accumulator, set by the harness
/// around each op. Pump time is only read for traced ops.
struct LaneTrace {
  bool traced = false;
  std::uint64_t pump_ns = 0;
};
inline thread_local LaneTrace t_lane;

/// The paper-ablation toggles the benchmark fixes; every other field keeps
/// its default so a later change of a default is measured, not masked.
inline core::EnclaveConfig bench_config() {
  core::EnclaveConfig config;
  config.deduplication = true;
  config.rollback_protection = true;
  config.fs_guard = core::FsRollbackGuard::kProtectedMemory;
  return config;
}

class Deployment;

/// One client connection: its own RNG, channel and UserClient. Closing
/// folds the channel meters into the deployment's wire totals.
class Session {
 public:
  Session(Deployment& deployment, const std::string& user, std::uint64_t seed);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The client, with request tracing on exactly when the calling thread
  /// is inside a traced op.
  client::UserClient& client() {
    client_.set_tracing(t_lane.traced);
    return client_;
  }
  net::ChannelStats wire() const { return channel_.stats_snapshot(); }

 private:
  Deployment& deployment_;
  TestRng rng_;
  net::DuplexChannel channel_;
  client::UserClient client_;
  std::uint64_t connection_ = 0;
};

class Deployment {
 public:
  explicit Deployment(std::uint64_t seed)
      : rng_(seed), ca_(rng_), platform_(rng_) {
    start_enclave();
    core::SegShareServer::provision_certificate(*enclave_, ca_, platform_);
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Opens a session as `user`; its client-side randomness comes from
  /// `seed`, so sessions used on other threads never share an RNG.
  std::unique_ptr<Session> connect(const std::string& user,
                                   std::uint64_t seed) {
    return std::make_unique<Session>(*this, user, seed);
  }

  /// CA enrollment draws from the deployment RNG: call from one thread.
  const client::Identity& identity(const std::string& user) {
    auto it = identities_.find(user);
    if (it == identities_.end())
      it = identities_.emplace(user, client::enroll_user(rng_, ca_, user))
               .first;
    return it->second;
  }

  /// Stops the enclave and starts a fresh instance on the same platform
  /// over the same stores: it unseals its bootstrap, re-validates the
  /// group store and the guarded roots, and restores its certificate.
  /// Every session must be closed first.
  void restart() {
    enclave_->destroy();
    server_.reset();
    enclave_.reset();
    start_enclave();
  }

  core::SegShareEnclave& enclave() { return *enclave_; }
  core::SegShareServer& server() { return *server_; }
  sgx::SgxPlatform& platform() { return platform_; }
  const crypto::Ed25519PublicKey& ca_public_key() const {
    return ca_.public_key();
  }

  StoreCounts store_counts() const {
    StoreCounts total = timed_content_.counts();
    total += timed_group_.counts();
    total += timed_dedup_.counts();
    return total;
  }
  std::uint64_t stored_bytes() const {
    return content_.total_bytes() + group_.total_bytes() +
           dedup_.total_bytes();
  }

  /// Channel meters summed over every session, open or closed.
  net::ChannelStats wire_totals() const {
    const std::lock_guard<std::mutex> lock(sessions_mutex_);
    net::ChannelStats total = closed_wire_;
    for (const Session* session : open_) add_wire(total, session->wire());
    return total;
  }

 private:
  friend class Session;

  static void add_wire(net::ChannelStats& total, const net::ChannelStats& s) {
    total.bytes_a_to_b += s.bytes_a_to_b;
    total.bytes_b_to_a += s.bytes_b_to_a;
    total.messages_a_to_b += s.messages_a_to_b;
    total.messages_b_to_a += s.messages_b_to_a;
    total.alternations += s.alternations;
  }

  void start_enclave() {
    enclave_ = std::make_unique<core::SegShareEnclave>(
        platform_, rng_, ca_.public_key(),
        core::Stores{timed_content_, timed_group_, timed_dedup_},
        bench_config());
    server_ = std::make_unique<core::SegShareServer>(*enclave_);
  }

  void opened(Session* session) {
    const std::lock_guard<std::mutex> lock(sessions_mutex_);
    open_.insert(session);
  }
  void closed(Session* session, const net::ChannelStats& wire) {
    const std::lock_guard<std::mutex> lock(sessions_mutex_);
    open_.erase(session);
    add_wire(closed_wire_, wire);
  }

  TestRng rng_;
  tls::CertificateAuthority ca_;
  sgx::SgxPlatform platform_;
  store::MemoryStore content_;
  store::MemoryStore group_;
  store::MemoryStore dedup_;
  TimedStore timed_content_{content_};
  TimedStore timed_group_{group_};
  TimedStore timed_dedup_{dedup_};
  std::map<std::string, client::Identity> identities_;
  mutable std::mutex sessions_mutex_;  // guards open_ and closed_wire_
  std::set<const Session*> open_;
  net::ChannelStats closed_wire_;
  // Declared last: destroyed before the stores and platform they use.
  std::unique_ptr<core::SegShareEnclave> enclave_;
  std::unique_ptr<core::SegShareServer> server_;
};

inline Session::Session(Deployment& deployment, const std::string& user,
                        std::uint64_t seed)
    : deployment_(deployment),
      rng_(seed),
      client_(rng_, deployment.ca_public_key(), deployment.identity(user)) {
  connection_ = deployment_.server().accept(channel_);
  // The server is looked up on every call, not captured: restart()
  // replaces it.
  client_.connect(channel_.a(), [this] {
    if (!t_lane.traced) {
      deployment_.server().pump_connection(connection_);
      return;
    }
    const std::uint64_t start = telemetry::steady_now_ns();
    deployment_.server().pump_connection(connection_);
    t_lane.pump_ns += telemetry::steady_now_ns() - start;
  });
  deployment_.opened(this);
}

inline Session::~Session() {
  try {
    client_.disconnect();
    deployment_.server().pump_connection(connection_);
  } catch (...) {
    // A session whose connection already failed has nothing left to close.
  }
  deployment_.closed(this, channel_.stats_snapshot());
}

}  // namespace seg::segbench
