// Store decorator for the per-layer view of the untrusted store.
//
// Wraps one of the enclave's three stores and meters every call made into
// it: operation counts and bytes always (relaxed atomics, so untraced runs
// pay almost nothing), wall time only while the calling thread is inside a
// traced op. The enclave runs store I/O on the thread that pumps the
// connection (store_io_threads = 0), so a thread-local switch attributes
// the time to the op that caused it.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "store/untrusted_store.h"
#include "telemetry/trace.h"

namespace seg::segbench {

/// Set by the harness around each traced op on the calling thread.
inline thread_local bool t_time_store_calls = false;

struct StoreCounts {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t removes = 0;
  std::uint64_t get_bytes = 0;
  std::uint64_t put_bytes = 0;
  std::uint64_t busy_ns = 0;  // only accumulated inside traced ops

  StoreCounts& operator+=(const StoreCounts& o) {
    gets += o.gets;
    puts += o.puts;
    removes += o.removes;
    get_bytes += o.get_bytes;
    put_bytes += o.put_bytes;
    busy_ns += o.busy_ns;
    return *this;
  }
  StoreCounts operator-(const StoreCounts& o) const {
    return {gets - o.gets,           puts - o.puts,
            removes - o.removes,     get_bytes - o.get_bytes,
            put_bytes - o.put_bytes, busy_ns - o.busy_ns};
  }
};

class TimedStore final : public store::UntrustedStore {
 public:
  explicit TimedStore(store::UntrustedStore& inner) : inner_(inner) {}

  void put(const std::string& name, BytesView data) override {
    const Timer timer(busy_ns_);
    inner_.put(name, data);
    puts_.fetch_add(1, std::memory_order_relaxed);
    put_bytes_.fetch_add(data.size(), std::memory_order_relaxed);
  }
  std::optional<Bytes> get(const std::string& name) const override {
    const Timer timer(busy_ns_);
    auto blob = inner_.get(name);
    gets_.fetch_add(1, std::memory_order_relaxed);
    if (blob) get_bytes_.fetch_add(blob->size(), std::memory_order_relaxed);
    return blob;
  }
  bool exists(const std::string& name) const override {
    const Timer timer(busy_ns_);
    return inner_.exists(name);
  }
  void remove(const std::string& name) override {
    const Timer timer(busy_ns_);
    inner_.remove(name);
    removes_.fetch_add(1, std::memory_order_relaxed);
  }
  void rename(const std::string& from, const std::string& to) override {
    const Timer timer(busy_ns_);
    inner_.rename(from, to);
  }
  std::vector<std::string> list() const override { return inner_.list(); }
  std::uint64_t total_bytes() const override { return inner_.total_bytes(); }
  bool device_backed() const override { return inner_.device_backed(); }

  StoreCounts counts() const {
    return {gets_.load(std::memory_order_relaxed),
            puts_.load(std::memory_order_relaxed),
            removes_.load(std::memory_order_relaxed),
            get_bytes_.load(std::memory_order_relaxed),
            put_bytes_.load(std::memory_order_relaxed),
            busy_ns_.load(std::memory_order_relaxed)};
  }

 private:
  class Timer {
   public:
    explicit Timer(std::atomic<std::uint64_t>& sink)
        : sink_(sink),
          start_ns_(t_time_store_calls ? telemetry::steady_now_ns() : 0) {}
    ~Timer() {
      if (start_ns_ != 0)
        sink_.fetch_add(telemetry::steady_now_ns() - start_ns_,
                        std::memory_order_relaxed);
    }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

   private:
    std::atomic<std::uint64_t>& sink_;
    std::uint64_t start_ns_;
  };

  store::UntrustedStore& inner_;
  mutable std::atomic<std::uint64_t> gets_{0};
  std::atomic<std::uint64_t> puts_{0};
  std::atomic<std::uint64_t> removes_{0};
  mutable std::atomic<std::uint64_t> get_bytes_{0};
  std::atomic<std::uint64_t> put_bytes_{0};
  mutable std::atomic<std::uint64_t> busy_ns_{0};
};

}  // namespace seg::segbench
