// k2_server core: a thread-per-core epoll event loop serving the wire
// protocol (serve/net/protocol.h) over TCP.
//
// Architecture. Start() binds `num_workers` listening sockets to the same
// address with SO_REUSEPORT — the kernel load-balances incoming connections
// across them — and runs one worker thread per listener. Each worker owns
// its own epoll instance and every connection it accepted for that
// connection's whole life: no cross-thread handoff, no shared poll state,
// no locks on the query path. Workers answer kQuery/kTopK off the catalog's
// lock-free SnapshotCell read path (one pinned snapshot per request);
// ingest-side messages (kIngest/kPublish, and kStats' miner counters)
// serialize on one mutex around the single OnlineK2HopMiner + catalog
// writer, exactly matching the miner's single-writer contract. That mutex
// (Impl::ingest_mu) and every other lock in the tree are annotated for
// clang's thread-safety analysis and tabulated — guards, acquisition
// order, and the lock-free reader invariant — in docs/ARCHITECTURE.md,
// section "Lock discipline".
//
// Shutdown. RequestShutdown() (also triggered by a kShutdown message or
// the binary's SIGINT/SIGTERM handler) stops all accepting, then each
// worker drains: every fully received request is still answered, reply
// buffers are flushed under a bounded deadline, and only after every worker
// has exited does the server tear down the catalog — so no in-flight query
// can observe a dying catalog. Bytes of requests still incomplete at
// shutdown are discarded (the client sees a clean close with no reply).
//
// Error scoping. A malformed frame (bad CRC, oversize, bad version, bad
// type) earns the sender one kError frame and a close of THAT connection;
// request-level failures (malformed body, rejected tick) are kError replies
// on a connection that stays open. Neither disturbs other connections or
// the server.
#ifndef K2_SERVE_NET_SERVER_H_
#define K2_SERVE_NET_SERVER_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "serve/net/protocol.h"

namespace k2::net {

struct K2ServerOptions {
  /// IPv4 address to bind. The default serves loopback only; bind 0.0.0.0
  /// explicitly to expose the server.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Worker threads == SO_REUSEPORT listeners; 0 = one per hardware thread.
  int num_workers = 0;
  /// Mining parameters of the stream fed through kIngest.
  MiningParams params{2, 8, 150.0};
  /// Republish the catalog snapshot every N eagerly closed convoys (the
  /// OnClosedHook cadence); kPublish forces one regardless.
  size_t publish_every = 1;
  /// Per-connection frame payload cap (decode side).
  size_t max_frame_payload = kMaxFramePayload;
  /// Shutdown drain: max milliseconds each worker spends flushing one
  /// connection's pending replies before closing it anyway.
  int drain_timeout_ms = 2000;
};

/// A running server. Construction via Start() fully binds, listens, and
/// launches the workers; destruction requests shutdown and joins them.
class K2Server {
 public:
  /// Invalid `options.params` (ValidateMiningParams) fail before any socket
  /// or thread exists: such a server could never ingest a tick.
  static Result<std::unique_ptr<K2Server>> Start(K2ServerOptions options);
  ~K2Server();

  K2Server(const K2Server&) = delete;
  K2Server& operator=(const K2Server&) = delete;

  /// The bound TCP port (resolves port 0 to the actual ephemeral port).
  uint16_t port() const { return port_; }
  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Begins graceful shutdown and returns immediately; idempotent. Safe to
  /// call from any thread. (The k2_server binary calls it from a signal
  /// handler via the self-wake eventfd, which is async-signal-safe.)
  void RequestShutdown();
  /// Blocks until every worker has drained and exited.
  void Wait();
  /// True from Start() until the last worker exits.
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// File descriptor of the shutdown eventfd — write(2) any 8-byte value to
  /// trigger shutdown from a signal handler without touching this object's
  /// non-atomic state.
  int shutdown_fd() const;

  /// Serving-side health: OK, or the first sticky miner/catalog-hook error
  /// (such failures also surface to clients as kError InternalError).
  Status serving_status() const;

  /// Aggregate counters, as reported to clients via kStats.
  ServerStats stats() const;

 private:
  struct Impl;
  explicit K2Server(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
  std::vector<std::thread> workers_;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
};

}  // namespace k2::net

#endif  // K2_SERVE_NET_SERVER_H_
