#include "serve/net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unordered_map>

#include "cluster/clusterer.h"
#include "common/mutex.h"
#include "common/parallel_for.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "core/online.h"
#include "serve/catalog.h"
#include "serve/query.h"
#include "storage/memory_store.h"

namespace k2::net {
namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

/// How long a worker polls epoll before it sleeps: waking a thread whose
/// (virtual) CPU went idle takes tens to hundreds of microseconds, more on
/// a loaded host, and a pipelining client's next batch usually comes sooner.
constexpr double kBusyPollSeconds = 200e-6;

/// One client connection, owned by exactly one worker for its whole life.
struct Connection {
  explicit Connection(int fd_in, size_t max_payload)
      : fd(fd_in), reader(max_payload) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  int fd = -1;
  FrameReader reader;
  std::string out;      ///< pending reply bytes, [out_pos, size) unsent
  size_t out_pos = 0;
  bool handshaken = false;
  bool close_after_flush = false;
  bool want_write = false;  ///< EPOLLOUT currently armed
};

}  // namespace

struct K2Server::Impl {
  K2ServerOptions options;
  std::vector<int> listen_fds;
  int shutdown_eventfd = -1;
  std::atomic<bool> shutting_down{false};

  // The serving state every worker shares. Queries go through
  // catalog.snapshot() (lock-free); everything touching the single-writer
  // miner or the catalog's write side serializes on ingest_mu. The store is
  // mutated only through the miner (AppendTick under ingest_mu) and read by
  // the catalog's footprint path inside the same critical sections, so it
  // needs no guard of its own. See docs/ARCHITECTURE.md, "Lock discipline".
  MemoryStore store;
  ConvoyCatalog catalog;
  Mutex ingest_mu;
  /// Set once in Start() before any worker exists, then only dereferenced
  /// under ingest_mu; the guard documents (and under clang enforces) the
  /// single-writer serialization of every miner call.
  std::unique_ptr<OnlineK2HopMiner> miner K2_GUARDED_BY(ingest_mu);
  Status serving_status K2_GUARDED_BY(ingest_mu) = Status::OK();

  ~Impl() {
    for (int fd : listen_fds)
      if (fd >= 0) ::close(fd);
    if (shutdown_eventfd >= 0) ::close(shutdown_eventfd);
  }

  void TriggerShutdown() {
    shutting_down.store(true, std::memory_order_release);
    const uint64_t one = 1;
    // The eventfd stays readable until read — and no worker ever reads it,
    // so a single write wakes every epoll loop, now and on re-poll.
    [[maybe_unused]] ssize_t n =
        ::write(shutdown_eventfd, &one, sizeof(one));
  }

  void Reply(Connection* conn, MessageType type, uint32_t request_id,
             std::string_view body) {
    if (body.size() + kMessageHeaderBytes > options.max_frame_payload) {
      // An answer that cannot be framed must not be sent half-framed.
      const std::string err = EncodeError(
          WireError::kInternalError,
          std::string(MessageTypeName(type)) + " reply of " +
              std::to_string(body.size()) + " bytes exceeds the frame cap");
      conn->out += EncodeFrame(MessageType::kError, request_id, err);
      return;
    }
    conn->out += EncodeFrame(type, request_id, body);
  }

  void ReplyError(Connection* conn, uint32_t request_id, WireError error,
                  std::string_view message, bool fatal) {
    Reply(conn, MessageType::kError, request_id, EncodeError(error, message));
    if (fatal) conn->close_after_flush = true;
  }

  ServerStats CurrentStats() {
    ServerStats stats;
    const auto snap = catalog.snapshot();
    stats.epoch = snap->epoch();
    stats.catalog_convoys = snap->size();
    MutexLock lock(ingest_mu);
    stats.frontier = miner->frontier();
    stats.ticks_ingested = miner->stats().ticks_ingested;
    stats.closed_convoys = miner->closed_convoys().size();
    return stats;
  }

  void HandleIngest(Connection* conn, const Frame& frame) {
    auto parsed = ParseIngest(frame.body);
    if (!parsed.ok()) {
      ReplyError(conn, frame.request_id, WireError::kMalformedBody,
                 parsed.status().message(), /*fatal=*/false);
      return;
    }
    if (shutting_down.load(std::memory_order_acquire)) {
      ReplyError(conn, frame.request_id, WireError::kShuttingDown,
                 "server is draining; tick not ingested", /*fatal=*/false);
      return;
    }
    IngestAck ack;
    {
      MutexLock lock(ingest_mu);
      if (!serving_status.ok()) {
        ReplyError(conn, frame.request_id, WireError::kInternalError,
                   serving_status.ToString(), /*fatal=*/false);
        return;
      }
      IngestRequest& req = parsed.value();
      const Status status = miner->AppendTick(req.t, std::move(req.points));
      if (!status.ok()) {
        // Precondition rejections (kInvalid) leave the miner reusable; any
        // other failure poisoned the stream and becomes sticky server-wide.
        if (status.code() != StatusCode::kInvalid) serving_status = status;
        ReplyError(conn, frame.request_id,
                   status.code() == StatusCode::kInvalid
                       ? WireError::kIngestRejected
                       : WireError::kInternalError,
                   status.ToString(), /*fatal=*/false);
        return;
      }
      if (!catalog.hook_status().ok()) {
        serving_status = catalog.hook_status();
        ReplyError(conn, frame.request_id, WireError::kInternalError,
                   serving_status.ToString(), /*fatal=*/false);
        return;
      }
      ack.frontier = miner->frontier();
      ack.closed_convoys = miner->closed_convoys().size();
    }
    Reply(conn, MessageType::kIngestOk, frame.request_id,
          EncodeIngestAck(ack));
  }

  void HandlePublish(Connection* conn, const Frame& frame) {
    PublishAck ack;
    {
      MutexLock lock(ingest_mu);
      const auto snap = catalog.Publish();
      ack.epoch = snap->epoch();
      ack.convoys = snap->size();
    }
    Reply(conn, MessageType::kPublishOk, frame.request_id,
          EncodePublishAck(ack));
  }

  void HandleQuery(Connection* conn, const Frame& frame) {
    auto parsed = ParseQuery(frame.body);
    if (!parsed.ok()) {
      ReplyError(conn, frame.request_id, WireError::kMalformedBody,
                 parsed.status().message(), /*fatal=*/false);
      return;
    }
    // Lock-free read path: pin one snapshot, answer, drop the pin. The
    // Convoy copies below detach the reply from the snapshot's lifetime.
    const auto snap = catalog.snapshot();
    std::vector<ConvoyId> ids;
    ConvoyQueryEngine::FindIds(*snap, parsed.value(), &ids);
    std::vector<Convoy> convoys;
    convoys.reserve(ids.size());
    for (ConvoyId id : ids) convoys.push_back(snap->convoy(id));
    Reply(conn, MessageType::kConvoys, frame.request_id,
          EncodeConvoys(convoys));
  }

  void HandleTopK(Connection* conn, const Frame& frame) {
    auto parsed = ParseTopK(frame.body);
    if (!parsed.ok()) {
      ReplyError(conn, frame.request_id, WireError::kMalformedBody,
                 parsed.status().message(), /*fatal=*/false);
      return;
    }
    const TopKRequest& req = parsed.value();
    const auto snap = catalog.snapshot();
    std::vector<ConvoyId> ids;
    ConvoyQueryEngine::TopKIds(*snap, req.query, req.rank, req.k, &ids);
    std::vector<Convoy> convoys;
    convoys.reserve(ids.size());
    for (ConvoyId id : ids) convoys.push_back(snap->convoy(id));
    Reply(conn, MessageType::kConvoys, frame.request_id,
          EncodeConvoys(convoys));
  }

  void HandleFrame(Connection* conn, const Frame& frame) {
    if (!conn->handshaken) {
      if (frame.type != MessageType::kHello) {
        ReplyError(conn, frame.request_id, WireError::kUnexpectedMessage,
                   std::string(MessageTypeName(frame.type)) +
                       " before the Hello handshake",
                   /*fatal=*/true);
        return;
      }
      auto hello = ParseHello(frame.body);
      if (!hello.ok()) {
        ReplyError(conn, frame.request_id, WireError::kMalformedBody,
                   hello.status().message(), /*fatal=*/true);
        return;
      }
      if (hello.value().min_version > kProtocolVersion ||
          hello.value().max_version < kProtocolVersion) {
        ReplyError(conn, frame.request_id, WireError::kBadVersion,
                   "client speaks versions [" +
                       std::to_string(hello.value().min_version) + ", " +
                       std::to_string(hello.value().max_version) +
                       "], server speaks " + std::to_string(kProtocolVersion),
                   /*fatal=*/true);
        return;
      }
      conn->handshaken = true;
      Reply(conn, MessageType::kHelloOk, frame.request_id,
            EncodeHelloOk(kProtocolVersion));
      return;
    }
    switch (frame.type) {
      case MessageType::kPing:
        Reply(conn, MessageType::kPong, frame.request_id, {});
        return;
      case MessageType::kIngest:
        HandleIngest(conn, frame);
        return;
      case MessageType::kPublish:
        HandlePublish(conn, frame);
        return;
      case MessageType::kQuery:
        HandleQuery(conn, frame);
        return;
      case MessageType::kTopK:
        HandleTopK(conn, frame);
        return;
      case MessageType::kStats:
        Reply(conn, MessageType::kStatsOk, frame.request_id,
              EncodeServerStats(CurrentStats()));
        return;
      case MessageType::kShutdown:
        Reply(conn, MessageType::kShutdownOk, frame.request_id, {});
        conn->close_after_flush = true;
        TriggerShutdown();
        return;
      default:
        // kHello twice, or a server-to-client type sent by the client.
        ReplyError(conn, frame.request_id, WireError::kUnexpectedMessage,
                   std::string(MessageTypeName(frame.type)) +
                       " is not a valid client request here",
                   /*fatal=*/true);
        return;
    }
  }

  /// Handles every complete frame currently buffered, up to a fatal error.
  void ProcessFrames(Connection* conn) {
    Frame frame;
    while (!conn->close_after_flush) {
      const FrameReader::Poll poll = conn->reader.Next(&frame);
      if (poll == FrameReader::Poll::kNeedMore) return;
      if (poll == FrameReader::Poll::kError) {
        ReplyError(conn, 0, conn->reader.error(),
                   conn->reader.error_message(), /*fatal=*/true);
        return;
      }
      HandleFrame(conn, frame);
    }
  }

  /// Non-blocking send of the pending reply bytes; returns false on a dead
  /// socket.
  bool FlushOut(Connection* conn) {
    while (conn->out_pos < conn->out.size()) {
      const ssize_t n =
          ::send(conn->fd, conn->out.data() + conn->out_pos,
                 conn->out.size() - conn->out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;  // peer is gone
    }
    conn->out.clear();
    conn->out_pos = 0;
    return true;
  }

  /// Blocking flush with a deadline — the shutdown drain path.
  void FlushDeadline(Connection* conn, int timeout_ms) {
    Stopwatch sw;
    while (conn->out_pos < conn->out.size()) {
      if (!FlushOut(conn)) return;
      if (conn->out_pos >= conn->out.size()) return;
      const int elapsed_ms = static_cast<int>(sw.ElapsedSeconds() * 1e3);
      if (elapsed_ms >= timeout_ms) return;
      struct pollfd pfd = {conn->fd, POLLOUT, 0};
      ::poll(&pfd, 1, timeout_ms - elapsed_ms);
    }
  }

  void WorkerLoop(size_t worker_index) {
    const int listen_fd = listen_fds[worker_index];
    const int ep = ::epoll_create1(EPOLL_CLOEXEC);
    if (ep < 0) return;
    struct epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, listen_fd, &ev);
    ev.data.fd = shutdown_eventfd;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, shutdown_eventfd, &ev);

    std::unordered_map<int, std::unique_ptr<Connection>> conns;

    auto close_conn = [&](int fd) {
      ::epoll_ctl(ep, EPOLL_CTL_DEL, fd, nullptr);
      conns.erase(fd);  // destructor closes the socket
    };
    auto update_interest = [&](Connection* conn) {
      const bool want_write = conn->out_pos < conn->out.size();
      if (want_write == conn->want_write) return;
      struct epoll_event cev = {};
      cev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
      cev.data.fd = conn->fd;
      ::epoll_ctl(ep, EPOLL_CTL_MOD, conn->fd, &cev);
      conn->want_write = want_write;
    };

    struct epoll_event events[64];
    bool stop = false;
    while (!stop) {
      int n = ::epoll_wait(ep, events, 64, 0);
      for (Stopwatch sw; n == 0 && sw.ElapsedSeconds() < kBusyPollSeconds;)
        n = ::epoll_wait(ep, events, 64, 0);
      if (n == 0) n = ::epoll_wait(ep, events, 64, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n && !stop; ++i) {
        const int fd = events[i].data.fd;
        if (fd == shutdown_eventfd) {
          stop = true;
          continue;
        }
        if (fd == listen_fd) {
          for (;;) {
            const int cfd = ::accept4(listen_fd, nullptr, nullptr,
                                      SOCK_NONBLOCK | SOCK_CLOEXEC);
            if (cfd < 0) break;
            if (shutting_down.load(std::memory_order_acquire)) {
              ::close(cfd);
              continue;
            }
            const int one = 1;
            ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            auto conn = std::make_unique<Connection>(
                cfd, options.max_frame_payload);
            struct epoll_event cev = {};
            cev.events = EPOLLIN;
            cev.data.fd = cfd;
            if (::epoll_ctl(ep, EPOLL_CTL_ADD, cfd, &cev) == 0)
              conns.emplace(cfd, std::move(conn));
          }
          continue;
        }
        auto it = conns.find(fd);
        if (it == conns.end()) continue;
        Connection* conn = it->second.get();

        bool dead = false;
        bool peer_closed = false;
        if (events[i].events & (EPOLLHUP | EPOLLERR)) peer_closed = true;
        if (events[i].events & EPOLLIN) {
          char buf[64 * 1024];
          for (;;) {
            const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
            if (r > 0) {
              conn->reader.Feed(buf, static_cast<size_t>(r));
              continue;
            }
            if (r == 0) {
              peer_closed = true;
              break;
            }
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            dead = true;
            break;
          }
        }
        if (dead) {
          close_conn(fd);
          continue;
        }
        ProcessFrames(conn);
        if (!FlushOut(conn)) {
          close_conn(fd);
          continue;
        }
        const bool drained = conn->out_pos >= conn->out.size();
        if ((peer_closed || conn->close_after_flush) && drained) {
          close_conn(fd);
          continue;
        }
        if (peer_closed && !drained) {
          // Peer half-closed but replies are still pending: keep the fd
          // until the flush completes (or the send fails).
          conn->close_after_flush = true;
        }
        update_interest(conn);
      }
    }

    // Stop accepting first: closing the listener RSTs any connection the
    // kernel queued but no worker ever saw, so post-shutdown clients get a
    // clean refusal instead of a silent black hole. Each worker owns its
    // slot, so writing -1 here does not race the other workers.
    ::epoll_ctl(ep, EPOLL_CTL_DEL, listen_fd, nullptr);
    ::close(listen_fd);
    listen_fds[worker_index] = -1;

    // Drain: every request already received in full is answered; reply
    // buffers flush under the deadline; then everything closes. No new
    // bytes are read, so requests torn mid-frame simply vanish.
    for (auto& [fd, conn] : conns) {
      ProcessFrames(conn.get());
      FlushDeadline(conn.get(), options.drain_timeout_ms);
      ::epoll_ctl(ep, EPOLL_CTL_DEL, fd, nullptr);
    }
    conns.clear();
    ::close(ep);
  }
};

K2Server::K2Server(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

Result<std::unique_ptr<K2Server>> K2Server::Start(K2ServerOptions options) {
  K2_RETURN_NOT_OK(ValidateMiningParams(options.params));
  if (options.publish_every == 0) options.publish_every = 1;
  const int workers = options.num_workers > 0
                          ? options.num_workers
                          : std::min(HardwareThreads(), 16);

  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1)
    return Status::Invalid("k2_server: '" + options.host +
                           "' is not an IPv4 address");

  auto impl = std::make_unique<Impl>();
  impl->options = options;
  impl->shutdown_eventfd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (impl->shutdown_eventfd < 0) return Errno("k2_server: eventfd");

  uint16_t bound_port = options.port;
  for (int i = 0; i < workers; ++i) {
    const int fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) return Errno("k2_server: socket");
    impl->listen_fds.push_back(fd);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0)
      return Errno("k2_server: SO_REUSEPORT");
    // Listener 0 resolves port 0 to a concrete ephemeral port; the other
    // SO_REUSEPORT listeners then bind that same port.
    addr.sin_port = htons(bound_port);
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) != 0)
      return Errno("k2_server: bind " + options.host + ":" +
                   std::to_string(bound_port));
    if (i == 0 && bound_port == 0) {
      struct sockaddr_in actual = {};
      socklen_t len = sizeof(actual);
      if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&actual),
                        &len) != 0)
        return Errno("k2_server: getsockname");
      bound_port = ntohs(actual.sin_port);
    }
    if (::listen(fd, 512) != 0) return Errno("k2_server: listen");
  }

  // The miner must see an empty store; both are freshly constructed here.
  OnlineK2HopOptions mining;
  mining.on_closed =
      impl->catalog.OnClosedHook(&impl->store, options.publish_every);
  {
    // No worker thread exists yet; the lock satisfies miner's guard.
    MutexLock lock(impl->ingest_mu);
    impl->miner = std::make_unique<OnlineK2HopMiner>(&impl->store,
                                                     options.params, mining);
  }
  // Epoch 1 exists before the first ingest, so early readers pin an empty
  // published snapshot instead of racing the first on_closed publish.
  impl->catalog.Publish();

  auto server = std::unique_ptr<K2Server>(new K2Server(std::move(impl)));
  server->port_ = bound_port;
  server->running_.store(true, std::memory_order_release);
  for (int i = 0; i < workers; ++i) {
    Impl* impl_ptr = server->impl_.get();
    const size_t index = static_cast<size_t>(i);
    server->workers_.emplace_back(
        [impl_ptr, index] { impl_ptr->WorkerLoop(index); });
  }
  return server;
}

K2Server::~K2Server() {
  RequestShutdown();
  Wait();
}

void K2Server::RequestShutdown() { impl_->TriggerShutdown(); }

void K2Server::Wait() {
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
  running_.store(false, std::memory_order_release);
}

int K2Server::shutdown_fd() const { return impl_->shutdown_eventfd; }

Status K2Server::serving_status() const {
  MutexLock lock(impl_->ingest_mu);
  return impl_->serving_status;
}

ServerStats K2Server::stats() const { return impl_->CurrentStats(); }

}  // namespace k2::net
