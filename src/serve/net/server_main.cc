// k2_server — the convoy-serving network daemon. Binds a TCP port, ingests
// movement ticks over the k2 wire protocol into an online k/2-hop miner,
// and answers convoy queries lock-free off published catalog snapshots.
//
//   k2_server [--host A] [--port N] [--workers N] [--m N] [--k N]
//             [--eps F] [--publish-every N] [--drain-timeout-ms N]
//
// Flags are the only configuration (docs/OPERATIONS.md). A numeric flag
// must parse whole and fit its type, else the binary exits 2 naming it;
// invalid mining parameters make Start fail before anything is bound.
// SIGINT/SIGTERM trigger the same graceful drain as a kShutdown message.
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include <unistd.h>

#include "serve/net/server.h"

namespace {

// The signal handler may only touch async-signal-safe state: it writes one
// 8-byte value to the server's shutdown eventfd.
volatile sig_atomic_t g_shutdown_fd = -1;

void OnSignal(int) {
  const int fd = g_shutdown_fd;
  if (fd < 0) return;
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(fd, &one, sizeof(one));
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--host A] [--port N] [--workers N] [--m N] [--k N]\n"
      "          [--eps F] [--publish-every N] [--drain-timeout-ms N]\n"
      "Serves the k2 wire protocol (docs/WIRE_PROTOCOL.md); the flags are\n"
      "described in docs/OPERATIONS.md.\n",
      argv0);
}

/// `text` as a T in [lo, hi]: the whole string must parse (std::from_chars,
/// as the CSV reader's fields do). Otherwise exits 2, naming `flag`.
template <typename T>
T ParseFlag(const char* argv0, const std::string& flag, const char* text,
            T lo = std::numeric_limits<T>::lowest(),
            T hi = std::numeric_limits<T>::max()) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (text == end || ec != std::errc() || ptr != end ||
      !(value >= lo && value <= hi)) {
    std::fprintf(stderr, "%s: invalid value '%s' for %s\n", argv0, text,
                 flag.c_str());
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  k2::net::K2ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      options.host = value();
    } else if (arg == "--port") {
      options.port = ParseFlag<uint16_t>(argv[0], arg, value());
    } else if (arg == "--workers") {
      options.num_workers = ParseFlag<int>(argv[0], arg, value(), 0);
    } else if (arg == "--m") {
      options.params.m = ParseFlag<int>(argv[0], arg, value());
    } else if (arg == "--k") {
      options.params.k = ParseFlag<int>(argv[0], arg, value());
    } else if (arg == "--eps") {
      options.params.eps = ParseFlag<double>(argv[0], arg, value());
    } else if (arg == "--publish-every") {
      options.publish_every = ParseFlag<size_t>(argv[0], arg, value());
    } else if (arg == "--drain-timeout-ms") {
      options.drain_timeout_ms = ParseFlag<int>(argv[0], arg, value(), 0);
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  auto server = k2::net::K2Server::Start(options);
  if (!server.ok()) {
    std::fprintf(stderr, "k2_server: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }

  g_shutdown_fd = server.value()->shutdown_fd();
  struct sigaction sa = {};
  sa.sa_handler = OnSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  std::printf("k2_server: listening on %s:%u (%d workers, m=%d k=%d eps=%g)\n",
              options.host.c_str(), server.value()->port(),
              server.value()->num_workers(), options.params.m,
              options.params.k, options.params.eps);
  std::fflush(stdout);

  server.value()->Wait();

  const k2::Status health = server.value()->serving_status();
  if (!health.ok()) {
    std::fprintf(stderr, "k2_server: exited degraded: %s\n",
                 health.ToString().c_str());
    return 1;
  }
  std::printf("k2_server: drained and shut down cleanly\n");
  return 0;
}
