// Wire-protocol and k2_server tests: property/fuzz coverage of the frame
// codec (random frames round-trip byte-identical; truncated, bit-flipped,
// and oversize frames fail with named errors and never yield a frame), and
// in-process end-to-end coverage of K2Server + K2Client — differential
// query answers vs ConvoyQueryEngine, pipelining, error scoping, and
// graceful shutdown. The smoke tier runs under ASan/UBSan and TSan in CI.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/rng.h"
#include "core/online.h"
#include "gen/synthetic.h"
#include "model/dataset.h"
#include "serve/catalog.h"
#include "serve/net/client.h"
#include "serve/net/protocol.h"
#include "serve/net/server.h"
#include "serve/query.h"
#include "storage/memory_store.h"
#include "tests/test_util.h"

namespace k2::net {
namespace {

constexpr MessageType kAllTypes[] = {
    MessageType::kHello,    MessageType::kHelloOk,  MessageType::kPing,
    MessageType::kPong,     MessageType::kIngest,   MessageType::kIngestOk,
    MessageType::kPublish,  MessageType::kPublishOk, MessageType::kQuery,
    MessageType::kTopK,     MessageType::kConvoys,  MessageType::kStats,
    MessageType::kStatsOk,  MessageType::kShutdown, MessageType::kShutdownOk,
    MessageType::kError,
};

std::string RandomBytes(Rng* rng, size_t n) {
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng->NextInt(256));
  return bytes;
}

bool IsFrameLevelError(WireError error) {
  switch (error) {
    case WireError::kBadCrc:
    case WireError::kOversizeFrame:
    case WireError::kTruncatedFrame:
    case WireError::kBadVersion:
    case WireError::kBadMessageType:
      return true;
    default:
      return false;
  }
}

// --- frame codec properties ----------------------------------------------

TEST(FrameCodec, RandomFramesRoundTripThroughRandomChunks) {
  Rng rng(1);
  for (int iter = 0; iter < 200; ++iter) {
    const MessageType type = kAllTypes[rng.NextInt(std::size(kAllTypes))];
    const uint32_t request_id = static_cast<uint32_t>(rng.Next());
    const std::string body = RandomBytes(&rng, rng.NextInt(600));
    const std::string wire = EncodeFrame(type, request_id, body);

    FrameReader reader;
    Frame frame;
    size_t fed = 0;
    while (fed < wire.size()) {
      ASSERT_EQ(reader.Next(&frame), FrameReader::Poll::kNeedMore);
      const size_t chunk =
          std::min(wire.size() - fed, 1 + rng.NextInt(40));
      reader.Feed(wire.data() + fed, chunk);
      fed += chunk;
    }
    ASSERT_EQ(reader.Next(&frame), FrameReader::Poll::kFrame);
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.request_id, request_id);
    EXPECT_EQ(frame.body, body);
    EXPECT_EQ(frame.version, kProtocolVersion);
    // Re-encoding the decoded frame reproduces the wire bytes exactly.
    EXPECT_EQ(EncodeFrame(frame.type, frame.request_id, frame.body), wire);
    EXPECT_EQ(reader.Next(&frame), FrameReader::Poll::kNeedMore);
    EXPECT_EQ(reader.buffered(), 0u);
  }
}

TEST(FrameCodec, ManyFramesBackToBack) {
  Rng rng(2);
  std::string wire;
  std::vector<std::string> bodies;
  for (int i = 0; i < 50; ++i) {
    bodies.push_back(RandomBytes(&rng, rng.NextInt(100)));
    wire += EncodeFrame(MessageType::kPing, static_cast<uint32_t>(i),
                        bodies.back());
  }
  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  Frame frame;
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(reader.Next(&frame), FrameReader::Poll::kFrame);
    EXPECT_EQ(frame.request_id, static_cast<uint32_t>(i));
    EXPECT_EQ(frame.body, bodies[i]);
  }
  EXPECT_EQ(reader.Next(&frame), FrameReader::Poll::kNeedMore);
}

TEST(FrameCodec, EveryTruncationOfAValidFrameNeedsMore) {
  const std::string wire =
      EncodeFrame(MessageType::kQuery, 7, EncodeQuery(ConvoyQuery{}));
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    FrameReader reader;
    reader.Feed(wire.data(), cut);
    Frame frame;
    ASSERT_EQ(reader.Next(&frame), FrameReader::Poll::kNeedMore)
        << "prefix of " << cut << " bytes";
  }
}

TEST(FrameCodec, BitFlipsNeverYieldAFrame) {
  Rng rng(3);
  const std::string body = RandomBytes(&rng, 64);
  const std::string wire = EncodeFrame(MessageType::kIngestOk, 99, body);
  for (size_t i = 0; i < wire.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = wire;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      FrameReader reader;
      reader.Feed(corrupt.data(), corrupt.size());
      Frame frame;
      const FrameReader::Poll poll = reader.Next(&frame);
      ASSERT_NE(poll, FrameReader::Poll::kFrame)
          << "bit " << bit << " of byte " << i;
      if (poll == FrameReader::Poll::kError) {
        EXPECT_TRUE(IsFrameLevelError(reader.error()))
            << WireErrorName(reader.error());
        EXPECT_FALSE(reader.error_message().empty());
        // Errors are sticky: the reader never recovers.
        EXPECT_EQ(reader.Next(&frame), FrameReader::Poll::kError);
      }
      // kNeedMore is legal only for flips in the length field that grew
      // the frame; nothing was delivered either way.
    }
  }
}

TEST(FrameCodec, OversizePayloadIsANamedError) {
  FrameReader reader(/*max_payload=*/1024);
  const std::string wire =
      EncodeFrame(MessageType::kPing, 1, std::string(2048, 'x'));
  reader.Feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(reader.Next(&frame), FrameReader::Poll::kError);
  EXPECT_EQ(reader.error(), WireError::kOversizeFrame);
}

TEST(FrameCodec, PayloadShorterThanMessageHeaderIsANamedError) {
  // Hand-rolled header declaring a 3-byte payload: too short to carry the
  // 8-byte message header, rejected before any CRC work.
  std::string wire;
  const uint32_t crc = 0xdeadbeef;
  const uint32_t len = 3;
  wire.append(reinterpret_cast<const char*>(&crc), 4);
  wire.append(reinterpret_cast<const char*>(&len), 4);
  wire.append("abc", 3);
  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(reader.Next(&frame), FrameReader::Poll::kError);
  EXPECT_EQ(reader.error(), WireError::kTruncatedFrame);
}

std::string HandRolledFrame(uint8_t version, uint8_t type,
                            uint32_t request_id, std::string_view body) {
  std::string payload;
  payload.push_back(static_cast<char>(version));
  payload.push_back(static_cast<char>(type));
  payload.append(2, '\0');
  payload.append(reinterpret_cast<const char*>(&request_id), 4);
  payload.append(body);
  const uint32_t crc = Crc32c(payload.data(), payload.size());
  const uint32_t len = static_cast<uint32_t>(payload.size());
  std::string wire;
  wire.append(reinterpret_cast<const char*>(&crc), 4);
  wire.append(reinterpret_cast<const char*>(&len), 4);
  wire.append(payload);
  return wire;
}

TEST(FrameCodec, WrongVersionIsANamedError) {
  const std::string wire = HandRolledFrame(9, 3, 1, {});
  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(reader.Next(&frame), FrameReader::Poll::kError);
  EXPECT_EQ(reader.error(), WireError::kBadVersion);
}

TEST(FrameCodec, UndefinedMessageTypeIsANamedError) {
  const std::string wire = HandRolledFrame(1, 42, 1, {});
  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(reader.Next(&frame), FrameReader::Poll::kError);
  EXPECT_EQ(reader.error(), WireError::kBadMessageType);
}

// --- typed body round-trips ----------------------------------------------

ConvoyQuery RandomQuery(Rng* rng) {
  ConvoyQuery query;
  if (rng->Bernoulli(0.5))
    query.object = static_cast<ObjectId>(rng->NextInt(1000));
  if (rng->Bernoulli(0.5)) {
    const Timestamp start = static_cast<Timestamp>(rng->NextInt(100));
    query.time_window =
        TimeRange{start, start + static_cast<Timestamp>(rng->NextInt(50))};
  }
  if (rng->Bernoulli(0.5)) {
    const double x = rng->Uniform(-100, 100);
    const double y = rng->Uniform(-100, 100);
    query.region = Rect{x, y, x + rng->Uniform(0, 50), y + rng->Uniform(0, 50)};
  }
  return query;
}

TEST(TypedBodies, QueryRoundTripsByteIdentical) {
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const ConvoyQuery query = RandomQuery(&rng);
    const std::string body = EncodeQuery(query);
    auto parsed = ParseQuery(body);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(EncodeQuery(parsed.value()), body);
  }
}

TEST(TypedBodies, TopKRoundTripsByteIdentical) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    TopKRequest request;
    request.query = RandomQuery(&rng);
    request.rank =
        rng.Bernoulli(0.5) ? ConvoyRank::kLongest : ConvoyRank::kLargest;
    request.k = static_cast<uint32_t>(rng.NextInt(1000));
    const std::string body = EncodeTopK(request);
    auto parsed = ParseTopK(body);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(EncodeTopK(parsed.value()), body);
  }
}

TEST(TypedBodies, IngestRoundTripsByteIdentical) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    std::vector<SnapshotPoint> points;
    const size_t n = rng.NextInt(50);
    for (size_t j = 0; j < n; ++j)
      points.push_back({static_cast<ObjectId>(j * 2),
                        rng.Uniform(-1000, 1000), rng.Uniform(-1000, 1000)});
    const Timestamp t = static_cast<Timestamp>(rng.NextInt(1000));
    const std::string body = EncodeIngest(t, points);
    auto parsed = ParseIngest(body);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed.value().t, t);
    ASSERT_EQ(parsed.value().points.size(), points.size());
    EXPECT_EQ(EncodeIngest(parsed.value().t, parsed.value().points), body);
  }
}

TEST(TypedBodies, ConvoysRoundTripByteIdentical) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    std::vector<Convoy> convoys;
    const size_t n = rng.NextInt(10);
    for (size_t j = 0; j < n; ++j) {
      std::vector<ObjectId> ids;
      const size_t m = 1 + rng.NextInt(8);
      for (size_t o = 0; o < m; ++o)
        ids.push_back(static_cast<ObjectId>(rng.NextInt(100)));
      const Timestamp start = static_cast<Timestamp>(rng.NextInt(100));
      convoys.emplace_back(ObjectSet(std::move(ids)), start,
                           start + static_cast<Timestamp>(rng.NextInt(20)));
    }
    const std::string body = EncodeConvoys(convoys);
    auto parsed = ParseConvoys(body);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ(parsed.value().size(), convoys.size());
    for (size_t j = 0; j < convoys.size(); ++j)
      EXPECT_EQ(parsed.value()[j], convoys[j]);
    EXPECT_EQ(EncodeConvoys(parsed.value()), body);
  }
}

TEST(TypedBodies, ScalarMessagesRoundTrip) {
  {
    const std::string body = EncodeHello({1, 3});
    auto parsed = ParseHello(body);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().min_version, 1);
    EXPECT_EQ(parsed.value().max_version, 3);
    EXPECT_EQ(EncodeHello(parsed.value()), body);
  }
  {
    auto parsed = ParseHelloOk(EncodeHelloOk(1));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), 1);
  }
  {
    IngestAck ack;
    ack.frontier = 41;
    ack.closed_convoys = 7;
    auto parsed = ParseIngestAck(EncodeIngestAck(ack));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().frontier, 41);
    EXPECT_EQ(parsed.value().closed_convoys, 7u);
  }
  {
    PublishAck ack;
    ack.epoch = 5;
    ack.convoys = 12;
    auto parsed = ParsePublishAck(EncodePublishAck(ack));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().epoch, 5u);
    EXPECT_EQ(parsed.value().convoys, 12u);
  }
  {
    ServerStats stats;
    stats.epoch = 3;
    stats.catalog_convoys = 9;
    stats.frontier = 77;
    stats.ticks_ingested = 100;
    stats.closed_convoys = 11;
    auto parsed = ParseServerStats(EncodeServerStats(stats));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().epoch, 3u);
    EXPECT_EQ(parsed.value().frontier, 77);
    EXPECT_EQ(parsed.value().closed_convoys, 11u);
  }
  {
    auto parsed = ParseError(EncodeError(WireError::kBadCrc, "boom"));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().error, WireError::kBadCrc);
    EXPECT_EQ(parsed.value().message, "boom");
    EXPECT_FALSE(ErrorReplyStatus(parsed.value()).ok());
  }
}

TEST(TypedBodies, HostileBodiesFailCleanly) {
  Rng rng(8);
  // Random garbage through every parser: parse either succeeds or returns
  // kInvalid; it must never crash or over-read (ASan enforces the latter).
  for (int i = 0; i < 500; ++i) {
    const std::string garbage = RandomBytes(&rng, rng.NextInt(120));
    (void)ParseHello(garbage);
    (void)ParseHelloOk(garbage);
    (void)ParseIngest(garbage);
    (void)ParseIngestAck(garbage);
    (void)ParsePublishAck(garbage);
    (void)ParseQuery(garbage);
    (void)ParseTopK(garbage);
    (void)ParseConvoys(garbage);
    (void)ParseServerStats(garbage);
    (void)ParseError(garbage);
  }
  // Targeted hostile inputs with known rejections.
  {
    // Ingest whose count field lies about the body length.
    std::string body = EncodeIngest(3, {});
    body[4] = 100;  // count = 100, zero point bytes follow
    EXPECT_FALSE(ParseIngest(body).ok());
  }
  {
    // Query with an undefined predicate mask bit.
    std::string body = EncodeQuery(ConvoyQuery{});
    body[0] = static_cast<char>(0x80);
    EXPECT_FALSE(ParseQuery(body).ok());
  }
  {
    // Trailing bytes are rejected on every typed parse.
    EXPECT_FALSE(ParseQuery(EncodeQuery(ConvoyQuery{}) + "x").ok());
    EXPECT_FALSE(ParseHello(EncodeHello({1, 1}) + "x").ok());
    EXPECT_FALSE(ParseConvoys(EncodeConvoys({}) + "x").ok());
  }
  {
    // Hello with an inverted version range.
    EXPECT_FALSE(ParseHello(EncodeHello({3, 1})).ok());
  }
}

// --- end-to-end over loopback --------------------------------------------

K2ServerOptions TestServerOptions() {
  K2ServerOptions options;
  options.port = 0;  // ephemeral
  options.num_workers = 2;
  options.params = MiningParams{3, 4, 60.0};
  options.publish_every = 1;
  return options;
}

std::unique_ptr<K2Client> MustConnect(const K2Server& server) {
  auto client = K2Client::Connect({"127.0.0.1", server.port()});
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return client.ok() ? std::move(client.value()) : nullptr;
}

TEST(K2ServerTest, StartsAndStopsWithoutClients) {
  auto server = K2Server::Start(TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_GT(server.value()->port(), 0);
  EXPECT_EQ(server.value()->num_workers(), 2);
  server.value()->RequestShutdown();
  server.value()->Wait();
  EXPECT_FALSE(server.value()->running());
}

TEST(K2ServerTest, InvalidMiningParamsFailStart) {
  // m = 1 makes the miner's parameter error sticky, so such a server would
  // reject every tick; Start must refuse it before binding anything.
  K2ServerOptions options = TestServerOptions();
  options.params.m = 1;
  options.num_workers = 1;
  auto server = K2Server::Start(options);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInvalid);
}

TEST(K2ServerTest, HandshakePingAndEmptyStats) {
  auto server = K2Server::Start(TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = MustConnect(*server.value());
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->negotiated_version(), kProtocolVersion);
  EXPECT_TRUE(client->Ping().ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().ticks_ingested, 0u);
  EXPECT_EQ(stats.value().catalog_convoys, 0u);
}

TEST(K2ServerTest, WireAnswersMatchInProcessEngine) {
  auto server = K2Server::Start(TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = MustConnect(*server.value());
  ASSERT_NE(client, nullptr);

  // In-process reference with the identical publish cadence.
  MemoryStore store;
  ConvoyCatalog catalog;
  OnlineK2HopOptions hook;
  hook.on_closed = catalog.OnClosedHook(&store, 1);
  OnlineK2HopMiner miner(&store, MiningParams{3, 4, 60.0}, hook);
  catalog.Publish();

  PlantedConvoySpec spec;
  spec.num_noise_objects = 10;
  spec.num_ticks = 30;
  spec.seed = 11;
  spec.groups = {{3, 2, 20, 8.0}, {4, 5, 28, 6.0}};
  const Dataset dataset = GeneratePlantedConvoys(spec);
  for (Timestamp t : dataset.timestamps()) {
    const std::vector<SnapshotPoint> points = SnapshotPoints(dataset, t);
    auto ack = client->Ingest(t, points);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    ASSERT_TRUE(miner.AppendTick(t, points).ok());
  }
  ASSERT_TRUE(client->Publish().ok());
  catalog.Publish();

  const ConvoyQueryEngine engine(&catalog);
  std::vector<ConvoyQuery> queries;
  queries.emplace_back();
  ConvoyQuery q;
  q.object = ObjectId{0};
  queries.push_back(q);
  q = ConvoyQuery{};
  q.time_window = TimeRange{5, 25};
  queries.push_back(q);
  q = ConvoyQuery{};
  q.region = Rect{0.0, 0.0, 8000.0, 8000.0};
  queries.push_back(q);
  q.object = ObjectId{1};
  q.time_window = TimeRange{0, 30};
  queries.push_back(q);  // conjunction of all three predicates
  for (const ConvoyQuery& query : queries) {
    auto wire = client->Query(query);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    EXPECT_EQ(wire.value(), engine.Find(query));
  }
  auto top = client->TopK(ConvoyQuery{}, ConvoyRank::kLongest, 3);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(top.value(), engine.TopK(ConvoyQuery{}, ConvoyRank::kLongest, 3));
}

TEST(K2ServerTest, RejectedTickKeepsConnectionUsable) {
  auto server = K2Server::Start(TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = MustConnect(*server.value());
  ASSERT_NE(client, nullptr);
  const std::vector<SnapshotPoint> tick = {{1, 0.0, 0.0}};
  ASSERT_TRUE(client->Ingest(10, tick).ok());
  // Out-of-order tick: rejected by the miner, relayed as IngestRejected.
  auto rejected = client->Ingest(5, tick);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().ToString().find("IngestRejected"),
            std::string::npos)
      << rejected.status().ToString();
  // The connection — and the server — keep working.
  EXPECT_TRUE(client->Ping().ok());
  const std::vector<SnapshotPoint> next_tick = {{1, 1.0, 0.0}};
  EXPECT_TRUE(client->Ingest(11, next_tick).ok());
  EXPECT_TRUE(server.value()->serving_status().ok());
}

TEST(K2ServerTest, TickAtTheTopOfTheRangeIsRejected) {
  // A tick at INT32_MAX would wrap the miner's benchmark schedule, and the
  // ingest would hold the ingest lock forever: the server must reject it
  // and keep answering.
  auto server = K2Server::Start(TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = MustConnect(*server.value());
  ASSERT_NE(client, nullptr);
  const std::vector<SnapshotPoint> tick = {
      {1, 0.0, 0.0}, {2, 1.0, 0.0}, {3, 2.0, 0.0}};
  auto rejected = client->Ingest(std::numeric_limits<Timestamp>::max(), tick);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().ToString().find("IngestRejected"),
            std::string::npos)
      << rejected.status().ToString();
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_TRUE(client->Ingest(0, tick).ok());
  EXPECT_TRUE(server.value()->serving_status().ok());
}

TEST(K2ServerTest, NonFiniteCoordinateIsRejected) {
  auto server = K2Server::Start(TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = MustConnect(*server.value());
  ASSERT_NE(client, nullptr);
  // Enough points for DBSCAN's grid path, which a non-finite coordinate
  // used to crash.
  std::vector<SnapshotPoint> tick;
  for (ObjectId oid = 0; oid < 40; ++oid) tick.push_back({oid, oid * 5.0, 0.0});
  std::vector<SnapshotPoint> with_inf = tick;
  with_inf[7].x = std::numeric_limits<double>::infinity();
  std::vector<SnapshotPoint> with_nan = tick;
  with_nan[11].y = std::nan("");
  for (const auto& bad : {with_inf, with_nan}) {
    auto rejected = client->Ingest(1, bad);
    ASSERT_FALSE(rejected.ok());
    EXPECT_NE(rejected.status().ToString().find("IngestRejected"),
              std::string::npos)
        << rejected.status().ToString();
  }
  auto ack = client->Ingest(1, tick);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack.value().frontier, 1);
  EXPECT_TRUE(server.value()->serving_status().ok());
}

TEST(K2ServerTest, CorruptFrameGetsNamedErrorAndClose) {
  auto server = K2Server::Start(TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.value()->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::string hello = EncodeFrame(MessageType::kHello, 1, EncodeHello({1, 1}));
  hello[1] = static_cast<char>(hello[1] ^ 0x10);  // corrupt the CRC field
  ASSERT_EQ(::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(hello.size()));

  FrameReader reader;
  Frame frame;
  bool got_error = false;
  bool closed = false;
  char buf[4096];
  for (int i = 0; i < 1000 && !closed; ++i) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {
      closed = true;
      break;
    }
    ASSERT_GT(n, 0);
    reader.Feed(buf, static_cast<size_t>(n));
    while (reader.Next(&frame) == FrameReader::Poll::kFrame) {
      ASSERT_EQ(frame.type, MessageType::kError);
      auto parsed = ParseError(frame.body);
      ASSERT_TRUE(parsed.ok());
      EXPECT_EQ(parsed.value().error, WireError::kBadCrc);
      got_error = true;
    }
  }
  ::close(fd);
  EXPECT_TRUE(got_error);
  EXPECT_TRUE(closed);
  // The server survives and keeps serving fresh connections.
  auto client = MustConnect(*server.value());
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Ping().ok());
}

TEST(K2ServerTest, PipelinedRepliesArriveInRequestOrder) {
  auto server = K2Server::Start(TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = MustConnect(*server.value());
  ASSERT_NE(client, nullptr);

  std::vector<uint32_t> ids;
  for (int i = 0; i < 32; ++i) {
    if (i % 2 == 0) {
      ids.push_back(client->SendPing());
    } else {
      ids.push_back(client->SendQuery(ConvoyQuery{}));
    }
  }
  ASSERT_TRUE(client->Flush().ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto reply = client->Receive();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply.value().request_id, ids[i]);
    EXPECT_EQ(reply.value().type, i % 2 == 0 ? MessageType::kPong
                                             : MessageType::kConvoys);
  }
}

TEST(K2ServerTest, ConcurrentReadersDuringIngest) {
  auto server = K2Server::Start(TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::atomic<bool> stop{false};
  std::atomic<int> reader_failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&server, &stop, &reader_failures] {
      auto client = K2Client::Connect({"127.0.0.1", server.value()->port()});
      if (!client.ok()) {
        reader_failures.fetch_add(1);
        return;
      }
      ConvoyQuery window;
      window.time_window = TimeRange{0, 100};
      while (!stop.load(std::memory_order_acquire)) {
        if (!client.value()->Query(ConvoyQuery{}).ok() ||
            !client.value()->TopK(window, ConvoyRank::kLargest, 4).ok()) {
          reader_failures.fetch_add(1);
          return;
        }
      }
    });
  }

  auto writer = MustConnect(*server.value());
  ASSERT_NE(writer, nullptr);
  RandomWalkSpec spec;
  spec.num_objects = 24;
  spec.num_ticks = 40;
  spec.area = 120.0;  // dense: plenty of convoys close and publish
  spec.seed = 13;
  const Dataset dataset = GenerateRandomWalk(spec);
  for (Timestamp t : dataset.timestamps()) {
    auto ack = writer->Ingest(t, SnapshotPoints(dataset, t));
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_TRUE(server.value()->serving_status().ok());
}

TEST(K2ServerTest, ShutdownMessageDrainsGracefully) {
  auto server = K2Server::Start(TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = MustConnect(*server.value());
  ASSERT_NE(client, nullptr);
  const std::vector<SnapshotPoint> tick = {{1, 0.0, 0.0}, {2, 1.0, 0.0}};
  ASSERT_TRUE(client->Ingest(1, tick).ok());
  EXPECT_TRUE(client->Shutdown().ok());
  server.value()->Wait();
  EXPECT_FALSE(server.value()->running());
  EXPECT_TRUE(server.value()->serving_status().ok());
  // Post-shutdown connections are refused or die; either way, no answer.
  auto late = K2Client::Connect({"127.0.0.1", server.value()->port()});
  if (late.ok()) {
    EXPECT_FALSE(late.value()->Ping().ok());
  }
}

TEST(K2ServerTest, HelloVersionMismatchIsRejected) {
  auto server = K2Server::Start(TestServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.value()->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string hello =
      EncodeFrame(MessageType::kHello, 1, EncodeHello({17, 99}));
  ASSERT_EQ(::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(hello.size()));
  FrameReader reader;
  Frame frame;
  char buf[4096];
  bool got_reply = false;
  while (!got_reply) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    reader.Feed(buf, static_cast<size_t>(n));
    if (reader.Next(&frame) == FrameReader::Poll::kFrame) got_reply = true;
  }
  ::close(fd);
  ASSERT_EQ(frame.type, MessageType::kError);
  auto parsed = ParseError(frame.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().error, WireError::kBadVersion);
}

}  // namespace
}  // namespace k2::net
