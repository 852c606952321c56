/// The RPC transport's acceptance harness: framing and wire serialization
/// round-trip bit-exactly, every malformed input is rejected without
/// losing a healthy connection, and — the centerpiece — a seeded sweep of
/// byte-level fault schedules (truncate, bitflip, disconnect, stall,
/// duplicate, garbage, in both directions) through the FaultProxy, where
/// every mangled stream must end in either a bit-exact correct response
/// or a clean transport error inside the deadline. Never a
/// corrupt-accepted response, never a hung leg, never a leaked
/// connection.
///
/// A failing schedule prints its FaultScript and the seed; replay with
///   XCLEAN_RPC_SEED=<seed> ctest -R rpc_transport_test

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/durable_file.h"
#include "common/random.h"
#include "rpc/fault_proxy.h"
#include "rpc/frame.h"
#include "rpc/rpc_client.h"
#include "rpc/rpc_shard_server.h"
#include "rpc/socket.h"
#include "rpc/wire.h"
#include "shard/shard_server.h"
#include "tests/shard_testutil.h"

namespace xclean::rpc {
namespace {

using shard::ShardBackend;
using shard::ShardRequest;
using shard::ShardResponse;

/// Replay seed: XCLEAN_RPC_SEED wins, else the shared shard seed.
uint64_t RpcBaseSeed() {
  const char* env = std::getenv("XCLEAN_RPC_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return shardtest::ShardBaseSeed();
}

size_t ScheduleCount() {
  const char* env = std::getenv("XCLEAN_RPC_SCHEDULES");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 160;
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// The canned answer the scripted backend serves: enough structure to make
/// a bit-exact comparison meaningful — multiple partials, doubles that do
/// not survive any lossy detour (denormals, non-representable decimals,
/// huge magnitudes), and every response field set off its default.
ShardResponse CannedResponse() {
  ShardResponse r;
  r.status = Status::Ok();
  r.shard_id = 3;
  r.generation = 41;
  r.tier = ServiceTier::kReduced;
  r.truncated = false;
  r.cancel_cause = CancelCause::kNone;
  const double weights[] = {0.1, 5e-324, 1e300, 0.0, 1.0 / 3.0, 2.5e-17};
  for (uint32_t i = 0; i < 6; ++i) {
    PartialCandidate p;
    for (uint32_t t = 0; t <= i % 3; ++t) p.tokens.push_back(100 * i + t);
    p.error_weight = weights[i];
    p.sum = weights[5 - i] * 7.0 + static_cast<double>(i);
    p.entity_count = 10 + i;
    p.lca_total = 20 + i;
    p.result_type = (i == 4) ? XmlTree::kInvalidPath : i;
    r.partials.push_back(p);
  }
  r.run_stats.subtrees_processed = 11;
  r.run_stats.occurrences_collected = 22;
  r.run_stats.candidates_enumerated = 33;
  r.run_stats.entities_scored = 44;
  r.run_stats.result_type_computations = 55;
  r.run_stats.accumulator_evictions = 66;
  r.run_stats.accumulators_final = 77;
  r.run_stats.truncated = true;
  r.run_stats.cancel_cause = CancelCause::kPostings;
  return r;
}

/// Field-by-field bit-exact comparison; doubles compared by bit pattern
/// (NaNs and signed zeros would slip through operator==).
void ExpectBitExact(const ShardResponse& got, const ShardResponse& want,
                    const std::string& context) {
  EXPECT_EQ(got.status.code(), want.status.code()) << context;
  EXPECT_EQ(got.shard_id, want.shard_id) << context;
  EXPECT_EQ(got.generation, want.generation) << context;
  EXPECT_EQ(got.tier, want.tier) << context;
  EXPECT_EQ(got.truncated, want.truncated) << context;
  EXPECT_EQ(got.cancel_cause, want.cancel_cause) << context;
  ASSERT_EQ(got.partials.size(), want.partials.size()) << context;
  for (size_t i = 0; i < want.partials.size(); ++i) {
    const PartialCandidate& g = got.partials[i];
    const PartialCandidate& w = want.partials[i];
    EXPECT_EQ(g.tokens, w.tokens) << context << " partial " << i;
    EXPECT_EQ(DoubleBits(g.error_weight), DoubleBits(w.error_weight))
        << context << " partial " << i;
    EXPECT_EQ(DoubleBits(g.sum), DoubleBits(w.sum))
        << context << " partial " << i;
    EXPECT_EQ(g.entity_count, w.entity_count) << context << " partial " << i;
    EXPECT_EQ(g.lca_total, w.lca_total) << context << " partial " << i;
    EXPECT_EQ(g.result_type, w.result_type) << context << " partial " << i;
  }
  EXPECT_EQ(got.run_stats.subtrees_processed,
            want.run_stats.subtrees_processed)
      << context;
  EXPECT_EQ(got.run_stats.occurrences_collected,
            want.run_stats.occurrences_collected)
      << context;
  EXPECT_EQ(got.run_stats.candidates_enumerated,
            want.run_stats.candidates_enumerated)
      << context;
  EXPECT_EQ(got.run_stats.entities_scored, want.run_stats.entities_scored)
      << context;
  EXPECT_EQ(got.run_stats.result_type_computations,
            want.run_stats.result_type_computations)
      << context;
  EXPECT_EQ(got.run_stats.accumulator_evictions,
            want.run_stats.accumulator_evictions)
      << context;
  EXPECT_EQ(got.run_stats.accumulators_final,
            want.run_stats.accumulators_final)
      << context;
  EXPECT_EQ(got.run_stats.truncated, want.run_stats.truncated) << context;
  EXPECT_EQ(got.run_stats.cancel_cause, want.run_stats.cancel_cause)
      << context;
}

/// A deterministic backend for transport tests: serves the canned response
/// after an optional delay, optionally spinning until the request's
/// external-cancel flag fires (to exercise the cancel frame end to end).
class ScriptedBackend final : public ShardBackend {
 public:
  ShardResponse canned = CannedResponse();
  /// Atomic because tests flip it back to zero while a server-side
  /// evaluation of an already-abandoned request may still be reading it.
  std::atomic<int64_t> eval_delay_ms{0};
  bool wait_for_cancel = false;

  ShardResponse Evaluate(const ShardRequest& request) override {
    evaluations.fetch_add(1, std::memory_order_relaxed);
    started.store(true, std::memory_order_release);
    if (wait_for_cancel) {
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (std::chrono::steady_clock::now() < give_up) {
        if (request.external_cancel != nullptr &&
            request.external_cancel->load(std::memory_order_acquire)) {
          ShardResponse r = canned;
          r.truncated = true;
          r.cancel_cause = CancelCause::kExternal;
          return r;
        }
        if (request.deadline != std::chrono::steady_clock::time_point::max() &&
            std::chrono::steady_clock::now() >= request.deadline) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      ShardResponse r = canned;
      r.truncated = true;
      r.cancel_cause = CancelCause::kDeadline;
      return r;
    }
    const int64_t delay_ms = eval_delay_ms.load(std::memory_order_acquire);
    if (delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    return canned;
  }

  std::atomic<uint64_t> evaluations{0};
  std::atomic<bool> started{false};
};

ShardRequest TestRequest() {
  ShardRequest request;
  request.query.keywords = {"tree", "indx"};
  request.expected_generation = 41;
  request.queue_depth = 2;
  request.queue_capacity = 8;
  return request;
}

// ---------------------------------------------------------------------------
// Framing layer.
// ---------------------------------------------------------------------------

TEST(FrameTest, RoundTripAllTypes) {
  std::string stream;
  EncodeFrame(FrameType::kRequest, 7, "hello", stream);
  EncodeFrame(FrameType::kResponse, 8, std::string(1000, 'x'), stream);
  EncodeFrame(FrameType::kCancel, 9, "", stream);

  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());

  DecodeEvent e = decoder.Next();
  ASSERT_EQ(e.outcome, DecodeOutcome::kFrame);
  EXPECT_EQ(e.frame.type, FrameType::kRequest);
  EXPECT_EQ(e.frame.request_id, 7u);
  EXPECT_EQ(e.frame.payload, "hello");

  e = decoder.Next();
  ASSERT_EQ(e.outcome, DecodeOutcome::kFrame);
  EXPECT_EQ(e.frame.type, FrameType::kResponse);
  EXPECT_EQ(e.frame.request_id, 8u);
  EXPECT_EQ(e.frame.payload.size(), 1000u);

  e = decoder.Next();
  ASSERT_EQ(e.outcome, DecodeOutcome::kFrame);
  EXPECT_EQ(e.frame.type, FrameType::kCancel);
  EXPECT_EQ(e.frame.request_id, 9u);
  EXPECT_TRUE(e.frame.payload.empty());

  EXPECT_EQ(decoder.Next().outcome, DecodeOutcome::kNeedMore);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameTest, ByteAtATimeFeeding) {
  std::string stream;
  EncodeFrame(FrameType::kRequest, 42, "incremental payload", stream);

  FrameDecoder decoder;
  for (size_t i = 0; i + 1 < stream.size(); ++i) {
    decoder.Feed(&stream[i], 1);
    EXPECT_EQ(decoder.Next().outcome, DecodeOutcome::kNeedMore)
        << "byte " << i;
  }
  decoder.Feed(&stream[stream.size() - 1], 1);
  DecodeEvent e = decoder.Next();
  ASSERT_EQ(e.outcome, DecodeOutcome::kFrame);
  EXPECT_EQ(e.frame.request_id, 42u);
  EXPECT_EQ(e.frame.payload, "incremental payload");
}

TEST(FrameTest, PayloadBitflipIsCorruptFrameAndStreamSurvives) {
  std::string stream;
  EncodeFrame(FrameType::kRequest, 77, "precious bytes", stream);
  stream[kFrameHeaderSize + 3] ^= 0x10;  // flip a payload bit
  EncodeFrame(FrameType::kRequest, 78, "healthy frame", stream);

  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());

  DecodeEvent e = decoder.Next();
  ASSERT_EQ(e.outcome, DecodeOutcome::kCorruptFrame);
  EXPECT_EQ(e.frame.request_id, 77u);  // best-effort header values survive
  EXPECT_EQ(e.status.code(), StatusCode::kDataLoss);
  EXPECT_FALSE(decoder.fatal());

  // The stream stayed framed: the next frame decodes normally.
  e = decoder.Next();
  ASSERT_EQ(e.outcome, DecodeOutcome::kFrame);
  EXPECT_EQ(e.frame.request_id, 78u);
  EXPECT_EQ(e.frame.payload, "healthy frame");
}

TEST(FrameTest, HeaderBitflipIsFatalAndSticky) {
  std::string stream;
  EncodeFrame(FrameType::kRequest, 5, "payload", stream);
  stream[10] ^= 0x01;  // inside the checksummed header region

  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  EXPECT_EQ(decoder.Next().outcome, DecodeOutcome::kFatal);
  EXPECT_TRUE(decoder.fatal());

  // Sticky: more bytes are discarded, the verdict never changes.
  std::string good;
  EncodeFrame(FrameType::kRequest, 6, "x", good);
  decoder.Feed(good.data(), good.size());
  EXPECT_EQ(decoder.Next().outcome, DecodeOutcome::kFatal);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameTest, GarbagePrefixIsFatal) {
  FrameDecoder decoder;
  // A full header's worth of not-our-protocol bytes (the decoder judges
  // the magic once 32 bytes are buffered).
  std::string garbage = "GET /suggest HTTP/1.1\r\nHost: no\r\n\r\n";
  ASSERT_GE(garbage.size(), kFrameHeaderSize);
  decoder.Feed(garbage.data(), garbage.size());
  EXPECT_EQ(decoder.Next().outcome, DecodeOutcome::kFatal);
}

/// Patches byte `offset` of the 24-byte checksummed header region and
/// recomputes the header checksum, producing a frame that is *internally
/// consistent* but violates a semantic header rule — the only way to reach
/// the version/length/type checks behind the checksum.
void PatchHeader(std::string& stream, size_t offset, uint8_t value) {
  stream[offset] = static_cast<char>(value);
  const uint64_t fnv = Fnv1a(stream.data(), 24);
  for (int i = 0; i < 8; ++i) {
    stream[24 + i] = static_cast<char>((fnv >> (8 * i)) & 0xFF);
  }
}

TEST(FrameTest, WrongVersionIsFatal) {
  std::string stream;
  EncodeFrame(FrameType::kRequest, 1, "payload", stream);
  PatchHeader(stream, 2, kProtocolVersion + 1);

  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  DecodeEvent e = decoder.Next();
  EXPECT_EQ(e.outcome, DecodeOutcome::kFatal);
  // An honest version mismatch is InvalidArgument (an old-version peer),
  // not DataLoss — the header checksum already proved the bytes intact.
  EXPECT_EQ(e.status.code(), StatusCode::kInvalidArgument);
}

TEST(FrameTest, OversizedLengthIsFatalFromHeaderAlone) {
  std::string stream;
  EncodeFrame(FrameType::kRequest, 1, "p", stream);
  // Declare a 256 MiB payload (little-endian at offset 4), checksum fixed.
  stream[4] = 0;
  stream[5] = 0;
  stream[6] = 0;
  PatchHeader(stream, 7, 0x10);

  FrameDecoder decoder;
  // Feed ONLY the header: the length must be rejected before the decoder
  // waits for (or allocates) a quarter-gigabyte body.
  decoder.Feed(stream.data(), kFrameHeaderSize);
  EXPECT_EQ(decoder.Next().outcome, DecodeOutcome::kFatal);
}

TEST(FrameTest, UnknownTypeIsCorruptFrameNotFatal) {
  std::string stream;
  EncodeFrame(FrameType::kRequest, 33, "payload", stream);
  PatchHeader(stream, 3, 9);  // no such FrameType
  EncodeFrame(FrameType::kCancel, 34, "", stream);

  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  DecodeEvent e = decoder.Next();
  ASSERT_EQ(e.outcome, DecodeOutcome::kCorruptFrame);
  EXPECT_EQ(e.frame.request_id, 33u);
  // Connection-worthy: the cancel frame behind it still decodes.
  e = decoder.Next();
  ASSERT_EQ(e.outcome, DecodeOutcome::kFrame);
  EXPECT_EQ(e.frame.type, FrameType::kCancel);
}

TEST(FrameTest, CustomPayloadCapApplies) {
  std::string stream;
  EncodeFrame(FrameType::kRequest, 1, std::string(2048, 'a'), stream);
  FrameDecoder decoder(/*max_payload=*/1024);
  decoder.Feed(stream.data(), stream.size());
  EXPECT_EQ(decoder.Next().outcome, DecodeOutcome::kFatal);
}

// ---------------------------------------------------------------------------
// Wire serialization.
// ---------------------------------------------------------------------------

TEST(WireTest, RequestRoundTripReanchorsDeadline) {
  const auto now = std::chrono::steady_clock::now();
  ShardRequest request = TestRequest();
  request.deadline = now + std::chrono::milliseconds(250);

  std::string payload;
  EncodeShardRequest(request, now, payload);

  ShardRequest decoded;
  ASSERT_TRUE(DecodeShardRequest(payload, now, &decoded).ok());
  EXPECT_EQ(decoded.query.keywords, request.query.keywords);
  EXPECT_EQ(decoded.queue_depth, request.queue_depth);
  EXPECT_EQ(decoded.queue_capacity, request.queue_capacity);
  EXPECT_EQ(decoded.expected_generation, request.expected_generation);
  EXPECT_EQ(decoded.external_cancel, nullptr);
  // Same anchor in and out: the relative budget reproduces the deadline
  // exactly (the wire carries whole nanoseconds).
  EXPECT_EQ(decoded.deadline, request.deadline);

  // A different decode anchor shifts the deadline by exactly the anchor
  // delta — the skew-immunity property.
  const auto later = now + std::chrono::milliseconds(40);
  ShardRequest shifted;
  ASSERT_TRUE(DecodeShardRequest(payload, later, &shifted).ok());
  EXPECT_EQ(shifted.deadline - later, request.deadline - now);
}

TEST(WireTest, NoDeadlineSentinelRoundTrips) {
  const auto now = std::chrono::steady_clock::now();
  ShardRequest request = TestRequest();  // deadline stays time_point::max()
  std::string payload;
  EncodeShardRequest(request, now, payload);
  ShardRequest decoded;
  ASSERT_TRUE(DecodeShardRequest(payload, now, &decoded).ok());
  EXPECT_EQ(decoded.deadline, std::chrono::steady_clock::time_point::max());
}

TEST(WireTest, ExpiredDeadlineStaysExpired) {
  const auto now = std::chrono::steady_clock::now();
  ShardRequest request = TestRequest();
  request.deadline = now - std::chrono::seconds(3);  // long dead
  std::string payload;
  EncodeShardRequest(request, now, payload);
  ShardRequest decoded;
  ASSERT_TRUE(DecodeShardRequest(payload, now, &decoded).ok());
  // Clamped to a zero budget, not resurrected and not underflowed.
  EXPECT_LE(decoded.deadline, now);
  EXPECT_GE(decoded.deadline, now - std::chrono::seconds(1));
}

TEST(WireTest, ResponseRoundTripsBitExactly) {
  const ShardResponse response = CannedResponse();
  std::string payload;
  EncodeShardResponse(response, payload);
  ShardResponse decoded;
  ASSERT_TRUE(DecodeShardResponse(payload, &decoded).ok());
  ExpectBitExact(decoded, response, "wire round-trip");
}

TEST(WireTest, ErrorStatusRoundTrips) {
  ShardResponse response;
  response.status = Status::Unavailable("ladder shed: kShed");
  response.shard_id = 9;
  std::string payload;
  EncodeShardResponse(response, payload);
  ShardResponse decoded;
  ASSERT_TRUE(DecodeShardResponse(payload, &decoded).ok());
  EXPECT_EQ(decoded.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(decoded.status.message(), "ladder shed: kShed");
  EXPECT_EQ(decoded.shard_id, 9u);
}

/// Every strict prefix of a valid payload must fail decode cleanly:
/// truncation can tear the payload at any byte and none of the tears may
/// crash, over-read, or decode to a different response.
TEST(WireTest, EveryResponsePrefixRejectedCleanly) {
  std::string payload;
  EncodeShardResponse(CannedResponse(), payload);
  for (size_t len = 0; len < payload.size(); ++len) {
    ShardResponse decoded;
    const Status status =
        DecodeShardResponse(payload.substr(0, len), &decoded);
    EXPECT_FALSE(status.ok()) << "prefix length " << len;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << "prefix " << len;
  }
}

TEST(WireTest, EveryRequestPrefixRejectedCleanly) {
  const auto now = std::chrono::steady_clock::now();
  ShardRequest request = TestRequest();
  request.deadline = now + std::chrono::milliseconds(100);
  std::string payload;
  EncodeShardRequest(request, now, payload);
  for (size_t len = 0; len < payload.size(); ++len) {
    ShardRequest decoded;
    EXPECT_FALSE(
        DecodeShardRequest(payload.substr(0, len), now, &decoded).ok())
        << "prefix length " << len;
  }
}

TEST(WireTest, TrailingBytesRejected) {
  const auto now = std::chrono::steady_clock::now();
  std::string req_payload;
  EncodeShardRequest(TestRequest(), now, req_payload);
  req_payload.push_back('\0');
  ShardRequest request;
  EXPECT_FALSE(DecodeShardRequest(req_payload, now, &request).ok());

  std::string resp_payload;
  EncodeShardResponse(CannedResponse(), resp_payload);
  resp_payload.push_back('x');
  ShardResponse response;
  EXPECT_FALSE(DecodeShardResponse(resp_payload, &response).ok());
}

TEST(WireTest, RequestLimitsEnforced) {
  const auto now = std::chrono::steady_clock::now();
  ShardRequest huge;
  for (int i = 0; i < 65; ++i) huge.query.keywords.push_back("kw");
  std::string payload;
  EncodeShardRequest(huge, now, payload);
  ShardRequest decoded;
  EXPECT_EQ(DecodeShardRequest(payload, now, &decoded).code(),
            StatusCode::kDataLoss);

  ShardRequest long_kw;
  long_kw.query.keywords.push_back(std::string(2000, 'a'));
  payload.clear();
  EncodeShardRequest(long_kw, now, payload);
  EXPECT_EQ(DecodeShardRequest(payload, now, &decoded).code(),
            StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Client/server over loopback.
// ---------------------------------------------------------------------------

RpcClientOptions FastClientOptions() {
  RpcClientOptions options;
  options.connect_timeout = std::chrono::milliseconds(500);
  options.default_read_timeout = std::chrono::milliseconds(2000);
  options.max_dial_attempts = 2;
  options.dial_backoff.initial = std::chrono::milliseconds(5);
  options.dial_backoff.cap = std::chrono::milliseconds(20);
  return options;
}

/// Polls a condition with a real-time budget (server-side gauges settle
/// asynchronously after sockets close).
template <typename Predicate>
bool PollUntil(Predicate pred, std::chrono::milliseconds budget) {
  const auto give_up = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < give_up) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

TEST(RpcLoopbackTest, EvaluateReturnsBitExactResponse) {
  ScriptedBackend backend;
  RpcShardServer server(&backend);
  ASSERT_TRUE(server.Start().ok());

  RpcShardBackend client(server.port(), 3, FastClientOptions());
  const ShardResponse response = client.Evaluate(TestRequest());
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ExpectBitExact(response, backend.canned, "loopback evaluate");

  EXPECT_EQ(client.stats().requests, 1u);
  EXPECT_EQ(client.stats().responses, 1u);
  EXPECT_EQ(server.stats().requests, 1u);
  // The server counts a response once SendAll returns, which can be after
  // the client has already read it.
  EXPECT_TRUE(PollUntil([&] { return server.stats().responses_sent == 1u; },
                        std::chrono::milliseconds(3000)));
  EXPECT_EQ(server.stats().responses_sent, 1u);
  EXPECT_EQ(backend.evaluations.load(), 1u);
}

TEST(RpcLoopbackTest, HealthyConnectionIsReused) {
  ScriptedBackend backend;
  RpcShardServer server(&backend);
  ASSERT_TRUE(server.Start().ok());

  RpcShardBackend client(server.port(), 3, FastClientOptions());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.Evaluate(TestRequest()).status.ok()) << "call " << i;
  }
  EXPECT_EQ(client.stats().dials, 1u);
  EXPECT_EQ(client.stats().pooled_reuses, 4u);
  EXPECT_EQ(client.pooled_connections(), 1u);
  EXPECT_EQ(server.stats().connections_accepted, 1u);
}

TEST(RpcLoopbackTest, ConcurrentEvaluatesAllSucceed) {
  ScriptedBackend backend;
  RpcServerOptions sopts;
  sopts.max_connections = 16;
  sopts.eval_threads = 8;
  RpcShardServer server(&backend, sopts);
  ASSERT_TRUE(server.Start().ok());

  RpcShardBackend client(server.port(), 3, FastClientOptions());
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 5;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&client, &backend, &failures] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        const ShardResponse r = client.Evaluate(TestRequest());
        if (!r.status.ok() ||
            r.partials.size() != backend.canned.partials.size()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(client.stats().responses,
            static_cast<uint64_t>(kThreads * kCallsPerThread));
  EXPECT_EQ(backend.evaluations.load(),
            static_cast<uint64_t>(kThreads * kCallsPerThread));
}

TEST(RpcLoopbackTest, SlowBackendHitsClientDeadlineCleanly) {
  ScriptedBackend backend;
  backend.eval_delay_ms.store(400, std::memory_order_release);
  RpcShardServer server(&backend);
  ASSERT_TRUE(server.Start().ok());

  RpcShardBackend client(server.port(), 3, FastClientOptions());
  ShardRequest request = TestRequest();
  request.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(80);
  const auto t0 = std::chrono::steady_clock::now();
  const ShardResponse response = client.Evaluate(request);
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_FALSE(response.status.ok());
  EXPECT_LT(elapsed, std::chrono::milliseconds(2000)) << "hung leg";
  EXPECT_EQ(client.stats().timeouts, 1u);
  // The timed-out connection must not be reused for the next call.
  EXPECT_EQ(client.pooled_connections(), 0u);
  EXPECT_GE(client.stats().connections_evicted, 1u);

  // The client recovers on a fresh connection once the backend is quick.
  backend.eval_delay_ms.store(0, std::memory_order_release);
  ASSERT_TRUE(PollUntil(
      [&] { return client.Evaluate(TestRequest()).status.ok(); },
      std::chrono::milliseconds(3000)));
}

TEST(RpcLoopbackTest, ExternalCancelPropagatesAsCancelFrame) {
  ScriptedBackend backend;
  backend.wait_for_cancel = true;
  RpcShardServer server(&backend);
  ASSERT_TRUE(server.Start().ok());

  RpcClientOptions copts = FastClientOptions();
  copts.cancel_linger = std::chrono::milliseconds(1000);
  RpcShardBackend client(server.port(), 3, copts);

  std::atomic<bool> cancel{false};
  ShardRequest request = TestRequest();
  request.deadline = std::chrono::steady_clock::now() + std::chrono::seconds(4);
  request.external_cancel = &cancel;

  std::thread trigger([&backend, &cancel] {
    // Raise the kill switch once the evaluation is actually running.
    while (!backend.started.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    cancel.store(true, std::memory_order_release);
  });

  const auto t0 = std::chrono::steady_clock::now();
  const ShardResponse response = client.Evaluate(request);
  trigger.join();

  // The server noticed the cancel frame, the backend returned its
  // truncated partial answer, and the stream delivered it — well before
  // the request's own 4 s deadline.
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.truncated);
  EXPECT_EQ(response.cancel_cause, CancelCause::kExternal);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(3));
  EXPECT_EQ(client.stats().cancels_sent, 1u);
  EXPECT_TRUE(PollUntil(
      [&] { return server.stats().cancels_applied >= 1; },
      std::chrono::milliseconds(1000)));
}

TEST(RpcLoopbackTest, CorruptPayloadFrameKeepsConnection) {
  ScriptedBackend backend;
  RpcShardServer server(&backend);
  ASSERT_TRUE(server.Start().ok());

  Result<Socket> dialed =
      DialLoopback(server.port(), std::chrono::milliseconds(1000));
  ASSERT_TRUE(dialed.ok());
  Socket socket = std::move(dialed).value();

  const auto now = std::chrono::steady_clock::now();
  std::string request_payload;
  EncodeShardRequest(TestRequest(), now, request_payload);

  // Frame 1: valid. Frame 2: payload bit flipped (checksum fails, header
  // intact). Frame 3: valid. One connection, three answers expected.
  std::string stream;
  EncodeFrame(FrameType::kRequest, 1, request_payload, stream);
  const size_t corrupt_at = stream.size() + kFrameHeaderSize + 2;
  EncodeFrame(FrameType::kRequest, 2, request_payload, stream);
  stream[corrupt_at] ^= 0x40;
  EncodeFrame(FrameType::kRequest, 3, request_payload, stream);

  const auto deadline = now + std::chrono::seconds(5);
  ASSERT_TRUE(
      SendAll(socket, stream.data(), stream.size(), deadline, nullptr).ok());

  FrameDecoder decoder;
  std::vector<Frame> responses;
  char buf[4096];
  while (responses.size() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    Result<size_t> got =
        RecvSome(socket, buf, sizeof(buf), std::chrono::milliseconds(100));
    if (!got.ok()) continue;
    ASSERT_GT(got.value(), 0u) << "server closed a recoverable connection";
    decoder.Feed(buf, got.value());
    for (;;) {
      DecodeEvent e = decoder.Next();
      if (e.outcome != DecodeOutcome::kFrame) break;
      responses.push_back(std::move(e.frame));
    }
  }
  ASSERT_EQ(responses.size(), 3u);

  uint64_t ok_count = 0;
  uint64_t data_loss_count = 0;
  for (const Frame& frame : responses) {
    ShardResponse response;
    ASSERT_TRUE(DecodeShardResponse(frame.payload, &response).ok());
    if (response.status.ok()) {
      ++ok_count;
      ExpectBitExact(response, backend.canned, "in-stream survivor");
    } else if (response.status.code() == StatusCode::kDataLoss) {
      ++data_loss_count;
      EXPECT_EQ(frame.request_id, 2u);
    }
  }
  EXPECT_EQ(ok_count, 2u);
  EXPECT_EQ(data_loss_count, 1u);
  EXPECT_EQ(server.stats().corrupt_frames, 1u);
  EXPECT_EQ(server.stats().fatal_streams, 0u);
}

TEST(RpcLoopbackTest, FatalStreamClosesOnlyThatConnection) {
  ScriptedBackend backend;
  RpcShardServer server(&backend);
  ASSERT_TRUE(server.Start().ok());

  // Healthy client first, so its pooled connection predates the attack.
  RpcShardBackend client(server.port(), 3, FastClientOptions());
  ASSERT_TRUE(client.Evaluate(TestRequest()).status.ok());

  Result<Socket> attacker =
      DialLoopback(server.port(), std::chrono::milliseconds(1000));
  ASSERT_TRUE(attacker.ok());
  const std::string junk(64, 'Z');
  ASSERT_TRUE(SendAll(attacker.value(), junk.data(), junk.size(),
                      std::chrono::steady_clock::now() +
                          std::chrono::seconds(2),
                      nullptr)
                  .ok());
  // The attacker's connection dies (EOF) ...
  char buf[16];
  ASSERT_TRUE(PollUntil(
      [&] {
        Result<size_t> got = RecvSome(attacker.value(), buf, sizeof(buf),
                                      std::chrono::milliseconds(50));
        return got.ok() && got.value() == 0;
      },
      std::chrono::milliseconds(3000)));
  EXPECT_GE(server.stats().fatal_streams, 1u);

  // ... while the healthy client's pooled connection still works.
  const ShardResponse response = client.Evaluate(TestRequest());
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(client.stats().dials, 1u) << "healthy connection was torn down";
}

TEST(RpcLoopbackTest, GracefulShutdownFlushesInflightResponse) {
  ScriptedBackend backend;
  backend.eval_delay_ms.store(200, std::memory_order_release);
  auto server = std::make_unique<RpcShardServer>(&backend);
  ASSERT_TRUE(server->Start().ok());

  RpcShardBackend client(server->port(), 3, FastClientOptions());
  ShardResponse response;
  std::thread call([&] { response = client.Evaluate(TestRequest()); });

  // Wait until the evaluation is genuinely in flight, then drain.
  ASSERT_TRUE(PollUntil(
      [&] { return backend.started.load(std::memory_order_acquire); },
      std::chrono::milliseconds(3000)));
  server->Shutdown();
  call.join();

  ASSERT_TRUE(response.status.ok())
      << "drain dropped an in-flight response: " << response.status.ToString();
  ExpectBitExact(response, backend.canned, "drained response");
  EXPECT_EQ(server->stats().connections_open, 0u);
}

TEST(RpcLoopbackTest, ClientReconnectsThroughServerRestart) {
  ScriptedBackend backend;
  auto server = std::make_unique<RpcShardServer>(&backend);
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();

  RpcShardBackend client(port, 3, FastClientOptions());
  ASSERT_TRUE(client.Evaluate(TestRequest()).status.ok());
  ASSERT_EQ(client.pooled_connections(), 1u);

  server->Shutdown();
  server.reset();

  // Same port, new process-equivalent. The pooled connection is dead; the
  // client must notice (EOF on the stale socket) and redial.
  RpcServerOptions sopts;
  sopts.port = port;
  RpcShardServer reborn(&backend, sopts);
  ASSERT_TRUE(reborn.Start().ok());

  const ShardResponse response = client.Evaluate(TestRequest());
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ExpectBitExact(response, backend.canned, "post-restart response");
  EXPECT_GE(client.stats().connections_evicted, 1u);
  EXPECT_GE(client.stats().dials, 2u);
}

// ---------------------------------------------------------------------------
// The seeded byte-fault schedule sweep.
// ---------------------------------------------------------------------------

/// One schedule: a fresh client speaks to the long-lived server through a
/// fresh FaultProxy carrying a seeded script. The invariants checked per
/// schedule are the PR's acceptance bar.
struct SweepCounters {
  uint64_t clean_ok = 0;
  uint64_t data_loss = 0;
  uint64_t unavailable = 0;
  uint64_t deadline = 0;
};

TEST(RpcFaultSweepTest, MangledStreamsNeverCorruptHangOrLeak) {
  const uint64_t base = RpcBaseSeed();
  const size_t schedules = ScheduleCount();

  ScriptedBackend backend;
  RpcServerOptions sopts;
  sopts.max_connections = 8;
  sopts.eval_threads = 2;
  sopts.idle_timeout = std::chrono::milliseconds(2000);
  sopts.write_timeout = std::chrono::milliseconds(2000);
  RpcShardServer server(&backend);
  ASSERT_TRUE(server.Start().ok());

  // Measure the honest wire sizes once, so fault offsets land where the
  // bytes actually are (plus a margin that leaves some schedules clean).
  std::string request_payload;
  EncodeShardRequest(TestRequest(), std::chrono::steady_clock::now(),
                     request_payload);
  std::string request_stream;
  EncodeFrame(FrameType::kRequest, 1, request_payload, request_stream);
  std::string response_payload;
  EncodeShardResponse(backend.canned, response_payload);
  std::string response_stream;
  EncodeFrame(FrameType::kResponse, 1, response_payload, response_stream);

  SweepCounters counters;
  for (size_t k = 0; k < schedules; ++k) {
    const uint64_t schedule_seed = base + 0xC0FFEEull + k;
    Rng rng(schedule_seed * 0x9E3779B97F4A7C15ull + 11);

    FaultScript script;
    script.kind = static_cast<MangleKind>(1 + rng.Uniform(6));
    script.server_to_client = rng.Bernoulli(0.5);
    const size_t dir_len = script.server_to_client ? response_stream.size()
                                                   : request_stream.size();
    script.byte_offset = rng.Uniform(dir_len + 32);
    script.bit = static_cast<uint32_t>(rng.Uniform(8));
    script.garbage_len = static_cast<uint32_t>(1 + rng.Uniform(64));
    script.seed = schedule_seed;
    const std::string context = "schedule " + std::to_string(k) + " seed " +
                                std::to_string(schedule_seed) + " " +
                                script.ToString();
    SCOPED_TRACE(context);

    FaultProxy proxy(server.port());
    ASSERT_TRUE(proxy.Start().ok());
    proxy.SetScript(script);

    {
      RpcClientOptions copts = FastClientOptions();
      copts.connect_timeout = std::chrono::milliseconds(300);
      copts.max_dial_attempts = 2;
      RpcShardBackend client(proxy.port(), 3, copts);

      ShardRequest request = TestRequest();
      request.deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
      const auto t0 = std::chrono::steady_clock::now();
      const ShardResponse response = client.Evaluate(request);
      const auto elapsed = std::chrono::steady_clock::now() - t0;

      // No hung legs: every outcome arrives within the deadline plus
      // bounded transport slack, fault or no fault.
      EXPECT_LT(elapsed, std::chrono::milliseconds(2500)) << "hung leg";

      if (response.status.ok()) {
        // The one way a mangled stream may still answer ok: the bytes
        // that reached the application were the true bytes. Bit-exact or
        // it counts as corrupt-accepted.
        ExpectBitExact(response, backend.canned, context);
        ++counters.clean_ok;
      } else {
        switch (response.status.code()) {
          case StatusCode::kDataLoss:
            ++counters.data_loss;
            break;
          case StatusCode::kUnavailable:
            ++counters.unavailable;
            break;
          case StatusCode::kDeadlineExceeded:
            ++counters.deadline;
            break;
          default:
            ADD_FAILURE() << context << ": unexpected error class "
                          << response.status.ToString();
        }
      }
    }
    proxy.Shutdown();

    // No leaked connections: with the proxy gone and the client destroyed,
    // the server's gauge must return to zero (its readers see EOF).
    EXPECT_TRUE(PollUntil(
        [&] { return server.stats().connections_open == 0; },
        std::chrono::milliseconds(4000)))
        << context << ": leaked connections, gauge="
        << server.stats().connections_open;
    if (::testing::Test::HasFatalFailure()) break;
  }

  // The server survived every schedule: a direct (unproxied) client still
  // gets a bit-exact answer.
  RpcShardBackend direct(server.port(), 3, FastClientOptions());
  const ShardResponse after = direct.Evaluate(TestRequest());
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  ExpectBitExact(after, backend.canned, "post-sweep direct evaluate");

  // The sweep must actually have exercised both regimes.
  EXPECT_GT(counters.clean_ok + counters.data_loss + counters.unavailable +
                counters.deadline,
            0u);
  std::printf(
      "rpc fault sweep: %zu schedules, base seed %llu — ok=%llu "
      "data_loss=%llu unavailable=%llu deadline=%llu\n",
      schedules, static_cast<unsigned long long>(base),
      static_cast<unsigned long long>(counters.clean_ok),
      static_cast<unsigned long long>(counters.data_loss),
      static_cast<unsigned long long>(counters.unavailable),
      static_cast<unsigned long long>(counters.deadline));
}

}  // namespace
}  // namespace xclean::rpc
