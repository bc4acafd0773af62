// Tests for onion construction/stripping, both codecs, and the guarantee
// that the fast codec is byte-size-identical to the real one.
#include <gtest/gtest.h>

#include <algorithm>

#include "anon/buffer_pool.hpp"
#include "anon/onion.hpp"
#include "anon/router.hpp"
#include "anon/wire.hpp"
#include "common/alloc_probe.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"

#include "byte_helpers.hpp"
#include "mutations.hpp"

namespace p2panon::anon {
namespace {

struct CodecFixture {
  Rng rng{77};
  crypto::KeyDirectory directory;
  std::vector<crypto::KeyPair> keys;

  CodecFixture() { keys = directory.provision(8, rng); }

  std::vector<RelayKey> relay_keys(std::size_t count) {
    std::vector<RelayKey> out;
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(crypto::random_symmetric_key(rng));
    }
    return out;
  }
};

class OnionCodecTest : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<OnionCodec> make_codec() const {
    if (GetParam()) return std::make_unique<RealOnionCodec>();
    return std::make_unique<FastOnionCodec>();
  }
};

TEST_P(OnionCodecTest, PathOnionPeelsHopByHop) {
  CodecFixture fx;
  const auto codec = make_codec();
  const std::vector<NodeId> relays = {2, 4, 6};
  const auto keys = fx.relay_keys(3);
  Bytes onion =
      codec->build_path_onion(relays, keys, 7, fx.directory, fx.rng);

  // Relay 2 peels first.
  auto peel1 = codec->peel_path_onion(fx.keys[2], onion);
  ASSERT_TRUE(peel1.has_value());
  EXPECT_EQ(peel1->hop.next, 4u);
  EXPECT_FALSE(peel1->hop.last);
  EXPECT_EQ(peel1->hop.relay_key, keys[0]);

  auto peel2 = codec->peel_path_onion(fx.keys[4], peel1->rest);
  ASSERT_TRUE(peel2.has_value());
  EXPECT_EQ(peel2->hop.next, 6u);
  EXPECT_FALSE(peel2->hop.last);

  auto peel3 = codec->peel_path_onion(fx.keys[6], peel2->rest);
  ASSERT_TRUE(peel3.has_value());
  EXPECT_EQ(peel3->hop.next, 7u);  // the responder
  EXPECT_TRUE(peel3->hop.last);
  EXPECT_TRUE(peel3->rest.empty());
}

TEST_P(OnionCodecTest, SingleRelayPath) {
  CodecFixture fx;
  const auto codec = make_codec();
  const auto keys = fx.relay_keys(1);
  Bytes onion = codec->build_path_onion({3}, keys, 5, fx.directory, fx.rng);
  auto peeled = codec->peel_path_onion(fx.keys[3], onion);
  ASSERT_TRUE(peeled.has_value());
  EXPECT_EQ(peeled->hop.next, 5u);
  EXPECT_TRUE(peeled->hop.last);
}

TEST_P(OnionCodecTest, PayloadCoreRoundTrip) {
  CodecFixture fx;
  const auto codec = make_codec();
  PayloadCore core;
  core.message_id = 0xdeadbeefcafef00dULL;
  core.segment_index = 3;
  core.original_size = 1024;
  core.needed_segments = 2;
  core.total_segments = 8;
  core.segment = Bytes(512, 0x5a);
  core.responder_key = crypto::random_symmetric_key(fx.rng);

  const Bytes sealed =
      codec->seal_payload_core(core, fx.keys[5].public_key, fx.rng);
  const auto opened = codec->open_payload_core(fx.keys[5], sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->message_id, core.message_id);
  EXPECT_EQ(opened->segment_index, core.segment_index);
  EXPECT_EQ(opened->original_size, core.original_size);
  EXPECT_EQ(opened->needed_segments, core.needed_segments);
  EXPECT_EQ(opened->total_segments, core.total_segments);
  EXPECT_EQ(opened->segment, core.segment);
  EXPECT_EQ(opened->responder_key, core.responder_key);
}

TEST_P(OnionCodecTest, LayerWrapUnwrapRoundTrip) {
  CodecFixture fx;
  const auto codec = make_codec();
  const RelayKey key = crypto::random_symmetric_key(fx.rng);
  const Bytes inner = bytes_of("payload through the mix");
  const Bytes outer = codec->wrap_layer(key, 9, inner);
  EXPECT_EQ(outer.size(), inner.size() + codec->layer_overhead());
  const auto unwrapped = codec->unwrap_layer(key, 9, outer);
  ASSERT_TRUE(unwrapped.has_value());
  EXPECT_EQ(*unwrapped, inner);
}

TEST_P(OnionCodecTest, NestedLayersStripInOrder) {
  CodecFixture fx;
  const auto codec = make_codec();
  const auto keys = fx.relay_keys(3);
  const Bytes core = bytes_of("innermost");
  Bytes blob = core;
  for (std::size_t i = keys.size(); i-- > 0;) {
    blob = codec->wrap_layer(keys[i], 4, blob);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto inner = codec->unwrap_layer(keys[i], 4, blob);
    ASSERT_TRUE(inner.has_value());
    blob = std::move(*inner);
  }
  EXPECT_EQ(blob, core);
}

// The in-place wrap/unwrap forms are the relay fast path; they must be
// byte-identical to the allocating forms for both codecs.
TEST_P(OnionCodecTest, InPlaceFormsMatchAllocatingForms) {
  CodecFixture fx;
  const auto codec = make_codec();
  const RelayKey key = crypto::random_symmetric_key(fx.rng);
  for (const std::size_t len : {0u, 1u, 64u, 1024u, 8192u}) {
    Bytes inner(len);
    fx.rng.fill(inner.data(), inner.size());
    const Bytes outer = codec->wrap_layer(key, 11, inner);
    Bytes buf = inner;
    codec->wrap_layer_in_place(key, 11, buf);
    EXPECT_EQ(buf, outer) << "len=" << len;
    ASSERT_TRUE(codec->unwrap_layer_in_place(key, 11, buf));
    EXPECT_EQ(buf, inner) << "len=" << len;
  }
  // Tamper and truncation still fail through the in-place path (Real only;
  // the Fast codec is deliberately unauthenticated).
  if (GetParam()) {
    Bytes buf = bytes_of("segment");
    codec->wrap_layer_in_place(key, 12, buf);
    Bytes tampered = buf;
    tampered[1] ^= 0x10;
    EXPECT_FALSE(codec->unwrap_layer_in_place(key, 12, tampered));
    Bytes wrong_seq = buf;
    EXPECT_FALSE(codec->unwrap_layer_in_place(key, 13, wrong_seq));
  }
  Bytes tiny(codec->layer_overhead() - 1);
  EXPECT_FALSE(codec->unwrap_layer_in_place(key, 12, tiny));
}

// Every mutant (tests/mutations.hpp: single-byte flips, truncations,
// seeded splices with the other inputs as donors) of a valid path onion,
// sealed cores without and with the auth trailer, the same cores under a
// forward layer, and an ack and a response reverse core under a reverse
// layer goes through each parser. None may crash (the sanitizer build runs
// this too); under RealOnionCodec none may open. FastOnionCodec cannot
// authenticate, so it only has to survive.
TEST_P(OnionCodecTest, MutatedInputsNeverCrashOrOpen) {
  CodecFixture fx;
  const auto codec = make_codec();
  const crypto::KeyPair& relay = fx.keys[1];
  const crypto::KeyPair& responder = fx.keys[5];
  const RelayKey key = crypto::random_symmetric_key(fx.rng);
  constexpr std::uint64_t kSeq = 17;
  constexpr std::uint64_t kReverseSeq = kSeq | AnonRouter::kReverseBit;

  PayloadCore legacy;
  legacy.message_id = 99;
  legacy.segment_index = 1;
  legacy.original_size = 100;
  legacy.needed_segments = 2;
  legacy.total_segments = 3;
  legacy.segment = Bytes(64, 0x3c);
  legacy.responder_key = crypto::random_symmetric_key(fx.rng);
  PayloadCore tagged = legacy;
  tagged.auth_flags = PayloadCore::kAuthTagged;
  fx.rng.fill(tagged.message_digest.data(), tagged.message_digest.size());
  fx.rng.fill(tagged.auth_tag.data(), tagged.auth_tag.size());
  ReverseCore ack;
  ack.message_id = 99;
  ack.segment_index = 2;
  ReverseCore response;
  response.type = ReverseCore::Type::kResponseSegment;
  response.message_id = 99;
  response.needed_segments = 1;
  response.total_segments = 2;
  response.segment = Bytes(40, 0xc3);

  std::vector<Bytes> valid = {codec->build_path_onion(
      {1, 2, 3}, fx.relay_keys(3), 7, fx.directory, fx.rng)};
  for (const PayloadCore& core : {legacy, tagged}) {
    valid.push_back(
        codec->seal_payload_core(core, responder.public_key, fx.rng));
    Bytes layer = serialize_payload_core(core);
    codec->wrap_layer_in_place(key, kSeq, layer);
    valid.push_back(std::move(layer));
  }
  for (const ReverseCore& core : {ack, response}) {
    Bytes reverse = serialize_reverse_core(core);
    codec->wrap_layer_in_place(key, kReverseSeq, reverse);
    valid.push_back(std::move(reverse));
  }

  // The unmutated inputs open under their own parser.
  ASSERT_TRUE(codec->peel_path_onion(relay, valid[0]).has_value());
  for (const std::size_t sealed : {1, 3}) {
    ASSERT_TRUE(codec->open_payload_core(responder, valid[sealed]));
    Bytes buf = valid[sealed + 1];
    ASSERT_TRUE(codec->unwrap_layer_in_place(key, kSeq, buf));
    ASSERT_TRUE(parse_payload_core(buf).has_value());
  }
  for (const std::size_t reverse : {5, 6}) {
    Bytes buf = valid[reverse];
    ASSERT_TRUE(codec->unwrap_layer_in_place(key, kReverseSeq, buf));
    ASSERT_TRUE(parse_reverse_core(buf).has_value());
  }

  std::size_t mutants = 0;
  std::size_t opened = 0;
  const auto parse_all = [&](const Bytes& mutant) {
    // A splice can rebuild a valid input, which is not a mutant.
    if (std::find(valid.begin(), valid.end(), mutant) != valid.end()) return;
    ++mutants;
    if (codec->peel_path_onion(relay, mutant).has_value()) ++opened;
    if (codec->open_payload_core(responder, mutant).has_value()) ++opened;
    for (const std::uint64_t seq : {kSeq, kReverseSeq}) {
      Bytes inner = mutant;
      if (!codec->unwrap_layer_in_place(key, seq, inner)) continue;
      ++opened;
      (void)parse_payload_core(inner);
      (void)parse_reverse_core(inner);
    }
    (void)parse_reverse_core(mutant);
  };
  Rng rng(91);
  for (const Bytes& input : valid) {
    for (const Bytes& mutant : mutations_of(input, valid, rng)) {
      parse_all(mutant);
    }
  }
  EXPECT_GT(mutants, 4000u);
  if (GetParam()) {
    EXPECT_EQ(opened, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(RealAndFast, OnionCodecTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "Real" : "Fast";
                         });

// --- Zero-allocation relay path ----------------------------------------------------

// Steady-state relaying (acquire pooled buffer, peel or wrap a layer in
// place) must perform zero heap allocations per segment. onion_test links
// the strong alloc_probe hooks, so allocations() counts operator new for
// the whole binary.
TEST(ZeroAllocRelayTest, PooledInPlaceRelayPathDoesNotAllocate) {
  ASSERT_TRUE(alloc_probe::active())
      << "alloc_probe_hooks.cpp must be linked into onion_test";
  Rng rng(99);
  RealOnionCodec codec;
  const RelayKey key = crypto::random_symmetric_key(rng);
  BufferPool pool;
  Bytes segment(8192);
  rng.fill(segment.data(), segment.size());
  const Bytes wire = codec.wrap_layer(key, 21, segment);

  // Warm the pool: first lease may grow the freelist entry.
  { PooledBytes warm(pool, wire.size() + codec.layer_overhead()); }

  for (int round = 0; round < 4; ++round) {
    const std::uint64_t before = alloc_probe::allocations();
    {
      // Receive: copy the wire blob into a pooled buffer, peel in place
      // (forward direction), then re-wrap in place (reverse direction) —
      // the two relay data-plane operations.
      PooledBytes buf(pool, wire.size() + codec.layer_overhead());
      buf->assign(wire.begin(), wire.end());
      ASSERT_TRUE(codec.unwrap_layer_in_place(key, 21, *buf));
      codec.wrap_layer_in_place(key, 21, *buf);
    }
    const std::uint64_t after = alloc_probe::allocations();
    EXPECT_EQ(after - before, 0u) << "round " << round;
  }
}

TEST(ZeroAllocRelayTest, PoolReusesCapacity) {
  BufferPool pool(1024);
  Bytes first = pool.acquire(4096);
  const std::size_t cap = first.capacity();
  EXPECT_GE(cap, 4096u);
  pool.release(std::move(first));
  EXPECT_EQ(pool.idle(), 1u);
  const Bytes second = pool.acquire();
  EXPECT_EQ(second.capacity(), cap);  // same warm buffer came back
  EXPECT_TRUE(second.empty());
  EXPECT_EQ(pool.idle(), 0u);
}

TEST(RealOnionCodecTest, WrongKeyOrTamperRejected) {
  CodecFixture fx;
  RealOnionCodec codec;
  const auto keys = fx.relay_keys(2);
  Bytes onion = codec.build_path_onion({1, 2}, keys, 3, fx.directory, fx.rng);
  // Wrong relay cannot peel.
  EXPECT_FALSE(codec.peel_path_onion(fx.keys[5], onion).has_value());
  // Tampered onion rejected by the right relay.
  onion[40] ^= 1;
  EXPECT_FALSE(codec.peel_path_onion(fx.keys[1], onion).has_value());

  const RelayKey key = crypto::random_symmetric_key(fx.rng);
  Bytes layered = codec.wrap_layer(key, 1, bytes_of("x"));
  // Wrong seq (nonce) fails authentication.
  EXPECT_FALSE(codec.unwrap_layer(key, 2, layered).has_value());
  layered[0] ^= 1;
  EXPECT_FALSE(codec.unwrap_layer(key, 1, layered).has_value());
}

TEST(OnionSizeTest, FastMatchesRealByteForByte) {
  // The statistical benches rely on FastOnionCodec producing identical
  // message sizes to the real crypto, so bandwidth numbers carry over.
  CodecFixture fx;
  RealOnionCodec real;
  FastOnionCodec fast;
  EXPECT_EQ(real.layer_overhead(), fast.layer_overhead());
  EXPECT_EQ(real.core_overhead(), fast.core_overhead());

  for (std::size_t relays : {1u, 3u, 5u}) {
    std::vector<NodeId> ids;
    for (std::size_t i = 0; i < relays; ++i) ids.push_back(static_cast<NodeId>(i));
    const auto keys = fx.relay_keys(relays);
    const Bytes a =
        real.build_path_onion(ids, keys, 7, fx.directory, fx.rng);
    const Bytes b =
        fast.build_path_onion(ids, keys, 7, fx.directory, fx.rng);
    EXPECT_EQ(a.size(), b.size()) << "relays=" << relays;
  }

  PayloadCore core;
  core.segment = Bytes(777, 1);
  const Bytes sealed_real =
      real.seal_payload_core(core, fx.keys[0].public_key, fx.rng);
  const Bytes sealed_fast =
      fast.seal_payload_core(core, fx.keys[0].public_key, fx.rng);
  EXPECT_EQ(sealed_real.size(), sealed_fast.size());

  const RelayKey key = crypto::random_symmetric_key(fx.rng);
  EXPECT_EQ(real.wrap_layer(key, 0, Bytes(100, 0)).size(),
            fast.wrap_layer(key, 0, Bytes(100, 0)).size());
}

// Digest over what both codecs emit from one seeded stream: path onions
// for L = 1..4, sealed cores without and with the auth trailer, and copying
// and in-place layers under a forward seq and under the same seq with the
// reverse bit, then one more draw, so a change in the number of RNG draws
// shows as well as a change in any wire byte.
std::string seeded_outputs_digest(const OnionCodec& codec) {
  CodecFixture fx;
  crypto::Sha256 sha;
  const auto absorb = [&sha](ByteView bytes) {
    Bytes length;
    put_u32be(length, static_cast<std::uint32_t>(bytes.size()));
    sha.update(length);
    sha.update(bytes);
  };
  for (std::size_t hops = 1; hops <= 4; ++hops) {
    std::vector<NodeId> relays;
    for (std::size_t i = 0; i < hops; ++i) {
      relays.push_back(static_cast<NodeId>(i + 1));
    }
    absorb(codec.build_path_onion(relays, fx.relay_keys(hops), 7,
                                  fx.directory, fx.rng));
  }

  PayloadCore core;
  core.message_id = 0x0123456789abcdefULL;
  core.segment_index = 1;
  core.original_size = 600;
  core.needed_segments = 2;
  core.total_segments = 4;
  core.segment = Bytes(300);
  fx.rng.fill(core.segment.data(), core.segment.size());
  core.responder_key = crypto::random_symmetric_key(fx.rng);
  absorb(codec.seal_payload_core(core, fx.keys[6].public_key, fx.rng));
  core.auth_flags = PayloadCore::kAuthTagged;
  fx.rng.fill(core.message_digest.data(), core.message_digest.size());
  fx.rng.fill(core.auth_tag.data(), core.auth_tag.size());
  absorb(codec.seal_payload_core(core, fx.keys[6].public_key, fx.rng));

  const RelayKey key = crypto::random_symmetric_key(fx.rng);
  Bytes inner(200);
  fx.rng.fill(inner.data(), inner.size());
  for (const std::uint64_t seq : {std::uint64_t{42},
                                  std::uint64_t{42} | AnonRouter::kReverseBit}) {
    absorb(codec.wrap_layer(key, seq, inner));
    Bytes buf = inner;
    codec.wrap_layer_in_place(key, seq, buf);
    absorb(buf);
  }
  Bytes last_draw;
  put_u64be(last_draw, fx.rng.next_u64());
  absorb(last_draw);
  const crypto::Sha256Digest digest = sha.finish();
  return to_hex(ByteView(digest.data(), digest.size()));
}

TEST(OnionTest, SeededOutputsArePinned) {
  EXPECT_EQ(seeded_outputs_digest(RealOnionCodec()),
            "2f6065b41073e486f346f39d2220045df97e7642406680cab467547a1515d70f");
  EXPECT_EQ(seeded_outputs_digest(FastOnionCodec()),
            "9189752f9ed6471bc8bc717331bd9e98c3417909abd7d02f95341f64ccaa86a3");
}

// The Fast keystream at every buffer length from 0 to 40 bytes (five whole
// keystream words and every partial tail), under two keys and a forward
// and a reverse seq.
TEST(OnionTest, FastKeystreamIsPinnedAtEveryLength) {
  const FastOnionCodec codec;
  Rng rng(33);
  const RelayKey keys[] = {crypto::random_symmetric_key(rng),
                           crypto::random_symmetric_key(rng)};
  crypto::Sha256 sha;
  constexpr std::uint64_t kSeq = 7;
  for (const RelayKey& key : keys) {
    for (const std::uint64_t seq : {kSeq, kSeq | AnonRouter::kReverseBit}) {
      for (std::size_t len = 0; len <= 40; ++len) {
        Bytes buf(len);
        for (std::size_t i = 0; i < len; ++i) {
          buf[i] = static_cast<std::uint8_t>(i * 37 + len);
        }
        codec.wrap_layer_in_place(key, seq, buf);
        sha.update(buf);
      }
    }
  }
  const crypto::Sha256Digest digest = sha.finish();
  EXPECT_EQ(to_hex(ByteView(digest.data(), digest.size())),
            "9673e2853f3c8d08908b299b12ec9cec2142e0866b750f42c91228b83faae833");
}

TEST(PathHopWireTest, ParseRejectsMalformed) {
  // Too short.
  EXPECT_FALSE(parse_path_hop(Bytes(10, 0)).has_value());
  // Bad last flag.
  Bytes bad(wire::kHopHeaderSize, 0);
  bad[wire::kHopLastOffset] = 7;
  EXPECT_FALSE(parse_path_hop(bad).has_value());
  // last = 1 but trailing bytes present.
  Bytes trailing(wire::kHopHeaderSize + 3, 0);
  trailing[wire::kHopLastOffset] = 1;
  EXPECT_FALSE(parse_path_hop(trailing).has_value());
  // last = 0 but no nested onion.
  Bytes empty_rest(wire::kHopHeaderSize, 0);
  empty_rest[wire::kHopLastOffset] = 0;
  EXPECT_FALSE(parse_path_hop(empty_rest).has_value());
}

TEST(PayloadCoreWireTest, ParseRejectsLengthMismatch) {
  PayloadCore core;
  core.segment = Bytes(10, 2);
  Bytes plain = serialize_payload_core(core);
  EXPECT_TRUE(parse_payload_core(plain).has_value());
  plain.push_back(0);
  EXPECT_FALSE(parse_payload_core(plain).has_value());
  plain.pop_back();
  plain.pop_back();
  EXPECT_FALSE(parse_payload_core(plain).has_value());
}

// The auth trailer admits exactly three wire shapes: legacy (no trailer),
// digest ([flags=1][digest]), and tagged ([flags=3][digest][tag]). The
// flags byte and the serialized size must agree; any other combination is
// a parse failure, not a fallback.
TEST(PayloadCoreWireTest, AuthTrailerShapesRoundTrip) {
  PayloadCore core;
  core.message_id = 77;
  core.segment_index = 2;
  core.needed_segments = 2;
  core.total_segments = 4;
  core.segment = Bytes(32, 0xab);
  for (std::uint8_t i = 0; i < crypto::kMessageDigestSize; ++i) {
    core.message_digest[i] = i;
  }
  for (std::uint8_t i = 0; i < crypto::kSegmentTagSize; ++i) {
    core.auth_tag[i] = static_cast<std::uint8_t>(0xf0 + i);
  }

  const Bytes legacy = serialize_payload_core(core);  // kAuthNone default

  core.auth_flags = PayloadCore::kAuthTagged;
  const Bytes tagged = serialize_payload_core(core);
  EXPECT_EQ(tagged.size(), legacy.size() + 1 + crypto::kMessageDigestSize +
                               crypto::kSegmentTagSize);

  const auto parsed_legacy = parse_payload_core(legacy);
  ASSERT_TRUE(parsed_legacy.has_value());
  EXPECT_EQ(parsed_legacy->auth_flags, PayloadCore::kAuthNone);

  const auto parsed_tagged = parse_payload_core(tagged);
  ASSERT_TRUE(parsed_tagged.has_value());
  EXPECT_EQ(parsed_tagged->auth_flags, PayloadCore::kAuthTagged);
  EXPECT_EQ(parsed_tagged->message_digest, core.message_digest);
  EXPECT_EQ(parsed_tagged->auth_tag, core.auth_tag);
}

TEST(PayloadCoreWireTest, AuthTrailerRejectsFlagSizeMismatch) {
  PayloadCore core;
  core.needed_segments = 1;
  core.total_segments = 1;
  core.segment = Bytes(16, 0x11);
  core.auth_flags = PayloadCore::kAuthTagged;
  Bytes tagged = serialize_payload_core(core);

  // The flags byte sits right after the segment bytes. In a tagged-size
  // core every value but kAuthTagged is rejected: kAuthNone and
  // kAuthTagged are the only shapes.
  const std::size_t flags_at =
      tagged.size() - 1 - crypto::kMessageDigestSize - crypto::kSegmentTagSize;
  ASSERT_EQ(tagged[flags_at], PayloadCore::kAuthTagged);
  for (const std::uint8_t flags : {0, 1, 2, 4, 0xff}) {
    tagged[flags_at] = flags;
    EXPECT_FALSE(parse_payload_core(tagged).has_value())
        << "flags " << static_cast<int>(flags);
  }
  tagged[flags_at] = PayloadCore::kAuthTagged;
  EXPECT_TRUE(parse_payload_core(tagged).has_value());

  // A [flags][digest] trailer without a tag matches neither shape's size,
  // whichever flags byte it carries.
  Bytes digest_shape(tagged.begin(), tagged.end() - crypto::kSegmentTagSize);
  for (const std::uint8_t flags : {1, 3}) {
    digest_shape[flags_at] = flags;
    EXPECT_FALSE(parse_payload_core(digest_shape).has_value())
        << "flags " << static_cast<int>(flags);
  }
}

}  // namespace
}  // namespace p2panon::anon
