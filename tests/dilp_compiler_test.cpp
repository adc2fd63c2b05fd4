#include "dilp/compiler.hpp"

#include <gtest/gtest.h>

#include "dilp/engine.hpp"
#include "dilp/native.hpp"
#include "dilp/stdpipes.hpp"
#include "util/byteorder.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "vcode/env_util.hpp"

namespace ash::dilp {
namespace {

using vcode::FlatMemoryEnv;

std::vector<std::uint8_t> random_words(util::Rng& rng, std::size_t words) {
  std::vector<std::uint8_t> data(words * 4);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

/// Run ilp `id` over `data`, placing source at 0x100 and dest at 0x2000 in
/// a flat environment; returns the destination bytes.
struct RunOutput {
  std::vector<std::uint8_t> dst;
  std::vector<std::uint32_t> persistents;
  Engine::RunResult result;
};

RunOutput run_over(const Engine& engine, int id,
                   std::span<const std::uint8_t> data,
                   std::span<const std::uint32_t> seed = {}) {
  FlatMemoryEnv env(0x4000);
  std::copy(data.begin(), data.end(), env.memory().begin() + 0x100);
  RunOutput out;
  const CompiledIlp* ilp = engine.get(id);
  out.persistents.resize(ilp != nullptr ? ilp->persistents.size() : 0);
  out.result = engine.run(id, env, 0x100, 0x2000,
                          static_cast<std::uint32_t>(data.size()), seed,
                          out.persistents);
  out.dst.assign(env.memory().begin() + 0x2000,
                 env.memory().begin() + 0x2000 + data.size());
  return out;
}

TEST(Compiler, EmptyListIsCopyLoop) {
  PipeList pl;
  Engine engine;
  std::string error;
  const int id = engine.register_ilp(pl, Direction::Write, &error);
  ASSERT_GE(id, 0) << error;
  EXPECT_EQ(engine.get(id)->summary, "copy (write)");

  util::Rng rng(1);
  const auto data = random_words(rng, 32);
  const auto out = run_over(engine, id, data);
  ASSERT_TRUE(out.result.ok());
  EXPECT_EQ(out.dst, data);
}

TEST(Compiler, CksumPipeComputesChecksumWhileCopying) {
  vcode::Reg acc_reg = 0;
  PipeList pl;
  pl.add(make_cksum_pipe(&acc_reg));
  Engine engine;
  std::string error;
  const int id = engine.register_ilp(pl, Direction::Write, &error);
  ASSERT_GE(id, 0) << error;
  ASSERT_EQ(engine.get(id)->persistents.size(), 1u);

  util::Rng rng(2);
  const auto data = random_words(rng, 64);
  const std::uint32_t seed[] = {0};
  const auto out = run_over(engine, id, data, seed);
  ASSERT_TRUE(out.result.ok());
  EXPECT_EQ(out.dst, data);  // no-mod: data unchanged
  ASSERT_EQ(out.persistents.size(), 1u);
  EXPECT_EQ(util::fold16_le_word_sum(out.persistents[0]),
            util::fold16(util::cksum_partial(data)));
}

TEST(Compiler, Fig1CompositionCksumThenByteswap) {
  // The exact composition of Fig. 1: checksum pipe + byteswap pipe,
  // compiled for the write direction.
  vcode::Reg acc_reg = 0;
  PipeList pl;
  pl.add(make_cksum_pipe(&acc_reg));
  pl.add(make_byteswap_pipe());
  Engine engine;
  std::string error;
  const int id = engine.register_ilp(pl, Direction::Write, &error);
  ASSERT_GE(id, 0) << error;

  util::Rng rng(3);
  const auto data = random_words(rng, 16);
  const std::uint32_t seed[] = {0};
  const auto out = run_over(engine, id, data, seed);
  ASSERT_TRUE(out.result.ok());

  // Expected: checksum over raw words; output byteswapped.
  std::uint32_t acc = 0;
  std::vector<std::uint8_t> expect(data.size());
  for (std::size_t i = 0; i < data.size(); i += 4) {
    const std::uint32_t w = util::load_u32(data.data() + i);
    acc = util::cksum32_accumulate(acc, w);
    util::store_u32(expect.data() + i, util::bswap32(w));
  }
  EXPECT_EQ(out.dst, expect);
  EXPECT_EQ(out.persistents[0], acc);
}

TEST(Compiler, ReadDirectionReversesComposition) {
  // write: bswap then xor; read must apply xor then bswap.
  vcode::Reg key_reg = 0;
  PipeList pl;
  pl.add(make_byteswap_pipe());
  pl.add(make_xor_pipe(&key_reg));
  Engine engine;
  std::string error;
  const int wid = engine.register_ilp(pl, Direction::Write, &error);
  const int rid = engine.register_ilp(pl, Direction::Read, &error);
  ASSERT_GE(wid, 0);
  ASSERT_GE(rid, 0);

  util::Rng rng(4);
  const auto data = random_words(rng, 8);
  const std::uint32_t key = 0x5a5a1234u;
  const std::uint32_t seed[] = {key};

  const auto wrote = run_over(engine, wid, data, seed);
  ASSERT_TRUE(wrote.result.ok());
  // Round trip: reading back what write produced must restore the data
  // (bswap and xor are involutions, and read reverses the order).
  const auto read = run_over(engine, rid, wrote.dst, seed);
  ASSERT_TRUE(read.result.ok());
  EXPECT_EQ(read.dst, data);

  // And the two directions differ on asymmetric input order.
  std::vector<std::uint8_t> expect_w(data.size());
  for (std::size_t i = 0; i < data.size(); i += 4) {
    const std::uint32_t w = util::load_u32(data.data() + i);
    util::store_u32(expect_w.data() + i, util::bswap32(w) ^ key);
  }
  EXPECT_EQ(wrote.dst, expect_w);
}

TEST(Compiler, Gauge16PipeAppliedTwicePerWord) {
  PipeList pl;
  pl.add(make_byteswap16_pipe());
  Engine engine;
  std::string error;
  const int id = engine.register_ilp(pl, Direction::Write, &error);
  ASSERT_GE(id, 0) << error;

  const std::uint8_t data[] = {0x01, 0x02, 0x03, 0x04, 0xaa, 0xbb, 0xcc, 0xdd};
  const auto out = run_over(engine, id, data);
  ASSERT_TRUE(out.result.ok());
  const std::uint8_t expect[] = {0x02, 0x01, 0x04, 0x03,
                                 0xbb, 0xaa, 0xdd, 0xcc};
  EXPECT_EQ(out.dst, std::vector<std::uint8_t>(expect, expect + 8));
}

TEST(Compiler, Gauge8IdentityRoundTrips) {
  PipeList pl;
  pl.add(make_identity_pipe(Gauge::G8));
  Engine engine;
  std::string error;
  const int id = engine.register_ilp(pl, Direction::Write, &error);
  ASSERT_GE(id, 0) << error;
  util::Rng rng(5);
  const auto data = random_words(rng, 16);
  const auto out = run_over(engine, id, data);
  ASSERT_TRUE(out.result.ok());
  EXPECT_EQ(out.dst, data);
}

TEST(Compiler, MixedGaugeComposition) {
  // 16-bit byteswap + 32-bit checksum: exercises gauge conversion between
  // pipes of different widths (the paper's 16b checksum / 32b encryption
  // coupling example).
  vcode::Reg acc_reg = 0;
  PipeList pl;
  pl.add(make_byteswap16_pipe());
  pl.add(make_cksum_pipe(&acc_reg));
  Engine engine;
  std::string error;
  const int id = engine.register_ilp(pl, Direction::Write, &error);
  ASSERT_GE(id, 0) << error;

  util::Rng rng(6);
  const auto data = random_words(rng, 32);
  const std::uint32_t seed[] = {0};
  const auto out = run_over(engine, id, data, seed);
  ASSERT_TRUE(out.result.ok());

  std::uint32_t acc = 0;
  std::vector<std::uint8_t> expect(data.size());
  for (std::size_t i = 0; i < data.size(); i += 4) {
    std::uint32_t w = util::load_u32(data.data() + i);
    const std::uint32_t lo = util::bswap16(static_cast<std::uint16_t>(w));
    const std::uint32_t hi = util::bswap16(static_cast<std::uint16_t>(w >> 16));
    w = lo | (hi << 16);
    acc = util::cksum32_accumulate(acc, w);
    util::store_u32(expect.data() + i, w);
  }
  EXPECT_EQ(out.dst, expect);
  EXPECT_EQ(out.persistents[0], acc);
}

TEST(Compiler, InPlaceTransform) {
  PipeList pl;
  pl.add(make_byteswap_pipe());
  Engine engine;
  std::string error;
  const int id = engine.register_ilp(pl, Direction::Write, &error);
  ASSERT_GE(id, 0);

  FlatMemoryEnv env(0x1000);
  const std::uint8_t data[] = {1, 2, 3, 4};
  std::copy(std::begin(data), std::end(data), env.memory().begin() + 0x10);
  const auto r = engine.run(id, env, 0x10, 0x10, 4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(env.memory()[0x10], 4);
  EXPECT_EQ(env.memory()[0x13], 1);
}

TEST(Compiler, ZeroLengthTransferIsNoOp) {
  PipeList pl;
  Engine engine;
  std::string error;
  const int id = engine.register_ilp(pl, Direction::Write, &error);
  FlatMemoryEnv env(0x1000);
  const auto r = engine.run(id, env, 0x10, 0x20, 0);
  EXPECT_TRUE(r.ok());
}

TEST(Engine, RejectsUnalignedLength) {
  PipeList pl;
  Engine engine;
  std::string error;
  const int id = engine.register_ilp(pl, Direction::Write, &error);
  FlatMemoryEnv env(0x1000);
  EXPECT_TRUE(engine.run(id, env, 0, 0x100, 6).invalid_args);
}

TEST(Engine, RejectsUnknownId) {
  Engine engine;
  FlatMemoryEnv env(0x100);
  EXPECT_TRUE(engine.run(42, env, 0, 0, 4).invalid_args);
}

TEST(Engine, RejectsPersistentOutOfTheWrongSize) {
  PipeList pl;
  pl.add(make_cksum_pipe(nullptr));
  Engine engine;
  std::string error;
  const int id = engine.register_ilp(pl, Direction::Write, &error);
  ASSERT_GE(id, 0);
  ASSERT_EQ(engine.get(id)->persistents.size(), 1u);
  FlatMemoryEnv env(0x1000);
  std::uint32_t out[2] = {7, 7};
  EXPECT_TRUE(engine.run(id, env, 0, 0x100, 4, {}, out).invalid_args);
  EXPECT_EQ(out[0], 7u);
  EXPECT_TRUE(engine.run(id, env, 0, 0x100, 4, {}, {}).ok());
  EXPECT_TRUE(engine.run(id, env, 0, 0x100, 4, {}, std::span(out, 1)).ok());
}

TEST(Engine, FaultsOnOutOfBoundsTransfer) {
  PipeList pl;
  Engine engine;
  std::string error;
  const int id = engine.register_ilp(pl, Direction::Write, &error);
  FlatMemoryEnv env(0x100);
  const auto r = engine.run(id, env, 0x80, 0x200, 64);  // dst out of bounds
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.exec.outcome, vcode::Outcome::MemFault);
}

TEST(Compiler, InsnsPerWordReportedAndSmall) {
  vcode::Reg acc = 0;
  PipeList pl;
  pl.add(make_cksum_pipe(&acc));
  pl.add(make_byteswap_pipe());
  std::string error;
  const auto compiled = compile_pipes(pl, Direction::Write, &error);
  ASSERT_TRUE(compiled.has_value()) << error;
  // Fused loop: ~1 load + 1 store + 2 addiu + branch/jmp + ~5 pipe ops.
  EXPECT_GE(compiled->insns_per_word, 8u);
  EXPECT_LE(compiled->insns_per_word, 20u);
}

// Property: arbitrary random compositions of standard pipes, fused by the
// compiler, produce byte-identical output and accumulators to the native
// reference composition.
class FusionEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(FusionEquivalence, MatchesNativeReference) {
  util::Rng rng(GetParam() + 42);
  PipeList pl;
  std::vector<native::StageKind> stages;
  std::vector<std::uint32_t> seeds;
  const int n_pipes = static_cast<int>(rng.range(1, 4));
  for (int i = 0; i < n_pipes; ++i) {
    switch (rng.below(3)) {
      case 0:
        pl.add(make_cksum_pipe(nullptr));
        stages.push_back(native::StageKind::Cksum);
        seeds.push_back(0);
        break;
      case 1:
        pl.add(make_byteswap_pipe());
        stages.push_back(native::StageKind::Bswap);
        break;
      default: {
        vcode::Reg key = 0;
        pl.add(make_xor_pipe(&key));
        stages.push_back(native::StageKind::Xor);
        seeds.push_back(static_cast<std::uint32_t>(rng.next()));
        break;
      }
    }
  }

  Engine engine;
  std::string error;
  const int id = engine.register_ilp(pl, Direction::Write, &error);
  ASSERT_GE(id, 0) << error;

  const auto data = random_words(rng, rng.range(1, 64));

  // Native reference: per-stage state vector in stage order (byteswap
  // stages get a placeholder state word; cksum/xor consume seeds in order).
  std::vector<std::uint32_t> state;
  std::size_t seed_i = 0;
  for (auto s : stages) {
    state.push_back(s == native::StageKind::Bswap ? 0 : seeds[seed_i++]);
  }
  std::vector<std::uint8_t> ref_out(data.size());
  const auto composed = native::compose(stages);
  composed.kernel(data.data(), ref_out.data(), data.size(), state.data());

  // Fused loop: persistent seeds in pipe order (cksum/xor pipes only —
  // byteswap has no persistent register).
  const auto out = run_over(engine, id, data, seeds);
  ASSERT_TRUE(out.result.ok()) << vcode::to_string(out.result.exec.outcome);
  EXPECT_EQ(out.dst, ref_out);

  // Persistent accumulators must match the native states (in pipe order).
  std::vector<std::uint32_t> ref_persist;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    if (stages[s] != native::StageKind::Bswap) ref_persist.push_back(state[s]);
  }
  EXPECT_EQ(out.persistents, ref_persist);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionEquivalence, ::testing::Range(0, 80));

}  // namespace
}  // namespace ash::dilp
