// SoC-setup memoization (core::FormatCache): the cached format must be
// indistinguishable — stored bytes, tree root, versions, runtime results —
// from the computing path, across protection modes, seeds and threads.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/format_cache.hpp"
#include "scenario/scenario.hpp"
#include "soc/presets.hpp"
#include "soc/soc.hpp"

namespace secbus::core {
namespace {

// The cache is process-global; every test starts it empty + enabled and
// leaves it that way for whoever runs next.
class FormatCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FormatCache::instance().clear();
    FormatCache::instance().set_enabled(true);
  }
  void TearDown() override {
    FormatCache::instance().clear();
    FormatCache::instance().set_enabled(true);
  }

  static std::uint64_t hits() { return FormatCache::instance().stats().hits; }
  static std::uint64_t misses() {
    return FormatCache::instance().stats().misses;
  }
};

soc::SocConfig protected_cfg(std::uint64_t seed,
                             soc::ProtectionLevel level) {
  soc::SocConfig cfg = soc::tiny_test_config();
  cfg.protection = level;
  cfg.seed = seed;
  cfg.transactions_per_cpu = 30;
  return cfg;
}

std::vector<std::uint8_t> protected_bytes(soc::Soc& soc) {
  const soc::SocConfig& cfg = soc.config();
  std::vector<std::uint8_t> bytes(cfg.ddr_protected_size);
  soc.ddr().store().read(cfg.ddr_protected_base,
                         std::span<std::uint8_t>(bytes.data(), bytes.size()));
  return bytes;
}

TEST_F(FormatCacheTest, SecondConstructionHitsAndMatchesBitForBit) {
  const std::uint64_t h0 = hits();
  soc::Soc cold(protected_cfg(42, soc::ProtectionLevel::kFull));
  EXPECT_EQ(hits(), h0);  // first build computes

  soc::Soc warm(protected_cfg(42, soc::ProtectionLevel::kFull));
  EXPECT_EQ(hits(), h0 + 1);  // second build restores

  ASSERT_NE(cold.lcf(), nullptr);
  ASSERT_NE(warm.lcf(), nullptr);
  EXPECT_EQ(cold.lcf()->ic().tree().root(), warm.lcf()->ic().tree().root());
  EXPECT_EQ(cold.lcf()->ic().version_of(cold.config().ddr_protected_base),
            warm.lcf()->ic().version_of(warm.config().ddr_protected_base));
  EXPECT_EQ(protected_bytes(cold), protected_bytes(warm));
}

TEST_F(FormatCacheTest, CachedRunIsBitIdenticalToUncachedRun) {
  FormatCache::instance().set_enabled(false);
  soc::Soc uncached(protected_cfg(99, soc::ProtectionLevel::kFull));
  const soc::SocResults r_off = uncached.run(5'000'000);

  FormatCache::instance().set_enabled(true);
  soc::Soc first(protected_cfg(99, soc::ProtectionLevel::kFull));  // warms
  soc::Soc second(protected_cfg(99, soc::ProtectionLevel::kFull));  // hits
  const soc::SocResults r_warm = second.run(5'000'000);

  EXPECT_EQ(r_off.cycles, r_warm.cycles);
  EXPECT_EQ(r_off.transactions_ok, r_warm.transactions_ok);
  EXPECT_EQ(r_off.transactions_failed, r_warm.transactions_failed);
  EXPECT_EQ(r_off.alerts, r_warm.alerts);
  EXPECT_EQ(r_off.bytes_moved, r_warm.bytes_moved);
  EXPECT_DOUBLE_EQ(r_off.avg_access_latency, r_warm.avg_access_latency);
}

TEST_F(FormatCacheTest, CipheredEntriesAreKeyedBySeed) {
  soc::Soc a(protected_cfg(1, soc::ProtectionLevel::kFull));
  const std::uint64_t h = hits();
  soc::Soc b(protected_cfg(2, soc::ProtectionLevel::kFull));
  EXPECT_EQ(hits(), h);  // different seed -> different key -> miss
  EXPECT_NE(a.lcf()->ic().tree().root(), b.lcf()->ic().tree().root());
}

TEST_F(FormatCacheTest, CipherOnlyAndFullShareOneEntry) {
  // The stored image and tree depend on CM + key, not on IM: cipher-only
  // and cipher+integrity jobs of the same seed share a format.
  soc::Soc full(protected_cfg(5, soc::ProtectionLevel::kFull));
  const std::uint64_t h = hits();
  soc::Soc cipher(protected_cfg(5, soc::ProtectionLevel::kCipherOnly));
  EXPECT_EQ(hits(), h + 1);
  EXPECT_EQ(protected_bytes(full), protected_bytes(cipher));
}

TEST_F(FormatCacheTest, PlaintextFormatsShareAcrossSeeds) {
  soc::Soc a(protected_cfg(1, soc::ProtectionLevel::kPlaintext));
  const std::uint64_t h = hits();
  soc::Soc b(protected_cfg(2, soc::ProtectionLevel::kPlaintext));
  EXPECT_EQ(hits(), h + 1);  // key-independent: zero image either way
  EXPECT_EQ(a.lcf()->ic().tree().root(), b.lcf()->ic().tree().root());
}

TEST_F(FormatCacheTest, DisabledCacheNeverServesOrStores) {
  FormatCache::instance().set_enabled(false);
  soc::Soc a(protected_cfg(7, soc::ProtectionLevel::kFull));
  soc::Soc b(protected_cfg(7, soc::ProtectionLevel::kFull));
  EXPECT_EQ(hits(), 0u);
  EXPECT_EQ(FormatCache::instance().stats().insertions, 0u);
  EXPECT_EQ(a.lcf()->ic().tree().root(), b.lcf()->ic().tree().root());
}

TEST_F(FormatCacheTest, EvictionKeepsTheCacheBounded) {
  FormatCache& cache = FormatCache::instance();
  FormatKey key;
  key.protected_size = 4096;
  key.line_bytes = 32;
  key.ciphered = true;
  for (std::uint64_t i = 0; i < FormatCache::kMaxEntries + 8; ++i) {
    key.protected_base = i * 0x10000;
    cache.insert(key, std::make_shared<FormatSnapshot>());
  }
  EXPECT_EQ(cache.stats().evictions, 8u);
  // FIFO: the oldest keys fell out, the newest survive.
  key.protected_base = 0;
  EXPECT_EQ(cache.find(key), nullptr);
  key.protected_base = (FormatCache::kMaxEntries + 7) * 0x10000;
  EXPECT_NE(cache.find(key), nullptr);
}

TEST_F(FormatCacheTest, ConcurrentConstructionIsSafeAndConverges) {
  // Batch-runner shape: many threads building identical SoCs; all formats
  // must agree and the cache must end with exactly one entry.
  std::vector<std::thread> pool;
  std::vector<crypto::Sha256Digest> roots(8);
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([t, &roots] {
      soc::Soc soc(protected_cfg(123, soc::ProtectionLevel::kFull));
      roots[static_cast<std::size_t>(t)] = soc.lcf()->ic().tree().root();
    });
  }
  for (std::thread& t : pool) t.join();
  for (int t = 1; t < 8; ++t) EXPECT_EQ(roots[0], roots[t]);
  EXPECT_EQ(FormatCache::instance().stats().insertions, 1u);
}

TEST_F(FormatCacheTest, AttackGridHitAccountingIsExact) {
  // attack_grid's 288 distributed jobs need 7 distinct formats (one ciphered
  // per seed, one plaintext shared across seeds); centralized jobs have no
  // LCF and never consult the cache.
  campaign::CampaignSpec campaign;
  std::string error;
  ASSERT_TRUE(campaign::load_campaign_file(
      SECBUS_REPO_DIR "/examples/campaigns/attack_grid.json", campaign,
      &error))
      << error;
  const std::vector<scenario::ScenarioSpec> specs =
      campaign::expand_campaign(campaign);
  ASSERT_EQ(specs.size(), 576u);

  for (const scenario::ScenarioSpec& spec : specs) soc::Soc soc(spec.soc);
  const FormatCache::Stats cold = FormatCache::instance().stats();
  EXPECT_EQ(cold.misses, 7u);
  EXPECT_EQ(cold.insertions, 7u);
  EXPECT_EQ(cold.hits, 281u);
  EXPECT_EQ(cold.evictions, 0u);

  for (const scenario::ScenarioSpec& spec : specs) soc::Soc soc(spec.soc);
  const FormatCache::Stats warm = FormatCache::instance().stats();
  EXPECT_EQ(warm.misses, cold.misses);
  EXPECT_EQ(warm.insertions, cold.insertions);
  EXPECT_EQ(warm.hits, cold.hits + 288u);
}

}  // namespace
}  // namespace secbus::core
