/**
 * @file
 * Unit, property and differential tests for the set-associative cache
 * model.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "sim/cache/cache.hh"
#include "support/rng.hh"

using namespace dysel::sim;

TEST(Cache, ColdMissThenHit)
{
    Cache c({1024, 2, 64});
    EXPECT_FALSE(c.access(0x100));
    EXPECT_TRUE(c.access(0x100));
    EXPECT_TRUE(c.access(0x13f)); // same 64B line
    EXPECT_FALSE(c.access(0x140)); // next line
}

TEST(Cache, LruEviction)
{
    // Direct-mapped-ish: 2 ways, line 64, 128 bytes total = 1 set.
    Cache c({128, 2, 64});
    EXPECT_EQ(c.numSets(), 1u);
    c.access(0x0000);
    c.access(0x1000);
    EXPECT_TRUE(c.access(0x0000));  // refresh LRU of line 0
    c.access(0x2000);               // evicts 0x1000 (LRU)
    EXPECT_TRUE(c.access(0x0000));
    EXPECT_FALSE(c.access(0x1000)); // was evicted
}

TEST(Cache, SetIndexingSeparatesLines)
{
    Cache c({4096, 1, 64}); // 64 sets, direct mapped
    // Two addresses in different sets never evict each other.
    c.access(0x0000);
    c.access(0x0040);
    EXPECT_TRUE(c.access(0x0000));
    EXPECT_TRUE(c.access(0x0040));
}

TEST(Cache, FlushDropsEverything)
{
    Cache c({1024, 2, 64});
    c.access(0x100);
    ASSERT_TRUE(c.contains(0x100));
    c.flush();
    EXPECT_FALSE(c.contains(0x100));
}

TEST(Cache, StatsCount)
{
    Cache c({1024, 2, 64});
    c.access(0x0);
    c.access(0x0);
    c.access(0x40);
    EXPECT_EQ(c.accesses(), 3u);
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_NEAR(c.missRatio(), 2.0 / 3.0, 1e-12);
    c.resetStats();
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_TRUE(c.access(0x0)); // contents survive stat reset
}

TEST(Cache, WorkingSetLargerThanCapacityMisses)
{
    Cache c({1024, 4, 64}); // 16 lines capacity
    // Stream 64 distinct lines twice: second pass still misses
    // (capacity evictions).
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint64_t line = 0; line < 64; ++line)
            c.access(line * 64);
    EXPECT_GT(c.missRatio(), 0.9);
}

TEST(Cache, WorkingSetFittingCapacityHitsOnSecondPass)
{
    Cache c({4096, 4, 64}); // 64 lines capacity
    for (std::uint64_t line = 0; line < 32; ++line)
        c.access(line * 64);
    c.resetStats();
    for (std::uint64_t line = 0; line < 32; ++line)
        c.access(line * 64);
    EXPECT_EQ(c.misses(), 0u);
}

/** Property sweep: geometry invariants across configurations. */
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(CacheGeometry, SequentialStreamMissesOncePerLine)
{
    const auto [size_kb, ways, line] = GetParam();
    Cache c({static_cast<std::uint64_t>(size_kb) * 1024,
             static_cast<unsigned>(ways), static_cast<unsigned>(line)});
    const std::uint64_t bytes = 8 * 1024;
    for (std::uint64_t a = 0; a < bytes; a += 4)
        c.access(a);
    // One miss per distinct line, no conflict misses on a pure
    // sequential stream (when capacity >= stream or LRU keeps order).
    EXPECT_EQ(c.misses(), bytes / line);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(32, 8, 64),
                      std::make_tuple(16, 4, 64),
                      std::make_tuple(8, 2, 32),
                      std::make_tuple(64, 16, 128),
                      std::make_tuple(256, 8, 64)));

TEST(CacheDeath, RejectsNonPowerOfTwoLine)
{
    EXPECT_DEATH(Cache({1024, 2, 48}), "");
}

TEST(CacheDeath, RejectsOneByteLine)
{
    // With 1-byte lines a tag is the whole address, so address ~0 would
    // collide with the empty-way sentinel; every line of >= 2 bytes
    // shifts at least one bit out, which keeps tags below it.
    EXPECT_DEATH(Cache({1024, 2, 1}), "");
}

namespace {

/**
 * Reference model: the timestamp LRU the cache used before its
 * MRU-ordered tag array.  Each way carries a valid bit and the tick of
 * its last use; a miss fills an invalid way if one exists, else the way
 * with the oldest tick.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &cfg)
        : lineShift(0), numWays(cfg.ways)
    {
        while ((1u << lineShift) < cfg.lineBytes)
            ++lineShift;
        sets = cfg.sizeBytes / (std::uint64_t{cfg.ways} * cfg.lineBytes);
        if (sets == 0)
            sets = 1;
        ways.resize(sets * numWays);
    }

    bool
    access(std::uint64_t addr)
    {
        ++nAccess;
        ++tick;
        const std::uint64_t tag = addr >> lineShift;
        Way *base = &ways[(tag & (sets - 1)) * numWays];
        Way *victim = base;
        for (unsigned w = 0; w < numWays; ++w) {
            Way &way = base[w];
            if (way.valid && way.tag == tag) {
                way.lastUse = tick;
                return true;
            }
            if (!way.valid)
                victim = &way;
            else if (victim->valid && way.lastUse < victim->lastUse)
                victim = &way;
        }
        ++nMiss;
        *victim = {tag, tick, true};
        return false;
    }

    bool
    contains(std::uint64_t addr) const
    {
        const std::uint64_t tag = addr >> lineShift;
        const Way *base = &ways[(tag & (sets - 1)) * numWays];
        for (unsigned w = 0; w < numWays; ++w)
            if (base[w].valid && base[w].tag == tag)
                return true;
        return false;
    }

    void
    flush()
    {
        for (Way &w : ways)
            w = Way{};
    }

    void
    resetStats()
    {
        nAccess = 0;
        nMiss = 0;
    }

    std::uint64_t accesses() const { return nAccess; }
    std::uint64_t misses() const { return nMiss; }

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    unsigned lineShift;
    unsigned numWays;
    std::uint64_t sets;
    std::vector<Way> ways;
    std::uint64_t tick = 0;
    std::uint64_t nAccess = 0;
    std::uint64_t nMiss = 0;
};

/** A seeded address stream mixing reuse, streaming, set conflicts and
 *  the top of the address space. */
class AddressStream
{
  public:
    AddressStream(const CacheConfig &cfg, std::uint64_t seed)
        : rng(seed), cfg(cfg)
    {}

    std::uint64_t
    next()
    {
        const std::uint64_t span = cfg.sizeBytes;
        switch (rng.nextBelow(5)) {
          case 0: // hot set, fits in the cache
            return 0x100000 + rng.nextBelow(span / 2);
          case 1: // four times the capacity
            return 0x100000 + rng.nextBelow(4 * span);
          case 2: // sequential stream
            cursor += 4 + 4 * rng.nextBelow(16);
            return 0x40000000 + cursor;
          case 3: { // more lines than ways mapping to one set
            const std::uint64_t setBytes = span / cfg.ways;
            return 0x80000000 + rng.nextBelow(2 * cfg.ways) * setBytes
                   + rng.nextBelow(cfg.lineBytes);
          }
          default: // the last lines below address ~0
            return ~std::uint64_t{0} - rng.nextBelow(8 * cfg.lineBytes);
        }
    }

  private:
    dysel::support::Rng rng;
    CacheConfig cfg;
    std::uint64_t cursor = 0;
};

} // namespace

/** Differential sweep: the cache against the timestamp-LRU reference. */
class CacheDifferential : public ::testing::TestWithParam<CacheConfig>
{
};

TEST_P(CacheDifferential, MatchesTimestampLru)
{
    const CacheConfig cfg = GetParam();
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Cache c(cfg);
        ReferenceCache ref(cfg);
        AddressStream stream(cfg, seed);
        dysel::support::Rng ops(seed * 7919);
        for (int i = 0; i < 100000; ++i) {
            const std::uint64_t addr = stream.next();
            const std::uint64_t op = ops.nextBelow(1000);
            if (op < 900) {
                ASSERT_EQ(c.access(addr), ref.access(addr))
                    << "seed " << seed << " step " << i << " addr " << addr;
            } else if (op < 995) {
                ASSERT_EQ(c.contains(addr), ref.contains(addr))
                    << "seed " << seed << " step " << i << " addr " << addr;
            } else if (op < 998) {
                ASSERT_EQ(c.accesses(), ref.accesses());
                ASSERT_EQ(c.misses(), ref.misses());
                c.resetStats();
                ref.resetStats();
            } else {
                c.flush();
                ref.flush();
                ASSERT_FALSE(c.contains(addr));
            }
        }
        EXPECT_EQ(c.accesses(), ref.accesses());
        EXPECT_EQ(c.misses(), ref.misses());
        EXPECT_GT(c.misses(), 0u);
        EXPECT_LT(c.misses(), c.accesses());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(CacheConfig{32 * 1024, 8, 64},         // CPU L1
                      CacheConfig{256 * 1024, 8, 64},        // CPU L2
                      CacheConfig{10 * 1024 * 1024, 20, 64}, // CPU L3
                      CacheConfig{1536 * 1024, 12, 128},     // GPU L2
                      CacheConfig{12 * 1024, 24, 32},        // GPU texture
                      CacheConfig{4096, 1, 64},              // direct mapped
                      CacheConfig{2048, 32, 64}));           // one set
