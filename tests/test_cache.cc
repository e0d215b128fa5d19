/**
 * @file
 * Unit tests for the cache substrate: CacheConfig validation and
 * TagStore lookup/replacement/state behaviour, including
 * parameterized sweeps over geometries.
 */

#include <gtest/gtest.h>

#include <set>

#include "cache/config.hh"
#include "cache/tag_store.hh"
#include "util/logging.hh"

namespace gaas::cache
{
namespace
{

TEST(CacheConfig, BaselineGeometry)
{
    const CacheConfig l1{4 * 1024, 1, 4, 4};
    l1.validate("L1");
    EXPECT_EQ(l1.lines(), 1024u);
    EXPECT_EQ(l1.sets(), 1024u);
    EXPECT_EQ(l1.lineBytes(), 16u);
    EXPECT_EQ(l1.sizeBytes(), 16u * 1024);
}

TEST(CacheConfig, DescribeFormatsUnits)
{
    EXPECT_EQ(directMapped(4 * 1024).describe(),
              "4KW 1-way 4W lines");
    EXPECT_EQ(setAssoc(256 * 1024, 2, 32).describe(),
              "256KW 2-way 32W lines");
    EXPECT_EQ(directMapped(512).describe(), "512W 1-way 4W lines");
}

TEST(CacheConfig, RejectsBadGeometry)
{
    CacheConfig bad = directMapped(4 * 1024);
    bad.sizeWords = 3000; // not a power of two
    EXPECT_THROW(bad.validate("x"), FatalError);

    bad = directMapped(4 * 1024);
    bad.lineWords = 3;
    EXPECT_THROW(bad.validate("x"), FatalError);

    bad = directMapped(4 * 1024);
    bad.fetchWords = 8; // fetch != line
    EXPECT_THROW(bad.validate("x"), FatalError);

    bad = directMapped(4 * 1024);
    bad.assoc = 0;
    EXPECT_THROW(bad.validate("x"), FatalError);

    bad = directMapped(4 * 1024, 4);
    bad.lineWords = 64; // beyond the 32W subblock mask
    bad.fetchWords = 64;
    EXPECT_THROW(bad.validate("x"), FatalError);

    // Size smaller than one set.
    bad = CacheConfig{16, 8, 4, 4};
    EXPECT_THROW(bad.validate("x"), FatalError);
}

TEST(TagStore, AddressDissection)
{
    TagStore store(directMapped(4 * 1024), "test");
    // 4KW direct mapped, 4W (16B) lines -> 1024 sets, 4-bit offset.
    EXPECT_EQ(store.lineAddr(0x12345), 0x12340u);
    EXPECT_EQ(store.setIndex(0x0), 0u);
    EXPECT_EQ(store.setIndex(0x10), 1u);
    EXPECT_EQ(store.setIndex(16 * 1024), 0u); // wraps at cache size
    EXPECT_EQ(store.tagOf(16 * 1024), 1u);
    EXPECT_EQ(store.wordInLine(0x0), 0u);
    EXPECT_EQ(store.wordInLine(0x4), 1u);
    EXPECT_EQ(store.wordInLine(0xc), 3u);
    EXPECT_EQ(store.wordBit(0xc), 0x8u);
    EXPECT_EQ(store.fullMask(), 0xfu);
}

TEST(TagStore, MissThenHit)
{
    TagStore store(directMapped(4 * 1024), "test");
    EXPECT_EQ(store.lookup(0x1000), TagStore::npos);
    Eviction ev;
    const TagStore::LineIndex line = store.allocateIdx(0x1000, ev);
    EXPECT_FALSE(ev.valid);
    EXPECT_EQ(store.stateAt(line), TagStore::kValidBit);
    EXPECT_EQ(store.maskAt(line), store.fullMask());
    // Any word of the line hits.
    EXPECT_EQ(store.lookup(0x1000), line);
    EXPECT_EQ(store.lookup(0x100c), line);
    // The next line does not.
    EXPECT_EQ(store.lookup(0x1010), TagStore::npos);
}

TEST(TagStore, EvictionReportsAddressAndDirty)
{
    TagStore store(directMapped(4 * 1024), "test");
    Eviction ev;
    store.setDirtyAt(store.allocateIdx(0x1000, ev), true);

    // Same set, different tag: 16KB away.
    store.allocateIdx(0x1000 + 16 * 1024, ev);
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.lineAddr, 0x1000u);
}

TEST(TagStore, LruVictimSelection)
{
    TagStore store(setAssoc(32, 2, 4), "test");
    // 4 sets x 2 ways; set 0 repeats every 64 bytes.
    Eviction ev;
    const Addr a = 0x000, b = 0x040, c = 0x080;
    store.allocateIdx(a, ev);
    store.allocateIdx(b, ev);
    // Touch A so B is LRU.
    store.touchIdx(store.lookup(a));
    store.allocateIdx(c, ev);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, b);
    EXPECT_NE(store.lookup(a), TagStore::npos);
    EXPECT_EQ(store.lookup(b), TagStore::npos);
    EXPECT_NE(store.lookup(c), TagStore::npos);
}

TEST(TagStore, VictimPrefersInvalidWay)
{
    TagStore store(setAssoc(32, 2, 4), "test");
    Eviction ev;
    store.allocateIdx(0x000, ev);
    const TagStore::LineIndex second = store.allocateIdx(0x040, ev);
    // Set 0's newer way is invalid again, the older (LRU) one still
    // valid: the victim must be the invalid way, not the LRU one.
    store.invalidateAt(second);
    const TagStore::LineIndex victim = store.victimIdx(0x080);
    EXPECT_EQ(victim, second);
    EXPECT_FALSE(store.stateAt(victim) & TagStore::kValidBit);
}

TEST(TagStore, InvalidateAll)
{
    TagStore store(directMapped(1024), "test");
    Eviction ev;
    store.allocateIdx(0x0, ev);
    store.allocateIdx(0x100, ev);
    EXPECT_EQ(store.validCount(), 2u);
    store.invalidateAll();
    EXPECT_EQ(store.validCount(), 0u);
    EXPECT_EQ(store.lookup(0x0), TagStore::npos);
}

TEST(TagStore, DirtyCount)
{
    TagStore store(directMapped(1024), "test");
    Eviction ev;
    store.setDirtyAt(store.allocateIdx(0x0, ev), true);
    store.allocateIdx(0x100, ev);
    EXPECT_EQ(store.dirtyCount(), 1u);
}

TEST(TagStore, WriteOnlyAndSubblockStateSurvivesFind)
{
    TagStore store(directMapped(4 * 1024), "test");
    Eviction ev;
    const TagStore::LineIndex line = store.allocateIdx(0x2000, ev);
    store.setWriteOnlyAt(line, true);
    store.setMaskAt(line, 0x2);
    // lookup() is a pure tag probe: state is unchanged.
    const TagStore::LineIndex found = store.lookup(0x2004);
    ASSERT_EQ(found, line);
    EXPECT_TRUE(store.stateAt(found) & TagStore::kWriteOnlyBit);
    EXPECT_EQ(store.maskAt(found), 0x2u);
}

TEST(TagStore, DmAndAssocProbesAgree)
{
    // The direct-mapped and way-loop probe kernels must agree on
    // every assoc == 1 store (the specialized loops pick one at
    // compile time).
    TagStore store(directMapped(4 * 1024), "test");
    Eviction ev;
    for (Addr addr = 0; addr < 128 * 1024; addr += 977 * 4) {
        EXPECT_EQ(store.lookupDm(addr), store.lookupAssoc(addr));
        store.allocateIdx(addr, ev);
        EXPECT_EQ(store.lookupDm(addr), store.lookupAssoc(addr));
        EXPECT_NE(store.lookupDm(addr), TagStore::npos);
    }
}

TEST(TagStore, InvalidateRestoresSentinel)
{
    TagStore store(directMapped(1024), "test");
    Eviction ev;
    store.setDirtyAt(store.allocateIdx(0x40, ev), true);
    store.invalidateAt(store.lookup(0x40));
    EXPECT_EQ(store.lookup(0x40), TagStore::npos);
    EXPECT_EQ(store.validCount(), 0u);
    EXPECT_EQ(store.dirtyCount(), 0u);
}

/** Geometry sweep: allocate-then-find must hold for any shape. */
class TagStoreGeometry
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, unsigned, unsigned>>
{
};

TEST_P(TagStoreGeometry, AllocateFindRoundTrip)
{
    const auto [size, assoc, line_words] = GetParam();
    TagStore store(setAssoc(size, assoc, line_words), "sweep");

    // Touch a spread of addresses; each must be findable right after
    // allocation, and the store never exceeds its capacity.
    Eviction ev;
    for (Addr addr = 0; addr < 64 * 1024; addr += 1003 * 4) {
        if (store.lookup(addr) == TagStore::npos)
            store.allocateIdx(addr, ev);
        ASSERT_NE(store.lookup(addr), TagStore::npos);
        EXPECT_EQ(store.lineAddr(addr) % (line_words * 4), 0u);
    }
    EXPECT_LE(store.validCount(), store.config().lines());
}

TEST_P(TagStoreGeometry, EvictionAddressMapsBackToSameSet)
{
    const auto [size, assoc, line_words] = GetParam();
    TagStore store(setAssoc(size, assoc, line_words), "sweep");
    Eviction ev;
    for (Addr addr = 0; addr < 256 * 1024; addr += 4093 * 4) {
        store.allocateIdx(addr, ev);
        if (ev.valid) {
            // A victim's reconstructed address must index the same
            // set it was evicted from.
            EXPECT_EQ(store.setIndex(ev.lineAddr),
                      store.setIndex(addr));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TagStoreGeometry,
    ::testing::Values(
        std::make_tuple(1024, 1u, 4u),
        std::make_tuple(4 * 1024, 1u, 4u),
        std::make_tuple(4 * 1024, 1u, 8u),
        std::make_tuple(4 * 1024, 2u, 4u),
        std::make_tuple(32 * 1024, 1u, 32u),
        std::make_tuple(256 * 1024, 1u, 32u),
        std::make_tuple(256 * 1024, 2u, 32u),
        std::make_tuple(1024 * 1024, 2u, 32u)));

} // namespace
} // namespace gaas::cache
