/**
 * @file
 * Tests for the set-associative LRU array behind the TLBs, the
 * paging-structure caches and the PTE-line cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/audit.hh"
#include "common/ckpt.hh"
#include "common/rng.hh"
#include "tlb/set_assoc.hh"
#include "tlb/tlb_hierarchy.hh"
#include "tlb/walk_cache.hh"
#include "../test_support.hh"

namespace emv::tlb {
namespace {

/**
 * The obvious model: per set, a most-recent-first list of
 * (tag, value) of at most `ways` entries.
 */
class LruModel
{
  public:
    LruModel(unsigned sets, unsigned ways) : ways(ways), lists(sets) {}

    std::optional<std::uint64_t>
    find(std::uint64_t tag)
    {
        auto &set = setOf(tag);
        auto it = locate(set, tag);
        if (it == set.end())
            return std::nullopt;
        set.splice(set.begin(), set, it);
        return it->second;
    }

    SetAssoc::InsertResult
    insert(std::uint64_t tag, std::uint64_t value)
    {
        auto &set = setOf(tag);
        auto it = locate(set, tag);
        if (it != set.end()) {
            it->second = value;
            set.splice(set.begin(), set, it);
            return {true, false};
        }
        SetAssoc::InsertResult result;
        if (set.size() == ways) {
            result.evicted = true;
            result.evictedTag = set.back().first;
            set.pop_back();
        }
        set.emplace_front(tag, value);
        return result;
    }

    void
    erase(std::uint64_t tag)
    {
        auto &set = setOf(tag);
        auto it = locate(set, tag);
        if (it != set.end())
            set.erase(it);
    }

    void
    eraseIf(const SetAssoc::TagPredicate &pred)
    {
        for (auto &set : lists)
            set.remove_if([&](const auto &e) { return pred(e.first); });
    }

    std::size_t
    countIf(const SetAssoc::TagPredicate &pred) const
    {
        std::size_t n = 0;
        for (const auto &set : lists) {
            n += static_cast<std::size_t>(std::count_if(
                set.begin(), set.end(),
                [&](const auto &e) { return pred(e.first); }));
        }
        return n;
    }

    void
    clear()
    {
        for (auto &set : lists)
            set.clear();
    }

  private:
    using Set = std::list<std::pair<std::uint64_t, std::uint64_t>>;

    Set &
    setOf(std::uint64_t tag)
    {
        return lists[mix(tag) & (lists.size() - 1)];
    }

    static Set::iterator
    locate(Set &set, std::uint64_t tag)
    {
        return std::find_if(set.begin(), set.end(), [&](const auto &e) {
            return e.first == tag;
        });
    }

    std::size_t ways;
    std::vector<Set> lists;
};

bool
odd(std::uint64_t tag)
{
    return tag & 1;
}

bool
any(std::uint64_t)
{
    return true;
}

bool
restore(const std::vector<std::uint8_t> &bytes, SetAssoc &array,
        std::string *error = nullptr)
{
    ckpt::Decoder dec(bytes.data(), bytes.size());
    array.persist(dec, "owner");
    const bool ok = dec.ok() && dec.atEnd();
    if (error)
        *error = dec.error();
    return ok;
}

/** Random mixed operations on @p array, checked against the model. */
void
runAgainstModel(SetAssoc &array, LruModel &model, Rng &rng, int ops)
{
    const std::uint64_t span =
        std::uint64_t{array.sets()} * array.ways() * 3;
    for (int i = 0; i < ops; ++i) {
        const std::uint64_t tag = rng.nextBelow(span);
        const std::uint64_t op = rng.nextBelow(1000);
        if (op < 450) {
            ASSERT_EQ(array.find(tag), model.find(tag)) << "op " << i;
        } else if (op < 900) {
            const std::uint64_t value = rng.next();
            const auto got = array.insert(tag, value);
            const auto want = model.insert(tag, value);
            ASSERT_EQ(got.present, want.present) << "op " << i;
            ASSERT_EQ(got.evicted, want.evicted) << "op " << i;
            ASSERT_EQ(got.evictedTag, want.evictedTag) << "op " << i;
        } else if (op < 990) {
            array.erase(tag);
            model.erase(tag);
        } else if (op < 998) {
            array.eraseIf(odd);
            model.eraseIf(odd);
        } else {
            array.clear();
            model.clear();
        }
        ASSERT_EQ(array.countIf(any), model.countIf(any)) << "op " << i;
        ASSERT_EQ(array.countIf(odd), model.countIf(odd)) << "op " << i;
    }
}

class SetAssocModelTest
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(SetAssocModelTest, MatchesPerSetLruList)
{
    const auto [sets, ways] = GetParam();
    SetAssoc array(sets, ways);
    LruModel model(sets, ways);
    Rng rng(0xa55ac1a7eull + sets * 31 + ways);
    // Auditing also checks after every insert that no tag is stored
    // twice in its set.
    audit::setEnabled(true);
    audit::resetCounters();
    runAgainstModel(array, model, rng, 20000);
    EXPECT_GT(audit::checkCount(), 0u);
    EXPECT_EQ(audit::failureCount(), 0u);
    audit::setEnabled(false);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SetAssocModelTest,
    ::testing::Values(std::make_pair(1u, 1u), std::make_pair(1u, 4u),
                      std::make_pair(16u, 4u), std::make_pair(512u, 8u)),
    [](const auto &info) {
        return std::to_string(info.param.first) + "x" +
               std::to_string(info.param.second);
    });

TEST(SetAssocTest, CheckpointRoundTripKeepsLruOrder)
{
    SetAssoc array(16, 4);
    LruModel model(16, 4);
    Rng rng(42);
    runAgainstModel(array, model, rng, 3000);

    const auto bytes = test::ckptBytes(array);
    SetAssoc copy(16, 4);
    ASSERT_TRUE(restore(bytes, copy));
    EXPECT_EQ(test::ckptBytes(copy), bytes);

    // The restored array keeps matching the model, so entries, values
    // and LRU order all came back.
    runAgainstModel(copy, model, rng, 3000);
}

TEST(SetAssocTest, GeometryMismatchFailsStructurally)
{
    SetAssoc array(16, 4);
    array.insert(7, 70);
    const auto bytes = test::ckptBytes(array);

    std::string error;
    SetAssoc fewerSets(8, 4);
    EXPECT_FALSE(restore(bytes, fewerSets, &error));
    EXPECT_EQ(error, "owner: geometry mismatch");
    SetAssoc moreWays(16, 8);
    EXPECT_FALSE(restore(bytes, moreWays, &error));
    EXPECT_EQ(error, "owner: geometry mismatch");
}

/** One entry as serialize() writes it. */
struct SavedEntry
{
    std::uint64_t tag = 0;
    std::uint64_t value = 0;
    std::uint64_t stamp = 0;
    bool valid = false;
};

/** The entries in @p array's checkpoint bytes, in way order. */
std::vector<SavedEntry>
savedEntries(const SetAssoc &array)
{
    const auto bytes = test::ckptBytes(array);
    ckpt::Decoder dec(bytes.data(), bytes.size());
    dec.u32();  // sets
    dec.u32();  // ways
    dec.u64();  // tick
    std::vector<SavedEntry> entries(dec.u64());
    for (auto &entry : entries) {
        entry.tag = dec.u64();
        entry.value = dec.u64();
        entry.stamp = dec.u64();
        entry.valid = dec.u8() != 0;
    }
    EXPECT_TRUE(dec.ok() && dec.atEnd());
    return entries;
}

TEST(SetAssocTest, InsertFillsTheFirstInvalidWay)
{
    // One set, so every tag lands in it.
    SetAssoc array(1, 4);
    for (std::uint64_t tag = 10; tag < 14; ++tag)
        EXPECT_FALSE(array.insert(tag, tag * 10).evicted);
    auto entries = savedEntries(array);
    ASSERT_EQ(entries.size(), 4u);
    for (unsigned way = 0; way < 4; ++way)
        EXPECT_EQ(entries[way].tag, 10u + way);
    ASSERT_TRUE(array.erase(11));  // Way 1.
    ASSERT_TRUE(array.erase(13));  // Way 3.

    // Both holes beat every valid way; the first of them is way 1.
    EXPECT_FALSE(array.insert(20, 200).evicted);
    entries = savedEntries(array);
    EXPECT_EQ(entries[1].tag, 20u);
    EXPECT_TRUE(entries[1].valid);
    EXPECT_FALSE(entries[3].valid);

    EXPECT_FALSE(array.insert(21, 210).evicted);
    entries = savedEntries(array);
    EXPECT_EQ(entries[3].tag, 21u);
    EXPECT_TRUE(entries[3].valid);
    EXPECT_EQ(entries[0].tag, 10u);
    EXPECT_EQ(entries[2].tag, 12u);

    // Full again: the next insert evicts way 0, the least recent.
    const auto result = array.insert(22, 220);
    EXPECT_TRUE(result.evicted);
    EXPECT_EQ(result.evictedTag, 10u);
    EXPECT_EQ(savedEntries(array)[0].tag, 22u);
}

/** Checkpoint bytes of a 1x2 array at @p tick with way 0 valid. */
std::vector<std::uint8_t>
craftedBytes(std::uint64_t tick, std::uint64_t stamp0)
{
    ckpt::Encoder enc;
    enc.u32(1);
    enc.u32(2);
    enc.u64(tick);
    enc.u64(2);
    const std::uint64_t stamps[] = {stamp0, 0};
    for (unsigned way = 0; way < 2; ++way) {
        enc.u64(100 + way);  // tag
        enc.u64(7);          // value
        enc.u64(stamps[way]);
        enc.u8(way == 0 ? 1 : 0);  // Way 1 is invalid with stamp 0.
    }
    return enc.buffer();
}

TEST(SetAssocTest, ValidStampOutsideOneToTickFailsStructurally)
{
    SetAssoc array(1, 2);
    std::string error;
    EXPECT_TRUE(restore(craftedBytes(5, 5), array, &error)) << error;
    EXPECT_TRUE(restore(craftedBytes(5, 1), array, &error)) << error;

    EXPECT_FALSE(restore(craftedBytes(5, 0), array, &error));
    EXPECT_EQ(error, "owner: LRU stamp out of range");
    EXPECT_FALSE(restore(craftedBytes(5, 6), array, &error));
    EXPECT_EQ(error, "owner: LRU stamp out of range");
}

TEST(SetAssocTest, OwnersNameTheirGeometryMismatch)
{
    Tlb tlb("l2tlb", 128, 4);
    ckpt::Encoder enc;
    ckpt::save(enc, tlb);
    Tlb smaller("l2tlb", 64, 4);
    ckpt::Decoder dec(enc.buffer().data(), enc.buffer().size());
    EXPECT_FALSE(ckpt::load(dec, smaller));
    EXPECT_EQ(dec.error(), "l2tlb: geometry mismatch");
}

/**
 * A fixed seeded mix of lookups, inserts and flushes through every
 * user of the array.  Per-page flushes leave holes in sets, so the
 * choice of which invalid way to fill is exercised too.
 */
struct PinnedRun
{
    std::string stats;        //!< Every group's counter dump.
    std::uint64_t hitSum = 0; //!< Sum over hit payloads.
};

PinnedRun
runPinnedSequence()
{
    Rng rng(0x5e7a55c0ull);
    Tlb tlb("pin_tlb", 16, 4);
    WalkCache psc(8, 4, "pin_psc");
    LineCache lines(64, 8, "pin_lines");
    TlbHierarchy tlbs;
    PinnedRun run;

    const PageSize sizes[] = {PageSize::Size4K, PageSize::Size2M,
                              PageSize::Size1G};
    for (int i = 0; i < 40000; ++i) {
        const auto kind = rng.nextBool(0.3) ? EntryKind::Nested
                                            : EntryKind::Guest;
        const PageSize size = sizes[rng.nextBelow(3)];
        // A hot set of pages, so hits, evictions and holes all occur.
        const std::uint64_t page =
            rng.nextBool(0.6) ? rng.nextBelow(24) : rng.nextBelow(256);
        const Addr addr =
            page * pageBytes(size) + rng.nextBelow(pageBytes(size));
        const Addr frame = rng.nextBelow(1u << 20) * pageBytes(size);
        const std::uint64_t op = rng.nextBelow(1000);
        if (op < 450) {
            if (auto hit = tlb.lookup(kind, addr, size))
                run.hitSum += hit->frame + pageBytes(hit->size);
        } else if (op < 800) {
            tlb.insert(kind, addr, frame, size);
        } else if (op < 990) {
            tlb.flushPage(kind, addr, size);
        } else if (op < 997) {
            tlb.flushKind(kind);
        } else {
            tlb.flushAll();
        }

        const int level = 1 + static_cast<int>(rng.nextBelow(4));
        const std::uint64_t key =
            WalkCache::key(level, rng.nextBelow(1ull << 40));
        if (rng.nextBool(0.6)) {
            if (auto next = psc.lookup(key))
                run.hitSum += *next;
        } else if (rng.nextBool(0.995)) {
            psc.insert(key, rng.nextBelow(1u << 20) * kPage4K);
        } else {
            psc.flush();
        }

        const std::uint64_t line =
            rng.nextBool(0.5) ? rng.nextBelow(600) : rng.nextBelow(1u << 16);
        if (rng.nextBool(0.999))
            run.hitSum += lines.access(line * 64 + rng.nextBelow(64));
        else
            lines.flush();

        const std::uint64_t gpage =
            rng.nextBool(0.7) ? rng.nextBelow(48) : rng.nextBelow(4096);
        const Addr gva = (gpage % 16) * kPage1G + (gpage / 16) * kPage4K;
        const std::uint64_t hop = rng.nextBelow(1000);
        if (hop < 300) {
            if (auto hit = tlbs.lookupL1(gva))
                run.hitSum += hit->frame;
        } else if (hop < 450) {
            if (auto hit = tlbs.lookupL2(gva))
                run.hitSum += hit->frame;
        } else if (hop < 600) {
            if (auto hit = tlbs.lookupNested(gva))
                run.hitSum += hit->frame;
        } else if (hop < 800) {
            const std::uint64_t pick = rng.nextBelow(100);
            const PageSize hsize = pick < 1   ? PageSize::Size1G
                                   : pick < 6 ? PageSize::Size2M
                                              : PageSize::Size4K;
            tlbs.insertGuest(gva, rng.nextBelow(64) * kPage1G, hsize);
        } else if (hop < 900) {
            tlbs.insertNested(gva, rng.nextBelow(1u << 20) * kPage4K,
                              PageSize::Size4K);
        } else if (hop < 960) {
            tlbs.flushGuestPage(gva, PageSize::Size4K);
        } else if (hop < 995) {
            tlbs.flushNestedPage(gva, PageSize::Size4K);
        } else if (hop < 999) {
            tlbs.flushGuest();
        } else {
            tlbs.flushAll();
        }
    }

    std::ostringstream os;
    tlb.stats().dump(os);
    psc.stats().dump(os);
    lines.stats().dump(os);
    for (PageSize size : sizes)
        tlbs.l1For(size).stats().dump(os);
    tlbs.l2().stats().dump(os);
    run.stats = os.str();
    return run;
}

TEST(SetAssocPinnedTest, CountersMatchTheHandWrittenArrays)
{
    // Captured from the three hand-written arrays that SetAssoc
    // replaced.  Which invalid way an insert fills may differ, but no
    // hit, miss, insert or eviction count may.
    const PinnedRun run = runPinnedSequence();
    EXPECT_EQ(run.stats,
              "pin_tlb.evictions 2908\n"
              "pin_tlb.full_flushes 111\n"
              "pin_tlb.hits 1797\n"
              "pin_tlb.inserts 12534\n"
              "pin_tlb.kind_flushes 287\n"
              "pin_tlb.misses 16271\n"
              "pin_psc.flushes 70\n"
              "pin_psc.hits 5654\n"
              "pin_psc.misses 18238\n"
              "pin_lines.flushes 40\n"
              "pin_lines.hits 5932\n"
              "pin_lines.misses 34028\n"
              "l1tlb4k.evictions 454\n"
              "l1tlb4k.full_flushes 59\n"
              "l1tlb4k.hits 2058\n"
              "l1tlb4k.inserts 5939\n"
              "l1tlb4k.kind_flushes 154\n"
              "l1tlb4k.misses 8576\n"
              "l1tlb2m.evictions 0\n"
              "l1tlb2m.full_flushes 59\n"
              "l1tlb2m.hits 1113\n"
              "l1tlb2m.inserts 353\n"
              "l1tlb2m.kind_flushes 154\n"
              "l1tlb2m.misses 10634\n"
              "l1tlb1g.evictions 0\n"
              "l1tlb1g.full_flushes 59\n"
              "l1tlb1g.hits 198\n"
              "l1tlb1g.inserts 60\n"
              "l1tlb1g.kind_flushes 154\n"
              "l1tlb1g.misses 11747\n"
              "l2tlb.evictions 48\n"
              "l2tlb.full_flushes 59\n"
              "l2tlb.hits 3074\n"
              "l2tlb.inserts 8703\n"
              "l2tlb.kind_flushes 154\n"
              "l2tlb.misses 15134\n");
    EXPECT_EQ(run.hitSum, 378007462266038060ull);
}

} // namespace
} // namespace emv::tlb
