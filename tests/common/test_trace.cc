/** @file Unit tests for the debug-trace flags. */

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.hh"

namespace emv {
namespace {

/** Installs an in-memory sink and clears flags on both ends. */
class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace::clearFlags();
        trace::setSink(&captured);
    }

    void
    TearDown() override
    {
        trace::setSink(nullptr);
        trace::clearFlags();
    }

    std::ostringstream captured;
};

TEST_F(TraceTest, DisabledFlagEmitsNothing)
{
    EMV_TRACE(Walk, "should not appear %d", 1);
    EXPECT_TRUE(captured.str().empty());
    EXPECT_FALSE(trace::enabled(trace::Flag::Walk));
}

TEST_F(TraceTest, EnabledFlagEmitsPrefixedRecord)
{
    ASSERT_TRUE(trace::setFlags("Walk"));
    EXPECT_TRUE(trace::enabled(trace::Flag::Walk));
    EMV_TRACE(Walk, "gva=%#x refs=%d", 0x1000, 24);
    EXPECT_EQ(captured.str(), "Walk: gva=0x1000 refs=24\n");
}

TEST_F(TraceTest, OnlyNamedFlagsEnabled)
{
    ASSERT_TRUE(trace::setFlags("Tlb,Filter"));
    EXPECT_TRUE(trace::enabled(trace::Flag::Tlb));
    EXPECT_TRUE(trace::enabled(trace::Flag::Filter));
    EXPECT_FALSE(trace::enabled(trace::Flag::Walk));
    EXPECT_FALSE(trace::enabled(trace::Flag::Balloon));

    EMV_TRACE(Walk, "hidden");
    EMV_TRACE(Tlb, "shown");
    EXPECT_EQ(captured.str(), "Tlb: shown\n");
}

TEST_F(TraceTest, AllEnablesEveryFlag)
{
    ASSERT_TRUE(trace::setFlags("All"));
    const unsigned num =
        static_cast<unsigned>(trace::Flag::NumFlags);
    EXPECT_EQ(trace::enabledFlags().size(), num);
    for (unsigned i = 0; i < num; ++i)
        EXPECT_TRUE(trace::enabled(static_cast<trace::Flag>(i)));
}

TEST_F(TraceTest, UnknownFlagRejectedAndStateUntouched)
{
    ASSERT_TRUE(trace::setFlags("Tlb"));
    EXPECT_FALSE(trace::setFlags("Tlb,Bogus"));
    // Failed parse leaves the previous set alone.
    EXPECT_TRUE(trace::enabled(trace::Flag::Tlb));
    EXPECT_FALSE(trace::enabled(trace::Flag::Walk));
}

TEST_F(TraceTest, EmptyCsvDisablesEverything)
{
    ASSERT_TRUE(trace::setFlags("All"));
    ASSERT_TRUE(trace::setFlags(""));
    EXPECT_TRUE(trace::enabledFlags().empty());
    EMV_TRACE(Vmm, "nope");
    EXPECT_TRUE(captured.str().empty());
}

TEST_F(TraceTest, FlagNamesRoundTrip)
{
    const unsigned num =
        static_cast<unsigned>(trace::Flag::NumFlags);
    for (unsigned i = 0; i < num; ++i) {
        const auto flag = static_cast<trace::Flag>(i);
        auto parsed = trace::flagByName(trace::flagName(flag));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, flag);
    }
    EXPECT_FALSE(trace::flagByName("NotAFlag").has_value());
    EXPECT_NE(trace::allFlagNames().find("Walk"),
              std::string::npos);
}

// The trace sink is the one lock the library keeps (DESIGN.md §12);
// run this under the tsan preset to check it.
TEST_F(TraceTest, ConcurrentEmitKeepsLinesWhole)
{
    ASSERT_TRUE(trace::setFlags("Walk"));
    constexpr unsigned kThreads = 4;
    constexpr unsigned kRecords = 2000;
    // A long payload and a common start make an unlocked stream
    // interleave or lose records visibly.
    const std::string pad(200, 'x');
    std::latch start(kThreads);
    {
        std::vector<std::jthread> workers;
        for (unsigned t = 0; t < kThreads; ++t) {
            workers.emplace_back([t, &pad, &start] {
                start.arrive_and_wait();
                for (unsigned i = 0; i < kRecords; ++i)
                    EMV_TRACE(Walk, "t=%u i=%u %s", t, i, pad.c_str());
            });
        }
    }

    // Every record arrives exactly once, as one whole line.
    std::vector<std::string> expected, lines;
    for (unsigned t = 0; t < kThreads; ++t) {
        for (unsigned i = 0; i < kRecords; ++i) {
            expected.push_back("Walk: t=" + std::to_string(t) +
                               " i=" + std::to_string(i) + " " + pad);
        }
    }
    std::istringstream in(captured.str());
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), expected.size());
    std::sort(expected.begin(), expected.end());
    std::sort(lines.begin(), lines.end());
    EXPECT_TRUE(lines == expected);
}

} // namespace
} // namespace emv
