/** @file Unit tests for experiment descriptors and label parsing. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "sim/experiment.hh"

namespace emv::sim {
namespace {

using core::Mode;

TEST(SpecFromLabelTest, NativeSizes)
{
    auto spec = specFromLabel("4K");
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->mode, Mode::Native);
    EXPECT_EQ(spec->guestPageSize, PageSize::Size4K);

    EXPECT_EQ(specFromLabel("2M")->guestPageSize, PageSize::Size2M);
    EXPECT_EQ(specFromLabel("1G")->guestPageSize, PageSize::Size1G);
}

TEST(SpecFromLabelTest, VirtualizedCombos)
{
    auto spec = specFromLabel("2M+1G");
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->mode, Mode::BaseVirtualized);
    EXPECT_EQ(spec->guestPageSize, PageSize::Size2M);
    EXPECT_EQ(spec->vmmPageSize, PageSize::Size1G);
}

TEST(SpecFromLabelTest, ProposedModes)
{
    EXPECT_EQ(specFromLabel("DS")->mode, Mode::NativeDirect);
    EXPECT_EQ(specFromLabel("DD")->mode, Mode::DualDirect);
    EXPECT_EQ(specFromLabel("4K+VD")->mode, Mode::VmmDirect);
    EXPECT_EQ(specFromLabel("4K+GD")->mode, Mode::GuestDirect);
    EXPECT_EQ(specFromLabel("2M+VD")->guestPageSize,
              PageSize::Size2M);
}

TEST(SpecFromLabelTest, ThpAndShadow)
{
    EXPECT_TRUE(specFromLabel("THP")->thp);
    EXPECT_TRUE(specFromLabel("THP+2M")->thp);
    EXPECT_EQ(specFromLabel("THP+2M")->vmmPageSize,
              PageSize::Size2M);
    auto sh = specFromLabel("sh4K");
    ASSERT_TRUE(sh.has_value());
    EXPECT_TRUE(sh->shadow);
    EXPECT_EQ(specFromLabel("sh2M")->guestPageSize,
              PageSize::Size2M);
}

TEST(SpecFromLabelTest, RejectsGarbage)
{
    EXPECT_FALSE(specFromLabel("5K").has_value());
    EXPECT_FALSE(specFromLabel("4K+9G").has_value());
    EXPECT_FALSE(specFromLabel("").has_value());
    EXPECT_FALSE(specFromLabel("XX+VD").has_value());
}

TEST(FigureConfigTest, Figure11HasThirteenBars)
{
    auto configs = figure11Configs();
    EXPECT_EQ(configs.size(), 13u);
    // The paper's key bars are present.
    bool has_dd = false, has_vd = false, has_gd = false,
         has_ds = false;
    for (const auto &spec : configs) {
        has_dd |= spec.label == "DD";
        has_vd |= spec.label == "4K+VD";
        has_gd |= spec.label == "4K+GD";
        has_ds |= spec.label == "DS";
    }
    EXPECT_TRUE(has_dd && has_vd && has_gd && has_ds);
}

TEST(FigureConfigTest, Figure12UsesThp)
{
    auto configs = figure12Configs();
    bool any_thp = false;
    for (const auto &spec : configs)
        any_thp |= spec.thp;
    EXPECT_TRUE(any_thp);
}

TEST(FigureConfigTest, Figure1IsPreviewSubset)
{
    auto preview = figure1Configs();
    EXPECT_EQ(preview.size(), 6u);
}

TEST(RunParamsTest, ParseArgs)
{
    RunParams params;
    char a0[] = "bench";
    char a1[] = "scale=0.25";
    char a2[] = "ops=12345";
    char a3[] = "warmup=99";
    char a4[] = "seed=7";
    char *argv[] = {a0, a1, a2, a3, a4};
    params.parseArgs(5, argv);
    EXPECT_DOUBLE_EQ(params.scale, 0.25);
    EXPECT_EQ(params.measureOps, 12345u);
    EXPECT_EQ(params.warmupOps, 99u);
    EXPECT_EQ(params.seed, 7u);
}

/** parseArgs on one argument; exits 1 on a usage error. */
void
parseOne(const char *arg, std::uint64_t *trials = nullptr)
{
    RunParams params;
    std::string copy(arg);
    char a0[] = "bench";
    char *argv[] = {a0, copy.data()};
    std::uint64_t ignored = 1;
    params.parseArgs(2, argv,
                     {{"trials", trials ? trials : &ignored, 1, 30}});
}

TEST(RunParamsDeathTest, RejectsNumbersWithTextLeftOver)
{
    for (const char *arg :
         {"ops=3e6", "ops=abc", "ops=", "warmup=-1", "seed=7x",
          "scale=abc", "scale=0", "scale=-1", "scale=inf",
          "scale=nan", "profile=yes", "trials=0", "trials=31",
          "trials=2.5"}) {
        EXPECT_EXIT(parseOne(arg), testing::ExitedWithCode(1),
                    "bad value in") << arg;
    }
}

TEST(RunParamsDeathTest, RejectsUnknownKeysAndBareWords)
{
    // A bare word is no key, not a key with an empty value.
    for (const char *arg : {"bogus=1", "trace", "ops", "scale"}) {
        EXPECT_EXIT(parseOne(arg), testing::ExitedWithCode(1),
                    "unknown argument") << arg;
    }
}

TEST(RunParamsTest, ParsesExtraArgs)
{
    std::uint64_t trials = 1;
    parseOne("trials=30", &trials);
    EXPECT_EQ(trials, 30u);
}

TEST(RunCellTest, ProducesComparableCells)
{
    setQuietLogging(true);
    RunParams params;
    params.scale = 0.02;
    params.warmupOps = 3000;
    params.measureOps = 15000;
    auto native = runCell(
        {workload::WorkloadKind::Gups, *specFromLabel("4K"), params});
    auto virt = runCell(
        {workload::WorkloadKind::Gups, *specFromLabel("4K+4K"), params});
    auto dd = runCell(
        {workload::WorkloadKind::Gups, *specFromLabel("DD"), params});
    EXPECT_EQ(native.workload, "gups");
    EXPECT_EQ(native.config, "4K");
    // The headline ordering of the paper.
    EXPECT_LT(dd.overhead(), native.overhead());
    EXPECT_LT(native.overhead(), virt.overhead());
}

} // namespace
} // namespace emv::sim
