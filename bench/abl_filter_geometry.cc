/**
 * @file
 * Ablation: escape-filter geometry (§V / §IX.C design choice).
 *
 * The paper picks a 256-bit parallel Bloom filter with four H3 hash
 * functions and claims it tolerates 16 faulty pages with near-zero
 * false-positive cost.  This sweep varies filter bits and hash
 * count, reporting measured and analytic false-positive rates and
 * the end-to-end overhead each geometry induces in Dual Direct.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/rng.hh"
#include "segment/escape_filter.hh"

using namespace emv;

int
main(int argc, char **argv)
{
    setQuietLogging(true);

    sim::RunParams params;
    params.scale = 0.1;
    params.warmupOps = 50000;
    params.measureOps = 250000;
    params.parseArgs(argc, argv);

    sim::Table table("Ablation: escape-filter geometry, 16 faulty pages "
                     "inserted",
                     {"bits", "hashes", "analytic FP", "measured FP",
                      "DD overhead w/ 16 faults"});

    bench::ThroughputMeter meter;
    for (unsigned bits : {64u, 128u, 256u, 512u, 1024u}) {
        for (unsigned hashes : {2u, 4u}) {
            // Stand-alone false-positive measurement.
            segment::EscapeFilter filter(bits, hashes, 0xabc);
            Rng rng(5);
            for (int i = 0; i < 16; ++i)
                filter.insertPage(rng.nextBelow(1ull << 36) << 12);
            std::uint64_t fp = 0;
            const std::uint64_t probes = 200000;
            for (std::uint64_t i = 0; i < probes; ++i)
                fp += filter.mayContain(((1ull << 41) + i) << 12);
            const double measured =
                static_cast<double>(fp) /
                static_cast<double>(probes);

            // End-to-end: Dual Direct with this filter and 16
            // faults.
            sim::RunParams p = params;
            p.badFrames = 16;
            auto spec = *sim::specFromLabel("DD");
            auto wl = workload::makeWorkload(
                workload::WorkloadKind::Gups, p.seed, p.scale);
            auto cfg = sim::makeMachineConfig(spec, p);
            cfg.mmu.filterBits = bits;
            cfg.mmu.filterHashes = hashes;
            sim::Machine machine(cfg, *wl);
            auto run = meter.measure(machine, p);

            table.addRow(
                {std::to_string(bits), std::to_string(hashes),
                 sim::pct(filter.expectedFalsePositiveRate()),
                 sim::pct(measured),
                 sim::pct(run.translationOverhead())});
            std::fprintf(stderr, ".");
        }
    }
    std::fprintf(stderr, "\n");
    table.print(std::cout);
    std::printf("\nThe paper's 256-bit / 4-hash point should show "
                "~0.2%% false positives and\nnear-zero overhead; "
                "64-bit filters saturate and leak walks.\n");
    bench::writeBenchJson("Ablation filter geometry", meter, {&table});
    return 0;
}
