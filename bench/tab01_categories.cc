/**
 * @file
 * Table I: translation steps per Dual Direct category.
 *
 * Classifies every TLB miss of a Dual Direct run into the four
 * categories (Both / VMM segment only / Guest segment only /
 * Neither) and reports the measured memory references and
 * calculations each category costs, alongside Table I's
 * specification.  The mix is steered by deliberately escaping some
 * pages (Guest-only) and accessing non-primary regions (VMM-only).
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"

using namespace emv;

int
main(int argc, char **argv)
{
    setQuietLogging(true);

    sim::RunParams params;
    params.scale = 0.05;
    params.seed = 7;
    params.warmupOps = 50000;
    params.measureOps = 400000;
    params.parseArgs(argc, argv);

    sim::MachineConfig cfg;
    cfg.mode = core::Mode::DualDirect;
    cfg.mmu.walkCachesEnabled = false;  // Show raw step counts.
    cfg.mmu.nestedTlbShared = false;
    cfg.badFrames = 12;  // Forces some Guest-only escapes.
    const sim::CellResult cell =
        sim::runCell({workload::WorkloadKind::Gups, "DD", cfg, params});
    const auto mmu = [&cell](const char *name) {
        return bench::mmuCounter(cell, name);
    };

    const auto both = mmu("cat_both");
    const auto vmm_only = mmu("cat_vmm_only");
    const auto guest_only = mmu("cat_guest_only");
    const auto neither = mmu("cat_neither");
    const auto total = both + vmm_only + guest_only + neither;

    sim::Table table("Table I: Dual Direct translation categories "
                     "(measured mix)",
                     {"category", "share", "walk refs (Table I)",
                      "calcs (Table I)"});
    auto share = [&](std::uint64_t n) {
        return sim::pct(total ? static_cast<double>(n) /
                                    static_cast<double>(total)
                              : 0.0);
    };
    table.addRow({"Both (0D)", share(both), "0", "1"});
    table.addRow({"VMM segment only", share(vmm_only), "4", "5"});
    table.addRow({"Guest segment only", share(guest_only), "4",
                  "1"});
    table.addRow({"Neither (2D)", share(neither), "24", "0"});
    table.print(std::cout);

    const auto walks = mmu("walks");
    const auto walk_refs = mmu("guest_refs") + mmu("nested_refs");
    sim::Table checks("Measured micro-checks (cold hardware)",
                      {"counter", "value"});
    checks.addRow({"dd fast hits (Both)",
                   std::to_string(mmu("dd_fast_hits"))});
    checks.addRow({"escape slow paths",
                   std::to_string(mmu("escape_slow_paths"))});
    checks.addRow({"walks", std::to_string(walks)});
    checks.addRow({"refs per walk (non-Both avg)",
                   sim::fmt(walks ? static_cast<double>(walk_refs) /
                                        static_cast<double>(walks)
                                  : 0.0,
                            2)});
    std::printf("\n");
    checks.print(std::cout);
    bench::writeBenchJson("Table 1 categories",
                          bench::ThroughputMeter({cell}),
                          {&table, &checks});
    return 0;
}
