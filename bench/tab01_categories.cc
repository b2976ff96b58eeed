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
#include "common/logging.hh"
#include "sim/machine.hh"
#include "sim/report.hh"
#include "workload/workload.hh"

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

    auto wl = workload::makeWorkload(workload::WorkloadKind::Gups,
                                     params.seed, params.scale);
    sim::MachineConfig cfg;
    cfg.mode = core::Mode::DualDirect;
    cfg.mmu.walkCachesEnabled = false;  // Show raw step counts.
    cfg.mmu.nestedTlbShared = false;
    cfg.badFrames = 12;  // Forces some Guest-only escapes.
    sim::Machine machine(cfg, *wl);
    bench::ThroughputMeter meter;
    machine.run(params.warmupOps);
    machine.resetStats();
    meter.run(machine, params.measureOps);

    const auto &stats = machine.mmu().stats();
    const auto both = stats.counterValue("cat_both");
    const auto vmm_only = stats.counterValue("cat_vmm_only");
    const auto guest_only = stats.counterValue("cat_guest_only");
    const auto neither = stats.counterValue("cat_neither");
    const auto total = both + vmm_only + guest_only + neither;

    std::printf("Table I: Dual Direct translation categories "
                "(measured mix)\n\n");
    sim::Table table({"category", "share", "walk refs (Table I)",
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

    std::printf("\nMeasured micro-checks (cold hardware):\n");
    std::printf("  dd fast hits (Both):          %llu\n",
                static_cast<unsigned long long>(
                    stats.counterValue("dd_fast_hits")));
    std::printf("  escape slow paths:            %llu\n",
                static_cast<unsigned long long>(
                    stats.counterValue("escape_slow_paths")));
    std::printf("  walks:                        %llu\n",
                static_cast<unsigned long long>(
                    stats.counterValue("walks")));
    std::printf("  refs per walk (non-Both avg): %.2f\n",
                stats.counterValue("walks")
                    ? static_cast<double>(
                          stats.counterValue("guest_refs") +
                          stats.counterValue("nested_refs")) /
                          static_cast<double>(
                              stats.counterValue("walks"))
                    : 0.0);
    bench::writeBenchJson("Table 1 categories", meter);
    return 0;
}
