/**
 * @file
 * Figure 2: the 2D nested page walk state machine.
 *
 * Reproduces the headline count: a native x86-64 walk makes up to 4
 * memory references; a virtualized 2D walk makes up to 24
 * (5 per guest level x 4 levels + 4 for the data gPA).  We measure
 * actual cold-walk reference counts from the simulator with MMU
 * caches disabled, then show how each proposed mode flattens the
 * walk (Table II's "# of memory accesses" row).
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/logging.hh"
#include "core/mmu.hh"
#include "sim/machine.hh"
#include "sim/report.hh"
#include "workload/workload.hh"

using namespace emv;

namespace {

struct ModeRow
{
    const char *label;
    core::Mode mode;
};

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);

    sim::RunParams params;
    params.scale = 0.02;
    params.seed = 1;
    params.warmupOps = 0;
    params.measureOps = 50000;
    params.parseArgs(argc, argv);

    const ModeRow rows[] = {
        {"native 1D", core::Mode::Native},
        {"base virtualized 2D", core::Mode::BaseVirtualized},
        {"VMM Direct", core::Mode::VmmDirect},
        {"Guest Direct", core::Mode::GuestDirect},
        {"Dual Direct", core::Mode::DualDirect},
    };

    sim::Table table("Figure 2 / Table II: memory references per cold "
                     "page walk",
                     {"mode", "refs/walk (cold)", "calcs/walk",
                      "paper says"});

    bench::ThroughputMeter meter;
    for (const auto &row : rows) {
        auto wl = workload::makeWorkload(workload::WorkloadKind::Gups,
                                         params.seed, params.scale);
        sim::MachineConfig cfg;
        cfg.mode = row.mode;
        // Cold hardware: no MMU caches, no nested TLB, so every
        // walk shows its full reference count.
        cfg.mmu.walkCachesEnabled = false;
        cfg.mmu.nestedTlbShared = false;
        sim::Machine machine(cfg, *wl);
        meter.measure(machine, params);

        const auto &stats = machine.mmu().stats();
        const double walks = static_cast<double>(
            stats.counterValue("walks"));
        const double dd_hits = static_cast<double>(
            stats.counterValue("dd_fast_hits") +
            stats.counterValue("ds_fast_hits"));
        const double refs = static_cast<double>(
            stats.counterValue("guest_refs") +
            stats.counterValue("nested_refs") +
            stats.counterValue("native_refs"));
        const double calcs =
            static_cast<double>(stats.counterValue("calculations"));
        const double denom = std::max(walks + dd_hits, 1.0);

        const char *expect =
            row.mode == core::Mode::Native ? "4"
            : row.mode == core::Mode::BaseVirtualized ? "24"
            : row.mode == core::Mode::VmmDirect ? "4 (+5 calcs)"
            : row.mode == core::Mode::GuestDirect ? "4 (+1 calc)"
                                                  : "0 (+1 calc)";
        table.addRow({row.label, sim::fmt(refs / denom, 2),
                      sim::fmt(calcs / std::max(walks, 1.0), 2),
                      expect});
    }
    table.print(std::cout);
    std::printf("\nNote: Dual Direct resolves most misses without "
                "invoking the walker at all;\nits refs/walk average "
                "includes the rare escape/fallback walks only.\n");
    bench::writeBenchJson("Figure 2 walk refs", meter, {&table});
    return 0;
}
