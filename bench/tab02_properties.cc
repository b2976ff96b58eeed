/**
 * @file
 * Table II: properties of the virtualized modes, printed from the
 * mode-traits database that drives the simulator (so any drift
 * between documentation and implementation shows up here).  No
 * simulation runs, so only the observability arguments matter; the
 * rest are parsed (and checked) like every bench's.
 */

#include <iostream>

#include "bench_util.hh"
#include "core/mode.hh"
#include "sim/report.hh"

using namespace emv;
using core::Mode;

int
main(int argc, char **argv)
{
    sim::RunParams params;
    params.parseArgs(argc, argv);

    const Mode modes[] = {Mode::BaseVirtualized, Mode::DualDirect,
                          Mode::VmmDirect, Mode::GuestDirect};

    sim::Table table("Table II: tradeoffs among translation modes",
                     {"property", "Base Virtualized", "Dual Direct",
                      "VMM Direct", "Guest Direct"});

    auto row = [&](const char *name, auto getter) {
        std::vector<std::string> cells{name};
        for (Mode mode : modes)
            cells.push_back(getter(core::modeTraits(mode)));
        table.addRow(std::move(cells));
    };

    row("page walk dimensions", [](const core::ModeTraits &t) {
        return std::to_string(t.walkDims) + "D";
    });
    row("# memory accesses (most walks)",
        [](const core::ModeTraits &t) {
            return std::to_string(t.walkRefs);
        });
    row("# base-bound checks", [](const core::ModeTraits &t) {
        return std::to_string(t.baseBoundChecks);
    });
    row("guest OS modifications", [](const core::ModeTraits &t) {
        return std::string(t.guestOsChanges ? "required" : "none");
    });
    row("VMM modifications", [](const core::ModeTraits &t) {
        return std::string(t.vmmChanges ? "required" : "none");
    });
    row("application category", [](const core::ModeTraits &t) {
        return std::string(t.appCategory);
    });
    row("page sharing", [](const core::ModeTraits &t) {
        return std::string(core::supportName(t.pageSharing));
    });
    row("ballooning", [](const core::ModeTraits &t) {
        return std::string(core::supportName(t.ballooning));
    });
    row("guest swapping", [](const core::ModeTraits &t) {
        return std::string(core::supportName(t.guestSwapping));
    });
    row("VMM swapping", [](const core::ModeTraits &t) {
        return std::string(core::supportName(t.vmmSwapping));
    });

    table.print(std::cout);
    // No simulation runs here (the table reads the traits database),
    // so the throughput section is an explicit zero, not an omission.
    bench::writeBenchJson("Table 2 properties",
                          bench::ThroughputMeter(), {&table});
    return 0;
}
