/**
 * @file
 * emv-stats-v1 JSON export of a list of stat groups.
 *
 * The caller names the groups (sim::Machine::statGroups() lists the
 * ones a machine owns); they are exported under their hierarchical
 * full names ("machine.mmu", "machine.os", ...) in full-name order.
 * The text form is StatGroup::dump().
 */

#pragma once

#include <ostream>
#include <vector>

#include "common/stats.hh"

namespace emv {

/**
 * Write @p groups as emv-stats-v1 JSON, sorted by fullName (ties
 * keep list order), followed by a newline:
 *
 *   {"schema": "emv-stats-v1",
 *    "groups": [{"name": "machine.mmu",
 *                "counters": {"l1_hits": 12},
 *                "scalars": {"walk_cycles": 99.0},
 *                "distributions": {"cycles_per_walk":
 *                    {"count":..., "mean":..., "stddev":...,
 *                     "min":..., "max":..., "p50":..., "p90":...,
 *                     "p99":...}}}, ...]}
 */
void exportStatsJson(std::ostream &os,
                     const std::vector<const StatGroup *> &groups);

} // namespace emv
