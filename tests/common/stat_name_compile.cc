/** @file
 * Compiled by the stat_name_* CTests, never linked: declaring a stat
 * with a name that is not lower_snake_case must not compile.  The
 * default name is the bad one; the control test passes a good one
 * through STAT_NAME, so a failure to compile for any other reason
 * shows up there.
 */

#include "common/stats.hh"

#ifndef STAT_NAME
#define STAT_NAME "BadCamelName"
#endif

void
declareStat(emv::StatGroup &g)
{
    emv::Counter c{g, STAT_NAME};
}
