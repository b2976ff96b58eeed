/**
 * @file
 * Process-wide hierarchical stat registry and its exporters.
 *
 * Every StatGroup registers itself here on construction and
 * deregisters on destruction, so one call can export the state of
 * the whole simulated machine.  Groups are exported under their
 * hierarchical full names ("machine.mmu", "machine.os", ...);
 * sim::Machine reparents the groups it assembles.
 *
 * Three exporters share the StatVisitor interface:
 *   - TextStatExporter: the classic "group.name value" lines;
 *   - JsonStatExporter: the emv-stats-v1 schema (see DESIGN.md);
 *   - CsvStatExporter:  "group,stat,kind,value" rows.
 */

#pragma once

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/thread_safety.hh"

namespace emv {

/**
 * Registry of all live StatGroups (identity-based, thread-safe).
 *
 * Locking contract: statRegistryMutex() is a leaf lock guarding the
 * entry list and every group's parent link.  It is never held across
 * a callback — groups(), visitAll() and groupsUnder() take the sort
 * keys (full names) under the lock, release it, then sort/visit the
 * snapshot.  Visitors may therefore re-enter the registry freely (a
 * visitor constructing or destroying a StatGroup, or querying
 * size(), cannot deadlock), and every public method is annotated
 * EMV_EXCLUDES so the thread-safety analysis rejects any future path
 * that would call back in while holding it.  A group in the entry
 * list is alive while the lock is held (~StatGroup blocks in
 * remove()), but the snapshot is of *registration*: concurrent group
 * destruction during a visit is still a use-after-free, so exporters
 * run only while the groups they cover are quiescent (e.g. after
 * worker threads joined).
 */
class StatRegistry
{
  public:
    static StatRegistry &instance();

    void add(StatGroup *group) EMV_EXCLUDES(statRegistryMutex());
    void remove(StatGroup *group) EMV_EXCLUDES(statRegistryMutex());

    /** Live groups sorted by fullName (ties keep creation order). */
    std::vector<const StatGroup *> groups() const
        EMV_EXCLUDES(statRegistryMutex());

    /** Live groups whose fullName starts with @p prefix. */
    std::vector<const StatGroup *>
    groupsUnder(const std::string &prefix) const
        EMV_EXCLUDES(statRegistryMutex());

    /** visit() every live group in fullName order.  The registry
     *  lock is NOT held during visits (see the class comment). */
    void visitAll(StatVisitor &visitor) const
        EMV_EXCLUDES(statRegistryMutex());

    std::size_t size() const EMV_EXCLUDES(statRegistryMutex());

  private:
    StatRegistry() = default;

    std::vector<StatGroup *> entries
        EMV_GUARDED_BY(statRegistryMutex());
};

/** "group.name value" lines, one per stat (dump() format). */
class TextStatExporter : public StatVisitor
{
  public:
    explicit TextStatExporter(std::ostream &os) : os(os) {}

    void visitCounter(const StatGroup &group, const std::string &name,
                      const Counter &counter) override;
    void visitScalar(const StatGroup &group, const std::string &name,
                     const Scalar &scalar) override;
    void visitDistribution(const StatGroup &group,
                           const std::string &name,
                           const Distribution &dist) override;

  private:
    std::ostream &os;
};

/**
 * emv-stats-v1 JSON.  Wrap visits between begin()/end():
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
class JsonStatExporter : public StatVisitor
{
  public:
    explicit JsonStatExporter(std::ostream &os);
    ~JsonStatExporter() override;

    void begin();
    void end();

    void beginGroup(const StatGroup &group) override;
    void endGroup(const StatGroup &group) override;
    void visitCounter(const StatGroup &group, const std::string &name,
                      const Counter &counter) override;
    void visitScalar(const StatGroup &group, const std::string &name,
                     const Scalar &scalar) override;
    void visitDistribution(const StatGroup &group,
                           const std::string &name,
                           const Distribution &dist) override;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

/** "group,stat,kind,value" rows with a header line. */
class CsvStatExporter : public StatVisitor
{
  public:
    explicit CsvStatExporter(std::ostream &os);

    void visitCounter(const StatGroup &group, const std::string &name,
                      const Counter &counter) override;
    void visitScalar(const StatGroup &group, const std::string &name,
                     const Scalar &scalar) override;
    void visitDistribution(const StatGroup &group,
                           const std::string &name,
                           const Distribution &dist) override;

  private:
    void row(const StatGroup &group, const std::string &stat,
             const char *kind, double value);

    std::ostream &os;
};

/** Export @p groups as text / JSON / CSV in fullName order. */
void exportStatsText(std::ostream &os,
                     const std::vector<const StatGroup *> &groups);
void exportStatsJson(std::ostream &os,
                     const std::vector<const StatGroup *> &groups);
void exportStatsCsv(std::ostream &os,
                    const std::vector<const StatGroup *> &groups);

} // namespace emv

