/**
 * @file
 * Lightweight statistics: counters, scalars and distributions
 * declared in named groups.
 *
 * The paper's methodology is counter-driven (perf + BadgerTrap): TLB
 * misses, page-walk cycles, walk memory references.  Every simulated
 * structure declares its stats once, as typed members of a StatGroup
 * (gem5's idiom), so experiments can dump and diff them uniformly:
 *
 *   struct Stats : StatGroup
 *   {
 *       Stats() : StatGroup("mmu") {}
 *       Counter accesses{*this, "accesses"};
 *       Scalar walkCycles{*this, "walk_cycles"};
 *   };
 *
 * Each stat registers with its group when it is constructed, and the
 * base group is constructed first, so the stat set is fixed once the
 * owner is built: a bump is a member access, never a name lookup.
 *
 * Groups carry hierarchical names: a group named "mmu" reparented
 * under "machine" exports as "machine.mmu.l1_misses".  Nothing
 * tracks groups globally; their owner lists them for export (see
 * sim::Machine::statGroups()), and exporters walk them through the
 * StatVisitor interface (see stat_export.hh).
 */

#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace emv {

namespace ckpt {
class Encoder;
class Decoder;
} // namespace ckpt

class StatGroup;

/**
 * A stat or group name: lower_snake_case components joined by dots
 * ("hits", "vm_exits_nested_repair", "vm.vm0"), the exported
 * "machine.mmu.*" convention.  The constructor is consteval, so a
 * name that breaks the rule does not compile.
 */
class StatName
{
  public:
    static constexpr bool
    valid(std::string_view name)
    {
        bool component_start = true;
        for (const char c : name) {
            if (c == '.' && !component_start) {
                component_start = true;
                continue;
            }
            const bool lower = c >= 'a' && c <= 'z';
            const bool tail = c == '_' || (c >= '0' && c <= '9');
            if (!lower && (component_start || !tail))
                return false;
            component_start = false;
        }
        return !component_start;
    }

    consteval StatName(const char *name) : _name(name)
    {
        if (!valid(name))
            throw "stat name is not a lower_snake_case dotted path";
    }

    const char *c_str() const { return _name; }

  private:
    const char *_name;
};

/** Monotonic event counter. */
class Counter
{
  public:
    Counter() = default;
    /** Declare this counter as @p group's stat @p name. */
    Counter(StatGroup &group, StatName name);

    Counter &operator++() { ++_value; return *this; }
    Counter &operator+=(std::uint64_t delta)
    { _value += delta; return *this; }

    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

  private:
    friend class StatGroup;  // Checkpoints the value.

    std::uint64_t _value = 0;
};

/** Accumulating floating-point scalar (e.g. cycles). */
class Scalar
{
  public:
    Scalar() = default;
    /** Declare this scalar as @p group's stat @p name. */
    Scalar(StatGroup &group, StatName name);

    Scalar &operator+=(double delta) { _value += delta; return *this; }
    void set(double value) { _value = value; }

    double value() const { return _value; }
    void reset() { _value = 0.0; }

  private:
    friend class StatGroup;  // Checkpoints the value.

    double _value = 0.0;
};

/**
 * Running distribution: count, sum, min, max, mean and sample
 * variance via Welford's algorithm, plus power-of-two buckets for
 * approximate percentiles (bucket b holds samples in [2^(b-1), 2^b);
 * everything below 1.0 lands in bucket 0).  Percentile estimates
 * are therefore exact to within one octave — plenty for "p99 walk
 * cycles" style observability without storing samples.
 */
class Distribution
{
  public:
    static constexpr unsigned kBuckets = 64;

    Distribution() = default;
    /** Declare this distribution as @p group's stat @p name. */
    Distribution(StatGroup &group, StatName name);

    void sample(double value);
    void reset();

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }
    double mean() const;
    double variance() const;
    double stddev() const;

    /**
     * Approximate @p p quantile (p in [0, 1]) from the power-of-two
     * buckets, clamped to the observed [min, max].
     *
     * Error bound: the estimate is the geometric midpoint
     * (1.5 * 2^(b-1)) of the one-octave bucket [2^(b-1), 2^b)
     * holding the target sample, so it sits within a factor of 2 of
     * a true sample value (at most 1.5x above the bucket floor, at
     * most 1.33x below its ceiling) — a ±2x bound, never tighter
     * than the octave.  p outside [0, 1] is clamped; an empty
     * distribution returns 0.  For tighter tails (the telemetry
     * p999), use telemetry::LatencyHistogram, whose 16 sub-buckets
     * per octave bound the relative error at 1/16 instead.
     */
    double percentile(double p) const;

    /** Raw bucket occupancy (tests, exporters). */
    const std::array<std::uint64_t, kBuckets> &buckets() const
    { return _buckets; }

    /** Checkpoint all running moments + buckets bit-exactly. */
    template <class Ar>
    void persist(Ar &ar);

  private:
    static unsigned bucketIndex(double value);

    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
    double _mean = 0.0;
    double _m2 = 0.0;
    std::array<std::uint64_t, kBuckets> _buckets{};
};

/**
 * Visitor over a group's stats; the JSON exporter and any future
 * sink implement this.
 */
class StatVisitor
{
  public:
    virtual ~StatVisitor() = default;

    virtual void beginGroup(const StatGroup &group) { (void)group; }
    virtual void endGroup(const StatGroup &group) { (void)group; }
    virtual void visitCounter(const StatGroup &group,
                              const std::string &name,
                              const Counter &counter) = 0;
    virtual void visitScalar(const StatGroup &group,
                             const std::string &name,
                             const Scalar &scalar) = 0;
    virtual void visitDistribution(const StatGroup &group,
                                   const std::string &name,
                                   const Distribution &dist) = 0;
};

/**
 * A named collection of declared stats (see the file comment); it
 * reads stats by name but never hands out a mutable one, and holds
 * pointers to them, so it cannot be copied or moved.  dump() emits
 * "group.name value" lines; setParent() prefixes the exported name
 * ("machine" + "mmu" -> "machine.mmu").
 *
 * Thread-safety: none needed.  A group and its stats belong to the
 * thread that owns the component declaring them (a Machine is
 * built, run and destroyed on one thread; DESIGN.md §12), and
 * nothing outside the owner reaches a group.
 */
class StatGroup
{
  public:
    explicit StatGroup(StatName name) : _name(name.c_str()) {}
    /** A group named "<prefix>.<name>" (one per VM: "vm.vm0"). */
    StatGroup(StatName prefix, StatName name)
        : _name(std::string(prefix.c_str()) + "." + name.c_str())
    {
    }

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Value of a counter (0 if not declared). */
    std::uint64_t counterValue(const std::string &name) const;
    /** Value of a scalar (0 if not declared). */
    double scalarValue(const std::string &name) const;

    void resetAll();
    void dump(std::ostream &os) const;

    /** Walk all stats through @p visitor (alphabetical per kind). */
    void visit(StatVisitor &visitor) const;

    /** Copy the name and every value from @p other, which declares
     *  the same stats (e.g. the group of a copied component); the
     *  parent link stays this group's own. */
    void copyValues(const StatGroup &other);

    const std::string &name() const { return _name; }

    /** Hierarchy prefix; fullName() becomes "<prefix>.<name>". */
    void setParent(const std::string &prefix);
    /**
     * Parent by group: fullName() recurses through @p group, so
     * reparenting an ancestor renames the whole subtree.  The parent
     * must outlive name queries on this group (member declaration
     * order gives this for the owner/child layout used here).
     */
    void setParent(const StatGroup *group);
    std::string fullName() const;

    /**
     * Checkpoint every stat by name.  A load resets the group first
     * and restores each saved value into the declared stat of that
     * name: a declared stat missing from the bytes stays zero, and a
     * saved name the group does not declare fails the decoder.
     */
    template <class Ar>
    void persist(Ar &ar);

  private:
    friend class Counter;
    friend class Scalar;
    friend class Distribution;

    /** Register @p stat in @p kind (the declaring constructors). */
    template <typename Stat>
    void declare(std::map<std::string, Stat *> &kind, StatName name,
                 Stat &stat);

    /** Persist the stats of @p kind by name through @p field. */
    template <class Ar, typename Stat, class F>
    void persistKind(Ar &ar, std::map<std::string, Stat *> &kind,
                     F &&field);

    std::string _name;
    std::string parentPrefix;
    const StatGroup *parentGroup = nullptr;
    std::map<std::string, Counter *> counters;
    std::map<std::string, Scalar *> scalars;
    std::map<std::string, Distribution *> distributions;
};

/**
 * Compute mean and half-width of the 95% confidence interval for a
 * set of samples (Student-t for small n, as in the paper's Fig. 13
 * error bars with 30 trials).
 */
struct ConfidenceInterval
{
    double mean = 0.0;
    double halfWidth = 0.0;
};

ConfidenceInterval confidence95(const std::vector<double> &samples);

} // namespace emv

