#include "common/stat_export.hh"

#include <algorithm>
#include <string>

#include "common/json.hh"

namespace emv {

namespace {

/** One emv-stats-v1 group object per visited group.  Stats arrive
 *  grouped by kind (counters, then scalars, then distributions),
 *  matching StatGroup::visit order. */
class JsonStatExporter : public StatVisitor
{
  public:
    explicit JsonStatExporter(json::Writer &writer) : writer(writer) {}

    void
    beginGroup(const StatGroup &group) override
    {
        writer.beginObject();
        writer.member("name", group.fullName());
        section.clear();
    }

    void
    endGroup(const StatGroup &group) override
    {
        (void)group;
        if (!section.empty())
            writer.endObject();
        writer.endObject();
    }

    void
    visitCounter(const StatGroup &group, const std::string &name,
                 const Counter &counter) override
    {
        (void)group;
        enter("counters");
        writer.member(name, counter.value());
    }

    void
    visitScalar(const StatGroup &group, const std::string &name,
                const Scalar &scalar) override
    {
        (void)group;
        enter("scalars");
        writer.member(name, scalar.value());
    }

    void
    visitDistribution(const StatGroup &group, const std::string &name,
                      const Distribution &dist) override
    {
        (void)group;
        enter("distributions");
        writer.key(name);
        writer.beginObject();
        writer.member("count", dist.count());
        writer.member("mean", dist.mean());
        writer.member("stddev", dist.stddev());
        writer.member("min", dist.min());
        writer.member("max", dist.max());
        writer.member("p50", dist.percentile(0.50));
        writer.member("p90", dist.percentile(0.90));
        writer.member("p99", dist.percentile(0.99));
        writer.endObject();
    }

  private:
    /** Open the @p kind object, closing the previous kind's. */
    void
    enter(const char *kind)
    {
        if (section == kind)
            return;
        if (!section.empty())
            writer.endObject();
        writer.key(kind);
        writer.beginObject();
        section = kind;
    }

    json::Writer &writer;
    std::string section;
};

} // namespace

void
exportStatsJson(std::ostream &os,
                const std::vector<const StatGroup *> &groups)
{
    std::vector<const StatGroup *> sorted = groups;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const StatGroup *a, const StatGroup *b) {
                         return a->fullName() < b->fullName();
                     });

    json::Writer writer(os);
    JsonStatExporter exporter(writer);
    writer.beginObject();
    writer.member("schema", "emv-stats-v1");
    writer.key("groups");
    writer.beginArray();
    for (const StatGroup *group : sorted)
        group->visit(exporter);
    writer.endArray();
    writer.endObject();
    writer.finish();
}

} // namespace emv
