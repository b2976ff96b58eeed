#include "common/stat_registry.hh"

#include <algorithm>

#include "common/json.hh"

namespace emv {

StatRegistry &
StatRegistry::instance()
{
    // Leaked singleton: StatGroups with static storage duration may
    // deregister after normal static destruction would have run.
    static StatRegistry *registry = new StatRegistry;
    return *registry;
}

void
StatRegistry::add(StatGroup *group)
{
    LockGuard lock(statRegistryMutex());
    entries.push_back(group);
}

void
StatRegistry::remove(StatGroup *group)
{
    LockGuard lock(statRegistryMutex());
    entries.erase(std::remove(entries.begin(), entries.end(), group),
                  entries.end());
}

std::vector<const StatGroup *>
StatRegistry::groups() const
{
    // Take the sort keys under the leaf lock (a listed group is alive
    // and its parent link stable), then sort and let callers visit
    // outside it so callbacks may re-enter the registry.
    std::vector<std::pair<std::string, const StatGroup *>> keyed;
    {
        LockGuard lock(statRegistryMutex());
        keyed.reserve(entries.size());
        for (const StatGroup *group : entries)
            keyed.emplace_back(group->fullNameLocked(), group);
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::vector<const StatGroup *> out;
    out.reserve(keyed.size());
    for (const auto &[name, group] : keyed)
        out.push_back(group);
    return out;
}

std::vector<const StatGroup *>
StatRegistry::groupsUnder(const std::string &prefix) const
{
    std::vector<const StatGroup *> out;
    for (const StatGroup *group : groups()) {
        const std::string full = group->fullName();
        if (full.size() >= prefix.size() &&
            full.compare(0, prefix.size(), prefix) == 0) {
            out.push_back(group);
        }
    }
    return out;
}

void
StatRegistry::visitAll(StatVisitor &visitor) const
{
    for (const StatGroup *group : groups())
        group->visit(visitor);
}

std::size_t
StatRegistry::size() const
{
    LockGuard lock(statRegistryMutex());
    return entries.size();
}

void
TextStatExporter::visitCounter(const StatGroup &group,
                               const std::string &name,
                               const Counter &counter)
{
    os << group.fullName() << '.' << name << ' ' << counter.value()
       << '\n';
}

void
TextStatExporter::visitScalar(const StatGroup &group,
                              const std::string &name,
                              const Scalar &scalar)
{
    os << group.fullName() << '.' << name << ' ' << scalar.value()
       << '\n';
}

void
TextStatExporter::visitDistribution(const StatGroup &group,
                                    const std::string &name,
                                    const Distribution &dist)
{
    const std::string stem = group.fullName() + "." + name;
    os << stem << ".count " << dist.count() << '\n';
    os << stem << ".mean " << dist.mean() << '\n';
    os << stem << ".stddev " << dist.stddev() << '\n';
    os << stem << ".min " << dist.min() << '\n';
    os << stem << ".max " << dist.max() << '\n';
}

struct JsonStatExporter::Impl
{
    explicit Impl(std::ostream &os) : writer(os) {}

    json::Writer writer;
    bool began = false;
    bool inGroup = false;
    // Stats arrive grouped by kind (counters, then scalars, then
    // distributions), matching StatGroup::visit order.
    enum class Section { None, Counters, Scalars, Distributions };
    Section section = Section::None;

    void
    switchSection(Section next)
    {
        if (section == next)
            return;
        if (section != Section::None)
            writer.endObject();
        switch (next) {
          case Section::Counters: writer.key("counters"); break;
          case Section::Scalars: writer.key("scalars"); break;
          case Section::Distributions:
            writer.key("distributions");
            break;
          case Section::None: section = next; return;
        }
        writer.beginObject();
        section = next;
    }
};

JsonStatExporter::JsonStatExporter(std::ostream &os)
    : impl(std::make_unique<Impl>(os))
{
}

JsonStatExporter::~JsonStatExporter() = default;

void
JsonStatExporter::begin()
{
    impl->began = true;
    impl->writer.beginObject();
    impl->writer.member("schema", "emv-stats-v1");
    impl->writer.key("groups");
    impl->writer.beginArray();
}

void
JsonStatExporter::end()
{
    impl->writer.endArray();
    impl->writer.endObject();
}

void
JsonStatExporter::beginGroup(const StatGroup &group)
{
    impl->writer.beginObject();
    impl->writer.member("name", group.fullName());
    impl->inGroup = true;
    impl->section = Impl::Section::None;
}

void
JsonStatExporter::endGroup(const StatGroup &group)
{
    (void)group;
    impl->switchSection(Impl::Section::None);
    impl->writer.endObject();
    impl->inGroup = false;
}

void
JsonStatExporter::visitCounter(const StatGroup &group,
                               const std::string &name,
                               const Counter &counter)
{
    (void)group;
    impl->switchSection(Impl::Section::Counters);
    impl->writer.member(name, counter.value());
}

void
JsonStatExporter::visitScalar(const StatGroup &group,
                              const std::string &name,
                              const Scalar &scalar)
{
    (void)group;
    impl->switchSection(Impl::Section::Scalars);
    impl->writer.member(name, scalar.value());
}

void
JsonStatExporter::visitDistribution(const StatGroup &group,
                                    const std::string &name,
                                    const Distribution &dist)
{
    (void)group;
    impl->switchSection(Impl::Section::Distributions);
    impl->writer.key(name);
    impl->writer.beginObject();
    impl->writer.member("count", dist.count());
    impl->writer.member("mean", dist.mean());
    impl->writer.member("stddev", dist.stddev());
    impl->writer.member("min", dist.min());
    impl->writer.member("max", dist.max());
    impl->writer.member("p50", dist.percentile(0.50));
    impl->writer.member("p90", dist.percentile(0.90));
    impl->writer.member("p99", dist.percentile(0.99));
    impl->writer.endObject();
}

CsvStatExporter::CsvStatExporter(std::ostream &os) : os(os)
{
    os << "group,stat,kind,value\n";
}

void
CsvStatExporter::row(const StatGroup &group, const std::string &stat,
                     const char *kind, double value)
{
    os << group.fullName() << ',' << stat << ',' << kind << ','
       << value << '\n';
}

void
CsvStatExporter::visitCounter(const StatGroup &group,
                              const std::string &name,
                              const Counter &counter)
{
    row(group, name, "counter",
        static_cast<double>(counter.value()));
}

void
CsvStatExporter::visitScalar(const StatGroup &group,
                             const std::string &name,
                             const Scalar &scalar)
{
    row(group, name, "scalar", scalar.value());
}

void
CsvStatExporter::visitDistribution(const StatGroup &group,
                                   const std::string &name,
                                   const Distribution &dist)
{
    row(group, name + ".count", "distribution",
        static_cast<double>(dist.count()));
    row(group, name + ".mean", "distribution", dist.mean());
    row(group, name + ".stddev", "distribution", dist.stddev());
    row(group, name + ".min", "distribution", dist.min());
    row(group, name + ".max", "distribution", dist.max());
    row(group, name + ".p50", "distribution", dist.percentile(0.50));
    row(group, name + ".p90", "distribution", dist.percentile(0.90));
    row(group, name + ".p99", "distribution", dist.percentile(0.99));
}

void
exportStatsText(std::ostream &os,
                const std::vector<const StatGroup *> &groups)
{
    TextStatExporter exporter(os);
    for (const StatGroup *group : groups)
        group->visit(exporter);
}

void
exportStatsJson(std::ostream &os,
                const std::vector<const StatGroup *> &groups)
{
    JsonStatExporter exporter(os);
    exporter.begin();
    for (const StatGroup *group : groups)
        group->visit(exporter);
    exporter.end();
    os << '\n';
}

void
exportStatsCsv(std::ostream &os,
               const std::vector<const StatGroup *> &groups)
{
    CsvStatExporter exporter(os);
    for (const StatGroup *group : groups)
        group->visit(exporter);
}

} // namespace emv
