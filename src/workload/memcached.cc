/**
 * @file
 * Memcached-style in-memory key-value cache.
 *
 * Each GET hashes a key (random probe into the hash-bucket index at
 * the front of the heap), then touches the item: header plus a
 * couple of adjacent cache lines in the slab area.  Keys are
 * Zipf-distributed — web caches are famously skewed — but the slab
 * area is so large that even the hot set defeats TLB reach.
 * A SET fraction writes items, and the slab allocator periodically
 * recycles a slab (a Remap event): exactly the "frequent memory
 * allocations and deallocations" that make shadow paging slow for
 * memcached in §IX.D.
 */

#include "common/ckpt.hh"
#include "workload/detail.hh"
#include "workload/memcached.hh"

namespace emv::workload {

namespace {

class MemcachedWorkload : public BasicWorkload<MemcachedWorkload>
{
  public:
    MemcachedWorkload(std::uint64_t seed, double scale,
                      std::uint64_t churn_period)
        : BasicWorkload(seed), churnPeriod(churn_period)
    {
        specs.push_back({"heap", scaleBytes(8 * GiB, scale), true});
        _info.name = "memcached";
        _info.baseCyclesPerAccess = 130.0;
        _info.footprintBytes = totalFootprint();
        _info.bigMemory = true;
        itemCount = bytesOf0() / kItemBytes;
    }

    Op
    next() override
    {
        const Addr heap = base(0);
        const Addr index_bytes = bytesOf(0) / 16;
        const Addr slab_base = heap + index_bytes;
        const Addr slab_bytes = bytesOf(0) - index_bytes;

        ++tick;
        // Slab recycling: free + reallocate one 2M slab.
        if (churnPeriod && tick % churnPeriod == 0) {
            const Addr slabs = slab_bytes / kPage2M;
            const Addr victim =
                slab_base + rng.nextBelow(slabs) * kPage2M;
            return Op{Op::Kind::Remap, victim, kPage2M};
        }

        switch (phase++) {
          case 0:
            // Hash-bucket probe: uniform over the index.
            return Op{Op::Kind::Read,
                      heap + rng.nextBelow(index_bytes / 8) * 8, 0};
          case 1: {
            // Item header: Zipf-popular item.
            const std::uint64_t items = slab_bytes / kItemBytes;
            currentItem =
                slab_base + rng.nextZipf(items, 0.99) * kItemBytes;
            return Op{Op::Kind::Read, currentItem, 0};
          }
          default:
            phase = 0;
            // Payload line; ~10% of ops are SETs.
            if (rng.nextBool(0.1))
                return Op{Op::Kind::Write, currentItem + 64, 0};
            return Op{Op::Kind::Read, currentItem + 64, 0};
        }
    }

    template <class Ar>
    void
    fields(Ar &ar)
    {
        ar.u64(tick);
        ar.u32(phase);
        ar.u64(currentItem);
    }

  private:
    static constexpr Addr kItemBytes = 1024;

    Addr
    bytesOf0() const
    {
        return specs[0].bytes;
    }

    std::uint64_t churnPeriod;
    std::uint64_t itemCount = 0;
    std::uint64_t tick = 0;
    unsigned phase = 0;
    Addr currentItem = 0;
};

} // namespace

std::unique_ptr<Workload>
makeMemcached(std::uint64_t seed, double scale,
              std::uint64_t churn_period)
{
    return std::make_unique<MemcachedWorkload>(seed, scale,
                                               churn_period);
}

} // namespace emv::workload
