#include "cache.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/math_util.hh"

namespace dysel {
namespace sim {

Cache::Cache(const CacheConfig &cfg)
    : line(cfg.lineBytes), numWays(cfg.ways)
{
    using support::isPowerOfTwo;
    if (!isPowerOfTwo(cfg.lineBytes) || cfg.lineBytes < 2)
        support::panic("cache line size must be a power of two >= 2");
    if (cfg.ways == 0 || cfg.sizeBytes == 0)
        support::panic("cache needs nonzero size and ways");
    lineShift = support::floorLog2(cfg.lineBytes);
    sets = cfg.sizeBytes / (static_cast<std::uint64_t>(cfg.ways) * line);
    if (sets == 0)
        sets = 1;
    if (!isPowerOfTwo(sets))
        support::panic("cache set count must be a power of two "
                       "(size/ways/line = %llu)",
                       (unsigned long long)sets);
    tags.assign(sets * numWays, invalidTag);
}

bool
Cache::promote(std::uint64_t *set, std::uint64_t tag)
{
    unsigned k = 1;
    while (k < numWays && set[k] != tag)
        ++k;
    const bool hit = k < numWays;
    if (!hit) {
        ++nMiss;
        k = numWays - 1; // evict the tail: an empty way or the LRU line
    }
    std::copy_backward(set, set + k, set + k + 1);
    set[0] = tag;
    return hit;
}

bool
Cache::contains(std::uint64_t addr) const
{
    const std::uint64_t tag = addr >> lineShift;
    const std::uint64_t *set = setOf(tag);
    return std::find(set, set + numWays, tag) != set + numWays;
}

void
Cache::flush()
{
    std::fill(tags.begin(), tags.end(), invalidTag);
}

void
Cache::resetStats()
{
    nAccess = 0;
    nMiss = 0;
}

} // namespace sim
} // namespace dysel
