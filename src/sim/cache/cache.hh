/**
 * @file
 * Set-associative cache model with exact LRU replacement.
 *
 * Used by the CPU device (L1/L2 per core, shared L3) and the GPU
 * device (shared L2, per-SM texture cache).  Purely a hit/miss
 * predictor over addresses; latencies are charged by the cost models.
 */
#pragma once

#include <cstdint>
#include <vector>

namespace dysel {
namespace sim {

/** Geometry of a cache. */
struct CacheConfig
{
    std::uint64_t sizeBytes;  ///< total capacity
    unsigned ways;            ///< associativity
    unsigned lineBytes;       ///< line size (power of two, >= 2)
};

/**
 * An exact-LRU set-associative cache.
 *
 * Each set is an array of line tags kept in recency order: slot 0 is
 * the most recently used line, the last slot the LRU victim.  Empty
 * ways hold an invalid sentinel and always sit at the tail, so a miss
 * shifts the set down by one and drops the last slot -- an empty way
 * if there is one, the LRU line otherwise.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Access the line containing @p addr.
     * @return true on hit, false on miss (the line is filled).
     */
    bool
    access(std::uint64_t addr)
    {
        ++nAccess;
        const std::uint64_t tag = addr >> lineShift;
        std::uint64_t *set = setOf(tag);
        return set[0] == tag || promote(set, tag); // MRU hit: no update
    }

    /** True if the line containing @p addr is currently resident. */
    bool contains(std::uint64_t addr) const;

    /** Drop all contents. */
    void flush();

    /** Line size in bytes. */
    unsigned lineSize() const { return line; }

    /** Number of sets. */
    std::uint64_t numSets() const { return sets; }

    /** Accesses so far. */
    std::uint64_t accesses() const { return nAccess; }

    /** Misses so far. */
    std::uint64_t misses() const { return nMiss; }

    /** Miss ratio; 0 when no accesses. */
    double missRatio() const
    {
        return nAccess == 0 ? 0.0
                            : static_cast<double>(nMiss)
                                  / static_cast<double>(nAccess);
    }

    /** Reset statistics (contents are kept). */
    void resetStats();

  private:
    /**
     * Tag of an empty way.  A tag is an address shifted right by at
     * least one bit (lines are >= 2 bytes), so no tag reaches it.
     */
    static constexpr std::uint64_t invalidTag = ~std::uint64_t{0};

    /**
     * Move @p tag to the front of @p set, filling it on a miss.
     * @return true on hit.
     */
    bool promote(std::uint64_t *set, std::uint64_t tag);

    /** First slot of the set holding @p tag. */
    std::uint64_t *setOf(std::uint64_t tag)
    {
        return &tags[(tag & (sets - 1)) * numWays];
    }
    const std::uint64_t *setOf(std::uint64_t tag) const
    {
        return &tags[(tag & (sets - 1)) * numWays];
    }

    unsigned line;
    unsigned lineShift;
    std::uint64_t sets;
    unsigned numWays;
    std::vector<std::uint64_t> tags; ///< sets * numWays, MRU first per set
    std::uint64_t nAccess = 0;
    std::uint64_t nMiss = 0;
};

} // namespace sim
} // namespace dysel
