/**
 * @file presence_counts.hh
 * Counting presence filter kept beside a small associative structure
 * (the recent-request ring, the PIQ, the prefetch buffer, the MSHRs).
 * Each key held is counted in one of 256 buckets; a key whose bucket
 * is zero is certainly absent, so the owner answers that miss without
 * its linear scan. A nonzero bucket (a hit or a hash collision) still
 * scans, so the owner's answers stay exact: the scan is the model, and
 * the counts only cut a miss short.
 */

#ifndef FDIP_COMMON_PRESENCE_COUNTS_HH
#define FDIP_COMMON_PRESENCE_COUNTS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/logging.hh"

namespace fdip
{

class PresenceCounts
{
  public:
    /** An owner that never holds more keys than this cannot overflow
     *  a bucket. */
    static constexpr std::size_t kMaxKeys =
        std::numeric_limits<std::uint16_t>::max();

    /** One more copy of @p key is held. */
    void
    add(std::uint64_t key)
    {
        std::uint16_t &c = counts[bucket(key)];
        panic_if(c == kMaxKeys, "presence count overflow");
        ++c;
    }

    /** One copy of @p key, added earlier, is no longer held. */
    void
    remove(std::uint64_t key)
    {
        std::uint16_t &c = counts[bucket(key)];
        panic_if(c == 0, "presence count underflow");
        --c;
    }

    void clear() { counts.fill(0); }

    /** False only if no copy of @p key is held. */
    bool
    mayContain(std::uint64_t key) const
    {
        return counts[bucket(key)] != 0;
    }

  private:
    /** Fibonacci hashing: the top byte of the product depends on every
     *  key bit, so block addresses (low bits zero), line addresses and
     *  small sequential VPNs all spread. */
    static std::size_t
    bucket(std::uint64_t key)
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                        56);
    }

    std::array<std::uint16_t, 256> counts{};
};

} // namespace fdip

#endif // FDIP_COMMON_PRESENCE_COUNTS_HH
