/**
 * @file direction_predictor.hh
 * Interface for conditional-branch direction predictors.
 */

#ifndef FDIP_BPU_DIRECTION_PREDICTOR_HH
#define FDIP_BPU_DIRECTION_PREDICTOR_HH

#include <cstdint>

#include "common/types.hh"

namespace fdip
{

/** Global branch-history register helpers. */
inline std::uint64_t
shiftHistory(std::uint64_t hist, bool taken)
{
    return (hist << 1) | (taken ? 1 : 0);
}

class DirectionPredictor
{
  public:
    virtual ~DirectionPredictor() = default;

    /** Predict the direction of the branch at @p pc. Read-only. */
    virtual bool predict(Addr pc, std::uint64_t ghist) const = 0;

    /** Train with the resolved outcome. */
    virtual void update(Addr pc, std::uint64_t ghist, bool taken) = 0;

    /** Total predictor state in bits (for storage accounting). */
    virtual std::uint64_t storageBits() const = 0;
};

} // namespace fdip

#endif // FDIP_BPU_DIRECTION_PREDICTOR_HH
