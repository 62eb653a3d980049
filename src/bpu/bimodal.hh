/**
 * @file bimodal.hh
 * PC-indexed table of 2-bit saturating counters (Smith predictor).
 */

#ifndef FDIP_BPU_BIMODAL_HH
#define FDIP_BPU_BIMODAL_HH

#include <vector>

#include "common/sat_counter.hh"
#include "bpu/direction_predictor.hh"

namespace fdip
{

class BimodalPredictor : public DirectionPredictor
{
  public:
    /** @param entries table size; must be a power of two. */
    explicit BimodalPredictor(std::size_t entries = 4096,
                              unsigned counter_bits = 2);

    bool predict(Addr pc, std::uint64_t ghist) const override;
    void update(Addr pc, std::uint64_t ghist, bool taken) override;
    std::uint64_t storageBits() const override;

  private:
    std::size_t index(Addr pc) const;

    std::vector<SatCounter> table;
    unsigned ctrBits;
};

} // namespace fdip

#endif // FDIP_BPU_BIMODAL_HH
