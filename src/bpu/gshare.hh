/**
 * @file gshare.hh
 * McFarling's gshare: global history XOR-ed into the PC index.
 */

#ifndef FDIP_BPU_GSHARE_HH
#define FDIP_BPU_GSHARE_HH

#include <vector>

#include "common/sat_counter.hh"
#include "bpu/direction_predictor.hh"

namespace fdip
{

class GsharePredictor : public DirectionPredictor
{
  public:
    /**
     * @param entries table size (power of two)
     * @param history_bits global-history bits folded into the index
     */
    explicit GsharePredictor(std::size_t entries = 16384,
                             unsigned history_bits = 12,
                             unsigned counter_bits = 2);

    bool predict(Addr pc, std::uint64_t ghist) const override;
    void update(Addr pc, std::uint64_t ghist, bool taken) override;
    std::uint64_t storageBits() const override;

    unsigned historyBits() const { return histBits; }

  private:
    std::size_t index(Addr pc, std::uint64_t ghist) const;

    std::vector<SatCounter> table;
    unsigned histBits;
    unsigned ctrBits;
};

} // namespace fdip

#endif // FDIP_BPU_GSHARE_HH
