/**
 * @file hybrid.hh
 * McFarling combining predictor: gshare + bimodal with a PC-indexed
 * chooser table, the predictor class the MICRO-32 front-end used.
 */

#ifndef FDIP_BPU_HYBRID_HH
#define FDIP_BPU_HYBRID_HH

#include <memory>
#include <vector>

#include "common/sat_counter.hh"
#include "bpu/bimodal.hh"
#include "bpu/direction_predictor.hh"
#include "bpu/gshare.hh"

namespace fdip
{

class HybridPredictor : public DirectionPredictor
{
  public:
    explicit HybridPredictor(std::size_t gshare_entries = 16384,
                             unsigned history_bits = 12,
                             std::size_t bimodal_entries = 4096,
                             std::size_t chooser_entries = 4096);

    bool predict(Addr pc, std::uint64_t ghist) const override;
    void update(Addr pc, std::uint64_t ghist, bool taken) override;
    std::uint64_t storageBits() const override;

  private:
    std::size_t chooserIndex(Addr pc) const;

    GsharePredictor gshare;
    BimodalPredictor bimodal;
    /** Chooser: high half selects gshare, low half bimodal. */
    std::vector<SatCounter> chooser;
};

} // namespace fdip

#endif // FDIP_BPU_HYBRID_HH
