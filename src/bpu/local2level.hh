/**
 * @file local2level.hh
 * Two-level local-history predictor (Yeh & Patt PAg style): a per-PC
 * history table feeding a shared pattern table of saturating counters.
 */

#ifndef FDIP_BPU_LOCAL2LEVEL_HH
#define FDIP_BPU_LOCAL2LEVEL_HH

#include <vector>

#include "common/sat_counter.hh"
#include "bpu/direction_predictor.hh"

namespace fdip
{

class Local2LevelPredictor : public DirectionPredictor
{
  public:
    /**
     * @param history_entries size of the per-PC history table (2^n)
     * @param history_bits local history length
     * @param pattern_entries size of the pattern table (2^n)
     */
    explicit Local2LevelPredictor(std::size_t history_entries = 1024,
                                  unsigned history_bits = 10,
                                  std::size_t pattern_entries = 1024,
                                  unsigned counter_bits = 2);

    bool predict(Addr pc, std::uint64_t ghist) const override;
    void update(Addr pc, std::uint64_t ghist, bool taken) override;
    std::uint64_t storageBits() const override;

  private:
    std::size_t histIndex(Addr pc) const;
    std::size_t patIndex(std::uint64_t local_hist) const;

    std::vector<std::uint32_t> historyTable;
    std::vector<SatCounter> patternTable;
    unsigned histBits;
    unsigned ctrBits;
};

} // namespace fdip

#endif // FDIP_BPU_LOCAL2LEVEL_HH
