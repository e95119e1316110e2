/**
 * @file
 * Seeded inputs of the workloads: the figure families of sweep_all's
 * default grid, the grid workload's stratified draw from them, and the
 * service workload's request key space.
 */

#ifndef RVP_PERFBENCH_DRAW_HH
#define RVP_PERFBENCH_DRAW_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "service/protocol.hh"
#include "sim/runner.hh"

namespace bench
{

/** Independent random streams derived from the one --seed. */
enum class RngStream : std::uint64_t
{
    ServiceKeys,   ///< the order new service keys are visited in
    ServiceMix,    ///< which service requests are hits
    CheckPick,     ///< which runs the output checks re-run
    Draw,          ///< the grid workload's variants, one stream per draw
};

/** A seeded generator for one stream (splitmix64 of seed, stream and
 *  index). */
rvp::Rng seededRng(std::uint64_t seed, RngStream stream,
                   std::uint64_t index = 0);

/** One grid entry: a figure family's variant applied to one program. */
struct DrawnRun
{
    std::string figure;
    std::string variant;
    rvp::ExperimentConfig config;
};

/** Programs a run uses: all nine, or go and mgrid when tiny. */
std::vector<std::string> programs(bool tiny);

/**
 * sweep_all's default grid (fig03-fig08, table2, stride), figure-major
 * like sweep_all, at its default budgets (400K committed, 300K
 * profiled): 308 runs while the family table follows the tool.
 */
std::vector<DrawnRun> defaultGrid();

/**
 * Draw k of the seed's paper grid: for every figure family and every
 * program the family covers, one variant. Stratified, so every seed
 * and draw get the same mix of families and programs (67 runs full),
 * and balanced: each family's variants are dealt evenly over its
 * programs, so draws also hold the same mix of variants (within one).
 */
std::vector<DrawnRun> gridDraw(std::uint64_t seed, bool tiny,
                               std::uint64_t k);

/**
 * The service workload's key space: programs x service schemes x
 * commit budgets base..base+span-1, visited in a seeded order. Every
 * key is new to the store; priming() holds one larger-budget spec per
 * (program, scheme), whose streams cover every budget in the space.
 */
class SpecSpace
{
  public:
    SpecSpace(std::uint64_t seed, bool tiny);

    /** Next never-submitted spec of the space; null once exhausted. */
    const rvp::RunSpec *next();

    const std::vector<rvp::RunSpec> &priming() const { return priming_; }

  private:
    std::vector<rvp::RunSpec> specs_;
    std::vector<std::size_t> order_;
    std::size_t at_ = 0;
    std::vector<rvp::RunSpec> priming_;
};

} // namespace bench

#endif // RVP_PERFBENCH_DRAW_HH
