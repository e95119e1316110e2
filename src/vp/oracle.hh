/**
 * @file
 * Value-predictor factory: builds a configured predictor from a
 * scheme description. This is the configuration surface the
 * experiment runner and the benchmark harness use.
 */

#ifndef RVP_VP_ORACLE_HH
#define RVP_VP_ORACLE_HH

#include <memory>

#include "vp/lvp.hh"
#include "vp/rvp.hh"

namespace rvp
{

/**
 * Which value-prediction mechanism to simulate. This enum is a thin
 * alias layer over the predictor registry (vp/registry.hh): each
 * enumerator maps to one canonical registry name via
 * registryNameOf(), and makePredictor() builds through the registry
 * factory of that name. Configs, sweep grids, and journal run keys
 * keep speaking the enum; new schemes appear in both places.
 */
enum class VpScheme
{
    None,        ///< no prediction baseline
    Lvp,         ///< buffer-based last-value prediction
    StaticRvp,   ///< opcode-marked loads, always predicted
    DynamicRvp,  ///< PC-indexed confidence counters, no value storage
    GabbayRp,    ///< register-indexed confidence counters (baseline)
    Stride,      ///< tagged stride table + VPQ in-flight instances
    Balcvp,      ///< Bayesian dual-counter last-committed-value
    Fcm,         ///< finite context method, order 2
    Oracle,      ///< perfect prediction upper bound
};

/** Largest predictor table (entries) a config or an `entries` param
 *  may ask for: 1024x the paper's budget, and within any host's memory. */
constexpr unsigned maxTableEntries = 1u << 20;

/** Full predictor configuration. */
struct VpConfig
{
    VpScheme scheme = VpScheme::None;
    bool loadsOnly = true;
    unsigned tableEntries = 1024;
    unsigned counterBits = 3;
    unsigned threshold = 7;
    /** Tag the table (LVP default: yes; RVP default: no). */
    bool taggedLvp = true;
    bool taggedRvp = false;
    /**
     * Scheme-specific overrides as a "key=value,key=value" bag (the
     * registry param grammar; empty = factory defaults). Invalid
     * text or keys make makePredictor throw VpConfigError.
     */
    std::string params;
    /** Per-static prediction sources (RVP schemes). */
    std::vector<StaticPredSpec> specs;
};

/**
 * Perfect value prediction: every candidate instruction is predicted
 * and every prediction is architecturally correct, with the value
 * available at rename (buffer semantics). The upper bound any real
 * predictor in the zoo is compared against.
 */
class OraclePredictor : public ValuePredictor
{
  public:
    explicit OraclePredictor(bool loads_only = false)
        : loadsOnly_(loads_only)
    {
    }

    VpDecision onInst(const DynInst &inst,
                      const ArchState &pre_state) override;

    bool valueFromBuffer() const override { return true; }

  private:
    bool loadsOnly_;
};

/**
 * Build a predictor through the registry entry named by
 * config.scheme. prog must outlive the predictor for StaticRvp.
 * Throws VpConfigError when config.params is malformed or uses keys
 * the scheme does not accept.
 */
std::unique_ptr<ValuePredictor>
makePredictor(const VpConfig &config, const Program &prog);

} // namespace rvp

#endif // RVP_VP_ORACLE_HH
