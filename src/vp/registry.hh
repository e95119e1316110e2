/**
 * @file
 * Pluggable value-predictor registry: every prediction scheme is a
 * named plug-in selected by a stable config string ("none", "lvp",
 * "rvp-dynamic", "stride", ...) and built by a factory that takes a
 * small key/value param bag. The experiment runner, both CLI tools,
 * and the conformance tests all resolve predictors through here, so a
 * new scheme registered once rides the whole sweep / stream-replay /
 * batching / service stack for free.
 *
 * The legacy VpScheme enum (vp/oracle.hh) is kept as a thin alias
 * layer on top: each enumerator maps to one canonical registry name
 * (plus the historical short aliases "srvp"/"drvp"/"grp"), and
 * makePredictor() routes through the registry, so existing configs,
 * schemeName(), journal run keys, and golden stats are unchanged.
 */

#ifndef RVP_VP_REGISTRY_HH
#define RVP_VP_REGISTRY_HH

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "vp/oracle.hh"

namespace rvp
{

/**
 * A predictor-configuration error: unknown scheme name, malformed
 * param bag, unaccepted param key, or an out-of-range value. A
 * ConfigError, so tools report it like any other invalid input and
 * the conformance tests can exercise the failure paths without dying.
 */
class VpConfigError : public ConfigError
{
  public:
    explicit VpConfigError(const std::string &what) : ConfigError(what) {}
};

/**
 * Parsed key/value param bag. The concrete grammar is
 * "key=value,key=value,..." (no spaces; empty text = no params); keys
 * are scheme-specific and validated against the scheme's declared
 * param list by PredictorRegistry::make().
 */
class VpParams
{
  public:
    VpParams() = default;

    /** Parse the "k=v,k2=v2" grammar; throws VpConfigError on a
     *  missing '=' or an empty/duplicate key. */
    static VpParams parse(const std::string &text);

    bool empty() const { return values_.empty(); }

    /** Typed getters returning `def` when the key is absent and
     *  throwing VpConfigError on a value parseNumber rejects
     *  (common/parse.hh: decimal only, so "010" is ten). */
    std::uint64_t getU64(const std::string &key, std::uint64_t def) const;
    double getDouble(const std::string &key, double def) const;
    /** Accepts 0/1/true/false/on/off. */
    bool getBool(const std::string &key, bool def) const;

    const std::map<std::string, std::string> &values() const
    {
        return values_;
    }

  private:
    std::map<std::string, std::string> values_;
};

/** Documentation of one accepted param key (shown by --list-vp). */
struct VpParamDoc
{
    std::string key;
    std::string def;   ///< default, as the user would type it
    std::string desc;
};

/**
 * Everything a factory may need besides its params: the timed binary
 * (StaticRvp keeps a reference into it) and the legacy VpConfig whose
 * geometry fields (tableEntries, counterBits, threshold, loadsOnly,
 * tagged*) and profile specs seed the factory defaults — params
 * override them per scheme.
 */
struct VpFactoryInput
{
    const Program *prog = nullptr;
    const VpConfig *base = nullptr;
};

/** One registered scheme. */
struct VpSchemeInfo
{
    std::string name;                  ///< canonical config string
    std::vector<std::string> aliases;  ///< historical short names
    std::string description;           ///< one-liner for --list-vp
    std::vector<VpParamDoc> params;    ///< accepted param keys
    std::function<std::unique_ptr<ValuePredictor>(
        const VpParams &, const VpFactoryInput &)>
        factory;
};

/**
 * The process-wide scheme table. Built-in schemes self-register on
 * first use; libraries linking extra predictors call add() before
 * resolving names (registration is not thread safe — do it during
 * startup, as the built-ins do).
 */
class PredictorRegistry
{
  public:
    static PredictorRegistry &instance();

    /** Register a scheme; throws VpConfigError on a name or alias
     *  collision (including colliding with an existing alias). */
    void add(VpSchemeInfo info);

    /** Look up by canonical name or alias; null when unknown. */
    const VpSchemeInfo *find(const std::string &name) const;

    /** All schemes, sorted by canonical name. */
    std::vector<const VpSchemeInfo *> list() const;

    /**
     * Validate that `params` only uses keys the scheme declares;
     * throws VpConfigError naming the offending key and listing the
     * accepted ones. Unknown scheme names also throw.
     */
    void checkParams(const std::string &name,
                     const VpParams &params) const;

    /** Build a predictor: find + checkParams + factory. */
    std::unique_ptr<ValuePredictor>
    make(const std::string &name, const VpParams &params,
         const VpFactoryInput &input) const;

  private:
    PredictorRegistry();

    std::map<std::string, VpSchemeInfo> schemes_;
    std::map<std::string, std::string> aliasToName_;
};

/**
 * Human-readable listing of every registered scheme with its aliases
 * and accepted params — the body of `--list-vp` in both CLI tools.
 */
void listSchemes(std::ostream &os);

/** Canonical registry name of a legacy enum value ("rvp-dynamic"). */
const char *registryNameOf(VpScheme scheme);

/** Resolve a registry name or alias back to the legacy enum. */
std::optional<VpScheme> schemeForName(const std::string &name);

} // namespace rvp

#endif // RVP_VP_REGISTRY_HH
