#include "vp/registry.hh"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <tuple>

#include "common/logging.hh"
#include "vp/balcvp.hh"
#include "vp/fcm.hh"
#include "vp/stride.hh"

namespace rvp
{

namespace
{

/** The base VpConfig a factory seeds its defaults from. */
const VpConfig &
baseOf(const VpFactoryInput &input)
{
    static const VpConfig defaults;
    return input.base ? *input.base : defaults;
}

unsigned
getEntries(const VpParams &params, const std::string &key, unsigned def)
{
    auto v = params.getU64(key, def);
    if (v == 0 || v > maxTableEntries)
        throw VpConfigError("param '" + key + "' must be in [1, " +
                            std::to_string(maxTableEntries) + "]");
    return static_cast<unsigned>(v);
}

unsigned
getUnsigned(const VpParams &params, const std::string &key, unsigned def)
{
    auto v = params.getU64(key, def);
    if (v > ~0u)
        throw VpConfigError("param '" + key + "' out of range");
    return static_cast<unsigned>(v);
}

/** The `bits` and `threshold` params of a confidence counter, checked
 *  here because the counter's constructor asserts on them. */
std::pair<unsigned, unsigned>
getCounter(const VpParams &params, unsigned bits, unsigned threshold)
{
    bits = getUnsigned(params, "bits", bits);
    threshold = getUnsigned(params, "threshold", threshold);
    if (bits < 1 || bits > 16 || threshold > (1u << bits) - 1)
        throw VpConfigError("vp params bits=" + std::to_string(bits) +
                            ", threshold=" + std::to_string(threshold) +
                            ": need bits in [1, 16] and a threshold "
                            "that fits them");
    return {bits, threshold};
}

} // namespace

VpParams
VpParams::parse(const std::string &text)
{
    VpParams params;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find(',', pos);
        if (end == std::string::npos)
            end = text.size();
        std::string item = text.substr(pos, end - pos);
        pos = end + 1;
        if (item.empty())
            continue;
        std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0) {
            throw VpConfigError("bad vp param '" + item +
                                "': expected key=value");
        }
        std::string key = item.substr(0, eq);
        if (params.values_.count(key))
            throw VpConfigError("duplicate vp param '" + key + "'");
        params.values_[key] = item.substr(eq + 1);
    }
    return params;
}

std::uint64_t
VpParams::getU64(const std::string &key, std::uint64_t def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    std::uint64_t value = 0;
    if (!tryParseNumber(it->second, value)) {
        throw VpConfigError("vp param '" + key + "': '" + it->second +
                            "' is not an unsigned integer");
    }
    return value;
}

double
VpParams::getDouble(const std::string &key, double def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    double value = 0.0;
    if (!tryParseNumber(it->second, value)) {
        throw VpConfigError("vp param '" + key + "': '" + it->second +
                            "' is not a number");
    }
    return value;
}

bool
VpParams::getBool(const std::string &key, bool def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    const std::string &text = it->second;
    if (text == "1" || text == "true" || text == "on")
        return true;
    if (text == "0" || text == "false" || text == "off")
        return false;
    throw VpConfigError("vp param '" + key + "': '" + text +
                        "' is not a boolean (use 0/1/true/false/on/off)");
}

PredictorRegistry &
PredictorRegistry::instance()
{
    static PredictorRegistry registry;
    return registry;
}

void
PredictorRegistry::add(VpSchemeInfo info)
{
    RVP_ASSERT(!info.name.empty() && info.factory,
               "vp scheme registration needs a name and a factory");
    auto taken = [&](const std::string &name) {
        return schemes_.count(name) || aliasToName_.count(name);
    };
    if (taken(info.name)) {
        throw VpConfigError("vp scheme '" + info.name +
                            "' registered twice");
    }
    for (const auto &alias : info.aliases) {
        if (taken(alias)) {
            throw VpConfigError("vp scheme alias '" + alias +
                                "' registered twice");
        }
    }
    for (const auto &alias : info.aliases)
        aliasToName_[alias] = info.name;
    schemes_.emplace(info.name, std::move(info));
}

const VpSchemeInfo *
PredictorRegistry::find(const std::string &name) const
{
    auto it = schemes_.find(name);
    if (it != schemes_.end())
        return &it->second;
    auto alias = aliasToName_.find(name);
    if (alias != aliasToName_.end())
        return &schemes_.at(alias->second);
    return nullptr;
}

std::vector<const VpSchemeInfo *>
PredictorRegistry::list() const
{
    std::vector<const VpSchemeInfo *> out;
    out.reserve(schemes_.size());
    for (const auto &[name, info] : schemes_)
        out.push_back(&info);
    return out;   // schemes_ is ordered by name already
}

void
PredictorRegistry::checkParams(const std::string &name,
                               const VpParams &params) const
{
    const VpSchemeInfo *info = find(name);
    if (!info)
        throw VpConfigError("unknown vp scheme '" + name + "'");
    for (const auto &[key, value] : params.values()) {
        bool known = std::any_of(
            info->params.begin(), info->params.end(),
            [&](const VpParamDoc &doc) { return doc.key == key; });
        if (known)
            continue;
        std::ostringstream os;
        os << "vp scheme '" << info->name << "' does not accept param '"
           << key << "'";
        if (info->params.empty()) {
            os << " (it takes no params)";
        } else {
            os << " (accepted:";
            for (const auto &doc : info->params)
                os << " " << doc.key;
            os << ")";
        }
        throw VpConfigError(os.str());
    }
}

std::unique_ptr<ValuePredictor>
PredictorRegistry::make(const std::string &name, const VpParams &params,
                        const VpFactoryInput &input) const
{
    checkParams(name, params);
    return find(name)->factory(params, input);
}

PredictorRegistry::PredictorRegistry()
{
    // --- Built-in schemes. Factories seed their defaults from the
    // legacy VpConfig fields so a no-param build constructs exactly
    // the object the pre-registry makePredictor() switch built.

    add({"none",
         {},
         "no value prediction (baseline)",
         {},
         [](const VpParams &, const VpFactoryInput &) {
             return std::make_unique<NullPredictor>();
         }});

    add({"lvp",
         {},
         "last-value prediction, PC-tagged value buffer (Lipasti)",
         {{"entries", "1024", "value-buffer entries"},
          {"bits", "3", "confidence counter width"},
          {"threshold", "7", "confidence threshold"},
          {"tagged", "true", "tag the buffer entries"},
          {"loads_only", "base", "predict loads only"},
          {"update_delay", "96", "commit delay in dynamic insts"}},
         [](const VpParams &params, const VpFactoryInput &input) {
             const VpConfig &base = baseOf(input);
             LvpConfig lvp;
             lvp.entries =
                 getEntries(params, "entries", base.tableEntries);
             std::tie(lvp.counterBits, lvp.threshold) =
                 getCounter(params, base.counterBits, base.threshold);
             lvp.tagged = params.getBool("tagged", base.taggedLvp);
             lvp.loadsOnly =
                 params.getBool("loads_only", base.loadsOnly);
             lvp.updateDelayInsts = getUnsigned(params, "update_delay",
                                                lvp.updateDelayInsts);
             return std::make_unique<LastValuePredictor>(lvp);
         }});

    add({"rvp-static",
         {"srvp"},
         "static RVP: profile-marked loads always predicted (paper)",
         {},
         [](const VpParams &, const VpFactoryInput &input) {
             RVP_ASSERT(input.prog,
                        "rvp-static needs the timed program");
             return std::make_unique<StaticRvpPredictor>(
                 *input.prog, baseOf(input).specs);
         }});

    add({"rvp-dynamic",
         {"drvp"},
         "dynamic RVP: PC-indexed confidence, storageless (paper)",
         {{"entries", "1024", "confidence-table entries"},
          {"bits", "3", "confidence counter width"},
          {"threshold", "7", "confidence threshold"},
          {"tagged", "false", "tag the confidence table"},
          {"loads_only", "base", "predict loads only"}},
         [](const VpParams &params, const VpFactoryInput &input) {
             const VpConfig &base = baseOf(input);
             ConfidenceConfig conf;
             conf.entries =
                 getEntries(params, "entries", base.tableEntries);
             std::tie(conf.counterBits, conf.threshold) =
                 getCounter(params, base.counterBits, base.threshold);
             conf.tagged = params.getBool("tagged", base.taggedRvp);
             return std::make_unique<DynamicRvpPredictor>(
                 base.specs,
                 params.getBool("loads_only", base.loadsOnly), conf);
         }});

    add({"gabbay",
         {"grp"},
         "Gabbay/Mendelson register predictor (per-register counters)",
         {{"bits", "3", "confidence counter width"},
          {"threshold", "7", "confidence threshold"},
          {"loads_only", "base", "predict loads only"}},
         [](const VpParams &params, const VpFactoryInput &input) {
             const VpConfig &base = baseOf(input);
             auto [bits, threshold] =
                 getCounter(params, base.counterBits, base.threshold);
             return std::make_unique<GabbayRegisterPredictor>(
                 bits, threshold,
                 params.getBool("loads_only", base.loadsOnly));
         }});

    add({"stride",
         {},
         "tagged stride table with VPQ in-flight instances (721sim)",
         {{"entries", "1024", "stride-table entries"},
          {"conf_max", "7", "confidence saturation"},
          {"conf_inc", "1", "confidence gain per stride hit"},
          {"conf_dec", "0", "confidence loss per break (0 = reset)"},
          {"predict_threshold", "7", "confidence needed to predict"},
          {"replace_threshold", "1", "max confidence still replaceable"},
          {"stride_update_threshold", "1",
           "max confidence still stride-writable"},
          {"loads_only", "base", "predict loads only"},
          {"update_delay", "96", "commit delay in dynamic insts"}},
         [](const VpParams &params, const VpFactoryInput &input) {
             const VpConfig &base = baseOf(input);
             StrideConfig conf;
             conf.entries =
                 getEntries(params, "entries", base.tableEntries);
             conf.confMax =
                 getUnsigned(params, "conf_max", conf.confMax);
             conf.confInc =
                 getUnsigned(params, "conf_inc", conf.confInc);
             conf.confDec =
                 getUnsigned(params, "conf_dec", conf.confDec);
             conf.predictThreshold = getUnsigned(
                 params, "predict_threshold", conf.predictThreshold);
             conf.replaceThreshold = getUnsigned(
                 params, "replace_threshold", conf.replaceThreshold);
             conf.strideUpdateThreshold =
                 getUnsigned(params, "stride_update_threshold",
                             conf.strideUpdateThreshold);
             conf.loadsOnly =
                 params.getBool("loads_only", base.loadsOnly);
             conf.updateDelayInsts = getUnsigned(
                 params, "update_delay", conf.updateDelayInsts);
             if (conf.predictThreshold > conf.confMax) {
                 throw VpConfigError(
                     "stride predict_threshold exceeds conf_max");
             }
             return std::make_unique<StridePredictor>(conf);
         }});

    add({"balcvp",
         {},
         "Bayesian dual-counter last-committed-value (BALCVP)",
         {{"entries", "1024", "value-table entries"},
          {"count_max", "64", "halve counts at this sum"},
          {"high", "0.95", "high-band posterior bound"},
          {"medium", "0.75", "medium-band posterior bound"},
          {"predict_on_medium", "false", "predict on the medium band"},
          {"loads_only", "base", "predict loads only"},
          {"update_delay", "96", "commit delay in dynamic insts"}},
         [](const VpParams &params, const VpFactoryInput &input) {
             const VpConfig &base = baseOf(input);
             BalcvpConfig conf;
             conf.entries =
                 getEntries(params, "entries", base.tableEntries);
             conf.countMax =
                 getUnsigned(params, "count_max", conf.countMax);
             conf.highThreshold =
                 params.getDouble("high", conf.highThreshold);
             conf.mediumThreshold =
                 params.getDouble("medium", conf.mediumThreshold);
             conf.predictOnMedium = params.getBool(
                 "predict_on_medium", conf.predictOnMedium);
             conf.loadsOnly =
                 params.getBool("loads_only", base.loadsOnly);
             conf.updateDelayInsts = getUnsigned(
                 params, "update_delay", conf.updateDelayInsts);
             if (conf.countMax < 2)
                 throw VpConfigError("balcvp count_max must be >= 2");
             if (conf.mediumThreshold > conf.highThreshold) {
                 throw VpConfigError(
                     "balcvp medium band above the high band");
             }
             return std::make_unique<BalcvpPredictor>(conf);
         }});

    add({"fcm",
         {},
         "finite context method, hashed order-2 value history",
         {{"history_entries", "1024", "level-1 (per-PC) entries"},
          {"value_entries", "4096", "level-2 (context) entries"},
          {"order", "2", "context length in values"},
          {"bits", "3", "confidence counter width"},
          {"threshold", "7", "confidence threshold"},
          {"loads_only", "base", "predict loads only"},
          {"update_delay", "96", "commit delay in dynamic insts"}},
         [](const VpParams &params, const VpFactoryInput &input) {
             const VpConfig &base = baseOf(input);
             FcmConfig conf;
             conf.historyEntries = getEntries(params, "history_entries",
                                              conf.historyEntries);
             conf.valueEntries = getEntries(params, "value_entries",
                                            conf.valueEntries);
             conf.order = getUnsigned(params, "order", conf.order);
             std::tie(conf.counterBits, conf.threshold) =
                 getCounter(params, conf.counterBits, conf.threshold);
             conf.loadsOnly =
                 params.getBool("loads_only", base.loadsOnly);
             conf.updateDelayInsts = getUnsigned(
                 params, "update_delay", conf.updateDelayInsts);
             if (conf.order < 1 || conf.order > 8)
                 throw VpConfigError("fcm order outside [1, 8]");
             return std::make_unique<FcmPredictor>(conf);
         }});

    add({"oracle",
         {},
         "perfect value prediction (upper bound)",
         {{"loads_only", "base", "predict loads only"}},
         [](const VpParams &params, const VpFactoryInput &input) {
             return std::make_unique<OraclePredictor>(params.getBool(
                 "loads_only", baseOf(input).loadsOnly));
         }});
}

void
listSchemes(std::ostream &os)
{
    for (const VpSchemeInfo *info : PredictorRegistry::instance().list()) {
        os << info->name;
        for (const auto &alias : info->aliases)
            os << " | " << alias;
        os << "\n    " << info->description << "\n";
        for (const auto &doc : info->params) {
            os << "    " << doc.key << "=" << doc.def << "  " << doc.desc
               << "\n";
        }
    }
}

namespace
{

/** The one VpScheme <-> canonical registry name table. */
constexpr std::pair<VpScheme, const char *> schemeNames[] = {
    {VpScheme::None, "none"},         {VpScheme::Lvp, "lvp"},
    {VpScheme::StaticRvp, "rvp-static"},
    {VpScheme::DynamicRvp, "rvp-dynamic"},
    {VpScheme::GabbayRp, "gabbay"},   {VpScheme::Stride, "stride"},
    {VpScheme::Balcvp, "balcvp"},     {VpScheme::Fcm, "fcm"},
    {VpScheme::Oracle, "oracle"},
};

} // namespace

const char *
registryNameOf(VpScheme scheme)
{
    for (const auto &[s, name] : schemeNames)
        if (s == scheme)
            return name;
    panic("unknown vp scheme");
}

std::optional<VpScheme>
schemeForName(const std::string &name)
{
    if (const VpSchemeInfo *info = PredictorRegistry::instance().find(name))
        for (const auto &[scheme, canonical] : schemeNames)
            if (info->name == canonical)
                return scheme;
    return std::nullopt;
}

} // namespace rvp
