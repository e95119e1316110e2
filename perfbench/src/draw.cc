#include "draw.hh"

#include <functional>
#include <utility>

namespace bench
{

using rvp::AssistLevel;
using rvp::ExperimentConfig;
using rvp::RecoveryPolicy;
using rvp::VpScheme;

namespace
{

using Apply = std::function<void(ExperimentConfig &)>;

struct Family
{
    const char *figure;
    std::vector<std::string> only;   ///< program filter; empty = all
    std::vector<std::pair<const char *, Apply>> variants;
};

Apply
compose(std::vector<Apply> fns)
{
    return [fns](ExperimentConfig &c) {
        for (const Apply &fn : fns)
            fn(c);
    };
}

/**
 * The default figure families of tools/sweep_all.cc (paperGrid), in
 * its order. The tool keeps its table private, so this copy must
 * follow it; the grid workload checks that it still expands to the
 * tool's 308-run default grid.
 */
std::vector<Family>
families()
{
    Apply selective = [](ExperimentConfig &c) {
        c.core.recovery = RecoveryPolicy::Selective;
    };
    Apply all = [](ExperimentConfig &c) { c.loadsOnly = false; };
    Apply lvp = [](ExperimentConfig &c) { c.scheme = VpScheme::Lvp; };
    Apply grp = [](ExperimentConfig &c) { c.scheme = VpScheme::GabbayRp; };
    auto srvp = [](AssistLevel a) -> Apply {
        return [a](ExperimentConfig &c) {
            c.scheme = VpScheme::StaticRvp;
            c.assist = a;
        };
    };
    auto drvp = [](AssistLevel a) -> Apply {
        return [a](ExperimentConfig &c) {
            c.scheme = VpScheme::DynamicRvp;
            c.assist = a;
        };
    };
    auto recovery = [](RecoveryPolicy p) -> Apply {
        return [p](ExperimentConfig &c) { c.core.recovery = p; };
    };
    auto threshold = [](double t) -> Apply {
        return [t](ExperimentConfig &c) { c.profileThreshold = t; };
    };
    Apply realloc = [](ExperimentConfig &c) {
        c.scheme = VpScheme::DynamicRvp;
        c.realisticRealloc = true;
    };
    Apply wide = [](ExperimentConfig &c) {
        std::uint64_t budget = c.core.maxInsts;
        c.core = rvp::CoreParams::aggressive16();
        c.core.maxInsts = budget;
        c.core.recovery = RecoveryPolicy::Selective;
        c.loadsOnly = false;
    };

    Apply f03 = compose({selective, threshold(0.8)});
    Apply f04 = threshold(0.9);
    Apply sa = compose({selective, all});
    return {
        {"fig03",
         {},
         {{"no_predict", f03},
          {"lvp", compose({f03, lvp})},
          {"srvp_same", compose({f03, srvp(AssistLevel::Same)})},
          {"srvp_dead", compose({f03, srvp(AssistLevel::Dead)})},
          {"srvp_live", compose({f03, srvp(AssistLevel::Live)})},
          {"srvp_live_lv", compose({f03, srvp(AssistLevel::LiveLv)})}}},
        {"fig04",
         {},
         {{"no_predict", f04},
          {"srvp_refetch", compose({f04, srvp(AssistLevel::Dead),
                                    recovery(RecoveryPolicy::Refetch)})},
          {"srvp_reissue", compose({f04, srvp(AssistLevel::Dead),
                                    recovery(RecoveryPolicy::Reissue)})},
          {"srvp_selective",
           compose({f04, srvp(AssistLevel::Dead), selective})}}},
        {"fig05",
         {},
         {{"no_predict", selective},
          {"lvp", compose({selective, lvp})},
          {"drvp", compose({selective, drvp(AssistLevel::Same)})},
          {"drvp_dead", compose({selective, drvp(AssistLevel::Dead)})},
          {"drvp_dead_lv",
           compose({selective, drvp(AssistLevel::DeadLv)})}}},
        {"fig06",
         {},
         {{"no_predict", sa},
          {"lvp_all", compose({sa, lvp})},
          {"grp_all", compose({sa, grp})},
          {"drvp_all", compose({sa, drvp(AssistLevel::Same)})},
          {"drvp_all_dead", compose({sa, drvp(AssistLevel::Dead)})},
          {"drvp_all_dead_lv", compose({sa, drvp(AssistLevel::DeadLv)})}}},
        {"table2",
         {},
         {{"drvp_dead", compose({sa, drvp(AssistLevel::Dead)})},
          {"drvp_dead_lv", compose({sa, drvp(AssistLevel::DeadLv)})},
          {"lvp", compose({sa, lvp})},
          {"grp", compose({sa, grp})}}},
        {"fig07",
         {"hydro2d", "li", "mgrid", "su2cor"},
         {{"no_predict", sa},
          {"lvp", compose({sa, lvp})},
          {"drvp_all_noreallocate", compose({sa, drvp(AssistLevel::Same)})},
          {"drvp_all_dead_lv_realloc", compose({sa, realloc})},
          {"drvp_all_dead_lv_ideal",
           compose({sa, drvp(AssistLevel::DeadLv)})}}},
        {"fig08",
         {},
         {{"no_predict", wide},
          {"lvp_all", compose({wide, lvp})},
          {"drvp_all", compose({wide, drvp(AssistLevel::Same)})},
          {"drvp_all_dead_lv", compose({wide, drvp(AssistLevel::DeadLv)})}}},
        {"stride",
         {},
         {{"no_predict", sa},
          {"drvp_dead_lv", compose({sa, drvp(AssistLevel::DeadLv)})},
          {"drvp_dead_lv_stride",
           compose({sa, drvp(AssistLevel::DeadLvStride)})}}},
    };
}

bool
covers(const Family &f, const std::string &program)
{
    if (f.only.empty())
        return true;
    for (const std::string &p : f.only)
        if (p == program)
            return true;
    return false;
}

DrawnRun
makeRun(const Family &f, std::size_t variant, const std::string &program,
        bool tiny)
{
    DrawnRun run;
    run.figure = f.figure;
    run.variant = f.variants[variant].first;
    run.config.workload = program;
    run.config.core.maxInsts = tiny ? 20'000 : 400'000;
    run.config.profileInsts = tiny ? 20'000 : 300'000;
    f.variants[variant].second(run.config);
    return run;
}

} // namespace

rvp::Rng
seededRng(std::uint64_t seed, RngStream stream, std::uint64_t index)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull +
                      (static_cast<std::uint64_t>(stream) << 32) + index;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return rvp::Rng(z ^ (z >> 31));
}

std::vector<std::string>
programs(bool tiny)
{
    if (tiny)
        return {"go", "mgrid"};
    std::vector<std::string> out;
    for (const rvp::WorkloadSpec &w : rvp::allWorkloads())
        out.push_back(w.name);
    return out;
}

std::vector<DrawnRun>
defaultGrid()
{
    std::vector<DrawnRun> out;
    for (const Family &f : families())
        for (const std::string &program : programs(false))
            if (covers(f, program))
                for (std::size_t v = 0; v < f.variants.size(); ++v)
                    out.push_back(makeRun(f, v, program, false));
    return out;
}

std::vector<DrawnRun>
gridDraw(std::uint64_t seed, bool tiny, std::uint64_t k)
{
    rvp::Rng rng = seededRng(seed, RngStream::Draw, k);
    std::vector<DrawnRun> out;
    for (const Family &f : families()) {
        std::vector<std::string> covered;
        for (const std::string &program : programs(tiny))
            if (covers(f, program))
                covered.push_back(program);
        // Deal the variants round-robin over a seeded order of the
        // programs: every draw runs each variant equally often (within
        // one), so draws differ in which program runs which variant,
        // not in how much work they hold.
        std::vector<std::size_t> order(covered.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.nextBelow(i)]);
        const std::size_t first = rng.nextBelow(f.variants.size());
        std::vector<std::size_t> variantOf(covered.size());
        for (std::size_t j = 0; j < order.size(); ++j)
            variantOf[order[j]] = (first + j) % f.variants.size();
        for (std::size_t p = 0; p < covered.size(); ++p)
            out.push_back(makeRun(f, variantOf[p], covered[p], tiny));
    }
    return out;
}

SpecSpace::SpecSpace(std::uint64_t seed, bool tiny)
{
    struct Scheme
    {
        const char *scheme;
        const char *assist;
        bool loadsOnly;
    };
    // Buffer-based, storageless, profiled and static (marked-binary)
    // predictors: every binary and predictor family RunSpec can name.
    const Scheme schemes[] = {
        {"none", "same", true},  {"lvp", "same", false},
        {"drvp", "same", false}, {"drvp", "dead_lv", false},
        {"srvp", "dead", true},  {"grp", "same", false},
    };
    const std::uint64_t base = 4'000;
    const std::uint64_t span = 1024;
    for (const std::string &program : programs(tiny)) {
        for (const Scheme &s : schemes) {
            rvp::RunSpec spec;
            spec.workload = program;
            spec.scheme = s.scheme;
            spec.assist = s.assist;
            spec.loadsOnly = s.loadsOnly;
            spec.profileInsts = tiny ? 20'000 : 50'000;
            spec.insts = base + span;
            priming_.push_back(spec);
            for (std::uint64_t k = 0; k < span; ++k) {
                spec.insts = base + k;
                specs_.push_back(spec);
            }
        }
    }
    order_.resize(specs_.size());
    for (std::size_t i = 0; i < order_.size(); ++i)
        order_[i] = i;
    rvp::Rng rng = seededRng(seed, RngStream::ServiceKeys);
    for (std::size_t i = order_.size(); i > 1; --i)
        std::swap(order_[i - 1], order_[rng.nextBelow(i)]);
}

const rvp::RunSpec *
SpecSpace::next()
{
    return at_ < order_.size() ? &specs_[order_[at_++]] : nullptr;
}

} // namespace bench
