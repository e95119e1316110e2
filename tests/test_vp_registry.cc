/**
 * @file
 * Conformance suite for the pluggable predictor registry and the
 * scheme zoo: name/alias resolution, param-bag parsing and rejection,
 * per-scheme invariants on a shared instruction stream (correct <=
 * predictions <= eligible, determinism across runs), the stride
 * predictor's in-flight extrapolation, BALCVP's confidence bands,
 * FCM's periodic-pattern capture, replace-then-return tag semantics,
 * the shared pcIndex helper, confidence-geometry validation, and
 * solo-vs-batched bit-identity for the three new predictors.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "config_error.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "vp/balcvp.hh"
#include "vp/fcm.hh"
#include "vp/registry.hh"
#include "vp/stride.hh"

namespace rvp
{
namespace
{

/** A synthetic dynamic instruction for feeding predictors directly. */
DynInst
dyn(std::uint64_t seq, std::uint64_t pc, std::uint32_t static_idx,
    Opcode op, RegIndex dest, std::uint64_t old_value,
    std::uint64_t new_value)
{
    DynInst di;
    di.seq = seq;
    di.pc = pc;
    di.staticIndex = static_idx;
    di.op = op;
    di.dest = dest;
    di.oldDestValue = old_value;
    di.newValue = new_value;
    return di;
}

/**
 * A tiny program every scheme can run against: a marked RVP load, a
 * plain load, and an ALU writer (static RVP consults the static
 * instruction for the RVP mark; the others only need valid indices).
 */
Program
sharedProgram()
{
    Program prog;
    StaticInst marked;
    marked.op = Opcode::RVP_LDQ;
    marked.ra = 1;
    marked.rc = 2;
    StaticInst plain;
    plain.op = Opcode::LDQ;
    plain.ra = 1;
    plain.rc = 3;
    StaticInst alu;
    alu.op = Opcode::ADDQ;
    alu.ra = 1;
    alu.rb = 1;
    alu.rc = 4;
    prog.insts = {marked, plain, alu};
    return prog;
}

/**
 * The shared stream: a value-repeating marked load, a strided plain
 * load, an occasionally-changing ALU result, and a no-dest filler —
 * enough variety that every scheme sees candidates, hits, and misses.
 * Fully deterministic (fixed LCG) so two runs must agree exactly.
 */
std::vector<DynInst>
sharedStream()
{
    std::vector<DynInst> stream;
    std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
    std::uint64_t strided = 0;
    for (std::uint64_t seq = 0; seq < 4000; ++seq) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        switch (seq % 4) {
          case 0:
            // Marked load reusing its register value ~15/16 of the time.
            stream.push_back(dyn(seq, Program::pcOf(0), 0,
                                 Opcode::RVP_LDQ, 2, 5,
                                 (lcg >> 60) == 0 ? 6 : 5));
            break;
          case 1:
            // Plain load walking an array: stride 8.
            strided += 8;
            stream.push_back(dyn(seq, Program::pcOf(1), 1, Opcode::LDQ,
                                 3, strided - 8, strided));
            break;
          case 2:
            // ALU writer, value changes every 64 results.
            stream.push_back(dyn(seq, Program::pcOf(2), 2, Opcode::ADDQ,
                                 4, seq / 256, seq / 256));
            break;
          default:
            // No destination: never a candidate for any scheme.
            stream.push_back(dyn(seq, Program::pcOf(2), 2, Opcode::ADDQ,
                                 regNone, 0, 0));
            break;
        }
    }
    return stream;
}

/** Full exported stat map, formatted the way the golden tests do. */
std::map<std::string, std::string>
statSnapshot(const ValuePredictor &predictor)
{
    StatSet stats;
    predictor.exportStats(stats);
    std::map<std::string, std::string> snap;
    for (const auto &[name, value] : stats.values()) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        snap[name] = buf;
    }
    return snap;
}

TEST(Registry, ListsEveryBuiltinScheme)
{
    std::set<std::string> names;
    for (const VpSchemeInfo *info : PredictorRegistry::instance().list())
        names.insert(info->name);
    for (const char *expected :
         {"none", "lvp", "rvp-static", "rvp-dynamic", "gabbay",
          "stride", "balcvp", "fcm", "oracle"})
        EXPECT_TRUE(names.count(expected)) << expected;
}

TEST(Registry, AliasesResolveToCanonicalSchemes)
{
    const PredictorRegistry &reg = PredictorRegistry::instance();
    for (auto [alias, canonical] :
         {std::pair{"srvp", "rvp-static"}, std::pair{"drvp", "rvp-dynamic"},
          std::pair{"grp", "gabbay"}}) {
        const VpSchemeInfo *info = reg.find(alias);
        ASSERT_NE(info, nullptr) << alias;
        EXPECT_EQ(info->name, canonical);
    }
    EXPECT_EQ(reg.find("nonesuch"), nullptr);
}

TEST(Registry, EnumAndRegistryNamesRoundTrip)
{
    for (VpScheme scheme :
         {VpScheme::None, VpScheme::Lvp, VpScheme::StaticRvp,
          VpScheme::DynamicRvp, VpScheme::GabbayRp, VpScheme::Stride,
          VpScheme::Balcvp, VpScheme::Fcm, VpScheme::Oracle}) {
        std::optional<VpScheme> back =
            schemeForName(registryNameOf(scheme));
        ASSERT_TRUE(back.has_value()) << registryNameOf(scheme);
        EXPECT_EQ(*back, scheme);
    }
    EXPECT_FALSE(schemeForName("nonesuch").has_value());
    // Aliases resolve to the same enum as their canonical name.
    EXPECT_EQ(schemeForName("drvp"), VpScheme::DynamicRvp);
}

TEST(Registry, MalformedParamBagsThrow)
{
    EXPECT_THROW(VpParams::parse("entries"), VpConfigError);
    EXPECT_THROW(VpParams::parse("=3"), VpConfigError);
    EXPECT_THROW(VpParams::parse("a=1,a=2"), VpConfigError);
    VpParams p = VpParams::parse("entries=64,tagged=true");
    EXPECT_EQ(p.getU64("entries", 0), 64u);
    EXPECT_TRUE(p.getBool("tagged", false));
    EXPECT_EQ(p.getU64("absent", 7), 7u);
    EXPECT_THROW(VpParams::parse("x=banana").getU64("x", 0),
                 VpConfigError);
    EXPECT_THROW(VpParams::parse("x=-1").getU64("x", 0), VpConfigError);
    EXPECT_THROW(VpParams::parse("x=maybe").getBool("x", false),
                 VpConfigError);
    // Decimal only (common/parse.hh): no octal, no hex, no inf/nan.
    EXPECT_EQ(VpParams::parse("x=010").getU64("x", 0), 10u);
    EXPECT_THROW(VpParams::parse("x=0x10").getU64("x", 0), VpConfigError);
    EXPECT_EQ(VpParams::parse("x=0.25").getDouble("x", 0.0), 0.25);
    EXPECT_THROW(VpParams::parse("x=nan").getDouble("x", 0.0),
                 VpConfigError);
}

TEST(Registry, UnknownNamesAndBadParamsThrowFromTheFactory)
{
    const PredictorRegistry &reg = PredictorRegistry::instance();
    Program prog = sharedProgram();
    VpConfig base;
    VpFactoryInput input;
    input.prog = &prog;
    input.base = &base;

    EXPECT_THROW(reg.make("nonesuch", {}, input), VpConfigError);
    EXPECT_THROW(reg.checkParams("nonesuch", {}), VpConfigError);
    // A key the scheme does not declare.
    EXPECT_THROW(reg.make("lvp", VpParams::parse("nonesuch=1"), input),
                 VpConfigError);
    EXPECT_THROW(
        reg.checkParams("lvp", VpParams::parse("nonesuch=1")),
        VpConfigError);
    // Out-of-range values.
    EXPECT_THROW(reg.make("lvp", VpParams::parse("entries=0"), input),
                 VpConfigError);
    EXPECT_THROW(reg.make("lvp", VpParams::parse("entries=1048577"), input),
                 VpConfigError);
    // Counter widths and thresholds are checked before any counter is
    // built (its constructor would abort on them).
    for (const char *scheme : {"lvp", "rvp-dynamic", "gabbay", "fcm"}) {
        for (const char *bad : {"bits=0", "bits=17", "threshold=8",
                                "bits=4,threshold=16"})
            EXPECT_THROW(reg.make(scheme, VpParams::parse(bad), input),
                         VpConfigError)
                << scheme << " " << bad;
    }
    EXPECT_THROW(reg.make("stride",
                          VpParams::parse("predict_threshold=9,conf_max=7"),
                          input),
                 VpConfigError);
    EXPECT_THROW(reg.make("balcvp", VpParams::parse("count_max=1"), input),
                 VpConfigError);
    EXPECT_THROW(reg.make("balcvp",
                          VpParams::parse("medium=0.9,high=0.8"), input),
                 VpConfigError);
    EXPECT_THROW(reg.make("fcm", VpParams::parse("order=0"), input),
                 VpConfigError);
    EXPECT_THROW(reg.make("fcm", VpParams::parse("order=9"), input),
                 VpConfigError);
}

TEST(Registry, EverySchemeHoldsInvariantsOnTheSharedStream)
{
    Program prog = sharedProgram();
    VpConfig base;
    VpFactoryInput input;
    input.prog = &prog;
    input.base = &base;
    std::vector<DynInst> stream = sharedStream();
    ArchState state{};

    for (const VpSchemeInfo *info : PredictorRegistry::instance().list()) {
        auto run = [&]() {
            auto predictor =
                PredictorRegistry::instance().make(info->name, {}, input);
            for (const DynInst &di : stream)
                predictor->onInst(di, state);
            return predictor;
        };
        auto predictor = run();
        // The fundamental accounting chain every scheme must respect.
        EXPECT_LE(predictor->correct(), predictor->predictions())
            << info->name;
        EXPECT_LE(predictor->predictions(), predictor->eligible())
            << info->name;
        EXPECT_LE(predictor->eligible(), stream.size()) << info->name;
        StatSet stats;
        predictor->exportStats(stats);
        EXPECT_TRUE(stats.has("vp.eligible")) << info->name;
        EXPECT_TRUE(stats.has("vp.predictions")) << info->name;
        EXPECT_TRUE(stats.has("vp.correct")) << info->name;
        // Determinism: a second fresh instance over the same stream
        // exports a bit-identical stat map.
        EXPECT_EQ(statSnapshot(*predictor), statSnapshot(*run()))
            << info->name;
    }
}

TEST(Registry, StrideExtrapolatesAcrossInflightInstances)
{
    // PC 0x100 loads 10, 20, 30, ... every 8 instructions with a
    // 96-instruction commit delay: 12 instances are in flight at
    // steady state, so plain last-value extrapolation would be 12
    // strides stale. The VPQ in-flight counter must make *every*
    // confident prediction exact.
    StrideConfig cfg;
    cfg.updateDelayInsts = 96;
    StridePredictor predictor(cfg);
    ArchState state{};
    std::uint64_t value = 0;
    unsigned predictions = 0, correct = 0;
    for (std::uint64_t seq = 0; seq < 4000; ++seq) {
        DynInst di;
        if (seq % 8 == 0) {
            value += 10;
            di = dyn(seq, 0x100, 0, Opcode::LDQ, 3, value - 10, value);
        } else {
            di = dyn(seq, 0x4000 + (seq % 8) * 4, 1, Opcode::ADDQ,
                     regNone, 0, 0);
        }
        VpDecision d = predictor.onInst(di, state);
        predictions += d.predicted;
        correct += d.predicted && d.correct;
    }
    EXPECT_GT(predictions, 400u);
    EXPECT_EQ(correct, predictions);
    StatSet stats;
    predictor.exportStats(stats);
    // The interesting predictions are precisely the ones made with
    // other instances outstanding — and they all hit.
    EXPECT_GT(stats.get("vp.stride_inflight_predictions"), 0.0);
    EXPECT_EQ(stats.get("vp.stride_inflight_hits"),
              stats.get("vp.stride_inflight_predictions"));
}

TEST(Registry, BalcvpBandsGatePrediction)
{
    // Immediate updates isolate the Bayesian estimator: with Laplace
    // smoothing p = (hits+1)/(hits+misses+2), a constant value needs
    // 18 hits before p >= 0.95 authorizes a prediction.
    BalcvpConfig cfg;
    cfg.updateDelayInsts = 0;
    cfg.loadsOnly = true;
    BalcvpPredictor predictor(cfg);
    ArchState state{};
    std::uint64_t seq = 0;
    auto feed = [&](std::uint64_t v) {
        return predictor.onInst(
            dyn(seq++, 0x100, 0, Opcode::LDQ, 3, 0, v), state);
    };
    // First observation installs the entry; hits accumulate after.
    VpDecision d;
    for (int i = 0; i < 19; ++i) {
        d = feed(42);
        EXPECT_FALSE(d.predicted) << "observation " << i;
    }
    d = feed(42);
    EXPECT_TRUE(d.predicted);
    EXPECT_TRUE(d.correct);
    // A value change is a confident mispredict, and the posterior
    // drops back below the high band immediately afterwards.
    d = feed(99);
    EXPECT_TRUE(d.predicted);
    EXPECT_FALSE(d.correct);
    d = feed(99);
    EXPECT_FALSE(d.predicted);
    StatSet stats;
    predictor.exportStats(stats);
    EXPECT_GT(stats.get("vp.balcvp_band_high"), 0.0);
    EXPECT_GT(stats.get("vp.balcvp_band_low"), 0.0);
}

TEST(Registry, FcmCapturesPeriodicPatternLastValueMisses)
{
    // A period-3 value sequence defeats last-value and stride
    // prediction but is exactly what a context-based predictor
    // captures: after each (a, b) context has trained to threshold,
    // every prediction is correct.
    FcmConfig cfg;
    cfg.updateDelayInsts = 0;
    FcmPredictor predictor(cfg);
    ArchState state{};
    const std::uint64_t pattern[3] = {7, 11, 13};
    std::uint64_t seq = 0;
    unsigned late_predictions = 0, late_correct = 0;
    for (int i = 0; i < 120; ++i) {
        VpDecision d = predictor.onInst(
            dyn(seq, 0x100, 0, Opcode::LDQ, 3, 0, pattern[seq % 3]),
            state);
        ++seq;
        if (i >= 60) {
            late_predictions += d.predicted;
            late_correct += d.predicted && d.correct;
        }
    }
    EXPECT_EQ(late_predictions, 60u);
    EXPECT_EQ(late_correct, 60u);
}

TEST(ReplaceThenReturn, ConfidenceTableTakeoverRecordsNothing)
{
    ConfidenceConfig cfg;
    cfg.entries = 16;
    cfg.tagged = true;
    ConfidenceTable table(cfg);
    std::uint64_t pc_a = 0x1000;
    std::uint64_t pc_b = pc_a + 16 * 4;   // same slot, different tag
    for (int i = 0; i < 8; ++i)
        table.update(pc_a, true);
    EXPECT_TRUE(table.confident(pc_a));
    EXPECT_EQ(table.replacements(), 0u);

    // B's first outcome replaces the entry and is NOT recorded: the
    // outcome belongs to a prediction the new owner never made.
    table.update(pc_b, true);
    EXPECT_EQ(table.replacements(), 1u);
    EXPECT_FALSE(table.confident(pc_b));
    // Six more correct outcomes reach 6 < 7: still not confident —
    // this is what distinguishes replace-then-return from
    // replace-and-record.
    for (int i = 0; i < 6; ++i)
        table.update(pc_b, true);
    EXPECT_FALSE(table.confident(pc_b));
    table.update(pc_b, true);
    EXPECT_TRUE(table.confident(pc_b));
}

TEST(ReplaceThenReturn, LvpTakeoverCountsAndResets)
{
    Program prog = sharedProgram();
    VpConfig base;
    VpFactoryInput input;
    input.prog = &prog;
    input.base = &base;
    auto lvp = PredictorRegistry::instance().make(
        "lvp", VpParams::parse("entries=16,update_delay=0"), input);
    ArchState state{};
    std::uint64_t seq = 0;
    std::uint64_t pc_a = 0x1000;
    std::uint64_t pc_b = pc_a + 16 * 4;   // same slot, different tag

    for (int i = 0; i < 9; ++i)
        lvp->onInst(dyn(seq++, pc_a, 0, Opcode::LDQ, 3, 0, 42), state);
    VpDecision d =
        lvp->onInst(dyn(seq++, pc_a, 0, Opcode::LDQ, 3, 0, 42), state);
    EXPECT_TRUE(d.predicted);

    // B evicts A. The takeover installs B's value with a reset
    // counter and records nothing, so B needs the full warmup again.
    for (int i = 0; i < 8; ++i) {
        d = lvp->onInst(dyn(seq++, pc_b, 1, Opcode::LDQ, 3, 0, 99),
                        state);
        EXPECT_FALSE(d.predicted) << "observation " << i;
    }
    d = lvp->onInst(dyn(seq++, pc_b, 1, Opcode::LDQ, 3, 0, 99), state);
    EXPECT_TRUE(d.predicted);
    EXPECT_TRUE(d.correct);

    StatSet stats;
    lvp->exportStats(stats);
    EXPECT_EQ(stats.get("vp.tag_replacements"), 1.0);
}

TEST(ReplaceThenReturn, TaggedDynamicRvpExportsReplacements)
{
    Program prog = sharedProgram();
    VpConfig base;
    VpFactoryInput input;
    input.prog = &prog;
    input.base = &base;
    auto tagged = PredictorRegistry::instance().make(
        "rvp-dynamic", VpParams::parse("tagged=true,entries=16"), input);
    auto untagged =
        PredictorRegistry::instance().make("rvp-dynamic", {}, input);
    StatSet tagged_stats, untagged_stats;
    tagged->exportStats(tagged_stats);
    untagged->exportStats(untagged_stats);
    EXPECT_TRUE(tagged_stats.has("vp.tag_replacements"));
    // The untagged (golden) configuration must keep its exact stat
    // key set: no replacement counter.
    EXPECT_FALSE(untagged_stats.has("vp.tag_replacements"));
}

TEST(PcIndex, PredictAndUpdatePathsShareTheMapping)
{
    // The canonical mapping drops the two alignment bits.
    EXPECT_EQ(pcIndex(0x0, 16), 0u);
    EXPECT_EQ(pcIndex(0x4, 16), 1u);
    EXPECT_EQ(pcIndex(0x1000, 1), 0u);
    for (std::uint64_t pc : {0x1000ull, 0x1004ull, 0xffffffc0ull})
        for (unsigned entries : {1u, 16u, 1024u})
            EXPECT_EQ(pcIndex(pc, entries),
                      static_cast<unsigned>((pc >> 2) % entries));

    // Cross-path regression: an update through one PC must land in
    // the slot the predict path reads for every aliasing PC. If the
    // two paths ever diverged (the historical risk of three
    // open-coded copies of the expression), the aliased lookup would
    // miss the trained counter.
    ConfidenceConfig cfg;
    cfg.entries = 16;
    ConfidenceTable table(cfg);
    std::uint64_t pc = 0x2000;
    std::uint64_t alias = pc + 16 * 4;
    for (int i = 0; i < 7; ++i)
        table.update(pc, true);
    EXPECT_TRUE(table.confident(pc));
    EXPECT_TRUE(table.confident(alias));
}

TEST(ConfidenceValidation, ZeroEntryGeometriesDie)
{
    ConfidenceConfig zero;
    zero.entries = 0;
    EXPECT_DEATH(validateConfidenceConfig(zero), "at least one entry");
    EXPECT_DEATH(ConfidenceTable{zero}, "at least one entry");
    ConfidenceConfig wide;
    wide.threshold = 8;   // 3-bit counters max out at 7
    EXPECT_DEATH(validateConfidenceConfig(wide), "");

    // Input from outside the program is a typed error, not an abort.
    ExperimentConfig config;
    config.workload = "go";
    config.tableEntries = 0;
    EXPECT_CONFIG_ERROR(validateExperimentConfig(config),
                        "at least one entry");
}

TEST(ConfidenceValidation, ExperimentConfigRejectsBadSchemeParams)
{
    ExperimentConfig config;
    config.workload = "go";
    config.scheme = VpScheme::Stride;
    config.vpParams = "nonesuch=1";
    EXPECT_THROW(validateExperimentConfig(config), VpConfigError);
    // Key validation happens here; value ranges are enforced when the
    // factory actually builds the predictor (covered above).
    config.vpParams = "entries=1024";
    EXPECT_NO_THROW(validateExperimentConfig(config));
}

TEST(Registry, SoloVsBatchedBitIdentityForTheNewSchemes)
{
    // The three new predictors through the real simulator, solo vs
    // the batched-replay sweep scheduler: every stat must match
    // bit-for-bit (the same oracle the golden grid uses).
    std::vector<ExperimentConfig> configs;
    for (VpScheme scheme :
         {VpScheme::Stride, VpScheme::Balcvp, VpScheme::Fcm}) {
        ExperimentConfig config;
        config.workload = "go";
        config.core.maxInsts = 15'000;
        config.profileInsts = 15'000;
        config.scheme = scheme;
        configs.push_back(config);
    }
    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    SweepReport report;
    std::vector<ExperimentResult> batched =
        runSweep(configs, opts, &report);
    EXPECT_GT(report.batchedRuns, 0u);
    ASSERT_EQ(batched.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        ASSERT_FALSE(batched[i].failed)
            << registryNameOf(configs[i].scheme) << ": "
            << batched[i].error;
        ExperimentResult solo = runExperiment(configs[i]);
        ASSERT_EQ(batched[i].stats.values().size(),
                  solo.stats.values().size())
            << registryNameOf(configs[i].scheme);
        for (const auto &[name, value] : solo.stats.values())
            EXPECT_EQ(batched[i].stats.get(name), value)
                << registryNameOf(configs[i].scheme) << ": " << name;
    }
}

} // namespace
} // namespace rvp
