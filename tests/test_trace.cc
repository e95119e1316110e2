/**
 * @file
 * Tests for the sampled pipeline-lifecycle tracer (src/trace/): the
 * ring-buffer record store, the Chrome-trace-JSON and JSONL exporters
 * (schema-checked with a small local JSON parser), the null-sink
 * guarantee (tracing off changes no stat), determinism of the emitted
 * bytes across sweep job counts, and the histogram stats that ride
 * along (--hist / CoreParams::collectHist).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "config_error.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "trace/tracer.hh"

namespace rvp
{
namespace
{

// ---------------------------------------------------------------------
// Minimal JSON parser — just enough DOM to schema-check trace output.
// ---------------------------------------------------------------------

struct JsonValue
{
    enum class Type { Null, Bool, Number, String, Array, Object };
    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    bool has(const std::string &key) const { return object.count(key); }
    const JsonValue &at(const std::string &key) const
    {
        return object.at(key);
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    /** Parse the whole input; fails the test on malformed JSON. */
    JsonValue parse()
    {
        JsonValue v = value();
        skipWs();
        EXPECT_EQ(pos_, text_.size()) << "trailing bytes after JSON";
        return v;
    }

  private:
    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char peek()
    {
        skipWs();
        if (pos_ >= text_.size()) {
            ADD_FAILURE() << "unexpected end of JSON at " << pos_;
            return '\0';
        }
        return text_[pos_];
    }

    void expect(char c)
    {
        char got = peek();
        EXPECT_EQ(got, c) << "at offset " << pos_;
        ++pos_;
    }

    bool consumeLiteral(const char *lit)
    {
        std::size_t n = std::char_traits<char>::length(lit);
        if (text_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        ADD_FAILURE() << "bad literal at offset " << pos_;
        ++pos_;   // make progress so a broken input can't loop forever
        return false;
    }

    JsonValue value()
    {
        char c = peek();
        JsonValue v;
        switch (c) {
          case '{':
            return objectValue();
          case '[':
            return arrayValue();
          case '"':
            v.type = JsonValue::Type::String;
            v.string = stringValue();
            return v;
          case 't':
            consumeLiteral("true");
            v.type = JsonValue::Type::Bool;
            v.boolean = true;
            return v;
          case 'f':
            consumeLiteral("false");
            v.type = JsonValue::Type::Bool;
            return v;
          case 'n':
            consumeLiteral("null");
            return v;
          default:
            return numberValue();
        }
    }

    JsonValue objectValue()
    {
        JsonValue v;
        v.type = JsonValue::Type::Object;
        expect('{');
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            std::string key = stringValue();
            expect(':');
            v.object.emplace(std::move(key), value());
            char c = peek();
            ++pos_;
            if (c == '}')
                return v;
            EXPECT_EQ(c, ',') << "at offset " << pos_;
            if (c != ',')
                return v;
        }
    }

    JsonValue arrayValue()
    {
        JsonValue v;
        v.type = JsonValue::Type::Array;
        expect('[');
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.array.push_back(value());
            char c = peek();
            ++pos_;
            if (c == ']')
                return v;
            EXPECT_EQ(c, ',') << "at offset " << pos_;
            if (c != ',')
                return v;
        }
    }

    std::string stringValue()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\' && pos_ < text_.size())
                c = text_[pos_++];
            out += c;
        }
        expect('"');
        return out;
    }

    JsonValue numberValue()
    {
        JsonValue v;
        v.type = JsonValue::Type::Number;
        const char *start = text_.c_str() + pos_;
        char *end = nullptr;
        v.number = std::strtod(start, &end);
        EXPECT_NE(end, start) << "not a number at offset " << pos_;
        pos_ += static_cast<std::size_t>(end - start);
        return v;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

ExperimentConfig
smallConfig(const std::string &workload)
{
    ExperimentConfig config;
    config.workload = workload;
    config.core.maxInsts = 15'000;
    config.profileInsts = 15'000;
    return config;
}

// ---------------------------------------------------------------------
// PipelineTracer unit tests (no simulation).
// ---------------------------------------------------------------------

TEST(Tracer, SamplingIsBySequenceNumber)
{
    PipelineTracer t(64);
    EXPECT_TRUE(t.sampled(0));
    EXPECT_FALSE(t.sampled(1));
    EXPECT_FALSE(t.sampled(63));
    EXPECT_TRUE(t.sampled(64));
    EXPECT_TRUE(t.sampled(128));
    PipelineTracer every(1);
    EXPECT_TRUE(every.sampled(0));
    EXPECT_TRUE(every.sampled(17));
}

TEST(Tracer, RecordsTheFullLifecycle)
{
    PipelineTracer t(1);
    t.onFetch(0, 0x1000, Opcode::LDQ, 100, true, true, false);
    t.onRename(0, 105);
    t.onIssue(0, 106);
    t.onComplete(0, 109);
    t.onCommit(0, 110);
    ASSERT_EQ(t.size(), 1u);
    TraceRecord r = t.records()[0];
    EXPECT_EQ(r.seq, 0u);
    EXPECT_EQ(r.pc, 0x1000u);
    EXPECT_EQ(r.op, Opcode::LDQ);
    EXPECT_EQ(r.fetchCycle, 100u);
    EXPECT_EQ(r.renameCycle, 105u);
    EXPECT_EQ(r.issueCycle, 106u);
    EXPECT_EQ(r.completeCycle, 109u);
    EXPECT_EQ(r.commitCycle, 110u);
    EXPECT_EQ(r.exit, TraceExit::Committed);
    EXPECT_TRUE(r.vpEligible);
    EXPECT_TRUE(r.vpPredicted);
    EXPECT_FALSE(r.vpCorrect);
}

TEST(Tracer, SquashAndFinishExits)
{
    PipelineTracer t(1);
    t.onFetch(0, 0x1000, Opcode::ADDQ, 10, false, false, false);
    t.onSquash(0, TraceExit::ValueSquash);
    t.onFetch(1, 0x1004, Opcode::ADDQ, 11, false, false, false);
    t.finish();   // seq 1 never commits
    ASSERT_EQ(t.size(), 2u);
    auto records = t.records();
    EXPECT_EQ(records[0].exit, TraceExit::ValueSquash);
    EXPECT_EQ(records[1].exit, TraceExit::InFlight);
    EXPECT_EQ(records[1].commitCycle, TraceRecord::unknownCycle);
}

TEST(Tracer, RingBufferKeepsTheMostRecentRecords)
{
    PipelineTracer t(1, 4);
    for (std::uint64_t seq = 0; seq < 10; ++seq) {
        t.onFetch(seq, 0x1000 + 4 * seq, Opcode::ADDQ, seq, false, false,
                  false);
        t.onCommit(seq, seq + 7);
    }
    EXPECT_EQ(t.recordedTotal(), 10u);
    ASSERT_EQ(t.size(), 4u);
    auto records = t.records();
    // Oldest first, and only the newest four survive.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(records[i].seq, 6u + i);
}

TEST(Tracer, HooksOnUnsampledSeqsAreIgnored)
{
    PipelineTracer t(64);
    // The core only calls hooks for sampled seqs, but a stray call for
    // an unknown seq must be harmless (no live record to update).
    t.onRename(3, 10);
    t.onCommit(3, 12);
    t.finish();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.recordedTotal(), 0u);
}

TEST(Tracer, ChromeExportIsValidAndCarriesTheLifecycle)
{
    PipelineTracer t(1);
    t.onFetch(0, 0x2000, Opcode::LDQ, 50, true, false, false);
    t.onRename(0, 55);
    t.onIssue(0, 56);
    t.onComplete(0, 59);
    t.onCommit(0, 60);
    t.onFetch(1, 0x2004, Opcode::ADDQ, 51, false, false, false);
    t.finish();

    std::ostringstream os;
    t.writeChromeJson(os);
    std::string text = os.str();
    JsonValue root = JsonParser(text).parse();
    ASSERT_EQ(root.type, JsonValue::Type::Object);
    ASSERT_TRUE(root.has("traceEvents"));
    const JsonValue &events = root.at("traceEvents");
    ASSERT_EQ(events.type, JsonValue::Type::Array);
    ASSERT_EQ(events.array.size(), 2u);

    const JsonValue &ev = events.array[0];
    for (const char *key : {"name", "cat", "ph", "ts", "dur", "pid",
                            "tid", "args"})
        EXPECT_TRUE(ev.has(key)) << key;
    EXPECT_EQ(ev.at("ph").string, "X");
    EXPECT_EQ(ev.at("name").string, "ldq");
    EXPECT_EQ(ev.at("cat").string, "committed");
    EXPECT_EQ(ev.at("ts").number, 50.0);
    EXPECT_EQ(ev.at("dur").number, 10.0);
    const JsonValue &args = ev.at("args");
    EXPECT_EQ(args.at("seq").number, 0.0);
    EXPECT_EQ(args.at("fetch").number, 50.0);
    EXPECT_EQ(args.at("commit").number, 60.0);
    EXPECT_TRUE(args.at("vp_eligible").boolean);
    EXPECT_FALSE(args.at("vp_predicted").boolean);
    // The in-flight record never issued: those stages export as null.
    const JsonValue &args2 = events.array[1].at("args");
    EXPECT_EQ(args2.at("issue").type, JsonValue::Type::Null);
    EXPECT_EQ(args2.at("commit").type, JsonValue::Type::Null);
    EXPECT_EQ(events.array[1].at("cat").string, "in_flight");
}

TEST(Tracer, JsonlExportIsOneValidObjectPerLine)
{
    PipelineTracer t(1);
    for (std::uint64_t seq = 0; seq < 3; ++seq) {
        t.onFetch(seq, 0x3000 + 4 * seq, Opcode::STQ, seq * 2, false,
                  false, false);
        t.onCommit(seq, seq * 2 + 9);
    }
    std::ostringstream os;
    t.writeJsonl(os);
    std::istringstream is(os.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line)) {
        JsonValue v = JsonParser(line).parse();
        ASSERT_EQ(v.type, JsonValue::Type::Object);
        EXPECT_EQ(v.at("seq").number, static_cast<double>(lines));
        EXPECT_EQ(v.at("opcode").string, "stq");
        ++lines;
    }
    EXPECT_EQ(lines, 3u);
}

// ---------------------------------------------------------------------
// End-to-end: the runner's --trace-out / --hist plumbing.
// ---------------------------------------------------------------------

TEST(TraceExperiment, TracingOffAndOnAgreeOnEveryNonTraceStat)
{
    // The null-sink guarantee: the tracer observes, never perturbs.
    // Identical stat maps modulo the trace.* bookkeeping keys.
    ExperimentConfig off = smallConfig("go");
    ExperimentConfig on = off;
    on.traceOut = tempPath("null_sink.trace.json");
    on.traceSample = 64;

    ExperimentResult r_off = runExperiment(off);
    ExperimentResult r_on = runExperiment(on);
    EXPECT_EQ(r_off.cycles, r_on.cycles);
    EXPECT_EQ(r_off.committed, r_on.committed);
    std::size_t trace_keys = 0;
    for (const auto &[name, value] : r_on.stats.values()) {
        if (name.rfind("trace.", 0) == 0) {
            ++trace_keys;
            continue;
        }
        EXPECT_DOUBLE_EQ(value, r_off.stats.get(name)) << name;
    }
    EXPECT_EQ(r_on.stats.values().size(),
              r_off.stats.values().size() + trace_keys);
    EXPECT_GT(r_on.stats.get("trace.records"), 0.0);
    EXPECT_DOUBLE_EQ(r_on.stats.get("trace.sample_interval"), 64.0);
}

TEST(TraceExperiment, EmittedChromeTraceIsValidJson)
{
    ExperimentConfig config = smallConfig("go");
    config.scheme = VpScheme::Lvp;
    config.traceOut = tempPath("e2e.trace.json");
    config.traceSample = 64;
    ExperimentResult r = runExperiment(config);

    JsonValue root = JsonParser(readFile(config.traceOut)).parse();
    ASSERT_TRUE(root.has("traceEvents"));
    const JsonValue &events = root.at("traceEvents");
    ASSERT_EQ(events.type, JsonValue::Type::Array);
    EXPECT_GT(events.array.size(), 0u);
    EXPECT_EQ(static_cast<double>(events.array.size()),
              r.stats.get("trace.records"));
    for (const JsonValue &ev : events.array) {
        EXPECT_EQ(ev.at("ph").string, "X");
        EXPECT_TRUE(ev.has("args"));
        const JsonValue &args = ev.at("args");
        // Sampled every 64th seq, starting at 0.
        std::uint64_t seq = static_cast<std::uint64_t>(
            args.at("seq").number);
        EXPECT_EQ(seq % 64, 0u);
        // A committed event has a full monotone stage sequence.
        if (ev.at("cat").string == "committed") {
            double fetch = args.at("fetch").number;
            double commit = args.at("commit").number;
            EXPECT_LE(fetch, commit);
        }
    }
}

TEST(TraceExperiment, JsonlSuffixSelectsJsonl)
{
    ExperimentConfig config = smallConfig("go");
    config.traceOut = tempPath("e2e.trace.jsonl");
    config.traceSample = 256;
    runExperiment(config);
    std::istringstream is(readFile(config.traceOut));
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line)) {
        JsonValue v = JsonParser(line).parse();
        EXPECT_EQ(v.type, JsonValue::Type::Object);
        ++lines;
    }
    EXPECT_GT(lines, 0u);
}

TEST(TraceExperiment, UnwritableTracePathIsAConfigErrorNotAnAbort)
{
    // A missing directory is refused up front, before any run.
    ExperimentConfig config = smallConfig("go");
    std::string missing = tempPath("rvp_trace_missing_dir");
    std::filesystem::remove_all(missing);
    config.traceOut = missing + "/x.trace.json";
    EXPECT_CONFIG_ERROR(validateExperimentConfig(config), "trace_out");

    // A path that names something other than a file (here a
    // directory) is refused up front too, never replaced.
    std::string blocked = tempPath("rvp_trace_blocked.trace.json");
    std::filesystem::create_directories(blocked);
    config.traceOut = blocked;
    EXPECT_CONFIG_ERROR(validateExperimentConfig(config), "trace_out");
    EXPECT_CONFIG_ERROR(runExperiment(config), "trace_out");
    std::filesystem::remove_all(blocked);

    // A path that passes validation but cannot be written once the run
    // is done fails that attempt; the sweep retries it degraded,
    // without the trace, keeps the first attempt's error, and goes on.
    // The neighbour shares the stream key, so both run in one group,
    // which prepares every member before it runs any: the neighbour's
    // attempt start puts a directory where the trace goes.
    validateExperimentConfig(config);
    ExperimentConfig neighbour = smallConfig("go");
    neighbour.scheme = VpScheme::Lvp;
    SweepOptions options;
    options.jobs = 1;
    options.progress = false;
    options.retryBackoff = 0.0;
    options.onAttemptStart = [&](const ExperimentConfig &,
                                 const RunContext &context) {
        if (context.runIndex == 1 && context.attempt == 0)
            std::filesystem::create_directories(blocked);
    };
    std::vector<ExperimentResult> results =
        runSweep({config, neighbour}, options);
    EXPECT_FALSE(results[0].failed) << results[0].error;
    EXPECT_EQ(results[0].retries, 1u);
    EXPECT_TRUE(results[0].degraded);
    EXPECT_NE(results[0].error.find("trace_out"), std::string::npos)
        << results[0].error;
    EXPECT_FALSE(results[1].failed) << results[1].error;
    std::filesystem::remove_all(blocked);
}

TEST(TraceExperiment, TraceBytesAreIdenticalAcrossJobCounts)
{
    // Sampling is by seq and the simulation itself is deterministic,
    // so the bytes each run emits must not depend on how the sweep
    // scheduler interleaves runs.
    auto build = [&](const std::string &tag) {
        std::vector<ExperimentConfig> configs;
        for (const char *workload : {"go", "mgrid"}) {
            for (VpScheme scheme : {VpScheme::None, VpScheme::Lvp}) {
                ExperimentConfig config = smallConfig(workload);
                config.scheme = scheme;
                config.traceSample = 64;
                config.traceOut =
                    tempPath(tag + "_" + workload + "_" +
                             schemeName(scheme) + ".trace.json");
                configs.push_back(config);
            }
        }
        return configs;
    };
    std::vector<ExperimentConfig> serial_cfgs = build("j1");
    std::vector<ExperimentConfig> parallel_cfgs = build("j8");

    SweepOptions serial;
    serial.jobs = 1;
    serial.progress = false;
    SweepOptions parallel_opts;
    parallel_opts.jobs = 8;
    parallel_opts.progress = false;
    runSweep(serial_cfgs, serial);
    runSweep(parallel_cfgs, parallel_opts);

    for (std::size_t i = 0; i < serial_cfgs.size(); ++i) {
        std::string a = readFile(serial_cfgs[i].traceOut);
        std::string b = readFile(parallel_cfgs[i].traceOut);
        EXPECT_GT(a.size(), 0u);
        EXPECT_EQ(a, b) << serial_cfgs[i].traceOut;
        // And the events are really there.
        JsonValue root = JsonParser(a).parse();
        EXPECT_GT(root.at("traceEvents").array.size(), 0u);
    }
}

TEST(TraceExperiment, HistogramsAppearOnlyWithCollectHist)
{
    ExperimentConfig config = smallConfig("go");
    ExperimentResult plain = runExperiment(config);
    EXPECT_FALSE(plain.stats.has("core.issue_to_complete.count"));

    config.core.collectHist = true;
    ExperimentResult hist = runExperiment(config);
    for (const char *dist : {"core.issue_to_complete",
                             "core.iq_occupancy",
                             "core.lsq_occupancy"}) {
        std::string base = dist;
        EXPECT_GT(hist.stats.get(base + ".count"), 0.0) << base;
        for (const char *suffix : {".sum", ".mean", ".min", ".max",
                                   ".p50", ".p90", ".p99"})
            EXPECT_TRUE(hist.stats.has(base + suffix))
                << base << suffix;
        EXPECT_LE(hist.stats.get(base + ".min"),
                  hist.stats.get(base + ".p50")) << base;
        EXPECT_LE(hist.stats.get(base + ".p50"),
                  hist.stats.get(base + ".p90")) << base;
        EXPECT_LE(hist.stats.get(base + ".p90"),
                  hist.stats.get(base + ".max")) << base;
    }
    // Histogram collection observes, never perturbs, the timing.
    EXPECT_EQ(plain.cycles, hist.cycles);
    EXPECT_EQ(plain.committed, hist.committed);
    // Every issue is sampled into the latency histogram.
    EXPECT_DOUBLE_EQ(hist.stats.get("core.issue_to_complete.count"),
                     hist.stats.get("core.issued"));
    // Occupancy is sampled once per cycle.
    EXPECT_DOUBLE_EQ(hist.stats.get("core.iq_occupancy.count"),
                     static_cast<double>(hist.cycles));
}

TEST(TraceExperiment, RecoveryPenaltyTracksValueMispredicts)
{
    // LVP over all instructions mispredicts plenty; under refetch
    // recovery each mispredict squashes a measurable chunk of the
    // window.
    ExperimentConfig config = smallConfig("go");
    config.scheme = VpScheme::Lvp;
    config.loadsOnly = false;
    config.core.recovery = RecoveryPolicy::Refetch;
    config.core.collectHist = true;
    ExperimentResult r = runExperiment(config);
    double mispredicts = r.stats.get("core.value_mispredicts");
    ASSERT_GT(mispredicts, 0.0);
    EXPECT_DOUBLE_EQ(r.stats.get("core.recovery_penalty.count"),
                     mispredicts);
    EXPECT_GT(r.stats.get("core.recovery_penalty.max"), 0.0);
}

} // namespace
} // namespace rvp
