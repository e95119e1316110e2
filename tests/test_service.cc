/**
 * @file
 * Sweep-service tests: the shared frame codec's typed rejection of
 * torn/garbage/oversized input, the wire protocol and content-addressed
 * run keys, the crash-recoverable result store, and end-to-end fault
 * injection against the real rvpsweepd/sweepctl binaries — slow-loris
 * clients, mid-request disconnects, SIGKILL + restart replay (served
 * results must be byte-identical to the pre-crash ones), in-flight
 * dedup across clients, queue backpressure, and graceful SIGTERM drain.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/framing.hh"
#include "config_error.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/store.hh"
#include "sim/figures.hh"
#include "sim/journal.hh"
#include "sim/sweep.hh"

namespace rvp
{
namespace
{

struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/rvp_svc_XXXXXX";
        char *dir = mkdtemp(tmpl);
        EXPECT_NE(dir, nullptr);
        path = dir ? dir : "";
    }
    ~TempDir()
    {
        if (!path.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    }
    std::string file(const std::string &name) const
    {
        return path + "/" + name;
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

void
sleepMs(int ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

TEST(Framing, WriteAllReadAllRoundTripOverPipe)
{
    int p[2];
    ASSERT_EQ(pipe(p), 0);
    const std::string payload(70'000, 'x');   // > one pipe buffer
    std::thread writer([&] {
        EXPECT_TRUE(writeAll(p[1], payload.data(), payload.size()));
        close(p[1]);
    });
    std::string got(payload.size(), '\0');
    EXPECT_TRUE(readAll(p[0], got.data(), got.size()));
    EXPECT_EQ(got, payload);
    // EOF after the payload: readAll must report failure, not spin.
    char c;
    EXPECT_FALSE(readAll(p[0], &c, 1));
    writer.join();
    close(p[0]);
}

TEST(Framing, FramesRoundTripViaFill)
{
    int p[2];
    ASSERT_EQ(pipe(p), 0);
    ASSERT_TRUE(writeFrame(p[1], "hello"));
    ASSERT_TRUE(writeFrame(p[1], ""));   // empty payload is legal
    ASSERT_TRUE(writeFrame(p[1], std::string("bin\0ary", 7)));
    close(p[1]);

    FrameReader reader(p[0]);
    std::vector<std::string> frames;
    while (true) {
        std::optional<std::string> f = reader.next();
        if (f) {
            frames.push_back(*f);
            continue;
        }
        if (!reader.fill())
            break;
    }
    close(p[0]);
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0], "hello");
    EXPECT_EQ(frames[1], "");
    EXPECT_EQ(frames[2], std::string("bin\0ary", 7));
}

TEST(Framing, FramesSurviveArbitraryFragmentation)
{
    int p[2];
    ASSERT_EQ(pipe(p), 0);
    FrameReader reader(p[0]);

    // Write two frames one byte at a time, so even the length header
    // splits across reads; the reader must reassemble them exactly.
    std::string a = "{\"type\": \"shutdown\"}";
    std::string b = "payload two";
    std::string wire = std::to_string(a.size()) + "\n" + a + "\n" +
                       std::to_string(b.size()) + "\n" + b + "\n";
    std::vector<std::string> got;
    for (char c : wire) {
        ASSERT_EQ(write(p[1], &c, 1), 1);
        ASSERT_TRUE(reader.fill());
        while (auto payload = reader.next())
            got.push_back(*payload);
    }
    close(p[0]);
    close(p[1]);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], a);
    EXPECT_EQ(got[1], b);
}

TEST(Framing, WriteFrameRoundTripsAndEofIsClean)
{
    int p[2];
    ASSERT_EQ(pipe(p), 0);
    ASSERT_TRUE(writeFrame(p[1], "hello there"));
    close(p[1]);
    FrameReader reader(p[0]);
    ASSERT_TRUE(reader.fill());
    std::optional<std::string> payload = reader.next();
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(*payload, "hello there");
    // Nothing left over, and the writer's close reads as a clean EOF.
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_FALSE(reader.fill());
    EXPECT_EQ(reader.buffered(), 0u);
    close(p[0]);
}

TEST(Framing, MalformedLengthAndTornTerminatorThrow)
{
    // The rejections of the feed()-driven tests below, reached through
    // fill() on a real pipe.
    auto rejection = [](const std::string &wire) {
        int p[2];
        EXPECT_EQ(pipe(p), 0);
        EXPECT_EQ(write(p[1], wire.data(), wire.size()),
                  static_cast<ssize_t>(wire.size()));
        FrameReader reader(p[0]);
        EXPECT_TRUE(reader.fill());
        std::optional<FrameError::Kind> kind;
        try {
            reader.next();
        } catch (const FrameError &e) {
            kind = e.kind();
        }
        close(p[0]);
        close(p[1]);
        return kind;
    };
    EXPECT_EQ(rejection("bogus\npayload\n"), FrameError::Kind::BadLength);
    // Correct length, wrong terminator: a spliced/torn stream.
    EXPECT_EQ(rejection("3\nabcX"), FrameError::Kind::BadTerminator);
}

TEST(Framing, IncompleteFrameWaitsForMoreBytes)
{
    FrameReader reader(-1);
    reader.feed("5\nab", 4);             // torn mid-payload
    EXPECT_EQ(reader.next(), std::nullopt);
    reader.feed("cde\n", 4);             // the rest arrives
    std::optional<std::string> f = reader.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(*f, "abcde");
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Framing, OversizedFrameRejectedFromHeaderAlone)
{
    FrameReader reader(-1, 64);
    reader.feed("100\n", 4);             // header only, no payload yet
    try {
        reader.next();
        FAIL() << "oversized frame not rejected";
    } catch (const FrameError &e) {
        EXPECT_EQ(e.kind(), FrameError::Kind::Oversized);
    }
}

TEST(Framing, GarbageHeaderIsBadLength)
{
    {
        FrameReader reader(-1);
        reader.feed("abc\n", 4);
        try {
            reader.next();
            FAIL() << "non-numeric header accepted";
        } catch (const FrameError &e) {
            EXPECT_EQ(e.kind(), FrameError::Kind::BadLength);
        }
    }
    {
        FrameReader reader(-1);
        reader.feed("\n", 1);            // empty length line
        try {
            reader.next();
            FAIL() << "empty header accepted";
        } catch (const FrameError &e) {
            EXPECT_EQ(e.kind(), FrameError::Kind::BadLength);
        }
    }
    {
        // A peer streaming digits forever must be cut off without a
        // newline ever arriving.
        FrameReader reader(-1);
        std::string digits(40, '7');
        reader.feed(digits.data(), digits.size());
        try {
            reader.next();
            FAIL() << "runaway header accepted";
        } catch (const FrameError &e) {
            EXPECT_EQ(e.kind(), FrameError::Kind::BadLength);
        }
    }
}

TEST(Framing, TornTerminatorIsBadTerminator)
{
    FrameReader reader(-1);
    reader.feed("3\nabcX", 6);           // 'X' where '\n' must be
    try {
        reader.next();
        FAIL() << "missing terminator accepted";
    } catch (const FrameError &e) {
        EXPECT_EQ(e.kind(), FrameError::Kind::BadTerminator);
    }
}

// ---------------------------------------------------------------------
// Protocol codec, keys, validation
// ---------------------------------------------------------------------

RunSpec
svcSpec(const std::string &workload, const std::string &scheme,
        std::uint64_t insts = 12'000)
{
    RunSpec spec;
    spec.workload = workload;
    spec.scheme = scheme;
    spec.insts = insts;
    spec.profileInsts = 12'000;
    return spec;
}

TEST(ServiceProtocol, RequestsRoundTrip)
{
    ClientRequest hello = decodeClientRequest(encodeHelloRequest());
    EXPECT_EQ(hello.kind, ClientRequest::Kind::Hello);
    EXPECT_EQ(hello.version, serviceProtocolVersion);

    std::vector<RunSpec> runs{svcSpec("go", "lvp"),
                              svcSpec("mgrid", "drvp")};
    runs[1].assist = "dead";
    runs[1].recovery = "refetch";
    runs[1].loadsOnly = false;
    runs[1].vpParams = "hist=3";
    ClientRequest submit =
        decodeClientRequest(encodeSubmitRequest("req-1", runs));
    EXPECT_EQ(submit.kind, ClientRequest::Kind::Submit);
    EXPECT_EQ(submit.id, "req-1");
    ASSERT_EQ(submit.runs.size(), 2u);
    EXPECT_EQ(submit.runs[0], runs[0]);
    EXPECT_EQ(submit.runs[1], runs[1]);

    EXPECT_EQ(decodeClientRequest(encodeStatusRequest()).kind,
              ClientRequest::Kind::Status);
    EXPECT_EQ(decodeClientRequest(encodeShutdownRequest()).kind,
              ClientRequest::Kind::Shutdown);

    EXPECT_THROW(decodeClientRequest("{\"type\": \"nonsense\"}"),
                 ServiceError);
    EXPECT_THROW(decodeClientRequest("not json"), ServiceError);
}

TEST(ServiceProtocol, RepliesRoundTrip)
{
    ServerMsg hello = decodeServerMsg(encodeHelloReply(42));
    EXPECT_EQ(hello.kind, ServerMsg::Kind::Hello);
    EXPECT_EQ(hello.version, serviceProtocolVersion);
    EXPECT_EQ(hello.storeEntries, 42u);

    // The record is an arbitrary journal line: full of quotes and
    // braces. It must survive the trip byte-exactly.
    const std::string record =
        "{\"type\": \"run\", \"key\": \"ab\\\\cd\", \"stats\": {}}";
    ServerMsg result = decodeServerMsg(
        encodeResultReply("req-1", 3, "deadbeef", true, record));
    EXPECT_EQ(result.kind, ServerMsg::Kind::Result);
    EXPECT_EQ(result.id, "req-1");
    EXPECT_EQ(result.index, 3u);
    EXPECT_EQ(result.key, "deadbeef");
    EXPECT_TRUE(result.cached);
    EXPECT_EQ(result.record, record);

    ServerMsg err = decodeServerMsg(encodeErrorReply(
        ServiceError::Code::Backpressure, "queue full", "req-2"));
    EXPECT_EQ(err.kind, ServerMsg::Kind::Error);
    EXPECT_EQ(err.code, ServiceError::Code::Backpressure);
    EXPECT_EQ(err.message, "queue full");
    EXPECT_EQ(err.id, "req-2");

    ServiceStatus status;
    status.storeEntries = 7;
    status.queued = 1;
    status.inflight = 2;
    status.clients = 3;
    status.executed = 4;
    status.servedCached = 5;
    status.dedupSubscribed = 6;
    status.draining = true;
    ServerMsg st = decodeServerMsg(encodeStatusReply(status));
    EXPECT_EQ(st.kind, ServerMsg::Kind::Status);
    EXPECT_EQ(st.status.storeEntries, 7u);
    EXPECT_EQ(st.status.queued, 1u);
    EXPECT_EQ(st.status.inflight, 2u);
    EXPECT_EQ(st.status.clients, 3u);
    EXPECT_EQ(st.status.executed, 4u);
    EXPECT_EQ(st.status.servedCached, 5u);
    EXPECT_EQ(st.status.dedupSubscribed, 6u);
    EXPECT_TRUE(st.status.draining);

    EXPECT_EQ(decodeServerMsg(encodeByeReply()).kind,
              ServerMsg::Kind::Bye);
}

TEST(ServiceProtocol, SchemeAliasesShareAKeyAndKnobsChangeIt)
{
    RunSpec a = svcSpec("go", "drvp");
    RunSpec b = svcSpec("go", "rvp-dynamic");
    EXPECT_EQ(runSpecKey(a), runSpecKey(b))
        << "registry aliases must content-address identically";

    RunSpec c = a;
    c.insts = 13'000;
    EXPECT_NE(runSpecKey(a), runSpecKey(c));
    RunSpec d = a;
    d.vpParams = "hist=3";
    EXPECT_NE(runSpecKey(a), runSpecKey(d));
    // The key is stable across processes and sessions: freeze one.
    EXPECT_EQ(runSpecKey(a).size(), 16u);
}

TEST(ServiceProtocol, StoreFormatIsFrozen)
{
    // The canonical text and its key are the store format: a changed
    // key orphans every stored entry. These literals were recorded
    // before the config validation moved into one path.
    RunSpec lvp;
    lvp.workload = "go";
    lvp.scheme = "lvp";
    EXPECT_EQ(canonicalSpecText(lvp),
              "rvp-spec-v1|go|lvp|same|selective|loads|400000|300000|"
              "0.80000000000000004|1024|7|");
    EXPECT_EQ(runSpecKey(lvp), "5fc8c3310d15784e");

    RunSpec drvp = lvp;
    drvp.scheme = "drvp";
    drvp.vpParams = "hist=3";
    EXPECT_EQ(canonicalSpecText(drvp),
              "rvp-spec-v1|go|rvp-dynamic|same|selective|loads|400000|"
              "300000|0.80000000000000004|1024|7|hist=3");
    EXPECT_EQ(runSpecKey(drvp), "cbc107814030cfa8");
    EXPECT_EQ(encodeSubmitRequest("pin", {drvp}),
              "{\"type\": \"submit\", \"id\": \"pin\", \"runs\": "
              "[{\"workload\": \"go\", \"scheme\": \"drvp\", "
              "\"assist\": \"same\", \"recovery\": \"selective\", "
              "\"loads_only\": true, \"insts\": 400000, "
              "\"profile_insts\": 300000, \"profile_threshold\": "
              "0.80000000000000004, \"table_entries\": 1024, "
              "\"counter_threshold\": 7, \"vp_params\": \"hist=3\"}]}");

    RunSpec fig04 = lvp;
    fig04.profileThreshold = 0.9;
    EXPECT_EQ(canonicalSpecText(fig04),
              "rvp-spec-v1|go|lvp|same|selective|loads|400000|300000|"
              "0.90000000000000002|1024|7|");
    EXPECT_EQ(runSpecKey(fig04), "b750b93b3afc3a59");
}

TEST(ServiceProtocol, SpecKeysAreTheirConfigsKeys)
{
    // A spec's key and text are those of the config it describes: the
    // daemon keys the config it validated, and a client the spec.
    RunSpec drvp = svcSpec("go", "drvp");
    drvp.vpParams = "hist=3";
    RunSpec fig04 = svcSpec("go", "lvp");
    fig04.profileThreshold = 0.9;
    RunSpec all = svcSpec("mgrid", "lvp", 2'000'000);
    all.loadsOnly = false;
    all.recovery = "refetch";
    for (const RunSpec &spec :
         {svcSpec("go", "lvp"), svcSpec("mgrid", "drvp"),
          svcSpec("go", "rvp-dynamic"), svcSpec("go", "lvp", 13'000),
          svcSpec("li", "lvp", 2'000'000), drvp, fig04, all}) {
        ExperimentConfig config = configForSpec(spec);
        EXPECT_EQ(runSpecKey(spec), configKey(config)) << spec.scheme;
        EXPECT_EQ(canonicalSpecText(spec), canonicalConfigText(config));
    }
}

TEST(ServiceProtocol, ValidationRejectsBadSpecsWithTypedErrors)
{
    // The daemon's whole check of a spec: build its config, validate.
    auto check = [](const RunSpec &spec) {
        ExperimentConfig config = configForSpec(spec);
        validateExperimentConfig(config);
        return config;
    };
    auto expectInvalid = [&](RunSpec spec, const char *field) {
        EXPECT_CONFIG_ERROR(check(spec), field);
    };

    expectInvalid(svcSpec("no_such_workload", "lvp"), "workload");
    expectInvalid(svcSpec("go", "no_such_scheme"), "scheme");
    RunSpec badAssist = svcSpec("go", "lvp");
    badAssist.assist = "psychic";
    expectInvalid(badAssist, "assist 'psychic'");
    RunSpec badRecovery = svcSpec("go", "lvp");
    badRecovery.recovery = "wish";
    expectInvalid(badRecovery, "recovery 'wish'");
    RunSpec zeroInsts = svcSpec("go", "lvp");
    zeroInsts.insts = 0;
    expectInvalid(zeroInsts, "insts 0");
    RunSpec zeroProfile = svcSpec("go", "lvp");
    zeroProfile.profileInsts = 0;
    expectInvalid(zeroProfile, "profile_insts 0");
    RunSpec hugeInsts = svcSpec("go", "lvp", maxInstBudget + 1);
    expectInvalid(hugeInsts, "insts 1099511627777");
    RunSpec badThreshold = svcSpec("go", "lvp");
    badThreshold.profileThreshold = 1.5;
    expectInvalid(badThreshold, "profile_threshold");
    RunSpec badCounter = svcSpec("go", "lvp");
    badCounter.counterThreshold = 8;
    expectInvalid(badCounter, "counter_threshold");
    RunSpec badTable = svcSpec("go", "lvp");
    badTable.tableEntries = maxTableEntries + 1;
    expectInvalid(badTable, "table_entries");
    RunSpec staticAll = svcSpec("go", "srvp");
    staticAll.loadsOnly = false;
    expectInvalid(staticAll, "loads_only");
    RunSpec badParams = svcSpec("go", "drvp");
    badParams.vpParams = "definitely_not_a_param=1";
    expectInvalid(badParams, "definitely_not_a_param");

    EXPECT_NO_THROW(check(svcSpec("go", "lvp")));
    ExperimentConfig config =
        check(svcSpec("go", "rvp-dynamic"));
    EXPECT_EQ(config.scheme, VpScheme::DynamicRvp);
    EXPECT_EQ(config.core.maxInsts, 12'000u);
}

TEST(ServiceProtocol, SpecFieldsAreDecodedWithCheckedKindsAndNumbers)
{
    auto submit = [](const std::string &field, const std::string &value) {
        return "{\"type\": \"submit\", \"id\": \"s\", \"runs\": "
               "[{\"workload\": \"go\", \"scheme\": \"lvp\", \"" +
               field + "\": " + value + "}]}";
    };
    auto expectRejected = [&](const std::string &field,
                              const std::string &value) {
        try {
            decodeClientRequest(submit(field, value));
            ADD_FAILURE() << field << ": " << value << " was accepted";
        } catch (const ServiceError &e) {
            EXPECT_EQ(e.code(), ServiceError::Code::Validation)
                << field << ": " << value;
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                << e.what();
        }
    };
    expectRejected("insts", "-5");
    expectRejected("insts", "18446744073709551616");
    expectRejected("insts", "1.5");
    expectRejected("table_entries", "4294967297");
    expectRejected("counter_threshold", "-1");
    expectRejected("loads_only", "\"true\"");
    expectRejected("profile_threshold", "\"0.9\"");
    expectRejected("assist", "3");

    ClientRequest req = decodeClientRequest(
        submit("insts", "18446744073709551615"));
    ASSERT_EQ(req.runs.size(), 1u);
    EXPECT_EQ(req.runs[0].insts, 18446744073709551615ull)
        << "fits the field; the validator, not the decoder, bounds it";
    req = decodeClientRequest(submit("loads_only", "false"));
    EXPECT_FALSE(req.runs[0].loadsOnly);
}

// ---------------------------------------------------------------------
// Result store
// ---------------------------------------------------------------------

TEST(ResultStoreTest, PutGetReloadAndLaterDuplicateWins)
{
    TempDir dir;
    std::string path = dir.file("store.jsonl");
    {
        ResultStore store(path);
        ASSERT_TRUE(store.ok());
        EXPECT_EQ(store.size(), 0u);
        EXPECT_TRUE(store.put("k1", "{\"type\": \"run\", \"v\": 1}"));
        EXPECT_TRUE(store.put("k2", "{\"type\": \"run\", \"v\": 2}"));
        EXPECT_TRUE(store.put("k1", "{\"type\": \"run\", \"v\": 3}"));
        EXPECT_EQ(store.size(), 2u);
        ASSERT_TRUE(store.get("k1").has_value());
        EXPECT_EQ(*store.get("k1"), "{\"type\": \"run\", \"v\": 3}");
    }
    ResultStore reloaded(path);
    ASSERT_TRUE(reloaded.ok());
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_EQ(reloaded.recovered(), 2u);
    EXPECT_EQ(reloaded.skippedLines(), 0u);
    EXPECT_EQ(*reloaded.get("k1"), "{\"type\": \"run\", \"v\": 3}");
    EXPECT_EQ(*reloaded.get("k2"), "{\"type\": \"run\", \"v\": 2}");
    EXPECT_FALSE(reloaded.get("k3").has_value());
}

TEST(ResultStoreTest, TornTrailingLineIsSkippedNotFatal)
{
    TempDir dir;
    std::string path = dir.file("store.jsonl");
    {
        ResultStore store(path);
        ASSERT_TRUE(store.put("k1", "{\"type\": \"run\", \"v\": 1}"));
    }
    // Simulate a crash mid-append: a truncated put line with no
    // terminator.
    {
        std::ofstream os(path, std::ios::app | std::ios::binary);
        os << "{\"type\": \"put\", \"key\": \"k2\", \"rec";
    }
    ResultStore store(path);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.skippedLines(), 1u);
    EXPECT_TRUE(store.get("k1").has_value());
    // The store stays appendable after replaying past the tear.
    EXPECT_TRUE(store.put("k3", "{\"type\": \"run\", \"v\": 3}"));
    ResultStore again(path);
    EXPECT_TRUE(again.get("k3").has_value());
}

TEST(ResultStoreTest, CompactDropsSupersededEntriesAndStaysAppendable)
{
    TempDir dir;
    std::string path = dir.file("store.jsonl");
    ResultStore store(path);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(store.put("k1", "{\"v\": " + std::to_string(i) + "}"));
    ASSERT_TRUE(store.put("k2", "{\"v\": 9}"));

    ASSERT_TRUE(store.compact());
    std::istringstream is(readFile(path));
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line))
        ++lines;
    EXPECT_EQ(lines, 3u) << "header + one line per surviving key";

    // Appends after compaction land on the new file.
    ASSERT_TRUE(store.put("k3", "{\"v\": 10}"));
    ResultStore reloaded(path);
    EXPECT_EQ(reloaded.size(), 3u);
    EXPECT_EQ(*reloaded.get("k1"), "{\"v\": 4}");
    EXPECT_EQ(*reloaded.get("k3"), "{\"v\": 10}");
}

TEST(ResultStoreTest, CompactLeavesAPathThatIsNoLongerAFileAlone)
{
    // The store path is checked at daemon start, but it can be replaced
    // while the daemon serves. Compaction at shutdown then refuses the
    // new thing (the artifact rule) without throwing, so the daemon
    // still closes its connections and removes its socket.
    TempDir dir;
    std::string path = dir.file("store.jsonl");
    ResultStore store(path);
    ASSERT_TRUE(store.put("k1", "{\"v\": 1}"));
    std::filesystem::rename(path, dir.file("moved.jsonl"));
    ASSERT_EQ(symlink("moved.jsonl", path.c_str()), 0);

    bool compacted = true;
    EXPECT_NO_THROW(compacted = store.compact());
    EXPECT_FALSE(compacted);
    EXPECT_TRUE(std::filesystem::is_symlink(
        std::filesystem::symlink_status(path)));
    EXPECT_EQ(readFile(dir.file("moved.jsonl")),
              "{\"type\": \"store\", \"version\": 1}\n"
              "{\"type\": \"put\", \"key\": \"k1\", \"model\": \"" +
                  std::string(modelFingerprint()) +
                  "\", \"record\": \"{\\\"v\\\": 1}\"}\n");
}

TEST(ResultStoreTest, OtherModelPutsAreStaleAndCompactDropsThem)
{
    // A store written by another build: one put stamped with another
    // fingerprint, one from before puts were stamped. Neither is
    // loaded; both are counted stale, and compaction drops them.
    TempDir dir;
    std::string path = dir.file("store.jsonl");
    {
        std::ofstream os(path, std::ios::binary);
        os << "{\"type\": \"store\", \"version\": 1}\n"
           << "{\"type\": \"put\", \"key\": \"k1\", \"model\": "
              "\"0000000000000000\", \"record\": \"{\\\"v\\\": 1}\"}\n"
           << "{\"type\": \"put\", \"key\": \"k2\", \"record\": "
              "\"{\\\"v\\\": 2}\"}\n";
    }
    {
        ResultStore store(path);
        ASSERT_TRUE(store.ok());
        EXPECT_EQ(store.size(), 0u);
        EXPECT_EQ(store.staleLines(), 2u);
        EXPECT_EQ(store.skippedLines(), 0u);
        EXPECT_FALSE(store.get("k1").has_value());
        EXPECT_FALSE(store.get("k2").has_value());
        ASSERT_TRUE(store.put("k3", "{\"v\": 3}"));
        ASSERT_TRUE(store.compact());
    }
    std::string compacted = readFile(path);
    EXPECT_EQ(compacted.find("\"k1\""), std::string::npos) << compacted;
    EXPECT_EQ(compacted.find("\"k2\""), std::string::npos) << compacted;
    ResultStore reloaded(path);
    EXPECT_EQ(reloaded.size(), 1u);
    EXPECT_EQ(reloaded.staleLines(), 0u);
    EXPECT_EQ(*reloaded.get("k3"), "{\"v\": 3}");
}

// ---------------------------------------------------------------------
// Journal record codec (the store's payload format)
// ---------------------------------------------------------------------

TEST(JournalCodec, RecordRoundTripsByteExact)
{
    JournalRecord rec;
    rec.key = "0123456789abcdef";
    rec.figure = "service";
    rec.variant = "go/drvp \"quoted\"";
    rec.workload = "go";
    rec.runSeconds = 1.25;
    rec.result.ipc = 1.125;
    rec.result.cycles = 4096;
    rec.result.committed = 12'000;
    rec.result.predictedFrac = 0.5;
    rec.result.accuracy = 0.75;
    rec.result.failed = false;

    std::string line = encodeJournalRecord(rec);
    std::optional<JournalRecord> parsed = parseJournalRunLine(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->key, rec.key);
    EXPECT_EQ(parsed->variant, rec.variant);
    EXPECT_EQ(parsed->workload, rec.workload);
    EXPECT_EQ(parsed->result.cycles, rec.result.cycles);
    // Re-encoding the parse must reproduce the exact bytes — this is
    // what makes store replay byte-identical to first execution.
    EXPECT_EQ(encodeJournalRecord(*parsed), line);

    EXPECT_FALSE(parseJournalRunLine("garbage").has_value());
    EXPECT_FALSE(
        parseJournalRunLine("{\"type\": \"store\", \"version\": 1}")
            .has_value());
    EXPECT_FALSE(parseJournalRunLine(line.substr(0, line.size() / 2))
                     .has_value());
}

// ---------------------------------------------------------------------
// End-to-end against the real rvpsweepd / sweepctl binaries
// ---------------------------------------------------------------------

pid_t
spawnTool(const char *bin, const std::vector<std::string> &args)
{
    pid_t pid = fork();
    if (pid != 0)
        return pid;
    int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
        dup2(devnull, 1);
        dup2(devnull, 2);
    }
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(bin));
    for (const std::string &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);
    execv(bin, argv.data());
    _exit(127);
}

int
waitExit(pid_t pid)
{
    int status = 0;
    if (waitpid(pid, &status, 0) != pid)
        return -9999;
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    if (WIFSIGNALED(status))
        return -WTERMSIG(status);
    return -9998;
}

/** A spawned rvpsweepd that is guaranteed dead when the test ends. */
struct DaemonGuard
{
    pid_t pid = -1;

    explicit DaemonGuard(pid_t p) : pid(p) {}
    DaemonGuard(const DaemonGuard &) = delete;
    DaemonGuard &operator=(const DaemonGuard &) = delete;
    ~DaemonGuard() { killNow(); }

    int wait()
    {
        int rc = waitExit(pid);
        pid = -1;
        return rc;
    }
    void killNow()
    {
        if (pid > 0) {
            kill(pid, SIGKILL);
            waitExit(pid);
            pid = -1;
        }
    }
};

pid_t
startDaemon(const std::string &socketPath, const std::string &storePath,
            std::vector<std::string> extra = {})
{
    std::vector<std::string> args{"--socket", socketPath,
                                  "--store", storePath};
    for (std::string &arg : extra)
        args.push_back(std::move(arg));
    return spawnTool(RVP_RVPSWEEPD_BIN, args);
}

bool
connectRetry(ServiceClient &client, const std::string &socketPath,
             int attempts = 200)
{
    for (int i = 0; i < attempts; ++i) {
        if (client.connect(socketPath))
            return true;
        sleepMs(50);
    }
    return false;
}

std::optional<ServiceStatus>
queryStatus(const std::string &socketPath)
{
    ServiceClient client;
    if (!client.connect(socketPath))
        return std::nullopt;
    if (!client.send(encodeStatusRequest()))
        return std::nullopt;
    std::optional<ServerMsg> msg = client.recv();
    if (!msg || msg->kind != ServerMsg::Kind::Status)
        return std::nullopt;
    return msg->status;
}

TEST(ServiceEndToEnd, StatusSmoke)
{
    TempDir dir;
    std::string sock = dir.file("svc.sock");
    DaemonGuard daemon(startDaemon(sock, dir.file("store.jsonl")));
    ASSERT_GT(daemon.pid, 0);

    ServiceClient client;
    ASSERT_TRUE(connectRetry(client, sock)) << client.lastError();
    EXPECT_EQ(client.storeEntries(), 0u);
    ASSERT_TRUE(client.send(encodeStatusRequest()));
    std::optional<ServerMsg> msg = client.recv();
    ASSERT_TRUE(msg.has_value()) << client.lastError();
    ASSERT_EQ(msg->kind, ServerMsg::Kind::Status);
    EXPECT_EQ(msg->status.storeEntries, 0u);
    EXPECT_EQ(msg->status.clients, 1u);
    EXPECT_FALSE(msg->status.draining);
}

TEST(ServiceEndToEnd, GarbageFrameGetsTypedProtocolErrorThenClose)
{
    TempDir dir;
    std::string sock = dir.file("svc.sock");
    DaemonGuard daemon(startDaemon(sock, dir.file("store.jsonl")));
    ASSERT_GT(daemon.pid, 0);

    ServiceClient client;
    ASSERT_TRUE(connectRetry(client, sock)) << client.lastError();
    // Raw garbage where a length header belongs.
    ASSERT_TRUE(writeAll(client.fd(), "%%%%\n", 5));
    std::optional<ServerMsg> msg = client.recv();
    ASSERT_TRUE(msg.has_value()) << client.lastError();
    ASSERT_EQ(msg->kind, ServerMsg::Kind::Error);
    EXPECT_EQ(msg->code, ServiceError::Code::Protocol);
    // The connection is then closed — but the daemon itself survives.
    EXPECT_EQ(client.recv(), std::nullopt);
    EXPECT_TRUE(queryStatus(sock).has_value());
}

TEST(ServiceEndToEnd, OversizedFrameGetsTypedErrorBeforePayloadLands)
{
    TempDir dir;
    std::string sock = dir.file("svc.sock");
    DaemonGuard daemon(startDaemon(sock, dir.file("store.jsonl"),
                                   {"--max-frame-bytes", "4096"}));
    ASSERT_GT(daemon.pid, 0);

    ServiceClient client;
    ASSERT_TRUE(connectRetry(client, sock)) << client.lastError();
    // Declare a megabyte; never send it. The daemon must reject from
    // the header alone.
    ASSERT_TRUE(writeAll(client.fd(), "1048576\n", 8));
    std::optional<ServerMsg> msg = client.recv();
    ASSERT_TRUE(msg.has_value()) << client.lastError();
    ASSERT_EQ(msg->kind, ServerMsg::Kind::Error);
    EXPECT_EQ(msg->code, ServiceError::Code::Oversized);
    EXPECT_EQ(client.recv(), std::nullopt);
    EXPECT_TRUE(queryStatus(sock).has_value());
}

TEST(ServiceEndToEnd, BadSpecValuesGetValidationFramesAndServingGoesOn)
{
    TempDir dir;
    std::string sock = dir.file("svc.sock");
    DaemonGuard daemon(startDaemon(sock, dir.file("store.jsonl"),
                                   {"--jobs", "1", "--idle", "600"}));
    ASSERT_GT(daemon.pid, 0);

    ServiceClient client;
    ASSERT_TRUE(connectRetry(client, sock)) << client.lastError();
    // Raw submit frames: a negative and a wrapped budget (each used to
    // abort the daemon in the core), a table size that does not fit
    // its field, a boolean sent as a string, and a predictor param
    // value the scheme refuses (it used to fail inside the run).
    const char *badSpecs[] = {
        "\"insts\": -5",
        "\"insts\": 18446744073709551615",
        "\"insts\": 12000, \"table_entries\": 4294967297",
        "\"insts\": 12000, \"loads_only\": \"true\"",
        "\"insts\": 12000, \"vp_params\": \"threshold=8\"",
    };
    for (const char *fields : badSpecs) {
        ASSERT_TRUE(client.send(
            std::string("{\"type\": \"submit\", \"id\": \"bad\", "
                        "\"runs\": [{\"workload\": \"go\", "
                        "\"scheme\": \"lvp\", \"profile_insts\": "
                        "12000, ") +
            fields + "}]}"));
        std::optional<ServerMsg> msg = client.recv();
        ASSERT_TRUE(msg.has_value()) << fields << ": " << client.lastError();
        ASSERT_EQ(msg->kind, ServerMsg::Kind::Error) << fields;
        EXPECT_EQ(msg->code, ServiceError::Code::Validation)
            << fields << ": " << msg->message;
    }

    // The same daemon, on the same connection, still serves a valid
    // submit and drains cleanly.
    RunSpec good = svcSpec("go", "lvp");
    ASSERT_TRUE(client.send(encodeSubmitRequest("good", {good})));
    std::optional<ServerMsg> res = client.recv();
    ASSERT_TRUE(res.has_value()) << client.lastError();
    ASSERT_EQ(res->kind, ServerMsg::Kind::Result) << res->message;
    EXPECT_EQ(res->key, runSpecKey(good));
    std::optional<JournalRecord> rec = parseJournalRunLine(res->record);
    ASSERT_TRUE(rec.has_value());
    EXPECT_FALSE(rec->result.failed) << rec->result.error;

    ASSERT_TRUE(client.send(encodeShutdownRequest()));
    std::optional<ServerMsg> bye = client.recv();
    ASSERT_TRUE(bye.has_value()) << client.lastError();
    EXPECT_EQ(bye->kind, ServerMsg::Kind::Bye);
    EXPECT_EQ(daemon.wait(), 0);
}

TEST(ServiceEndToEnd, SlowLorisClientHitsIdleDeadline)
{
    TempDir dir;
    std::string sock = dir.file("svc.sock");
    DaemonGuard daemon(startDaemon(sock, dir.file("store.jsonl"),
                                   {"--idle", "0.3"}));
    ASSERT_GT(daemon.pid, 0);

    ServiceClient client;
    ASSERT_TRUE(connectRetry(client, sock)) << client.lastError();
    // Dribble half a header and then stall forever.
    ASSERT_TRUE(writeAll(client.fd(), "12", 2));
    std::optional<ServerMsg> msg = client.recv();
    ASSERT_TRUE(msg.has_value()) << client.lastError();
    ASSERT_EQ(msg->kind, ServerMsg::Kind::Error);
    EXPECT_EQ(msg->code, ServiceError::Code::Deadline);
    EXPECT_EQ(client.recv(), std::nullopt);
    EXPECT_TRUE(queryStatus(sock).has_value());
}

TEST(ServiceEndToEnd, ClientDisconnectMidRequestDaemonSurvives)
{
    TempDir dir;
    std::string sock = dir.file("svc.sock");
    DaemonGuard daemon(startDaemon(sock, dir.file("store.jsonl")));
    ASSERT_GT(daemon.pid, 0);

    {
        ServiceClient client;
        ASSERT_TRUE(connectRetry(client, sock)) << client.lastError();
        ASSERT_TRUE(client.send(
            encodeSubmitRequest("bail", {svcSpec("go", "lvp")})));
        // Vanish without reading the result.
    }
    // The run still executes and lands in the store; the daemon keeps
    // serving other clients throughout.
    bool executed = false;
    for (int i = 0; i < 200 && !executed; ++i) {
        std::optional<ServiceStatus> st = queryStatus(sock);
        ASSERT_TRUE(st.has_value());
        executed = st->executed >= 1 && st->inflight == 0;
        if (!executed)
            sleepMs(100);
    }
    EXPECT_TRUE(executed) << "abandoned run never finished";
    // A later client gets the abandoned run's record from the store.
    ServiceClient client;
    ASSERT_TRUE(client.connect(sock));
    EXPECT_EQ(client.storeEntries(), 1u);
    ASSERT_TRUE(client.send(
        encodeSubmitRequest("redo", {svcSpec("go", "lvp")})));
    std::optional<ServerMsg> msg = client.recv();
    ASSERT_TRUE(msg.has_value()) << client.lastError();
    ASSERT_EQ(msg->kind, ServerMsg::Kind::Result);
    EXPECT_TRUE(msg->cached);
}

TEST(ServiceEndToEnd, InflightDedupTwoClientsOneRun)
{
    TempDir dir;
    std::string sock = dir.file("svc.sock");
    DaemonGuard daemon(startDaemon(sock, dir.file("store.jsonl"),
                                   {"--jobs", "1", "--idle", "600"}));
    ASSERT_GT(daemon.pid, 0);

    RunSpec spec = svcSpec("go", "drvp", 400'000);
    ServiceClient a;
    ASSERT_TRUE(connectRetry(a, sock)) << a.lastError();
    ASSERT_TRUE(a.send(encodeSubmitRequest("a", {spec})));
    // B's identical submit arrives while A's run is pending or in
    // flight (the run takes orders of magnitude longer than this
    // connect), so it must fold onto the same execution.
    ServiceClient b;
    ASSERT_TRUE(b.connect(sock));
    ASSERT_TRUE(b.send(encodeSubmitRequest("b", {spec})));

    std::optional<ServerMsg> ra = a.recv();
    std::optional<ServerMsg> rb = b.recv();
    ASSERT_TRUE(ra.has_value()) << a.lastError();
    ASSERT_TRUE(rb.has_value()) << b.lastError();
    ASSERT_EQ(ra->kind, ServerMsg::Kind::Result);
    ASSERT_EQ(rb->kind, ServerMsg::Kind::Result);
    EXPECT_EQ(ra->key, runSpecKey(spec));
    EXPECT_EQ(rb->key, ra->key);
    EXPECT_FALSE(ra->cached);
    EXPECT_FALSE(rb->cached) << "dedup'd result is live, not cached";
    EXPECT_EQ(ra->record, rb->record) << "one run, one record";

    std::optional<ServiceStatus> st = queryStatus(sock);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->executed, 1u) << "the run must execute exactly once";
    EXPECT_EQ(st->dedupSubscribed, 1u);
}

TEST(ServiceEndToEnd, BackpressureRejectsWholeSubmit)
{
    TempDir dir;
    std::string sock = dir.file("svc.sock");
    DaemonGuard daemon(startDaemon(sock, dir.file("store.jsonl"),
                                   {"--max-queued", "2"}));
    ASSERT_GT(daemon.pid, 0);

    ServiceClient client;
    ASSERT_TRUE(connectRetry(client, sock)) << client.lastError();
    // Three fresh runs against a bound of two: the whole submit is
    // refused before anything is queued.
    std::vector<RunSpec> grid{svcSpec("go", "lvp"),
                              svcSpec("go", "drvp"),
                              svcSpec("go", "lvp", 13'000)};
    ASSERT_TRUE(client.send(encodeSubmitRequest("big", grid)));
    std::optional<ServerMsg> msg = client.recv();
    ASSERT_TRUE(msg.has_value()) << client.lastError();
    ASSERT_EQ(msg->kind, ServerMsg::Kind::Error);
    EXPECT_EQ(msg->code, ServiceError::Code::Backpressure);
    EXPECT_EQ(msg->id, "big");

    // Nothing leaked into the queue, and the connection survives a
    // backpressure reject: a fitting submit on the same connection
    // succeeds.
    std::optional<ServiceStatus> st = queryStatus(sock);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->queued + st->inflight, 0u);
    ASSERT_TRUE(client.send(encodeSubmitRequest(
        "fits", {svcSpec("go", "lvp"), svcSpec("go", "drvp")})));
    for (int i = 0; i < 2; ++i) {
        std::optional<ServerMsg> res = client.recv();
        ASSERT_TRUE(res.has_value()) << client.lastError();
        EXPECT_EQ(res->kind, ServerMsg::Kind::Result);
    }
}

TEST(ServiceEndToEnd, KillRestartReplayIsByteIdentical)
{
    TempDir dir;
    std::string sock = dir.file("svc.sock");
    std::string store = dir.file("store.jsonl");

    // Grid of three DISTINCT workloads: each gets its own batch
    // group, and with --jobs 1 the groups execute in grid order. Run
    // 0 is short and completes alone; runs 1-2 are long enough that
    // SIGKILL lands while the grid is still executing.
    std::vector<RunSpec> grid{svcSpec("go", "lvp"),
                              svcSpec("mgrid", "lvp", 2'000'000),
                              svcSpec("li", "lvp", 2'000'000)};

    std::string firstKey, firstRecord;
    {
        DaemonGuard daemon(startDaemon(sock, store,
                                       {"--jobs", "1", "--idle", "600"}));
        ASSERT_GT(daemon.pid, 0);
        ServiceClient client;
        ASSERT_TRUE(connectRetry(client, sock)) << client.lastError();
        ASSERT_TRUE(client.send(encodeSubmitRequest("grid", grid)));
        std::optional<ServerMsg> first = client.recv();
        ASSERT_TRUE(first.has_value()) << client.lastError();
        ASSERT_EQ(first->kind, ServerMsg::Kind::Result);
        EXPECT_FALSE(first->cached);
        firstKey = first->key;
        firstRecord = first->record;
        EXPECT_EQ(firstKey, runSpecKey(grid[0]));

        // Crash the daemon mid-grid. Its first result is already
        // durable (put + fsync precede delivery).
        kill(daemon.pid, SIGKILL);
        EXPECT_EQ(daemon.wait(), -SIGKILL);
        EXPECT_EQ(client.recv(), std::nullopt);
    }

    // Restart on the same store; the identical grid must return the
    // completed run byte-identically from disk and only execute the
    // remainder.
    DaemonGuard daemon(startDaemon(sock, store,
                                   {"--jobs", "1", "--idle", "600"}));
    ASSERT_GT(daemon.pid, 0);
    ServiceClient client;
    ASSERT_TRUE(connectRetry(client, sock)) << client.lastError();
    EXPECT_GE(client.storeEntries(), 1u);
    ASSERT_TRUE(client.send(encodeSubmitRequest("grid", grid)));

    std::map<std::string, ServerMsg> results;
    while (results.size() < grid.size()) {
        std::optional<ServerMsg> msg = client.recv();
        ASSERT_TRUE(msg.has_value()) << client.lastError();
        ASSERT_EQ(msg->kind, ServerMsg::Kind::Result);
        results[msg->key] = *msg;
    }
    ASSERT_TRUE(results.count(firstKey));
    EXPECT_TRUE(results[firstKey].cached)
        << "completed run must be served from the store, not re-run";
    EXPECT_EQ(results[firstKey].record, firstRecord)
        << "replayed record must be byte-identical to the original";
    for (const RunSpec &spec : grid) {
        ASSERT_TRUE(results.count(runSpecKey(spec)));
        std::optional<JournalRecord> rec =
            parseJournalRunLine(results[runSpecKey(spec)].record);
        ASSERT_TRUE(rec.has_value());
        EXPECT_FALSE(rec->result.failed);
    }
    std::optional<ServiceStatus> st = queryStatus(sock);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->servedCached, 1u);
    EXPECT_LT(st->executed, grid.size())
        << "restart must not re-execute the completed run";
}

TEST(ServiceEndToEnd, RestartOnAnotherModelsStoreReExecutes)
{
    TempDir dir;
    std::string sock = dir.file("svc.sock");
    std::string store = dir.file("store.jsonl");
    RunSpec spec = svcSpec("go", "lvp");
    std::string firstRecord;
    {
        DaemonGuard daemon(startDaemon(sock, store));
        ASSERT_GT(daemon.pid, 0);
        ServiceClient client;
        ASSERT_TRUE(connectRetry(client, sock)) << client.lastError();
        ASSERT_TRUE(client.send(encodeSubmitRequest("a", {spec})));
        std::optional<ServerMsg> msg = client.recv();
        ASSERT_TRUE(msg.has_value()) << client.lastError();
        ASSERT_EQ(msg->kind, ServerMsg::Kind::Result);
        EXPECT_FALSE(msg->cached);
        firstRecord = msg->record;
        ASSERT_TRUE(client.send(encodeShutdownRequest()));
        EXPECT_EQ(daemon.wait(), 0);
    }

    // Forge the store as another build's: same key, same record bytes,
    // another fingerprint.
    std::string text = readFile(store);
    const std::string stamp =
        "\"model\": \"" + std::string(modelFingerprint()) + "\"";
    std::size_t at = text.find(stamp);
    ASSERT_NE(at, std::string::npos) << text;
    text.replace(at, stamp.size(), "\"model\": \"0000000000000000\"");
    {
        std::ofstream os(store, std::ios::binary | std::ios::trunc);
        os << text;
    }

    DaemonGuard daemon(startDaemon(sock, store));
    ASSERT_GT(daemon.pid, 0);
    ServiceClient client;
    ASSERT_TRUE(connectRetry(client, sock)) << client.lastError();
    EXPECT_EQ(client.storeEntries(), 0u);
    ASSERT_TRUE(client.send(encodeSubmitRequest("b", {spec})));
    std::optional<ServerMsg> msg = client.recv();
    ASSERT_TRUE(msg.has_value()) << client.lastError();
    ASSERT_EQ(msg->kind, ServerMsg::Kind::Result);
    EXPECT_FALSE(msg->cached) << "another model's result must not answer";
    std::optional<JournalRecord> again = parseJournalRunLine(msg->record);
    std::optional<JournalRecord> before = parseJournalRunLine(firstRecord);
    ASSERT_TRUE(again.has_value());
    ASSERT_TRUE(before.has_value());
    EXPECT_EQ(again->result.stats.values(), before->result.stats.values());
    std::optional<ServiceStatus> st = queryStatus(sock);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->staleEntries, 1u);
    EXPECT_EQ(st->storeEntries, 1u);
    EXPECT_EQ(st->executed, 1u);
    EXPECT_EQ(st->servedCached, 0u);
}

TEST(ServiceEndToEnd, SweepAllAndTheDaemonLabelAKeysRecordAlike)
{
    // One key's record has the same labels whichever front end ran
    // it. sweep_all keeps its journal only when it does not finish, so
    // it is killed once its go/lvp run (in the first group at --jobs
    // 1) is stored, while its mgrid runs are still going.
    ExperimentConfig base;
    base.core.maxInsts = 400'000;
    base.profileInsts = 12'000;
    std::vector<FigureRun> grid = expandFigures({"fig05"}, {"go"}, base);
    auto lvp = std::find_if(grid.begin(), grid.end(),
                            [](const FigureRun &e) {
                                return e.variant == "lvp";
                            });
    ASSERT_NE(lvp, grid.end());
    const std::string key = configKey(lvp->config);
    RunSpec spec = svcSpec("go", "lvp", 400'000);
    ASSERT_EQ(runSpecKey(spec), key);

    TempDir dir;
    std::string out = dir.file("results.json");
    std::string journal = out + ".journal";
    pid_t pid = spawnTool(
        RVP_SWEEP_ALL_BIN,
        {"--figures", "fig05", "--workloads", "go,mgrid", "--insts",
         "400000", "--profile-insts", "12000", "--jobs", "1", "--quiet",
         "--bench-out", "", "--out", out});
    ASSERT_GT(pid, 0);
    bool exited = false;
    for (int spin = 0; spin < 150'000; ++spin) {   // <= ~5 min
        if (readFile(journal).find("\"key\": \"" + key + "\", \"model") !=
            std::string::npos)
            break;
        int status = 0;
        if (waitpid(pid, &status, WNOHANG) == pid) {
            exited = true;
            break;
        }
        usleep(2'000);
    }
    if (!exited) {
        kill(pid, SIGKILL);
        waitExit(pid);
    }
    ASSERT_FALSE(exited) << "sweep_all finished before it could be killed";

    std::optional<std::string> line = RunStore(journal).get(key);
    ASSERT_TRUE(line.has_value()) << readFile(journal);
    std::optional<JournalRecord> fromSweep = parseJournalRunLine(*line);
    ASSERT_TRUE(fromSweep.has_value());

    std::string sock = dir.file("svc.sock");
    DaemonGuard daemon(startDaemon(sock, dir.file("store.jsonl")));
    ASSERT_GT(daemon.pid, 0);
    ServiceClient client;
    ASSERT_TRUE(connectRetry(client, sock)) << client.lastError();
    ASSERT_TRUE(client.send(encodeSubmitRequest("lvp", {spec})));
    std::optional<ServerMsg> msg = client.recv();
    ASSERT_TRUE(msg.has_value()) << client.lastError();
    ASSERT_EQ(msg->kind, ServerMsg::Kind::Result);
    std::optional<JournalRecord> fromDaemon =
        parseJournalRunLine(msg->record);
    ASSERT_TRUE(fromDaemon.has_value());
    EXPECT_EQ(fromDaemon->key, fromSweep->key);
    EXPECT_EQ(fromDaemon->figure, fromSweep->figure);
    EXPECT_EQ(fromDaemon->variant, fromSweep->variant);
    EXPECT_EQ(fromDaemon->workload, fromSweep->workload);
    EXPECT_EQ(fromDaemon->figure, "");
    EXPECT_EQ(fromDaemon->variant, describeConfig(lvp->config));
    EXPECT_EQ(fromDaemon->result.stats.values(),
              fromSweep->result.stats.values());
}

TEST(ServiceEndToEnd, SigtermDrainsDeliversResultsAndExitsZero)
{
    TempDir dir;
    std::string sock = dir.file("svc.sock");
    // Generous idle deadline: under TSan the drained run takes tens of
    // seconds, during which this client's connection sits quiet.
    DaemonGuard daemon(startDaemon(sock, dir.file("store.jsonl"),
                                   {"--jobs", "1", "--idle", "600"}));
    ASSERT_GT(daemon.pid, 0);

    ServiceClient client;
    ASSERT_TRUE(connectRetry(client, sock)) << client.lastError();
    RunSpec spec = svcSpec("go", "drvp", 2'000'000);
    ASSERT_TRUE(client.send(encodeSubmitRequest("work", {spec})));
    // Confirm the daemon owns the run before pulling the trigger: a
    // status round trip on the same connection serializes behind the
    // submit frame.
    ASSERT_TRUE(client.send(encodeStatusRequest()));
    std::optional<ServerMsg> st = client.recv();
    ASSERT_TRUE(st.has_value()) << client.lastError();
    ASSERT_EQ(st->kind, ServerMsg::Kind::Status);
    EXPECT_GE(st->status.queued + st->status.inflight, 1u);

    ASSERT_EQ(kill(daemon.pid, SIGTERM), 0);
    // A submit racing the drain either executes (accepted before the
    // drain began), is refused with the typed `draining` error, or —
    // if the daemon already finished draining — dies with the
    // connection. All are legal; what is NOT legal is the accepted
    // run's result getting lost or a non-zero exit.
    RunSpec late = svcSpec("go", "lvp");
    ASSERT_TRUE(client.send(encodeSubmitRequest("late", {late})));

    bool gotWork = false;
    bool lateRefused = false;
    bool lateRan = false;
    while (std::optional<ServerMsg> msg = client.recv()) {
        if (msg->kind == ServerMsg::Kind::Result) {
            if (msg->key == runSpecKey(spec))
                gotWork = true;
            else if (msg->key == runSpecKey(late))
                lateRan = true;
        } else if (msg->kind == ServerMsg::Kind::Error) {
            EXPECT_EQ(msg->code, ServiceError::Code::Draining);
            EXPECT_EQ(msg->id, "late");
            lateRefused = true;
        }
    }
    EXPECT_TRUE(gotWork)
        << "drain must deliver the in-flight run's result before exit";
    EXPECT_FALSE(lateRefused && lateRan);
    EXPECT_EQ(daemon.wait(), 0);
}

// ---------------------------------------------------------------------
// sweepctl
// ---------------------------------------------------------------------

TEST(Sweepctl, StatusSubmitShutdownSmoke)
{
    TempDir dir;
    std::string sock = dir.file("svc.sock");
    DaemonGuard daemon(startDaemon(sock, dir.file("store.jsonl")));
    ASSERT_GT(daemon.pid, 0);
    {
        ServiceClient probe;
        ASSERT_TRUE(connectRetry(probe, sock)) << probe.lastError();
    }

    EXPECT_EQ(waitExit(spawnTool(RVP_SWEEPCTL_BIN,
                                 {"--socket", sock, "status"})),
              0);

    std::string out = dir.file("records.jsonl");
    std::vector<std::string> submit{
        "--socket", sock, "submit", "--workloads", "go",
        "--schemes", "lvp,drvp", "--insts", "12000",
        "--profile-insts", "12000", "--out", out};
    ASSERT_EQ(waitExit(spawnTool(RVP_SWEEPCTL_BIN, submit)), 0);
    std::string firstOut = readFile(out);
    std::istringstream is(firstOut);
    std::string line;
    std::size_t records = 0;
    while (std::getline(is, line)) {
        EXPECT_TRUE(parseJournalRunLine(line).has_value()) << line;
        ++records;
    }
    EXPECT_EQ(records, 2u);

    // Resubmitting the identical grid is served from the store and
    // writes byte-identical output.
    ASSERT_EQ(waitExit(spawnTool(RVP_SWEEPCTL_BIN, submit)), 0);
    EXPECT_EQ(readFile(out), firstOut);
    std::optional<ServiceStatus> st = queryStatus(sock);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->executed, 2u);
    EXPECT_EQ(st->servedCached, 2u);

    EXPECT_EQ(waitExit(spawnTool(RVP_SWEEPCTL_BIN,
                                 {"--socket", sock, "shutdown"})),
              0);
    EXPECT_EQ(daemon.wait(), 0);
}

TEST(Sweepctl, RetryExhaustionAgainstDeadSocketExitsTwo)
{
    TempDir dir;
    EXPECT_EQ(waitExit(spawnTool(
                  RVP_SWEEPCTL_BIN,
                  {"--socket", dir.file("nobody-home.sock"),
                   "--retries", "2", "--backoff", "0.01", "status"})),
              2);
}

} // namespace
} // namespace rvp
