/**
 * @file
 * Bad input at every tool's front door. Each numeric option of
 * rvpsim, sweep_all, sweepctl and rvpsweepd (and a bench binary's
 * RVP_BENCH_* knobs) is fed garbage, an empty string, a negative
 * number, a value that does not fit its field, and a value just past
 * the rule that bounds it. Every case must exit 1, before any
 * simulation or connection, with a message naming the option or the
 * config field it sets: never an abort (134), never a hang, never a
 * silent run of a wrapped value.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace
{

struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/rvp_cli_XXXXXX";
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

struct Outcome
{
    int exitCode = -1;   ///< -signal when killed; -999 on a timeout
    std::string stderrText;
};

/**
 * Run bin with args (and one optional NAME=VALUE environment entry)
 * in dir, stdout discarded and stderr captured. A run that outlives
 * the timeout is killed and reported as -999.
 */
Outcome
runTool(const char *bin, const std::vector<std::string> &args,
        const TempDir &dir, const std::string &env = "")
{
    std::string errPath = dir.file("stderr.txt");
    pid_t pid = fork();
    if (pid == 0) {
        if (chdir(dir.path.c_str()) != 0)
            _exit(126);
        int out = open("/dev/null", O_WRONLY);
        int err = open(errPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (out < 0 || err < 0)
            _exit(126);
        dup2(out, 1);
        dup2(err, 2);
        if (!env.empty())
            putenv(const_cast<char *>(env.c_str()));
        std::vector<char *> argv{const_cast<char *>(bin)};
        for (const std::string &arg : args)
            argv.push_back(const_cast<char *>(arg.c_str()));
        argv.push_back(nullptr);
        execv(bin, argv.data());
        _exit(127);
    }
    Outcome outcome;
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(30);
    int status = 0;
    while (waitpid(pid, &status, WNOHANG) == 0) {
        if (std::chrono::steady_clock::now() > deadline) {
            kill(pid, SIGKILL);
            waitpid(pid, &status, 0);
            outcome.exitCode = -999;
            return outcome;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    outcome.exitCode = WIFEXITED(status) ? WEXITSTATUS(status)
                                         : -WTERMSIG(status);
    std::ifstream is(errPath);
    std::ostringstream ss;
    ss << is.rdbuf();
    outcome.stderrText = ss.str();
    return outcome;
}

/** One bad invocation and the text its message must contain. */
struct BadInput
{
    std::vector<std::string> args;
    std::string names;
};

/**
 * The bad values of one numeric option. Values that do not parse or
 * fit the field are named by the option; the negative and
 * just-past-bound values may parse and then break a rule, which names
 * its field (`negativeNames`, `pastBoundNames`).
 */
struct NumericOption
{
    std::string option;
    std::string overRange;       ///< does not fit the field's type
    std::string pastBound;       ///< parses, breaks the rule
    std::string pastBoundNames;
    std::string negativeNames;
};

std::vector<BadInput>
badInputs(const std::vector<NumericOption> &options,
          const std::vector<std::string> &prefix = {})
{
    std::vector<BadInput> cases;
    for (const NumericOption &o : options) {
        auto with = [&](const std::string &value) {
            std::vector<std::string> args = prefix;
            args.push_back(o.option);
            args.push_back(value);
            return args;
        };
        cases.push_back({with("abc"), o.option});
        cases.push_back({with(""), o.option});
        cases.push_back({with("12abc"), o.option});
        cases.push_back({with("-5"), o.negativeNames});
        cases.push_back({with(o.overRange), o.option});
        cases.push_back({with(o.pastBound), o.pastBoundNames});
    }
    return cases;
}

void
expectEachExitsOne(const char *bin, const std::vector<BadInput> &cases,
                   const std::vector<std::string> &suffix = {})
{
    TempDir dir;
    for (BadInput c : cases) {
        c.args.insert(c.args.end(), suffix.begin(), suffix.end());
        std::string shown;
        for (const std::string &arg : c.args)
            shown += " '" + arg + "'";
        Outcome out = runTool(bin, c.args, dir);
        EXPECT_EQ(out.exitCode, 1) << bin << shown << "\n"
                                   << out.stderrText;
        EXPECT_NE(out.stderrText.find(c.names), std::string::npos)
            << bin << shown << " should name '" << c.names << "':\n"
            << out.stderrText;
    }
}

const std::string u64Over = "18446744073709551616";
const std::string u32Over = "4294967296";
const std::string budgetPast = "1099511627777";   // 2^40 + 1

TEST(CliBadInput, RvpsimExitsOneNamingTheOption)
{
    std::vector<BadInput> cases = badInputs({
        {"--insts", u64Over, budgetPast, "insts 1099511627777", "--insts"},
        {"--profile-insts", u64Over, budgetPast,
         "profile_insts 1099511627777", "--profile-insts"},
        {"--threshold", "1e400", "1.0000000000000002", "profile_threshold",
         "profile_threshold"},
        {"--confidence", u32Over, "8", "counter_threshold 8",
         "--confidence"},
        {"--table", u32Over, "1048577", "table_entries 1048577",
         "--table"},
        {"--trace-sample", u64Over, "0", "trace_sample 0",
         "--trace-sample"},
    }, {"--trace-out", "t.trace.json"});
    // The values that used to abort or run wrapped.
    cases.push_back({{"--threshold", "99"}, "profile_threshold 99"});
    cases.push_back({{"--table", "0"}, "table_entries 0"});
    cases.push_back({{"--confidence", "99"}, "counter_threshold 99"});
    cases.push_back({{"--insts", "0"}, "insts 0"});
    // Predictor param values reach a counter constructor's asserts.
    cases.push_back({{"--vp", "drvp:bits=0"}, "bits=0"});
    cases.push_back({{"--vp", "lvp:threshold=8"}, "threshold=8"});
    cases.push_back({{"--vp", "stride:entries=-1"}, "entries"});
    // A trace the run could never write used to abort after the run.
    cases.push_back({{"--workload", "go", "--insts", "2000",
                      "--profile-insts", "2000", "--trace-out",
                      "missing-dir/x.json"},
                     "trace_out"});
    expectEachExitsOne(RVP_RVPSIM_BIN, cases);
}

TEST(CliBadInput, SweepAllExitsOneNamingTheOption)
{
    // A small grid first, so a case that were accepted by mistake
    // would still finish fast (and fail on its exit code).
    std::vector<std::string> small{"--workloads", "go",  "--figures",
                                   "fig05",       "--insts", "1000",
                                   "--profile-insts", "1000",
                                   "--bench-out", "", "--quiet",
                                   "--out",       "r.json"};
    std::vector<std::string> prefix = small;
    prefix.insert(prefix.end(), {"--trace-out", "t-"});
    std::vector<BadInput> cases = badInputs({
        {"--jobs", u32Over, u32Over, "--jobs", "--jobs"},
        {"--insts", u64Over, budgetPast, "insts 1099511627777", "--insts"},
        {"--profile-insts", u64Over, budgetPast,
         "profile_insts 1099511627777", "--profile-insts"},
        {"--trace-sample", u64Over, "0", "trace_sample 0",
         "--trace-sample"},
        {"--stream-cache-bytes", u64Over, u64Over, "--stream-cache-bytes",
         "--stream-cache-bytes"},
        {"--run-deadline", "1e400", "1000000001", "--run-deadline",
         "--run-deadline"},
        {"--max-batch-group", u32Over, u32Over, "--max-batch-group",
         "--max-batch-group"},
    }, prefix);
    // A deadline too long for the watchdog's nanosecond clock used to
    // fail every run at "run start"; nan was accepted.
    cases.push_back({small, "--run-deadline"});
    cases.back().args.insert(cases.back().args.end(),
                             {"--run-deadline", "1e10"});
    cases.push_back({small, "--run-deadline"});
    cases.back().args.insert(cases.back().args.end(),
                             {"--run-deadline", "nan"});
    cases.push_back({{"--workloads", "nonesuch"}, "nonesuch"});
    // An unknown figure used to be dropped from the grid silently.
    cases.push_back({small, "fig99"});
    cases.back().args.insert(cases.back().args.end(),
                             {"--figures", "fig05,fig99"});
    // A trace path in a missing directory used to abort the sweep.
    cases.push_back({small, "trace_out"});
    cases.back().args.insert(cases.back().args.end(),
                             {"--trace-out", "missing-dir/p"});
    expectEachExitsOne(RVP_SWEEP_ALL_BIN, cases);
}

TEST(CliBadInput, ArtifactPathsThatAreNotFilesExitOneAndStayPut)
{
    // Every writer's path — sweep_all --out, --bench-out, --trace-out
    // and <out>.journal, sweepctl --out, rvpsweepd --store — naming a
    // FIFO, a directory or a symlink is refused before any run,
    // connection or socket, naming the path, and the thing there is
    // left as it was. (Opening the FIFO would hang; renaming over or
    // unlinking the others would replace them.)
    TempDir dir;
    {
        std::ofstream os(dir.file("target"));
        os << "kept\n";
    }
    const std::vector<std::string> suffixes{"", "-fig05-lvp-go.trace.json",
                                            "-r.json.journal"};
    for (const std::string &suffix : suffixes) {
        ASSERT_EQ(mkfifo(dir.file("fifo" + suffix).c_str(), 0644), 0);
        ASSERT_TRUE(
            std::filesystem::create_directory(dir.file("dir" + suffix)));
        ASSERT_EQ(symlink("target", dir.file("link" + suffix).c_str()), 0);
    }
    const std::vector<std::string> small{
        "--workloads", "go",   "--figures",       "fig05",
        "--insts",     "1000", "--profile-insts", "1000",
        "--bench-out", "",     "--quiet",         "--out",
        "r.json"};
    for (const std::string kind : {"fifo", "dir", "link"}) {
        struct Case
        {
            const char *bin;
            std::vector<std::string> args;
            std::string names;
        };
        auto sweep = [&](std::vector<std::string> extra) {
            std::vector<std::string> args = small;
            args.insert(args.end(), extra.begin(), extra.end());
            return args;
        };
        std::string trace = kind + "-fig05-lvp-go.trace.json";
        const Case cases[] = {
            {RVP_SWEEP_ALL_BIN, sweep({"--out", kind}), kind},
            {RVP_SWEEP_ALL_BIN, sweep({"--bench-out", kind}), kind},
            {RVP_SWEEP_ALL_BIN, sweep({"--trace-out", kind + "-"}),
             trace},
            {RVP_SWEEP_ALL_BIN, sweep({"--out", kind + "-r.json"}),
             kind + "-r.json.journal"},
            {RVP_SWEEPCTL_BIN,
             {"--socket", "nobody-home.sock", "submit", "--workloads",
              "go", "--schemes", "lvp", "--out", kind},
             kind},
            {RVP_RVPSWEEPD_BIN,
             {"--socket", "d.sock", "--store", kind},
             kind},
        };
        for (const Case &c : cases) {
            Outcome out = runTool(c.bin, c.args, dir);
            EXPECT_EQ(out.exitCode, 1) << c.bin << " " << kind << "\n"
                                       << out.stderrText;
            EXPECT_NE(out.stderrText.find("'" + c.names + "'"),
                      std::string::npos)
                << c.bin << " should name '" << c.names << "':\n"
                << out.stderrText;
        }
    }
    EXPECT_FALSE(std::filesystem::exists(dir.file("r.json")));
    EXPECT_FALSE(std::filesystem::exists(dir.file("d.sock")));
    for (const std::string kind : {"fifo", "dir", "link"})
        EXPECT_FALSE(std::filesystem::exists(dir.file(kind + "-r.json")));
    for (const std::string &suffix : suffixes) {
        EXPECT_TRUE(std::filesystem::is_fifo(
            std::filesystem::symlink_status(dir.file("fifo" + suffix))))
            << suffix;
        EXPECT_TRUE(std::filesystem::is_directory(
            std::filesystem::symlink_status(dir.file("dir" + suffix))))
            << suffix;
        EXPECT_TRUE(std::filesystem::is_symlink(
            std::filesystem::symlink_status(dir.file("link" + suffix))))
            << suffix;
    }
    std::ifstream is(dir.file("target"));
    std::string kept;
    std::getline(is, kept);
    EXPECT_EQ(kept, "kept");
}

TEST(CliBadInput, SweepctlExitsOneBeforeConnecting)
{
    // No daemon listens: bad input must be caught before a connection
    // is even tried (a connection failure would exit 2).
    std::vector<BadInput> cases = badInputs({
        {"--retries", u32Over, u32Over, "--retries", "--retries"},
        {"--backoff", "1e400", "1000000001", "--backoff", "--backoff"},
        {"--insts", u64Over, budgetPast, "insts 1099511627777", "--insts"},
        {"--profile-insts", u64Over, budgetPast,
         "profile_insts 1099511627777", "--profile-insts"},
        {"--table-entries", u32Over, "1048577", "table_entries 1048577",
         "--table-entries"},
        {"--counter-threshold", u32Over, "8", "counter_threshold 8",
         "--counter-threshold"},
    }, {"--socket", "nobody-home.sock", "submit", "--workloads", "go",
        "--schemes", "lvp"});
    // A param value the predictor refuses is caught here too, not in
    // the daemon's run.
    cases.push_back({{"--socket", "nobody-home.sock", "submit",
                      "--workloads", "go", "--schemes", "drvp",
                      "--vp-params", "threshold=8"},
                     "threshold=8"});
    expectEachExitsOne(RVP_SWEEPCTL_BIN, cases);
}

TEST(CliBadInput, RvpsweepdExitsOneBeforeListening)
{
    std::vector<std::string> prefix{"--socket", "d.sock", "--store",
                                    "store.jsonl"};
    std::vector<BadInput> cases = badInputs({
        {"--jobs", u32Over, u32Over, "--jobs", "--jobs"},
        {"--run-deadline", "1e400", "1000000001", "--run-deadline",
         "--run-deadline"},
        {"--idle", "1e400", "1000000001", "--idle", "--idle"},
        {"--request-deadline", "1e400", "1000000001",
         "--request-deadline", "--request-deadline"},
        {"--max-queued", u64Over, u64Over, "--max-queued", "--max-queued"},
        {"--max-frame-bytes", u64Over, u64Over, "--max-frame-bytes",
         "--max-frame-bytes"},
    }, prefix);
    expectEachExitsOne(RVP_RVPSWEEPD_BIN, cases);
}

TEST(CliBadInput, BenchKnobsExitOneNamingTheKnob)
{
    TempDir dir;
    struct EnvCase
    {
        std::string env;
        std::vector<std::string> args;
        std::string names;
    };
    const EnvCase cases[] = {
        {"RVP_BENCH_INSTS=abc", {}, "RVP_BENCH_INSTS"},
        {"RVP_BENCH_INSTS=-5", {}, "RVP_BENCH_INSTS"},
        {"RVP_BENCH_INSTS=0", {}, "insts 0"},
        {"RVP_BENCH_JOBS=" + u32Over, {}, "RVP_BENCH_JOBS"},
        {"RVP_BENCH_WORKLOADS=nonesuch", {}, "nonesuch"},
        {"", {"--jobs", "abc"}, "--jobs"},
    };
    for (const EnvCase &c : cases) {
        Outcome out = runTool(RVP_BENCH_BIN, c.args, dir, c.env);
        EXPECT_EQ(out.exitCode, 1) << c.env << "\n" << out.stderrText;
        EXPECT_NE(out.stderrText.find(c.names), std::string::npos)
            << c.env << " should name '" << c.names << "':\n"
            << out.stderrText;
    }
}

} // namespace
