#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>

#include "bench.hh"
#include "sim/journal.hh"

namespace bench
{

// ---------------------------------------------------------------- spans

SpanRecorder::Scope::Scope(SpanRecorder *rec, const char *name,
                           std::uint64_t request)
    : rec_(rec)
{
    if (!rec_)
        return;
    Span s;
    s.name = name;
    s.start = std::chrono::duration<double>(Clock::now() - rec_->epoch_)
                  .count();
    s.parent = rec_->open_.empty() ? -1 : rec_->open_.back();
    s.request = request;
    index_ = static_cast<int>(rec_->spans_.size());
    rec_->spans_.push_back(s);
    rec_->open_.push_back(index_);
}

SpanRecorder::Scope::~Scope()
{
    if (!rec_)
        return;
    rec_->spans_[index_].end =
        std::chrono::duration<double>(Clock::now() - rec_->epoch_).count();
    rec_->open_.pop_back();
}

double
SpanRecorder::selfSeconds(const std::string &name) const
{
    std::vector<double> childCover(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childCover[s.parent] += s.end - s.start;
    double total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (name == spans_[i].name)
            total += spans_[i].end - spans_[i].start - childCover[i];
    return total;
}

bool
SpanRecorder::writeJsonl(const std::string &path) const
{
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    for (const Span &s : spans_) {
        out << "{\"name\": \"" << s.name
            << "\", \"start\": " << rvp::jsonNum(s.start)
            << ", \"end\": " << rvp::jsonNum(s.end)
            << ", \"parent\": " << s.parent
            << ", \"request\": " << s.request << "}\n";
    }
    return static_cast<bool>(out);
}

// ------------------------------------------------------------- summaries

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

LatencySummary
summarize(std::vector<double> ms)
{
    LatencySummary s;
    s.samples = ms.size();
    if (ms.empty())
        return s;
    s.p50 = median(ms);
    std::sort(ms.begin(), ms.end());
    // The highest order statistic with at least ten samples above it.
    std::size_t at = ms.size() > 10 ? ms.size() - 11 : ms.size() - 1;
    s.tail = ms[at];
    s.tailPercentile =
        100.0 * static_cast<double>(at + 1) / static_cast<double>(ms.size());
    return s;
}

LatencySummary
summarizeBlocks(const std::vector<std::vector<double>> &ms)
{
    std::vector<double> p50, tail, pct, n;
    for (const std::vector<double> &block : ms) {
        if (block.empty())
            continue;
        LatencySummary s = summarize(block);
        p50.push_back(s.p50);
        tail.push_back(s.tail);
        pct.push_back(s.tailPercentile);
        n.push_back(static_cast<double>(s.samples));
    }
    LatencySummary out;
    out.p50 = median(p50);
    out.tail = median(tail);
    out.tailPercentile = median(pct);
    out.samples = static_cast<std::size_t>(median(n));
    out.blocks = p50.size();
    return out;
}

// ---------------------------------------------------------------- tables

const std::vector<std::pair<std::string, std::string>> &
endToEndTable()
{
    static const std::vector<std::pair<std::string, std::string>> table = {
        {"wall_s", "s"},          {"sim_kips", "kinst/s"},
        {"p50_ms", "ms"},         {"tail_ms", "ms"},
        {"hit_p50_ms", "ms"},     {"hit_tail_ms", "ms"},
        {"miss_p50_ms", "ms"},    {"miss_tail_ms", "ms"},
        {"setup_s", "s"},         {"peak_rss_mb", "MB"},
    };
    return table;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerTable()
{
    static const std::vector<std::pair<std::string, std::string>> table = {
        {"uarch.cycles", "count"},
        {"uarch.committed", "count"},
        {"uarch.issued", "count"},
        {"uarch.useful_ratio", "ratio"},
        {"uarch.busy_s", "s"},
        {"uarch.ns_per_cycle", "ns"},
        {"vp.eligible", "count"},
        {"vp.predictions", "count"},
        {"vp.correct", "count"},
        {"vp.accuracy", "ratio"},
        {"vp.busy_s", "s"},
        {"stream.decoded_insts", "count"},
        {"stream.consumed_per_decoded", "ratio"},
        {"stream.decode_busy_s", "s"},
        {"stream.captures", "count"},
        {"stream.hit_ratio", "ratio"},
        {"stream.bytes_per_inst", "B/inst"},
        {"stream.resident_mb", "MB"},
        {"stream.capture_busy_s", "s"},
        {"emu.insts", "count"},
        {"emu.busy_s", "s"},
        {"compile.calls", "count"},
        {"compile.hit_ratio", "ratio"},
        {"compile.busy_s", "s"},
        {"profile.calls", "count"},
        {"profile.insts", "count"},
        {"profile.hit_ratio", "ratio"},
        {"profile.busy_s", "s"},
        {"sim.runs", "count"},
        {"sim.runs_simulated", "count"},
        {"sim.distinct_outcomes", "count"},
        {"sim.useful_ratio", "ratio"},
        {"sim.batch_groups", "count"},
        {"sim.batched_runs", "count"},
        {"sim.fallouts", "count"},
        {"sim.retries", "count"},
        {"sim.journal_appends", "count"},
        {"sim.journal_busy_s", "s"},
        {"sim.prepare_busy_s", "s"},
        {"sim.unattributed_s", "s"},
        {"service.requests", "count"},
        {"service.hits", "count"},
        {"service.misses", "count"},
        {"service.errors.protocol", "count"},
        {"service.errors.oversized", "count"},
        {"service.errors.validation", "count"},
        {"service.errors.backpressure", "count"},
        {"service.errors.deadline", "count"},
        {"service.errors.draining", "count"},
        {"service.frame_bytes", "B"},
        {"service.store_entries", "count"},
        {"service.store_get_busy_s", "s"},
        {"service.store_put_busy_s", "s"},
        {"service.start_busy_s", "s"},
        {"trace.wall_s", "s"},
        {"trace.overhead_s", "s"},
        {"trace.spans", "count"},
    };
    return table;
}

// ------------------------------------------------- run-level accounting

std::uint64_t
outcomeId(const std::string &workload, const rvp::StatSet &stats)
{
    std::uint64_t h = rvp::fnv1a(workload);
    for (const auto &[name, value] : stats.values()) {
        h = rvp::fnv1a(name, h);
        char bits[sizeof(double)];
        std::memcpy(bits, &value, sizeof(bits));
        h = rvp::fnv1a(std::string_view(bits, sizeof(bits)), h);
    }
    return h;
}

bool
resultSane(const rvp::ExperimentResult &r, std::string *why)
{
    if (r.failed) {
        *why = "run failed: " + r.error;
        return false;
    }
    if (r.degraded) {
        *why = "run degraded after a failed attempt";
        return false;
    }
    double eligible = r.stats.get("vp.eligible");
    double predictions = r.stats.get("vp.predictions");
    double correct = r.stats.get("vp.correct");
    if (!(correct <= predictions && predictions <= eligible)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "vp accounting: correct %.0f, predictions %.0f, "
                      "eligible %.0f",
                      correct, predictions, eligible);
        *why = buf;
        return false;
    }
    return true;
}

void
addSimCounts(const std::vector<RunRef> &runs,
             std::map<std::string, double> &counts)
{
    const std::pair<const char *, const char *> stats[] = {
        {"uarch.cycles", "core.cycles"},
        {"uarch.committed", "core.committed"},
        {"uarch.issued", "core.issued"},
        {"vp.eligible", "vp.eligible"},
        {"vp.predictions", "vp.predictions"},
        {"vp.correct", "vp.correct"},
    };
    for (const auto &[name, stat] : stats) {
        double sum = 0.0;
        for (const RunRef &run : runs)
            sum += run.result->stats.get(stat);
        counts[name] = sum;
    }
    std::set<std::uint64_t> distinct;
    for (const RunRef &run : runs)
        distinct.insert(outcomeId(*run.workload, run.result->stats));
    counts["sim.runs_simulated"] = static_cast<double>(runs.size());
    counts["sim.distinct_outcomes"] = static_cast<double>(distinct.size());
}

bool
needsProfile(const rvp::ExperimentConfig &c)
{
    return c.scheme == rvp::VpScheme::StaticRvp ||
           (c.scheme == rvp::VpScheme::DynamicRvp &&
            c.assist != rvp::AssistLevel::Same) ||
           c.realisticRealloc;
}

std::uint64_t
sourceSteps(const rvp::ExperimentResult &r, std::uint64_t minInsts)
{
    auto fetched = static_cast<std::uint64_t>(r.stats.get("core.fetched"));
    return std::min(fetched, minInsts);
}

double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
resetPeakRss()
{
    malloc_trim(0);
    // "5" resets the kernel's peak-RSS mark to the current RSS.
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMbOf(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string key;
    while (in >> key) {
        if (key == "VmHWM:") {
            double kb = 0.0;
            in >> kb;
            return kb / 1024.0;
        }
        in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    return 0.0;
}

std::string
runPath(const Options &opts, const std::string &leaf)
{
    return opts.runDir + "/" + opts.workload + "-" +
           std::to_string(getpid()) + "-" + leaf;
}

} // namespace bench
