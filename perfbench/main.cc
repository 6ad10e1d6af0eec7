/**
 * @file
 * perfbench: runs one workload for a seed and prints its metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans-out FILE] [--commit ID]
 *
 * Untraced (--trace 0): rounds of a serial pass (1 worker) and a
 * parallel pass (2 workers) repeat until S seconds have passed, at
 * least three rounds. setup_s is the median over the serial passes of
 * their summed System construction (replay workloads only). Host
 * interference only ever adds time, so the throughputs take the fastest
 * of the repeats: the parallel pass's fastest wall, and for the serial
 * pass each replay point's fastest time (a campaign pass is one
 * CampaignRunner::run, so its fastest wall). A fixed calibration kernel
 * runs before every pass; its fastest time against its reference time
 * gives the host's slowdown in this run, and the host-time metrics are
 * reported at the reference speed (the unscaled ones on a '#' line).
 * Traced (--trace 1): three pairs of untraced and traced serial passes
 * (the tracing overhead), a traced parallel pass and the per-layer
 * passes; per-layer metrics come from their spans, which are written
 * to --spans-out.
 *
 * Every pass is checked: a point fails when its output differs from the
 * first pass's, when replay retires fewer memory ops than its trace
 * holds, or when a Dvé scheme reads an SDC. The last stdout line is the
 * JSON result; earlier lines start with '#'.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <charconv>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "metrics.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

constexpr unsigned serialJobs = 1;
constexpr unsigned parallelJobs = 2;
/** Fewest rounds an untraced run makes. */
constexpr std::size_t minRounds = 3;
/** Calibration samples taken before each untraced pass. */
constexpr int calibrationSamples = 4;
/** The calibration kernel's fastest time on the 4-vCPU Xeon VM (GCC 12,
 *  Release) the bounds were measured on. Host-time metrics are scaled
 *  to this host speed. */
constexpr double referenceCalibrationSeconds = 0.010;
/** (untraced, traced) serial pass pairs the tracing overhead uses. */
constexpr std::size_t tracingPairs = 3;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spansOut;
    std::string commit = "unknown";
};

std::uint64_t
parseUnsigned(const char *flag, const char *s)
{
    std::uint64_t v = 0;
    const char *end = s + std::strlen(s);
    const auto [p, ec] = std::from_chars(s, end, v);
    if (ec != std::errc() || p != end || p == s)
        throw std::invalid_argument(std::string(flag)
                                    + " needs a whole number, got '" + s
                                    + "'");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument(flag + " needs a value");
        const char *val = argv[++i];
        if (flag == "--workload") {
            a.workload = val;
        } else if (flag == "--seed") {
            a.seed = parseUnsigned("--seed", val);
        } else if (flag == "--seconds") {
            const auto s = parseUnsigned("--seconds", val);
            if (s < 1 || s > 3600)
                throw std::invalid_argument("--seconds must be 1..3600");
            a.seconds = static_cast<double>(s);
        } else if (flag == "--trace") {
            const auto t = parseUnsigned("--trace", val);
            if (t > 1)
                throw std::invalid_argument("--trace must be 0 or 1");
            a.trace = t == 1;
        } else if (flag == "--spans-out") {
            a.spansOut = val;
        } else if (flag == "--commit") {
            a.commit = val;
        } else {
            throw std::invalid_argument("unknown flag '" + flag + "'");
        }
    }
    if (a.workload.empty())
        throw std::invalid_argument("--workload is required");
    return a;
}

std::string
num(double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

/** Failure accounting over the points of a workload. */
class Checker
{
  public:
    explicit Checker(std::size_t n) : ref_(n), failed_(n, 0) {}

    /** Compare a point's output with the first pass's. */
    void
    fingerprint(std::size_t i, const std::string &fp)
    {
        if (ref_[i].empty())
            ref_[i] = fp;
        else if (ref_[i] != fp)
            fail(i, true);
    }

    /** Compare a whole report with the first pass's; when it differs
     *  but no point did, every point is charged. */
    void
    report(const std::string &rep, std::size_t mismatches_before)
    {
        if (reportRef_.empty()) {
            reportRef_ = rep;
        } else if (reportRef_ != rep && mismatches_ == mismatches_before) {
            for (std::size_t i = 0; i < failed_.size(); ++i)
                fail(i, true);
        }
    }

    /** @p inconsistent: the simulator disagrees with itself (as
     *  opposed to a simulated outcome, such as an SDC, failing). */
    void
    fail(std::size_t i, bool inconsistent)
    {
        failed_[i] = 1;
        if (inconsistent) {
            consistent_ = false;
            ++mismatches_;
        }
    }

    std::size_t mismatches() const { return mismatches_; }
    std::size_t attempted() const { return failed_.size(); }
    std::size_t
    failed() const
    {
        std::size_t n = 0;
        for (const char f : failed_)
            n += f;
        return n;
    }
    bool consistent() const { return consistent_; }

  private:
    std::vector<std::string> ref_;
    std::string reportRef_;
    std::vector<char> failed_;
    std::size_t mismatches_ = 0;
    bool consistent_ = true;
};

/** One workload's passes plus their checks. */
class Runner
{
  public:
    explicit Runner(WorkloadSpec w) : w_(std::move(w)), check_(w_.points())
    {
        if (w_.kind == Kind::Replay)
            expected_ = traceMemOps(w_);
    }

    const WorkloadSpec &spec() const { return w_; }
    const Checker &checker() const { return check_; }

    /** Host timings of one pass. */
    struct Timing
    {
        double ops = 0.0;                 ///< simulated memory ops
        double wall = 0.0;                ///< seconds
        double setup = 0.0;               ///< sum of System construction
        std::vector<double> pointSeconds; ///< replay points only
        double mopsPerSecond() const { return ops / wall / 1e6; }
    };

    /** Run one checked pass. */
    Timing
    pass(unsigned jobs, SpanLog *log)
    {
        Timing out;
        if (w_.kind == Kind::Replay) {
            ReplayPass p = runReplayPass(w_, jobs, log);
            for (std::size_t i = 0; i < p.points.size(); ++i) {
                const auto &o = p.points[i];
                const std::uint64_t want = expected_[profileOf(w_, i)];
                check_.fingerprint(i, o.json);
                if (o.retiredOps < want)
                    check_.fail(i, true);
                if (isDve(w_.schemes[schemeOf(w_, i)]) && o.sdcReads > 0)
                    check_.fail(i, false);
                out.ops += static_cast<double>(want);
                out.setup += o.buildSeconds;
                out.pointSeconds.push_back(o.seconds);
            }
            out.wall = p.wall;
            if (replay_.points.empty())
                replay_ = std::move(p);
        } else {
            CampaignPass p = runCampaignPass(w_, jobs, log);
            const std::size_t before = check_.mismatches();
            const std::size_t per = w_.campaign.trials;
            for (std::size_t i = 0; i < p.trials.size(); ++i) {
                const auto &t = p.trials[i];
                check_.fingerprint(i, trialFingerprint(t));
                if (isDve(w_.campaignSchemes[i / per]) && t.sdc > 0)
                    check_.fail(i, false);
                out.ops += static_cast<double>(t.reads + t.writes);
            }
            if (!p.report.empty())
                check_.report(p.report, before);
            out.wall = p.wall;
            if (campaign_.trials.empty())
                campaign_ = std::move(p);
        }
        return out;
    }

    /** First pass's outputs (the deterministic metrics' source). */
    const ReplayPass &firstReplay() const { return replay_; }
    const CampaignPass &firstCampaign() const { return campaign_; }

  private:
    WorkloadSpec w_;
    Checker check_;
    std::vector<std::uint64_t> expected_;
    ReplayPass replay_;
    CampaignPass campaign_;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
durationMedianMs(const std::vector<Span> &spans)
{
    std::vector<double> d;
    for (const auto &s : spans)
        d.push_back(1e3 * (s.end - s.start));
    return median(d);
}

double
durationSum(const std::vector<Span> &spans)
{
    double sum = 0.0;
    for (const auto &s : spans)
        sum += s.end - s.start;
    return sum;
}

void
printSummary(const char *what, const Summary &s, const char *unit)
{
    std::printf("# %s: n=%zu p50=%s p%s=%s %s\n", what, s.count,
                num(s.p50).c_str(), num(s.tailPct).c_str(),
                num(s.tail).c_str(), unit);
}

void
printDeterministic(const Runner &r)
{
    const auto &w = r.spec();
    if (w.kind == Kind::Replay) {
        const auto sp = fig6Speedups(w, r.firstReplay());
        std::printf("# simulated geomean speedup vs numa:");
        for (std::size_t s = 1; s < w.schemes.size(); ++s)
            std::printf(" %s=%s", dve::schemeKindName(w.schemes[s]),
                        num(sp[s - 1]).c_str());
        std::printf("\n");
        if (!w.paper.empty())
            std::printf("# fig6_gap_pct=%s\n",
                        num(fig6GapOf(w, r.firstReplay())).c_str());
    } else {
        std::printf("# dve_unrecovered_ppm=%s\n",
                    num(dvePpmOf(w, r.firstCampaign())).c_str());
    }
}

std::vector<Metric>
endToEnd(Runner &r, const Args &a)
{
    const bool replay = r.spec().kind == Kind::Replay;
    std::vector<double> setup, serial, parallel, serialWall, parallelWall;
    std::vector<double> cal;
    std::vector<std::vector<double>> pointSeconds;
    double ops = 0.0;
    const auto calibrate = [&] {
        for (int k = 0; k < calibrationSamples; ++k)
            cal.push_back(calibrationSeconds());
    };
    const auto t0 = Clock::now();
    do {
        calibrate();
        const auto s = r.pass(serialJobs, nullptr);
        calibrate();
        const auto p = r.pass(parallelJobs, nullptr);
        ops = s.ops;
        serial.push_back(s.mopsPerSecond());
        parallel.push_back(p.mopsPerSecond());
        setup.push_back(s.setup);
        serialWall.push_back(s.wall);
        parallelWall.push_back(p.wall);
        pointSeconds.push_back(s.pointSeconds);
    } while (serial.size() < minRounds || secondsSince(t0) < a.seconds);

    if (replay) {
        const Summary st = summarize(setup);
        std::printf("# setup_repeats=%zu setup_s: fastest=%s median=%s "
                    "p%s=%s\n",
                    setup.size(), num(fastest(setup)).c_str(),
                    num(median(setup)).c_str(), num(st.tailPct).c_str(),
                    num(st.tail).c_str());
    }
    std::printf("# rounds=%zu serial_mops_per_s=[", serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        std::printf("%s%s", i ? ", " : "", num(serial[i]).c_str());
    std::printf("] parallel_mops_per_s=[");
    for (std::size_t i = 0; i < parallel.size(); ++i)
        std::printf("%s%s", i ? ", " : "", num(parallel[i]).c_str());
    std::printf("]\n");
    printDeterministic(r);

    const double serialSeconds =
        replay ? sumOfFastest(pointSeconds) : fastest(serialWall);
    const double sim = ops / serialSeconds / 1e6;
    const double par = ops / fastest(parallelWall) / 1e6;
    const double host =
        hostSlowdown(fastest(cal), referenceCalibrationSeconds);
    std::printf("# unscaled: sim_mops_per_s=%s par_mops_per_s=%s",
                num(sim).c_str(), num(par).c_str());
    if (replay)
        std::printf(" setup_s=%s", num(median(setup)).c_str());
    std::printf(" calibration_fastest_s=%s host_slowdown=%s\n",
                num(fastest(cal)).c_str(), num(host).c_str());

    std::vector<Metric> out = {{"sim_mops_per_s", sim * host, "Mops/s"},
                               {"par_mops_per_s", par * host, "Mops/s"}};
    if (replay)
        out.push_back({"setup_s", median(setup) / host, "s"});
    out.push_back({"peak_rss_mb", peakRssMiB(), "MiB"});
    return out;
}

/** A per-layer metric, its unit, and the workload kind it is reported
 *  on (every kind when empty). */
struct LayerMetric
{
    const char *name;
    const char *unit;
    std::optional<Kind> kind;
};

/** Every per-layer metric. BENCHMARK.json lists the replay and
 *  every-kind ones, in this order; the campaign ones are reported when
 *  fault-campaign is run by name. */
const std::vector<LayerMetric> perLayerMetrics = {
    {"sys.build_ms_p50", "ms", Kind::Replay},
    {"trace.generate_ms_p50", "ms", Kind::Replay},
    {"trace.gen_mops_per_s", "Mops/s", Kind::Replay},
    {"cpu.replay_ns_per_op", "ns", Kind::Replay},
    {"cpu.overhead_share", "ratio", Kind::Replay},
    {"coherence.access_ns_p50", "ns", Kind::Replay},
    {"coherence.access_ns_tail", "ns", Kind::Replay},
    {"cache.l1_hit_ratio", "ratio", Kind::Replay},
    {"cache.llc_hit_ratio", "ratio", Kind::Replay},
    {"core.replica_read_share", "ratio", Kind::Replay},
    {"core.rm_pushes_per_kop", "count/kop", Kind::Replay},
    {"core.permission_pulls_per_kop", "count/kop", Kind::Replay},
    {"noc.inter_socket_bytes_per_op", "B/op", Kind::Replay},
    {"noc.hop_ticks_p50", "tick", Kind::Replay},
    {"noc.hop_ticks_tail", "tick", Kind::Replay},
    {"mem.read_ticks_p50", "tick", Kind::Replay},
    {"mem.read_ticks_tail", "tick", Kind::Replay},
    {"dram.activates_per_op", "count/op", Kind::Replay},
    {"fault.base_trial_ms_p50", "ms", Kind::Campaign},
    {"fault.base_trial_ms_tail", "ms", Kind::Campaign},
    {"fault.dve_trial_ms_p50", "ms", Kind::Campaign},
    {"fault.dve_trial_ms_tail", "ms", Kind::Campaign},
    {"fault.dve_cost_x", "x", Kind::Campaign},
    {"fault.replica_recoveries", "count", Kind::Campaign},
    {"fault.repair_retries", "count", Kind::Campaign},
    {"fault.re_replications", "count", Kind::Campaign},
    {"fault.degraded_lines_end", "count", Kind::Campaign},
    {"parallel.speedup", "x", std::nullopt},
    {"parallel.busy_share", "ratio", std::nullopt},
    {"parallel.queue_wait_ms_p50", "ms", std::nullopt},
    {"paper.fig6_gap_pct", "%", Kind::Replay},
    {"paper.dve_unrecovered_ppm", "ppm", Kind::Campaign},
    {"tracing.sim_mops_per_s", "Mops/s", std::nullopt},
    {"tracing.overhead_pct", "%", std::nullopt},
};

void
writeSpans(const std::string &path,
           const std::vector<std::pair<const char *, const SpanLog *>> &logs)
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write " + path);
    for (const auto &[pass, log] : logs) {
        for (const auto &s : log->all()) {
            os << "{\"pass\": \"" << pass << "\", \"id\": " << s.id
               << ", \"parent\": " << s.parent << ", \"point\": " << s.point
               << ", \"name\": \"" << s.name << "\", \"start_s\": "
               << num(s.start) << ", \"end_s\": " << num(s.end) << "}\n";
        }
    }
}

std::vector<Metric>
perLayer(Runner &r, const Args &a)
{
    const auto &w = r.spec();
    const bool replay = w.kind == Kind::Replay;
    std::map<std::string, double> m;
    for (const auto &lm : perLayerMetrics)
        m[lm.name] = 0.0;

    // Alternate untraced and traced serial passes and compare their
    // fastest times, so that host bursts do not decide the overhead.
    SpanLog serialLog, parallelLog, layerLog;
    std::vector<std::vector<double>> untracedPoints, tracedPoints;
    std::vector<double> untracedWall, tracedWall;
    double ops = 0.0;
    for (std::size_t k = 0; k < tracingPairs; ++k) {
        SpanLog discard;
        const auto u = r.pass(serialJobs, nullptr);
        const auto t = r.pass(serialJobs, k == 0 ? &serialLog : &discard);
        ops = u.ops;
        untracedPoints.push_back(u.pointSeconds);
        tracedPoints.push_back(t.pointSeconds);
        untracedWall.push_back(u.wall);
        tracedWall.push_back(t.wall);
    }
    const auto mops = [&](const auto &points, const auto &walls) {
        return ops / (replay ? sumOfFastest(points) : fastest(walls)) / 1e6;
    };
    const double untraced = mops(untracedPoints, untracedWall);
    const double traced = mops(tracedPoints, tracedWall);
    r.pass(parallelJobs, &parallelLog);
    const auto serialSpan = serialLog.named("pass").at(0);
    const auto passSpan = parallelLog.named("pass").at(0);
    const double serialWall = serialSpan.end - serialSpan.start;
    const double parallelWall = passSpan.end - passSpan.start;

    m["tracing.sim_mops_per_s"] = traced;
    m["tracing.overhead_pct"] = 100.0 * (untraced - traced) / untraced;

    const char *taskName = replay ? "pass.task" : "fault.trial";
    const auto tasks = parallelLog.named(taskName);
    std::vector<double> waits;
    for (const auto &s : tasks)
        waits.push_back(1e3 * (s.start - passSpan.start));
    m["parallel.speedup"] = serialWall / parallelWall;
    m["parallel.busy_share"] =
        busyShare(durationSum(tasks), parallelJobs, parallelWall);
    m["parallel.queue_wait_ms_p50"] = median(waits);

    m["paper.fig6_gap_pct"] = fig6GapOf(w, r.firstReplay());
    m["paper.dve_unrecovered_ppm"] = dvePpmOf(w, r.firstCampaign());

    if (replay) {
        m["sys.build_ms_p50"] = durationMedianMs(serialLog.named("sys.build"));

        const auto traces = traceGenLayer(w, layerLog);
        const auto gen = layerLog.named("trace.generate");
        double genOps = 0, replayOps = 0;
        for (std::size_t i = 0; i < traces.size(); ++i) {
            const auto ops = static_cast<double>(dve::totalMemOps(traces[i]));
            genOps += ops;
            replayOps += ops * static_cast<double>(w.schemes.size());
        }
        m["trace.generate_ms_p50"] = durationMedianMs(gen);
        m["trace.gen_mops_per_s"] = genOps / durationSum(gen) / 1e6;

        replayLayer(w, traces, layerLog);
        const double replaySeconds =
            durationSum(layerLog.named("cpu.replay"));
        const AccessLayer access = accessLayer(w, traces, layerLog);
        m["cpu.replay_ns_per_op"] = 1e9 * replaySeconds / replayOps;
        m["cpu.overhead_share"] = 1.0 - access.seconds / replaySeconds;
        const Summary acc = summarize(access.nanos);
        printSummary("coherence.access_ns", acc, "ns");
        m["coherence.access_ns_p50"] = acc.p50;
        m["coherence.access_ns_tail"] = acc.tail;

        double l1 = 0, llcHit = 0, llcMiss = 0, retired = 0, act = 0;
        double roiOps = 0, bytes = 0, dveMiss = 0, dveOps = 0;
        double replicaReads = 0, pushes = 0, pulls = 0;
        dve::Histogram hop, memRead;
        const auto &pts = r.firstReplay().points;
        for (std::size_t i = 0; i < pts.size(); ++i) {
            const auto &o = pts[i];
            l1 += static_cast<double>(o.l1Hits);
            llcHit += static_cast<double>(o.llcHits);
            llcMiss += static_cast<double>(o.llcMisses);
            retired += static_cast<double>(o.retiredOps);
            act += static_cast<double>(o.activates);
            roiOps += static_cast<double>(o.result.memOps);
            bytes += static_cast<double>(o.result.interSocketBytes);
            hop.merge(o.hopTicks);
            memRead.merge(o.memReadTicks);
            if (isDve(w.schemes[schemeOf(w, i)])) {
                dveMiss += static_cast<double>(o.result.llcMisses);
                dveOps += static_cast<double>(o.result.memOps);
                replicaReads += o.result.extra.at("replica_local_reads");
                pushes += o.result.extra.at("rm_pushes");
                pulls += o.result.extra.at("permission_pulls");
            }
        }
        m["cache.l1_hit_ratio"] = l1 / retired;
        m["cache.llc_hit_ratio"] = llcHit / (llcHit + llcMiss);
        m["dram.activates_per_op"] = act / retired;
        m["noc.inter_socket_bytes_per_op"] = bytes / roiOps;
        if (dveOps > 0) {
            m["core.replica_read_share"] =
                dveMiss > 0 ? replicaReads / dveMiss : 0.0;
            m["core.rm_pushes_per_kop"] = 1e3 * pushes / dveOps;
            m["core.permission_pulls_per_kop"] = 1e3 * pulls / dveOps;
        }
        const Summary h = summarizeHistogram(hop);
        printSummary("noc.hop_ticks", h, "ticks");
        m["noc.hop_ticks_p50"] = h.p50;
        m["noc.hop_ticks_tail"] = h.tail;
        const Summary mr = summarizeHistogram(memRead);
        printSummary("mem.read_ticks", mr, "ticks");
        m["mem.read_ticks_p50"] = mr.p50;
        m["mem.read_ticks_tail"] = mr.tail;
    } else {
        const std::size_t per = w.campaign.trials;
        std::vector<double> base, dveMs, detectMs;
        for (const auto &s : serialLog.named("fault.trial")) {
            const auto scheme = w.campaignSchemes[s.point / per];
            const double ms = 1e3 * (s.end - s.start);
            (isDve(scheme) ? dveMs : base).push_back(ms);
            if (scheme == dve::CampaignScheme::BaselineDetect)
                detectMs.push_back(ms);
        }
        const Summary b = summarize(base), d = summarize(dveMs);
        printSummary("fault.base_trial_ms", b, "ms");
        printSummary("fault.dve_trial_ms", d, "ms");
        m["fault.base_trial_ms_p50"] = b.p50;
        m["fault.base_trial_ms_tail"] = b.tail;
        m["fault.dve_trial_ms_p50"] = d.p50;
        m["fault.dve_trial_ms_tail"] = d.tail;
        const auto mean = [](const std::vector<double> &v) {
            double s = 0;
            for (const double x : v)
                s += x;
            return s / static_cast<double>(v.size());
        };
        m["fault.dve_cost_x"] = mean(dveMs) / mean(detectMs);
        const auto &trials = r.firstCampaign().trials;
        for (std::size_t i = 0; i < trials.size(); ++i) {
            if (!isDve(w.campaignSchemes[i / per]))
                continue;
            const auto &t = trials[i];
            m["fault.replica_recoveries"] +=
                static_cast<double>(t.replicaRecoveries);
            m["fault.repair_retries"] += static_cast<double>(t.repairRetries);
            m["fault.re_replications"] +=
                static_cast<double>(t.reReplications);
            m["fault.degraded_lines_end"] +=
                static_cast<double>(t.degradedLinesEnd);
        }
    }
    printDeterministic(r);

    if (!a.spansOut.empty())
        writeSpans(a.spansOut, {{"serial", &serialLog},
                                {"parallel", &parallelLog},
                                {"layers", &layerLog}});

    if (m.size() != perLayerMetrics.size())
        throw std::logic_error("a per-layer metric is not in perLayerMetrics");
    std::vector<Metric> out;
    for (const auto &lm : perLayerMetrics)
        if (!lm.kind || *lm.kind == w.kind)
            out.push_back({lm.name, m.at(lm.name), lm.unit});
    return out;
}

} // namespace

/**
 * Settle the allocator before anything is timed. glibc's default mmap
 * threshold adapts to the largest block freed so far, and its heap trim
 * depends on what happens to sit at the top of the heap, so whether a
 * System's multi-MB cache arrays are reused heap or fresh page-faulted
 * mappings would depend on allocation history: one stdout buffer in the
 * wrong place moves fig6 set-up fourfold. Serving every block below
 * 32 MiB from a heap that is never trimmed, after one System has been
 * built and freed, makes every later System reuse memory: set-up times
 * the simulator's own initialisation, not the kernel zeroing pages.
 */
void
settleAllocator()
{
#ifdef __GLIBC__
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, INT_MAX);
#endif
    dve::SystemConfig cfg;
    cfg.scheme = dve::SchemeKind::DveDynamic;
    const dve::System sys(cfg);
}

int
main(int argc, char **argv)
{
    try {
        settleAllocator();
        const Args a = parseArgs(argc, argv);
        Runner r(makeWorkload(a.workload, a.seed));
        const auto &w = r.spec();
        std::printf("# run {\"workload\": \"%s\", \"seed\": %llu, "
                    "\"seconds\": %s, \"trace\": %d, \"nproc\": %u, "
                    "\"build_type\": \"%s\", \"trace_scale\": %s, "
                    "\"serial_jobs\": %u, \"parallel_jobs\": %u, "
                    "\"points\": %zu, \"commit\": \"%s\"}\n",
                    w.name.c_str(), static_cast<unsigned long long>(a.seed),
                    num(a.seconds).c_str(), a.trace ? 1 : 0,
                    std::thread::hardware_concurrency(),
                    PERFBENCH_BUILD_TYPE,
                    num(w.kind == Kind::Replay ? w.scale : 0.0).c_str(),
                    serialJobs, parallelJobs, w.points(), a.commit.c_str());

        const auto metrics = a.trace ? perLayer(r, a) : endToEnd(r, a);

        const Checker &c = r.checker();
        std::printf("# attempted=%zu failed=%zu consistent=%s\n",
                    c.attempted(), c.failed(),
                    c.consistent() ? "yes" : "no");
        std::string out = "{\"correct\": ";
        out += c.consistent() ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(c.attempted());
        out += ", \"failed\": " + std::to_string(c.failed());
        out += ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            out += (i ? ", \"" : "\"") + metrics[i].name
                   + "\": {\"value\": " + num(metrics[i].value)
                   + ", \"unit\": \"" + metrics[i].unit + "\"}";
        }
        out += "}}";
        std::printf("%s\n", out.c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
