#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/parallel.hh"
#include "common/types.hh"
#include "trace/trace.hh"

namespace perfbench
{

namespace
{

/** Fig 6 runs shrink the Table III traces to this share of their
 *  length; the gap at this scale is what the docs quote. */
constexpr double fig6Scale = 0.05;

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

dve::SystemConfig
systemConfig(dve::SchemeKind k)
{
    dve::SystemConfig cfg;
    cfg.scheme = k;
    return cfg;
}

/** parallelMap under a "pass" span, storing the pass's wall time. */
template <typename Fn>
auto
timedPass(std::size_t n, unsigned jobs, SpanLog *log, double &wall, Fn &&fn)
{
    const auto t0 = Clock::now();
    ScopedSpan pass(log, "pass", 0, 0);
    auto out = dve::parallelMap(
        n, [&](std::size_t i) { return fn(pass.id(), i); }, jobs);
    wall = secondsSince(t0);
    return out;
}

/** The benchmark-owned profile whose footprint fits the LLC. */
dve::WorkloadProfile
cacheResidentProfile()
{
    dve::WorkloadProfile p;
    p.name = "cache-resident";
    p.suite = "perfbench";
    // 256 KiB shared + 16 x 96 KiB private = 1.75 MiB, well inside one
    // 8 MB LLC but larger than a 64 KiB L1, so L1 misses keep the LLC
    // hit path busy. 60k ops per thread make compulsory misses a few
    // percent, and rare shared writes keep coherence misses rarer
    // still: the LLC hit ratio is about 0.92 over the whole run (the
    // Table III profiles sit below 0.01 in this model).
    p.memOpsPerThread = 60000;
    p.computePerMem = 4.0;
    p.sharedBytes = 256ULL << 10;
    p.privateBytes = 96ULL << 10;
    p.sharedFraction = 0.3;
    p.privateWriteFraction = 0.3;
    p.sharedWriteFraction = 0.002;
    p.meanRunLength = 2.0;
    return p;
}

} // namespace

std::uint32_t
SpanLog::open(const char *name, std::uint32_t parent, std::uint32_t point)
{
    const double t = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.point = point;
    s.name = name;
    s.start = t;
    s.end = t;
    spans_.push_back(s);
    return s.id;
}

void
SpanLog::close(std::uint32_t id)
{
    const double t = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(id - 1).end = t;
}

std::vector<Span>
SpanLog::named(const char *name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> out;
    for (const auto &s : spans_)
        if (std::string_view(s.name) == name)
            out.push_back(s);
    return out;
}

std::vector<Span>
SpanLog::all() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::size_t
WorkloadSpec::points() const
{
    return kind == Kind::Replay ? profiles.size() * schemes.size()
                                : campaignSchemes.size() * campaign.trials;
}

Summary
summarizeHistogram(const dve::Histogram &h)
{
    Summary s;
    s.count = h.count();
    if (s.count == 0)
        return s;
    s.tailPct = tailPercentile(s.count);
    auto at = [&](double pct) {
        const auto rank = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(std::ceil(
                   pct / 100.0 * static_cast<double>(s.count) - 1e-9)));
        std::uint64_t cum = 0;
        for (unsigned i = 0; i < dve::Histogram::numBuckets; ++i) {
            cum += h.bucketCount(i);
            if (cum >= rank)
                return static_cast<double>(dve::Histogram::bucketFloor(i));
        }
        return 0.0;
    };
    s.p50 = at(50);
    s.tail = at(s.tailPct);
    return s;
}

bool
isDve(dve::SchemeKind k)
{
    return k == dve::SchemeKind::DveAllow || k == dve::SchemeKind::DveDeny
           || k == dve::SchemeKind::DveDynamic;
}

bool
isDve(dve::CampaignScheme s)
{
    return s == dve::CampaignScheme::DveAllow
           || s == dve::CampaignScheme::DveDeny;
}

WorkloadSpec
makeWorkload(const std::string &name, std::uint64_t seed)
{
    using dve::SchemeKind;
    WorkloadSpec w;
    w.name = name;
    const std::vector<SchemeKind> fig6Schemes = {
        SchemeKind::BaselineNuma, SchemeKind::DveAllow, SchemeKind::DveDeny,
        SchemeKind::DveDynamic};
    const auto &table = dve::table3Workloads();

    if (name == "fig6-top10" || name == "fig6-bottom10") {
        const bool top = name == "fig6-top10";
        for (std::size_t i = 0; i < 10; ++i) {
            dve::WorkloadProfile p = table[top ? i : 10 + i];
            p.seed = mixSeed(seed, top ? i : 10 + i);
            w.profiles.push_back(p);
        }
        w.schemes = fig6Schemes;
        w.scale = fig6Scale;
        // Paper geomeans (allow, deny, dynamic): top-10 as reported;
        // bottom-10 derived exactly from all-20 and top-10 geomeans as
        // all^2 / top10.
        w.paper = top ? std::vector<double>{1.17, 1.28, 1.29}
                      : std::vector<double>{1.12 * 1.12 / 1.17,
                                            1.15 * 1.15 / 1.28,
                                            1.18 * 1.18 / 1.29};
    } else if (name == "cache-resident") {
        dve::WorkloadProfile p = cacheResidentProfile();
        p.seed = mixSeed(seed, table.size());
        w.profiles.push_back(p);
        w.schemes = {SchemeKind::BaselineNuma, SchemeKind::DveDeny};
        w.scale = 1.0;
    } else if (name == "fault-campaign") {
        w.kind = Kind::Campaign;
        w.campaign = dve::CampaignConfig::quickDefaults();
        w.campaign.opsPerTrial = 3000;
        w.campaign.trials = 100;
        w.campaign.seed = seed;
        w.campaign.jobs = 1; // every pass sets its own worker count
        w.campaignSchemes = {dve::CampaignScheme::BaselineNone,
                             dve::CampaignScheme::BaselineSecDed,
                             dve::CampaignScheme::BaselineDetect,
                             dve::CampaignScheme::DveAllow,
                             dve::CampaignScheme::DveDeny};
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

std::vector<std::uint64_t>
traceMemOps(const WorkloadSpec &w)
{
    const unsigned threads = dve::SystemConfig{}.threads;
    std::vector<std::uint64_t> out;
    for (const auto &p : w.profiles)
        out.push_back(
            dve::totalMemOps(dve::generateTraces(p, threads, w.scale)));
    return out;
}

ReplayPass
runReplayPass(const WorkloadSpec &w, unsigned jobs, SpanLog *log)
{
    ReplayPass pass;
    pass.points = timedPass(
        w.points(), jobs, log, pass.wall,
        [&](std::uint32_t parent, std::size_t i) {
            const auto point = static_cast<std::uint32_t>(i);
            const auto t0 = Clock::now();
            ScopedSpan task(log, "pass.task", parent, point);
            ReplayOutcome o;
            std::optional<dve::System> sys;
            {
                ScopedSpan s(log, "sys.build", task.id(), point);
                sys.emplace(systemConfig(w.schemes[schemeOf(w, i)]));
            }
            o.buildSeconds = secondsSince(t0);
            {
                ScopedSpan s(log, "sys.run", task.id(), point);
                o.result = sys->run(w.profiles[profileOf(w, i)], w.scale);
            }
            o.seconds = secondsSince(t0);
            o.json = o.result.toJson();
            auto &eng = sys->engine();
            o.retiredOps = static_cast<std::uint64_t>(
                eng.stats().get("reads") + eng.stats().get("writes"));
            o.sdcReads = eng.readOutcomeCount(dve::ReadOutcome::Sdc);
            o.l1Hits = eng.l1Hits();
            o.llcHits = eng.llcHits();
            o.llcMisses = eng.llcMisses();
            o.hopTicks = eng.interconnect().hopLatency();
            for (unsigned s = 0; s < eng.config().sockets; ++s) {
                auto &mc = eng.memory(s);
                o.memReadTicks.merge(mc.readLatency());
                for (unsigned c = 0; c < mc.copies(); ++c)
                    o.activates += mc.dram(c).activates();
            }
            return o;
        });
    return pass;
}

CampaignPass
runCampaignPass(const WorkloadSpec &w, unsigned jobs, SpanLog *log)
{
    dve::CampaignConfig cfg = w.campaign;
    cfg.jobs = jobs;
    const dve::CampaignRunner runner(cfg);
    CampaignPass pass;
    if (!log) {
        const auto t0 = Clock::now();
        dve::CampaignReport rep = runner.run(w.campaignSchemes);
        pass.wall = secondsSince(t0);
        std::ostringstream os;
        dve::writeJsonReport(rep, os);
        pass.report = os.str();
        for (auto &sr : rep.schemes)
            for (auto &t : sr.trials)
                pass.trials.push_back(std::move(t));
        return pass;
    }
    const std::size_t per = w.campaign.trials;
    pass.trials = timedPass(
        w.points(), jobs, log, pass.wall,
        [&](std::uint32_t parent, std::size_t i) {
            ScopedSpan s(log, "fault.trial", parent,
                         static_cast<std::uint32_t>(i));
            return runner.runTrial(w.campaignSchemes[i / per],
                                   static_cast<unsigned>(i % per));
        });
    return pass;
}

double
calibrationSeconds()
{
    static std::vector<std::uint64_t> table(std::size_t{1} << 19);
    static std::uint64_t sink = 0;
    const std::uint64_t mask = table.size() - 1;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL, sum = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < 2000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum += table[x & mask];
        table[(x >> 20) & mask] += sum;
    }
    const double dt = secondsSince(t0);
    sink += sum; // keeps the loop from being optimised away
    return dt;
}

std::string
trialFingerprint(const dve::TrialStats &t)
{
    const dve::LatencyDigest lat = dve::digestOf(t.reqLatency);
    std::uint64_t recoverySum = 0;
    for (const dve::Tick l : t.recoveryLatencies)
        recoverySum += l;
    std::ostringstream os;
    for (const std::uint64_t v :
         {t.reads, t.writes, t.clean, t.corrected, t.due, t.sdc,
          t.faultArrivals, t.replicaRecoveries, t.repairedCopies,
          t.reReplications, t.retiredPages, t.repairRetries,
          t.degradedEvents, t.degradedLinesEnd, t.scrubCorrected,
          t.unavailableRequests, t.engineSeed, t.faultSeed, t.workloadSeed,
          t.faultLogDigest, lat.count, lat.p50, lat.p99, lat.max,
          static_cast<std::uint64_t>(t.recoveryLatencies.size()),
          recoverySum})
        os << v << ' ';
    os.precision(17);
    os << t.degradedResidencyTicks;
    return os.str();
}

namespace
{

/** ROI times of a replay pass: [scheme][profile]. */
std::vector<std::vector<double>>
roiTimes(const WorkloadSpec &w, const ReplayPass &p)
{
    std::vector<std::vector<double>> out(w.schemes.size());
    for (std::size_t i = 0; i < p.points.size(); ++i)
        out[schemeOf(w, i)].push_back(
            static_cast<double>(p.points[i].result.roiTime));
    return out;
}

} // namespace

std::vector<double>
fig6Speedups(const WorkloadSpec &w, const ReplayPass &p)
{
    const auto roi = roiTimes(w, p);
    std::vector<double> out;
    for (std::size_t s = 1; s < roi.size(); ++s) {
        std::vector<double> v;
        for (std::size_t k = 0; k < roi[0].size(); ++k)
            v.push_back(roi[0][k] / roi[s][k]);
        out.push_back(geomean(v));
    }
    return out;
}

double
fig6GapOf(const WorkloadSpec &w, const ReplayPass &p)
{
    if (w.paper.empty())
        return 0.0;
    auto roi = roiTimes(w, p);
    const std::vector<double> numa = roi[0];
    roi.erase(roi.begin());
    return fig6GapPct(numa, roi, w.paper);
}

double
dvePpmOf(const WorkloadSpec &w, const CampaignPass &p)
{
    std::uint64_t due = 0, sdc = 0, accesses = 0;
    for (std::size_t i = 0; i < p.trials.size(); ++i) {
        if (!isDve(w.campaignSchemes[i / w.campaign.trials]))
            continue;
        const auto &t = p.trials[i];
        due += t.due;
        sdc += t.sdc;
        accesses += t.reads + t.writes;
    }
    return unrecoveredPpm(due, sdc, accesses);
}

std::vector<dve::ThreadTraces>
traceGenLayer(const WorkloadSpec &w, SpanLog &log)
{
    const unsigned threads = dve::SystemConfig{}.threads;
    std::vector<dve::ThreadTraces> out;
    for (std::size_t i = 0; i < w.profiles.size(); ++i) {
        ScopedSpan s(&log, "trace.generate", 0,
                     static_cast<std::uint32_t>(i));
        out.push_back(dve::generateTraces(w.profiles[i], threads, w.scale));
    }
    return out;
}

void
replayLayer(const WorkloadSpec &w,
            const std::vector<dve::ThreadTraces> &traces, SpanLog &log)
{
    const double warmup = dve::SystemConfig{}.warmupFraction;
    for (std::size_t i = 0; i < w.points(); ++i) {
        dve::System sys(systemConfig(w.schemes[schemeOf(w, i)]));
        dve::ReplayEngine replay(sys.engine(), warmup);
        ScopedSpan span(&log, "cpu.replay", 0, static_cast<std::uint32_t>(i));
        replay.run(traces[profileOf(w, i)]);
    }
}

namespace
{

/** Median cost of one steady_clock::now() pair, removed from each
 *  per-access sample. */
double
timerOverheadNs()
{
    std::vector<double> d;
    for (int i = 0; i < 2001; ++i) {
        const auto a = Clock::now();
        const auto b = Clock::now();
        d.push_back(std::chrono::duration<double, std::nano>(b - a).count());
    }
    std::nth_element(d.begin(), d.begin() + 1000, d.end());
    return d[1000];
}

void
driveInTimeOrder(dve::CoherenceEngine &eng, const dve::ThreadTraces &traces,
                 double overhead_ns, std::vector<double> &nanos)
{
    constexpr dve::Cycles threadApiCycles = 100;
    const dve::ClockDomain clk = eng.config().coreClock();
    const unsigned cps = eng.config().coresPerSocket;
    std::vector<std::size_t> pc(traces.size(), 0);
    std::vector<std::uint64_t> done(traces.size(), 0);
    using Entry = std::pair<dve::Tick, unsigned>; // (thread time, tid)
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ready;
    for (unsigned t = 0; t < traces.size(); ++t)
        if (!traces[t].empty())
            ready.push({0, t});
    while (!ready.empty()) {
        auto [now, tid] = ready.top();
        ready.pop();
        const dve::TraceOp &op = traces[tid][pc[tid]];
        switch (op.type) {
          case dve::OpType::Read:
          case dve::OpType::Write: {
            const std::uint64_t token =
                (std::uint64_t(tid) << 48) | ++done[tid];
            const auto a = Clock::now();
            const auto r = eng.access(tid / cps, tid % cps, op.addr,
                                      op.type == dve::OpType::Write, token,
                                      now);
            const auto b = Clock::now();
            nanos.push_back(std::max(
                0.0,
                std::chrono::duration<double, std::nano>(b - a).count()
                    - overhead_ns));
            now = r.done;
            break;
          }
          case dve::OpType::Compute:
            now += clk.cyclesToTicks(op.arg);
            break;
          default:
            now += clk.cyclesToTicks(threadApiCycles);
            break;
        }
        if (++pc[tid] < traces[tid].size())
            ready.push({now, tid});
    }
}

} // namespace

AccessLayer
accessLayer(const WorkloadSpec &w,
            const std::vector<dve::ThreadTraces> &traces, SpanLog &log)
{
    const double overhead = timerOverheadNs();
    AccessLayer out;
    for (std::size_t i = 0; i < w.points(); ++i) {
        dve::System sys(systemConfig(w.schemes[schemeOf(w, i)]));
        ScopedSpan span(&log, "coherence.direct_drive", 0,
                        static_cast<std::uint32_t>(i));
        driveInTimeOrder(sys.engine(), traces[profileOf(w, i)], overhead,
                         out.nanos);
    }
    for (const double n : out.nanos)
        out.seconds += 1e-9 * n;
    return out;
}

} // namespace perfbench
