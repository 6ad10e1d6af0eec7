/**
 * @file
 * The benchmark's workloads and the passes that run them.
 *
 * A workload is a list of independent operations ("points"): a
 * (profile, scheme) replay on a fresh System, or one (scheme, trial) of
 * a fault campaign. A pass runs every point of a workload with an
 * explicit worker count -- replay points through dve::parallelMap, a
 * campaign through CampaignRunner::run with CampaignConfig::jobs -- and
 * returns the per-point outcome plus host timings. Spans are recorded
 * only when a SpanLog is given, and only around the public library
 * calls made here.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "fault/campaign.hh"
#include "metrics.hh"
#include "sys/system.hh"
#include "trace/workloads.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One timed interval; parent 0 means a root span. */
struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::uint32_t point = 0;
    const char *name = "";
    double start = 0.0; ///< seconds since the log's origin
    double end = 0.0;
};

/** In-memory span store shared by the worker threads of a pass. */
class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    /** Open a span now; returns its id (ids start at 1). */
    std::uint32_t open(const char *name, std::uint32_t parent,
                       std::uint32_t point);
    void close(std::uint32_t id);

    /** Spans named @p name, in opening order. */
    std::vector<Span> named(const char *name) const;
    std::vector<Span> all() const;

  private:
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_; ///< guarded by mutex_; index = id - 1
};

/** RAII span that records nothing when the log is null. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name, std::uint32_t parent,
               std::uint32_t point)
        : log_(log), id_(log ? log->open(name, parent, point) : 0)
    {}
    ~ScopedSpan()
    {
        if (log_)
            log_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint32_t id() const { return id_; }

  private:
    SpanLog *log_;
    std::uint32_t id_;
};

enum class Kind
{
    Replay,
    Campaign,
};

struct WorkloadSpec
{
    std::string name;
    Kind kind = Kind::Replay;

    // Replay workloads: every profile under every scheme; schemes[0] is
    // the NUMA baseline the speedups are taken against.
    std::vector<dve::WorkloadProfile> profiles;
    std::vector<dve::SchemeKind> schemes;
    double scale = 1.0;
    /** Paper geomean speedup per non-baseline scheme; empty when the
     *  workload has no paper reference. */
    std::vector<double> paper;

    // Campaign workload: every scheme x trial of one campaign.
    dve::CampaignConfig campaign;
    std::vector<dve::CampaignScheme> campaignSchemes;

    std::size_t points() const;
};

/** Build a workload with every seed derived from @p seed; throws
 *  std::invalid_argument for an unknown name. */
WorkloadSpec makeWorkload(const std::string &name, std::uint64_t seed);

/** summarize() over a histogram's samples (bucket floors as values). */
Summary summarizeHistogram(const dve::Histogram &h);

bool isDve(dve::SchemeKind k);
bool isDve(dve::CampaignScheme s);

/** Outcome of one replay point. */
struct ReplayOutcome
{
    dve::RunResult result;
    std::string json;             ///< result.toJson()
    std::uint64_t retiredOps = 0; ///< reads + writes the engine served
    std::uint64_t sdcReads = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t activates = 0;
    dve::Histogram hopTicks;     ///< whole run, all sockets
    dve::Histogram memReadTicks; ///< whole run, all controllers
    double buildSeconds = 0.0;   ///< host time of System construction
    double seconds = 0.0;        ///< host time of System build + run
};

/**
 * A pass opens a "pass" span; each point's task span ("pass.task" or
 * "fault.trial") is its child, so a task's queue wait is its start
 * minus the pass start.
 */
struct ReplayPass
{
    std::vector<ReplayOutcome> points;
    double wall = 0.0; ///< seconds
};

struct CampaignPass
{
    std::vector<dve::TrialStats> trials; ///< scheme-major, like run()
    /** writeJsonReport of run()'s report; empty for a traced pass. */
    std::string report;
    double wall = 0.0;
};

/** Point index -> (profile, scheme) of a replay workload. */
inline std::size_t
profileOf(const WorkloadSpec &w, std::size_t point)
{
    return point / w.schemes.size();
}
inline std::size_t
schemeOf(const WorkloadSpec &w, std::size_t point)
{
    return point % w.schemes.size();
}

/** Memory ops in each profile's traces (generated once, untimed). */
std::vector<std::uint64_t> traceMemOps(const WorkloadSpec &w);

ReplayPass runReplayPass(const WorkloadSpec &w, unsigned jobs,
                         SpanLog *log);

/**
 * Untraced (@p log null): CampaignRunner::run with CampaignConfig::jobs
 * = @p jobs, and its report written with writeJsonReport. Traced: the
 * same trials through runTrial and parallelMap, in run()'s scheme-major
 * order, each under a "fault.trial" span; no report is assembled.
 */
CampaignPass runCampaignPass(const WorkloadSpec &w, unsigned jobs,
                             SpanLog *log);

/**
 * Host seconds of one fixed calibration kernel that does not touch the
 * simulator: 2M dependent random read-modify-writes over a 4 MiB table.
 * Of the table sizes tried (8 KiB to 64 MiB), 4 MiB is the one whose
 * speed follows the simulator's most closely as host contention comes
 * and goes.
 */
double calibrationSeconds();

/** The outcome fields of one trial, the fingerprint passes are
 *  compared on trial by trial. */
std::string trialFingerprint(const dve::TrialStats &t);

/** Per-scheme geomean speedup vs NUMA (schemes[0]) of a replay pass. */
std::vector<double> fig6Speedups(const WorkloadSpec &w, const ReplayPass &p);

/** fig6GapPct of a replay pass; 0 when the workload has no paper
 *  reference. */
double fig6GapOf(const WorkloadSpec &w, const ReplayPass &p);

/** Dvé (DUE + SDC) per million accesses of a campaign pass; 0 for a
 *  replay workload. */
double dvePpmOf(const WorkloadSpec &w, const CampaignPass &p);

// ---- Per-layer passes (traced run only) -------------------------------

/** generateTraces alone, once per profile, each under a
 *  "trace.generate" span; returns the traces for the passes below. */
std::vector<dve::ThreadTraces> traceGenLayer(const WorkloadSpec &w,
                                             SpanLog &log);

/** ReplayEngine::run on pre-generated traces, every point under a
 *  "cpu.replay" span (engine construction excluded). */
void replayLayer(const WorkloadSpec &w,
                   const std::vector<dve::ThreadTraces> &traces,
                   SpanLog &log);

/**
 * CoherenceEngine::access timed per call: every point's traces fed to a
 * fresh engine in per-thread time order (compute ops advance a thread's
 * clock; synchronization ops cost their API cycles but do not block).
 */
struct AccessLayer
{
    std::vector<double> nanos; ///< per access, timer overhead removed
    double seconds = 0.0;      ///< sum of nanos, in seconds
};
AccessLayer accessLayer(const WorkloadSpec &w,
                        const std::vector<dve::ThreadTraces> &traces,
                        SpanLog &log);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
