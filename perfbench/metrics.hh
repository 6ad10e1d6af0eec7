/**
 * @file
 * The benchmark's own arithmetic: medians, the tail-percentile rule,
 * the paper-gap and unrecovered-error formulas, and pool utilisation.
 * Kept free of simulator types so the tests can pin each formula on
 * hand-computed inputs.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench
{

/** Median of @p v (mean of the middle pair for even sizes); 0 if empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Smallest value of @p v; 0 if empty. */
inline double
fastest(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/**
 * Sum over points of each point's fastest time: @p times[r][i] is the
 * host time of point i in pass r. Every pass must hold the same points.
 */
inline double
sumOfFastest(const std::vector<std::vector<double>> &times)
{
    double sum = 0.0;
    for (std::size_t i = 0; !times.empty() && i < times[0].size(); ++i) {
        double best = times[0][i];
        for (const auto &pass : times) {
            if (pass.size() != times[0].size())
                throw std::invalid_argument("passes differ in points");
            best = std::min(best, pass[i]);
        }
        sum += best;
    }
    return sum;
}

/**
 * How much slower the host ran than the reference: a calibration
 * kernel's time in this run over its reference time. Throughputs are
 * multiplied by it and times divided, to state them at the reference
 * host speed.
 */
inline double
hostSlowdown(double calibration_seconds, double reference_seconds)
{
    if (!(calibration_seconds > 0) || !(reference_seconds > 0))
        throw std::invalid_argument("calibration times must be positive");
    return calibration_seconds / reference_seconds;
}

/** Nearest-rank percentile of a sorted sample: the value at rank
 *  ceil(pct/100 * n). */
inline double
percentileSorted(const std::vector<double> &sorted, double pct)
{
    if (sorted.empty())
        return 0.0;
    const auto n = static_cast<double>(sorted.size());
    const auto rank =
        static_cast<std::size_t>(std::ceil(pct / 100.0 * n - 1e-9));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/** Percentiles a tail is reported at, highest first. */
constexpr std::array<double, 6> tailLadder = {99.9, 99, 95, 90, 75, 50};

/**
 * The highest percentile of tailLadder that leaves at least ten samples
 * beyond it: n - ceil(pct/100 * n) >= 10. Samples of fewer than twenty
 * fall back to the median.
 */
inline double
tailPercentile(std::size_t n)
{
    for (const double p : tailLadder) {
        const auto at = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
        if (n >= at + 10)
            return p;
    }
    return 50.0;
}

/** A timing reported as its median plus its tail. */
struct Summary
{
    std::size_t count = 0;
    double p50 = 0.0;
    double tailPct = 50.0; ///< which percentile the tail is
    double tail = 0.0;
};

inline Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.count = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    s.p50 = percentileSorted(v, 50);
    s.tailPct = tailPercentile(v.size());
    s.tail = percentileSorted(v, s.tailPct);
    return s;
}

/** Geometric mean of positive values. */
inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        throw std::invalid_argument("geomean of an empty sample");
    double log_sum = 0.0;
    for (const double x : v) {
        if (!(x > 0) || !std::isfinite(x))
            throw std::invalid_argument("geomean needs positive values");
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/**
 * Fig 6 gap in percent. @p numa_roi[w] is the baseline ROI time of
 * workload w; @p scheme_roi[s][w] the ROI time of scheme s on it;
 * @p paper[s] the paper's geomean speedup for scheme s. Each scheme's
 * simulated geomean speedup g_s = geomean_w(numa / scheme) is compared
 * as |g_s - paper_s| / paper_s, and the result is the mean over schemes.
 */
inline double
fig6GapPct(const std::vector<double> &numa_roi,
           const std::vector<std::vector<double>> &scheme_roi,
           const std::vector<double> &paper)
{
    if (scheme_roi.size() != paper.size() || paper.empty())
        throw std::invalid_argument("one paper value per scheme");
    double sum = 0.0;
    for (std::size_t s = 0; s < paper.size(); ++s) {
        if (scheme_roi[s].size() != numa_roi.size())
            throw std::invalid_argument("one ROI time per workload");
        std::vector<double> speedups;
        for (std::size_t w = 0; w < numa_roi.size(); ++w)
            speedups.push_back(numa_roi[w] / scheme_roi[s][w]);
        sum += std::fabs(geomean(speedups) - paper[s]) / paper[s];
    }
    return 100.0 * sum / static_cast<double>(paper.size());
}

/** Unrecovered errors (DUE + SDC) per million accesses. */
inline double
unrecoveredPpm(std::uint64_t due, std::uint64_t sdc,
               std::uint64_t accesses)
{
    if (accesses == 0)
        return 0.0;
    return 1e6 * static_cast<double>(due + sdc)
           / static_cast<double>(accesses);
}

/** Share of the pool's capacity spent in tasks:
 *  sum of task time / (workers x wall). */
inline double
busyShare(double task_seconds, unsigned workers, double wall_seconds)
{
    if (workers == 0 || !(wall_seconds > 0))
        return 0.0;
    return task_seconds / (static_cast<double>(workers) * wall_seconds);
}

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
