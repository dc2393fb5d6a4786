/**
 * @file
 * Shared scaffolding of the benchmark harness: workload parameters,
 * the span recorder, the per-run report and small timing helpers.
 *
 * The harness is single-threaded: it calls into the library's public
 * functions from one thread, and every span it records sits around
 * one of those calls. Worker threads of the library's pool never
 * record spans, so the recorder needs no locking.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/matrix.h"
#include "cta/compressed_attention.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Workload constants, passed by the runner as key=value pairs. */
class Params
{
  public:
    void set(const std::string &key, const std::string &value);

    /** The value of @p key; exits with an error when it is missing. */
    double number(const std::string &key) const;
    long integer(const std::string &key) const;

  private:
    std::map<std::string, std::string> values_;
};

/** One recorded span: a call into a layer, made by the harness. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0; ///< since the recorder's epoch
    std::int64_t endNs = 0;
    int parent = -1;          ///< index of the enclosing span
    std::int64_t request = -1; ///< request, round or case id
};

/**
 * In-memory span recorder. Disabled, it records nothing and the
 * scopes below only read the clock.
 */
class Tracer
{
  public:
    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Opens a span; returns its index, or -1 when disabled. */
    int open(const char *name, std::int64_t request,
             Clock::time_point start);
    void close(int index, Clock::time_point end);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_ = false;
    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_; ///< stack of open span indices
};

/**
 * Times one call into a layer and, when tracing, records it as a
 * span nested in whatever span is open. elapsedMs() is valid after
 * stop() or destruction.
 */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name, std::int64_t request = -1);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Ends the span now; returns its duration in milliseconds. */
    double stop();

  private:
    Tracer &tracer_;
    int index_ = -1;
    Clock::time_point start_;
    double elapsedMs_ = -1;
};

/** Times @p fn as a span; returns milliseconds. */
template <typename Fn>
double
timedMs(Tracer &tracer, const char *name, std::int64_t request,
        Fn &&fn)
{
    Scope scope(tracer, name, request);
    fn();
    return scope.stop();
}

/** One named output check. */
struct Check
{
    std::string name;
    bool ok = false;
    std::string detail;
};

/**
 * Everything one workload run produces. Series hold raw samples
 * (statistics are computed by the runner); values hold numbers the
 * harness derives itself, such as counts and rates.
 */
struct Report
{
    std::vector<double> setupSeconds;
    std::map<std::string, std::vector<double>> series;
    std::map<std::string, double> values;
    std::vector<Check> checks;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void check(const std::string &name, bool ok,
               const std::string &detail = "");
};

/** Context a workload runs in. */
struct RunContext
{
    std::uint64_t seed = 1;
    double seconds = 1;
    bool trace = false;
    Params params;
    Tracer tracer;
    Report report;

    /**
     * Times one more set-up repetition when one is due, that is once
     * every kSetupEverySeconds. Workloads call it between rounds, so
     * the repetitions sample the same stretches of host load as the
     * measurement. Returns the time it took, zero when none was due.
     */
    Clock::duration setupIfDue();

    /** Installed by repeatedSetup(): one timed repetition, and the
     *  last one with the determinism check, run when the workload
     *  has run. */
    std::function<void()> setupOnce;
    std::function<void()> finishSetup;
    Clock::time_point setupDueAt;
};

/** Seconds between two set-up repetitions during a run. */
constexpr double kSetupEverySeconds = 3.0;

/** The paper testcase every workload but accel_sweep draws tokens
 *  from: the first, BERT on SQuAD1.1. */
constexpr std::size_t kTestcase = 0;

/** Rows of each document the CTA-0.5 preset is calibrated on. */
constexpr cta::core::Index kCalibRows = 512;

/** Exact bitwise equality of two matrices (shape and every bit). */
bool bitEqual(const cta::core::Matrix &a, const cta::core::Matrix &b);

/**
 * Runs a workload's set-up and returns its result. Set-up is timed
 * once now, again whenever ctx.setupIfDue() finds a repetition due,
 * and once more when the run ends (ctx.finishSetup): a busy neighbour
 * slows the host for seconds at a time, and set-up is short. Every
 * repetition must reproduce the first, since the inputs depend only
 * on the seed.
 */
template <typename Make, typename Same>
auto
repeatedSetup(RunContext &ctx, Make make, Same same)
{
    using Setup = decltype(make());
    struct State
    {
        std::optional<Setup> first;
        bool deterministic = true;
    };
    auto state = std::make_shared<State>();
    ctx.setupOnce = [&ctx, make, same, state] {
        const Clock::time_point t0 = Clock::now();
        Setup next = make();
        ctx.report.setupSeconds.push_back(secondsBetween(t0, Clock::now()));
        if (!state->first)
            state->first.emplace(std::move(next));
        else
            state->deterministic =
                state->deterministic && same(*state->first, next);
    };
    ctx.finishSetup = [&ctx, state] {
        ctx.setupOnce();
        ctx.report.check("setup_deterministic", state->deterministic);
    };
    ctx.setupOnce();
    ctx.setupDueAt =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kSetupEverySeconds));
    return *state->first;
}

/**
 * The CTA-0.5 operating point for a set of documents: the preset is
 * calibrated on the first @p rows tokens of each document, and each
 * LSH width is the median over the documents. A single document's
 * calibration varies with its tokens; the median keeps the operating
 * point, and with it the work per token, close to the same across
 * seeds.
 */
cta::alg::CtaConfig
calibrateOnDocuments(const std::vector<cta::core::Matrix> &documents,
                     cta::core::Index rows);

/** Median of @p samples (0 when empty). */
double median(std::vector<double> samples);

/**
 * Runs @p body once per phase. Untraced, that is a single phase of
 * the whole run length. Traced, the first half runs with the recorder
 * off and the second half with it on, and the second phase's series
 * are stored under "traced:" names, so the runner can report tracing
 * overhead as traced minus untraced.
 *
 * @p body receives the phase length in seconds and the prefix to put
 * before each series name.
 */
template <typename Body>
void
forEachPhase(RunContext &ctx, Body &&body)
{
    if (!ctx.trace) {
        body(ctx.seconds, std::string());
        return;
    }
    ctx.tracer.setEnabled(false);
    body(ctx.seconds / 2, std::string());
    ctx.tracer.setEnabled(true);
    body(ctx.seconds / 2, std::string("traced:"));
    ctx.tracer.setEnabled(false);
}

// The workloads (one translation unit each).
void runAttnBatch(RunContext &ctx);
void runDecodeLong(RunContext &ctx);
void runServeOpen(RunContext &ctx);
void runAccelSweep(RunContext &ctx);

} // namespace perfbench
