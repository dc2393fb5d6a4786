/**
 * @file
 * Serving-layer throughput bench: batch-size x context-length scaling
 * of the incremental DecodeSession/Batcher stack.
 *
 * For every (batch, context) grid point it prefills `batch` sessions
 * to `context` tokens, then decodes a fixed number of steps per
 * session through Batcher::flush (one token per session per round),
 * reporting wall-clock throughput (tokens/s across the batch) and the
 * per-step latency distribution (p50/p95/p99 from ServerStats).
 * The grid runs once untimed (page faults, pool spin-up, cold
 * caches) and then kRepetitions times, round-robin, on fresh
 * sessions; each reported figure is the median over a point's timed
 * passes, so one cold or preempted pass cannot swing the headline
 * ratio.
 *
 * The point of the serving layer is that per-step cost is sub-linear
 * in context length — appending a token touches O(l*d) compression
 * state and O((k1+k2)*d) attention state, never the whole context —
 * so the headline number is the mean-step-time growth from the
 * shortest to the longest context, which must stay far below the
 * context ratio itself.
 *
 * Results go to BENCH_serve_throughput.json. `--smoke` shrinks the
 * grid so CI can validate the JSON schema in well under a second.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/matrix.h"
#include "core/rng.h"
#include "nn/attention.h"
#include "nn/workload.h"
#include "obs/trace.h"
#include "serve/batcher.h"

namespace {

using cta::core::Index;
using cta::core::Matrix;
using cta::core::Rng;

constexpr Index kTokenDim = 64;
constexpr Index kHeadDim = 64;
/** Timed passes per grid point (after one untimed warm-up pass). */
constexpr int kRepetitions = 5;

Matrix
clusteredTokens(Index n, std::uint64_t seed)
{
    cta::nn::WorkloadProfile profile;
    profile.seqLen = n;
    profile.tokenDim = kTokenDim;
    profile.coarseClusters = 40;
    profile.fineClusters = 24;
    cta::nn::WorkloadGenerator gen(profile, seed);
    return gen.sampleTokens();
}

struct ServePoint
{
    Index batch = 0;
    Index context = 0;
    Index steps = 0;           ///< decode steps per session
    double wallSeconds = 0;    ///< total flush wall time
    double tokensPerSecond = 0;///< batch tokens / wall time
    double meanStepMs = 0;
    double p50StepMs = 0;
    double p95StepMs = 0;
    double p99StepMs = 0;
};

/** One pass of a grid point on freshly prefilled sessions. */
ServePoint
runPass(const cta::nn::AttentionHeadParams &params, Index batch,
        Index context, Index steps)
{
    cta::serve::Batcher batcher;
    for (Index b = 0; b < batch; ++b) {
        auto session = std::make_unique<cta::serve::DecodeSession>(
            params, cta::serve::ServeConfig{}, kTokenDim);
        session->prefill(clusteredTokens(
            context, 100 + static_cast<std::uint64_t>(b)));
        batcher.addSession(std::move(session));
    }
    const Matrix decode =
        clusteredTokens(steps, 999 + static_cast<std::uint64_t>(batch));

    double wall = 0;
    for (Index s = 0; s < steps; ++s) {
        for (Index b = 0; b < batch; ++b)
            batcher.submit(b, decode.row(s));
        const auto t0 = std::chrono::steady_clock::now();
        const auto results = batcher.flush();
        const auto t1 = std::chrono::steady_clock::now();
        if (static_cast<Index>(results.size()) != batch)
            std::fprintf(stderr, "short flush!\n");
        wall += std::chrono::duration<double>(t1 - t0).count();
    }

    const auto stats = batcher.stats().snapshot();
    ServePoint point;
    point.batch = batch;
    point.context = context;
    point.steps = steps;
    point.wallSeconds = wall;
    // A degenerate grid point (or a clock that didn't advance) must
    // not print inf/NaN into the JSON.
    point.tokensPerSecond =
        wall > 0 ? static_cast<double>(batch * steps) / wall : 0;
    point.meanStepMs = stats.meanSeconds * 1e3;
    point.p50StepMs = stats.p50Seconds * 1e3;
    point.p95StepMs = stats.p95Seconds * 1e3;
    point.p99StepMs = stats.p99Seconds * 1e3;
    return point;
}

/** Median of @p values (upper median for an even count). */
double
median(std::vector<double> values)
{
    const auto mid = values.begin() +
                     static_cast<std::ptrdiff_t>(values.size() / 2);
    std::nth_element(values.begin(), mid, values.end());
    return *mid;
}

/** Per-field median of one grid point's timed passes. */
ServePoint
medianPoint(const std::vector<ServePoint> &passes)
{
    const auto medianOf = [&passes](double ServePoint::*field) {
        std::vector<double> values;
        for (const auto &pass : passes)
            values.push_back(pass.*field);
        return median(values);
    };
    ServePoint point = passes.front();
    point.wallSeconds = medianOf(&ServePoint::wallSeconds);
    point.tokensPerSecond = medianOf(&ServePoint::tokensPerSecond);
    point.meanStepMs = medianOf(&ServePoint::meanStepMs);
    point.p50StepMs = medianOf(&ServePoint::p50StepMs);
    point.p95StepMs = medianOf(&ServePoint::p95StepMs);
    point.p99StepMs = medianOf(&ServePoint::p99StepMs);
    return point;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;

    const std::vector<Index> batches =
        smoke ? std::vector<Index>{1, 2} : std::vector<Index>{1, 4, 8};
    const std::vector<Index> contexts =
        smoke ? std::vector<Index>{64, 128}
              : std::vector<Index>{256, 512, 1024};
    const Index steps = smoke ? 4 : 32;

    Rng rng(19);
    const auto params = cta::nn::AttentionHeadParams::randomInit(
        kTokenDim, kHeadDim, rng);

    std::printf("==== serve throughput: batch x context (median of "
                "%d passes after a warm-up) ====\n\n",
                kRepetitions);
    std::printf("  %5s %8s %6s %10s %9s %9s %9s\n", "batch", "context",
                "steps", "tok/s", "p50 ms", "p95 ms", "p99 ms");
    // Repetitions run round-robin over the grid, so the passes of one
    // point are spread over the whole run instead of sharing one
    // stretch of host state (clock, co-tenants) back to back. Pass 0
    // is the untimed warm-up.
    struct GridPoint
    {
        Index batch, context;
        std::vector<ServePoint> passes;
    };
    std::vector<GridPoint> grid;
    for (const Index context : contexts)
        for (const Index batch : batches)
            grid.push_back({batch, context, {}});
    for (int rep = 0; rep <= kRepetitions; ++rep) {
        for (auto &g : grid) {
            const ServePoint pass =
                runPass(params, g.batch, g.context, steps);
            if (rep > 0)
                g.passes.push_back(pass);
        }
    }
    std::vector<ServePoint> points;
    for (const auto &g : grid) {
        const ServePoint p = medianPoint(g.passes);
        std::printf("  %5lld %8lld %6lld %10.1f %9.3f %9.3f %9.3f\n",
                    static_cast<long long>(p.batch),
                    static_cast<long long>(p.context),
                    static_cast<long long>(p.steps), p.tokensPerSecond,
                    p.p50StepMs, p.p95StepMs, p.p99StepMs);
        points.push_back(p);
    }

    // Headline: mean step time growth from shortest to longest
    // context at batch = min. Sub-linear serving means this ratio
    // stays far below the context ratio.
    double mean_short = 0, mean_long = 0;
    for (const auto &p : points) {
        if (p.batch != batches.front())
            continue;
        if (p.context == contexts.front())
            mean_short = p.meanStepMs;
        if (p.context == contexts.back())
            mean_long = p.meanStepMs;
    }
    const double step_growth =
        mean_short > 0 ? mean_long / mean_short : 0;
    const double context_growth =
        static_cast<double>(contexts.back()) /
        static_cast<double>(contexts.front());
    std::printf("\n  step-time growth %.2fx over a %.0fx context "
                "growth\n",
                step_growth, context_growth);

    std::FILE *out = std::fopen("BENCH_serve_throughput.json", "w");
    if (!out) {
        std::printf("  [could not open "
                    "BENCH_serve_throughput.json]\n");
        return 1;
    }
    std::fprintf(out,
                 "{\n  \"benchmark\": \"serve_throughput\",\n"
                 "  \"smoke\": %s,\n"
                 "  \"token_dim\": %lld,\n"
                 "  \"head_dim\": %lld,\n"
                 "  \"repetitions\": %d,\n"
                 "  \"step_time_growth\": %.3f,\n"
                 "  \"context_growth\": %.1f,\n"
                 "  \"results\": [\n",
                 smoke ? "true" : "false",
                 static_cast<long long>(kTokenDim),
                 static_cast<long long>(kHeadDim), kRepetitions,
                 step_growth, context_growth);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &p = points[i];
        std::fprintf(
            out,
            "    {\"batch\": %lld, \"context\": %lld, "
            "\"steps\": %lld, \"wall_seconds\": %.6e, "
            "\"tokens_per_second\": %.1f, \"step_mean_ms\": %.4f, "
            "\"step_p50_ms\": %.4f, \"step_p95_ms\": %.4f, "
            "\"step_p99_ms\": %.4f}%s\n",
            static_cast<long long>(p.batch),
            static_cast<long long>(p.context),
            static_cast<long long>(p.steps), p.wallSeconds,
            p.tokensPerSecond, p.meanStepMs, p.p50StepMs, p.p95StepMs,
            p.p99StepMs, i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("  [data written to BENCH_serve_throughput.json]\n");
    if (cta::obs::writeSidecars("BENCH_serve_throughput"))
        std::printf("  [trace + metrics sidecars written]\n");
    return 0;
}
