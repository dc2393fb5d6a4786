/**
 * @file
 * accel_sweep: every accelerator model in the registry on the ten
 * paper testcases at n = 512, plus the 48-point design-space grid of
 * accel::exploreDesignSpace. It is the only workload that exercises
 * the hardware models.
 *
 * A sweep runs each (model, testcase) pair through
 * reg::Accelerator::run and then the grid; the harness always completes
 * whole sweeps. Every simulated statistic of a sweep (total and
 * per-module cycles of every run, every grid point) is folded into a
 * digest, which must be the same for every sweep of the run and for
 * one more sweep run with every pool call inlined on the calling
 * thread. A change that only speeds up host code therefore provably
 * leaves the model unchanged.
 */

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "accel_registry/registry.h"
#include "bench.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "cta/config.h"
#include "cta_accel/dse.h"
#include "nn/model_zoo.h"
#include "nn/workload.h"

namespace perfbench {
namespace {

using cta::core::Index;
using cta::core::Matrix;

struct Case
{
    Matrix calib;
    Matrix eval;
    cta::nn::AttentionHeadParams head;
};

struct Setup
{
    std::vector<Case> cases;
    std::vector<cta::alg::CompressionStats> shapes; ///< DSE inputs
    cta::accel::DseGrid grid;
};

Setup
makeSetup(const RunContext &ctx)
{
    const auto seq_len = static_cast<Index>(ctx.params.integer("seq_len"));
    Setup s;
    // Realized CTA-0.5 shapes of every testcase, plus a half-height
    // copy of each for the grid's SA-height axis.
    const Index base_height =
        cta::accel::HwConfig::paperDefault().saHeight;
    std::uint64_t k = 0;
    for (const auto &tc : cta::nn::paperTestcases(seq_len)) {
        cta::nn::WorkloadGenerator gen(tc.workload, ctx.seed * 7 + 500 + k);
        cta::core::Rng head_rng(ctx.seed * 1000 + 10 + k);
        ++k;
        Case c{gen.sampleTokens(), gen.sampleTokens(),
               cta::nn::AttentionHeadParams::randomInit(
                   tc.workload.tokenDim, tc.model.dHead, head_rng)};
        const cta::alg::CtaConfig config = cta::alg::calibrate(
            c.calib, c.calib, cta::alg::Preset::Cta05, 6, /*seed=*/7);
        auto stats =
            cta::alg::ctaAttention(c.eval, c.eval, c.head, config).stats;
        s.shapes.push_back(stats);
        stats.d = base_height / 2;
        s.shapes.push_back(stats);
        s.cases.push_back(std::move(c));
    }
    // Widths start at 8: the SA must be at least l = 6 columns wide.
    s.grid.saWidths = {8, 16, 32, 64};
    s.grid.saHeights = {base_height / 2, base_height};
    s.grid.pagParallelisms = {4, 8, 16, 32, 64, 128};
    return s;
}

/** FNV-1a over the bytes of simulated statistics. */
class Digest
{
  public:
    template <typename T>
    void add(const T &value)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        for (const unsigned char b : bytes)
            hash_ = (hash_ ^ b) * 1099511628211ull;
    }
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 14695981039346656037ull;
};

struct SweepResult
{
    std::uint64_t digest = 0;
    bool modulesSumToTotal = true;
    std::vector<double> cycles;  ///< per model, summed over cases
    std::vector<double> seconds; ///< per model, simulated
    std::vector<cta::reg::ModuleCycles> ctaModules;
    std::vector<double> runMs; ///< host time of each run
    std::vector<double> dseMs; ///< host time of each grid evaluation
    double sweepMs = 0;
    std::size_t dsePoints = 0;
};

SweepResult
sweep(Tracer &tracer, const Setup &s,
      const std::vector<std::unique_ptr<cta::reg::Accelerator>> &models,
      const std::vector<std::string> &names, long dse_reps,
      std::int64_t id)
{
    SweepResult out;
    Digest digest;
    out.cycles.assign(models.size(), 0);
    out.seconds.assign(models.size(), 0);
    Scope sweep_span(tracer, "accel.sweep", id);
    for (std::size_t m = 0; m < models.size(); ++m) {
        const std::string span_name = "accel.run." + names[m];
        for (std::size_t c = 0; c < s.cases.size(); ++c) {
            const Case &tc = s.cases[c];
            cta::reg::RunRequest request;
            request.calibTokens = &tc.calib;
            cta::reg::RunResult r;
            out.runMs.push_back(timedMs(
                tracer, span_name.c_str(), static_cast<std::int64_t>(c),
                [&] { r = models[m]->run(tc.eval, tc.eval, tc.head, request); }));
            const cta::core::Cycles total = r.report.latency.total();
            cta::core::Cycles module_sum = 0;
            for (const auto &mc : r.moduleCycles) {
                module_sum += mc.cycles;
                digest.add(mc.cycles);
                if (names[m] == "cta") {
                    auto it = std::find_if(
                        out.ctaModules.begin(), out.ctaModules.end(),
                        [&](const auto &x) { return x.module == mc.module; });
                    if (it == out.ctaModules.end())
                        out.ctaModules.push_back(mc);
                    else
                        it->cycles += mc.cycles;
                }
            }
            digest.add(total);
            out.modulesSumToTotal =
                out.modulesSumToTotal && module_sum == total;
            out.cycles[m] += static_cast<double>(total);
            out.seconds[m] += static_cast<double>(r.report.seconds());
        }
    }
    // The grid takes a few milliseconds; it is evaluated dse_reps
    // times so a run holds enough samples for its tail.
    std::vector<cta::accel::DsePoint> points;
    for (long r = 0; r < dse_reps; ++r) {
        out.dseMs.push_back(timedMs(tracer, "accel.dse", id, [&] {
            points = cta::accel::exploreDesignSpace(
                cta::accel::HwConfig::paperDefault(), s.shapes, s.grid);
        }));
        for (const auto &p : points) {
            digest.add(p.saWidth);
            digest.add(p.saHeight);
            digest.add(p.pagParallelism);
            digest.add(p.throughput);
            digest.add(p.meanCycles);
            digest.add(p.meanPagStalls);
            digest.add(p.pagBindingShare);
        }
    }
    out.dsePoints = points.size();
    out.sweepMs = sweep_span.stop();
    out.digest = digest.value();
    return out;
}

} // namespace

void
runAccelSweep(RunContext &ctx)
{
    Report &rep = ctx.report;
    const Setup s = repeatedSetup(
        ctx, [&] { return makeSetup(ctx); },
        [](const Setup &a, const Setup &b) {
            return bitEqual(a.cases.back().eval, b.cases.back().eval) &&
                   a.shapes.back().k1 == b.shapes.back().k1;
        });

    cta::reg::ensureBuiltins();
    const std::vector<std::string> names = cta::reg::registeredNames();
    cta::reg::AccelOptions options;
    options.maxSeqLen = static_cast<Index>(ctx.params.integer("seq_len"));
    std::vector<std::unique_ptr<cta::reg::Accelerator>> models;
    for (const std::string &name : names)
        models.push_back(cta::reg::makeAccelerator(name, options));

    const long dse_reps = ctx.params.integer("dse_reps");
    std::vector<std::uint64_t> digests;
    bool sums_ok = true;
    SweepResult last;
    std::int64_t id = 0;
    forEachPhase(ctx, [&](double seconds, const std::string &prefix) {
        const Clock::time_point end =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
        // Whole sweeps only, and none that would end past the phase.
        do {
            ctx.setupIfDue();
            last = sweep(ctx.tracer, s, models, names, dse_reps, id++);
            digests.push_back(last.digest);
            sums_ok = sums_ok && last.modulesSumToTotal;
            double run_s = 0;
            for (const double ms : last.runMs) {
                rep.series[prefix + "run_ms"].push_back(ms);
                run_s += ms / 1e3;
            }
            rep.series[prefix + "runs_per_s"].push_back(
                static_cast<double>(last.runMs.size()) / run_s);
            for (const double ms : last.dseMs)
                rep.series[prefix + "dse_ms"].push_back(ms);
            rep.series[prefix + "sweep_ms"].push_back(last.sweepMs);
            rep.attempted += last.runMs.size() + last.dseMs.size();
        } while (Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double, std::milli>(
                                        last.sweepMs)) <
                 end);
    });

    // One more sweep with every pool call inlined: a pool task runs
    // nested run() calls serially on the calling thread.
    std::uint64_t serial_digest = 0;
    {
        cta::core::ThreadPool serial(1);
        serial.run(1, [&](Index) {
            serial_digest =
                sweep(ctx.tracer, s, models, names, dse_reps, -1).digest;
        });
    }

    bool repeat = true;
    for (const std::uint64_t d : digests)
        repeat = repeat && d == digests.front();
    rep.check("module_cycles_sum_to_total", sums_ok);
    rep.check("simulated_stats_repeat", repeat,
              std::to_string(digests.size()) + " sweeps");
    rep.check("simulated_stats_pool_invariant",
              serial_digest == digests.front());

    rep.check("dse_grid_points", last.dsePoints == 48,
              std::to_string(last.dsePoints) + " points");
    for (std::size_t m = 0; m < names.size(); ++m)
        rep.values["accel.cycles." + names[m]] = last.cycles[m];
    for (const auto &mc : last.ctaModules)
        rep.values["accel.cycles.cta." + mc.module] =
            static_cast<double>(mc.cycles);
    double cta_s = 0, gpu_s = 0;
    for (std::size_t m = 0; m < names.size(); ++m) {
        if (names[m] == "cta")
            cta_s = last.seconds[m];
        if (names[m] == "gpu")
            gpu_s = last.seconds[m];
    }
    rep.values["accel.cta_speedup_vs_gpu"] = cta_s > 0 ? gpu_s / cta_s : 0;
}

} // namespace perfbench
