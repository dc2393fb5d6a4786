/**
 * @file
 * decode_long: a closed loop of long-context decode sessions.
 *
 * Each epoch prefills every session to the full context with
 * DecodeSession::prefill (timed per session), hands the sessions to a
 * Batcher in direct mode (no memory budget, no front-end, no fork)
 * and decodes in rounds: every session is a client that submits one
 * token and waits for it, so a round is one Batcher::flush. The gap
 * between a client's consecutive tokens is one round. Incremental
 * ingest, the fused decode kernel and the Batcher's fan-out across
 * the pool do the work; eviction and admission do none.
 *
 * A mirror DecodeSession, stepped directly on the calling thread with
 * the same tokens, must be bit-identical to what the Batcher returned
 * for session 0 of the phase's first epoch.
 */

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/rng.h"
#include "nn/model_zoo.h"
#include "nn/workload.h"
#include "serve/batcher.h"
#include "serve/decode_session.h"

namespace perfbench {
namespace {

using cta::core::Index;
using cta::core::Matrix;

struct Setup
{
    cta::nn::AttentionHeadParams head;
    cta::serve::ServeConfig config;
    Index dim = 0;
    Index context = 0;
    Index rounds = 0;
    /** Per session: context prompt rows, then one row per round. */
    std::vector<Matrix> tokens;
};

Setup
makeSetup(const RunContext &ctx)
{
    const auto sessions = ctx.params.integer("sessions");
    const auto context = static_cast<Index>(ctx.params.integer("context"));
    const cta::nn::Testcase tc =
        cta::nn::paperTestcases(context).at(kTestcase);
    cta::core::Rng head_rng(ctx.seed * 1000 + 2);
    Setup s{cta::nn::AttentionHeadParams::randomInit(
                tc.workload.tokenDim, tc.model.dHead, head_rng),
            {}, tc.workload.tokenDim, context,
            static_cast<Index>(ctx.params.integer("rounds_per_epoch")),
            {}};
    for (long i = 0; i < sessions; ++i) {
        cta::nn::WorkloadGenerator gen(
            tc.workload.withSeqLen(s.context + s.rounds),
            ctx.seed * 7 + 101 + static_cast<std::uint64_t>(i));
        s.tokens.push_back(gen.sampleTokens());
    }
    s.config.cta = calibrateOnDocuments(s.tokens, kCalibRows);
    return s;
}

Matrix
rowsOf(const Matrix &m, Index begin, Index end)
{
    Matrix out(end - begin, m.cols());
    for (Index r = begin; r < end; ++r)
        std::copy(m.row(r).begin(), m.row(r).end(),
                  out.row(r - begin).begin());
    return out;
}

} // namespace

void
runDecodeLong(RunContext &ctx)
{
    Report &rep = ctx.report;
    const Setup s = repeatedSetup(
        ctx, [&] { return makeSetup(ctx); },
        [](const Setup &a, const Setup &b) {
            return a.config.cta.w1 == b.config.cta.w1 &&
                   bitEqual(a.tokens.back(), b.tokens.back());
        });
    const auto sessions = static_cast<Index>(s.tokens.size());
    std::vector<Matrix> prompts;
    for (const Matrix &t : s.tokens)
        prompts.push_back(rowsOf(t, 0, s.context));

    forEachPhase(ctx, [&](double seconds, const std::string &prefix) {
        const Clock::time_point end =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
        double prefill_s = 0, decode_s = 0;
        std::uint64_t prefilled = 0, decoded = 0;
        std::vector<Matrix> first_outputs; // session 0, first epoch
        std::unique_ptr<cta::serve::Batcher> last;
        for (std::int64_t epoch = 0; Clock::now() < end; ++epoch) {
            ctx.setupIfDue();
            Scope epoch_span(ctx.tracer, "decode.epoch", epoch);
            auto batcher = std::make_unique<cta::serve::Batcher>();
            for (Index i = 0; i < sessions; ++i) {
                auto session = std::make_unique<cta::serve::DecodeSession>(
                    s.head, s.config, s.dim);
                const double ms = timedMs(
                    ctx.tracer, "serve.prefill", i,
                    [&] { session->prefill(prompts[static_cast<std::size_t>(i)]); });
                rep.series[prefix + "prefill_ms"].push_back(ms);
                prefill_s += ms / 1e3;
                ++prefilled;
                batcher->addSession(std::move(session));
            }
            for (Index r = 0; r < s.rounds && Clock::now() < end; ++r) {
                Scope round_span(ctx.tracer, "decode.round", r);
                for (Index i = 0; i < sessions; ++i)
                    batcher->submit(
                        i, s.tokens[static_cast<std::size_t>(i)].row(
                               s.context + r));
                std::vector<cta::serve::StepResult> results;
                const double flush_ms =
                    timedMs(ctx.tracer, "batcher.flush", -1,
                            [&] { results = batcher->flush(); });
                const double gap_ms = round_span.stop();
                rep.series[prefix + "token_gap_ms"].push_back(gap_ms);
                rep.series[prefix + "flush_ms"].push_back(flush_ms);
                decode_s += gap_ms / 1e3;
                rep.attempted += static_cast<std::uint64_t>(sessions);
                std::uint64_t round_decoded = 0;
                for (const auto &res : results) {
                    if (res.status != cta::serve::StepStatus::Ok) {
                        ++rep.failed;
                        continue;
                    }
                    ++round_decoded;
                    if (epoch == 0 && res.session == 0)
                        first_outputs.push_back(res.output);
                }
                decoded += round_decoded;
                rep.series[prefix + "round_tok_s"].push_back(
                    static_cast<double>(round_decoded) / (gap_ms / 1e3));
            }
            last = std::move(batcher);
        }
        rep.values[prefix + "prefill_tok_s"] =
            static_cast<double>(prefilled) *
            static_cast<double>(s.context) / prefill_s;
        rep.values[prefix + "decode_tok_s"] =
            static_cast<double>(decoded) / decode_s;

        // Mirror of session 0, first epoch, stepped directly.
        cta::serve::DecodeSession mirror(s.head, s.config, s.dim);
        mirror.prefill(prompts[0]);
        bool identical = true;
        std::vector<double> step_us;
        for (std::size_t r = 0; r < first_outputs.size(); ++r) {
            Matrix out;
            step_us.push_back(
                1e3 * timedMs(ctx.tracer, "session.step", 0, [&] {
                    out = mirror.step(
                        s.tokens[0].row(s.context + static_cast<Index>(r)));
                }));
            identical = identical && bitEqual(out, first_outputs[r]);
        }
        rep.check(prefix + "mirror_bit_identical",
                  identical && !first_outputs.empty());

        // Per-layer counts, from the mirror and the last epoch.
        const double step_us_p50 = median(step_us);
        const double flush_ms_p50 = median(rep.series[prefix + "flush_ms"]);
        rep.values["serve.flush_speedup"] =
            static_cast<double>(sessions) * step_us_p50 /
            (flush_ms_p50 * 1e3);
        const cta::serve::DecodeSession &probe = last->session(0);
        rep.values["serve.pairs"] =
            static_cast<double>(probe.pairs().pairCount());
        rep.values["serve.k1"] =
            static_cast<double>(probe.kv().level1().numClusters());
        rep.values["serve.k2"] =
            static_cast<double>(probe.kv().level2().numClusters());
        rep.values["serve.step_gflop"] =
            static_cast<double>(mirror.lastStepOps().flops()) / 1e9;
        rep.values["serve.state_kb"] =
            static_cast<double>(probe.stateBytes()) / 1024.0;
    });
}

} // namespace perfbench
