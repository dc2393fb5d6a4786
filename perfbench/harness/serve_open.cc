/**
 * @file
 * serve_open: an open loop at a fixed rate through ServeFrontend, in
 * real time.
 *
 * Two tenants, gold and bronze, each get a bursty arrival schedule
 * from serve::generateArrivals with Zipf popularity over conversation
 * slots. An arrival on an empty slot starts a conversation: either a
 * 64-512-token prompt through createSession (all but the last token
 * prefilled, the last one submitted as a step), or a fork of one of a
 * few shared system prompts through forkSession plus a short suffix
 * submitted as steps. An arrival on a live slot submits its decode
 * tokens. After a fixed number of turns a conversation retires: it is
 * removed once its steps have completed and the slot starts afresh.
 * The resident-byte budget sits below the working set, so the
 * session manager evicts and restores.
 *
 * Every step is timed from its due time (its arrival's time on the
 * schedule) to the return of the flushOnce() that completed it, so a
 * stall delays every step due behind it; how late the loop picked
 * arrivals up is reported separately. TTFT is due time to completion
 * of the step that ingests the last prompt (or suffix) token. Each
 * flushOnce() and createSession() call is timed on its own as well.
 *
 * Checks: sampled conversations are replayed afterwards on standalone
 * DecodeSessions and must be bit-identical through eviction, restore
 * and fork; per tenant, completed + failed == attempted.
 */

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/rng.h"
#include "nn/model_zoo.h"
#include "nn/workload.h"
#include "serve/frontend.h"
#include "serve/loadgen.h"

namespace perfbench {
namespace {

using cta::core::Index;
using cta::core::Matrix;

struct TenantSpec
{
    const char *name;
    std::uint32_t weight;
    const char *prefix; ///< parameter-name prefix
};

constexpr TenantSpec kTenants[] = {
    {"gold", 4, "gold_"},
    {"bronze", 1, "bronze_"},
};

struct Setup
{
    cta::nn::AttentionHeadParams head;
    cta::serve::ServeConfig config;
    Index dim = 0;
    Matrix pool; ///< token rows every conversation draws from
    std::vector<Matrix> systemPrompts;
};

/**
 * The model is a constant of the workload, as a deployed model would
 * be: the head's weights and the CTA-0.5 preset, calibrated on
 * documents of this seed. --seed draws the requests: the token pool,
 * the system prompts and the arrivals. With a head and a calibration
 * drawn from --seed, the median flushOnce() time of two seeds differed
 * by 30%.
 */
constexpr std::uint64_t kModelSeed = 3;

Setup
makeSetup(const RunContext &ctx)
{
    const auto pool_rows =
        static_cast<Index>(ctx.params.integer("token_pool"));
    const cta::nn::Testcase tc =
        cta::nn::paperTestcases(512).at(kTestcase);
    cta::core::Rng head_rng(kModelSeed);
    Setup s{cta::nn::AttentionHeadParams::randomInit(
                tc.workload.tokenDim, tc.model.dHead, head_rng),
            {}, tc.workload.tokenDim, {}, {}};
    // The pool is `docs` documents back to back; a conversation reads
    // consecutive rows, so it mostly stays within one document.
    const auto docs = ctx.params.integer("docs");
    const Index doc_rows = pool_rows / static_cast<Index>(docs);
    s.pool = Matrix(0, s.dim);
    for (long d = 0; d < docs; ++d) {
        cta::nn::WorkloadGenerator gen(tc.workload.withSeqLen(doc_rows),
                                       ctx.seed * 7 + 5 +
                                           static_cast<std::uint64_t>(d));
        s.pool.appendRows(gen.sampleTokens());
    }
    std::vector<Matrix> calibration;
    for (long d = 0; d < docs; ++d) {
        cta::nn::WorkloadGenerator gen(tc.workload.withSeqLen(kCalibRows),
                                       (kModelSeed << 32) +
                                           static_cast<std::uint64_t>(d));
        calibration.push_back(gen.sampleTokens());
    }
    s.config.cta = calibrateOnDocuments(calibration, kCalibRows);
    const auto prompts = ctx.params.integer("system_prompts");
    const auto prompt_len =
        static_cast<Index>(ctx.params.integer("system_prompt_len"));
    for (long p = 0; p < prompts; ++p) {
        cta::nn::WorkloadGenerator sys(tc.workload.withSeqLen(prompt_len),
                                       ctx.seed * 7 + 301 +
                                           static_cast<std::uint64_t>(p));
        s.systemPrompts.push_back(sys.sampleTokens());
    }
    return s;
}

/**
 * Point @p k of the golden-ratio sequence, mapped onto [lo, hi]. Any
 * run of consecutive points is spread evenly over the range.
 */
Index
goldenPoint(std::uint64_t k, Index lo, Index hi)
{
    const double x = static_cast<double>(k) * 0.6180339887498949;
    return lo + static_cast<Index>((x - std::floor(x)) *
                                   static_cast<double>(hi - lo + 1));
}

enum class StepKind
{
    Prompt, ///< a prompt or suffix token before the last
    First,  ///< the last prompt/suffix token: its completion is TTFT
    Decode,
};

struct Outstanding
{
    double due = 0; ///< seconds since the schedule's start
    StepKind kind = StepKind::Decode;
};

/** One conversation: a front-end session and where its tokens come
 *  from. Token k of a conversation is pool row (base + k) mod rows. */
struct Conversation
{
    Index session = -1;
    Index tenant = 0;
    Index base = 0;
    Index next = 0;        ///< tokens taken from the pool so far
    Index systemPrompt = -1; ///< forked from this prompt, or -1
    Index promptLen = 0;   ///< createSession rows (prompt minus one)
    /** Steps submitted on the first arrival: the last prompt token,
     *  or the suffix after a fork. */
    Index firstSteps = 1;
    Index turns = 0;
    bool retiring = false;
    bool removed = false;
    bool mirrored = false;
    std::deque<Outstanding> outstanding;
    std::vector<Index> stepRows;  ///< pool rows submitted as steps
    std::vector<Matrix> outputs;  ///< completion outputs, in order
};

class OpenLoop
{
  public:
    OpenLoop(RunContext &ctx, const Setup &s, const std::string &prefix)
        : ctx_(ctx), s_(s), prefix_(prefix),
          rng_(ctx.seed * 31 + (prefix.empty() ? 1 : 2))
    {
        cta::serve::FrontendConfig fc;
        fc.shards = static_cast<Index>(ctx.params.integer("shards"));
        fc.queueCapPerShard =
            static_cast<Index>(ctx.params.integer("queue_cap"));
        fc.memBudgetBytes = static_cast<std::size_t>(
            ctx.params.number("budget_mb") * 1024 * 1024);
        fc.shardFailAfter = 1 << 20;
        fc.retryBaseSeconds = 1e-3;
        fc.retryMaxSeconds = 1.0;
        frontend_ = std::make_unique<cta::serve::ServeFrontend>(
            s.head, s.config, s.dim, fc);
        for (const TenantSpec &t : kTenants) {
            cta::serve::TenantConfig tc;
            tc.name = t.name;
            tc.weight = t.weight;
            tc.maxQueued =
                static_cast<Index>(ctx.params.integer("tenant_quota"));
            frontend_->registerTenant(tc);
        }
        // The shared system prompts belong to gold; forks inherit the
        // parent's tenant, so bronze starts fresh prompts only.
        for (const Matrix &p : s.systemPrompts)
            systemSessions_.push_back(frontend_->createSession(0, p));
        promptMin_ = static_cast<Index>(ctx.params.integer("prompt_min"));
        promptMax_ = static_cast<Index>(ctx.params.integer("prompt_max"));
        suffixMin_ = static_cast<Index>(ctx.params.integer("suffix_min"));
        suffixMax_ = static_cast<Index>(ctx.params.integer("suffix_max"));
        forkPercent_ = ctx.params.integer("fork_percent");
        turnsPerConversation_ =
            static_cast<Index>(ctx.params.integer("turns"));
        mirrorEvery_ = ctx.params.integer("mirror_every");
        sloSeconds_ = ctx.params.number("slo_ms") / 1e3;
    }

    void run(double seconds);

  private:
    std::vector<cta::serve::Arrival> schedule(double seconds,
                                              Index *slots_per_tenant);
    void arrive(const cta::serve::Arrival &a);
    Index startConversation(Index tenant);
    void submit(Conversation &c, StepKind kind, double due);
    void flush(Clock::time_point start);
    void retireFinished(Conversation &c);
    void replayMirrors();

    Matrix promptRows(const Conversation &c, Index count) const;
    Index poolRow(const Conversation &c, Index k) const
    {
        return (c.base + k) % s_.pool.rows();
    }

    RunContext &ctx_;
    const Setup &s_;
    std::string prefix_;
    cta::core::Rng rng_;
    std::unique_ptr<cta::serve::ServeFrontend> frontend_;
    std::vector<Index> systemSessions_;
    std::vector<Conversation> conversations_;
    std::vector<Index> slotConversation_; ///< slot -> conversation
    std::vector<Index> slotTenant_;
    std::vector<Index> sessionConversation_; ///< session -> conv
    std::uint64_t outstanding_ = 0;
    std::vector<std::uint64_t> attempted_ =
        std::vector<std::uint64_t>(std::size(kTenants), 0);
    std::vector<std::uint64_t> completed_ =
        std::vector<std::uint64_t>(std::size(kTenants), 0);
    std::vector<std::uint64_t> failed_ =
        std::vector<std::uint64_t>(std::size(kTenants), 0);
    std::uint64_t withinSlo_ = 0;
    std::uint64_t creates_ = 0;    ///< conversations started by a prompt
    std::uint64_t goldStarts_ = 0; ///< gold conversations started
    std::uint64_t forks_ = 0;
    std::uint64_t flushes_ = 0;
    std::uint64_t flushedSteps_ = 0;
    std::size_t residentPeak_ = 0;
    Index promptMin_ = 0, promptMax_ = 0, suffixMin_ = 0, suffixMax_ = 0;
    long forkPercent_ = 0;
    Index turnsPerConversation_ = 1;
    long mirrorEvery_ = 1;
    double sloSeconds_ = 0;
};

std::vector<cta::serve::Arrival>
OpenLoop::schedule(double seconds, Index *slots_per_tenant)
{
    std::vector<cta::serve::Arrival> merged;
    Index offset = 0;
    for (std::size_t t = 0; t < std::size(kTenants); ++t) {
        const std::string p = kTenants[t].prefix;
        cta::serve::LoadGenConfig lg;
        lg.sessions = static_cast<Index>(ctx_.params.integer(p + "slots"));
        lg.zipfExponent = ctx_.params.number("zipf");
        lg.ratePerSecond = ctx_.params.number(p + "requests_per_s");
        lg.burstFactor = ctx_.params.number(p + "burst");
        lg.burstPeriodSeconds = ctx_.params.number("burst_period_s");
        lg.minSteps = static_cast<Index>(ctx_.params.integer("steps_min"));
        lg.maxSteps = static_cast<Index>(ctx_.params.integer("steps_max"));
        lg.durationSeconds = seconds;
        lg.seed = ctx_.seed * 17 + t + (prefix_.empty() ? 0 : 1000);
        merged = cta::serve::mergeArrivals(
            merged, cta::serve::generateArrivals(lg), offset);
        slots_per_tenant[t] = lg.sessions;
        offset += lg.sessions;
    }
    return merged;
}

Matrix
OpenLoop::promptRows(const Conversation &c, Index count) const
{
    Matrix out(count, s_.pool.cols());
    for (Index k = 0; k < count; ++k) {
        const auto src = s_.pool.row(poolRow(c, k));
        std::copy(src.begin(), src.end(), out.row(k).begin());
    }
    return out;
}

Index
OpenLoop::startConversation(Index tenant)
{
    Conversation c;
    c.tenant = tenant;
    c.base = static_cast<Index>(
        rng_.uniformInt(static_cast<std::uint64_t>(s_.pool.rows())));
    const auto id = static_cast<Index>(conversations_.size());
    c.mirrored = id % mirrorEvery_ == 0;
    // Whether a conversation forks, which prompt it forks and how
    // long its prompt or suffix is follow fixed sequences, not random
    // draws, so every seed starts nearly the same mix of
    // conversations: with random draws the number of forks, and with
    // it the copy-on-write work, varied by half between seeds.
    const bool fork =
        tenant == 0 && goldenPoint(goldStarts_++, 0, 99) < forkPercent_;
    if (fork) {
        c.systemPrompt = static_cast<Index>(
            forks_ % systemSessions_.size());
        c.firstSteps = goldenPoint(forks_++, suffixMin_, suffixMax_);
        timedMs(ctx_.tracer, "frontend.fork", id, [&] {
            c.session = frontend_->forkSession(
                systemSessions_[static_cast<std::size_t>(c.systemPrompt)]);
        });
    } else {
        c.promptLen = goldenPoint(creates_++, promptMin_, promptMax_) - 1;
        const Matrix prompt = promptRows(c, c.promptLen);
        c.next = c.promptLen;
        ctx_.report.series[prefix_ + "create_ms"].push_back(
            timedMs(ctx_.tracer, "frontend.create", id, [&] {
                c.session = frontend_->createSession(tenant, prompt);
            }));
    }
    if (static_cast<std::size_t>(c.session) >= sessionConversation_.size())
        sessionConversation_.resize(
            static_cast<std::size_t>(c.session) + 1, -1);
    sessionConversation_[static_cast<std::size_t>(c.session)] = id;
    conversations_.push_back(std::move(c));
    return id;
}

void
OpenLoop::submit(Conversation &c, StepKind kind, double due)
{
    const Index row = poolRow(c, c.next++);
    const auto t = static_cast<std::size_t>(c.tenant);
    ++attempted_[t];
    cta::serve::Admission adm;
    timedMs(ctx_.tracer, "frontend.admit", c.session, [&] {
        adm = frontend_->admit(c.session, s_.pool.row(row));
    });
    if (adm.result != cta::serve::SubmitResult::Accepted) {
        ++failed_[t];
        return;
    }
    if (c.mirrored)
        c.stepRows.push_back(row);
    c.outstanding.push_back(Outstanding{due, kind});
    ++outstanding_;
}

void
OpenLoop::arrive(const cta::serve::Arrival &a)
{
    const auto slot = static_cast<std::size_t>(a.session);
    const double due = a.time;
    const Index tenant = slotTenant_[slot];
    Index conv = slotConversation_[slot];
    if (conv >= 0 &&
        conversations_[static_cast<std::size_t>(conv)].retiring)
        conv = -1;
    if (conv < 0) {
        conv = startConversation(tenant);
        slotConversation_[slot] = conv;
        Conversation &c = conversations_[static_cast<std::size_t>(conv)];
        for (Index k = 0; k < c.firstSteps; ++k)
            submit(c,
                   k + 1 == c.firstSteps ? StepKind::First : StepKind::Prompt,
                   due);
    } else {
        Conversation &c = conversations_[static_cast<std::size_t>(conv)];
        for (Index k = 0; k < a.steps; ++k)
            submit(c, StepKind::Decode, due);
    }
    Conversation &c = conversations_[static_cast<std::size_t>(conv)];
    if (++c.turns >= turnsPerConversation_)
        c.retiring = true;
    retireFinished(c);
}

void
OpenLoop::retireFinished(Conversation &c)
{
    if (c.retiring && !c.removed && c.outstanding.empty()) {
        frontend_->removeSession(c.session);
        c.removed = true;
    }
}

void
OpenLoop::flush(Clock::time_point start)
{
    std::vector<cta::serve::Completion> done;
    const double flush_ms = timedMs(
        ctx_.tracer, "frontend.flush", static_cast<std::int64_t>(flushes_),
        [&] { done = frontend_->flushOnce(); });
    const double now = secondsBetween(start, Clock::now());
    ++flushes_;
    flushedSteps_ += done.size();
    Report &rep = ctx_.report;
    const auto ok = std::count_if(
        done.begin(), done.end(), [](const cta::serve::Completion &c) {
            return c.status == cta::serve::StepStatus::Ok;
        });
    if (ok > 0) {
        rep.series[prefix_ + "flush_ms"].push_back(flush_ms);
        rep.series[prefix_ + "flush_steps_per_s"].push_back(
            static_cast<double>(ok) / (flush_ms / 1e3));
    }
    for (cta::serve::Completion &comp : done) {
        Conversation &c = conversations_[static_cast<std::size_t>(
            sessionConversation_[static_cast<std::size_t>(comp.session)])];
        const Outstanding o = c.outstanding.front();
        c.outstanding.pop_front();
        --outstanding_;
        const auto t = static_cast<std::size_t>(c.tenant);
        if (comp.status != cta::serve::StepStatus::Ok) {
            ++failed_[t];
            continue;
        }
        ++completed_[t];
        rep.series[prefix_ + "queue_wait_ms"].push_back(
            comp.queueWaitSeconds * 1e3);
        const double latency = now - o.due;
        if (o.kind == StepKind::Decode) {
            rep.series[prefix_ + "token_ms"].push_back(latency * 1e3);
            if (latency <= sloSeconds_)
                ++withinSlo_;
        } else if (o.kind == StepKind::First) {
            rep.series[prefix_ + "ttft_ms"].push_back(latency * 1e3);
        }
        if (c.mirrored)
            c.outputs.push_back(std::move(comp.output));
        retireFinished(c);
    }
    for (Index s = 0; s < frontend_->shardCount(); ++s)
        residentPeak_ = std::max(residentPeak_,
                                 frontend_->manager(s).residentBytes());
}

void
OpenLoop::run(double seconds)
{
    Report &rep = ctx_.report;
    const double open_s =
        std::max(0.1, seconds - ctx_.params.number("drain_s"));
    Index slots[std::size(kTenants)] = {};
    const auto arrivals = schedule(open_s, slots);
    for (std::size_t t = 0; t < std::size(kTenants); ++t)
        slotTenant_.insert(slotTenant_.end(),
                           static_cast<std::size_t>(slots[t]),
                           static_cast<Index>(t));
    slotConversation_.assign(slotTenant_.size(), -1);

    // Set-up repetitions run while the loop is idle, and the schedule
    // is shifted by their length, so no arrival becomes late on their
    // account. Arrivals not yet sent at the deadline are dropped, so
    // the run keeps its length.
    Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(open_s));
    std::size_t next = 0;
    for (;;) {
        const double now = secondsBetween(start, Clock::now());
        bool arrived = false;
        while (next < arrivals.size() && arrivals[next].time <= now &&
               Clock::now() < deadline) {
            const double late =
                secondsBetween(start, Clock::now()) - arrivals[next].time;
            rep.series[prefix_ + "late_ms"].push_back(late * 1e3);
            Scope span(ctx_.tracer, "serve.arrival",
                       static_cast<std::int64_t>(next));
            arrive(arrivals[next]);
            ++next;
            arrived = true;
        }
        if (outstanding_ > 0) {
            flush(start);
            continue;
        }
        if (arrived)
            continue;
        if (next >= arrivals.size() || Clock::now() >= deadline)
            break;
        if (const Clock::duration paused = ctx_.setupIfDue();
            paused > Clock::duration::zero()) {
            start += paused;
            continue;
        }
        // Idle: spin until the next arrival is due, so the CPU never
        // goes idle. Waking an idle CPU takes longer the busier the
        // host is, and every latency from due time would count it.
    }
    const double elapsed = secondsBetween(start, Clock::now());

    std::uint64_t attempted = 0, failed = 0;
    std::uint64_t shed_quota = 0, shed_deadline = 0, shed_dispatch = 0;
    for (std::size_t t = 0; t < std::size(kTenants); ++t) {
        const cta::serve::TenantCounters tc =
            frontend_->tenantCounters(static_cast<Index>(t));
        rep.check(prefix_ + std::string("tenant_accounting.") +
                      kTenants[t].name,
                  completed_[t] + failed_[t] == attempted_[t] &&
                      tc.submitted == attempted_[t] &&
                      tc.completed == completed_[t],
                  "attempted " + std::to_string(attempted_[t]) +
                      ", completed " + std::to_string(completed_[t]) +
                      ", failed " + std::to_string(failed_[t]));
        attempted += attempted_[t];
        failed += failed_[t];
        shed_quota += tc.shedQuota;
        shed_deadline += tc.shedDeadline;
        shed_dispatch += tc.shedDispatch();
    }
    rep.values["frontend.shed.quota"] = static_cast<double>(shed_quota);
    rep.values["frontend.shed.deadline"] = static_cast<double>(shed_deadline);
    rep.values["frontend.shed.dispatch"] = static_cast<double>(shed_dispatch);
    rep.attempted += attempted;
    rep.failed += failed;
    rep.values[prefix_ + "goodput_tok_s"] =
        static_cast<double>(withinSlo_) / elapsed;

    cta::serve::SessionManagerStats ms;
    for (Index s = 0; s < frontend_->shardCount(); ++s) {
        const auto st = frontend_->manager(s).stats();
        ms.evictions += st.evictions;
        ms.restores += st.restores;
        ms.forks += st.forks;
        ms.cowCopies += st.cowCopies;
        ms.sharedPageBytes += st.sharedPageBytes;
        ms.residentBytes += st.residentBytes;
    }
    rep.values["session.evictions"] = static_cast<double>(ms.evictions);
    rep.values["session.restores"] = static_cast<double>(ms.restores);
    rep.values["session.restore_per_step"] =
        static_cast<double>(ms.restores) /
        static_cast<double>(std::max<std::uint64_t>(1, attempted));
    rep.values["session.resident_mb_peak"] =
        static_cast<double>(residentPeak_) / (1024.0 * 1024.0);
    rep.values["session.shared_page_frac"] =
        ms.residentBytes == 0 ? 0
                              : static_cast<double>(ms.sharedPageBytes) /
                                    static_cast<double>(ms.residentBytes);
    rep.values["session.cow_copies"] = static_cast<double>(ms.cowCopies);
    rep.values["frontend.steps_per_flush"] =
        static_cast<double>(flushedSteps_) /
        static_cast<double>(std::max<std::uint64_t>(1, flushes_));
    rep.check(prefix_ + "exercised_evict_restore_fork",
              ms.evictions > 0 && ms.restores > 0 && ms.forks > 0,
              "evictions " + std::to_string(ms.evictions) + ", restores " +
                  std::to_string(ms.restores) + ", forks " +
                  std::to_string(ms.forks));
    replayMirrors();
}

void
OpenLoop::replayMirrors()
{
    std::uint64_t replayed = 0, diverged = 0;
    for (const Conversation &c : conversations_) {
        if (!c.mirrored)
            continue;
        cta::serve::DecodeSession mirror(s_.head, s_.config, s_.dim);
        if (c.systemPrompt >= 0)
            mirror.prefill(
                s_.systemPrompts[static_cast<std::size_t>(c.systemPrompt)]);
        else
            mirror.prefill(promptRows(c, c.promptLen));
        for (std::size_t k = 0; k < c.outputs.size(); ++k) {
            const Matrix out = mirror.step(s_.pool.row(c.stepRows[k]));
            ++replayed;
            if (!bitEqual(out, c.outputs[k]))
                ++diverged;
        }
    }
    ctx_.report.check(prefix_ + "mirrors_bit_identical",
                      replayed > 0 && diverged == 0,
                      std::to_string(replayed) + " steps replayed, " +
                          std::to_string(diverged) + " diverged");
}

} // namespace

void
runServeOpen(RunContext &ctx)
{
    const Setup s = repeatedSetup(
        ctx, [&] { return makeSetup(ctx); },
        [](const Setup &a, const Setup &b) {
            return a.config.cta.w1 == b.config.cta.w1 &&
                   bitEqual(a.pool, b.pool);
        });
    forEachPhase(ctx, [&](double seconds, const std::string &prefix) {
        OpenLoop loop(ctx, s, prefix);
        loop.run(seconds);
    });
}

} // namespace perfbench
