#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "cta/config.h"

namespace perfbench {

void
Params::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

double
Params::number(const std::string &key) const
{
    const auto it = values_.find(key);
    if (it == values_.end()) {
        std::fprintf(stderr, "perfbench: missing parameter '%s'\n",
                     key.c_str());
        std::exit(2);
    }
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0') {
        std::fprintf(stderr, "perfbench: parameter '%s' is not a "
                     "number: '%s'\n", key.c_str(), it->second.c_str());
        std::exit(2);
    }
    return v;
}

long
Params::integer(const std::string &key) const
{
    const double v = number(key);
    if (v != static_cast<double>(static_cast<long>(v))) {
        std::fprintf(stderr, "perfbench: parameter '%s' is not an "
                     "integer\n", key.c_str());
        std::exit(2);
    }
    return static_cast<long>(v);
}

int
Tracer::open(const char *name, std::int64_t request,
             Clock::time_point start)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       start - epoch_).count();
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    // A child without its own id inherits the request of its parent.
    if (span.request < 0 && span.parent >= 0)
        span.request =
            spans_[static_cast<std::size_t>(span.parent)].request;
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
Tracer::close(int index, Clock::time_point end)
{
    if (index < 0)
        return;
    spans_[static_cast<std::size_t>(index)].endNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
            .count();
    // Scopes nest, so the span closed is the innermost open one.
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

Scope::Scope(Tracer &tracer, const char *name, std::int64_t request)
    : tracer_(tracer), start_(Clock::now())
{
    index_ = tracer_.open(name, request, start_);
}

Scope::~Scope()
{
    stop();
}

double
Scope::stop()
{
    if (elapsedMs_ < 0) {
        const Clock::time_point end = Clock::now();
        tracer_.close(index_, end);
        elapsedMs_ = secondsBetween(start_, end) * 1e3;
    }
    return elapsedMs_;
}

Clock::duration
RunContext::setupIfDue()
{
    const Clock::time_point now = Clock::now();
    if (!setupOnce || now < setupDueAt)
        return Clock::duration::zero();
    setupOnce();
    const Clock::time_point done = Clock::now();
    setupDueAt = done + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(kSetupEverySeconds));
    return done - now;
}

void
Report::check(const std::string &name, bool ok, const std::string &detail)
{
    checks.push_back(Check{name, ok, detail});
}

bool
bitEqual(const cta::core::Matrix &a, const cta::core::Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    const auto count = static_cast<std::size_t>(a.rows()) *
                       static_cast<std::size_t>(a.cols());
    return count == 0 ||
           std::memcmp(a.data(), b.data(),
                       count * sizeof(cta::core::Real)) == 0;
}

cta::alg::CtaConfig
calibrateOnDocuments(const std::vector<cta::core::Matrix> &documents,
                     cta::core::Index rows)
{
    std::vector<double> w0, w1, w2;
    cta::alg::CtaConfig config;
    for (const cta::core::Matrix &doc : documents) {
        cta::core::Matrix sample(std::min(rows, doc.rows()), doc.cols());
        std::copy(doc.data(), doc.data() + sample.rows() * sample.cols(),
                  sample.data());
        config = cta::alg::calibrate(sample, sample,
                                     cta::alg::Preset::Cta05, 6,
                                     /*seed=*/7);
        w0.push_back(config.w0);
        w1.push_back(config.w1);
        w2.push_back(config.w2);
    }
    config.w0 = static_cast<cta::core::Real>(median(w0));
    config.w1 = static_cast<cta::core::Real>(median(w1));
    config.w2 = static_cast<cta::core::Real>(median(w2));
    return config;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0;
    const std::size_t mid = samples.size() / 2;
    std::nth_element(samples.begin(), samples.begin() + mid,
                     samples.end());
    const double hi = samples[mid];
    if (samples.size() % 2 == 1)
        return hi;
    const double lo =
        *std::max_element(samples.begin(), samples.begin() + mid);
    return (lo + hi) / 2;
}

} // namespace perfbench
