/**
 * @file
 * Benchmark harness: runs one workload for a fixed time and writes raw
 * samples, counts, output checks, the host block and (when tracing)
 * the recorded spans as JSON. perfbench/run.py builds this program,
 * runs it and turns its output into metrics.
 *
 *   perfbench_harness --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> --out <file> [--param key=value]...
 *
 * Exit status: 0 when every output check passed, 1 when one failed,
 * 2 on a usage error.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/backend.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "obs/trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_harness: %s\n"
                 "usage: perfbench_harness --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --out <file> "
                 "[--param key=value]...\n",
                 why);
    std::exit(2);
}

/**
 * Effective parallelism of @p threads spinning threads: their summed
 * loop iterations over one thread's, each spinning for the same wall
 * time. On a host with fewer real cores than vCPUs, or with busy
 * neighbours, this reads below the thread count; it drifts, so it is
 * measured at the start and at the end of a run. Single and pooled
 * spins alternate in short slices so that a slow stretch of the host
 * weighs on both sides alike.
 */
double
spinParallelism(int threads)
{
    constexpr double kSliceSeconds = 0.02;
    constexpr int kSlices = 5;
    const auto spin = [&](std::uint64_t *iterations) {
        const Clock::time_point end =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(kSliceSeconds));
        std::uint64_t n = 0;
        volatile std::uint64_t sink = 0;
        while (Clock::now() < end) {
            for (int i = 0; i < 1000; ++i)
                sink = sink + static_cast<std::uint64_t>(i);
            ++n;
        }
        *iterations += n;
    };
    std::uint64_t single = 0;
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(threads), 0);
    for (int slice = 0; slice < kSlices; ++slice) {
        spin(&single);
        std::vector<std::thread> workers;
        for (int t = 0; t < threads; ++t)
            workers.emplace_back(spin, &counts[static_cast<std::size_t>(t)]);
        for (auto &w : workers)
            w.join();
    }
    std::uint64_t total = 0;
    for (const auto c : counts)
        total += c;
    return single == 0 ? 0
                       : static_cast<double>(total) /
                             static_cast<double>(single);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
writeSeries(std::ofstream &out, const std::vector<double> &samples)
{
    out << '[';
    for (std::size_t i = 0; i < samples.size(); ++i)
        out << (i ? "," : "") << jsonNumber(samples[i]);
    out << ']';
}

struct Host
{
    unsigned nproc = 0;
    int pool = 0;
    double spinStart = 0;
    double spinEnd = 0;
    std::string simd;
    double fmaPeakGflops = 0;
    std::string backend;
};

void
writeReport(const std::string &path, const std::string &workload,
            const RunContext &ctx, const Host &host)
{
    std::ofstream out(path);
    const Report &r = ctx.report;
    out << "{\n\"workload\": " << jsonString(workload)
        << ",\n\"seed\": " << ctx.seed
        << ",\n\"seconds\": " << jsonNumber(ctx.seconds)
        << ",\n\"trace\": " << (ctx.trace ? "true" : "false");
    out << ",\n\"host\": {\"nproc\": " << host.nproc
        << ", \"pool\": " << host.pool
        << ", \"spin_parallelism_start\": " << jsonNumber(host.spinStart)
        << ", \"spin_parallelism_end\": " << jsonNumber(host.spinEnd)
        << ", \"simd\": " << jsonString(host.simd)
        << ", \"fma_peak_gflops\": " << jsonNumber(host.fmaPeakGflops)
        << ", \"backend\": " << jsonString(host.backend)
        << ", \"compiler\": " << jsonString(__VERSION__)
        << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
        << "}";
    out << ",\n\"attempted\": " << r.attempted
        << ",\n\"failed\": " << r.failed;
    out << ",\n\"setup_seconds\": ";
    writeSeries(out, r.setupSeconds);
    out << ",\n\"series\": {";
    bool first = true;
    for (const auto &[name, samples] : r.series) {
        out << (first ? "\n" : ",\n") << jsonString(name) << ": ";
        writeSeries(out, samples);
        first = false;
    }
    out << "},\n\"values\": {";
    first = true;
    for (const auto &[name, value] : r.values) {
        out << (first ? "\n" : ",\n") << jsonString(name) << ": "
            << jsonNumber(value);
        first = false;
    }
    out << "},\n\"checks\": [";
    first = true;
    for (const Check &c : r.checks) {
        out << (first ? "\n" : ",\n") << "{\"name\": "
            << jsonString(c.name)
            << ", \"ok\": " << (c.ok ? "true" : "false")
            << ", \"detail\": " << jsonString(c.detail) << "}";
        first = false;
    }
    out << "]";
    // Spans: [name, start_us, end_us, parent, request].
    out << ",\n\"spans\": [";
    const auto &spans = ctx.tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << (i ? ",\n" : "\n") << '[' << jsonString(s.name) << ','
            << jsonNumber(static_cast<double>(s.startNs) / 1e3) << ','
            << jsonNumber(static_cast<double>(s.endNs) / 1e3) << ','
            << s.parent << ',' << s.request << ']';
    }
    out << "]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, out_path;
    RunContext ctx;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value after " + arg).c_str());
        const std::string value = argv[++i];
        if (arg == "--workload") {
            workload = value;
        } else if (arg == "--seed") {
            ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
            have_seed = true;
        } else if (arg == "--seconds") {
            ctx.seconds = std::strtod(value.c_str(), nullptr);
            have_seconds = ctx.seconds > 0;
        } else if (arg == "--trace") {
            ctx.trace = value == "1";
            have_trace = value == "0" || value == "1";
        } else if (arg == "--out") {
            out_path = value;
        } else if (arg == "--param") {
            const auto eq = value.find('=');
            if (eq == std::string::npos)
                usage("--param takes key=value");
            ctx.params.set(value.substr(0, eq), value.substr(eq + 1));
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (workload.empty() || out_path.empty() || !have_seed ||
        !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds, --trace and --out are "
              "required");

    // Timed runs never record the library's own spans or metrics;
    // the benchmark's spans are its own and cost nothing untraced.
    cta::obs::setTraceEnabled(false);

    Host host;
    host.nproc = std::thread::hardware_concurrency();
    host.pool = cta::core::ThreadPool::global().threadCount();
    const int expected_pool =
        static_cast<int>(ctx.params.integer("pool"));
    if (host.pool != expected_pool) {
        std::fprintf(stderr, "perfbench_harness: pool has %d threads, "
                     "the workload asks for %d (set CTA_THREADS)\n",
                     host.pool, expected_pool);
        return 2;
    }
    host.simd = cta::core::simdLevelName(cta::core::activeSimdLevel());
    host.backend = cta::core::activeBackend().name();
    host.spinStart = spinParallelism(host.pool);
    host.fmaPeakGflops = cta::core::simdFmaPeakGflops();

    if (workload == "attn_batch")
        runAttnBatch(ctx);
    else if (workload == "decode_long")
        runDecodeLong(ctx);
    else if (workload == "serve_open")
        runServeOpen(ctx);
    else if (workload == "accel_sweep")
        runAccelSweep(ctx);
    else
        usage(("unknown workload " + workload).c_str());

    if (ctx.finishSetup)
        ctx.finishSetup();
    host.spinEnd = spinParallelism(host.pool);
    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
    ctx.report.values["peak_rss_mb"] =
        static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
    writeReport(out_path, workload, ctx, host);

    bool ok = true;
    for (const Check &c : ctx.report.checks) {
        if (!c.ok) {
            std::fprintf(stderr, "perfbench_harness: check failed: %s %s\n",
                         c.name.c_str(), c.detail.c_str());
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
