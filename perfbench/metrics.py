"""Statistics, span summary and metric assembly for the benchmark.

The harness program writes raw samples, counts and spans; everything
statistical happens here, so the rules are in one place and testable:

- ``tail``: a timing is printed as its median and the highest
  percentile of a fixed ladder that still has at least ten samples
  beyond it, with the sample count.
- ``span_table``: per span name, calls, total time and self time (the
  span's duration minus the part of it its child spans cover).
- ``end_to_end`` / ``per_layer``: the metrics BENCHMARK.json names,
  computed from one harness result.
"""

import math
import statistics

# Percentile levels a tail may be reported at, lowest first.
LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10

MODELS = ("cta", "elsa", "a3", "leopard", "gpu", "ideal")
CTA_MODULES = ("SA", "CIM", "CAG", "PAG")
LENGTHS = ("n512", "n2048")

# Which harness series feed the end-to-end slots, per workload: "op" is
# the workload's headline operation, "ref" its second timed operation,
# "rate" a throughput the program sets and no other slot carries. Each
# slot is the median of its series; a rate series holds one throughput
# per call, round, flush or sweep, because a mean over the run moved
# with every stall of a shared host (decode tokens/s over whole epochs
# spread 0.6 between runs). serve_open's slots time single calls, not
# latencies from due time: a latency spans every stall of the host that
# falls between a token's due time and its completion, and over ten
# runs its median spread 0.26-0.37, past any usable bound, while a
# stall lands in few of the short calls (token latency and TTFT are
# printed by name).
SLOTS = {
    "attn_batch": {"op": "cta_ms_n2048", "ref": "exact_ms_n2048",
                   "rate": "cta_tok_s_n512"},
    "decode_long": {"op": "token_gap_ms", "ref": "prefill_ms",
                    "rate": "round_tok_s"},
    "serve_open": {"op": "flush_ms", "ref": "create_ms",
                   "rate": "flush_steps_per_s"},
    "accel_sweep": {"op": "sweep_ms", "ref": "dse_ms",
                    "rate": "runs_per_s"},
}

# Tails are printed for every timing but not gated: on a shared host
# their run-to-run spread is several times any usable bound.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_p50_ms", "ms"),
    ("ref_p50_ms", "ms"),
    ("rate_per_s", "1/s"),
)

# Figures printed by name beside the end-to-end slots, per workload:
# (name, unit, kind, key), kind "series" (a timing: median and tail) or
# "value" (a harness value).
NAMED = {
    "attn_batch": [
        ("cta_ms_n512", "ms", "series", "cta_ms_n512"),
        ("cta_ms_n2048", "ms", "series", "cta_ms_n2048"),
        ("exact_ms_n512", "ms", "series", "exact_ms_n512"),
        ("exact_ms_n2048", "ms", "series", "exact_ms_n2048"),
        ("cosine_mean.n512", "1", "value", "cosine_mean.n512"),
        ("cosine_mean.n2048", "1", "value", "cosine_mean.n2048"),
    ],
    "decode_long": [
        ("prefill_tok_s", "tok/s", "value", "prefill_tok_s"),
        ("decode_tok_s", "tok/s", "value", "decode_tok_s"),
        ("token_gap_ms", "ms", "series", "token_gap_ms"),
        ("prefill_ms", "ms", "series", "prefill_ms"),
    ],
    "serve_open": [
        ("token_ms", "ms", "series", "token_ms"),
        ("ttft_ms", "ms", "series", "ttft_ms"),
        ("goodput_tok_s", "tok/s", "value", "goodput_tok_s"),
        ("flush_ms", "ms", "series", "flush_ms"),
        ("create_ms", "ms", "series", "create_ms"),
        ("flush_steps_per_s", "1/s", "series", "flush_steps_per_s"),
    ],
    "accel_sweep": [
        ("sweep_ms", "ms", "series", "sweep_ms"),
        ("run_ms", "ms", "series", "run_ms"),
        ("dse_ms", "ms", "series", "dse_ms"),
    ],
}


def _per_layer_specs():
    """(name, unit, source) of every per-layer metric. Sources:
    ("span", name, scale) median span duration in ms times scale;
    ("span_tail", name) tail of span durations in ms;
    ("value", key) a harness value; ("series_p50"/"series_tail", key)
    a traced-phase series; ("derived", key) computed here."""
    specs = [
        ("core.linear_gflops", "GFLOP/s", ("value", "core.linear_gflops")),
        ("core.linear_peak_frac", "1", ("derived", "linear_peak_frac")),
        ("nn.exact_gflops", "GFLOP/s", ("value", "nn.exact_gflops")),
    ]
    for n in LENGTHS:
        for stage in ("hash", "compress_kv", "compress_q",
                      "from_compression", "linears", "pag"):
            specs.append((f"cta.{stage}_ms.{n}", "ms",
                          ("span", f"cta.{stage}.{n}", 1.0)))
        for k in ("k0", "k1", "k2"):
            specs.append((f"cta.{k}.{n}", "count", ("value", f"cta.{k}.{n}")))
        specs += [
            (f"cta.relations_kept.{n}", "1",
             ("value", f"cta.relations_kept.{n}")),
            (f"cta.cosine_mean.{n}", "1", ("value", f"cosine_mean.{n}")),
            (f"cta.gflop.{n}", "GFLOP", ("value", f"cta.gflop.{n}")),
            (f"exact.gflop.{n}", "GFLOP", ("value", f"exact.gflop.{n}")),
        ]
    specs += [
        ("serve.prefill_ms", "ms", ("span", "serve.prefill", 1.0)),
        ("serve.step_us", "us", ("span", "session.step", 1e3)),
        ("serve.pairs", "count", ("value", "serve.pairs")),
        ("serve.k1", "count", ("value", "serve.k1")),
        ("serve.k2", "count", ("value", "serve.k2")),
        ("serve.step_gflop", "GFLOP", ("value", "serve.step_gflop")),
        ("serve.state_kb", "KiB", ("value", "serve.state_kb")),
        ("serve.flush_ms_p50", "ms", ("span", "batcher.flush", 1.0)),
        ("serve.flush_ms_tail", "ms", ("span_tail", "batcher.flush")),
        ("serve.flush_speedup", "x", ("value", "serve.flush_speedup")),
        ("session.evictions", "count", ("value", "session.evictions")),
        ("session.restores", "count", ("value", "session.restores")),
        ("session.restore_per_step", "1",
         ("value", "session.restore_per_step")),
        ("session.resident_mb_peak", "MiB",
         ("value", "session.resident_mb_peak")),
        ("session.shared_page_frac", "1",
         ("value", "session.shared_page_frac")),
        ("session.cow_copies", "count", ("value", "session.cow_copies")),
        ("frontend.flush_ms", "ms", ("span", "frontend.flush", 1.0)),
        ("frontend.queue_wait_ms", "ms", ("series_p50", "queue_wait_ms")),
        ("frontend.steps_per_flush", "count",
         ("value", "frontend.steps_per_flush")),
        ("frontend.admit_us", "us", ("span", "frontend.admit", 1e3)),
        ("frontend.create_ms", "ms", ("span", "frontend.create", 1.0)),
        ("frontend.fork_ms", "ms", ("span", "frontend.fork", 1.0)),
        ("frontend.shed.quota", "count", ("value", "frontend.shed.quota")),
        ("frontend.shed.deadline", "count",
         ("value", "frontend.shed.deadline")),
        ("frontend.shed.dispatch", "count",
         ("value", "frontend.shed.dispatch")),
        ("loadgen.late_tail_ms", "ms", ("series_tail", "late_ms")),
    ]
    for m in MODELS:
        specs.append((f"accel.run_ms.{m}", "ms",
                      ("span", f"accel.run.{m}", 1.0)))
    specs.append(("accel.dse_ms", "ms", ("span", "accel.dse", 1.0)))
    for m in MODELS:
        specs.append((f"accel.cycles.{m}", "cycles",
                      ("value", f"accel.cycles.{m}")))
    for mod in CTA_MODULES:
        specs.append((f"accel.cycles.cta.{mod}", "cycles",
                      ("value", f"accel.cycles.cta.{mod}")))
    specs += [
        ("accel.cta_speedup_vs_gpu", "x",
         ("value", "accel.cta_speedup_vs_gpu")),
        ("trace.overhead_ms", "ms", ("derived", "overhead_ms")),
        ("trace.spans", "count", ("derived", "spans")),
    ]
    return specs


PER_LAYER = tuple(_per_layer_specs())


# --- statistics ----------------------------------------------------------

def median(samples):
    return statistics.median(samples) if samples else 0.0


def _rank(count, level):
    """1-based nearest rank of a percentile level (at most one decimal),
    in integer arithmetic so 99.9% of 10000 is exactly rank 9990."""
    tenths = round(level * 10)
    return max(1, -(-tenths * count // 1000))


def percentile(samples, level):
    """Nearest-rank percentile: the smallest sample with at least
    level% of the samples at or below it."""
    return sorted(samples)[_rank(len(samples), level) - 1]


def beyond(count, level):
    """Samples strictly above the nearest-rank percentile at level."""
    return count - _rank(count, level)


def tail(samples):
    """(level, value) of the highest ladder percentile with at least
    MIN_BEYOND samples beyond it, or None when even p75 has fewer."""
    best = None
    for level in LADDER:
        if beyond(len(samples), level) >= MIN_BEYOND:
            best = level
    if best is None:
        return None
    return best, percentile(samples, best)


def format_timing(name, unit, samples):
    """A timing as its median and tail, with the sample count."""
    p50, t = median(samples), tail(samples)
    if t is None:
        return (f"{name} = {p50:.4g} {unit} (p50 of {len(samples)} samples;"
                f" too few for a tail)")
    return (f"{name} = {p50:.4g} {unit} (p50; p{t[0]:g} {t[1]:.4g} {unit};"
            f" {len(samples)} samples)")


# --- spans ---------------------------------------------------------------

def _union_length(intervals):
    total, end = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans):
    """Self time of every span, in the spans' unit: its duration minus
    the union of its children's intervals clipped to its own."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        parent = span[3]
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = _union_length(
            (max(start, spans[c][1]), min(end, spans[c][2]))
            for c in children[i] if spans[c][2] > start and spans[c][1] < end)
        out.append((end - start) - covered)
    return out


def span_table(spans):
    """Rows {name, calls, total_ms, self_ms}, largest total first.
    Spans are [name, start_us, end_us, parent, request]."""
    selfs = self_times(spans)
    rows = {}
    for span, self_us in zip(spans, selfs):
        row = rows.setdefault(span[0], {"name": span[0], "calls": 0,
                                        "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += (span[2] - span[1]) / 1e3
        row["self_ms"] += self_us / 1e3
    return sorted(rows.values(), key=lambda r: -r["total_ms"])


def format_span_table(rows, wall_ms):
    """The per-layer table. Each share is printed with its base."""
    lines = [f"{'span':34} {'calls':>7} {'total ms':>11} {'self ms':>11}"
             f"  self share of span total / of traced wall {wall_ms:.1f} ms"]
    for r in rows:
        share = r["self_ms"] / r["total_ms"] if r["total_ms"] > 0 else 0.0
        lines.append(f"{r['name']:34} {r['calls']:7d} {r['total_ms']:11.3f}"
                     f" {r['self_ms']:11.3f}  {100 * share:5.1f}% of "
                     f"{r['total_ms']:.3f} ms / {100 * r['self_ms'] / wall_ms:5.1f}%"
                     f" of {wall_ms:.1f} ms")
    return lines


def durations_ms(spans, name):
    return [(s[2] - s[1]) / 1e3 for s in spans if s[0] == name]


def traced_wall_ms(spans):
    roots = [(s[1], s[2]) for s in spans if s[3] < 0]
    return _union_length(roots) / 1e3


# --- metric assembly -----------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(result):
    """The end-to-end metrics of an untraced harness result."""
    slots = SLOTS[result["workload"]]
    series, values = result["series"], result["values"]
    computed = {
        "setup_s": median(result["setup_seconds"]),
        "peak_rss_mb": values["peak_rss_mb"],
        "op_p50_ms": median(series[slots["op"]]),
        "ref_p50_ms": median(series[slots["ref"]]),
        "rate_per_s": median(series[slots["rate"]]),
    }
    return {name: _metric(computed[name], unit) for name, unit in END_TO_END}


def per_layer(result):
    """The per-layer metrics of a traced harness result. Layers the
    workload does not exercise read 0 (no calls, no counts)."""
    spans, values = result["spans"], result["values"]
    series = result["series"]
    op = SLOTS[result["workload"]]["op"]
    derived = {
        "linear_peak_frac": (values.get("core.linear_gflops", 0.0) /
                             result["host"]["fma_peak_gflops"]),
        "overhead_ms": (median(series.get("traced:" + op, [])) -
                        median(series.get(op, []))),
        "spans": float(len(spans)),
    }
    out = {}
    for name, unit, source in PER_LAYER:
        kind, key = source[0], source[1]
        if kind == "span":
            value = median(durations_ms(spans, key)) * source[2]
        elif kind == "span_tail":
            t = tail(durations_ms(spans, key))
            value = t[1] if t else 0.0
        elif kind == "value":
            value = values.get(key, 0.0)
        elif kind == "series_p50":
            value = median(series.get("traced:" + key, []))
        elif kind == "series_tail":
            t = tail(series.get("traced:" + key, []))
            value = t[1] if t else 0.0
        else:
            value = derived[key]
        out[name] = _metric(value, unit)
    return out


def validate_result_line(line, metric_names):
    """Checks a printed result line against the output schema; returns
    a list of problems (empty when valid)."""
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(line)}")
        return problems
    if not isinstance(line["correct"], bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(line[key], int) or isinstance(line[key], bool):
            problems.append(f"{key} is not an integer")
    if isinstance(line["attempted"], int) and line["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = line["metrics"]
    if set(metrics) != set(metric_names):
        problems.append("metric names differ: missing "
                        f"{sorted(set(metric_names) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(metric_names))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"}:
            problems.append(f"{name}: keys {sorted(m)}")
        elif not isinstance(m["value"], (int, float)) or isinstance(
                m["value"], bool) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m['value']!r}")
        elif metric_names.get(name) != m["unit"]:
            problems.append(f"{name}: unit {m['unit']!r}")
    return problems
