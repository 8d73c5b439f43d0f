"""Arithmetic of the repair-stack benchmark.

Turns the runner's raw document (operations, spans, layer values; see
runner.cpp) into the metrics BENCHMARK.json names. Kept apart from run.py so
that test_stats.py can check it on synthetic inputs.
"""
import math
import statistics

MB = 1e6
GB = 1e9

# End-to-end metrics: reported by every workload, from its untraced run.
# Times are in host-reference units: each cycle's wall time divided by the
# fixed reference work the runner times just before it (HostReference in
# runner.cpp), so that the shared host's speed drift cancels out.
END_TO_END = [
    ("cycle_norm.p50", "host_ref", "lower"),
    ("repair_MB_per_ref", "MB/host_ref", "higher"),
    ("cross_rack_blocks_per_repair", "blocks", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_MB", "MB", "lower"),
]

# The reference each workload's cycles are divided by: the threaded engines
# by the reference split over the thread pool, the rest by the
# single-threaded one.
REFERENCE = {
    "store-wave": "host_s",
    "engine-stream": "host_par_s",
    "fleet-sim": "host_s",
}

# Operation kinds that rebuild a lost block (their bytes are rebuilt bytes).
REPAIR_KINDS = {
    "store-wave": {"repair"},
    "engine-stream": {"testbed_slice", "tcp_slice", "testbed_whole",
                      "tcp_whole"},
    "fleet-sim": {"run_fleet"},
}

# Per-layer metrics: reported by every workload's traced run; 0 where the
# workload does not exercise the layer.
PER_LAYER = [
    ("gf.mul_region_add_multi.dram_GBps", "GB/s", "higher"),
    ("gf.mul_region_add_multi.cache_GBps", "GB/s", "higher"),
    ("digest.fnv1a64_GBps", "GB/s", "higher"),
    ("digest.s_per_stripe", "s", "lower"),
    ("rs.encode_stripe_s", "s", "lower"),
    ("plan.us", "us", "lower"),
    ("plan.ops", "count", "lower"),
    ("verify.online_us", "us", "lower"),
    ("verify.bound_us", "us", "lower"),
    ("exec_data.s_per_repair", "s", "lower"),
    ("exec_data.GBps", "GB/s", "higher"),
    ("simnet.simulate_s", "s", "lower"),
    ("simnet.tasks", "count", "lower"),
    ("simnet.tasks_per_s", "1/s", "higher"),
    ("sched.queue_depth_max", "count", "lower"),
    ("sched.admission_wait_s.p50", "sim_s", "lower"),
    ("sched.reads.healthy", "count", "higher"),
    ("sched.reads.committed", "count", "lower"),
    ("sched.reads.banked", "count", "higher"),
    ("sched.reads.promoted", "count", "lower"),
    ("sched.reads.commit_wait", "count", "lower"),
    ("exec.stream_combine_us_per_slice", "us", "lower"),
    ("testbed.slice.combine_latency_s.p50", "s", "lower"),
    ("testbed.slice.cross_latency_s.p50", "s", "lower"),
    ("testbed.slice.inner_latency_s.p50", "s", "lower"),
    ("testbed.bytes_in_flight_peak_MB", "MB", "lower"),
    ("net.loopback_GBps", "GB/s", "higher"),
    ("tcp.slice.combine_latency_s.p50", "s", "lower"),
    ("tcp.slice.cross_latency_s.p50", "s", "lower"),
    ("tcp.conn.reuse_ratio", "ratio", "higher"),
    ("storage.put.self_s", "s", "lower"),
    ("storage.repair.self_s", "s", "lower"),
    ("storage.read.self_s", "s", "lower"),
    ("storage.repair.residual_pct", "%", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
    ("host.reference_s", "s", "lower"),
    ("seed.fnv1a64_64MiB_GBps", "GB/s", "higher"),
    ("seed.mul_region_add_64MiB_GBps", "GB/s", "higher"),
    ("seed.put_ms", "ms", "lower"),
    ("seed.put_hash_ms", "ms", "lower"),
    ("seed.repair_ms", "ms", "lower"),
    ("seed.repair_gf_ms", "ms", "lower"),
    ("seed.repair_digest_ms", "ms", "lower"),
    ("seed.repair_over_gf_digest_x", "x", "lower"),
    ("seed.tcp_combine_us_per_slice", "us", "lower"),
    ("store.put_MBps", "MB/s", "higher"),
    ("store.repair_MBps", "MB/s", "higher"),
    ("store.degraded_read_s.p50", "s", "lower"),
    ("store.healthy_read_s.p50", "s", "lower"),
    ("engine.testbed_repair_s.p50", "s", "lower"),
    ("engine.tcp_repair_s.p50", "s", "lower"),
    ("engine.testbed_whole_repair_s.p50", "s", "lower"),
    ("engine.tcp_whole_repair_s.p50", "s", "lower"),
    ("fleet.wall_s", "s", "lower"),
    ("fleet.wave_complete_s", "sim_s", "lower"),
    ("fleet.fg_read_p99_s", "sim_s", "lower"),
]

# Percentiles considered for the tail report, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


# --- basic statistics -------------------------------------------------------

def percentile(values, p):
    """Linear-interpolated percentile p (0..100) of a non-empty sequence."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = p / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest percentile that leaves at least ten of n samples above it,
    or None when even the median does not (n < 20)."""
    for p in TAIL_CANDIDATES:
        if round(n * (100.0 - p), 6) >= 1000.0:  # n * (1 - p/100) >= 10
            return p
    return None


def summarize(values):
    """p50, sample count, and the tail percentile the sample supports."""
    n = len(values)
    out = {"n": n, "p50": percentile(values, 50.0) if n else None}
    p = tail_percentile(n)
    out["tail"] = (None if p is None else
                   {"p": p, "value": percentile(values, p)})
    return out


def mb_per_s(nbytes, seconds):
    """Megabytes (1e6 bytes) per second."""
    if seconds <= 0:
        raise ValueError("rate over a non-positive time")
    return nbytes / MB / seconds


def gb_per_s(nbytes, seconds):
    if seconds <= 0:
        raise ValueError("rate over a non-positive time")
    return nbytes / GB / seconds


def share(part, total):
    """part / total, 0 when total is 0."""
    return part / total if total else 0.0


def failures(ops):
    """(attempted, failed, failed share) over operation records."""
    attempted = len(ops)
    failed = sum(1 for o in ops if not o["ok"])
    return attempted, failed, share(failed, attempted)


# --- spans ------------------------------------------------------------------

def span_duration(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Self time of every span: its duration minus its children's.

    Children are the spans naming it as parent. They need not lie inside
    its interval: the runner replays an operation's layer calls right after
    the operation, so they are attributed to it rather than nested in it.
    """
    child_time = {}
    for s in spans:
        if s["parent"]:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0) +
                                       span_duration(s))
    return {s["id"]: span_duration(s) - child_time.get(s["id"], 0.0)
            for s in spans}


def _median(xs):
    return statistics.median(xs) if xs else 0.0


# --- metrics ----------------------------------------------------------------

def _cycle_sums(ops, phase):
    """(cycle index, wall time) of each closed-loop cycle of a phase: the
    sum of its operations' times."""
    cycles = {}
    for o in ops:
        if o["phase"] == phase:
            cycles[o["cycle"]] = cycles.get(o["cycle"], 0.0) + o["s"]
    return sorted(cycles.items())


def cycle_times(ops, phase):
    return [t for _, t in _cycle_sums(ops, phase)]


def host_reference(raw):
    """The workload's host-reference times, indexed by cycle."""
    return raw[REFERENCE[raw["workload"]]]


def normalized_cycle_times(raw, phase):
    """Each cycle's wall time divided by the host-reference time measured
    just before it."""
    host = host_reference(raw)
    return [t / host[c] for c, t in _cycle_sums(raw["ops"], phase)]


def op_seconds(ops, phase, kinds):
    return [o["s"] for o in ops if o["phase"] == phase and o["kind"] in kinds]


def end_to_end(raw):
    """The end-to-end metrics of an untraced run, as {name: value}."""
    kinds = REPAIR_KINDS[raw["workload"]]
    host = host_reference(raw)
    repair_ops = [o for o in raw["ops"] if o["phase"] == "plain" and
                  o["kind"] in kinds]
    return {
        "cycle_norm.p50": percentile(normalized_cycle_times(raw, "plain"),
                                     50.0),
        "repair_MB_per_ref": mb_per_s(
            sum(o["bytes"] for o in repair_ops),
            sum(o["s"] / host[o["cycle"]] for o in repair_ops)),
        "cross_rack_blocks_per_repair":
            raw["layers"]["cross_rack_blocks_per_repair"],
        "setup_s": percentile(raw["setup_s"], 50.0),
        "peak_rss_MB": raw["peak_rss_kb"] * 1024 / MB,
    }


def details(raw):
    """The workload's per-operation numbers from its untraced phase: p50
    with sample count and tail, and the rates the workload defines."""
    ops = raw["ops"]
    out = {"cycle_s": summarize(cycle_times(ops, "plain")),
           "host_reference_s": summarize(host_reference(raw))}
    for kind in sorted({o["kind"] for o in ops if o["s"] > 0}):
        out[kind + "_s"] = summarize(op_seconds(ops, "plain", {kind}))
    return out


def _spans_named(spans, name, parents=None):
    return [s for s in spans if s["name"] == name and
            (parents is None or s["parent"] in parents)]


def per_layer(raw):
    """The per-layer metrics of a traced run, as {name: value}."""
    spans = raw["spans"]
    layers = raw["layers"]
    ops = raw["ops"]
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    ids = {}
    for s in spans:
        ids.setdefault(s["name"], set()).add(s["id"])
    repair_ids = ids.get("storage.repair", set())
    put_ids = ids.get("storage.put", set())
    selfs = self_times(spans)

    def rate(name, parents=None):
        return _median([gb_per_s(s["bytes"], span_duration(s))
                        for s in _spans_named(spans, name, parents)
                        if span_duration(s) > 0])

    def dur(name, parents=None, scale=1.0):
        return _median([span_duration(s) * scale
                        for s in _spans_named(spans, name, parents)])

    values["gf.mul_region_add_multi.dram_GBps"] = rate(
        "gf.mul_region_add_multi.16MiB")
    values["gf.mul_region_add_multi.cache_GBps"] = rate(
        "gf.mul_region_add_multi.64KiB")
    digests = [s for s in spans if s["name"].startswith("digest.")]
    values["digest.fnv1a64_GBps"] = _median(
        [gb_per_s(s["bytes"], span_duration(s)) for s in digests])
    stripe_bytes = 16 * 16 * 2**20  # one RS(12,4) stripe of 16 MiB blocks
    values["digest.s_per_stripe"] = _median(
        [span_duration(s) / s["bytes"] * stripe_bytes
         for s in _spans_named(spans, "digest.stripe")])
    values["rs.encode_stripe_s"] = dur("rs.encode_stripe")
    values["plan.us"] = dur("plan", scale=1e6)
    values["plan.ops"] = _median([s["items"] for s in
                                  _spans_named(spans, "plan")])
    values["verify.online_us"] = dur("verify.online", scale=1e6)
    values["verify.bound_us"] = dur("verify.bound", scale=1e6)
    values["exec_data.s_per_repair"] = dur("exec_data", repair_ids)
    values["exec_data.GBps"] = rate("exec_data", parents=repair_ids)
    values["simnet.simulate_s"] = dur("simnet.simulate", repair_ids | {0})

    fleet_calls = op_seconds(ops, "traced", {"run_fleet"})
    if fleet_calls:
        calls = len(fleet_calls)
        values["simnet.tasks"] = layers.get("sim.tasks", 0.0) / calls
        values["simnet.tasks_per_s"] = (values["simnet.tasks"] /
                                        statistics.median(fleet_calls))
        for path in ("healthy", "committed", "banked", "promoted",
                     "commit_wait"):
            values["sched.reads." + path] = (
                layers.get("sched.reads." + path, 0.0) / calls)
    values["sched.queue_depth_max"] = layers.get("sched.queue_depth", 0.0)
    values["sched.admission_wait_s.p50"] = layers.get(
        "sched.admission_wait_s.p50", 0.0)

    values["exec.stream_combine_us_per_slice"] = _median(
        [span_duration(s) / s["items"] * 1e6
         for s in _spans_named(spans, "exec.stream_combine") if s["items"]])
    for name in ("testbed.slice.combine_latency_s.p50",
                 "testbed.slice.cross_latency_s.p50",
                 "testbed.slice.inner_latency_s.p50",
                 "tcp.slice.combine_latency_s.p50",
                 "tcp.slice.cross_latency_s.p50"):
        values[name] = layers.get(name, 0.0)
    values["testbed.bytes_in_flight_peak_MB"] = (
        layers.get("testbed.bytes_in_flight_peak", 0.0) / MB)
    values["net.loopback_GBps"] = rate("net.loopback")
    opened = layers.get("tcp.conn.opened", 0.0)
    reused = layers.get("tcp.conn.reused", 0.0)
    values["tcp.conn.reuse_ratio"] = share(reused, opened + reused)

    values["storage.put.self_s"] = _median([selfs[i] for i in put_ids])
    values["storage.repair.self_s"] = _median([selfs[i] for i in repair_ids])
    values["storage.read.self_s"] = _median(
        [selfs[i] for i in ids.get("storage.read_block.degraded", set())])
    repairs = _spans_named(spans, "storage.repair")
    values["storage.repair.residual_pct"] = _median(
        [100.0 * share(selfs[s["id"]], span_duration(s)) for s in repairs])

    plain = normalized_cycle_times(raw, "plain")
    traced = normalized_cycle_times(raw, "traced")
    if plain and traced:
        base = statistics.median(plain)
        values["obs.trace_overhead_pct"] = (
            100.0 * (statistics.median(traced) - base) / base)

    # The ROADMAP's seed findings, as named numbers.
    values["seed.fnv1a64_64MiB_GBps"] = rate("seed.fnv1a64.64MiB")
    values["seed.mul_region_add_64MiB_GBps"] = rate("seed.mul_region_add.64MiB")
    values["seed.put_ms"] = dur("storage.put", scale=1e3)
    values["seed.put_hash_ms"] = dur("digest.stripe", put_ids, scale=1e3)
    values["seed.repair_ms"] = dur("storage.repair", scale=1e3)
    values["seed.repair_gf_ms"] = dur("gf.repair_equation", scale=1e3)
    digest_per_repair = {}
    for s in digests:
        if s["parent"] in repair_ids:
            digest_per_repair[s["parent"]] = (
                digest_per_repair.get(s["parent"], 0.0) + span_duration(s))
    values["seed.repair_digest_ms"] = 1e3 * _median(
        list(digest_per_repair.values()))
    explained = values["seed.repair_gf_ms"] + values["seed.repair_digest_ms"]
    values["seed.repair_over_gf_digest_x"] = share(values["seed.repair_ms"],
                                                   explained)
    values["seed.tcp_combine_us_per_slice"] = 1e6 * layers.get(
        "tcp.slice.combine_latency_s.mean", 0.0)

    # The workload's own per-operation numbers, from the untraced half.
    def p50(kinds):
        xs = op_seconds(ops, "plain", kinds)
        return percentile(xs, 50.0) if xs else 0.0

    def plain_rate(kind):
        xs = [o for o in ops if o["phase"] == "plain" and o["kind"] == kind]
        secs = sum(o["s"] for o in xs)
        return mb_per_s(sum(o["bytes"] for o in xs), secs) if secs else 0.0

    values["store.put_MBps"] = plain_rate("put")
    values["store.repair_MBps"] = plain_rate("repair")
    values["store.degraded_read_s.p50"] = p50({"read_degraded"})
    values["store.healthy_read_s.p50"] = p50({"read_healthy"})
    values["engine.testbed_repair_s.p50"] = p50({"testbed_slice"})
    values["engine.tcp_repair_s.p50"] = p50({"tcp_slice"})
    values["engine.testbed_whole_repair_s.p50"] = p50({"testbed_whole"})
    values["engine.tcp_whole_repair_s.p50"] = p50({"tcp_whole"})
    values["fleet.wall_s"] = p50({"run_fleet"})
    values["fleet.wave_complete_s"] = layers.get("fleet.wave_complete_s", 0.0)
    values["fleet.fg_read_p99_s"] = layers.get("fleet.fg_read_p99_s", 0.0)
    values["host.reference_s"] = _median(host_reference(raw))

    return {k: (v if isinstance(v, (int, float)) and math.isfinite(v) else 0.0)
            for k, v in values.items()}


def result(raw):
    """The benchmark's last output line, as a dict."""
    attempted, failed, _ = failures(raw["ops"])
    if raw["trace"]:
        catalog, values = PER_LAYER, per_layer(raw)
    else:
        catalog, values = END_TO_END, end_to_end(raw)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in catalog},
    }
