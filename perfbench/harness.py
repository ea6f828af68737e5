"""Parent side of the benchmark: one contained child per round.

Load model: a closed loop with one caller.  The ops of a round run one after
another in a single-threaded child, and only one child runs at a time.  Each
round starts a fresh child, so the lru caches start cold, as they do for
every CLI call; inside a round the ops share caches as a user's session does.
"""

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed
from checks import check_finite
from tracer import CACHES, COUNTERS, LAYERS
from workloads import make_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = HERE / "out"

MEMORY_CAP = 2 << 30  # RLIMIT_AS of every measured child, in bytes
ROUND_TIMEOUT = 120.0  # seconds before a round's child is killed
DEADLINE = 165.0  # seconds after which no round may still be running
END_TO_END = {"wall_s": "s", "setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MiB"}
SETUP_BATCH = 4  # set-up-only children before each round and after the last


@dataclass
class Round:
    """What one child did.  Unfinished ops count as attempted and failed."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    setup_cpu_s: float = None  # CPU seconds from interpreter start to ready
    setup_s: float = None  # the same at reference speed (see speed.py)
    spawn_s: float = None  # wall seconds from spawn to ready
    wall_s: float = None  # first op's start to last op's end, less sampling
    latencies: list = field(default_factory=list)  # own seconds of each op
    ref_latencies: list = field(default_factory=list)  # the same at reference speed
    digest: str = None
    data: list = field(default_factory=list)
    maxrss_kb: int = None
    caches: dict = None
    trace: dict = None
    elapsed_s: float = 0.0


def _child_env():
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        # keep the CLI away from the user's config file
        "STANSYM_CONFIG": str(OUT / "no-such-config.json"),
    }


def _parse_lines(raw):
    lines = []
    for text in raw.decode(errors="replace").splitlines():
        try:
            lines.append(json.loads(text))
        except json.JSONDecodeError:
            pass  # the last line of a killed child may be cut off
    return lines


def run_round(ops, trace=False, setup_only=False, memory_cap=MEMORY_CAP,
              timeout=ROUND_TIMEOUT, spans_path=None):
    """Run ``ops`` in a fresh child with a wall-clock timeout and RLIMIT_AS."""
    spec = json.dumps({
        "ops": ops, "trace": trace, "setup_only": setup_only,
        "spans_path": str(spans_path) if spans_path else None,
    }).encode()

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (memory_cap, memory_cap))

    r = Round()
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD)], cwd=ROOT, env=_child_env(),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        preexec_fn=cap_memory,
    )
    try:
        out, err = proc.communicate(spec, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        r.errors.append(f"child killed after the {timeout:.0f} s timeout")
    r.elapsed_s = time.monotonic() - start
    lines = _parse_lines(out)
    ready = [ln for ln in lines if "ready" in ln]
    done = [ln for ln in lines if ln.get("done")]
    results = [ln for ln in lines if "i" in ln]
    if ready:
        r.setup_cpu_s = ready[0]["cpu"]
        r.setup_s = r.setup_cpu_s * speed.REF_S / statistics.median(ready[0]["loop"])
        r.spawn_s = ready[0]["ready"] - start
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-1:]
        r.errors.append(f"child exited with {proc.returncode}: {' '.join(tail)}")
    if setup_only:
        return r

    r.attempted = len(ops)
    r.failed = sum(not ln["ok"] for ln in results) + r.attempted - len(results)
    r.errors += [f"op {ln['i']}: {ln['err']}" for ln in results if not ln["ok"]]
    samples = [tuple(s) for s in done[0].get("samples", [])] if done else []
    if results:
        r.wall_s = speed.own_seconds(samples, results[0]["t0"], results[-1]["t1"])
        r.latencies = [speed.own_seconds(samples, ln["t0"], ln["t1"]) for ln in results]
        if samples:
            r.ref_latencies = [speed.scaled(samples, ln["t0"], ln["t1"]) for ln in results]
    r.data = [ln["data"] for ln in results if ln["data"] is not None]
    digests = [ln["digest"] or "failed" for ln in results]
    r.digest = hashlib.sha256(" ".join(digests).encode()).hexdigest()
    if done:
        r.maxrss_kb = done[0]["maxrss_kb"]
        r.caches = done[0]["caches"]
        r.trace = done[0].get("trace")
    elif not r.errors:
        r.errors.append("child ended without reporting")
    return r


def parent_checks(workload, rnd):
    """Errors found by the parent's own arithmetic on one round's results."""
    if workload != "finite_stanley":
        return []
    return [e for data in rnd.data for e in check_finite(data)]


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _per_layer(traced, untraced):
    """The per-layer metrics of one traced round."""
    t = traced.trace
    c = t["counters"]
    caches = traced.caches

    def ratio(num, den):
        return num / den if den else 0.0

    def cache_size(*names):
        return sum(caches[name][2] for name in names)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (t["self_s"][layer], "s")
        if layer != "cli":
            m[f"{layer}.calls"] = (t["calls"][layer], "count")
    for name in COUNTERS:
        m[name] = (c[name], "count")
    m["permutation.rw_cache_size"] = (cache_size("permutation._reduced_words"), "count")
    m["stanley.scan_useful_ratio"] = (ratio(c["stanley.scan_useful"], c["stanley.scan_attempts"]), "ratio")
    m["stanley.dp_cache_size"] = (cache_size(
        "stanley._count_decreasing_factorizations", "stanley._count_cyclic_factorizations"), "count")
    m["symfunc.jt_useful_ratio"] = (ratio(c["symfunc.jt_terms"], c["symfunc.jt_perms"]), "ratio")
    m["symfunc.cache_size"] = (cache_size(*(f"symfunc.{k}" for k in CACHES["symfunc"])), "count")
    m["affine.code_calls"] = (t["function_calls"].get("affine.AffinePermutation.code", 0), "count")
    m["affine.rw_cache_size"] = (cache_size("affine._affine_reduced_words"), "count")
    m["nilcoxeter.mul_useful_ratio"] = (ratio(c["nilcoxeter.mul_terms"], c["nilcoxeter.mul_pairs"]), "ratio")
    m["nilhecke.chevalley_useful_ratio"] = (
        ratio(c["nilhecke.chevalley_kept"], c["nilhecke.chevalley_tried"]), "ratio")
    m["trace.traced_wall_s"] = (traced.wall_s, "s")
    m["trace.untraced_wall_s"] = (untraced.wall_s, "s")
    m["trace.overhead_ratio"] = (traced.wall_s / untraced.wall_s, "ratio")
    for name, (hits, misses, _) in caches.items():
        m[f"cache.{name}.hits"] = (hits, "count")
        m[f"cache.{name}.misses"] = (misses, "count")
    return m


def _end_to_end(rounds, probes):
    """The end-to-end metrics of the untraced rounds of one run.

    Times are at reference speed (see speed.py).  ``wall_s`` is the median
    over rounds of the sum of the ops' own times, so the checks between ops
    do not count.  An op's latency is its median over the rounds, which a
    single slow round cannot move; the percentiles are taken over ops.
    """
    finished = [r for r in rounds if r.maxrss_kb and len(r.ref_latencies) == r.attempted]
    latencies = [statistics.median(op) for op in zip(*(r.ref_latencies for r in finished))]
    setups = [r.setup_s for r in probes + rounds if r.setup_s is not None]
    values = {
        "wall_s": statistics.median([sum(r.ref_latencies) for r in finished]),
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": _p90(latencies) * 1e3,
        "peak_rss_mb": statistics.median([r.maxrss_kb for r in finished]) / 1024,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def run_workload(workload, seed, seconds, trace, log=sys.stderr):
    """One benchmark run; returns the result object the CLI prints."""
    begin = time.monotonic()
    ops = make_ops(workload, seed)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".ops.json").write_text(json.dumps(ops, indent=0))

    def budget():
        return min(ROUND_TIMEOUT, DEADLINE - (time.monotonic() - begin))

    probes = []

    def probe_setup():
        # spread between rounds, the probes sample the machine over the whole run
        if not trace:
            probes.extend(run_round(ops, setup_only=True, timeout=budget()) for _ in range(SETUP_BATCH))

    rounds = []
    started = time.monotonic()
    while True:
        probe_setup()
        rounds.append(run_round(ops, timeout=budget()))
        last = rounds[-1].elapsed_s
        if trace or time.monotonic() - started + last > seconds or budget() < 2 * last:
            break
    probe_setup()
    traced = None
    if trace:
        traced = run_round(ops, trace=True, timeout=budget(), spans_path=stem.with_suffix(".spans"))
    checked = rounds + [traced] if traced else rounds

    errors = [e for r in probes + checked for e in r.errors] + parent_checks(workload, checked[0])
    digests = sorted({r.digest for r in checked})
    if len(digests) != 1:
        errors.append(f"digests differ between rounds: {digests}")
    if traced and traced.caches != rounds[0].caches:
        errors.append("tracing changed the cache statistics")
    failed = sum(r.failed for r in checked)
    metrics = {}
    if trace and traced.trace and traced.wall_s and rounds[0].wall_s:
        metrics = _per_layer(traced, rounds[0])
    elif not trace and any(r.maxrss_kb and len(r.ref_latencies) == r.attempted for r in rounds):
        metrics = _end_to_end(rounds, probes)

    summary = {
        "workload": workload, "seed": seed, "trace": trace, "rounds": len(rounds),
        "ops_per_round": len(ops), "latency_samples": sum(len(r.latencies) for r in rounds),
        "digest": digests[0] if len(digests) == 1 else digests,
        "round_wall_s": [r.wall_s for r in rounds],
        "round_ref_s": [sum(r.ref_latencies) for r in rounds],
        "setup_cpu_s": [r.setup_cpu_s for r in probes + rounds],
        "setup_ref_s": [r.setup_s for r in probes + rounds],
        "spawn_to_ready_s": [r.spawn_s for r in probes + rounds],
        "round_latencies_s": [r.latencies for r in rounds],
        "round_ref_latencies_s": [r.ref_latencies for r in rounds],
        "errors": errors[:20], "caches": rounds[0].caches,
        "trace_summary": traced.trace if traced else None,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    stem.with_suffix(".summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    _log(summary, log)
    return {
        "correct": not errors and not failed and bool(metrics),
        "attempted": sum(r.attempted for r in checked),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _log(summary, log):
    keys = ("workload", "seed", "rounds", "ops_per_round", "latency_samples", "digest", "round_wall_s", "round_ref_s")
    print(json.dumps({k: summary[k] for k in keys}), file=log)
    if summary["trace_summary"]:
        self_s = summary["trace_summary"]["self_s"]
        total = sum(self_s.values())
        shares = {k: round(v / total, 3) for k, v in sorted(self_s.items(), key=lambda kv: -kv[1])}
        print(f"self-time shares: {json.dumps(shares)}", file=log)
    for e in summary["errors"]:
        print(f"error: {e}", file=log)
