"""Tests of the benchmark itself: seeds, digests, tracing and containment.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from checks import check_finite  # noqa: E402
from harness import END_TO_END, _per_layer, parent_checks, run_round  # noqa: E402
from tracer import HOOKS, Tracer, load_spans  # noqa: E402
from workloads import WORKLOADS, make_ops, perm_length  # noqa: E402


def test_one_seed_gives_one_op_list():
    for workload in WORKLOADS:
        assert make_ops(workload, 5) == make_ops(workload, 5)
        assert make_ops(workload, 5) != make_ops(workload, 6)


def test_op_lists_have_the_documented_shape():
    finite = make_ops("finite_stanley", 3)
    assert len(finite) >= 100
    assert {len(op["w"]) for op in finite} == {5, 6}
    assert {perm_length(op["w"]) for op in finite} == set(range(4, 12))
    assert len({tuple(op["w"]) for op in finite}) == len(finite)
    sym = make_ops("sym_basis", 3)
    assert len(sym) >= 100 and {sum(op["la"]) for op in sym} == {6, 7, 8, 9}
    affine = make_ops("affine_jbasis", 3)
    assert len(affine) >= 100
    assert sum(op["op"] == "jbasis" for op in affine) == 11 + 7


def _sample(seed):
    """A few ops of every seeded kind, small enough for a quick test."""
    finite = make_ops("finite_stanley", seed)[:12]
    sym = [op for op in make_ops("sym_basis", seed) if sum(op["la"]) == 6][:5]
    affine = make_ops("affine_jbasis", seed)
    jbasis = [op for op in affine if op["op"] == "jbasis" and sum(op["la"]) <= 2][:4]
    return finite + sym + jbasis + [op for op in affine if op["op"] == "affine"][:6]


def test_digest_repeats_and_tracing_leaves_it_alone(tmp_path):
    ops = _sample(4)
    spans = tmp_path / "sample.spans"
    first, second, traced = run_round(ops), run_round(ops), run_round(ops, trace=True, spans_path=spans)
    for rnd in (first, second, traced):
        assert rnd.attempted == len(ops) and rnd.failed == 0, rnd.errors
        assert rnd.setup_s > 0 and rnd.setup_cpu_s > 0
    # the machine's speed is sampled in untraced rounds only
    assert len(first.ref_latencies) == len(ops) and all(x > 0 for x in first.ref_latencies)
    assert traced.ref_latencies == []
    assert first.digest == second.digest == traced.digest
    assert first.caches == traced.caches
    assert not parent_checks("finite_stanley", first)
    summary = traced.trace
    for layer in ("permutation", "stanley", "tableaux", "symfunc", "affine", "nilhecke"):
        assert summary["calls"][layer] > 0 and summary["self_s"][layer] > 0
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (name, unit) for name, (_, unit) in _per_layer(traced, first).items()
    ]
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(END_TO_END.items())
    header, columns = load_spans(spans)
    assert header["count"] == summary["spans"] == len(columns["start"])
    assert all(e >= s for s, e in zip(columns["start"], columns["end"]))
    assert set(columns["op_index"]) == set(range(len(ops)))


def test_scaled_time_divides_out_the_machine_speed():
    # a machine at half the reference speed, sampled every 20 ms
    samples = [(k * 0.02, 2 * speed.REF_S) for k in range(100)]
    own = speed.own_seconds(samples, 0.49, 1.49)  # 50 samples fall inside
    assert own == pytest.approx(1.0 - 50 * 2 * speed.REF_S)
    assert speed.scaled(samples, 0.49, 1.49) == pytest.approx(own / 2)
    # an op with no sample near it takes the closest one
    assert speed.scaled(samples[:1], 5.0, 5.1) == pytest.approx(0.05)


def test_word_counters_follow_what_the_caller_draws():
    t = Tracer()
    hook = HOOKS[("permutation", "Permutation.reduced_words")]
    t.fids[("stanley", "stanley_fn")] = stanley = t._function_id("stanley", "stanley_fn")
    words = [(1, 2, 1), (2, 1, 2)]
    # a lazy result, outside stanley_fn: only what is drawn counts
    lazy = hook(t, 0, (), {}, iter(words))
    assert next(lazy) == words[0]
    assert t.summary()["counters"]["permutation.words_returned"] == 1
    # inside stanley_fn every loop over the result counts as scanned words
    t.open(5, stanley)
    scanned = hook(t, 0, (), {}, tuple(words))
    assert scanned == tuple(words) and list(scanned) == list(scanned) == words
    lazy = hook(t, 0, (), {}, iter(words))
    assert list(lazy) == words
    counters = t.summary()["counters"]
    assert counters["permutation.words_returned"] == 1 + 2 + 2
    assert counters["stanley.scan_attempts"] == 2 + 2 + 2


def test_an_op_over_the_memory_cap_fails_and_the_harness_goes_on():
    # reduced_words of w0 in S_7 tries to build about 1.1e9 words
    rnd = run_round([{"op": "stanley", "w": [7, 6, 5, 4, 3, 2, 1]}], memory_cap=256 << 20, timeout=60)
    assert rnd.attempted == 1 and rnd.failed == 1
    assert rnd.errors and "timeout" not in " ".join(rnd.errors)


def test_an_op_past_the_timeout_fails_and_the_harness_goes_on():
    # the "original" route on w0 of S_6 takes about a minute
    rnd = run_round([{"op": "stanley", "w": [6, 5, 4, 3, 2, 1]}], timeout=3)
    assert rnd.attempted == 1 and rnd.failed == 1
    assert any("timeout" in e for e in rnd.errors)


def test_parent_check_catches_a_wrong_coefficient():
    good = {"w": [2, 4, 3, 1], "nwords": 3, "F": [[[2, 1, 1], 1], [[1, 1, 1, 1], 3]], "s": [[[2, 1, 1], 1]]}
    assert check_finite(good) == []
    bad = dict(good, F=[[[2, 1, 1], 2], [[1, 1, 1, 1], 3]])
    assert check_finite(bad)
    assert check_finite(dict(good, nwords=4))
