"""The check protocol of ``stansym.verify``: a check is a name and a lazy
iterable of witnesses, of which at most one is pulled."""

import itertools
import json

import pytest

from stansym import cli
from stansym import verify as suites
from stansym.verify import check, verify


def test_a_witness_generator_is_pulled_once():
    pulled = []

    def witnesses():
        for k in (1, 2):
            pulled.append(k)
            yield k

    assert check("c", witnesses()) == {"name": "c", "ok": False, "witness": 1}
    assert pulled == [1]


@pytest.mark.parametrize("empty", [[], (), iter(()), (x for x in "")])
def test_an_empty_iterable_is_a_pass_without_a_witness(empty):
    assert check("c", empty) == {"name": "c", "ok": True}


def test_an_assertion_error_is_the_witness_and_the_next_check_runs(monkeypatch):
    def broken():
        yield from ()
        raise AssertionError("constructions disagree at 3")

    def suite(caps):
        yield "first", broken()
        yield "second", [("w", 1, 2)]
        yield "third", []

    monkeypatch.setitem(suites.SUITES, "fake", suite)
    assert verify("fake", {}) == [{
        "suite": "fake",
        "ok": False,
        "checks": [
            {"name": "first", "ok": False, "witness": "constructions disagree at 3"},
            {"name": "second", "ok": False, "witness": ("w", 1, 2)},
            {"name": "third", "ok": True},
        ],
    }]


@pytest.mark.parametrize("ok", [True, False])
def test_a_bool_is_refused(ok):
    with pytest.raises(TypeError, match="bool"):
        check("c", ok)


def test_any_other_exception_propagates():
    with pytest.raises(KeyError):
        check("c", ({}[k] for k in ["x"]))


def test_kappa_signs_cover_the_elements_after_a_j_basis_disagreement(monkeypatch):
    from stansym import nilhecke
    from stansym.nilcoxeter import NilCoxeterElement

    right_j, right_kappa = nilhecke.j_basis_element, nilhecke.kappa

    def disagrees_at_the_identity(n, w):
        if w.length() == 0:
            raise AssertionError(f"constructions disagree at {w!r}")
        return right_j(n, w)

    def negated(jw):
        return NilCoxeterElement(jw.n, False, {v: -c for v, c in right_kappa(jw).coeffs.items()})

    monkeypatch.setattr(nilhecke, "j_basis_element", disagrees_at_the_identity)
    monkeypatch.setattr(nilhecke, "kappa", negated)
    # list the checks before pulling any, so nothing hangs on the order
    pairs = list(suites.SUITES["conjectures"]({"max_rank_finite": 2, "max_rank_affine": 3}))
    agree, signs, _ = [check(*pair) for pair in pairs]
    assert agree["witness"].startswith("constructions disagree at ")
    w, v, c = signs["witness"]  # the first element built after the identity
    assert w != (1, 2, 3) and c < 0


def test_every_compared_witness_prints_as_json(monkeypatch, capsys):
    # each comparison fails on its first case, so every witness shape shows
    monkeypatch.setattr(suites, "_differences", lambda cases: itertools.islice(cases, 1))
    results = verify("all", {"max_rank_finite": 4, "max_rank_affine": 3})
    cli.emit(lambda: results, "json", None)  # a dict with tuple keys raises TypeError here
    printed = json.loads(capsys.readouterr().out)
    assert sum("witness" in c for r in printed for c in r["checks"]) >= 26


def test_eg_builds_each_kostka_table_once():
    # the Kostka peel walks S_6 by length, so it meets each degree 0..15 once
    from stansym import symfunc

    symfunc._kostka_table.cache_clear()
    assert verify("eg", {"max_rank_finite": 6, "max_rank_affine": 3})[0]["ok"]
    assert symfunc._kostka_table.cache_info().misses <= 16
