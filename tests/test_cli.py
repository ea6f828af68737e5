"""Command-line interface: parsing, output formats, exit codes."""

import argparse
import importlib
import json
import os
import subprocess
import sys

import pytest

from stansym import cli
from stansym.cli import (
    load_caps,
    main,
    parse_affine,
    parse_partition,
    parse_permutation,
    parse_word,
)
from stansym.nilcoxeter import NilCoxeterElement


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_permutation():
    assert parse_permutation("2431").window == (2, 4, 3, 1)
    assert parse_permutation("[2, 4, 3, 1]").window == (2, 4, 3, 1)
    with pytest.raises(ValueError):
        parse_permutation("24x1")


def test_parse_word_and_partition():
    assert parse_word("21202") == (2, 1, 2, 0, 2)
    assert parse_partition("2,2,1") == (2, 2, 1)
    assert parse_partition("[2, 1]") == (2, 1)
    assert parse_partition("") == ()


def test_parse_affine_modes():
    w = parse_affine("21202", 3, "auto")
    assert w.length() == 5
    v = parse_affine("[-2, 2, 6]", 3, "auto")
    assert v.window == (-2, 2, 6)
    assert parse_affine("[-2, 2, 6]", 3, "window") == v


def test_stanley_command_text(capsys):
    code, out, _ = run(["stanley", "2431"], capsys)
    assert code == 0
    assert "m{2,1,1}" in out and "3" in out


def test_stanley_command_json(capsys):
    code, out, _ = run(["--format", "json", "stanley", "2431"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 4
    assert {"part": [1, 1, 1, 1], "coeff": 3} in data["terms"]


def test_format_flag_after_subcommand(capsys):
    code, out, _ = run(["stanley", "2431", "--format", "json"], capsys)
    assert code == 0
    json.loads(out)


def test_schur_expand_command(capsys):
    code, out, _ = run(["schur-expand", "2431"], capsys)
    assert code == 0
    assert "s{2,1,1}" in out


def test_affine_commands(capsys):
    code, out, _ = run(["affine-stanley", "-n", "3", "21202", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert {"part": [1, 1, 1, 1, 1], "coeff": 3} in data["terms"]
    code, out, _ = run(["affine-schur-expand", "-n", "3", "21202", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert sorted(tuple(t["part"]) for t in data["terms"]) == [(2, 1, 1, 1), (2, 2, 1)]


def test_eg_insert_command(capsys):
    code, out, _ = run(["eg-insert", "21232", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["P"] == [[1, 2, 3], [2, 3]]
    assert data["Q"] == [[1, 3, 4], [2, 5]]


def test_reduced_words_command(capsys):
    code, out, _ = run(["reduced-words", "321"], capsys)
    assert code == 0
    assert set(out.split()) == {"121", "212"}
    code, out, _ = run(["reduced-words", "-n", "3", "[-2, 2, 6]"], capsys)
    assert code == 0
    assert set(out.split()) == {"1210", "2120"}


def test_reduced_words_count_lists_no_word(capsys, monkeypatch):
    from stansym import permutation
    from stansym.partition import count_standard_tableaux, staircase

    def listed(window):
        raise AssertionError("--count listed the reduced words")

    monkeypatch.setattr(permutation, "_reduced_words", listed)
    # R(w0) of S_8 is in bijection with the standard tableaux of the staircase
    code, out, _ = run(["reduced-words", "87654321", "--count"], capsys)
    assert code == 0
    assert int(out) == count_standard_tableaux(staircase(7))
    code, out, _ = run(["reduced-words", "2431", "--count", "--format", "json"], capsys)
    assert code == 0 and json.loads(out) == 3


def test_reduced_words_count_is_finite_only(capsys):
    code, out, err = run(["reduced-words", "-n", "3", "[-2, 2, 6]", "--count"], capsys)
    assert code == 2 and not out
    assert "finite-only" in err


def test_little_move_command(capsys):
    code, out, _ = run(["little-move", "2134321", "5", "--format", "json"], capsys)
    assert code == 0
    chain = json.loads(out)
    assert chain[0]["word"] == [2, 1, 3, 4, 3, 2, 1]
    assert chain[-1]["word"] == [3, 2, 4, 5, 3, 2, 1]


def test_kschur_and_jbasis_commands(capsys):
    code, out, _ = run(["kschur", "-n", "3", "2,1", "--format", "json"], capsys)
    assert code == 0
    json.loads(out)
    code, out, _ = run(["jbasis", "-n", "3", "1", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data) == 3 and all(t["coeff"] == 1 for t in data)


def test_json_output_renders_no_text(capsys, monkeypatch):
    def no_text(self):
        raise AssertionError("the text form was rendered under --format json")

    monkeypatch.setattr(NilCoxeterElement, "__repr__", no_text)
    code, out, err = run(["jbasis", "-n", "4", "2,1", "--format", "json"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)


def test_verify_examples_suite(capsys):
    code, out, _ = run(["verify", "examples"], capsys)
    assert code == 0
    assert "FAIL" not in out


def test_verify_all_runs_every_suite_in_process_and_every_check_passes(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("STANSYM_CONFIG", str(tmp_path / "absent.json"))
    for key in cli.DEFAULT_CAPS:
        monkeypatch.delenv(f"STANSYM_{key.upper()}", raising=False)
    code, out, _ = run(["verify", "all", "--format", "json"], capsys)
    results = json.loads(out)
    assert code == 0
    assert [r["suite"] for r in results] == sorted(cli.SUITES)
    assert [(r["suite"], c["name"]) for r in results for c in r["checks"] if not c["ok"]] == []
    assert all(r["checks"] for r in results)


@pytest.mark.parametrize("cap, scope", [(None, "ranks 3..4"), ("3", "rank 3")])
def test_verify_conjectures_runs_the_j_basis_up_to_the_affine_cap(cap, scope, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("STANSYM_CONFIG", str(tmp_path / "absent.json"))
    monkeypatch.delenv("STANSYM_MAX_RANK_AFFINE", raising=False)
    if cap is not None:
        monkeypatch.setenv("STANSYM_MAX_RANK_AFFINE", cap)
    code, out, _ = run(["verify", "conjectures"], capsys)
    assert code == 0 and "FAIL" not in out
    lines = [line for line in out.splitlines() if "j-basis" in line]
    assert len(lines) == 2
    assert all(line.endswith(f"({scope}, length <= 6)") for line in lines)


def test_verify_conjectures_runs_the_report_up_to_the_finite_cap(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("STANSYM_CONFIG", str(tmp_path / "absent.json"))
    monkeypatch.setenv("STANSYM_MAX_RANK_FINITE", "6")
    monkeypatch.setenv("STANSYM_MAX_RANK_AFFINE", "3")
    code, out, _ = run(["verify", "conjectures"], capsys)
    assert code == 0 and "FAIL" not in out
    for n, dimension in ((4, 14), (5, 42), (6, 132)):
        assert f"PASS [conjectures] B has dimension {dimension} with independent Schur basis (n={n})" in out
        assert sum(line.endswith(f"(n={n})") for line in out.splitlines()) == 4
    assert "(n=7)" not in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_conjectures_names_a_wrong_littlewood_richardson_count(fmt, capsys, monkeypatch, tmp_path):
    from stansym import nilcoxeter

    monkeypatch.setenv("STANSYM_CONFIG", str(tmp_path / "absent.json"))
    monkeypatch.setenv("STANSYM_MAX_RANK_FINITE", "4")
    monkeypatch.setenv("STANSYM_MAX_RANK_AFFINE", "3")
    right = nilcoxeter._littlewood_richardson

    def off_by_one(la, mu, top):
        counts = right(la, mu, top)
        return {**counts, (2, 1): counts[(2, 1)] + 1} if (2, 1) in counts else counts

    monkeypatch.setattr(nilcoxeter, "_littlewood_richardson", off_by_one)
    code, out, _ = run(["verify", "conjectures", "--format", fmt], capsys)
    assert code == 1
    # the sixth pair compared, ((), (2, 1)), is the first with an s_21 term
    name = "Schur elements nonnegative; LR constants equal direct products on 6 pairs (n=4)"
    if fmt == "text":
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == [f"FAIL [conjectures] {name}; witness ((), (2, 1), (2, 1), 2, 1)"]
    else:
        [suite] = json.loads(out)
        failed = [c for c in suite["checks"] if not c["ok"]]
        assert failed == [{"name": name, "ok": False, "witness": [[], [2, 1], [2, 1], 2, 1]}]
        assert all("witness" not in c for c in suite["checks"] if c["ok"])


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_examples_names_a_wrong_h_column(fmt, capsys, monkeypatch, tmp_path):
    from stansym import symfunc

    monkeypatch.setenv("STANSYM_CONFIG", str(tmp_path / "absent.json"))
    right = symfunc._schur_h_column

    def wrong(la):  # s_21 = h_21 - h_3, and h_111 too many
        return right(la) + (((1, 1, 1), 1),) if la == (2, 1) else right(la)

    monkeypatch.setattr(symfunc, "_schur_h_column", wrong)
    code, out, _ = run(["verify", "examples", "--format", fmt], capsys)
    assert code == 1
    name = "s -> h and s -> e by the Kostka peel expand back to m by margin counts (degree <= 6)"
    # s_21 = m_21 + 2 m_111, and h_111 = m_3 + 3 m_21 + 6 m_111
    expected, got = (((2, 1), 1), ((1, 1, 1), 2)), (((3,), 1), ((2, 1), 4), ((1, 1, 1), 8))
    if fmt == "text":
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == [f"FAIL [examples] {name}; witness {((2, 1), 'h', expected, got)}"]
    else:
        [suite] = json.loads(out)
        failed = [c for c in suite["checks"] if not c["ok"]]
        assert failed == [{"name": name, "ok": False, "witness": json.loads(json.dumps([(2, 1), "h", expected, got]))}]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_nilcoxeter_names_the_degree_that_breaks_the_product_expansion(fmt, capsys, monkeypatch, tmp_path):
    from stansym import nilcoxeter

    monkeypatch.setenv("STANSYM_CONFIG", str(tmp_path / "absent.json"))
    right = nilcoxeter.h_element

    def doubled(n, k, affine=False):  # 2 h_1 at n = 3 still commutes with h_2
        h = right(n, k, affine)
        return 2 * h if (n, k, affine) == (3, 1, False) else h

    monkeypatch.setattr(nilcoxeter, "h_element", doubled)
    code, out, _ = run(["verify", "nilcoxeter", "--format", fmt], capsys)
    assert code == 1
    name = "h product expansion for n <= 5"
    witness = (3, 1, (2 * right(3, 1)).to_json(), right(3, 1).to_json())
    if fmt == "text":
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == [f"FAIL [nilcoxeter] {name}; witness {witness}"]
    else:
        [suite] = json.loads(out)
        failed = [c for c in suite["checks"] if not c["ok"]]
        assert failed == [{"name": name, "ok": False, "witness": json.loads(json.dumps(witness))}]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_symmetry_names_an_asymmetric_affine_coefficient(fmt, capsys, monkeypatch, tmp_path):
    from stansym import stanley
    from stansym.affine import elements_of_length

    monkeypatch.setenv("STANSYM_CONFIG", str(tmp_path / "absent.json"))
    monkeypatch.setenv("STANSYM_MAX_RANK_FINITE", "3")
    # (1, 2) first comes up at length 3, as the first rearrangement of (2, 1)
    w = elements_of_length(3, 3)[0]
    base = stanley.affine_stanley(w)[(2, 1)]
    right = stanley._count_cyclic_factorizations

    def off_by_one(n, window, alpha):
        return right(n, window, alpha) + (alpha == (1, 2))

    # the recursion reads the module's name too, so the cache is cleared on
    # both sides of the run that sees the wrong counts
    right.cache_clear()
    monkeypatch.setattr(stanley, "_count_cyclic_factorizations", off_by_one)
    try:
        code, out, _ = run(["verify", "symmetry", "--format", fmt], capsys)
    finally:
        right.cache_clear()
    assert code == 1
    witness = (w.window, (2, 1), (1, 2), base, base + 1)
    name = "affine F~ symmetric on rank-3 elements of length <= 5"
    if fmt == "text":
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == [f"FAIL [symmetry] {name}; witness {witness}"]
    else:
        [suite] = json.loads(out)
        failed = [c for c in suite["checks"] if not c["ok"]]
        assert failed == [{"name": name, "ok": False, "witness": json.loads(json.dumps(witness))}]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_symmetry_names_a_k_kostka_number_off_the_affine_schur_function(fmt, capsys, monkeypatch, tmp_path):
    from stansym import symfunc

    monkeypatch.setenv("STANSYM_CONFIG", str(tmp_path / "absent.json"))
    right = symfunc._kostka_table

    def wrong(d, *rank):
        # one too many on the last entry of column (2, 1), position 1, of the k-table at n=3, d=3
        rows, columns = right(d, *rank)
        if (d, *rank) != (3, 3):
            return rows, columns
        spots, ks = columns[1]
        return rows, (columns[0], (spots, ks[:-1] + (ks[-1] + 1,)), *columns[2:])

    monkeypatch.setattr(symfunc, "_kostka_table", wrong)
    code, out, _ = run(["verify", "symmetry", "--format", fmt], capsys)
    assert code == 1
    expected = symfunc.affine_schur(3, (2, 1))[1, 1, 1]
    witness = (3, (2, 1), (1, 1, 1), expected, expected + 1)
    name = "k-Kostka numbers by weak strips = [m_mu] F~_la, ranks 3..4, degree <= 8"
    if fmt == "text":
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == [f"FAIL [symmetry] {name}; witness {witness}"]
    else:
        [suite] = json.loads(out)
        failed = [c for c in suite["checks"] if not c["ok"]]
        assert failed == [{"name": name, "ok": False, "witness": json.loads(json.dumps(witness))}]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_symmetry_names_an_affine_coefficient_off_the_finite_one(fmt, capsys, monkeypatch, tmp_path):
    from stansym import stanley
    from stansym.permutation import symmetric_group
    from stansym.symfunc import SymFunc

    monkeypatch.setenv("STANSYM_CONFIG", str(tmp_path / "absent.json"))
    monkeypatch.setenv("STANSYM_MAX_RANK_FINITE", "4")
    code, out, _ = run(["verify", "symmetry"], capsys)
    assert code == 0 and "PASS [symmetry] affine F~_w = F_w on S_4" in out
    monkeypatch.setenv("STANSYM_MAX_RANK_FINITE", "3")
    right = stanley.affine_stanley

    def off_by_one(w):
        f = right(w)
        return f + SymFunc.monomial("m", (2, 1)) if f.degree == 3 else f

    monkeypatch.setattr(stanley, "affine_stanley", off_by_one)
    code, out, _ = run(["verify", "symmetry", "--format", fmt], capsys)
    assert code == 1
    w = next(v for v in symmetric_group(3) if v.length() == 3)
    expected = stanley.stanley_fn(w, "original")[(2, 1)]
    witness = (w.window, (2, 1), expected, expected + 1)
    name = "affine F~_w = F_w on S_3"
    if fmt == "text":
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == [f"FAIL [symmetry] {name}; witness {witness}"]
    else:
        [suite] = json.loads(out)
        failed = [c for c in suite["checks"] if not c["ok"]]
        assert failed == [{"name": name, "ok": False, "witness": json.loads(json.dumps(witness))}]


def _drop_terms_on_the_input(letter):
    """A wrong letter kernel: it loses every term that lands on a window of
    its input, the d_i f part among them."""
    return lambda i, terms, n: {v: p for v, p in letter(i, terms, n).items() if v not in terms}


def _act_only_on_one_right_factor(tensor_act):
    """A wrong tensor action: zero on a tensor with more than one right factor."""
    return lambda a, T: tensor_act(a, T) if len(T) == 1 else {}


def _shift_by_a_w(chevalley):
    """A wrong Chevalley formula: A_w too many."""
    from stansym.nilhecke import NilHeckeElement

    return lambda w, f: chevalley(w, f) + NilHeckeElement.basis(w)


@pytest.mark.parametrize(
    "name, wrong, witness",
    [
        # the first element of length 1 is s_0, window (0, 2, 4)
        ("_letter", _drop_terms_on_the_input, ((0, 2, 4), "embedding")),
        # the first element of length 2 is s_2 s_0, whose left descent is 2; below
        # length 2 every right factor it meets is single
        ("tensor_act", _act_only_on_one_right_factor, ((-1, 3, 4), "word", 2)),
        ("chevalley", _shift_by_a_w, ((1, 2, 3), "chevalley", 1)),
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_nilhecke_names_the_first_failure_of_the_engine(name, wrong, witness, fmt, capsys, monkeypatch):
    from stansym import nilhecke

    monkeypatch.setattr(nilhecke, name, wrong(getattr(nilhecke, name)))
    code, out, _ = run(["verify", "nilhecke", "--format", fmt], capsys)
    assert code == 1
    check = "group embedding, coproduct and Chevalley engine (rank 3)"
    if fmt == "text":
        assert f"FAIL [nilhecke] {check}; witness {witness}" in out.splitlines()
    else:
        [suite] = json.loads(out)
        [got] = [c for c in suite["checks"] if c["name"] == check]
        assert got == {"name": check, "ok": False, "witness": json.loads(json.dumps(witness))}


def test_verify_conjectures_names_the_j_basis_error(capsys, monkeypatch, tmp_path):
    from stansym import nilhecke

    monkeypatch.setenv("STANSYM_CONFIG", str(tmp_path / "absent.json"))
    monkeypatch.setenv("STANSYM_MAX_RANK_FINITE", "4")
    monkeypatch.setenv("STANSYM_MAX_RANK_AFFINE", "3")

    def disagree(n, w):
        raise AssertionError(f"j-basis constructions disagree at {list(w.window)}")

    monkeypatch.setattr(nilhecke, "j_basis_element", disagree)
    code, out, _ = run(["verify", "conjectures"], capsys)
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == [
        "FAIL [conjectures] j-basis algorithms agree (rank 3, length <= 6); "
        "witness j-basis constructions disagree at [1, 2, 3]"
    ]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_symmetry_names_a_strip_that_leaves_its_degree(fmt, capsys, monkeypatch, tmp_path):
    from stansym import symfunc

    monkeypatch.setenv("STANSYM_CONFIG", str(tmp_path / "absent.json"))
    monkeypatch.delenv("STANSYM_MAX_RANK_AFFINE", raising=False)
    right = symfunc._weak_strips

    def one_cell_too_many(n, la, p):
        return [(nu[0] + 1,) + nu[1:] for nu in right(n, la, p)]

    monkeypatch.setattr(symfunc, "_weak_strips", one_cell_too_many)
    symfunc._kostka_table.cache_clear()
    try:
        code, out, err = run(["verify", "symmetry", "--format", fmt], capsys)
    finally:
        symfunc._kostka_table.cache_clear()
    assert code == 1 and err == ""
    # the first strip of the pass is h_1 on the empty shape at rank 3
    witness = "a strip leaves its degree: (n, la, p, nu) = (3, (), 1, (2,))"
    name = "k-Kostka numbers by weak strips = [m_mu] F~_la, ranks 3..4, degree <= 8"
    if fmt == "text":
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == [f"FAIL [symmetry] {name}; witness {witness}"]
    else:
        [suite] = json.loads(out)
        failed = [c for c in suite["checks"] if not c["ok"]]
        assert failed == [{"name": name, "ok": False, "witness": witness}]


def _with_a_descent_more(word_descents):
    return lambda word: set(word_descents(word)) | {len(word)}


def _one_coxeter_knuth_class(coxeter_knuth_classes):
    return lambda w: [frozenset().union(*coxeter_knuth_classes(w))]


def _no_move_back(little_move_backward):
    return lambda y: y


def _one_more_m_11(stanley_fn):
    from stansym.symfunc import SymFunc

    def wrong(w, *method):
        f = stanley_fn(w, *method)
        return f + SymFunc.monomial("m", (1, 1)) if w.length() == 2 else f

    return wrong


def _p_and_q_swapped(eg_insert):
    return lambda word, *n: eg_insert(word, *n)[::-1]


def _each_eg_tableau_twice(eg_tableaux_by_shape):
    return lambda w: {la: list(tabs) * 2 for la, tabs in eg_tableaux_by_shape(w).items()}


def _doubled(compute):
    return lambda w: 2 * compute(w)


@pytest.mark.parametrize(
    "suite, module, name, wrong, check",
    [
        ("eg", "tableaux", "word_descents", _with_a_descent_more, "Des(i) = Des(Q(i)) on S4"),
        ("eg", "tableaux", "coxeter_knuth_classes", _one_coxeter_knuth_class, "Coxeter-Knuth classes are P-fibers on S4"),
        ("eg", "tableaux", "eg_tableaux_by_shape", _each_eg_tableau_twice,
         "transition-tree Schur expansion = EG-tableau count on S_4"),
        ("transition", "tableaux", "little_move_backward", _no_move_back,
         "Little move invertible on its image over S4 marked words"),
        ("nilcoxeter", "stanley", "stanley_fn", _one_more_m_11, "h products recover monomial coefficients of F_w on S4"),
        ("examples", "tableaux", "eg_insert", _p_and_q_swapped, "EG insertion of 21232"),
        ("examples", "stanley", "affine_schur_expand", _doubled, "affine Schur expansion of 21202"),
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_names_a_witness_on_every_failing_check(suite, module, name, wrong, check, fmt, capsys, monkeypatch):
    mod = importlib.import_module(f"stansym.{module}")
    monkeypatch.setenv("STANSYM_MAX_RANK_FINITE", "4")
    monkeypatch.setattr(mod, name, wrong(getattr(mod, name)))
    code, out, err = run(["verify", suite, "--format", fmt], capsys)
    assert code == 1 and err == ""
    if fmt == "text":
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert any(line.startswith(f"FAIL [{suite}] {check}; witness ") for line in fails)
        assert all("; witness " in line for line in fails)
    else:
        [result] = json.loads(out)
        failed = [c for c in result["checks"] if not c["ok"]]
        assert check in [c["name"] for c in failed]
        assert all("witness" in c for c in failed)


def test_verify_eg_cross_checks_the_schur_expansion(capsys, monkeypatch):
    monkeypatch.setenv("STANSYM_MAX_RANK_FINITE", "4")
    code, out, _ = run(["verify", "eg"], capsys)
    assert code == 0 and "FAIL" not in out
    assert "EG-tableau count on S_4" in out and "#R(w) on S_4" in out
    # a wrong coefficient fails both checks
    from stansym import stanley

    right = stanley.schur_expand
    monkeypatch.setattr(stanley, "schur_expand", lambda w: 2 * right(w) if w.length() == 3 else right(w))
    code, out, _ = run(["verify", "eg"], capsys)
    assert code == 1
    assert "FAIL [eg] transition-tree" in out and "FAIL [eg] sum of c_la" in out


def test_verify_eg_runs_the_tree_checks_on_a_larger_group_than_the_eg_count(capsys, monkeypatch):
    monkeypatch.setenv("STANSYM_MAX_RANK_FINITE", "6")
    code, out, _ = run(["verify", "eg"], capsys)
    assert code == 0 and "FAIL" not in out
    assert "PASS [eg] transition-tree Schur expansion = EG-tableau count on S_5" in out
    assert "PASS [eg] sum of c_la f^la = #R(w) on S_6" in out
    assert "PASS [eg] transition-tree Schur expansion = Kostka peel of F_w on S_6" in out


def test_verify_eg_cross_checks_the_tree_against_the_kostka_peel(capsys, monkeypatch):
    monkeypatch.setenv("STANSYM_MAX_RANK_FINITE", "4")
    code, out, _ = run(["verify", "eg"], capsys)
    assert code == 0 and "PASS [eg] transition-tree Schur expansion = Kostka peel of F_w on S_4" in out
    # double one coefficient of the peel: only this check can see it
    from stansym import symfunc

    right = symfunc.change_basis

    def doubled(f, basis, n=None):
        g = right(f, basis, n)
        if basis == "s" and f.degree == 3:
            return g * 2
        return g

    monkeypatch.setattr(symfunc, "change_basis", doubled)
    code, out, _ = run(["verify", "eg"], capsys)
    assert code == 1
    # 1432 is the first element of S_4 of length 3, and F_1432 = s_21
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL [eg] transition-tree Schur expansion = Kostka peel of F_w on S_4; "
        "witness ((1, 4, 3, 2), ('s', (((2, 1), 1),)), ('s', (((2, 1), 2),)))"
    ]
    code, out, err = run(["verify", "eg", "--format", "json"], capsys)
    assert code == 1 and err == ""
    [result] = json.loads(out)
    assert [(c["name"], c["witness"]) for c in result["checks"] if not c["ok"]] == [
        ("transition-tree Schur expansion = Kostka peel of F_w on S_4", [[1, 4, 3, 2], ["s", [[[2, 1], 1]]], ["s", [[[2, 1], 2]]]])
    ]


def test_bad_input_exits_2(capsys):
    code, _, err = run(["stanley", "24x1"], capsys)
    assert code == 2
    assert "error" in err


def test_bad_window_exits_2(capsys):
    code, _, err = run(["affine-stanley", "-n", "3", "[1, 2, 4]"], capsys)
    assert code == 2


def test_non_integer_json_entry_exits_2(capsys):
    for argv in (
        ["stanley", "[2.5, 1]"],
        ["affine-stanley", "-n", "3", "[1.5, 2, 2.5]"],
        ["eg-insert", "[1, 2.0]"],
        ["kschur", "-n", "3", "[2, 0.5]"],
        ["affine-stanley", "-n", "3", "12", "--as", "window"],
        ["reduced-words", "-n", "3", "null", "--as", "window"],
    ):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ")


def test_json_boolean_entry_exits_2(capsys):
    # a JSON true is a Python bool, which is an int
    for argv in (["kschur", "-n", "3", "[true]"], ["eg-insert", "[true,2]"]):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: not an integer: True")


@pytest.mark.parametrize(
    "argv, usage",
    [
        pytest.param(["kschur", "-n", "12", "1_0"], False, id="partition 1_0"),
        pytest.param(["jbasis", "-n", "4", "+2"], False, id="partition +2"),
        pytest.param(["stanley", "\u0662\u0661"], False, id="Arabic-Indic permutation"),
        pytest.param(["eg-insert", "\u0662\u0661"], False, id="Arabic-Indic word"),
        pytest.param(["affine-stanley", "-n", "3", "\u0662\u0661"], False, id="Arabic-Indic affine word"),
        pytest.param(["kschur", "-n", "1_0", "2,1"], True, id="rank 1_0"),
        pytest.param(["little-move", "2134321", "\u0665"], True, id="Arabic-Indic mark"),
    ],
)
def test_an_integer_that_int_alone_would_read_exits_2(argv, usage, capsys):
    # int() takes '1_0' as 10, '+2' as 2 and Arabic-Indic digits as ASCII ones
    if usage:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        code, out = exc.value.code, capsys.readouterr()
        assert code == 2 and out.out == ""
        assert "invalid integer value" in out.err
    else:
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ")


@pytest.mark.parametrize("partition", ["2,1", "2, 1", " 2 ,1 ", "2,1,0", "[2, 1]", ""])
def test_the_accepted_forms_of_a_partition_read_alike(partition, capsys):
    got = run(["kschur", "-n", "3", partition], capsys)
    assert got == run(["kschur", "-n", "3", "[2, 1]" if partition else "[]"], capsys)
    assert got[:2] == (0, "h{2,1}\n" if partition else "1h{}\n")


def test_affine_rank_zero_exits_2(capsys):
    code, out, err = run(["reduced-words", "321", "-n", "0"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_pipe_exits_141_without_a_traceback(fmt):
    # about 350 kB of reduced words, more than a pipe holds, so the writer
    # is still writing when the reader closes its end
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "stansym.cli", "reduced-words", "564312", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 141 and err == b"", err.decode()


def test_verify_all_checks_under_python_O_at_the_minimum_caps(tmp_path):
    # -O strips assert statements; every check must still run and pass
    env = dict(
        os.environ,
        PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)),
        STANSYM_CONFIG=str(tmp_path / "absent.json"),
        STANSYM_MAX_RANK_FINITE="2",
        STANSYM_MAX_RANK_AFFINE="3",
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "stansym.cli", "verify", "all", "--format", "json"],
        capture_output=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    results = json.loads(proc.stdout)
    assert [r["suite"] for r in results] == sorted(cli.SUITES)
    assert all(c["ok"] for r in results for c in r["checks"])


def test_failed_cross_check_exits_1(capsys, monkeypatch):
    from stansym import nilhecke

    monkeypatch.setattr(
        nilhecke, "_j_basis_by_solver", lambda n, w: NilCoxeterElement.zero(n, True)
    )
    code, out, err = run(["jbasis", "-n", "3", "2,1"], capsys)
    assert code == 1 and out == ""
    assert "j-basis constructions disagree" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "config, env",
    [
        ('{"max_rank_finite": 3.7}', {}),
        ('{"max_rank_finite": "x"}', {}),
        ("{}", {"STANSYM_MAX_RANK_AFFINE": "2.5"}),
        ("{}", {"STANSYM_MAX_RANK_AFFINE": "0"}),
        ('{"max_rank_finite": true}', {}),
        ('{"max_rank_finite": 1}', {}),
        ("{}", {"STANSYM_MAX_RANK_FINITE": " 4"}),
        ("[4]", {}),
        ('{"max_rank_finite": 4,', {}),
        (None, {}),  # the config path is a directory
    ],
)
def test_bad_cap_exits_2(config, env, capsys, monkeypatch, tmp_path):
    path = tmp_path / "stansym.json"
    if config is None:
        path.mkdir()
    else:
        path.write_text(config)
    monkeypatch.setenv("STANSYM_CONFIG", str(path))
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, err = run(["stanley", "21"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_valid_cap_takes_effect(monkeypatch, tmp_path):
    path = tmp_path / "stansym.json"
    path.write_text(json.dumps({"max_rank_finite": 4}))
    monkeypatch.setenv("STANSYM_CONFIG", str(path))
    for key in ("STANSYM_MAX_RANK_FINITE", "STANSYM_MAX_RANK_AFFINE"):
        monkeypatch.delenv(key, raising=False)
    assert load_caps()["max_rank_finite"] == 4


# one argv per subcommand; each must exit 0 in text and in JSON
SAMPLES = {
    "stanley": ["stanley", "2431"],
    "schur-expand": ["schur-expand", "2431"],
    "affine-stanley": ["affine-stanley", "-n", "3", "21202"],
    "affine-schur-expand": ["affine-schur-expand", "-n", "3", "[-2, 2, 6]", "--as", "window"],
    "eg-insert": ["eg-insert", "21232"],
    "reduced-words": ["reduced-words", "4321"],
    "little-move": ["little-move", "2134321", "5"],
    "kschur": ["kschur", "-n", "3", "2,1"],
    "jbasis": ["jbasis", "-n", "3", "2,1"],
    "verify": ["verify", "transition"],
}


def _subcommands():
    [action] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("name", sorted(_subcommands()))
def test_every_subcommand_carries_a_handler_that_prints_text_and_json(name, capsys):
    assert callable(_subcommands()[name].get_default("handler"))
    argv = SAMPLES[name]  # a command added without a sample fails here
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "") and out
    code, out, err = run(argv + ["--format", "json"], capsys)
    assert (code, err) == (0, "")
    json.loads(out)


SEQUENCE = (
    ["stanley", "2431"],
    ["--format", "json", "schur-expand", "21543"],
    ["reduced-words", "321", "--format", "json"],
    ["stanley", "2431", "--method", "quasisym", "--format", "json"],
    ["kschur", "-n", "3", "2,1"],
    ["eg-insert", "2132"],
    ["stanley", "24x1"],
    ["verify", "examples"],
)


def test_consecutive_main_calls_build_one_parser_and_match_separate_calls(capsys, monkeypatch):
    separate = []
    for argv in SEQUENCE:
        cli._parser.cache_clear()
        separate.append(run(argv, capsys))
    built = []
    build_parser = cli.build_parser

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        together = []
        for argv in SEQUENCE:
            together.append(run(argv, capsys))
            with pytest.raises(SystemExit):  # a usage error leaves the kept parser usable
                main(["stanley"])
            capsys.readouterr()
    finally:
        cli._parser.cache_clear()
    assert together == separate
    assert [code for code, _, _ in together] == [0, 0, 0, 0, 0, 0, 2, 0]
    assert len(built) == 1
