"""Command-line interface: parsing, output formats, exit codes."""

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
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL [eg] transition-tree Schur expansion = Kostka peel of F_w on S_4"
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
