import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import boxmeasure
from boxmeasure import (Cell, Interval, ParseError, SetExpr, UnknownName,
                        canonicalize, contains_point, evaluate, from_cell, mu, parse,
                        parse_defs, print_expr, set_equal, translate)
from boxmeasure import boxset, dsl
from boxmeasure.dsl import cli_main
from helpers import assert_same, random_cell, union_fold_oracle

INF = math.inf


# ------------------------------------------------------------------ parse

def test_parse_product_of_half_open():
    e = parse("[0,1) x [0,1)")
    assert e == SetExpr("product", (
        SetExpr("box", payload=(Interval.half_open(0, 1),)),
        SetExpr("box", payload=(Interval.half_open(0, 1),)),
    ))


def test_parse_two_axis_boxes_and_difference():
    e = parse("[0,3),[0,3] \\ (1,2),(1,2)")
    assert e.kind == "difference"
    assert e.children[0] == SetExpr("box", payload=(
        Interval.half_open(0, 3), Interval.closed(0, 3)))
    assert e.children[1] == SetExpr("box", payload=(
        Interval.open(1, 2), Interval.open(1, 2)))


def test_parse_point_and_infinite_bounds():
    assert parse("{3}") == SetExpr("box", payload=(Interval.point(3),))
    assert parse("(-inf,0]") == SetExpr("box", payload=(Interval(-INF, 0, False, True),))
    assert parse("(0,inf)") == SetExpr("box", payload=(Interval(0, INF, False, False),))


def test_precedence_union_vs_intersect():
    e = parse("A | B & C")
    assert e == SetExpr("union", (
        SetExpr("name", payload=("A",)),
        SetExpr("intersect", (SetExpr("name", payload=("B",)),
                              SetExpr("name", payload=("C",)))),
    ))


def test_precedence_complement_over_product():
    e = parse("!A x B")
    assert e == SetExpr("complement", (
        SetExpr("product", (SetExpr("name", payload=("A",)),
                            SetExpr("name", payload=("B",)))),
    ))


def test_left_associativity():
    e = parse("A \\ B \\ C")
    assert e.kind == "difference" and e.children[0].kind == "difference"
    e = parse("A x B x C")
    assert e.kind == "product" and e.children[0].kind == "product"


def test_parse_function_calls():
    e = parse("translate([0,1] x [0,1], 1, 0)")
    assert e.kind == "translate" and e.payload == (1.0, 0.0)
    e = parse("scale([0,1), 2)")
    assert e.kind == "scale" and e.payload == (2.0,)
    e = parse("permute(A, 1, 0)")
    assert e.kind == "permute" and e.payload == (1.0, 0.0)
    e = parse("reflect(A, 0)")
    assert e.kind == "reflect" and e.payload == (0.0,)


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse("[0,")
    assert exc.value.offset == 3
    assert exc.value.line == 1 and exc.value.column == 4
    assert "NUMBER" in exc.value.expected and '"-inf"' in exc.value.expected

    with pytest.raises(ParseError) as exc:
        parse("[0,1] | ")
    assert exc.value.offset == 8

    with pytest.raises(ParseError) as exc:
        parse("[0,1] ? [2,3]")
    assert exc.value.offset == 6

    with pytest.raises(ParseError) as exc:
        parse("scale([0,1) 2)")
    assert exc.value.offset == 12

    with pytest.raises(ParseError) as exc:
        parse("[1,0]")  # backwards interval reported at its opening bracket
    assert exc.value.offset == 0


def test_parse_error_multiline_position():
    with pytest.raises(ParseError) as exc:
        parse("[0,1] |\n  [2,")
    assert exc.value.offset == 13
    assert exc.value.line == 2 and exc.value.column == 6


ROUND_TRIP_CORPUS = [
    "[0,1]",
    "[0,1)",
    "(0,1]",
    "(0,1)",
    "{3}",
    "{-2.5}",
    "(-inf,0]",
    "[0,inf)",
    "(-inf,inf)",
    "[0.25,0.75]",
    "[-1.5,2.25)",
    "[0,1],[0,1]",
    "[0,3),[0,3]",
    "(1,2),(1,2),(3,4)",
    "{0},[0,1]",
    "[0,1] | [2,3]",
    "[0,1] | [2,3] | [4,5]",
    "[0,2] & [1,3]",
    "[0,2] \\ [1,2]",
    "[0,2] \\ [1,2] \\ [0,1]",
    "!([0,1])",
    "![0,1]",
    "!!([0,1])",
    "[0,1] x [0,1]",
    "[0,1) x [0,1) x [0,1)",
    "[0,1] x {0}",
    "{0} x [0,1]",
    "!([0,1] | [2,3])",
    "([0,1] | [2,3]) & [0,5]",
    "([0,1] | [2,3]) \\ (0,1)",
    "[0,1] | [2,3] & [2,5]",
    "!([0,1]) x [0,1]",
    "!([0,1] x [0,1])",
    "translate([0,1], 5)",
    "translate([0,1] x [0,1], 1, 0)",
    "translate([0,1], -2.5)",
    "scale([0,1), 2)",
    "scale([0,1] x [0,1], 0.5)",
    "permute([0,1] x {0}, 1, 0)",
    "reflect([0,1), 0)",
    "reflect([0,1] x [2,3], 1)",
    "scale(translate([0,1], 1), 3)",
    "translate(scale([0,1], 2) | [5,6], 1)",
    "A",
    "A | B",
    "A & B \\ C",
    "ring \\ sq",
    "translate(A, 1, 0)",
    "(A | B) x C",
    "[0,1] x (A | B)",
]


def test_round_trip_corpus():
    assert len(ROUND_TRIP_CORPUS) == 50
    for src in ROUND_TRIP_CORPUS:
        e = parse(src)
        printed = print_expr(e)
        assert parse(printed) == e, f"round trip failed: {src!r} -> {printed!r}"


# --------------------------------------------------------------- evaluate

def test_evaluate_union_two_segments():
    got = evaluate(parse("[0,1] | [2,3]"))
    assert got.ambient_dim == 1
    assert contains_point(got, (0.5,)) and contains_point(got, (2.0,))
    assert not contains_point(got, (1.5,))
    assert set_equal(got, evaluate(parse("[0,1]"))) is False
    assert mu(got).mu.coeffs == (2.0, 2.0)
    assert set_equal(got, evaluate(parse("[2,3] | [0,1]")))


def test_evaluate_complement_of_ray():
    got = evaluate(parse("!((0,inf))"))
    assert set_equal(got, from_cell(Cell([Interval(-INF, 0, False, True)])))


def test_evaluate_scale():
    got = evaluate(parse("scale([0,1), 2)"))
    assert set_equal(got, from_cell(Cell([Interval.half_open(0, 2)])))


def test_evaluate_box_literal_is_single_cell():
    got = evaluate(parse("[0,1] x [0,1]"))
    assert len(got.cells) == 1


def test_evaluate_square_ring():
    ring = evaluate(parse("[0,3],[0,3] \\ (1,2),(1,2)"))
    assert mu(ring).mu.coeffs == (0.0, 8.0, 8.0)


def test_evaluate_unknown_name():
    with pytest.raises(UnknownName):
        evaluate(parse("mystery"))


def test_evaluate_with_env_and_defs():
    env = parse_defs("""
# a definitions file
sq = [0,1] x [0,1]
ring = scale(sq, 3) \\ (1,2),(1,2)   # uses an earlier name
""")
    assert set(env) == {"sq", "ring"}
    assert mu(env["ring"]).mu.coeffs == (0.0, 8.0, 8.0)
    got = evaluate(parse("ring \\ sq"), env)
    assert got.ambient_dim == 2


def test_evaluate_argument_validation():
    with pytest.raises(ValueError):
        evaluate(parse("permute([0,1] x [0,1], 0, 0)"))
    with pytest.raises(ValueError):
        evaluate(parse("reflect([0,1], 0.5)"))
    with pytest.raises(ValueError):
        evaluate(parse("scale([0,1], 2, 3)"))


def test_evaluate_a_long_union_chain():
    # the chain is a left-deep tree 2048 levels deep, past the recursion limit
    cells = [random_cell(random.Random(i), 3) for i in range(2048)]
    src = " | ".join(",".join(str(f) for f in c.factors) for c in cells)
    assert_same(evaluate(parse(src)), canonicalize(cells, 3))


def test_evaluate_union_chains_equal_the_fold():
    a, b, c = "[0,1],(0,2]", "{1},[-1,3)", "(0.5,4],{-0.0}"
    lit = {s: evaluate(parse(s)) for s in (a, b, c)}
    assert_same(evaluate(parse(f"{a} | ({b} | {c})")),
                union_fold_oracle(lit[a], union_fold_oracle(lit[b], lit[c])))
    env = parse_defs(f"r = {b} \\ {c}")  # a name bound to an op result
    got = evaluate(parse(f"{a} | r | translate({c}, 0.5, -0.0) | {b}"), env)
    want = union_fold_oracle(lit[a], env["r"], translate(lit[c], [0.5, -0.0]), lit[b])
    assert_same(got, want)
    assert [x.tobytes() for x in got.__dict__["_grid"][0]] == \
        [x.tobytes() for x in want.__dict__["_grid"][0]]


def test_evaluate_makes_one_union_call_per_union_subtree(monkeypatch):
    calls = []

    def union(*ops):
        calls.append(len(ops))
        return real(*ops)
    real = boxset.union
    monkeypatch.setattr(boxset, "union", union)
    evaluate(parse("[0,1] | ([2,3] | [4,5]) | ([0,9] & [1,2]) | [6,7]"))
    assert calls == [5]
    calls.clear()
    evaluate(parse("([0,1] | [2,3]) \\ ([1,2] | (3,4) | {5})"))
    assert calls == [2, 3]


FUZZ_TOKENS = (list("[](){},|&\\!x ") + list("0123456789")
               + ["inf", "-inf", "translate", "scale", "permute", "reflect", "1e400", "nan"])


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=30).map("".join))
@example("{1e400}")  # a point past the float range
def test_parse_fuzz_raises_only_parse_error(src):
    try:
        parse(src)
    except ParseError:
        pass
    else:
        return
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main(["measure", "--", src])  # "--": src may start with "-"
    assert code == 1
    assert err.getvalue().startswith("error: parse error")


# -------------------------------------------------------------------- cli

def test_cli_measure_golden(capsys):
    assert cli_main(["measure", "[0,1] x [0,1]"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "mu = 1 + 2x + 1x^2, chi = 1, dim = 2"
    assert out[1] == "Uf = true, Ub = true"


def test_cli_measure_json(capsys):
    assert cli_main(["measure", "[0,1] x [0,1]", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"mu": {"coeffs": [1.0, 2.0, 1.0]}, "dim": 2,
                    "in_Uf": True, "in_Ub": True}


def test_cli_compare(capsys):
    assert cli_main(["compare", "(0,1)", "[0,1]"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "less"
    assert cli_main(["compare", "(0,1)", "[0,1]", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "less"
    assert data["mu_a"] == {"coeffs": [-1.0, 1.0]}


def test_cli_subset(capsys):
    assert cli_main(["subset", "(0,1)", "[0,1]"]) == 0
    out = capsys.readouterr().out
    assert "A subset of B: true" in out and "B subset of A: false" in out


def test_cli_find_n(capsys):
    assert cli_main(["find-n", "--poly", "0,1.41421356237", "--epsilon", "0.05"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "N = 12"


def test_cli_crofton(capsys):
    code = cli_main(["crofton", "[0,1] x [0,1]", "--index", "d", "--samples",
                     "2000", "--seed", "7", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"index", "estimate", "std_error", "n_samples", "seed",
                         "exact", "z_score"}
    assert data["exact"] == 1.0


def test_cli_sample_json(capsys):
    code = cli_main(["sample", "--set", "[0,2] x {0}", "--m", "10", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["per_set"][0]["discrepancy"] == 0.0
    assert data["N"] >= 2


def test_cli_hausdorff(capsys):
    assert cli_main(["hausdorff", "[0,1] x {0}", "--index", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "H^1 = 1"
    assert cli_main(["hausdorff", "[0,1] x {0}", "--index", "1",
                     "--check-ratio", "--m", "100"]) == 0
    assert "ratio = " in capsys.readouterr().out


def test_cli_defs_file(tmp_path, capsys):
    f = tmp_path / "defs.txt"
    f.write_text("ring = [0,3],[0,3] \\ (1,2),(1,2)\n# comment\n")
    assert cli_main(["measure", "ring", "--defs", str(f)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "mu = 8x + 8x^2, chi = 0, dim = 2"


def test_cli_exit_codes(capsys):
    assert cli_main(["measure", "[0,"]) == 1  # parse error
    assert cli_main(["measure", "[0,1] | [0,1],[0,1]"]) == 2  # dimension mismatch
    assert cli_main(["subset", "[0,1]", "[0,1],[0,1]"]) == 2
    assert cli_main(["measure", "nope"]) == 2  # unknown name
    assert cli_main(["crofton", "[0,inf)", "--index", "d", "--samples", "10"]) == 2
    assert cli_main(["find-n", "--poly", "0,1.41421356237",
                     "--epsilon", "0.0000001", "--nmax", "100"]) == 3
    capsys.readouterr()


def test_cli_find_n_takes_a_negative_constant_term(capsys):
    assert cli_main(["find-n", "--poly", "-1,1.41421356237", "--epsilon", "0.05"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "N = 12"


def test_cli_sample_takes_a_negative_point(capsys):
    assert cli_main(["sample", "--set", "[-2,2] x {0}", "--point", "-0.5,0", "--m", "20"]) == 0
    assert capsys.readouterr().out.startswith("N = ")


def test_cli_expression_starting_with_minus_is_parsed(capsys):
    with pytest.raises(ParseError) as err:
        parse("-inf,1]")
    assert err.value.offset == 0
    assert cli_main(["measure", "-inf,1]"]) == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"
    assert cli_main(["measure", "--json", "-x"]) == 1  # not a number: still an option
    assert capsys.readouterr().err.startswith("usage error: ")


def test_cli_indeterminate_coefficient_is_a_domain_error(capsys):
    # the cells of the complement of a square add +inf and -inf at x^1
    assert cli_main(["measure", "!([0,1] x [0,1])"]) == 2
    assert capsys.readouterr().err.startswith("error: indeterminate coefficient at x^1")


def test_cli_grid_too_large_is_a_domain_error(monkeypatch, capsys):
    monkeypatch.setattr(boxset, "_GRID_BUDGET", 9)
    assert cli_main(["measure", "[0,1] | [2,3]"]) == 2
    assert capsys.readouterr().err.startswith("error: an endpoint grid of 9 atoms")


def test_python_dash_m_runs_the_cli_without_warnings():
    src = str(Path(boxmeasure.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "boxmeasure", "measure", "[0,1]"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("mu = 1 + 1x, chi = 1, dim = 1")


def test_cli_usage_error(capsys):
    assert cli_main(["measure"]) == 1
    assert cli_main(["bogus-command"]) == 1
    capsys.readouterr()


def _help_of_fresh_parser(argv) -> str:
    """--help output of a parser built anew, not the one cli_main keeps."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        dsl._build_cli.__wrapped__().parse_args(argv)
    return out.getvalue()


def test_cli_keeps_one_parser_across_calls(capsys):
    assert cli_main(["measure", "[0,1]"]) == 0
    assert capsys.readouterr().out.startswith("mu = 1 + 1x, chi = 1, dim = 1")
    assert cli_main(["subset", "(0,1)", "[0,1]"]) == 0
    assert capsys.readouterr().out.startswith("A subset of B: true")
    assert cli_main(["find-n", "--poly", "0,1.41421356237"]) == 1  # --epsilon missing
    assert cli_main(["measure", "[0,"]) == 1
    capsys.readouterr()
    assert dsl._build_cli() is dsl._build_cli()
    for argv in [[]] + [[name] for name in dsl._COMMANDS]:
        for _ in range(2):
            assert cli_main(argv + ["--help"]) == 0
            assert capsys.readouterr().out == _help_of_fresh_parser(argv + ["--help"])
