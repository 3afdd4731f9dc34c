import contextlib
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import boxmeasure
from boxmeasure import (Cell, Interval, ParseError, SetExpr, UnknownName,
                        canonicalize, contains_point, evaluate, from_cell, mu, parse,
                        parse_defs, print_expr, set_equal, translate)
from boxmeasure import boxset, dsl
from boxmeasure.dsl import cli_main
from helpers import (assert_same, evaluate_oracle, parse_oracle, print_expr_oracle,
                     random_cell, setexpr_dataclass_oracle, union_fold_oracle)

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


def test_parse_error_names_bang_only_where_it_is_accepted():
    # the operand of "x" is an atom, so "!" cannot stand there
    for source, offset in (("A x !B", 4), ("[0,1] x", 7)):
        with pytest.raises(ParseError) as exc:
            parse(source)
        assert exc.value.offset == offset
        assert exc.value.expected == 'an interval, "(", a function, or a name'
    for source in ("!", "A |", "(A) x ("):
        with pytest.raises(ParseError) as exc:
            parse(source)
        assert exc.value.expected == 'an interval, "(", "!", a function, or a name'


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


# sources that print_expr writes back as they are: "(!A) x B" once lost its
# parentheses, which "!" then read as taking the product, and an infinite
# argument was written "inf", which a function argument cannot be
@pytest.mark.parametrize("src", ["(!A) x B", "!(!A x B) x C", "(!A) x B x C", "!A x B",
                                 "A & !B | C", "scale([0,1], 1e400)", "translate([0,1], -1e400)"])
def test_print_expr_round_trips(src):
    e = parse(src)
    assert print_expr(e) == src
    assert parse(print_expr(e)) == e


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


@pytest.mark.parametrize("word", ["x", "inf", "translate", "scale", "permute", "reflect"])
def test_parse_defs_rejects_a_word_that_is_no_name(word):
    with pytest.raises(ValueError, match=f"definitions line 2: bad name '{word}'"):
        parse_defs(f"a = [0,1]\n{word} = [0,1]")
    assert set(parse_defs(f"a = [0,1]\n{word}1 = a")) == {"a", f"{word}1"}


def test_evaluate_argument_validation():
    with pytest.raises(ValueError):
        evaluate(parse("permute([0,1] x [0,1], 0, 0)"))
    with pytest.raises(ValueError):
        evaluate(parse("reflect([0,1], 0.5)"))
    with pytest.raises(ValueError):
        evaluate(parse("scale([0,1], 2, 3)"))


def _long_union_chain() -> tuple[str, list[Cell]]:
    # the chain is a left-deep tree 2048 levels deep, past the recursion limit
    cells = [random_cell(random.Random(i), 3) for i in range(2048)]
    return " | ".join(",".join(str(f) for f in c.factors) for c in cells), cells


def test_evaluate_a_long_union_chain():
    src, cells = _long_union_chain()
    assert_same(evaluate(parse(src)), canonicalize(cells, 3))


def test_print_a_long_union_chain():
    # print_expr recursed once per "|" and raised RecursionError at 600 terms
    src, _ = _long_union_chain()
    printed = print_expr(parse(src))
    assert print_expr(parse(printed)) == printed
    assert_same(evaluate(parse(printed)), evaluate(parse(src)))


# one source per kind of nesting, k levels deep
NESTINGS = {
    "parentheses": lambda k: "(" * k + "[0,1]" + ")" * k,
    "complements": lambda k: "!" * k + "[0,1]",
    "calls": lambda k: "translate(" * k + "[0,1]" + ", 1)" * k,
}
# chains of k operators: trees k levels deep that nest nothing
CHAINS = {
    "product chain": lambda k: " x ".join(["[0,1]"] * (k + 1)),
    "difference chain": lambda k: " \\ ".join(["[0,2]"] + ["{1}"] * k),
    # the first operand of a chain ends up under all of its operators
    "chain under a chain": lambda k: ("(" + " x ".join(["[0,1]"] * (k // 2 + 1)) + ")"
                                      + " x [0,1]" * (k - k // 2)),
}


@pytest.mark.parametrize("kind", [*NESTINGS, *CHAINS])
def test_nesting_limit(kind):
    # 100 levels of "(", "!" or calls parse, evaluate and print back, and the
    # 101st is a ParseError; a chain of 2000 operators is no nesting at all
    if kind in NESTINGS:
        e = parse(NESTINGS[kind](100))
        evaluate(e)
        assert parse(print_expr(e)) == e
        with pytest.raises(ParseError, match="at most 100 levels of nesting"):
            parse(NESTINGS[kind](101))
        return
    e = parse(CHAINS[kind](2000))
    printed = print_expr(e)
    assert parse(printed) == e
    assert_same(evaluate(parse(printed)), evaluate(e))


@pytest.mark.parametrize("src", ["(" * 300 + "[0,1]" + ")" * 300, "!" * 1000 + "[0,1]"],
                         ids=["300 parentheses", "1000 complements"])
def test_cli_deep_nesting_is_a_parse_error(capsys, src):
    # these raised RecursionError from the parser
    assert cli_main(["measure", src]) == 1
    assert "expected at most 100 levels of nesting" in capsys.readouterr().err


@pytest.mark.parametrize("src, first_line", [
    (CHAINS["product chain"](1999), "mu = 1 + 2000x + 1999000x^2 + "),
    (CHAINS["difference chain"](1999), "mu = 2x, chi = 0, dim = 1"),
], ids=["2000-term product", "2000-term difference"])
def test_cli_long_chains_run(capsys, src, first_line):
    # a 2000-term chain used to be a parse error, past the nesting limit
    assert cli_main(["measure", src]) == 0
    assert capsys.readouterr().out.startswith(first_line)


@pytest.mark.parametrize("src, error, message", [
    ("scale(mystery, 2, 3)", ValueError, "scale takes exactly one factor"),
    ("reflect(mystery, 0.5)", ValueError, "reflect arguments must be finite integers, got 0.5"),
    ("reflect(mystery, 0, 1)", ValueError, "reflect takes exactly one axis"),
    ("permute(mystery, 0.5)", UnknownName, "undefined name 'mystery'"),
    ("translate(mystery, 1e400)", UnknownName, "undefined name 'mystery'"),
])
def test_transform_checks_its_arguments_before_or_after_its_operand(capsys, src, error, message):
    # scale and reflect check their arguments before evaluating their
    # operand; permute and translate evaluate it first
    with pytest.raises(ValueError) as exc:
        evaluate(parse(src))
    assert (type(exc.value), str(exc.value)) == (error, message)
    assert cli_main(["measure", src]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


# The walk against the recursive evaluate and print_expr, on trees up to 30
# levels deep.

_ENV_DEFS = "P = [0,1) | {2}\nQ = (0.5,3] \\ {1}\nR = [0,1] x (0,2] | {3},{0}\nS = R x (0,1)"
_NAMES = {1: ["P", "Q"], 2: ["R"], 3: ["S"]}
_ENDS = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0])
_GOOD_ARGS = {
    "translate": lambda d: st.lists(st.sampled_from([-1.0, -0.0, 0.5]), min_size=d, max_size=d),
    "scale": lambda d: st.sampled_from([0.5, 2.0]).map(lambda b: [b]),
    "permute": lambda d: st.permutations([float(i) for i in range(d)]),
    "reflect": lambda d: st.integers(0, d - 1).map(lambda i: [float(i)]),
}
_ANY_ARGS = st.lists(st.sampled_from([0.0, 0.5, 1.0, -1.0, 3.0, INF]), max_size=3)


@st.composite
def _boxes(draw, d: int) -> SetExpr:
    ivs = []
    for _ in range(d):
        lo, hi = sorted((draw(_ENDS), draw(_ENDS)))
        ivs.append(Interval.point(lo) if lo == hi else
                   Interval(lo, hi, draw(st.booleans()), draw(st.booleans())))
    return SetExpr("box", payload=tuple(ivs))


@st.composite
def _trees(draw, d: int, depth: int) -> SetExpr:
    """A tree of ambient dimension d exactly depth levels high: one operand
    of each node is a tree one level lower, to its left or right, and any
    other is a box or a name. About one node in 20 has a fault: an unknown
    name, a box of another dimension, or arguments drawn at random."""
    fault = draw(st.integers(0, 19)) == 0
    if depth == 0:
        if fault:
            return draw(st.just(SetExpr("name", payload=("mystery",))) | _boxes(d + 1))
        return draw(_boxes(d) | st.sampled_from(_NAMES[d]).map(
            lambda name: SetExpr("name", payload=(name,))))
    kinds = ["union", "intersect", "difference", "complement", *_GOOD_ARGS]
    kind = draw(st.sampled_from(kinds + ["product"] * (d > 1)))
    if kind == "product":
        left = draw(st.integers(1, d - 1))
        dims = (left, d - left)
    else:
        dims = (d,) * (2 if kind in ("union", "intersect", "difference") else 1)
    deep = draw(st.integers(0, len(dims) - 1))
    children = tuple(draw(_trees(k, depth - 1 if i == deep else 0)) for i, k in enumerate(dims))
    if kind in _GOOD_ARGS:
        args = draw(_ANY_ARGS if fault else _GOOD_ARGS[kind](d))
        return SetExpr(kind, children, tuple(args))
    return SetExpr(kind, children)


def _cut_bytes(a) -> list[bytes] | None:
    """The bytes of the cuts of a's stored grid; None if it stores none."""
    grid = a.__dict__.get("_grid")
    return grid and [c.tobytes() for c in grid[0]]


def _outcome(fn, e: SetExpr):
    """(result, None), or (None, (type, message)) of what fn raised; each
    call gets new sets for the names, since a set keeps the grid built on it."""
    try:
        return fn(e, parse_defs(_ENV_DEFS)), None
    except Exception as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.integers(0, 30).flatmap(lambda n: _trees(d, n))))
def test_walk_matches_the_recursive_oracles(e):
    assert print_expr(e) == print_expr_oracle(e)
    (got, got_err), (want, want_err) = _outcome(evaluate, e), _outcome(evaluate_oracle, e)
    assert got_err == want_err
    if want is not None:
        assert_same(got, want)
        assert _cut_bytes(got) == _cut_bytes(want)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.integers(0, 30).flatmap(lambda n: _trees(d, n))))
def test_print_expr_round_trips_on_random_trees(e):
    assert parse(print_expr(e)) == e


def _rebuilt(e: SetExpr) -> SetExpr:
    return SetExpr(e.kind, tuple(map(_rebuilt, e.children)), e.payload)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.integers(0, 30).flatmap(lambda n: _trees(d, n))),
       st.data())
def test_setexpr_eq_hash_repr_match_the_dataclass(e, data):
    want = setexpr_dataclass_oracle(e)
    assert repr(e) == repr(want)
    copy = _rebuilt(e)
    assert copy is not e and copy == e and hash(copy) == hash(e)
    other = data.draw(st.integers(1, 3).flatmap(lambda d: _trees(d, 3)))
    assert (other == e) == (setexpr_dataclass_oracle(other) == want)
    assert e != print_expr(e)


def test_setexpr_of_a_2000_operator_chain():
    # the dataclass's ==, hash and repr raised RecursionError here
    src = " x ".join(["[0,1]"] * 2001)
    e, f = parse(src), parse(src)
    assert e == f and hash(e) == hash(f)
    assert e != parse(" x ".join(["[0,1]"] * 2000))
    assert e != parse(" x ".join(["[0,1]"] * 2000 + ["[0,2]"]))  # one payload differs
    assert {e: 1}[f] == 1
    text = repr(e)
    assert text.startswith("SetExpr(kind='product', children=(SetExpr(kind='product', ")
    assert text.count("SetExpr(") == 4001


FUZZ_TOKENS = (list("[](){},|&\\!x ") + list("0123456789")
               + ["inf", "-inf", "translate", "scale", "permute", "reflect", "1e400", "nan"])


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=30).map("".join))
@example("{1e400}")  # a point past the float range
@example("permute([0,1],[0,1], 1e400, 0)")  # an axis past the float range
def test_parse_fuzz_raises_only_parse_error(src):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(["measure", "--", src])  # "--": src may start with "-"
    assert code in (0, 1, 2)
    try:
        parse(src)
    except ParseError:
        pass
    else:
        return
    assert code == 1
    assert err.getvalue().startswith("error: parse error")


def _parse_outcome(parse_fn, src: str):
    """repr of the tree (it tells 0.0 from -0.0), or where and what a
    ParseError reports."""
    try:
        return repr(parse_fn(src))
    except ParseError as exc:
        return exc.offset, exc.line, exc.column, exc.expected


_IV_SOURCES = st.tuples(st.sampled_from("[("), st.sampled_from(["0", "-0.0", "1.5", "-inf", "2"]),
                        st.sampled_from(["1", "-0.0", "inf", "3e2", "0"]),
                        st.sampled_from("])")).map(lambda t: f"{t[0]}{t[1]},{t[2]}{t[3]}")
_EXPR_SOURCES = st.recursive(
    st.one_of(st.lists(_IV_SOURCES | st.just("{-0.0}"), min_size=1, max_size=3).map(",".join),
              st.sampled_from(["A", "b_2"])),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([" | ", "&", " \\ ", " x "]), inner).map("".join),
        inner.map(lambda e: f"!{e}"), inner.map(lambda e: f"({e})"),
        st.tuples(st.sampled_from(["translate(", "scale(", "permute(", "reflect("]), inner,
                  st.lists(st.sampled_from(["1", "-0.0", "1e400"]), max_size=2))
        .map(lambda t: t[0] + t[1] + "".join(f", {a}" for a in t[2]) + ")")),
    max_leaves=6)
_SPACES = st.lists(st.sampled_from([""] * 6 + [" ", "\n", "\t "]), min_size=1, max_size=40)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(FUZZ_TOKENS + ["\n", "-0.0", "A", "\t"]), max_size=40).map("".join),
    st.tuples(_EXPR_SOURCES, _SPACES).map(  # a valid source spaced out, or one cut short
        lambda t: "".join(ws + ch for ws, ch in zip(t[1] * len(t[0]), t[0]))),
    st.tuples(_EXPR_SOURCES, st.integers(0, 60)).map(lambda t: t[0][:t[1]])))
@example("[0,1] |\n  (2,1]")  # an empty interval on the second line
@example("  \n  ")
@example("[0,1] \n x ?")
@example("translate(0,1)")  # a call's "(" does not open an interval
@example("scale \n((0,1),2)")
@example("[0 1]")
@example("(-inf,0 x [0,1]")  # "(" opens an interval before "bound ,", inf or not
def test_parse_matches_the_token_object_parser(src):
    assert _parse_outcome(parse, src) == _parse_outcome(parse_oracle, src)


@pytest.mark.parametrize("src", [
    "[0,1]" + " \n\t" * 40_000,  # trailing whitespace
    "[" + "1" * 100_000,  # a bound that never closes
    "[0," + "1" * 50_000 + "." + "2" * 50_000 + "x",
    "{" + " " * 100_000 + "1" + " " * 100_000,
    "translate" + " " * 100_000 + "x",
    "[0,1] |" + " " * 100_000 + "(0,1)",
])
def test_parse_is_linear_on_long_runs(src):
    # each case backtracks quadratically (hours, not milliseconds) under a
    # token regex that can split a run of digits or of spaces in many ways
    assert _parse_outcome(parse, src) == _parse_outcome(parse_oracle, src)


def _bits(a) -> list:
    """A complex's cells as the bytes of their endpoints and their flags."""
    return [tuple((struct.pack("<2d", f.lo, f.hi), f.lo_closed, f.hi_closed)
                  for f in c.factors) for c in a.cells]


_LITERAL_ENDS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([0.0, -0.0, 5e-324, -INF, INF]))


@st.composite
def _intervals(draw):
    lo, hi = sorted((draw(_LITERAL_ENDS), draw(_LITERAL_ENDS)))
    if lo == hi and math.isfinite(lo):
        return Interval.point(lo)
    assume(lo != hi and lo != INF and hi != -INF)
    return Interval(lo, hi, draw(st.booleans()) and math.isfinite(lo),
                    draw(st.booleans()) and math.isfinite(hi))


@settings(max_examples=300, deadline=None)
@given(st.lists(_intervals(), min_size=1, max_size=4))
def test_box_literal_columns_match_from_cell(ivs):
    got = evaluate(SetExpr("box", payload=tuple(ivs)))
    want = from_cell(Cell(ivs))
    assert got.ambient_dim == want.ambient_dim
    for name in ("ends", "closed"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())
        assert not g.flags.writeable
    assert _bits(got) == _bits(want)


# -------------------------------------------------------------------- cli

# (argv, exit code, stdout, stderr) of each subcommand in text and --json form,
# and of each kind of error exit, byte for byte
CLI_GOLDEN = [
    (["measure", "[0,1] x [0,1]"], 0,
     "mu = 1 + 2x + 1x^2, chi = 1, dim = 2\nUf = true, Ub = true\n", ""),
    (["measure", "[0,3],[0,3] \\ (1,2),(1,2)", "--json"], 0,
     '{"mu": {"coeffs": [0.0, 8.0, 8.0]}, "dim": 2, "in_Uf": true, "in_Ub": true}\n', ""),
    (["compare", "(0,1)", "[0,1]"], 0, "less\nmu(A) = -1 + 1x\nmu(B) = 1 + 1x\n", ""),
    (["compare", "(0,1)", "[0,1]", "--json"], 0,
     '{"verdict": "less", "mu_a": {"coeffs": [-1.0, 1.0]}, "mu_b": {"coeffs": [1.0, 1.0]}}\n', ""),
    (["subset", "(0,1)", "[0,1] | [2,3]"], 0,
     "A subset of B: true\nB subset of A: false\nequal: false\n", ""),
    (["crofton", "[0,1] x [0,2]", "--index", "d", "--samples", "2000", "--seed", "7"], 0,
     "mu_2 estimate = 2 (std error 0, 2000 samples, seed 7)\nexact = 2, z = 0.000\n", ""),
    (["crofton", "[0,1] x [0,2]", "--index", "d-1", "--samples", "2000", "--seed", "7"], 0,
     "mu_1 estimate = 3.00662 (std error 0.0276, 2000 samples, seed 7)\nexact = 3, z = 0.240\n", ""),
    (["crofton", "[0,1] x [0,2]", "--index", "d", "--samples", "2000", "--seed", "7", "--json"], 0,
     '{"index": 2, "estimate": 2.0, "std_error": 0.0, "n_samples": 2000, "seed": 7, '
     '"exact": 2.0, "z_score": 0.0}\n', ""),
    (["find-n", "--poly", "0,1.41421356237", "--epsilon", "0.05"], 0,
     "N = 12\n||(1.41421356237x)(N)|| = 0.0294373\n", ""),
    (["sample", "--set", "[0,2] x {0}", "--point", "0.5,0", "--m", "10"], 0,
     "N = 3, epsilon = 0.1, points = 7\nset 0: count = 7, mu(N) = 7, discrepancy = 0\n", ""),
    (["sample", "--set", "[0,2] x {0}", "--point", "0.5,0", "--m", "10", "--json"], 0,
     '{"N": 3, "epsilon": 0.1, "points": [[0.16666666666666666, 0.0], [0.3333333333333333, 0.0], '
     '[0.5, 0.0], [1.2, 0.0], [1.4, 0.0], [1.6, 0.0], [1.8, 0.0]], '
     '"per_set": [{"count": 7, "mu_at_N": 7.0, "discrepancy": 0.0}]}\n', ""),
    (["hausdorff", "[0,1] x {0}", "--index", "1"], 0, "H^1 = 1\n", ""),
    (["hausdorff", "[0,1] x {0}", "--index", "1", "--check-ratio", "--m", "100"], 0,
     "H^1 = 1\nratio = 1.5 at N = 2, target = 1, gap = 0.5 (bound 0.505)\n", ""),
    # H^1 is printed before the ratio check fails
    (["hausdorff", "[0,1] x [0,1]", "--index", "1", "--check-ratio"], 2,
     "H^1 = inf\n", "error: index 1 does not match the set dimension 2\n"),
    (["find-n", "--poly", "0,1.41421356237", "--epsilon", "0.0000001", "--nmax", "100"], 3,
     "", "error: no admissible N found up to 100\n"),
    (["measure", "[0,1] x"], 1, "", "error: parse error at line 1, column 8 (offset 7): "
     'expected an interval, "(", a function, or a name\n'),
    (["compare", "(0,1)", "[0,", "--json"], 1, "", "error: parse error at line 1, column 4 "
     '(offset 3): expected NUMBER, "inf", or "-inf"\n'),
    (["measure", "!([0,1] x [0,1])", "--json"], 2,
     "", "error: indeterminate coefficient at x^1: (+inf) + (-inf)\n"),
    (["crofton", "[0,inf)", "--index", "d", "--samples", "10", "--json"], 2,
     "", "error: estimator requires a bounded set\n"),
    (["subset", "[0,1]", "[0,1],[0,1]"], 2, "", "error: 1 vs 2\n"),
    (["measure"], 1, "", "usage error: the following arguments are required: expr\n"),
]


@pytest.mark.parametrize("argv, code, out, err", CLI_GOLDEN,
                         ids=[" ".join(argv) for argv, *_ in CLI_GOLDEN])
def test_cli_golden(capsys, argv, code, out, err):
    assert cli_main(argv) == code
    assert capsys.readouterr() == (out, err)


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


def test_cli_compare_decides_on_exact_values(capsys):
    big = "[0,1152921504606846976]"  # 2^60
    assert cli_main(["compare", big + " \\ (5,6)", big, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "less"
    # the rounded polynomials differ only below their top coefficient
    assert data["mu_a"] == {"coeffs": [2.0, 2.0 ** 60]}
    assert data["mu_b"] == {"coeffs": [1.0, 2.0 ** 60]}


def test_cli_measure_of_a_2000_axis_cube_is_finite(capsys):
    # the coefficients of (1 + x)^2000 past the float range print as inf,
    # but the exact ones are finite, and so is the set
    assert cli_main(["measure", " x ".join(["[0,1]"] * 2000)]) == 0
    first, flags = capsys.readouterr().out.splitlines()
    assert first.startswith("mu = 1 + 2000x + 1999000x^2 + ") and " + infx^1000 + " in first
    assert flags == "Uf = true, Ub = true"


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


@pytest.mark.parametrize("src, message", [
    ("permute([0,1],[0,1], 1e400, 0)", "permute arguments must be finite integers, got inf"),
    ("reflect([0,1], 1e400)", "reflect arguments must be finite integers, got inf"),
    ("reflect([0,1], -1e400)", "reflect arguments must be finite integers, got -inf"),
    ("scale([0,1], 1e400)", "scale factor beta must be finite, got inf"),
    ("translate([0,1], 1e400)", "translate vector v must be finite, got (inf,)"),
])
def test_cli_nonfinite_transform_argument_is_a_domain_error(capsys, src, message):
    assert cli_main(["measure", src]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_cli_sample_too_large_is_a_domain_error(capsys):
    assert cli_main(["sample", "--set", "[0,1.4142135623730951],[2,3.7320508075688772],"
                     "[0,2.23606797749979]", "--m", "10000"]) == 2
    assert capsys.readouterr().err.startswith("error: a sample of ")


@pytest.mark.parametrize("argv, flag", [
    (["find-n", "--poly", "1,a", "--epsilon", "0.1"], "--poly"),
    (["sample", "--set", "[0,1] x {0}", "--point", "0,b", "--m", "10"], "--point"),
])
def test_cli_bad_number_list_is_a_usage_error(capsys, argv, flag):
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and flag in err


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
