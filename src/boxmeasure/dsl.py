"""Expression language for box complexes, and the command line tool.

Grammar (whitespace between tokens is ignored):

    expr    := term { "|" term }                union, left-associative
    term    := factor { ("&" | "\\") factor }    intersection / difference
    factor  := "!" factor | atom { "x" atom }   complement; cartesian product
    atom    := box | "(" expr ")" | func | NAME
    box     := iv { "," iv }                    one interval per axis
    iv      := ("[" | "(") bound "," bound ("]" | ")") | "{" NUMBER "}"
    bound   := NUMBER | "-inf" | "inf"
    func    := ("translate" | "scale" | "permute" | "reflect")
               "(" expr { "," NUMBER } ")"

"{a}" is the point a; infinite bounds must pair with the round (open)
bracket. A complement takes the whole product chain after it, so "!A x B"
means "!(A x B)". The letter "x" is the product operator and is
not available as a name. Names are resolved against a definitions
environment ("name = expr" lines, "#" comments). "(" groups, "!" and
function calls nest at most 100 deep (see _MAX_DEPTH); a deeper one is a
ParseError. Chains of "|", "x", "&" and "\\" may be of any length.

One table, _OPERATORS, gives each operator its symbol, precedence and boxset
function, and parse, print_expr and evaluate all read it. Since "!" takes
the chain after it, print_expr writes the product of !A and B as "(!A) x B".

evaluate calls one boxset function a node, but for two kinds of node: a
maximal union subtree is one n-ary union, and an "&" or "\\" whose operands
are each a box or a union of boxes, such as "(A1 | A2) \\ (B1 | B2 | B3)", is
one membership pass over all the boxes on one grid (boxset._grouped). There
a box on the left weighs 1 and one on the right one more than all those on
the left, so one weighted count per atom tells both memberships; the result
is the fold's of union and the operator, errors included.

Tokens are plain (kind, text, pos, value) tuples, a symbol's kind being its
own text; one regex match, leading whitespace included, reads each token,
and a well-formed interval such as "[0,1)" or "{2}" is a single token.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import boxset, crofton, measure, sampler
from .boxset import BoxComplex, Interval
from .xpoly import (IndeterminateCoefficient, XPoly, dist_to_nearest_integer,
                    format_num, format_poly, xpoly_eval)

_FUNCS = ("translate", "scale", "permute", "reflect")


class UnknownName(ValueError):
    """An identifier in an expression has no definition."""


class ParseError(ValueError):
    def __init__(self, source: str, offset: int, expected: str):
        self.offset = offset
        self.line = source.count("\n", 0, offset) + 1
        self.column = offset - (source.rfind("\n", 0, offset) + 1) + 1
        self.expected = expected
        super().__init__(
            f"parse error at line {self.line}, column {self.column} "
            f"(offset {offset}): expected {expected}")


@dataclass(frozen=True, eq=False, repr=False)
class SetExpr:
    """Abstract syntax: kind, child expressions, literal payload.

    kinds: box (payload: Interval per axis), name (payload: the name),
    union/intersect/difference/product (two children), complement (one),
    translate/scale/permute/reflect (one child, numeric payload).
    ==, hash and repr walk the tree on a stack, so a tree of any depth has
    them; they read as the dataclass's would.
    """

    kind: str
    children: tuple["SetExpr", ...] = ()
    payload: tuple = ()

    def __eq__(self, other):
        if not isinstance(other, SetExpr):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is not b:
                if (a.kind, a.payload, len(a.children)) != (b.kind, b.payload, len(b.children)):
                    return False
                todo += zip(a.children, b.children)
        return True

    def __hash__(self) -> int:
        return _walk(self, lambda e: e.children,
                     lambda e, hashes: hash((e.kind, e.payload, *hashes)))

    def __repr__(self) -> str:
        def text(e: SetExpr, children: list[str]) -> str:
            kids = f"({children[0]},)" if len(children) == 1 else f"({', '.join(children)})"
            return f"SetExpr(kind={e.kind!r}, children={kids}, payload={e.payload!r})"
        return _walk(self, lambda e: e.children, text)


# A run of digits matches one way only, so a failed match backtracks in linear
# time. A malformed interval falls back to symbols; the parser finds its fault.
_NUM = r"-?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_BOUND = rf"-?inf(?![A-Za-z0-9_])|{_NUM}"
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<iv>(?P<open>[\[(])\s*(?P<lo>{_BOUND})\s*,\s*(?P<hi>{_BOUND})\s*(?P<close>[\])]))"
    rf"|(?P<pt>{{\s*(?P<at>{_NUM})\s*}})"
    rf"|(?P<call>(?P<func>{'|'.join(_FUNCS)})\s*\()"
    rf"|(?P<num>{_NUM})"
    r"|(?P<word>-inf(?![A-Za-z0-9_])|[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<sym>[|&\\!()\[\]{},])"
    r"|(?P<bad>\S))"
)
_WORD_KINDS = {"x": "x", "inf": "inf", "-inf": "-inf", **dict.fromkeys(_FUNCS, "func")}

# The parser recurses a few times per "(" group, "!" and function call that
# it is inside, and a parse keeps their nesting within this. Operator chains
# are parsed by loops; evaluate and print_expr walk trees on a stack.
_MAX_DEPTH = 100


def _tokenize(src: str) -> list[tuple]:
    """Three eof tokens end the list, so the parser may look two ahead. An "iv"
    token's value is (lo, hi, lo_closed, hi_closed); a call's "(" opens none."""
    toks = []
    # trailing whitespace is cut first: "\s*" would fail there from each space
    for m in _TOKEN_RE.finditer(src, 0, len(src.rstrip())):
        group = m.lastgroup
        text = m[group]
        pos = m.start(group)
        if group == "iv":
            toks.append(("iv", text, pos, (float(m["lo"]), float(m["hi"]),
                                           m["open"] == "[", m["close"] == "]")))
        elif group == "sym":
            toks.append((text, text, pos, 0.0))
        elif group == "pt":
            toks.append(("iv", text, pos, (float(m["at"]),) * 2 + (True, True)))
        elif group == "call":
            toks += [("func", m["func"], pos, 0.0), ("(", "(", m.end() - 1, 0.0)]
        elif group == "num":
            toks.append(("num", text, pos, float(text)))
        elif group == "word":
            toks.append((_WORD_KINDS.get(text, "name"), text, pos, 0.0))
        else:
            raise ParseError(src, pos, "a token")
    toks += [("eof", "", len(src), 0.0)] * 3
    return toks


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.toks = _tokenize(source)
        self.i = 0
        self.depth = 0  # "(" groups, "!" and calls being parsed

    def fail(self, expected: str) -> "ParseError":
        return ParseError(self.source, self.toks[self.i][2], expected)

    def nest(self) -> None:
        """Enter a "(" group, "!" or call at the current token."""
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise self.fail(f"at most {_MAX_DEPTH} levels of nesting")

    def expect(self, kind: str) -> None:
        if self.toks[self.i][0] != kind:
            raise self.fail(f'"{kind}"')
        self.i += 1

    def parse(self) -> SetExpr:
        e = self.expr()
        if self.toks[self.i][0] != "eof":
            raise self.fail("end of input")
        return e

    def expr(self, prec: int = 0) -> SetExpr:
        """A left-associative chain of the infix operators of precedence
        prec or tighter. Its first operand may be a complement, whose operand
        is the chain at the complement's precedence, unless prec is tighter
        than "!" (the right operand of "x"); any other is an atom."""
        symbol, tight, _ = _OPERATORS["complement"]
        if self.toks[self.i][0] == symbol and prec <= tight:
            self.nest()
            self.i += 1
            e = SetExpr("complement", (self.expr(tight),))
            self.depth -= 1
        else:
            e = self.atom(prec <= tight)
        while (op := _INFIX.get(self.toks[self.i][0])) and op[1] >= prec:
            self.i += 1
            e = SetExpr(op[0], (e, self.expr(op[1] + 1)))
        return e

    def atom(self, bang: bool) -> SetExpr:
        """An atom; bang tells whether "!" could have stood here instead."""
        toks, i = self.toks, self.i
        kind = toks[i][0]
        if kind in ("iv", "[", "{"):
            return self.box()
        if kind == "(":
            # "(" starts an interval when followed by "bound ,"
            if toks[i + 1][0] in ("num", "inf", "-inf") and toks[i + 2][0] == ",":
                return self.box()
            self.nest()
            self.i += 1
            e = self.expr()
            self.expect(")")
            self.depth -= 1
            return e
        if kind == "name":
            self.i += 1
            return SetExpr("name", payload=(toks[i][1],))
        if kind == "func":
            return self.func()
        raise self.fail('an interval, "(", "!", a function, or a name' if bang
                        else 'an interval, "(", a function, or a name')

    def box(self) -> SetExpr:
        ivs = [self.interval()]
        toks = self.toks
        while toks[self.i][0] == "," and toks[self.i + 1][0] in ("iv", "[", "(", "{"):
            # a comma followed by anything else belongs to an enclosing call
            self.i += 1
            ivs.append(self.interval())
        return SetExpr("box", payload=tuple(ivs))

    def interval(self) -> Interval:
        t = self.toks[self.i]
        if t[0] != "iv":
            raise self.malformed_interval()
        self.i += 1
        try:
            return Interval(*t[3])
        except ValueError as exc:
            raise ParseError(self.source, t[2], f"a valid interval ({exc})") from exc

    def malformed_interval(self) -> ParseError:
        """The error at the token where an interval that is not one "iv"
        token breaks (a well-formed one would be); it starts at "[", "(" or "{"."""
        self.i += 1
        if self.toks[self.i - 1][0] == "{":
            self.number()
            self.expect("}")
        else:
            self.bound()
            self.expect(",")
            self.bound()
        return self.fail('"]" or ")"')

    def bound(self) -> None:
        if self.toks[self.i][0] not in ("num", "inf", "-inf"):
            raise self.fail('NUMBER, "inf", or "-inf"')
        self.i += 1

    def number(self) -> float:
        kind, _, _, value = self.toks[self.i]
        if kind != "num":
            raise self.fail("NUMBER")
        self.i += 1
        return value

    def func(self) -> SetExpr:
        name = self.toks[self.i][1]
        self.nest()
        self.i += 1
        self.expect("(")
        e = self.expr()
        args = []
        while self.toks[self.i][0] == ",":
            self.i += 1
            args.append(self.number())
        self.expect(")")
        self.depth -= 1
        return SetExpr(name, (e,), tuple(args))


def parse(source: str) -> SetExpr:
    return _Parser(source).parse()


def _print_interval(iv: Interval) -> str:
    if iv.is_point:
        return "{" + format_num(iv.lo) + "}"
    lb = "[" if iv.lo_closed else "("
    rb = "]" if iv.hi_closed else ")"
    return f"{lb}{format_num(iv.lo)},{format_num(iv.hi)}{rb}"


# kind -> (symbol, precedence, boxset function) of each operator: "!" is
# prefix, the others are infix and left-associative, and an atom binds
# tighter than any of them. evaluate looks the function up by name at each
# call, so that a function swapped into boxset (a tracer, a test) is the one
# called.
_OPERATORS = {"union": ("|", 0, "union"), "intersect": ("&", 1, "intersect"),
              "difference": ("\\", 1, "difference"),
              "product": ("x", 2, "cartesian_product"), "complement": ("!", 2, "complement")}
_INFIX = {symbol: (kind, prec) for kind, (symbol, prec, _) in _OPERATORS.items()
          if kind != "complement"}
_KINDS = {"box", "name", *_OPERATORS, *_FUNCS}


def _children(e: SetExpr) -> tuple[SetExpr, ...]:
    if e.kind not in _KINDS:
        raise ValueError(f"unknown node kind {e.kind!r}")
    return e.children


def _walk(e: SetExpr, operands, combine):
    """Fold e children first on one explicit stack: combine(node, values) gets
    the values of operands(node) in order. operands(node) runs when the walk
    first reaches node, before any node below it."""
    values, todo = [], [(e, None)]
    while todo:
        node, n = todo.pop()
        if n is None:
            kids = operands(node)
            if kids:
                todo.append((node, len(kids)))
                todo += [(kid, None) for kid in reversed(kids)]
            else:
                values.append(combine(node, kids))
        else:
            k = len(values) - n
            values[k:] = [combine(node, values[k:])]
    return values[0]


def _print_node(e: SetExpr, parts: list[str]) -> str:
    kind = e.kind
    if kind == "box":
        return ",".join(_print_interval(iv) for iv in e.payload)
    if kind == "name":
        return e.payload[0]
    if kind in _FUNCS:
        # an argument is a NUMBER, and 1e400 reads back as inf
        args = "".join(f", {format_num(v)}" if not math.isinf(v) else
                       ", 1e400" if v > 0 else ", -1e400" for v in e.payload)
        return f"{kind}({parts[0]}{args})"
    symbol, prec, _ = _OPERATORS[kind]
    # the least precedence of each operand without parentheses: a right
    # operand binds tighter than its operator, and so does a complement on
    # the left, which would otherwise take the operator into its operand
    least = (prec,) if kind == "complement" else (
        prec + (e.children[0].kind == "complement"), prec + 1)
    parts = [f"({part})" if (_OPERATORS[child.kind][1] if child.kind in _OPERATORS
                             else math.inf) < m else part
             for child, part, m in zip(e.children, parts, least)]
    return symbol + parts[0] if kind == "complement" else f"{parts[0]} {symbol} {parts[1]}"


def print_expr(e: SetExpr) -> str:
    """Render an expression; parse(print_expr(e)) == e for every tree of
    known kinds, an infinite function argument being written as 1e400 or
    -1e400, which parse reads back as one."""
    return _walk(e, _children, _print_node)


def _int_args(args: tuple, what: str) -> list[int]:
    out = []
    for v in args:
        if not (math.isfinite(v) and v == int(v)):
            raise ValueError(f"{what} arguments must be finite integers, got {v}")
        out.append(int(v))
    return out


def _union_operands(e: SetExpr) -> list[SetExpr]:
    """The operands of the maximal union subtree at e, in order."""
    operands, todo = [], [e]
    while todo:
        node = todo.pop()
        if node.kind == "union":
            todo.extend(reversed(node.children))
        else:
            operands.append(node)
    return operands


def _box_groups(e: SetExpr) -> list[list[SetExpr]] | None:
    """For an intersection or difference whose operands are each a box or
    a union of boxes, the boxes of each operand; None for any other node."""
    if e.kind not in ("intersect", "difference"):
        return None
    groups = [_union_operands(child) for child in e.children]
    return groups if all(b.kind == "box" for g in groups for b in g) else None


def _operands(e: SetExpr) -> Sequence[SetExpr]:
    """What evaluate joins at e: for a union, the operands of its maximal
    union subtree; for an intersection or difference of boxes and unions of
    boxes, nothing, as evaluate reads the boxes itself. The arguments of
    scale and reflect are checked here, before their child is evaluated."""
    if e.kind == "union":
        return _union_operands(e)
    if _box_groups(e):
        return ()
    if e.kind == "scale" and len(e.payload) != 1:
        raise ValueError("scale takes exactly one factor")
    if e.kind == "reflect" and len(_int_args(e.payload, "reflect")) != 1:
        raise ValueError("reflect takes exactly one axis")
    return _children(e)


def _box(e: SetExpr) -> BoxComplex:
    """A box literal as a complex of one cell: columns straight from the
    intervals."""
    d = len(e.payload)
    ends = np.array([(iv.lo, iv.hi) for iv in e.payload], dtype=np.float64)
    closed = np.array([(iv.lo_closed, iv.hi_closed) for iv in e.payload], dtype=bool)
    return boxset._complex(d, ends.reshape(1, d, 2), closed.reshape(1, d, 2))


def _boolean_of_boxes(kind: str, left: list[SetExpr], right: list[SetExpr]) -> BoxComplex:
    """kind (intersect or difference) of the union of the boxes left and
    the union of the boxes right, from one block of their columns in one
    membership pass (boxset._grouped). Where the boxes differ in dimension
    or _grouped declines, the fold of union and kind runs instead, so its
    errors are raised in its own order."""
    boxes = left + right
    d = len(boxes[0].payload)
    if all(len(b.payload) == d for b in boxes):
        block = np.array([v for b in boxes for iv in b.payload
                          for v in (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed)],
                         dtype=np.float64).reshape(len(boxes), d, 4)
        out = boxset._grouped(block[..., :2], block[..., 2:] == 1.0, len(left), kind)
        if out is not None:
            return out
    a, b = ([_box(x) for x in group] for group in (left, right))
    return getattr(boxset, _OPERATORS[kind][2])(
        *(g[0] if len(g) == 1 else boxset.union(*g) for g in (a, b)))


def evaluate(e: SetExpr, env: dict[str, BoxComplex] | None = None) -> BoxComplex:
    """Evaluate an expression to a BoxComplex, children first on one explicit
    stack; the operands of a maximal union subtree are joined by one n-ary
    union. An intersection or difference whose operands are each a box or a
    union of boxes is one membership pass over all their boxes, in which a
    box on the left weighs 1 and one on the right one more than all those on
    the left; the result, its stored grid included, is the fold's."""
    env = env or {}

    def combine(node: SetExpr, sets: list[BoxComplex]) -> BoxComplex:
        kind = node.kind
        if kind == "box":
            return _box(node)
        if not sets and kind in ("intersect", "difference"):
            return _boolean_of_boxes(kind, *_box_groups(node))
        if kind in _OPERATORS:
            return getattr(boxset, _OPERATORS[kind][2])(*sets)
        if kind == "name":
            name = node.payload[0]
            if name not in env:
                raise UnknownName(f"undefined name {name!r}")
            return env[name]
        a, = sets
        if kind == "translate":
            return boxset.translate(a, list(node.payload))
        if kind == "scale":
            return boxset.scale(a, node.payload[0])
        if kind == "permute":
            return boxset.axis_permute(a, _int_args(node.payload, "permute"))
        return boxset.reflect(a, int(node.payload[0]))

    return _walk(e, _operands, combine)


def parse_defs(text: str) -> dict[str, BoxComplex]:
    """Evaluate a definitions file: "name = expr" lines, "#" comments.
    Later lines may reference earlier names."""
    env: dict[str, BoxComplex] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"definitions line {lineno}: expected 'name = expr'")
        name, expr_src = line.split("=", 1)
        name = name.strip()
        if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", name) or name in _WORD_KINDS:
            raise ValueError(f"definitions line {lineno}: bad name {name!r}")
        env[name] = evaluate(parse(expr_src), env)
    return env


# ----------------------------------------------------------------------
# command line tool
# ----------------------------------------------------------------------

class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse reads an argument as a value only when it is a bare negative
    # number; read "-1,2", "-.5,0" and "-inf,1]" as values too (no option of
    # this CLI starts with a digit, a dot or "inf")
    _NEGATIVE_VALUE = re.compile(r"-(?:\d|\.\d|inf(?![A-Za-z0-9_]))")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE_VALUE

    def error(self, message):
        raise _UsageError(message)


def _sets(args, *sources: str) -> list[BoxComplex]:
    """Evaluate each source, in order, with the names of the --defs file."""
    env = {}
    if args.defs:
        with open(args.defs, "r", encoding="utf-8") as fh:
            env = parse_defs(fh.read())
    return [evaluate(parse(src), env) for src in sources]


def _cmd_measure(args):
    res = measure.mu(*_sets(args, args.expr))
    return res.to_json(), [
        f"mu = {format_poly(res.mu)}, chi = {format_num(res.mu.coeff(0))}, "
        f"dim = {format_num(res.dim)}",
        f"Uf = {json.dumps(res.in_Uf)}, Ub = {json.dumps(res.in_Ub)}"]


def _cmd_compare(args):
    a, b = _sets(args, args.expr_a, args.expr_b)
    verdict = measure.mu_compare(a, b)
    mu_a, mu_b = measure.mu(a).mu, measure.mu(b).mu
    return ({"verdict": verdict, "mu_a": mu_a.to_json(), "mu_b": mu_b.to_json()},
            [verdict, f"mu(A) = {format_poly(mu_a)}", f"mu(B) = {format_poly(mu_b)}"])


def _cmd_subset(args):
    a, b = _sets(args, args.expr_a, args.expr_b)
    ab = boxset.is_subset(a, b)
    ba = boxset.is_subset(b, a)
    return None, [f"A subset of B: {json.dumps(ab)}", f"B subset of A: {json.dumps(ba)}",
                  f"equal: {json.dumps(ab and ba)}"]


def _cmd_crofton(args):
    a, = _sets(args, args.expr)
    if args.index == "d":
        est = crofton.estimate_volume(a, args.samples, args.seed)
    else:
        est = crofton.estimate_codim1(a, args.samples, args.seed)
    exact = measure.intrinsic_volume(a, est.index)
    z = (est.estimate - exact) / est.std_error if est.std_error > 0 else 0.0
    return {**est.to_json(), "exact": exact, "z_score": z}, [
        f"mu_{est.index} estimate = {est.estimate:.6g} "
        f"(std error {est.std_error:.3g}, {est.n_samples} samples, seed {est.seed})",
        f"exact = {format_num(exact)}, z = {z:.3f}"]


def _numbers(spec: str) -> tuple[float, ...]:
    """The comma-separated numbers of a --poly or --point value."""
    try:
        return tuple(float(c) for c in spec.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad value {spec!r}") from None


def _cmd_find_n(args):
    polys = [XPoly(coeffs) for coeffs in args.poly]
    n = sampler.find_near_integer_N(polys, args.epsilon, n_max=args.nmax)
    return None, [f"N = {n}", *(
        f"||({format_poly(p)})(N)|| = {dist_to_nearest_integer(xpoly_eval(p, n)):.6g}"
        for p in polys)]


def _cmd_sample(args):
    sets = _sets(args, *args.set)
    res = sampler.build_sample(sets, args.point or [], args.m, n_max=args.nmax)
    return res.to_json(), [
        f"N = {res.N}, epsilon = {res.epsilon}, points = {len(res.points)}", *(
            f"set {i}: count = {s.count}, mu(N) = {s.mu_at_N:.6g}, "
            f"discrepancy = {s.discrepancy:.3g}" for i, s in enumerate(res.per_set))]


def _cmd_hausdorff(args):
    a, = _sets(args, args.expr)
    value = measure.hausdorff_measure(a, args.index)

    def lines():  # H^i is printed before the ratio check can fail
        yield f"H^{args.index} = {format_num(value)}"
        if args.check_ratio:
            chk = sampler.hausdorff_ratio_check(a, args.index, args.m)
            yield (f"ratio = {chk.ratio:.9g} at N = {chk.N}, target = {format_num(chk.target)}, "
                   f"gap = {chk.gap:.3g} (bound {chk.bound:.3g})")
    return None, lines()


_JSON = ("--json", {"action": "store_true"})
_DEFS = ("--defs", {"metavar": "FILE", "help": "definitions file with 'name = expr' lines"})
_NMAX = ("--nmax", {"type": int, "default": 10 ** 6})

# subcommand -> (help, handler, argument specs in --help order); a handler
# returns its --json document (None without --json) and its text lines
_COMMANDS = {
    "measure": ("polynomial measure, chi, dim, flags", _cmd_measure,
                [("expr", {}), _JSON, _DEFS]),
    "compare": ("lexicographic comparison of two sets", _cmd_compare,
                [("expr_a", {}), ("expr_b", {}), _JSON, _DEFS]),
    "subset": ("subset / equality report", _cmd_subset,
               [("expr_a", {}), ("expr_b", {}), _DEFS]),
    "crofton": ("Monte Carlo intrinsic volume estimate", _cmd_crofton,
                [("expr", {}), ("--index", {"choices": ["d", "d-1"], "required": True}),
                 ("--samples", {"type": int, "required": True}),
                 ("--seed", {"type": int, "default": 0}), _JSON, _DEFS]),
    "find-n": ("near-integer scale search", _cmd_find_n,
               [("--poly", {"action": "append", "required": True, "type": _numbers,
                            "metavar": "C0,C1,...", "help": "coefficients, repeatable"}),
                ("--epsilon", {"type": float, "required": True}), _NMAX]),
    "sample": ("finite sample with calibrated counts", _cmd_sample,
               [("--set", {"action": "append", "required": True, "metavar": "EXPR"}),
                ("--point", {"action": "append", "type": _numbers, "metavar": "X,Y,..."}),
                ("--m", {"type": int, "required": True}), _NMAX, _JSON, _DEFS]),
    "hausdorff": ("exact H^i, optional finite-scale ratio", _cmd_hausdorff,
                  [("expr", {}), ("--index", {"type": int, "required": True}),
                   ("--check-ratio", {"action": "store_true"}),
                   ("--m", {"type": int, "default": 100}), _DEFS]),
}


@functools.cache  # parse_args leaves a parser as it found it
def _build_cli() -> _ArgumentParser:
    top = _ArgumentParser(prog="boxmeasure",
                          description="exact and Monte Carlo measures on box complexes")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, run, specs) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in specs:
            p.add_argument(flag, **kwargs)
        p.set_defaults(run=run)
    return top


def cli_main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI. Exit codes: 0 success, 1 usage or parse error, 2 domain
    error, 3 scale search exhausted."""
    top = _build_cli()
    try:
        args = top.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        doc, lines = args.run(args)
        if doc is not None and args.json:
            print(json.dumps(doc))
        else:
            for line in lines:
                print(line)
        return 0
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except sampler.SearchExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IndeterminateCoefficient, sampler.ConstructionViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
