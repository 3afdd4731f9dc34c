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
bracket. Complement binds tighter than the product chain it prefixes, so
"!A x B" means "!(A x B)". The letter "x" is the product operator and is
not available as a name. Names are resolved against a definitions
environment ("name = expr" lines, "#" comments).
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

from . import boxset, crofton, measure, sampler
from .boxset import BoxComplex, Cell, Interval
from .xpoly import (IndeterminateCoefficient, XPoly, dist_to_nearest_integer,
                    format_num, format_poly, xpoly_eval, xpoly_lex_cmp)

_INF = math.inf

_FUNCS = ("translate", "scale", "permute", "reflect")
_RESERVED = set(_FUNCS) | {"x", "inf"}


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


@dataclass(frozen=True)
class SetExpr:
    """Abstract syntax: kind, child expressions, literal payload.

    kinds: box (payload: Interval per axis), name (payload: the name),
    union/intersect/difference/product (two children), complement (one),
    translate/scale/permute/reflect (one child, numeric payload).
    """

    kind: str
    children: tuple["SetExpr", ...] = ()
    payload: tuple = ()


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "name", "func", "inf", "-inf", "sym", "eof"
    text: str
    pos: int
    value: float = 0.0


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<neginf>-inf(?![A-Za-z0-9_]))"
    r"|(?P<num>-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<sym>[|&\\!()\[\]{},])"
)


def _tokenize(src: str) -> list[_Token]:
    toks = []
    i = 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if m is None:
            raise ParseError(src, i, "a token")
        if m.lastgroup == "num":
            toks.append(_Token("num", m.group(), i, float(m.group())))
        elif m.lastgroup == "neginf":
            toks.append(_Token("-inf", m.group(), i))
        elif m.lastgroup == "name":
            text = m.group()
            if text == "x":
                toks.append(_Token("sym", "x", i))
            elif text == "inf":
                toks.append(_Token("inf", text, i))
            elif text in _FUNCS:
                toks.append(_Token("func", text, i))
            else:
                toks.append(_Token("name", text, i))
        elif m.lastgroup == "sym":
            toks.append(_Token("sym", m.group(), i))
        i = m.end()
    toks.append(_Token("eof", "", len(src)))
    return toks


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.toks = _tokenize(source)
        self.i = 0

    def peek(self, ahead: int = 0) -> _Token:
        j = min(self.i + ahead, len(self.toks) - 1)
        return self.toks[j]

    def next(self) -> _Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def fail(self, expected: str) -> "ParseError":
        return ParseError(self.source, self.peek().pos, expected)

    def expect_sym(self, text: str) -> _Token:
        t = self.peek()
        if t.kind != "sym" or t.text != text:
            raise self.fail(f'"{text}"')
        return self.next()

    def parse(self) -> SetExpr:
        e = self.expr()
        if self.peek().kind != "eof":
            raise self.fail("end of input")
        return e

    def expr(self) -> SetExpr:
        e = self.term()
        while self.peek().kind == "sym" and self.peek().text == "|":
            self.next()
            e = SetExpr("union", (e, self.term()))
        return e

    def term(self) -> SetExpr:
        e = self.factor()
        while self.peek().kind == "sym" and self.peek().text in ("&", "\\"):
            op = self.next().text
            kind = "intersect" if op == "&" else "difference"
            e = SetExpr(kind, (e, self.factor()))
        return e

    def factor(self) -> SetExpr:
        if self.peek().kind == "sym" and self.peek().text == "!":
            self.next()
            return SetExpr("complement", (self.factor(),))
        e = self.atom()
        while self.peek().kind == "sym" and self.peek().text == "x":
            self.next()
            e = SetExpr("product", (e, self.atom()))
        return e

    def atom(self) -> SetExpr:
        t = self.peek()
        if t.kind == "func":
            return self.func()
        if t.kind == "name":
            self.next()
            return SetExpr("name", payload=(t.text,))
        if t.kind == "sym" and t.text in ("[", "{"):
            return self.box()
        if t.kind == "sym" and t.text == "(":
            # "(" starts an interval when followed by "bound ,"
            if self.peek(1).kind in ("num", "inf", "-inf") and \
                    self.peek(2).kind == "sym" and self.peek(2).text == ",":
                return self.box()
            self.next()
            e = self.expr()
            self.expect_sym(")")
            return e
        raise self.fail('an interval, "(", "!", a function, or a name')

    def box(self) -> SetExpr:
        ivs = [self.interval()]
        while self.peek().kind == "sym" and self.peek().text == ",":
            nxt = self.peek(1)
            if not (nxt.kind == "sym" and nxt.text in ("[", "(", "{")):
                break  # comma belongs to an enclosing function call
            self.next()
            ivs.append(self.interval())
        return SetExpr("box", payload=tuple(ivs))

    def interval(self) -> Interval:
        t = self.peek()
        if t.kind == "sym" and t.text == "{":
            self.next()
            lo = hi = self.number()
            self.expect_sym("}")
            lo_closed = hi_closed = True
        else:
            if not (t.kind == "sym" and t.text in ("[", "(")):
                raise self.fail('"[", "(", or "{"')
            self.next()
            lo_closed = t.text == "["
            lo = self.bound()
            self.expect_sym(",")
            hi = self.bound()
            t2 = self.peek()
            if not (t2.kind == "sym" and t2.text in ("]", ")")):
                raise self.fail('"]" or ")"')
            self.next()
            hi_closed = t2.text == "]"
        try:
            return Interval(lo, hi, lo_closed, hi_closed)
        except ValueError as exc:
            raise ParseError(self.source, t.pos, f"a valid interval ({exc})") from exc

    def bound(self) -> float:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return t.value
        if t.kind == "inf":
            self.next()
            return _INF
        if t.kind == "-inf":
            self.next()
            return -_INF
        raise self.fail('NUMBER, "inf", or "-inf"')

    def number(self) -> float:
        t = self.peek()
        if t.kind != "num":
            raise self.fail("NUMBER")
        self.next()
        return t.value

    def func(self) -> SetExpr:
        t = self.next()
        self.expect_sym("(")
        e = self.expr()
        args = []
        while self.peek().kind == "sym" and self.peek().text == ",":
            self.next()
            args.append(self.number())
        self.expect_sym(")")
        return SetExpr(t.text, (e,), tuple(args))


def parse(source: str) -> SetExpr:
    return _Parser(source).parse()


def _print_interval(iv: Interval) -> str:
    if iv.is_point:
        return "{" + format_num(iv.lo) + "}"
    lb = "[" if iv.lo_closed else "("
    rb = "]" if iv.hi_closed else ")"
    return f"{lb}{format_num(iv.lo)},{format_num(iv.hi)}{rb}"


_PREC = {"union": 0, "intersect": 1, "difference": 1, "product": 2, "complement": 2}


def print_expr(e: SetExpr) -> str:
    """Render an expression; parse(print_expr(e)) == e."""

    def wrap(child: SetExpr, min_prec: int) -> str:
        s = print_expr(child)
        if child.kind in _PREC and _PREC[child.kind] < min_prec:
            return f"({s})"
        return s

    if e.kind == "box":
        return ",".join(_print_interval(iv) for iv in e.payload)
    if e.kind == "name":
        return e.payload[0]
    if e.kind == "union":
        return f"{wrap(e.children[0], 0)} | {wrap(e.children[1], 1)}"
    if e.kind in ("intersect", "difference"):
        op = "&" if e.kind == "intersect" else "\\"
        return f"{wrap(e.children[0], 1)} {op} {wrap(e.children[1], 2)}"
    if e.kind == "product":
        # the right operand of a product is an atom; parenthesize operators
        left = wrap(e.children[0], 2)
        right = print_expr(e.children[1])
        if e.children[1].kind in _PREC:
            right = f"({right})"
        return f"{left} x {right}"
    if e.kind == "complement":
        child = e.children[0]
        s = print_expr(child)
        if child.kind in _PREC and child.kind != "complement" and _PREC[child.kind] < 2:
            s = f"({s})"
        return f"!{s}"
    if e.kind in _FUNCS:
        args = "".join(f", {format_num(v)}" for v in e.payload)
        return f"{e.kind}({print_expr(e.children[0])}{args})"
    raise ValueError(f"unknown node kind {e.kind!r}")


def evaluate(e: SetExpr, env: dict[str, BoxComplex] | None = None) -> BoxComplex:
    """Evaluate an expression to a BoxComplex by structural recursion; the
    operands of a maximal union subtree are gathered without recursion and
    joined by one n-ary union."""
    env = env or {}

    def _int_args(args: tuple, what: str) -> list[int]:
        out = []
        for v in args:
            if v != int(v):
                raise ValueError(f"{what} arguments must be integers, got {v}")
            out.append(int(v))
        return out

    if e.kind == "box":
        return boxset.from_cell(Cell(e.payload))
    if e.kind == "name":
        name = e.payload[0]
        if name not in env:
            raise UnknownName(f"undefined name {name!r}")
        return env[name]
    if e.kind == "union":
        operands, todo = [], [e]
        while todo:
            node = todo.pop()
            if node.kind == "union":
                todo.extend(reversed(node.children))
            else:
                operands.append(node)
        return boxset.union(*(evaluate(o, env) for o in operands))
    if e.kind == "intersect":
        return boxset.intersect(evaluate(e.children[0], env), evaluate(e.children[1], env))
    if e.kind == "difference":
        return boxset.difference(evaluate(e.children[0], env), evaluate(e.children[1], env))
    if e.kind == "complement":
        return boxset.complement(evaluate(e.children[0], env))
    if e.kind == "product":
        return boxset.cartesian_product(evaluate(e.children[0], env),
                                        evaluate(e.children[1], env))
    if e.kind == "translate":
        return boxset.translate(evaluate(e.children[0], env), list(e.payload))
    if e.kind == "scale":
        if len(e.payload) != 1:
            raise ValueError("scale takes exactly one factor")
        return boxset.scale(evaluate(e.children[0], env), e.payload[0])
    if e.kind == "permute":
        return boxset.axis_permute(evaluate(e.children[0], env),
                                   _int_args(e.payload, "permute"))
    if e.kind == "reflect":
        axes = _int_args(e.payload, "reflect")
        if len(axes) != 1:
            raise ValueError("reflect takes exactly one axis")
        return boxset.reflect(evaluate(e.children[0], env), axes[0])
    raise ValueError(f"unknown node kind {e.kind!r}")


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
        if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", name) or name in _RESERVED:
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


def _load_env(args) -> dict[str, BoxComplex]:
    path = getattr(args, "defs", None)
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return parse_defs(fh.read())


def _cmd_measure(args) -> int:
    env = _load_env(args)
    res = measure.mu(evaluate(parse(args.expr), env))
    if args.json:
        print(json.dumps(res.to_json()))
    else:
        print(f"mu = {format_poly(res.mu)}, chi = {format_num(res.mu.coeff(0))}, "
              f"dim = {format_num(res.dim)}")
        print(f"Uf = {str(res.in_Uf).lower()}, Ub = {str(res.in_Ub).lower()}")
    return 0


def _cmd_compare(args) -> int:
    env = _load_env(args)
    a = evaluate(parse(args.expr_a), env)
    b = evaluate(parse(args.expr_b), env)
    mu_a, mu_b = measure.mu(a).mu, measure.mu(b).mu
    verdict = xpoly_lex_cmp(mu_a, mu_b)
    if args.json:
        print(json.dumps({"verdict": verdict,
                          "mu_a": mu_a.to_json(), "mu_b": mu_b.to_json()}))
    else:
        print(verdict)
        print(f"mu(A) = {format_poly(mu_a)}")
        print(f"mu(B) = {format_poly(mu_b)}")
    return 0


def _cmd_subset(args) -> int:
    env = _load_env(args)
    a = evaluate(parse(args.expr_a), env)
    b = evaluate(parse(args.expr_b), env)
    ab = boxset.is_subset(a, b)
    ba = boxset.is_subset(b, a)
    print(f"A subset of B: {str(ab).lower()}")
    print(f"B subset of A: {str(ba).lower()}")
    print(f"equal: {str(ab and ba).lower()}")
    return 0


def _cmd_crofton(args) -> int:
    env = _load_env(args)
    a = evaluate(parse(args.expr), env)
    d = a.ambient_dim
    if args.index == "d":
        est = crofton.estimate_volume(a, args.samples, args.seed)
    else:
        est = crofton.estimate_codim1(a, args.samples, args.seed)
    exact = measure.intrinsic_volume(a, est.index)
    z = (est.estimate - exact) / est.std_error if est.std_error > 0 else 0.0
    if args.json:
        out = est.to_json()
        out["exact"] = exact
        out["z_score"] = z
        print(json.dumps(out))
    else:
        print(f"mu_{est.index} estimate = {est.estimate:.6g} "
              f"(std error {est.std_error:.3g}, {est.n_samples} samples, seed {est.seed})")
        print(f"exact = {format_num(exact)}, z = {z:.3f}")
    return 0


def _cmd_find_n(args) -> int:
    polys = []
    for spec in args.poly:
        try:
            coeffs = [float(c) for c in spec.split(",")]
        except ValueError:
            raise _UsageError(f"bad --poly value {spec!r}")
        polys.append(XPoly(coeffs))
    n = sampler.find_near_integer_N(polys, args.epsilon, n_max=args.nmax)
    print(f"N = {n}")
    for p in polys:
        print(f"||({format_poly(p)})(N)|| = {dist_to_nearest_integer(xpoly_eval(p, n)):.6g}")
    return 0


def _cmd_sample(args) -> int:
    env = _load_env(args)
    sets = [evaluate(parse(s), env) for s in args.set]
    pts = []
    for spec in args.point or []:
        try:
            pts.append(tuple(float(c) for c in spec.split(",")))
        except ValueError:
            raise _UsageError(f"bad --point value {spec!r}")
    res = sampler.build_sample(sets, pts, args.m, n_max=args.nmax)
    if args.json:
        print(json.dumps(res.to_json()))
    else:
        print(f"N = {res.N}, epsilon = {res.epsilon}, points = {len(res.points)}")
        for i, s in enumerate(res.per_set):
            print(f"set {i}: count = {s.count}, mu(N) = {s.mu_at_N:.6g}, "
                  f"discrepancy = {s.discrepancy:.3g}")
    return 0


def _cmd_hausdorff(args) -> int:
    env = _load_env(args)
    a = evaluate(parse(args.expr), env)
    value = measure.hausdorff_measure(a, args.index)
    print(f"H^{args.index} = {format_num(value)}")
    if args.check_ratio:
        chk = sampler.hausdorff_ratio_check(a, args.index, args.m)
        print(f"ratio = {chk.ratio:.9g} at N = {chk.N}, target = {format_num(chk.target)}, "
              f"gap = {chk.gap:.3g} (bound {chk.bound:.3g})")
    return 0


_JSON = ("--json", {"action": "store_true"})
_DEFS = ("--defs", {"metavar": "FILE", "help": "definitions file with 'name = expr' lines"})
_NMAX = ("--nmax", {"type": int, "default": 10 ** 6})

# subcommand -> (help, handler, argument specs in --help order)
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
               [("--poly", {"action": "append", "required": True, "metavar": "C0,C1,...",
                            "help": "coefficients, repeatable"}),
                ("--epsilon", {"type": float, "required": True}), _NMAX]),
    "sample": ("finite sample with calibrated counts", _cmd_sample,
               [("--set", {"action": "append", "required": True, "metavar": "EXPR"}),
                ("--point", {"action": "append", "metavar": "X,Y,..."}),
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
        return args.run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
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
