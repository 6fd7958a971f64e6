"""One-variable analytic expressions: parsing, symbolic derivatives, 2-jets.

Grammar (whitespace insignificant):

    expr  := term (('+'|'-') term)*
    term  := unary (('*'|'/') unary)*
    unary := '-' unary | power
    power := atom ('^' integer)?
    atom  := number | ident | '(' expr ')' | fn '(' expr ')'
    fn    := 'exp' | 'log' | 'sin' | 'cos' | 'sinh' | 'cosh'

Numbers are unsigned decimals with optional fraction and exponent.  The
identifiers ``i``, ``pi`` and ``e`` are built-in constants; ``i`` is rejected
when parsing in the real context.  ``^`` takes a nonnegative integer literal
exponent only; general powers must be spelled ``exp(c*log(z))``.  ``log`` uses
the principal branch and fails exactly at 0 and on the cut (re <= 0, im = 0).

Evaluation produces 2-jets (value, first, second derivative) by second-order
forward-mode arithmetic over the tree; it raises instead of returning
non-finite values.  ``eval_jet2_array`` applies the same rules to an array of
points at once and returns a mask where the pointwise evaluation would raise.
ASTs are immutable and safe to share across threads.
"""
from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np


class ExprError(Exception):
    """Base class for expression-language errors."""


class ParseError(ExprError):
    """Syntax error with byte offset and the set of expected tokens."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f"syntax error at offset {offset}: {message}"
        if expected:
            detail += " (expected " + ", ".join(expected) + ")"
        super().__init__(detail)


class UnknownIdentifierError(ParseError):
    """An identifier that is neither the variable, a constant, nor a function."""


class EvalError(ExprError):
    """Evaluation failed; names the offending subexpression and the point."""

    def __init__(self, expression: str, point, reason: str):
        self.expression = expression
        self.point = point
        super().__init__(f"cannot evaluate '{expression}' at {point!r}: {reason}")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Add:
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Sub:
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Mul:
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Div:
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Neg:
    arg: "ExprNode"


@dataclass(frozen=True)
class Pow:
    base: "ExprNode"
    exponent: int


@dataclass(frozen=True)
class Fn:
    name: str
    arg: "ExprNode"


ExprNode = Union[Const, Var, Add, Sub, Mul, Div, Neg, Pow, Fn]

FUNCTIONS = ("exp", "log", "sin", "cos", "sinh", "cosh")
_CONSTANTS = {"i": 1j, "pi": complex(math.pi), "e": complex(math.e)}


@dataclass(frozen=True)
class Jet2:
    """Value plus first and second derivative at one point."""

    value: complex | float
    d1: complex | float
    d2: complex | float


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = "+-*/^()"

_ATOM_EXPECTED = ("number", "identifier", "'('", "'-'")

# Deepest expression accepted.  It bounds both the nesting of parentheses,
# calls and unary minus while parsing and the depth of the tree, so that the
# recursive passes (parser, evaluators, derivative, unparser) stay well
# inside Python's recursion limit.
MAX_DEPTH = 100


def _byte_offset(source: str, pos: int) -> int:
    return len(source[:pos].encode("utf-8"))


def _tokenize(source: str) -> list[tuple[str, object, int]]:
    """Return (kind, value, char_pos) triples; kind is 'num', 'ident', an
    operator character, or 'end'."""
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        ch = source[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        m = _NUMBER_RE.match(source, pos)
        if m and ch.isdigit():
            tokens.append(("num", m.group(), pos))
            pos = m.end()
            continue
        m = _IDENT_RE.match(source, pos)
        if m:
            tokens.append(("ident", m.group(), pos))
            pos = m.end()
            continue
        raise ParseError(
            f"unexpected character {ch!r}", _byte_offset(source, pos)
        )
    tokens.append(("end", None, n))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent; same source always yields the same tree)
# ---------------------------------------------------------------------------

class _Parser:
    """Each production returns ``(node, depth)``, the depth of its tree."""

    def __init__(self, source: str, variable_name: str, real: bool):
        self.source = source
        self.variable = variable_name
        self.real = real
        self.tokens = _tokenize(source)
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, pos: int, expected: tuple[str, ...] = ()):
        raise ParseError(message, _byte_offset(self.source, pos), expected)

    def limit(self, depth: int, pos: int) -> int:
        """``depth`` if it is within MAX_DEPTH, else a ParseError at ``pos``."""
        if depth > MAX_DEPTH:
            self.error(f"expression nested deeper than {MAX_DEPTH} levels", pos)
        return depth

    def nested(self, production, pos: int):
        """Run ``production`` one nesting level further in."""
        self.nesting = self.limit(self.nesting + 1, pos)
        result = production()
        self.nesting -= 1
        return result

    def parse(self) -> ExprNode:
        node, _ = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            self.error(
                f"unexpected {value!r} after complete expression",
                pos,
                ("'+'", "'-'", "'*'", "'/'", "end of input"),
            )
        return node

    def expr(self) -> tuple[ExprNode, int]:
        node, depth = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.advance()
            rhs, rhs_depth = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
            depth = self.limit(max(depth, rhs_depth) + 1, pos)
        return node, depth

    def term(self) -> tuple[ExprNode, int]:
        node, depth = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            rhs, rhs_depth = self.unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
            depth = self.limit(max(depth, rhs_depth) + 1, pos)
        return node, depth

    def unary(self) -> tuple[ExprNode, int]:
        kind, _, pos = self.peek()
        if kind == "-":
            self.advance()
            node, depth = self.nested(self.unary, pos)
            return Neg(node), self.limit(depth + 1, pos)
        return self.power()

    def power(self) -> tuple[ExprNode, int]:
        node, depth = self.atom()
        if self.peek()[0] == "^":
            _, _, op_pos = self.advance()
            kind, value, pos = self.peek()
            if kind != "num" or not value.isdigit():
                self.error(
                    f"exponent must be an integer literal, got {value!r}",
                    pos,
                    ("integer",),
                )
            self.advance()
            node, depth = Pow(node, int(value)), self.limit(depth + 1, op_pos)
        return node, depth

    def atom(self) -> tuple[ExprNode, int]:
        kind, value, pos = self.peek()
        if kind == "num":
            self.advance()
            return Const(complex(float(value))), 1
        if kind == "(":
            self.advance()
            node, depth = self.nested(self.expr, pos)
            kind, value, pos = self.peek()
            if kind != ")":
                self.error(f"unclosed parenthesis, got {value!r}", pos, ("')'",))
            self.advance()
            return node, depth
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "(":
                if value not in FUNCTIONS:
                    raise UnknownIdentifierError(
                        f"unknown function {value!r}",
                        _byte_offset(self.source, pos),
                        FUNCTIONS,
                    )
                self.advance()
                arg, depth = self.nested(self.expr, pos)
                kind2, value2, pos2 = self.peek()
                if kind2 != ")":
                    self.error(
                        f"unclosed function call, got {value2!r}", pos2, ("')'",)
                    )
                self.advance()
                return Fn(value, arg), self.limit(depth + 1, pos)
            if value == self.variable:
                return Var(), 1
            if value in FUNCTIONS:
                self.error(
                    f"function {value!r} must be followed by '('", pos, ("'('",)
                )
            if value in _CONSTANTS:
                if self.real and value == "i":
                    raise UnknownIdentifierError(
                        "constant 'i' is not available in a real expression",
                        _byte_offset(self.source, pos),
                    )
                return Const(_CONSTANTS[value]), 1
            raise UnknownIdentifierError(
                f"unknown identifier {value!r}",
                _byte_offset(self.source, pos),
            )
        self.error(f"unexpected {value!r}", pos, _ATOM_EXPECTED)


def parse_expr(source: str, variable_name: str, real: bool = False) -> ExprNode:
    """Parse ``source`` into an AST over the single variable ``variable_name``.

    With ``real=True`` the constant ``i`` is rejected; evaluation semantics
    are otherwise decided by the point type passed to :func:`eval_jet2`.
    Trees deeper than :data:`MAX_DEPTH` are rejected with a ParseError.
    """
    return _Parser(source, variable_name, real).parse()


# ---------------------------------------------------------------------------
# Symbolic differentiation with light simplification
# ---------------------------------------------------------------------------

def _is_const(node: ExprNode, value=None) -> bool:
    if not isinstance(node, Const):
        return False
    return value is None or node.value == value


def simplify(node: ExprNode) -> ExprNode:
    """Constant folding plus 0/1 elimination; applied bottom-up."""
    if isinstance(node, (Const, Var)):
        return node
    if isinstance(node, Neg):
        a = simplify(node.arg)
        if isinstance(a, Const):
            return Const(-a.value)
        if isinstance(a, Neg):
            return a.arg
        return Neg(a)
    if isinstance(node, Pow):
        b = simplify(node.base)
        if node.exponent == 0:
            return Const(complex(1.0))
        if node.exponent == 1:
            return b
        if isinstance(b, Const):
            return Const(b.value ** node.exponent)
        return Pow(b, node.exponent)
    if isinstance(node, Fn):
        return Fn(node.name, simplify(node.arg))
    left = simplify(node.left)
    right = simplify(node.right)
    if isinstance(node, Add):
        if _is_const(left, 0):
            return right
        if _is_const(right, 0):
            return left
        if isinstance(left, Const) and isinstance(right, Const):
            return Const(left.value + right.value)
        return Add(left, right)
    if isinstance(node, Sub):
        if _is_const(right, 0):
            return left
        if _is_const(left, 0):
            return simplify(Neg(right))
        if isinstance(left, Const) and isinstance(right, Const):
            return Const(left.value - right.value)
        return Sub(left, right)
    if isinstance(node, Mul):
        if _is_const(left, 0) or _is_const(right, 0):
            return Const(complex(0.0))
        if _is_const(left, 1):
            return right
        if _is_const(right, 1):
            return left
        if isinstance(left, Const) and isinstance(right, Const):
            return Const(left.value * right.value)
        return Mul(left, right)
    if isinstance(node, Div):
        if _is_const(left, 0):
            return Const(complex(0.0))
        if _is_const(right, 1):
            return left
        if isinstance(left, Const) and isinstance(right, Const) and right.value != 0:
            return Const(left.value / right.value)
        return Div(left, right)
    raise TypeError(f"not an expression node: {node!r}")


def _diff(node: ExprNode) -> ExprNode:
    if isinstance(node, Const):
        return Const(complex(0.0))
    if isinstance(node, Var):
        return Const(complex(1.0))
    if isinstance(node, Add):
        return Add(_diff(node.left), _diff(node.right))
    if isinstance(node, Sub):
        return Sub(_diff(node.left), _diff(node.right))
    if isinstance(node, Neg):
        return Neg(_diff(node.arg))
    if isinstance(node, Mul):
        return Add(Mul(_diff(node.left), node.right), Mul(node.left, _diff(node.right)))
    if isinstance(node, Div):
        num = Sub(Mul(_diff(node.left), node.right), Mul(node.left, _diff(node.right)))
        return Div(num, Pow(node.right, 2))
    if isinstance(node, Pow):
        if node.exponent == 0:
            return Const(complex(0.0))
        return Mul(
            Mul(Const(complex(node.exponent)), Pow(node.base, node.exponent - 1)),
            _diff(node.base),
        )
    if isinstance(node, Fn):
        du = _diff(node.arg)
        u = node.arg
        if node.name == "exp":
            outer = Fn("exp", u)
        elif node.name == "log":
            return Div(du, u)
        elif node.name == "sin":
            outer = Fn("cos", u)
        elif node.name == "cos":
            return Neg(Mul(Fn("sin", u), du))
        elif node.name == "sinh":
            outer = Fn("cosh", u)
        elif node.name == "cosh":
            outer = Fn("sinh", u)
        else:
            raise TypeError(f"no derivative rule for function {node.name!r}")
        return Mul(outer, du)
    raise TypeError(f"not an expression node: {node!r}")


def differentiate(node: ExprNode) -> ExprNode:
    """Symbolic derivative; total over the AST, output is itself valid input."""
    return simplify(_diff(node))


# ---------------------------------------------------------------------------
# Unparser
# ---------------------------------------------------------------------------

def _fmt_real(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _fmt_const(value: complex) -> tuple[str, int]:
    """Render a constant; returns (text, precedence of the rendered form)."""
    re_, im = value.real, value.imag
    if im == 0.0:
        if re_ < 0:
            return f"-{_fmt_real(-re_)}", 3
        return _fmt_real(re_), 5
    if re_ == 0.0:
        if im == 1.0:
            return "i", 5
        if im == -1.0:
            return "-i", 3
        if im < 0:
            return f"-{_fmt_real(-im)}*i", 2
        return f"{_fmt_real(im)}*i", 2
    sign = "-" if im < 0 else "+"
    return f"({_fmt_real(re_)}{sign}{_fmt_real(abs(im))}*i)", 5


# precedence levels: add/sub 1, mul/div 2, unary minus 3, pow 4, atoms 5
def _unparse(node: ExprNode, variable: str) -> tuple[str, int]:
    if isinstance(node, Const):
        return _fmt_const(node.value)
    if isinstance(node, Var):
        return variable, 5
    if isinstance(node, Add):
        l, _ = _wrap(node.left, 1, variable)
        r, _ = _wrap(node.right, 2, variable)
        return f"{l}+{r}", 1
    if isinstance(node, Sub):
        l, _ = _wrap(node.left, 1, variable)
        r, _ = _wrap(node.right, 2, variable)
        return f"{l}-{r}", 1
    if isinstance(node, Mul):
        l, _ = _wrap(node.left, 2, variable)
        r, _ = _wrap(node.right, 3, variable)
        return f"{l}*{r}", 2
    if isinstance(node, Div):
        l, _ = _wrap(node.left, 2, variable)
        r, _ = _wrap(node.right, 3, variable)
        return f"{l}/{r}", 2
    if isinstance(node, Neg):
        a, _ = _wrap(node.arg, 3, variable)
        return f"-{a}", 3
    if isinstance(node, Pow):
        b, _ = _wrap(node.base, 5, variable)
        return f"{b}^{node.exponent}", 4
    if isinstance(node, Fn):
        a, _ = _unparse(node.arg, variable)
        return f"{node.name}({a})", 5
    raise TypeError(f"not an expression node: {node!r}")


def _wrap(node: ExprNode, min_prec: int, variable: str) -> tuple[str, int]:
    text, prec = _unparse(node, variable)
    if prec < min_prec:
        return f"({text})", 5
    return text, prec


def unparse(node: ExprNode, variable: str = "z") -> str:
    """Render an AST back to source; parsing the result reproduces the tree."""
    return _unparse(node, variable)[0]


# ---------------------------------------------------------------------------
# 2-jet evaluation (second-order forward mode)
# ---------------------------------------------------------------------------

def _finite(x) -> bool:
    if isinstance(x, complex):
        return math.isfinite(x.real) and math.isfinite(x.imag)
    return math.isfinite(x)


_COMPLEX_FNS = {
    "exp": cmath.exp, "log": cmath.log, "sin": cmath.sin,
    "cos": cmath.cos, "sinh": cmath.sinh, "cosh": cmath.cosh,
}
_REAL_FNS = {
    "exp": math.exp, "log": math.log, "sin": math.sin,
    "cos": math.cos, "sinh": math.sinh, "cosh": math.cosh,
}


_ARRAY_FNS = {name: getattr(np, name) for name in FUNCTIONS}


class _JetEvaluator:
    """The node rules at one point; a failing rule raises EvalError."""

    def __init__(self, point, variable: str):
        self.point = point
        self.variable = variable
        self.is_complex = isinstance(point, complex)
        self.fns = _COMPLEX_FNS if self.is_complex else _REAL_FNS
        self.one, self.zero = (1 + 0j, 0j) if self.is_complex else (1.0, 0.0)

    def fail(self, node: ExprNode, reason: str):
        raise EvalError(unparse(node, self.variable), self.point, reason)

    def fail_where(self, node: ExprNode, bad, reason: str):
        if bad:
            self.fail(node, reason)

    def check(self, node: ExprNode, jet):
        if not all(_finite(c) for c in jet):
            self.fail(node, "non-finite result")
        return jet

    def const(self, node: Const):
        v = node.value
        if self.is_complex:
            return (v, 0j, 0j)
        self.fail_where(node, v.imag != 0.0, "complex constant in real evaluation")
        return (v.real, 0.0, 0.0)

    def run(self, node: ExprNode):
        if isinstance(node, Const):
            return self.const(node)
        if isinstance(node, Var):
            return (self.point, self.one, self.zero)
        if isinstance(node, Neg):
            v, d1, d2 = self.run(node.arg)
            return (-v, -d1, -d2)
        if isinstance(node, Add):
            a = self.run(node.left)
            b = self.run(node.right)
            return self.check(node, (a[0] + b[0], a[1] + b[1], a[2] + b[2]))
        if isinstance(node, Sub):
            a = self.run(node.left)
            b = self.run(node.right)
            return self.check(node, (a[0] - b[0], a[1] - b[1], a[2] - b[2]))
        if isinstance(node, Mul):
            a = self.run(node.left)
            b = self.run(node.right)
            return self.check(node, (
                a[0] * b[0],
                a[1] * b[0] + a[0] * b[1],
                a[2] * b[0] + 2 * a[1] * b[1] + a[0] * b[2],
            ))
        if isinstance(node, Div):
            a = self.run(node.left)
            b = self.run(node.right)
            self.fail_where(node, b[0] == 0, "division by zero")
            try:
                w0 = a[0] / b[0]
                w1 = (a[1] - w0 * b[1]) / b[0]
                w2 = (a[2] - 2 * w1 * b[1] - w0 * b[2]) / b[0]
            except OverflowError:
                self.fail(node, "overflow")
            return self.check(node, (w0, w1, w2))
        if isinstance(node, Pow):
            u = self.run(node.base)
            n = node.exponent
            if n == 0:
                return (self.one, self.zero, self.zero)
            if n == 1:
                return u
            try:
                p2 = u[0] ** (n - 2)
                p1 = p2 * u[0]
                p0 = p1 * u[0]
                w1 = n * p1 * u[1]
                w2 = n * (n - 1) * p2 * u[1] * u[1] + n * p1 * u[2]
            except OverflowError:
                self.fail(node, "overflow")
            return self.check(node, (p0, w1, w2))
        if isinstance(node, Fn):
            u = self.run(node.arg)
            return self.check(node, self.apply_fn(node, u))
        raise TypeError(f"not an expression node: {node!r}")

    def apply_fn(self, node: Fn, u):
        name = node.name
        v = u[0]
        fns = self.fns
        if name == "log":
            if self.is_complex:
                self.fail_where(node, (v == 0) | ((v.imag == 0.0) & (v.real < 0.0)),
                                "log on the branch cut (re <= 0, im = 0)")
            else:
                self.fail_where(node, v <= 0.0, "log of a non-positive real")
            w1 = u[1] / v
            w2 = u[2] / v - w1 * w1
            return (fns["log"](v), w1, w2)
        try:
            fv = fns[name](v)
            if name == "exp":
                d, dd = fv, fv
            elif name == "sin":
                d, dd = fns["cos"](v), -fv
            elif name == "cos":
                d, dd = -fns["sin"](v), -fv
            elif name == "sinh":
                d, dd = fns["cosh"](v), fv
            elif name == "cosh":
                d, dd = fns["sinh"](v), fv
            else:
                raise TypeError(f"no evaluation rule for {name!r}")
        except (OverflowError, ValueError):
            self.fail(node, f"{name} out of range")
        return (fv, d * u[1], dd * u[1] * u[1] + d * u[2])


class _ArrayJetEvaluator(_JetEvaluator):
    """The same rules over an array of points; a failing rule clears ``ok``
    at the points where it fails instead of raising.  Run under
    ``np.errstate(all="ignore")``: failed points carry garbage onwards.
    Constants are numpy scalars, so constant subtrees follow numpy's
    arithmetic too instead of raising like Python floats."""

    def __init__(self, points: np.ndarray, variable: str):
        super().__init__(points, variable)
        self.is_complex = np.iscomplexobj(points)
        self.fns = _ARRAY_FNS
        self.number = np.complex128 if self.is_complex else np.float64
        self.one, self.zero = self.number(1), self.number(0)
        self.ok = np.ones(points.shape, dtype=bool)

    def const(self, node: Const):
        return tuple(map(self.number, super().const(node)))

    def fail_where(self, node: ExprNode, bad, reason: str):
        self.ok &= np.logical_not(bad)

    def check(self, node: ExprNode, jet):
        for c in jet:
            self.ok &= np.isfinite(c)
        return jet


def eval_jet2(node: ExprNode, point, variable: str = "z") -> Jet2:
    """Evaluate the 2-jet (value, first, second derivative) at ``point``.

    Complex arithmetic is used when ``point`` is complex, real otherwise.
    Raises :class:`EvalError` at singular points instead of propagating NaN.
    """
    jet = _JetEvaluator(point, variable).run(node)
    if not all(_finite(c) for c in jet):
        raise EvalError(unparse(node, variable), point, "non-finite result")
    return Jet2(*jet)


def eval_jet2_array(node: ExprNode, points, variable: str = "z") -> tuple[Jet2, np.ndarray]:
    """2-jets at every element of the array ``points``, plus a validity mask.

    Applies the rules of :func:`eval_jet2` elementwise, complex arithmetic
    for a complex array and real otherwise.  The mask is False exactly where
    eval_jet2 would raise (division by zero, the log cut, a non-finite
    result, a complex constant in a real expression); the jet values there
    are unspecified.  The jet components are arrays shaped like ``points``.
    """
    points = np.asarray(points)
    evaluator = _ArrayJetEvaluator(points, variable)
    with np.errstate(all="ignore"):
        jet = evaluator.check(node, evaluator.run(node))
    return Jet2(*(np.full(points.shape, c) if np.ndim(c) == 0 else c
                  for c in jet)), evaluator.ok


def evaluate(node: ExprNode, point, variable: str = "z"):
    """Value of the expression at ``point`` (no derivatives)."""
    return eval_jet2(node, point, variable).value
