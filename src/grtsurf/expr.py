"""One-variable analytic expressions: parsing, symbolic derivatives, 2-jets.

Grammar (whitespace insignificant):

    expr  := term (('+'|'-') term)*
    term  := unary (('*'|'/') unary)*
    unary := '-' unary | power
    power := atom ('^' integer)?
    atom  := number | ident | '(' expr ')' | fn '(' expr ')'
    fn    := 'exp' | 'log' | 'sin' | 'cos' | 'sinh' | 'cosh'

Numbers are unsigned decimals with optional fraction and exponent that give
a finite double (``1e999`` is a ParseError).  The identifiers ``i``, ``pi``
and ``e`` are built-in constants; ``i`` is rejected when parsing in the real
context.  ``^`` takes a nonnegative integer literal exponent of at most
MAX_EXPONENT (1e150) only; general powers must be spelled ``exp(c*log(z))``.
``log`` uses the principal branch and fails exactly at 0 and on the cut
(re <= 0, im = 0).  Trees deeper than MAX_DEPTH are a ParseError, and
``differentiate`` raises ValueError rather than build a derivative deeper
than MAX_DERIVATIVE_DEPTH.  Every constant that the parser or the simplifier
makes is finite: a fold that overflows stays unfolded.  The parser, the
unparser and the simplifier read the four binary operators from one table,
``_BINARY``.

Evaluation produces 2-jets (value, first, second derivative) by second-order
forward-mode arithmetic over the tree; it raises instead of returning
non-finite values.  ``eval_jet2_array`` applies the same rules to an array of
points at once and returns a mask where the pointwise evaluation would raise.
ASTs are immutable and safe to share across threads.
"""
from __future__ import annotations

import cmath
import math
import operator
import re
from dataclasses import dataclass
from functools import partial
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

# symbol -> (node class, precedence, constant fold); the precedence levels
# are add/sub 1, mul/div 2, unary minus 3, pow 4, atoms 5
_BINARY = {"+": (Add, 1, operator.add), "-": (Sub, 1, operator.sub),
           "*": (Mul, 2, operator.mul), "/": (Div, 2, operator.truediv)}
_BINARY_OF = {cls: (symbol, prec, fold)
              for symbol, (cls, prec, fold) in _BINARY.items()}

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

# a token after optional whitespace: a number, an identifier or an operator
_TOKEN_RE = re.compile(r"\s*(?:(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|([A-Za-z_][A-Za-z_0-9]*)"
                       r"|([-+*/^()]))")

_ATOM_EXPECTED = ("number", "identifier", "'('", "'-'")

# Deepest expression accepted.  It bounds both the nesting of parentheses,
# calls and unary minus while parsing and the depth of the tree, so that the
# recursive passes (parser, evaluators, derivative, unparser) stay well
# inside Python's recursion limit.
MAX_DEPTH = 100
# Deepest unsimplified derivative built.  Each rule adds at most three levels,
# and a chain of MAX_DEPTH quotients has a second derivative of 595.
MAX_DERIVATIVE_DEPTH = 6 * MAX_DEPTH
# Largest ``^`` exponent n: the jet rules need n*(n-1) as a finite double.
MAX_EXPONENT = 1e150


def _byte_offset(source: str, pos: int) -> int:
    return len(source[:pos].encode("utf-8"))


def _tokenize(source: str) -> list[tuple[str, object, int]]:
    """Return (kind, value, char_pos) triples; kind is 'num', 'ident', an
    operator character, or 'end'."""
    tokens, pos = [], 0
    while m := _TOKEN_RE.match(source, pos):
        kind = m.lastindex
        tokens.append((("num", "ident", m[3])[kind - 1], m[kind], m.start(kind)))
        pos = m.end()
    pos = len(source) - len(source[pos:].lstrip())
    if pos < len(source):
        raise ParseError(f"unexpected character {source[pos]!r}", _byte_offset(source, pos))
    return tokens + [("end", None, len(source))]


# ---------------------------------------------------------------------------
# Parser (recursive descent; same source always yields the same tree)
# ---------------------------------------------------------------------------

def _shown(kind: str, value) -> str:
    """A found token as a parse error names it."""
    return "end of input" if kind == "end" else repr(value)


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
                tuple(f"'{symbol}'" for symbol in _BINARY) + ("end of input",),
            )
        return node

    def expr(self, prec: int = 1) -> tuple[ExprNode, int]:
        """Operands joined left to right by the operators of precedence
        ``prec``; an operand is the next level in, a unary after level 2."""
        operand = partial(self.expr, prec + 1) if prec < 2 else self.unary
        node, depth = operand()
        while self.peek()[0] in _BINARY and _BINARY[self.peek()[0]][1] == prec:
            op, _, pos = self.advance()
            rhs, rhs_depth = operand()
            node = _BINARY[op][0](node, rhs)
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
                self.error(f"exponent must be an integer literal, got "
                           f"{_shown(kind, value)}", pos, ("integer",))
            if float(value) > MAX_EXPONENT:
                self.error(f"exponent out of range, above {MAX_EXPONENT:g}", pos)
            self.advance()
            node, depth = Pow(node, int(value)), self.limit(depth + 1, op_pos)
        return node, depth

    def atom(self) -> tuple[ExprNode, int]:
        kind, value, pos = self.peek()
        if kind == "num":
            self.advance()
            if not math.isfinite(float(value)):
                self.error("number out of range of a double", pos)
            return Const(complex(float(value))), 1
        if kind == "(":
            self.advance()
            node, depth = self.nested(self.expr, pos)
            kind, value, pos = self.peek()
            if kind != ")":
                self.error(f"unclosed parenthesis, got {_shown(kind, value)}",
                           pos, ("')'",))
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
                    self.error(f"unclosed function call, got "
                               f"{_shown(kind2, value2)}", pos2, ("')'",))
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
        self.error(f"unexpected {_shown(kind, value)}", pos, _ATOM_EXPECTED)


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

def _is_const(node: ExprNode, value) -> bool:
    return isinstance(node, Const) and node.value == value


def _fold(node: ExprNode, fold, *operands: ExprNode) -> ExprNode:
    """``Const(fold(...))`` of the operands' values when all of them are
    constants and the fold neither raises nor gives a non-finite value;
    ``node`` otherwise."""
    if not all(isinstance(x, Const) for x in operands):
        return node
    try:
        value = fold(*(x.value for x in operands))
    except ArithmeticError:
        return node
    return Const(value) if cmath.isfinite(value) else node


def simplify(node: ExprNode) -> ExprNode:
    """Constant folding plus 0/1 elimination; applied bottom-up, once per
    subtree however often the tree shares it."""
    return _simplify(node, {})


def _negate(a: ExprNode) -> ExprNode:
    """Simplified -a of a simplified a."""
    return a.arg if isinstance(a, Neg) else _fold(Neg(a), operator.neg, a)


def _simplify(node: ExprNode, memo: dict) -> ExprNode:
    """simplify, ``memo`` mapping id(subtree), kept alive by the tree, to its
    result; callers store it, so a tree level stays one recursion level."""
    if id(node) in memo:
        return memo[id(node)]
    if isinstance(node, (Const, Var)):
        return node
    if isinstance(node, Neg):
        return _negate(memo.setdefault(id(node.arg), _simplify(node.arg, memo)))
    if isinstance(node, Pow):
        b = memo.setdefault(id(node.base), _simplify(node.base, memo))
        if node.exponent == 0:
            return Const(complex(1.0))
        if node.exponent == 1:
            return b
        return _fold(Pow(b, node.exponent), partial(pow, exp=node.exponent), b)
    if isinstance(node, Fn):
        return Fn(node.name, memo.setdefault(id(node.arg), _simplify(node.arg, memo)))
    if type(node) not in _BINARY_OF:
        raise TypeError(f"not an expression node: {node!r}")
    left = memo.setdefault(id(node.left), _simplify(node.left, memo))
    right = memo.setdefault(id(node.right), _simplify(node.right, memo))
    if isinstance(node, Add):
        if _is_const(left, 0):
            return right
        if _is_const(right, 0):
            return left
    elif isinstance(node, Sub):
        if _is_const(right, 0):
            return left
        if _is_const(left, 0):
            return _negate(right)
    elif isinstance(node, Mul):
        if _is_const(left, 0) or _is_const(right, 0):
            return Const(complex(0.0))
        if _is_const(left, 1):
            return right
        if _is_const(right, 1):
            return left
    else:
        if _is_const(left, 0):
            return Const(complex(0.0))
        if _is_const(right, 1):
            return left
    return _fold(type(node)(left, right), _BINARY_OF[type(node)][2], left, right)


# The derivative rules of the functions other than log: fn' is the function
# named here, negated or not, and fn'' is fn itself, negated or not.
_DERIVATIVES = {"exp": ("exp", False, False), "sin": ("cos", False, True),
                "cos": ("sin", True, True), "sinh": ("cosh", False, False),
                "cosh": ("sinh", False, False)}


def _diff(node: ExprNode) -> ExprNode:
    if isinstance(node, Const):
        return Const(complex(0.0))
    if isinstance(node, Var):
        return Const(complex(1.0))
    if isinstance(node, (Add, Sub)):
        return type(node)(_diff(node.left), _diff(node.right))
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
        if node.name == "log":
            return Div(du, node.arg)
        name, negate, _ = _DERIVATIVES[node.name]
        d = Mul(Fn(name, node.arg), du)
        return Neg(d) if negate else d
    raise TypeError(f"not an expression node: {node!r}")


def _depth(node: ExprNode) -> int:
    """Depth of the tree, level by level with shared subtrees counted once
    per level, so without recursion."""
    deepest, level = 0, [node]
    while level:
        deepest += 1
        level = list({id(child): child for x in level
                      for child in map(vars(x).get, ("left", "right", "arg", "base"))
                      if child is not None}.values())
    return deepest


def differentiate(node: ExprNode) -> ExprNode:
    """Symbolic derivative; output is itself valid input.

    Raises ValueError where the unsimplified derivative would be deeper than
    :data:`MAX_DERIVATIVE_DEPTH`, before the recursive passes over it.
    """
    derivative = _diff(node)
    if _depth(derivative) > MAX_DERIVATIVE_DEPTH:
        raise ValueError(f"derivative nested deeper than {MAX_DERIVATIVE_DEPTH} levels")
    return simplify(derivative)


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


def _shared(node: ExprNode) -> dict:
    """None under id() of each subtree that ``node`` holds more than once.
    _unparse keeps the source of these alone: the nested sources of every
    subtree can add up to hundreds of times the text of the whole tree."""
    seen, shared, stack = set(), {}, [node]
    while stack:
        node = stack.pop()
        for child in filter(None, map(vars(node).get, ("left", "right", "arg", "base"))):
            if id(child) in seen:
                shared[id(child)] = None
            else:
                seen.add(id(child))
                stack.append(child)
    return shared


def _unparse(node: ExprNode, variable: str, shared: dict, min_prec: int = 0) -> str:
    """The source of ``node``, parenthesised if it binds looser than
    ``min_prec`` (the precedence levels are those of ``_BINARY``).  The first
    visit of each subtree in ``shared`` (_shared's) stores its source there."""
    if found := shared.get(id(node)):
        text, prec = found
    elif isinstance(node, Const):
        text, prec = _fmt_const(node.value)
    elif isinstance(node, Var):
        text, prec = variable, 5
    elif type(node) in _BINARY_OF:
        symbol, prec, _ = _BINARY_OF[type(node)]
        text = (_unparse(node.left, variable, shared, prec) + symbol
                + _unparse(node.right, variable, shared, prec + 1))
    elif isinstance(node, Neg):
        text, prec = "-" + _unparse(node.arg, variable, shared, 3), 3
    elif isinstance(node, Pow):
        text, prec = f"{_unparse(node.base, variable, shared, 5)}^{node.exponent}", 4
    elif isinstance(node, Fn):
        text, prec = f"{node.name}({_unparse(node.arg, variable, shared)})", 5
    else:
        raise TypeError(f"not an expression node: {node!r}")
    if id(node) in shared:
        shared[id(node)] = text, prec
    return f"({text})" if prec < min_prec else text


def unparse(node: ExprNode, variable: str = "z") -> str:
    """Render an AST back to source; parsing the result reproduces the tree."""
    return _unparse(node, variable, _shared(node))


# ---------------------------------------------------------------------------
# 2-jet evaluation (second-order forward mode)
# ---------------------------------------------------------------------------

_COMPLEX_FNS, _REAL_FNS, _ARRAY_FNS = ({name: getattr(library, name) for name in FUNCTIONS}
                                      for library in (cmath, math, np))


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
        # cmath.isfinite takes a float as the complex with imaginary part 0
        if not (cmath.isfinite(jet[0]) and cmath.isfinite(jet[1])
                and cmath.isfinite(jet[2])):
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
        d_name, negate_d, negate_dd = _DERIVATIVES[name]
        try:
            fv = fns[name](v)
            d = fv if d_name == name else fns[d_name](v)
        except (OverflowError, ValueError):
            self.fail(node, f"{name} out of range")
        d, dd = -d if negate_d else d, -fv if negate_dd else fv
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
    evaluator = _JetEvaluator(point, variable)
    return Jet2(*evaluator.check(node, evaluator.run(node)))


def eval_jet2_array(node: ExprNode, points, variable: str = "z") -> tuple[Jet2, np.ndarray]:
    """2-jets at every element of the array ``points``, plus a validity mask.

    Applies the rules of :func:`eval_jet2` elementwise, complex arithmetic
    for a complex array and real otherwise.  The mask is False where
    eval_jet2 would raise (division by zero, the log cut, a non-finite
    result, a complex constant in a real expression), and the jet values
    there are unspecified.  The two can disagree beside a failure: numpy's
    complex z/z can be one ulp off Python's exact 1.  The jet components are
    arrays shaped like ``points``.
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
