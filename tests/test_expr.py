"""Expression module: parser, symbolic derivatives, jets, error reporting."""
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import central_d1, central_d2, draw_sample, gen_source
from grtsurf import expr
from grtsurf.expr import (MAX_DEPTH, MAX_DERIVATIVE_DEPTH, Add, Const, Div,
                          EvalError, Fn, Mul, Neg, ParseError, Pow, Sub,
                          UnknownIdentifierError, Var, _JetEvaluator,
                          differentiate, eval_jet2, eval_jet2_array, evaluate,
                          parse_expr, simplify, unparse)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_variable_identity():
    assert parse_expr("z", "z") == Var()


def test_parse_profile_polynomial_structure():
    node = parse_expr("t^2+t+1", "t")
    assert node == Add(Add(Pow(Var(), 2), Var()), Const(complex(1.0)))


def test_parse_reports_offset_and_expected():
    with pytest.raises(ParseError) as err:
        parse_expr("2*+z", "z")
    assert err.value.offset == 2
    assert "number" in err.value.expected


def test_parse_same_source_same_tree():
    a = parse_expr("exp(z^2)-3*z/(1+z)", "z")
    b = parse_expr("exp(z^2)-3*z/(1+z)", "z")
    assert a == b


def test_parse_precedence_and_associativity():
    assert parse_expr("1-2-3", "z") == Sub(Sub(Const(1 + 0j), Const(2 + 0j)),
                                           Const(3 + 0j))
    assert parse_expr("2*z^2", "z") == Mul(Const(2 + 0j), Pow(Var(), 2))
    assert parse_expr("-z^2", "z") == Neg(Pow(Var(), 2))
    assert parse_expr("1/2/z", "z") == Div(Div(Const(1 + 0j), Const(2 + 0j)), Var())


def test_parse_numbers():
    assert parse_expr("2e3", "z") == Const(2000 + 0j)
    assert parse_expr("1.5e-2", "z") == Const(0.015 + 0j)
    assert parse_expr("0.25", "z") == Const(0.25 + 0j)


@pytest.mark.parametrize("src, offset", [
    ("t+1e999", 2), ("9" * 400 + "*t", 0), ("t^" + "9" * 400, 2),
    ("t^2000000000000000000000000000000000000000000000000000000000000000000000000"
     "000000000000000000000000000000000000000000000000000000000000000000000000000"
     "0000", 2),
], ids=["exponent-notation", "long-literal", "long-exponent", "exponent-2e151"])
def test_out_of_range_literal_rejected_at_its_offset(src, offset):
    with pytest.raises(ParseError) as err:
        parse_expr(src, "t", real=True)
    assert err.value.offset == offset
    # an underflowing literal is a finite double: zero
    assert parse_expr("1e-999", "t") == Const(0j)
    assert parse_expr("t^" + "9" * 150, "t").exponent == int("9" * 150)


@pytest.mark.parametrize("make, crossing", [
    (lambda k: "(" * k + "t" + ")" * k, lambda k: k - 1),
    (lambda k: "-" * (k - 1) + "t", lambda k: 0),  # the outermost minus
    (lambda k: "/".join(["t"] * k), lambda k: 2 * k - 3),
], ids=["parentheses", "unary-minus", "left-associated-chain"])
def test_parse_accepts_exactly_max_depth(make, crossing):
    parse_expr(make(MAX_DEPTH), "t")
    with pytest.raises(ParseError) as err:
        parse_expr(make(MAX_DEPTH + 1), "t")
    assert err.value.offset == crossing(MAX_DEPTH + 1)
    assert f"deeper than {MAX_DEPTH} levels" in str(err.value)


def test_parse_constants():
    assert parse_expr("i", "z") == Const(1j)
    assert parse_expr("pi", "z") == Const(complex(math.pi))
    assert parse_expr("e", "t") == Const(complex(math.e))


def test_parse_whitespace_insignificant():
    assert parse_expr(" t ^ 2 + t + 1 ", "t") == parse_expr("t^2+t+1", "t")


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse_expr("z+w", "z")


def test_i_rejected_in_real_context():
    with pytest.raises(UnknownIdentifierError):
        parse_expr("t+i", "t", real=True)
    # fine in the complex context
    parse_expr("z+i", "z")


def test_unknown_function():
    with pytest.raises(UnknownIdentifierError):
        parse_expr("tan(z)", "z")


def test_function_requires_parenthesis():
    with pytest.raises(ParseError):
        parse_expr("exp z", "z")


def test_unclosed_parenthesis():
    with pytest.raises(ParseError):
        parse_expr("(z+1", "z")


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_expr("z z", "z")


def test_exponent_must_be_integer_literal():
    with pytest.raises(ParseError):
        parse_expr("z^-2", "z")
    with pytest.raises(ParseError):
        parse_expr("z^2.5", "z")
    with pytest.raises(ParseError):
        parse_expr("z^z", "z")
    # no chained exponents in the grammar
    with pytest.raises(ParseError):
        parse_expr("z^2^3", "z")


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def test_derivative_of_variable():
    assert differentiate(parse_expr("z", "z")) == Const(1 + 0j)


def test_derivative_of_square():
    assert differentiate(parse_expr("z^2", "z")) == parse_expr("2*z", "z")


def test_exp_fixed_point():
    node = parse_expr("exp(z)", "z")
    assert differentiate(node) == node


def test_derivative_table():
    cases = {
        "log(t)": "1/t",
        "sin(t)": "cos(t)",
        "cos(t)": "-sin(t)",
        "sinh(t)": "cosh(t)",
        "cosh(t)": "sinh(t)",
        "t^2+t+1": "2*t+1",
    }
    for src, expected in cases.items():
        assert differentiate(parse_expr(src, "t")) == parse_expr(expected, "t")


def test_second_derivative_constant():
    d2 = differentiate(differentiate(parse_expr("t^2+t+1", "t")))
    assert d2 == Const(2 + 0j)


@pytest.mark.parametrize("src", ["1e308*10*t", "(1e308+1e308)*t", "(1e200)^2*t",
                                 "1/1e-320*t", "1/0*t"])
def test_constant_fold_that_overflows_stays_unfolded(src):
    node = parse_expr(src, "t")
    assert simplify(node) == node
    assert differentiate(node) == node.left
    assert parse_expr(unparse(differentiate(node), "t"), "t") == node.left


def test_constant_folds_follow_the_operator_table():
    assert simplify(parse_expr("(2+3)*(7-4)/(2*3)-2^3", "t")) == Const(-5.5 + 0j)
    assert simplify(parse_expr("-(2*i)", "z")) == Const(-2j)


def test_derivative_deeper_than_the_bound_raises():
    node = Var()
    for _ in range(MAX_DERIVATIVE_DEPTH // 3 + 1):
        node = Div(node, Var())
    with pytest.raises(ValueError, match=f"deeper than {MAX_DERIVATIVE_DEPTH} "):
        differentiate(node)


def test_differentiation_total_over_nested_trees():
    node = parse_expr("exp(cos(z^3)/(1+z^2))-log(2+sinh(z))", "z")
    d = node
    for _ in range(3):
        d = differentiate(d)  # must not raise, output stays differentiable


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

def test_jet_square_at_complex_point():
    jet = eval_jet2(parse_expr("z^2", "z"), 1 + 1j)
    assert jet.value == 2j
    assert jet.d1 == 2 + 2j
    assert jet.d2 == 2 + 0j


def test_jet_exp_at_zero():
    jet = eval_jet2(parse_expr("exp(z)", "z"), 0j)
    assert jet.value == jet.d1 == jet.d2 == 1 + 0j


def test_jet_profile_at_zero_with_fd_crosscheck():
    node = parse_expr("t^2+t+1", "t")
    jet = eval_jet2(node, 0.0, variable="t")
    assert (jet.value, jet.d1, jet.d2) == (1.0, 1.0, 2.0)
    fd1 = central_d1(node, 0.0, "t", h=1e-5)
    assert abs(jet.d1 - fd1) <= 1e-6 * (1 + abs(jet.d1))
    fd2 = central_d2(node, 0.0, "t")
    assert abs(jet.d2 - fd2) <= 1e-6 * (1 + abs(jet.d2))


def test_division_by_zero_names_subexpression():
    node = parse_expr("1/(z-1)", "z")
    with pytest.raises(EvalError) as err:
        eval_jet2(node, 1 + 0j)
    assert "1/(z-1)" in str(err.value)
    assert err.value.point == 1 + 0j


def test_log_branch_cut():
    node = parse_expr("log(z)", "z")
    with pytest.raises(EvalError):
        eval_jet2(node, 0j)
    with pytest.raises(EvalError):
        eval_jet2(node, complex(-1.0, 0.0))
    # off the cut the principal branch is fine
    jet = eval_jet2(node, complex(-1.0, 1e-9))
    assert math.isfinite(jet.value.real)


def test_log_real_domain():
    node = parse_expr("log(t)", "t")
    with pytest.raises(EvalError):
        eval_jet2(node, 0.0, variable="t")
    with pytest.raises(EvalError):
        eval_jet2(node, -2.0, variable="t")
    assert eval_jet2(node, 1.0, variable="t").value == 0.0


def test_overflow_is_an_error_not_inf():
    node = parse_expr("exp(t)", "t")
    with pytest.raises(EvalError):
        eval_jet2(node, 1e4, variable="t")


# (source, point, which of value, d1, d2 are finite): the value is finite at
# each point and a derivative is not
@pytest.mark.parametrize("src, point, finite", [
    ("1/t", 1e-120, (True, True, False)),  # d1 = -1e240, d2 = 2e360
    ("1/t", 1e-200, (True, False, False)),
    ("1/z", 1e-120 + 0j, (True, True, False)),
    ("1/z", 1e-200 + 0j, (True, False, False)),
    ("1e308*(t+t)", 0.5, (True, False, True)),  # d1 = 2e308, d2 = 0
])
def test_non_finite_derivative_is_an_error(src, point, finite):
    var = "z" if isinstance(point, complex) else "t"
    node = parse_expr(src, var)
    with pytest.raises(EvalError, match="non-finite result$"):
        eval_jet2(node, point, var)
    jet, ok = eval_jet2_array(node, np.array([point]), var)
    assert not ok[0]
    assert tuple(bool(np.isfinite(c[0])) for c in (jet.value, jet.d1, jet.d2)) == finite


def test_complex_constant_rejected_in_real_evaluation():
    node = parse_expr("i*z", "z")
    with pytest.raises(EvalError):
        eval_jet2(node, 0.5, variable="z")


# ---------------------------------------------------------------------------
# Unparse round trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("src", [
    "z", "t^2+t+1", "cos(t)", "sinh(t)", "exp(z)", "z^2", "1-2-3",
    "-z^2", "2*z/(1+z^2)", "exp(2*log(z))", "1/2/z", "z-(1-z)",
    "-(z+1)", "(z+1)^3*exp(-z)",
])
def test_parse_unparse_parse_identity(src):
    first = parse_expr(src, "z" if "z" in src else "t")
    var = "z" if "z" in src else "t"
    again = parse_expr(unparse(first, var), var)
    assert first == again


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**48), st.booleans())
def test_parse_unparse_parse_identity_generated(seed, real):
    rng = random.Random(seed)
    src = gen_source(rng, depth=rng.randint(1, 3), real=real)
    var = "t" if real else "z"
    first = parse_expr(src, var, real=real)
    assert parse_expr(unparse(first, var), var, real=real) == first


def _levels(depth, shared):
    """A tree of ``depth`` levels, each holding the level below twice: as one
    shared subtree, or as two built apart."""
    if depth == 0:
        return Var()
    below = _levels(depth - 1, shared)
    other = below if shared else _levels(depth - 1, shared)
    if depth % 2:
        return Div(Neg(below), Fn("sin", other))
    return Sub(below, Pow(other, 2))


def test_unparse_spells_a_shared_subtree_once(monkeypatch):
    # the shared subtree is asked for in different precedence contexts
    calls, inner = [], expr._unparse

    def spy(node, *args):
        calls.append(node)
        return inner(node, *args)

    monkeypatch.setattr(expr, "_unparse", spy)
    text = unparse(_levels(12, True), "t")
    assert len(calls) <= 4 * 12 + 1  # at most four a level; the tree has 2^12 leaves
    monkeypatch.undo()
    assert text == unparse(_levels(12, False), "t")
    assert parse_expr(text, "t") == _levels(12, False)


# ---------------------------------------------------------------------------
# Properties: jets vs symbolic derivatives vs finite differences
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**48), st.booleans())
def test_jet_matches_symbolic_derivative(seed, real):
    rng = random.Random(seed)
    src, node, point = draw_sample(rng, real=real)
    var = "t" if real else "z"
    jet = eval_jet2(node, point, variable=var)
    d1 = evaluate(differentiate(node), point, variable=var)
    d2 = evaluate(differentiate(differentiate(node)), point, variable=var)
    assert abs(jet.d1 - d1) <= 1e-9 * (1 + abs(d1))
    assert abs(jet.d2 - d2) <= 1e-9 * (1 + abs(d2))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**48), st.booleans())
def test_first_derivative_matches_finite_difference(seed, real):
    rng = random.Random(seed)
    src, node, point = draw_sample(rng, real=real)
    var = "t" if real else "z"
    jet = eval_jet2(node, point, variable=var)
    fd = central_d1(node, point, var)
    assert abs(jet.d1 - fd) <= 1e-6 * (1 + abs(jet.d1)), src


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**48), st.booleans())
def test_second_derivative_matches_difference_stencil(seed, real):
    # the second-difference stencil uses a coarser step: at h = 1e-5 its
    # roundoff floor (eps*|e|/h^2) would exceed the comparison tolerance
    rng = random.Random(seed)
    src, node, point = draw_sample(rng, real=real)
    var = "t" if real else "z"
    jet = eval_jet2(node, point, variable=var)
    fd = central_d2(node, point, var)
    assert abs(jet.d2 - fd) <= 1e-6 * (1 + abs(jet.d2)), src


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**48))
def test_cauchy_riemann(seed):
    rng = random.Random(seed)
    src, node, point = draw_sample(rng, real=False)
    h = 1e-5
    du1 = (evaluate(node, point + h) - evaluate(node, point - h)) / (2 * h)
    du2 = (evaluate(node, point + 1j * h) - evaluate(node, point - 1j * h)) / (2 * h)
    assert abs(du2 - 1j * du1) <= 1e-8 * (1 + abs(du1)), src


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**48), st.booleans())
def test_simplify_preserves_value(seed, real):
    rng = random.Random(seed)
    src, node, point = draw_sample(rng, real=real)
    var = "t" if real else "z"
    a = evaluate(node, point, variable=var)
    b = evaluate(simplify(node), point, variable=var)
    assert abs(a - b) <= 1e-12 * (1 + abs(a))


# ---------------------------------------------------------------------------
# Array evaluation against the scalar reference
# ---------------------------------------------------------------------------

# Grids through the poles and zeros the sampler's constants make (multiples
# of 0.25), the origin and, for z, the negative real axis: the log cut.
_REAL_GRID = np.linspace(-3.0, 3.0, 25)
_COMPLEX_GRID = (np.linspace(-2.0, 2.0, 17)[:, None]
                 + 1j * np.array([-1.0, -0.25, 0.0, 0.5])[None, :])


# Relative steps of 0.5 to 8 ulps either way: each rounding of a number by
# 1 to 4 ulps is one of them, whatever its place in its binade.
_STEPS = [j * 2.0**-53 for j in range(-8, 9) if j]


class _Perturbed(_JetEvaluator):
    """The scalar jet rules with part ``k`` of the jet of the node
    ``target`` scaled by ``1 + step``."""

    def __init__(self, point, variable, target, k, step):
        super().__init__(point, variable)
        self.target, self.k, self.step = target, k, step

    def run(self, node):
        jet = list(super().run(node))
        if node is self.target:
            jet[self.k] *= 1 + self.step
        return tuple(jet)


def _subtrees(node):
    yield node
    for name in ("left", "right", "arg", "base"):
        if hasattr(node, name):
            yield from _subtrees(getattr(node, name))


def _rounded_runs(node, point, variable):
    """For each node of the tree, the scalar jets with one part of that
    node's jet rounded off by each step, None where the run raises.  In
    complex arithmetic a rounding may also turn a value.  Rounding a leaf
    stands for rounding an operand inside the operation that reads it."""
    steps = _STEPS + [1j * step for step in _STEPS] if isinstance(point, complex) else _STEPS
    runs = []
    for target in _subtrees(node):
        runs.append([])
        for k in range(3):
            for step in steps:
                evaluator = _Perturbed(point, variable, target, k, step)
                try:
                    runs[-1].append(evaluator.check(node, evaluator.run(node)))
                except EvalError:
                    runs[-1].append(None)
    return runs


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**48), st.booleans())
@example(seed=11459, real=True)  # sin(cosh((4/t))): cosh(-16) differs by an ulp
@example(seed=98981, real=True)  # cos(sinh((e)^4)): an ulp of 2.6e23 turns cos
@example(seed=26089, real=False)  # cosh(z/z+sinh(4)): z/z is 1 in cmath only,
@example(seed=27396, real=False)  # so (z/z)' is 0 and pi/pi-z/z fails there
def test_array_jets_match_scalar_evaluator(seed, real):
    # Where the evaluators disagree by more than 1e-10 relative, the gap must
    # be one that rounding each node by up to 4 ulps can make: summed over
    # the nodes, the largest change of the scalar jet when one node rounds
    # off.  A mask may differ only where such a rounding tips the scalar
    # evaluation over a failure.
    rng = random.Random(seed)
    var = "t" if real else "z"
    src = gen_source(rng, depth=rng.randint(1, 3), real=real)
    node = parse_expr(src, var, real=real)
    points = _REAL_GRID if real else _COMPLEX_GRID
    jet, ok = eval_jet2_array(node, points, variable=var)
    assert ok.shape == points.shape
    for index in np.ndindex(points.shape):
        point = points[index].item()
        try:
            ref = eval_jet2(node, point, variable=var)
        except EvalError:
            ref = None
        if (ref is not None) != ok[index]:
            assert any((run is not None) == ok[index]
                       for runs in _rounded_runs(node, point, var) for run in runs), \
                (src, point)
            continue
        for k in range(3) if ref is not None else ():
            got, want = (jet.value, jet.d1, jet.d2)[k][index], (ref.value, ref.d1, ref.d2)[k]
            gap = abs(got - want)
            if gap > 1e-10 * (1 + abs(want)):
                bound = sum(max((abs(run[k] - want) for run in runs if run is not None),
                                default=0.0)
                            for runs in _rounded_runs(node, point, var))
                assert gap <= bound, (src, point, got, want, bound)


def test_array_evaluation_masks_each_failure_kind():
    z = np.array([0j, -1 + 0j, 1 + 0j, 400 + 0j])
    _, ok = eval_jet2_array(parse_expr("1/z", "z"), z)
    assert ok.tolist() == [False, True, True, True]
    _, ok = eval_jet2_array(parse_expr("log(z)", "z"), z)
    assert ok.tolist() == [False, False, True, True]
    _, ok = eval_jet2_array(parse_expr("exp(2*z)", "z"), z)
    assert ok.tolist() == [True, True, True, False]
    _, ok = eval_jet2_array(Add(Var(), Const(1j)), np.array([0.5, 1.0]), "t")
    assert ok.tolist() == [False, False]
    # failures inside constant subtrees mask every point instead of raising
    for src in ("t+log(2.5-2.5)", "t/(1-1)", "t*(1e200)^4"):
        _, ok = eval_jet2_array(parse_expr(src, "t", real=True),
                                np.array([0.5, 1.0]), "t")
        assert ok.tolist() == [False, False], src


def test_array_evaluation_of_constants_fills_the_grid():
    jet, ok = eval_jet2_array(parse_expr("2", "t", real=True),
                              np.zeros((2, 3)), "t")
    assert jet.value.shape == jet.d1.shape == jet.d2.shape == (2, 3)
    assert np.all(jet.value == 2.0) and np.all(jet.d2 == 0.0) and ok.all()
