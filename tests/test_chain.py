"""Derivative rewriting along a commuting partner.

The tables say: the k-th derivative of f, read at g(z), is a polynomial
in the functions g^(j) read at f(z), with coefficients built from
derivatives of f and g at z.  Substituting the tables into an equation
for f produces an expression that must vanish iff the pair really
commutes and the equation really annihilates f.
"""

import pytest

from adekit.scalars import Frac
from adekit.expr import (
    Compose,
    DefinitionEnvironment,
    EMPTY_ENV,
    FuncRef,
    ZERO,
    add,
    expand_series,
    expression_of_frac,
    mul,
    parse,
    pow_,
)
from adekit.diffpoly import DiffPoly, mono_weight, parse_ade
from adekit.chain_rewrite import (
    bound_pair,
    derivative_transfer,
    max_support_weight,
    support_monomials,
    table_text,
    transfer_residual,
    transfer_support,
    verify_transfer,
)

from test_series import close_to


def _pair_env():
    env = DefinitionEnvironment()
    env.define_text("f", "z+exp(z)")
    env.define_text("g", "z+2*pi*i+exp(z)")
    return env


PAIR_ENV = _pair_env()
F_OF = parse("f", PAIR_ENV)
G_OF = parse("g", PAIR_ENV)


# ---------------------------------------------------------------------------
# table structure


def test_table_zero_is_identity():
    assert derivative_transfer(0) == {(1,): parse("1")}


def test_table_one_closed_form():
    t = derivative_transfer(1)
    assert set(t) == {(0, 1)}
    assert table_text(t) == "(f'/g')*G1"


def test_table_two_closed_form():
    t = derivative_transfer(2)
    assert set(t) == {(0, 1), (0, 0, 1)}
    assert table_text(t) == "(f'/g'*f'/g')*G2 + ((f''*g'-f'*g'')/g'^2/g')*G1"


def test_table_weights_bounded_by_index():
    for k in range(6):
        t = derivative_transfer(k)
        assert max(mono_weight(m) for m in t) == max(k, 1) if k else True
        assert all(mono_weight(m) <= max(k, 1) for m in t)


def test_table_coefficients_against_reference():
    # symbolic check: expand T1 and T2 coefficients for a bound pair and
    # compare with the closed formulas f'/g' and (f''g' - f'g'')/g'^3
    bound = bound_pair(F_OF, G_OF, PAIR_ENV)
    t1 = derivative_transfer(1)
    ref1 = parse("f'/g'", _fg_names())
    got = expand_series(t1[(0, 1)], 0, 10, env=bound)
    want = expand_series(ref1, 0, 10, env=bound)
    assert (got - want).is_zero()

    t2 = derivative_transfer(2)
    ref_g2 = parse("(f'/g')^2", _fg_names())
    ref_g1 = parse("(f''*g'-f'*g'')/g'^3", _fg_names())
    for mono, ref in (((0, 0, 1), ref_g2), ((0, 1), ref_g1)):
        got = expand_series(t2[mono], 0, 10, env=bound)
        want = expand_series(ref, 0, 10, env=bound)
        assert (got - want).is_zero(), mono


def _fg_names():
    env = DefinitionEnvironment()
    env.define_text("f", "z")
    env.define_text("g", "z")
    return env


# ---------------------------------------------------------------------------
# support of a rewritten equation


def test_support_weight_equals_equation_weight():
    for text in ("y1 - y0", "y2 - y1 + 1", "y0*y2 - y1^2 - y0*y1", "y3 + z*y1*y2"):
        p = parse_ade(text)
        support = transfer_support(p)
        assert max_support_weight(support) == p.weight, text


def test_support_of_iterate_equation():
    support = transfer_support(parse_ade("y2 - y1 + 1"))
    assert support_monomials(support) == [(), (0, 1), (0, 0, 1)]


# ---------------------------------------------------------------------------
# the rewrite identity: substituting the tables reproduces the equation
# applied to f, then read at g


def _equation_on_f(p: DiffPoly):
    total = ZERO
    for mono, coeff in p.terms.items():
        term = expression_of_frac(coeff)
        for k, e in enumerate(mono):
            if e:
                term = mul(term, pow_(FuncRef("f", k), e))
        total = add(total, term)
    return total


def _corpus(max_weight, max_degree):
    from adekit.discovery import candidate_monomials

    return candidate_monomials(max_weight, max_degree)


@pytest.mark.parametrize(
    "f_text,g_text,degree,order",
    [("z^2", "z^4", 3, 20), ("z+exp(z)", "z+2*pi*i+exp(z)", 2, 12)],
)
def test_rewrite_identity_on_weight_three_corpus(f_text, g_text, degree, order):
    # the acceptance suite runs the full stated version; this keeps a
    # lighter sweep in the module tests
    env = DefinitionEnvironment()
    env.define_text("f", f_text)
    env.define_text("g", g_text)
    f = parse("f", env)
    g = parse("g", env)
    bound = bound_pair(f, g, env)
    center = Frac.of(1) if f_text == "z^2" else Frac.of(0)
    for mono in _corpus(3, degree):
        p = DiffPoly.monomial(mono)
        lhs = transfer_residual(transfer_support(p), bound, center, order)
        rhs = expand_series(Compose(_equation_on_f(p), FuncRef("g")), center, order, env=bound)
        assert (lhs - rhs).is_zero(), mono


def _residual_by_expressions(support, bound, center, order, mode="exact"):
    # the route the rewrite used to take: one expression per term,
    # coeff * prod Compose(g^(j), f)^e, each expanded on its own
    total = None
    for mono, coeff in support.items():
        term = coeff
        for j, e in enumerate(mono):
            if e:
                term = mul(term, pow_(Compose(FuncRef("g", j), FuncRef("f")), e))
        s = expand_series(term, center, order, mode=mode, env=bound)
        total = s if total is None else total + s
    return total


@pytest.mark.parametrize(
    "f_text,g_text,center",
    [("z^2", "z^4", Frac.of(1)), ("z+exp(z)", "z+2*pi*i+exp(z)", Frac.of(0))],
    ids=["power", "translate"],
)
def test_transfer_residual_matches_expression_route(f_text, g_text, center):
    # the residual is built from the derivative stack of g composed with f;
    # on monomials that do not annihilate f it is far from zero, so this
    # compares real series, coefficient by coefficient
    env = DefinitionEnvironment()
    env.define_text("f", f_text)
    env.define_text("g", g_text)
    bound = bound_pair(parse("f", env), parse("g", env), env)
    for mono in _corpus(3, 3):
        support = transfer_support(DiffPoly.monomial(mono))
        got = transfer_residual(support, bound, center, 6)
        assert got == _residual_by_expressions(support, bound, center, 6), mono
        if f_text == "z^2":
            got = transfer_residual(support, bound, 1.0, 6, mode="numeric")
            want = _residual_by_expressions(support, bound, 1.0, 6, mode="numeric")
            assert close_to(got, want), mono


def test_verify_transfer_positive_pairs():
    p = parse_ade("y2 - y1 + 1")
    assert verify_transfer(p, F_OF, G_OF, PAIR_ENV)
    assert verify_transfer(p, G_OF, F_OF, PAIR_ENV)
    # a pair of powers about a center away from the origin, numeric mode
    env = DefinitionEnvironment()
    env.define_text("f", "z^2")
    env.define_text("g", "z^4")
    q = parse_ade("z*y1 - 2*y0")
    assert verify_transfer(q, parse("f", env), parse("g", env), env, order=14, center=1.0, mode="numeric")


def test_verify_transfer_rejects_noncommuting_pairs():
    assert not verify_transfer(parse_ade("y1 - y0"), parse("exp(z)"), parse("sin(z)"), EMPTY_ENV)
    env = DefinitionEnvironment()
    env.define_text("f", "z+exp(z)")
    env.define_text("g", "2*z")
    assert not verify_transfer(
        parse_ade("y2 - y1 + 1"), parse("f", env), parse("g", env), env
    )


def test_verify_transfer_rejects_wrong_equation():
    # right pair, equation that does not annihilate f
    assert not verify_transfer(parse_ade("y2 + y1 + 1"), F_OF, G_OF, PAIR_ENV)
