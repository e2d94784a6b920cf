"""Differential polynomials, their text form, and evaluation on series.

Run directly for the seeded property sweep, or let pytest collect it.
"""

import random
from fractions import Fraction

import pytest

from adekit.scalars import Frac, Poly
from adekit.series import NUMERIC, PowerSeries
from adekit.expr import EMPTY_ENV, expand_series, parse
from adekit.diffpoly import (
    DiffPoly,
    DiffPolyError,
    Jet,
    ade_text,
    diff_mono_text,
    holds_on,
    mono_of,
    mono_order,
    mono_product,
    mono_rank,
    mono_total_degree,
    mono_weight,
    normalize,
    parse_ade,
    residual_series,
)

from test_series import shifted_series


# ---------------------------------------------------------------------------
# monomials


def test_mono_of_trims_trailing_zeros():
    assert mono_of([1, 0, 2, 0, 0]) == (1, 0, 2)
    assert mono_of([0, 0]) == ()


def test_mono_weight_degree_order():
    m = mono_of([2, 1, 0, 3])
    assert mono_weight(m) == 1 + 9
    assert mono_total_degree(m) == 6
    assert mono_order(m) == 3
    assert mono_weight(()) == 0 and mono_order(()) == 0


def test_mono_product_adds_exponents():
    assert mono_product((1, 2), (0, 1, 4)) == (1, 3, 4)
    assert mono_product((), (2,)) == (2,)


def test_mono_rank_orders_by_weight_then_degree():
    ms = [(), (1,), (0, 1), (2,), (1, 1), (0, 0, 1)]
    ranked = sorted(ms, key=mono_rank)
    assert ranked[0] == ()
    assert ranked.index((0, 1)) < ranked.index((0, 0, 1))
    # same weight 2: degree separates y1^2 from y2
    assert mono_rank((0, 2)) > mono_rank((0, 0, 1))


def test_diff_mono_text():
    assert diff_mono_text(()) == "1"
    assert diff_mono_text((0, 1)) == "y1"
    assert diff_mono_text((2, 0, 3)) == "y0^2*y2^3"


# ---------------------------------------------------------------------------
# seeded ring and evaluation-homomorphism sweep


def rand_diffpoly(rng, max_order=3, max_degree=2, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * (max_order + 1)
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randint(0, max_order)] += 1
        coeff = Poly.zero()
        for _ in range(rng.randint(1, 2)):
            coeff = coeff + Poly.const(rng.randint(-3, 3)) * Poly.var("z") ** rng.randint(0, 2)
        if coeff.is_zero():
            coeff = Poly.one()
        terms[mono_of(mono)] = Frac(coeff)
    return DiffPoly(terms)


def rand_series(rng, order):
    return PowerSeries(
        "exact",
        [Frac.of(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(order + 1)],
    )


def evaluate(p, jet, order):
    return jet.residual({m: shifted_series(c, 0, order) for m, c in p.terms.items()}, order)[0]


def seeded_ring_and_derivation_sweep(count=100, seed=60103):
    """Evaluation on a jet is a ring homomorphism."""
    rng = random.Random(seed)
    checks = 0
    order = 10
    for _ in range(count // 2):
        p = rand_diffpoly(rng)
        q = rand_diffpoly(rng)
        s = rand_series(rng, order + 6)
        depth = max(p.order, q.order) + 1
        derivs = [s]
        for _ in range(depth):
            derivs.append(derivs[-1].derivative())
        jet = Jet(derivs)
        a = evaluate(p, jet, order)
        b = evaluate(q, jet, order)
        ab = evaluate(p * q, jet, order)
        s_sum = evaluate(p + q, jet, order)
        assert ab == (a * b).truncate(order), "product must evaluate to the product"
        assert s_sum == a + b, "sum must evaluate to the sum"
        assert p * q == q * p and p + q == q + p
        assert (p - p).is_zero()
        checks += 2
    return checks


def test_seeded_ring_and_derivation_sweep():
    assert seeded_ring_and_derivation_sweep() == 100


def test_expanding_jet_differentiates_on_demand():
    jet = Jet.expanding(parse("sin(z)"), EMPTY_ENV, 0, "exact")
    want = [expand_series(parse(t), 0, 9) for t in ("sin(z)", "cos(z)", "-sin(z)", "-cos(z)")]
    assert jet.stack(3, 9) == want
    # an expansion held for a deeper stack serves shorter requests by truncation
    y0y1, y1_sq = jet.monomials([(1, 1), (0, 2)], 6)
    assert y0y1 == (want[0] * want[1]).truncate(6)
    assert y1_sq == (want[1] * want[1]).truncate(6)
    given = Jet(want)
    assert given.stack(3, 9) == want
    with pytest.raises(DiffPolyError):
        given.stack(4, 9)
    with pytest.raises(DiffPolyError):
        given.stack(3, 10)


def test_weight_degree_additivity():
    rng = random.Random(4242)
    for _ in range(25):
        p = rand_diffpoly(rng)
        q = rand_diffpoly(rng)
        pq = p * q
        assert pq.weight <= p.weight + q.weight
        # the leading monomial is the one of highest rank
        lead = [max(d.terms, key=mono_rank) for d in (pq, p, q)]
        assert lead[0] == mono_product(lead[1], lead[2])


# ---------------------------------------------------------------------------
# text round trips


def test_ade_text_fixed_forms():
    p = parse_ade("y2 - y1 + 1")
    assert ade_text(p) == "y2 - y1 + 1"
    q = parse_ade("y0*y2 - y1^2 - y0*y1")
    assert ade_text(q) == "y0*y2 - y1^2 - y0*y1"
    r = parse_ade("y1*y3 - y2^2 + (z+1)*y3 + 9*z-18")
    assert ade_text(r) == "y1*y3 - y2^2 + (z+1)*y3 + 9*z-18"


def test_parse_ade_roundtrip_seeded():
    rng = random.Random(31337)
    for _ in range(40):
        p = rand_diffpoly(rng)
        assert parse_ade(ade_text(p)) == p, ade_text(p)


def test_parse_ade_rejects_garbage():
    from adekit.expr import ParseError

    # "²" is a digit to str.isdigit but not a number to int()
    for bad in ("", "y", "y1 +", "q3", "y1 ** 2", "(z", "y²"):
        with pytest.raises(ParseError):
            parse_ade(bad)


def test_parse_ade_reads_unary_minus_like_expressions():
    # a minus binds one factor, after an operator as well as in front
    assert parse_ade("y1*-y0") == parse_ade("-y1*y0")
    assert list(parse_ade("y2 - -y0").terms) == list(parse_ade("y2 + y0").terms)
    assert parse_ade("-y1^2") == -(parse_ade("y1") ** 2)


def test_parse_ade_divides_by_scalars_only():
    from adekit.expr import ParseError

    assert parse_ade("y1/(2*i)") == parse_ade("-1/2*i*y1")
    for text, message in [
        ("y1/y0", "can only divide by a scalar coefficient"),
        ("y1/(y0-y0)", "division by zero"),
        ("y1/(z-z)", "division by zero"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_ade(text)
        assert str(info.value) == f"{message} at offset 2"


def test_display_order_heaviest_first():
    # equal weight ranks by total degree, so y1*y2 leads y3
    p = parse_ade("1 + y3 + y1*y2")
    text = ade_text(p)
    assert text.index("y1*y2") < text.index("y3")
    assert text.endswith("+ 1")


# ---------------------------------------------------------------------------
# normalize


def test_normalize_clears_denominators_and_content():
    p = parse_ade("1/2*y2 - 1/2*y1 + 1/2")
    n = normalize(p)
    assert ade_text(n) == "y2 - y1 + 1"
    assert normalize(n) == n


def test_normalize_sign_convention():
    p = parse_ade("-2*y2 + 2*y1 - 2")
    assert ade_text(normalize(p)) == "y2 - y1 + 1"


def test_normalize_scaling_invariance():
    rng = random.Random(777)
    for _ in range(20):
        p = rand_diffpoly(rng)
        c = Frac.of(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        assert normalize(p.scale(c)) == normalize(p)
        assert normalize(p.scale(-c)) == normalize(p)


# ---------------------------------------------------------------------------
# evaluation against concrete subjects


def test_holds_on_exponential():
    p = parse_ade("y1 - y0")
    assert holds_on(p, parse("exp(z)"), EMPTY_ENV, 0, 20)
    assert not holds_on(parse_ade("y1 + y0"), parse("exp(z)"), EMPTY_ENV, 0, 20)


def test_holds_on_sine_second_order():
    assert holds_on(parse_ade("y2 + y0"), parse("sin(z)"), EMPTY_ENV, 0, 24)


def test_holds_on_nonzero_center():
    p = parse_ade("y1 - 2*z*y0")
    assert holds_on(p, parse("exp(z^2)"), EMPTY_ENV, Frac.of(1), 12)


def test_holds_on_numeric_mode():
    p = parse_ade("y2 - y1 + 1")
    assert holds_on(p, parse("z+exp(z)"), EMPTY_ENV, 0.3, 16, "numeric")
    assert not holds_on(parse_ade("y2 - y1 - 1"), parse("z+exp(z)"), EMPTY_ENV, 0.3, 16, "numeric")


def test_residual_series_is_zero_series():
    res = residual_series(parse_ade("y2 + y0"), parse("sin(z)"), EMPTY_ENV, 0, 15)
    assert res.is_zero()
    res2 = residual_series(parse_ade("y2 - y0"), parse("sin(z)"), EMPTY_ENV, 0, 15)
    assert not res2.is_zero()


def test_residual_terms_are_coefficients_times_the_search_columns():
    # a check multiplies each monomial out in the order a search's column
    # does, so a numeric residual term keeps the column's bits
    p = parse_ade("(z+1)*y0*y1^2*y2 + (2*z-1)*y0^2*y1 + y1")
    subject, center, order = parse("exp(sin(z))/(2+z)"), 0.3, 12
    coeffs = {m: shifted_series(c, center, order, NUMERIC) for m, c in p.terms.items()}
    _, terms = Jet.expanding(subject, EMPTY_ENV, center, "numeric").residual(coeffs, order)
    columns = Jet.expanding(subject, EMPTY_ENV, center, "numeric").monomials(list(coeffs), order)
    for term, c, column in zip(terms, coeffs.values(), columns):
        assert list(map(repr, term.coeffs)) == list(map(repr, (c * column).coeffs))


if __name__ == "__main__":
    n = seeded_ring_and_derivation_sweep()
    print(f"ring and derivation sweep: {n} checks passed")
