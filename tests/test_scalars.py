"""Exact scalar tower: Gaussian rationals, polynomials, fractions."""

import random
from fractions import Fraction

import pytest

from adekit.scalars import (
    Frac,
    GaussianRational,
    Poly,
    ScalarError,
    exp_of_scalar,
    frac_str,
    frac_value,
    gauss_str,
    poly_exact_div,
    poly_gcd,
    poly_lcm,
    poly_str,
    sin_of_scalar,
    PI,
)


def rand_gauss(rng):
    return GaussianRational(
        Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
    )


def rand_poly(rng, vars=("z",), max_deg=3, max_terms=4):
    p = Poly.zero()
    for _ in range(rng.randint(0, max_terms)):
        mono = []
        for v in vars:
            e = rng.randint(0, max_deg)
            if e:
                mono.append((v, e))
        p = p + Poly({tuple(sorted(mono)): rand_gauss(rng)})
    return p


def test_gauss_field_axioms():
    rng = random.Random(20240817)
    for _ in range(100):
        a, b, c = rand_gauss(rng), rand_gauss(rng), rand_gauss(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == GaussianRational(1)


def test_gauss_pure_real_stays_real():
    a = GaussianRational(Fraction(3, 2))
    b = GaussianRational(Fraction(-5, 7))
    assert not (a * b).im and not (a + b).im
    assert (a * b).re == Fraction(-15, 14)


def test_gauss_i_squared():
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1)
    assert i**4 == GaussianRational(1)
    assert gauss_str(i) == "i"
    assert gauss_str(GaussianRational(1, -1)) == "1-i"
    assert gauss_str(GaussianRational(0, Fraction(-3, 2))) == "-3/2*i"


def test_poly_ring_axioms():
    rng = random.Random(7)
    for _ in range(40):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_poly_graded_lex_leading():
    z = Poly.var("z")
    e = Poly.var("e")
    p = z * z + z * e + e
    m, _ = p.leading()
    # z ranks before adjoined names at equal total degree
    assert m == (("z", 2),)


def _graded_lex_cmp(a, b):
    """Reference order: higher total degree leads, ties broken by the
    earliest variable (z, then the others alphabetically) whose exponents
    differ, the larger exponent leading."""
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return 1 if da > db else -1
    ea, eb = dict(a), dict(b)
    for v in sorted(set(ea) | set(eb), key=lambda v: (v != "z", v)):
        if ea.get(v, 0) != eb.get(v, 0):
            return 1 if ea.get(v, 0) > eb.get(v, 0) else -1
    return 0


def test_mono_key_matches_the_graded_lex_comparator():
    from adekit.scalars import _mono_key

    rng = random.Random(4242)
    names = ["z", "pi", "e", "sin3"]

    def mono():
        exps = [(v, rng.randint(0, 3)) for v in names if rng.random() < 0.6]
        return tuple(sorted(((v, e) for v, e in exps if e), key=lambda t: (t[0] != "z", t[0])))

    for _ in range(20000):
        a, b = mono(), mono()
        want = _graded_lex_cmp(a, b)
        got = (_mono_key(a) < _mono_key(b)) - (_mono_key(a) > _mono_key(b))
        assert got == want, (a, b)


def test_poly_exact_div_roundtrip():
    rng = random.Random(99)
    for _ in range(30):
        a = rand_poly(rng, max_deg=2, max_terms=3)
        b = rand_poly(rng, max_deg=2, max_terms=2)
        if b.is_zero():
            continue
        assert poly_exact_div(a * b, b) == a


def test_poly_exact_div_rejects_inexact():
    z = Poly.var("z")
    with pytest.raises(ScalarError):
        poly_exact_div(z * z + Poly.one(), z)


def test_poly_gcd_lcm():
    z = Poly.var("z")
    a = z * z - Poly.one()
    b = z - Poly.one()
    g = poly_gcd(a, b)
    assert poly_exact_div(a, g) is not None
    assert g.degree_in("z") == 1
    l = poly_lcm(a, b)
    assert l.degree_in("z") == 2


def test_frac_arithmetic_and_normal_form():
    z = Poly.var("z")
    x = Frac(z)
    y = (x * x - Frac.of(1)) / (x - Frac.of(1))
    assert y == x + Frac.of(1)
    assert frac_str(y) == "z+1"
    assert frac_str(Frac.of(1) / Frac.of(2)) == "1/2"
    assert frac_str(x / (x + Frac.of(1))) == "z/(z+1)"


def test_frac_str_monic_denominator():
    z = Poly.var("z")
    # normal form makes the denominator monic, moving the 1/2 up top
    q = Frac(z * z - Poly.const(4), Poly.const(2) * z)
    assert frac_str(q) == "(1/2*z^2-2)/z"
    assert poly_str(z * z - Poly.const(4)) == "z^2-4"


def test_exp_of_scalar_quarter_periods():
    # exp at multiples of pi*i/2 collapses to units; anything else adjoins
    # a named constant symbol
    one = Frac.of(1)
    assert frac_str(exp_of_scalar(Frac.of(0))) == "1"
    ipi = Frac.of(GaussianRational(0, 1)) * PI
    assert exp_of_scalar(ipi) == -one
    assert exp_of_scalar(ipi * Frac.of(2)) == one
    assert frac_str(exp_of_scalar(ipi / Frac.of(2))) == "i"
    named = exp_of_scalar(one)
    assert not named.is_constant()
    assert frac_str(named) == "exp(1)"
    assert abs(frac_value(named) - 2.718281828459045) < 1e-12


def test_sin_of_scalar():
    assert sin_of_scalar(Frac.of(0)).is_zero()
    v = sin_of_scalar(PI)
    assert not v.is_constant()
    assert abs(frac_value(v)) < 1e-12


def test_frac_value_numeric():
    z = Poly.var("z")
    with pytest.raises(ScalarError):
        frac_value(Frac(z))
    assert frac_value(Frac.of(3) / Frac.of(4)) == 0.75
    assert abs(frac_value(PI) - 3.141592653589793) < 1e-15
