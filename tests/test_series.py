"""Truncated power series in both arithmetic modes."""

import math
import random
from fractions import Fraction

import pytest

from adekit.scalars import Frac, GaussianRational, Poly, frac_str, frac_value
from adekit.series import (
    EXACT,
    NUMERIC,
    PowerSeries,
    SeriesError,
    series_exp,
    series_sin_cos,
)


def shifted_series(f: Frac, center, order, dom=EXACT):
    """The reference expansion of a rational function of z around z =
    center, which expr.expand_series of its expression must match: each
    power of z by the binomial shift z^n = (center + t)^n, each term's
    constants by their value in the domain, and the numerator's series
    divided by the denominator's."""
    c = dom.center(center)

    def poly_series(p: Poly):
        out = [dom.zero] * (order + 1)
        for mono, coeff in p.terms.items():
            n = dict(mono).get("z", 0)
            base = dom.scalar(Frac(Poly({tuple(ve for ve in mono if ve[0] != "z"): coeff})))
            binom = 1
            for j in range(min(n, order) + 1):
                out[j] = out[j] + base * binom * c ** (n - j)
                binom = binom * (n - j) // (j + 1)
        return PowerSeries(dom, out)

    num = poly_series(f.num)
    return num if f.den.is_one() else num / poly_series(f.den)


def geometric(order):
    return PowerSeries("exact", [Frac.of(1)] * (order + 1))


def identity(order, mode="exact"):
    """The series of z - center, i.e. coefficients [0, 1, 0, ...]."""
    return PowerSeries(mode, [0, 1] + [0] * (order - 1))


def close_to(a, b):
    """Numeric comparison of two series in either mode, exact coefficients
    by value: coefficients of magnitude at least 1e-6 must agree to the
    numeric tolerance relatively, smaller ones absolutely."""
    tol = NUMERIC.tolerance
    for x, y in zip(_values(a), _values(b)):
        scale = max(abs(x), abs(y))
        if abs(x - y) > tol * (scale if scale >= 1e-6 else 1.0):
            return False
    return True


def _values(s):
    return [frac_value(c) for c in s] if s.domain is EXACT else list(s)


def test_constant_identity_shapes():
    s = identity(5)
    assert s.order == 5
    assert s[0].is_zero() and s[1].is_one()
    c = PowerSeries.constant(Frac.of(3), 4)
    assert c[0] == Frac.of(3) and c[2].is_zero()


def test_arithmetic_truncates_to_shorter():
    a = geometric(6)
    b = identity(4)
    assert (a + b).order == 4
    assert (a * b).order == 4


def test_geometric_times_one_minus_z():
    order = 8
    g = geometric(order)
    one_minus = PowerSeries("exact", [Frac.of(1), Frac.of(-1)] + [Frac.of(0)] * (order - 1))
    p = g * one_minus
    assert p[0].is_one()
    assert all(p[k].is_zero() for k in range(1, order + 1))


def test_division_inverts_multiplication():
    rng = random.Random(3)
    order = 7
    coeffs = [Frac.of(Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for _ in range(order + 1)]
    coeffs[0] = Frac.of(2)
    a = PowerSeries("exact", coeffs)
    b = geometric(order)
    assert (a * b) / a == b


def test_division_by_zero_constant_term():
    with pytest.raises((SeriesError, ZeroDivisionError)):
        geometric(4) / identity(4)


def test_derivative_of_powers():
    # d/dz z^k = k z^(k-1), checked through the identity series cubed
    z = identity(6)
    cube = z**3
    d = cube.derivative()
    assert d[2] == Frac.of(3)
    assert all(d[k].is_zero() for k in (0, 1, 3, 4, 5))


def test_exp_series_matches_factorials():
    e = series_exp(identity(10))
    for k in range(11):
        assert e[k] == Frac.of(Fraction(1, math.factorial(k)))


def test_sin_cos_pythagoras():
    z = identity(12)
    s, c = series_sin_cos(z)
    unit = s * s + c * c
    assert unit[0].is_one()
    assert all(unit[k].is_zero() for k in range(1, 13))


def test_compose_exp_of_scaled_identity():
    z = identity(8)
    e = series_exp(z)
    double = z.scale(Frac.of(2))
    composed = e.compose(double)
    for k in range(9):
        assert composed[k] == Frac.of(Fraction(2**k, math.factorial(k)))


def test_compose_requires_zero_constant_term():
    z = identity(5)
    shifted = z + PowerSeries.constant(Frac.of(1), 5)
    with pytest.raises(SeriesError):
        series_exp(z).compose(shifted)


def _schoolbook(a, b):
    n = min(a.order, b.order)
    out = []
    for k in range(n + 1):
        s = a.domain.zero
        for j in range(k + 1):
            s = s + a.coeffs[j] * b.coeffs[k - j]
        out.append(s)
    return out


def _zero_heavy(rng, order, value, zeros):
    shape = rng.choice(["runs", "zero constant", "all zero"])
    if shape == "all zero":
        return [rng.choice(zeros) for _ in range(order + 1)]
    out = []
    while len(out) < order + 1:
        run = rng.randint(1, 4)
        out += [rng.choice(zeros) for _ in range(run)] if rng.random() < 0.5 else [value() for _ in range(run)]
    out = out[: order + 1]
    if shape == "zero constant":
        out[0] = rng.choice(zeros)
    return out


def test_sparse_product_is_the_schoolbook_product():
    rng = random.Random(7101)

    def exact_value():
        return Frac.of(GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-2, 2)))

    def numeric_value():
        # a signed zero in one part now and then
        return complex(*(rng.choice([-0.0, 0.0]) if rng.random() < 0.2 else rng.uniform(-3, 3) for _ in "ri"))

    def signed(cs):
        return [(x.real, math.copysign(1.0, x.real), x.imag, math.copysign(1.0, x.imag)) for x in cs]

    exact = ("exact", exact_value, [Frac.of(0)], list)
    numeric = ("numeric", numeric_value, [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)], signed)
    for trial in range(120):
        na, nb = rng.randint(3, 14), rng.randint(3, 14)
        for mode, value, zeros, key in (exact, numeric):
            a = PowerSeries(mode, _zero_heavy(rng, na, value, zeros))
            # every other right factor is dense, so long sums get formed
            b = [value() for _ in range(nb + 1)] if trial % 2 else _zero_heavy(rng, nb, value, zeros)
            b = PowerSeries(mode, b)
            assert key((a * b).coeffs) == key(_schoolbook(a, b))


def test_exact_product_on_integers_is_the_schoolbook_product():
    rng = random.Random(2101)
    pi = Frac.var("pi")
    e = EXACT.exp(Frac.of(Fraction(1, 4)))

    def gaussian(bound=4, parts="ri"):
        def part(p):
            return Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) if p in parts else 0

        return Frac.of(GaussianRational(part("r"), part("i")))

    kinds = {
        "Q(i), large denominators": lambda: gaussian(10 ** rng.randint(1, 15)),
        "real": lambda: gaussian(parts="r"),
        "imaginary": lambda: gaussian(parts="i"),
        "Z[i][pi]": lambda: gaussian() + pi * gaussian(),
        "Z[i][pi, exp(1/4)]": lambda: gaussian() + pi * gaussian() + e * e * gaussian() + pi * e * gaussian(),
    }
    names = list(kinds)
    for trial in range(300):
        na, nb = (trial % 3, rng.randint(0, 2)) if trial < 24 else (rng.randint(2, 12), rng.randint(2, 12))
        ka, kb = rng.choice(names), rng.choice(names)
        a = PowerSeries("exact", _zero_heavy(rng, na, kinds[ka], [Frac.of(0)]))
        if trial % 2:
            b = PowerSeries("exact", [kinds[kb]() for _ in range(nb + 1)])
        else:
            # a(-z) plus a few perturbed terms: a(z)*a(-z) is even, so whole
            # monomial sums cancel and some come back from the perturbation
            b = [c if k % 2 == 0 else -c for k, c in enumerate(a.coeffs)]
            for k in rng.sample(range(na + 1), min(na + 1, rng.randint(0, 2))):
                b[k] = b[k] + kinds[kb]()
            b = PowerSeries("exact", b)
        got, want = (a * b).coeffs, _schoolbook(a, b)
        assert list(got) == want, (ka, kb)
        assert [frac_str(c) for c in got] == [frac_str(c) for c in want], (ka, kb)


def test_polynomial_denominators_take_the_fraction_loop(monkeypatch):
    pi = Frac.var("pi")
    over_pi = PowerSeries("exact", [pi + 1, pi * GaussianRational(0, 3), Frac.of(2) - pi * pi, Fraction(1, 3)])
    pole = PowerSeries("exact", [1, Frac.of(1) / (Frac.of(2) + pi), pi, 0])
    calls = {"mul": 0}
    mul = Frac.__mul__

    def counted(self, other):
        calls["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(Frac, "__mul__", counted)
    over_pi * over_pi
    assert calls["mul"] == 0
    over_pi * pole
    assert calls["mul"] > 0


# The elementary recurrences against the O(n^2) loops they replaced, which
# formed a_j*j for every j and every k, exact zeros of a included


def _reference_series_exp(a):
    n = a.order
    dom = a.domain
    out = [dom.one]
    for k in range(1, n + 1):
        s = dom.zero
        for j in range(1, k + 1):
            s = s + a.coeffs[j] * j * out[k - j]
        out.append(s * (dom.one / k))
    return out


def _reference_series_sin_cos(a):
    n = a.order
    dom = a.domain
    s = [dom.zero]
    c = [dom.one]
    for k in range(1, n + 1):
        accs = dom.zero
        accc = dom.zero
        for j in range(1, k + 1):
            accs = accs + a.coeffs[j] * j * c[k - j]
            accc = accc + a.coeffs[j] * j * s[k - j]
        factor = dom.one / k
        s.append(accs * factor)
        c.append(-accc * factor)
    return s, c


def _elementary_arguments(rng, value, zero):
    """Zero-constant-term arguments: orders 0 and 1, a*z^m, and dense or
    zero-heavy ones."""
    yield [zero()]
    yield [zero(), value()]
    for _ in range(20):
        n = rng.randint(2, 10)
        m = rng.randint(1, n)
        yield [zero() for _ in range(m)] + [value()] + [zero() for _ in range(n - m)]
        yield [zero()] + [value() for _ in range(n)]
        yield [zero()] + [value() if rng.random() < 0.4 else zero() for _ in range(n)]


def test_elementary_recurrences_are_the_dense_reference():
    rng = random.Random(1901)
    pi = Frac.var("pi")

    def gaussian_rational():
        return Frac.of(GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-2, 2)))

    def over_pi():
        # Z[i][pi]: a Gaussian integer plus a Gaussian integer times pi
        return Frac.of(GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2))) + pi * rng.randint(-2, 2)

    def numeric_value():
        # a signed zero in one part now and then
        return complex(*(rng.choice([-0.0, 0.0]) if rng.random() < 0.2 else rng.uniform(-2, 2) for _ in "ri"))

    def numeric_zero():
        return rng.choice([0j, complex(-0.0, 0.0), complex(0.0, -0.0)])

    def bits(cs):
        # repr shows every bit of a float, the sign of a zero included
        return list(map(repr, cs))

    kinds = (
        ("exact", gaussian_rational, lambda: Frac.of(0), list),
        ("exact", over_pi, lambda: Frac.of(0), list),
        ("numeric", numeric_value, numeric_zero, bits),
    )
    for mode, value, zero, key in kinds:
        checked = 0
        for coeffs in _elementary_arguments(rng, value, zero):
            a = PowerSeries(mode, coeffs)
            assert key(series_exp(a).coeffs) == key(_reference_series_exp(a)), coeffs
            s, c = series_sin_cos(a)
            want_s, want_c = _reference_series_sin_cos(a)
            assert key(s.coeffs) == key(want_s) and key(c.coeffs) == key(want_c), coeffs
            checked += 1
        assert checked == 62


def test_elementary_recurrences_make_linearly_many_products(monkeypatch):
    calls = {"mul": 0}
    mul = Frac.__mul__

    def counted(self, other):
        calls["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(Frac, "__mul__", counted)

    def products(f, n):
        # a*z at order n
        a = PowerSeries("exact", [0, GaussianRational(2, 1)] + [0] * (n - 1))
        calls["mul"] = 0
        f(a)
        return calls["mul"]

    for f in (series_exp, series_sin_cos):
        counts = {n: products(f, n) for n in (10, 20, 40)}
        # count(n) = alpha*n + beta: doubling n doubles the increment
        assert counts[40] - counts[20] == 2 * (counts[20] - counts[10]), (f.__name__, counts)
        assert counts[40] <= 4 * 40 + 1, (f.__name__, counts)


def test_elementary_loops_make_linearly_many_products(monkeypatch):
    # the companion of the test above on an adjoined constant, which keeps
    # the coefficient loop: (2+i+pi)*z
    calls = {"mul": 0}
    mul = Frac.__mul__

    def counted(self, other):
        calls["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(Frac, "__mul__", counted)
    slope = Frac.of(GaussianRational(2, 1)) + Frac.var("pi")

    def products(f, n):
        a = PowerSeries("exact", [0, slope] + [0] * (n - 1))
        calls["mul"] = 0
        f(a)
        return calls["mul"]

    for f in (series_exp, series_sin_cos):
        counts = {n: products(f, n) for n in (10, 20, 40)}
        assert counts[10] > 0, f.__name__
        assert counts[40] - counts[20] == 2 * (counts[20] - counts[10]), (f.__name__, counts)
        assert counts[40] <= 4 * 40 + 1, (f.__name__, counts)


# The coefficient loops of exp, sin/cos and division, copied here: Gaussian
# rational coefficients take integer routes, which must give the same
# values in the same normal form.


def _loop_slopes(a):
    return [(j, a.coeffs[j] * j) for j in range(1, a.order + 1) if not a.coeffs[j].is_zero()]


def _loop_exp(a):
    slopes = _loop_slopes(a)
    out = [EXACT.one]
    for k in range(1, a.order + 1):
        s = EXACT.zero
        for j, ja in slopes:
            if j > k:
                break
            s = s + ja * out[k - j]
        out.append(s * (EXACT.one / k))
    return out


def _loop_sin_cos(a):
    slopes = _loop_slopes(a)
    s = [EXACT.zero]
    c = [EXACT.one]
    for k in range(1, a.order + 1):
        accs = EXACT.zero
        accc = EXACT.zero
        for j, ja in slopes:
            if j > k:
                break
            accs = accs + ja * c[k - j]
            accc = accc + ja * s[k - j]
        factor = EXACT.one / k
        s.append(accs * factor)
        c.append(-accc * factor)
    return s, c


def _loop_quotient(a, b):
    n = min(a.order, b.order)
    inv0 = EXACT.one / b.coeffs[0]
    q = []
    for k in range(n + 1):
        s = a.coeffs[k]
        for j in range(k):
            s = s - q[j] * b.coeffs[k - j]
        q.append(s * inv0)
    return q


def test_gaussian_recurrences_on_integers_are_the_fraction_loops():
    rng = random.Random(2401)

    def gaussian(bound=4, parts="ri"):
        def part(p):
            return Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) if p in parts else 0

        return Frac.of(GaussianRational(part("r"), part("i")))

    kinds = {
        "Q(i), large denominators": lambda: gaussian(10 ** rng.randint(1, 15)),
        "real": lambda: gaussian(parts="r"),
        "imaginary": lambda: gaussian(parts="i"),
    }
    constants = {
        "imaginary": lambda: Frac.of(GaussianRational(0, Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 5)))),
        "mixed": lambda: Frac.of(GaussianRational(Fraction(rng.randint(1, 9), 4), rng.choice([-2, 1, 7]))),
        "real": lambda: Frac.of(Fraction(rng.choice([-7, -1, 1, 3]), rng.randint(1, 10**12))),
    }

    def same(got, want, what):
        assert list(got) == list(want), what
        assert [frac_str(c) for c in got] == [frac_str(c) for c in want], what

    zero = [Frac.of(0)]
    for trial in range(150):
        order = trial % 15
        kind, const = rng.choice(list(kinds)), rng.choice(list(constants))
        coeffs = _zero_heavy(rng, order, kinds[kind], zero)
        a = PowerSeries("exact", zero + coeffs[1:])
        same(series_exp(a).coeffs, _loop_exp(a), ("exp", kind, order))
        s, c = series_sin_cos(a)
        want_s, want_c = _loop_sin_cos(a)
        same(s.coeffs, want_s, ("sin", kind, order))
        same(c.coeffs, want_c, ("cos", kind, order))
        num = PowerSeries("exact", coeffs)
        den = PowerSeries("exact", [constants[const]()] + _zero_heavy(rng, order, kinds[kind], zero)[1:])
        same((num / den).coeffs, _loop_quotient(num, den), ("quotient", kind, const, order))
        # the quotient a/den of a zero-constant-term numerator, and den/den
        same((a / den).coeffs, _loop_quotient(a, den), ("quotient", kind, const, order))
        assert (den / den).coeffs == (EXACT.one,) + (EXACT.zero,) * order


def test_gaussian_rational_recurrences_make_no_fraction_products(monkeypatch):
    pi = Frac.var("pi")
    gaussian = PowerSeries("exact", [0, GaussianRational(Fraction(1, 3), 2), 0, Fraction(-5, 7), GaussianRational(0, 1)])
    den = PowerSeries("exact", [GaussianRational(0, 2), 1, Fraction(1, 2), 0, 3])
    over_pi = PowerSeries("exact", [0, pi, 1, 0, pi * pi - 2])
    pole = PowerSeries("exact", [0, 1, Frac.of(1) / (Frac.of(2) + pi), 0, 1])
    calls = {"mul": 0}
    mul = Frac.__mul__

    def counted(self, other):
        calls["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(Frac, "__mul__", counted)
    routes = {
        "exp": series_exp,
        "sin/cos": series_sin_cos,
        "numerator": lambda a: a / den,
        "denominator": lambda a: den / (den + a),
    }
    for name, route in routes.items():
        for a, loop in ((gaussian, False), (over_pi, True), (pole, True)):
            calls["mul"] = 0
            route(a)
            assert (calls["mul"] > 0) == loop, (name, a)


def test_shifted_series_binomial_shift():
    # (z)^2 about center 3 reads 9 + 6(z-3) + (z-3)^2
    z = Poly.var("z")
    s = shifted_series(Frac(z * z), Frac.of(3), 4)
    assert [s[k] for k in range(3)] == [Frac.of(9), Frac.of(6), Frac.of(1)]
    assert s[3].is_zero() and s[4].is_zero()


def test_shifted_series_geometric():
    z = Poly.var("z")
    f = Frac(Poly.one(), Poly.one() - z)
    s = shifted_series(f, Frac.of(0), 6)
    assert all(s[k].is_one() for k in range(7))


def test_numeric_mode_and_close_to():
    z = identity(10, "numeric")
    e = series_exp(z)
    exact = series_exp(identity(10))
    assert close_to(e, exact)
    assert not close_to(e, exact.scale(Frac.of(Fraction(1001, 1000))))


def test_mode_mixing_rejected():
    with pytest.raises(SeriesError):
        identity(3) + identity(3, "numeric")


def test_max_abs_numeric():
    s = PowerSeries("numeric", [complex(1, 0), complex(0, -4), complex(2, 0)])
    assert s.max_abs() == 4.0
