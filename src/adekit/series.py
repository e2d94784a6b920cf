"""Truncated power series over an exact or a double-precision domain.

A series stores coefficients 0..N for a fixed truncation order N.  Binary
operations truncate to the smaller operand order, so precision loss is
explicit and monotone.  Exact coefficients are :class:`~adekit.scalars.Frac`
values (z-free); numeric coefficients are Python complex.  The module knows
no variable: every expansion of an expression into a series, the rational
coefficients of an equation and the exact constants of the command line
included, is :func:`adekit.expr.expand_series`.  Everything that
differs between the two lives on a :class:`Domain`; every series carries
its domain, and :meth:`Domain.of` is the one place that reads the mode
names "exact" and "numeric".  :attr:`NumericDomain.tolerance` decides
numeric comparisons and ``NUMERIC_DIV_EPS`` a numeric division's
singular constant term; no caller passes a tolerance.

The product is the domain's too.  An exact product whose coefficients
0..N all have denominator 1 (Gaussian rationals and polynomials in the
adjoined constants over them) is a convolution of ints, normalized once per
output coefficient; a factor with a polynomial denominator, such as
1/(2+exp(z)) at 1/4, and every numeric product take the coefficient loop.
The recurrences of :func:`series_exp` and :func:`series_sin_cos` and the
quotient of :meth:`PowerSeries.__truediv__` are the domain's as well: when
every exact coefficient is a Gaussian rational, each new coefficient is
one sum of int products, reduced once.  An adjoined constant (pi*z) or a
polynomial denominator in any coefficient, and every numeric series, take
the coefficient loop.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Sequence

from .scalars import (
    Frac,
    FRAC_ONE,
    FRAC_ZERO,
    GaussianRational,
    PI,
    Poly,
    binary_power,
    cos_of_scalar,
    exp_of_scalar,
    frac_str,
    frac_value,
    mono_mul,
    sin_of_scalar,
)

NUMERIC_DIV_EPS = 1e-12


class SeriesError(ValueError):
    pass


class ModeMismatch(SeriesError):
    pass


# ---------------------------------------------------------------------------
# Coefficient domains


class Domain:
    """A coefficient field: its constants, coercions, zero tests, the
    values of elementary functions at a constant term, how residuals are
    compared, and how a linear system over it is solved.  No method takes
    a tolerance: the exact domain compares exactly and the numeric one
    reads its own."""

    name = ""

    @staticmethod
    def of(mode) -> "Domain":
        """The domain named by a mode string (a domain passes through)."""
        if isinstance(mode, Domain):
            return mode
        try:
            return _DOMAINS[mode]
        except (KeyError, TypeError):
            raise SeriesError(f"unknown series mode {mode!r}") from None

    def coeffs(self, xs) -> tuple:
        return tuple(self.coeff(x) for x in xs)

    def mul(self, a, b, n: int) -> list:
        """Coefficients 0..n of the product of the coefficient sequences a
        and b, summed in ascending index of a."""
        # exact zeros of the left factor add nothing: a numeric sum starts
        # at +0j, which adding a signed zero leaves as it is, so skipping
        # them changes no bit of the result in either domain
        support = [j for j in range(n + 1) if not self.is_zero(a[j])]
        out = []
        for k in range(n + 1):
            s = self.zero
            for j in support:
                if j > k:
                    break
                s = s + a[j] * b[k - j]
            out.append(s)
        return out

    def _exp_series(self, a) -> list:
        """Coefficients of exp of the zero-constant-term coefficients a,
        via e' = a'e (see :func:`series_exp`)."""
        slopes = _slopes(self, a)
        out = [self.one]
        for k in range(1, len(a)):
            s = self.zero
            for j, ja in slopes:
                if j > k:
                    break
                s = s + ja * out[k - j]
            out.append(s * (self.one / k))
        return out

    def _sin_cos_series(self, a) -> tuple:
        """Coefficients of (sin a, cos a) via s' = a'c and c' = -a's (see
        :func:`series_sin_cos`)."""
        slopes = _slopes(self, a)
        s = [self.zero]
        c = [self.one]
        for k in range(1, len(a)):
            accs = self.zero
            accc = self.zero
            for j, ja in slopes:
                if j > k:
                    break
                accs = accs + ja * c[k - j]
                accc = accc + ja * s[k - j]
            factor = self.one / k
            s.append(accs * factor)
            c.append(-accc * factor)
        return s, c

    def _quotient(self, a, b, n: int) -> list:
        """Coefficients 0..n of a/b for a nonsingular b_0."""
        inv0 = self.one / b[0]
        q = []
        for k in range(n + 1):
            s = a[k]
            for j in range(k):
                s = s - q[j] * b[k - j]
            q.append(s * inv0)
        return q


class ExactDomain(Domain):
    """Gaussian rationals with adjoined constants, as z-free fractions."""

    name = "exact"
    zero = FRAC_ZERO
    one = FRAC_ONE
    pi = PI
    singular = "series with zero constant term"
    center = staticmethod(Frac.of)
    literal = staticmethod(Frac.of)
    exp = staticmethod(exp_of_scalar)
    sin = staticmethod(sin_of_scalar)
    cos = staticmethod(cos_of_scalar)
    text = staticmethod(frac_str)

    def coeff(self, x):
        if isinstance(x, Frac):
            return x
        if isinstance(x, (int, Fraction, GaussianRational, Poly)):
            return Frac.of(x)
        raise ModeMismatch(f"exact series cannot hold {type(x).__name__} coefficients")

    def scalar(self, f: Frac):
        """The value of an exact scalar in this domain."""
        return f

    def is_zero(self, c) -> bool:
        return c.is_zero()

    def is_singular(self, c) -> bool:
        """Division and poles: exactly zero is the only singular value, and
        a nonzero constant that vanishes numerically is an error."""
        if c.is_zero():
            return True
        self._require_nonzero_value(c)
        return False

    def _require_nonzero_value(self, c: Frac):
        """Raise when a constant, nonzero in the free ring of adjoined
        constants, is zero by its value: the ring treats constants such as
        exp(1/8)^2 and exp(1/4) as independent.  A numerator of one term, a
        Gaussian rational included, cannot vanish, and a term past the
        float range leaves the value unable to judge."""
        if len(c.num.terms) < 2:
            return
        try:
            values = [frac_value(Frac(Poly({m: g}))) for m, g in c.num.terms.items()]
        except OverflowError:
            return
        if not all(map(cmath.isfinite, values)):
            return
        if abs(sum(values)) <= NUMERIC.tolerance * sum(map(abs, values)):
            raise SeriesError(
                f"exact constant {frac_str(c)} is zero by value; "
                "exact mode treats its adjoined constants as independent"
            )

    def mul(self, a, b, n: int) -> list:
        """The product on integers when no coefficient 0..n of either factor
        has a polynomial denominator: each factor becomes Gaussian-integer
        polynomials over one integer denominator, the convolution adds int
        pairs per monomial, and each output coefficient is normalized once,
        by one Fraction per part of each term.  Sums and products of
        fractions over 1 stay over 1, so this is the loop's value and
        normal form; any other pair of factors takes the loop."""
        a, b = a[: n + 1], b[: n + 1]
        if not all(c.den.is_one() for c in a + b):
            return super().mul(a, b, n)
        da, ta = _gaussian_integer_terms(a)
        db, tb = _gaussian_integer_terms(b)
        d = da * db
        support = [(j, t) for j, t in enumerate(ta) if t]
        out = []
        for k in range(n + 1):
            acc: dict = {}
            for j, terms in support:
                if j > k:
                    break
                right = tb[k - j]
                for ma, ra, ia in terms:
                    for mb, rb, ib in right:
                        m = mono_mul(ma, mb)
                        re = ra * rb - ia * ib
                        im = ra * ib + ia * rb
                        s = acc.get(m)
                        if s is not None:
                            re += s[0]
                            im += s[1]
                            if not (re or im):
                                # a cancelled monomial leaves, as in Poly.__add__
                                del acc[m]
                                continue
                        acc[m] = (re, im)
            poly = {m: GaussianRational._raw(Fraction(re, d), Fraction(im, d)) for m, (re, im) in acc.items()}
            out.append(Frac(Poly._raw(poly), _normalized=True) if poly else FRAC_ZERO)
        return out

    # The recurrences on integers when every coefficient is a Gaussian
    # rational: each coefficient is an int triple (re, im, den), each new one
    # is one _gaussian_step, and the loop's normal form is built at the end.

    def _exp_series(self, a) -> list:
        t = _gaussian_triples(a)
        if t is None:
            return super()._exp_series(a)
        d, slopes = _over_one_denominator(t)
        slopes = [(j, j * re, j * im) for j, re, im in slopes]
        out = [(1, 0, 1)]
        for k in range(1, len(a)):
            out.append(_gaussian_step(slopes, out, k, (1, 0, d * k)))
        return list(map(_frac_of_triple, out))

    def _sin_cos_series(self, a) -> tuple:
        t = _gaussian_triples(a)
        if t is None:
            return super()._sin_cos_series(a)
        d, slopes = _over_one_denominator(t)
        slopes = [(j, j * re, j * im) for j, re, im in slopes]
        s, c = [(0, 0, 1)], [(1, 0, 1)]
        for k in range(1, len(a)):
            s.append(_gaussian_step(slopes, c, k, (1, 0, d * k)))
            c.append(_gaussian_step(slopes, s, k, (-1, 0, d * k)))
        return list(map(_frac_of_triple, s)), list(map(_frac_of_triple, c))

    def _quotient(self, a, b, n: int) -> list:
        ta, tb = _gaussian_triples(a[: n + 1]), _gaussian_triples(b[: n + 1])
        if ta is None or tb is None:
            return super()._quotient(a, b, n)
        d, slopes = _over_one_denominator(tb)
        slopes = [(j, -re, -im) for j, re, im in slopes]
        # q_k = (a_k - sum_j b_j q_(k-j)) / b_0, the sum over d, and
        # 1/(d*b_0) = bd*(br - i*bi) / (d*(br^2 + bi^2))
        br, bi, bd = tb[0]
        inv0 = (br * bd, -bi * bd, d * (br * br + bi * bi))
        q = []
        for k, (re, im, den) in enumerate(ta):
            q.append(_gaussian_step(slopes, q, k, inv0, first=(d * re, d * im, den)))
        return list(map(_frac_of_triple, q))

    def max_abs(self, coeffs):
        raise SeriesError("max_abs is a numeric-mode helper")

    def vanishes(self, residual: "PowerSeries", terms) -> bool:
        return residual.is_zero()

    def first_mismatch(self, a: "PowerSeries", b: "PowerSeries"):
        """Index of the first coefficient where a and b differ, or None."""
        n = min(a.order, b.order)
        k = next((k for k in range(n + 1) if a.coeffs[k] != b.coeffs[k]), None)
        if k is not None:
            self._require_nonzero_value(a.coeffs[k] - b.coeffs[k])
        return k

    def nullspace(self, rows):
        from .discovery import exact_nullspace

        return exact_nullspace(rows)


class NumericDomain(Domain):
    """Complex floats; comparisons hold to a relative tolerance."""

    name = "numeric"
    tolerance = 1e-9
    zero = 0j
    one = 1 + 0j
    pi = complex(math.pi)
    singular = "numerically singular constant term"
    center = staticmethod(complex)
    literal = staticmethod(GaussianRational.to_complex)
    exp = staticmethod(cmath.exp)
    sin = staticmethod(cmath.sin)
    cos = staticmethod(cmath.cos)
    text = staticmethod(repr)
    scalar = staticmethod(frac_value)

    def coeff(self, x):
        if isinstance(x, complex):
            return x
        if isinstance(x, (int, float)):
            return complex(x)
        if isinstance(x, Frac):
            raise ModeMismatch("numeric series cannot hold exact coefficients")
        raise ModeMismatch(f"numeric series cannot hold {type(x).__name__} coefficients")

    def coeffs(self, xs) -> tuple:
        cs = super().coeffs(xs)
        if not all(map(cmath.isfinite, cs)):
            raise SeriesError("numeric series coefficient is not finite")
        return cs

    def is_zero(self, c) -> bool:
        return c == 0

    def is_singular(self, c) -> bool:
        return abs(c) <= NUMERIC_DIV_EPS

    def max_abs(self, coeffs) -> float:
        return max(abs(c) for c in coeffs)

    def vanishes(self, residual: "PowerSeries", terms) -> bool:
        """Zero within the tolerance relative to the largest of the summed
        terms."""
        scale = max([1.0] + [t.max_abs() for t in terms])
        return residual.max_abs() <= self.tolerance * scale

    def first_mismatch(self, a: "PowerSeries", b: "PowerSeries"):
        bound = self.tolerance * max(1.0, a.max_abs(), b.max_abs())
        n = min(a.order, b.order)
        return next((k for k in range(n + 1) if abs(a.coeffs[k] - b.coeffs[k]) > bound), None)

    def nullspace(self, rows):
        """Kernel vectors snapped back to small exact rationals."""
        from .discovery import numeric_nullspace, snap_scalar

        basis, rank = numeric_nullspace(rows)
        return [[snap_scalar(x) for x in vec] for vec in basis], rank


def _gaussian_integer_terms(coeffs):
    """A common integer denominator of polynomials over Gaussian rationals
    (the numerators of the fractions coeffs), and each numerator's terms
    times it as (monomial, re, im) with int parts."""
    d = math.lcm(*(x.denominator for c in coeffs for g in c.num.terms.values() for x in (g.re, g.im)))

    def scaled(x: Fraction) -> int:
        return x.numerator * (d // x.denominator)

    return d, [[(m, scaled(g.re), scaled(g.im)) for m, g in c.num.terms.items()] for c in coeffs]


def _gaussian_triples(coeffs):
    """Each Gaussian-rational coefficient as ints (re, im, den), den > 0,
    or None when one holds an adjoined constant or has a polynomial
    denominator."""
    out = []
    for c in coeffs:
        terms = c.num.terms
        # the monomial () is the only falsy one
        if any(terms) or not c.den.is_one():
            return None
        if not terms:
            out.append((0, 0, 1))
            continue
        g = terms[()]
        re, im = g.re, g.im
        d = math.lcm(re.denominator, im.denominator)
        out.append((re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d))
    return out


def _over_one_denominator(triples):
    """A common denominator d of the triples 1.., and the nonzero ones
    times d as (j, re, im), ascending in j."""
    d = math.lcm(*(t[2] for t in triples[1:]))
    return d, [(j, re * (d // den), im * (d // den)) for j, (re, im, den) in enumerate(triples) if j and (re or im)]


def _gaussian_step(slopes, seq, k, scale, first=None):
    """first + the sum of (sr + si*i) * seq[k-j] over the slopes (j, sr, si)
    with j <= k, times (mr + mi*i)/md for the scale (mr, mi, md), as a
    reduced triple: the terms go over the lcm of their denominators, the
    int products are added, and the result is reduced once, by
    gcd(re, im, den)."""
    terms = [(sr, si, seq[k - j]) for j, sr, si in slopes if j <= k]
    if first is not None:
        terms.append((1, 0, first))
    d = math.lcm(*(t[2][2] for t in terms))
    re = im = 0
    for sr, si, (qr, qi, qd) in terms:
        m = d // qd
        re += (sr * qr - si * qi) * m
        im += (sr * qi + si * qr) * m
    mr, mi, md = scale
    re, im, d = re * mr - im * mi, re * mi + im * mr, d * md
    g = math.gcd(re, im, d)
    return (re // g, im // g, d // g)


def _frac_of_triple(t) -> Frac:
    """The normalized fraction (re + im*i)/den of a triple."""
    re, im, d = t
    if not (re or im):
        return FRAC_ZERO
    return Frac(Poly._raw({(): GaussianRational._raw(Fraction(re, d), Fraction(im, d))}), _normalized=True)


EXACT = ExactDomain()
NUMERIC = NumericDomain()
_DOMAINS = {EXACT.name: EXACT, NUMERIC.name: NUMERIC}


class PowerSeries:
    """Coefficients c[0..order] of a truncated Taylor expansion."""

    __slots__ = ("domain", "coeffs")

    def __init__(self, mode, coeffs: Sequence):
        dom = Domain.of(mode)
        if not coeffs:
            raise SeriesError("a series needs at least the order-0 coefficient")
        self.domain = dom
        self.coeffs = dom.coeffs(coeffs)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value, order: int, mode="exact") -> "PowerSeries":
        dom = Domain.of(mode)
        return PowerSeries(dom, [dom.coeff(value)] + [dom.zero] * order)

    @staticmethod
    def zero(order: int, mode="exact") -> "PowerSeries":
        return PowerSeries.constant(Domain.of(mode).zero, order, mode)

    # -- basics -------------------------------------------------------------

    @property
    def mode(self) -> str:
        return self.domain.name

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int):
        return self.coeffs[k]

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.domain is other.domain and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.mode, self.coeffs))

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"PowerSeries({self.mode}, [{head}{tail}], order={self.order})"

    def is_zero(self) -> bool:
        return all(map(self.domain.is_zero, self.coeffs))

    def max_abs(self) -> float:
        return self.domain.max_abs(self.coeffs)

    def truncate(self, order: int) -> "PowerSeries":
        if order >= self.order:
            return self
        return PowerSeries(self.domain, self.coeffs[: order + 1])

    def _check(self, other: "PowerSeries"):
        if not isinstance(other, PowerSeries):
            raise TypeError("expected a PowerSeries")
        if self.domain is not other.domain:
            raise ModeMismatch("cannot mix exact and numeric series")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        self._check(other)
        n = min(self.order, other.order)
        return PowerSeries(self.domain, [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])

    def __sub__(self, other):
        self._check(other)
        n = min(self.order, other.order)
        return PowerSeries(self.domain, [self.coeffs[k] - other.coeffs[k] for k in range(n + 1)])

    def __neg__(self):
        return PowerSeries(self.domain, [-c for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        n = min(self.order, other.order)
        return PowerSeries(self.domain, self.domain.mul(self.coeffs, other.coeffs, n))

    def scale(self, c) -> "PowerSeries":
        c = self.domain.coeff(c)
        return PowerSeries(self.domain, [x * c for x in self.coeffs])

    def __truediv__(self, other):
        self._check(other)
        dom = self.domain
        n = min(self.order, other.order)
        if dom.is_singular(other.coeffs[0]):
            raise ZeroDivisionError(f"series division by a {dom.singular}")
        return PowerSeries(dom, dom._quotient(self.coeffs, other.coeffs, n))

    def __pow__(self, n: int):
        if n < 0:
            raise SeriesError("negative series power; divide explicitly instead")
        if n == 0:
            return PowerSeries.constant(self.domain.one, self.order, self.domain)
        return binary_power(self, n)

    # -- calculus -----------------------------------------------------------

    def derivative(self) -> "PowerSeries":
        if self.order == 0:
            raise SeriesError("cannot differentiate an order-0 series")
        return PowerSeries(self.domain, [self.coeffs[k] * k for k in range(1, self.order + 1)])

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """Taylor coefficients of self(inner) by Horner's rule; inner must
        kill its constant term.  No evaluator composes this way: a
        composition expands its outer on the inner series.  This is the
        reference the series tests compare that route with, and a layer
        the benchmark tracer counts."""
        self._check(inner)
        if not self.domain.is_zero(inner.coeffs[0]):
            raise SeriesError("composition needs an inner series with zero constant term")
        n = min(self.order, inner.order)
        outer = self.truncate(n)
        inner = inner.truncate(n)
        acc = PowerSeries.constant(outer.coeffs[n], n, self.domain)
        for k in range(n - 1, -1, -1):
            acc = acc * inner + PowerSeries.constant(outer.coeffs[k], n, self.domain)
        return acc


# ---------------------------------------------------------------------------
# Elementary series of a zero-constant-term argument


def series_exp(a: PowerSeries) -> PowerSeries:
    """exp of a series with zero constant term, via e' = a'e.  Exact zeros
    of a are skipped, as ``PowerSeries.__mul__`` skips them.  That changes
    no bit of the result, with one numeric edge: a 0*inf term, which would
    make the sum nan, is skipped with them (the inf still makes the result
    fail the numeric domain's finiteness check)."""
    _require_zero_const(a, "exp")
    return PowerSeries(a.domain, a.domain._exp_series(a.coeffs))


def series_sin_cos(a: PowerSeries) -> tuple:
    """(sin a, cos a) for zero-constant-term a, via the coupled recurrences
    s' = a'c and c' = -a's.  Exact zeros of a are skipped as in
    :func:`series_exp`, with the same 0*inf edge."""
    _require_zero_const(a, "sin/cos")
    s, c = a.domain._sin_cos_series(a.coeffs)
    return PowerSeries(a.domain, s), PowerSeries(a.domain, c)


def _slopes(dom: Domain, a) -> list:
    """The pairs (j, j*a_j) of a' for the nonzero a_j, ascending in j:
    each product once, associated as the recurrences always formed it."""
    return [(j, a[j] * j) for j in range(1, len(a)) if not dom.is_zero(a[j])]


def _require_zero_const(a: PowerSeries, what: str):
    if not a.domain.is_zero(a.coeffs[0]):
        raise SeriesError(f"{what} of a series needs a zero constant term; split the constant first")
