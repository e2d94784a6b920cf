"""Exact scalar arithmetic for the whole toolkit.

Three layers live here:

* :class:`GaussianRational` -- exact complex numbers a + b*i with rational
  a, b.
* :class:`Poly` -- sparse multivariate polynomials over Gaussian rationals.
  Variables are names: the distinguished series variable ``z`` plus any
  constant symbols adjoined at runtime (``pi``, ``exp(1)``, ...).
* :class:`Frac` -- the fraction field of :class:`Poly`, kept in a canonical
  form (reduced via polynomial gcd, monic denominator in graded-lex order)
  so that equality of values is equality of representations.

Adjoined constant symbols are treated as algebraically independent.  The
only algebraic simplification applied to them is the quarter-period rule
for ``exp``: an additive exponent term q*pi*i with 2q an integer is turned
into the exact unit 1, i, -1 or -i.  Every other irrational value of
exp/sin/cos at a constant is adjoined as a fresh symbol keyed by the
canonical printed form of its argument, so structurally equal arguments
produce the identical symbol.
"""

from __future__ import annotations

import cmath
import math
import threading
from fractions import Fraction
from typing import Callable


class ScalarError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Gaussian rationals


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


_FR_ZERO = Fraction(0)


def binary_power(x, n: int):
    """x**n for n >= 1 by left-to-right binary powering: n = 2 and n = 3
    form x*x and (x*x)*x, as repeated multiplication would."""
    out = x
    for bit in bin(n)[3:]:
        out = out * out
        if bit == "1":
            out = out * x
    return out


class GaussianRational:
    """a + b*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    @classmethod
    def _raw(cls, re, im):
        # parts already Fractions; skip coercion in arithmetic hot paths
        out = object.__new__(cls)
        out.re = re
        out.im = im
        return out

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError(f"cannot coerce {x!r} to GaussianRational")

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        # the concrete type first: isinstance against Fraction is an ABC check
        if not isinstance(other, GaussianRational):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        if not self.im and not other.im:
            return GaussianRational._raw(self.re + other.re, _FR_ZERO)
        return GaussianRational._raw(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.coerce(other)
        if not self.im and not other.im:
            return GaussianRational._raw(self.re - other.re, _FR_ZERO)
        return GaussianRational._raw(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __neg__(self):
        return GaussianRational._raw(-self.re, -self.im)

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        if not self.im and not other.im:
            return GaussianRational._raw(self.re * other.re, _FR_ZERO)
        return GaussianRational._raw(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return binary_power(self, n) if n else GR_ONE

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __str__(self):
        return gauss_str(self)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def gauss_str(c: GaussianRational) -> str:
    """Canonical compact text, re-readable by the expression grammar."""
    if not c:
        return "0"
    try:
        re_txt, im_txt = str(c.re), str(c.im)
    except ValueError:
        # Python's limit on the digits of an integer turned into text
        raise ScalarError("number has too many digits to print") from None
    parts = []
    if c.re:
        parts.append(re_txt)
    if c.im:
        if c.im == 1:
            imtxt = "i"
        elif c.im == -1:
            imtxt = "-i"
        else:
            imtxt = f"{im_txt}*i"
        if parts and not imtxt.startswith("-"):
            parts.append("+" + imtxt)
        else:
            parts.append(imtxt)
    return "".join(parts)


def _gauss_is_simple(c: GaussianRational) -> bool:
    # single-token-ish text: pure real or pure imaginary
    return not (c.re and c.im)


# ---------------------------------------------------------------------------
# Monomials: sorted tuples of (variable name, positive exponent)

Mono = tuple  # tuple[tuple[str, int], ...]

_Z = "z"


def _rank(name: str):
    # z is the earliest variable; constants follow alphabetically.
    return (0, "") if name == _Z else (1, name)


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items(), key=lambda t: _rank(t[0])))


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def _mono_key(m: Mono):
    """Graded lexicographic order, leading monomial first: higher total
    degree first, ties broken by the earliest variable with differing
    exponent (larger exponent first)."""
    return (-mono_degree(m), [(_rank(v), -e) for v, e in m])


def mono_str(m: Mono) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)


# ---------------------------------------------------------------------------
# Sparse polynomials


class Poly:
    """Sparse multivariate polynomial over Gaussian rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}
        for m in self.terms:
            # arithmetic and division assume each variable once, in _rank order
            if len(m) > 1 and not all(_rank(a) < _rank(b) for (a, _), (b, _) in zip(m, m[1:])):
                raise ScalarError(f"monomial {mono_str(m)} is not in canonical variable order")

    @classmethod
    def _raw(cls, terms: dict) -> "Poly":
        # terms already canonical with nonzero coefficients: the arithmetic
        # builds its results without the checks of __init__
        out = object.__new__(cls)
        out.terms = terms
        return out

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(c) -> "Poly":
        c = GaussianRational.coerce(c)
        return Poly({(): c}) if c else Poly()

    @staticmethod
    def one() -> "Poly":
        # shared: no operation writes to an operand's terms
        return _POLY_ONE

    @staticmethod
    def var(name: str) -> "Poly":
        return Poly({((name, 1),): GR_ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(m == () for m in self.terms)

    def is_one(self) -> bool:
        if self is _POLY_ONE:
            return True
        t = self.terms
        return len(t) == 1 and t.get(()) == GR_ONE

    def const_value(self) -> GaussianRational:
        if not self.is_const():
            raise ScalarError("polynomial is not constant")
        return self.terms.get((), GR_ZERO)

    def variables(self) -> set:
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def degree_in(self, var: str) -> int:
        d = 0
        for m in self.terms:
            for v, e in m:
                if v == var:
                    d = max(d, e)
        return d

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        d = dict(self.terms)
        for m, c in other.terms.items():
            s = d.get(m, GR_ZERO) + c
            if s:
                d[m] = s
            else:
                d.pop(m, None)
        return Poly._raw(d)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly._raw({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        d: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                c = ca * cb
                s = d.get(m)
                s = c if s is None else s + c
                if s:
                    d[m] = s
                else:
                    d.pop(m, None)
        return Poly._raw(d)

    def scale(self, c) -> "Poly":
        c = GaussianRational.coerce(c)
        if not c:
            return Poly()
        return Poly._raw({m: k * c for m, k in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ScalarError("negative polynomial power")
        return binary_power(self, n) if n else Poly.one()

    def leading(self) -> tuple:
        """(monomial, coefficient) maximal in graded-lex order."""
        if self.is_zero():
            raise ScalarError("zero polynomial has no leading term")
        best = min(self.terms, key=_mono_key)
        return best, self.terms[best]

    def evaluate(self, value_of: Callable[[str], complex]):
        total = 0
        for m, c in self.terms.items():
            v = c.to_complex()
            for name, e in m:
                v *= value_of(name) ** e
            total += v
        return total

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"Poly({poly_str(self)})"


_POLY_ONE = Poly({(): GR_ONE})


def _sorted_terms(p: Poly):
    return sorted(p.terms.items(), key=lambda t: _mono_key(t[0]))


def poly_str(p: Poly) -> str:
    if p.is_zero():
        return "0"
    chunks = []
    for m, c in _sorted_terms(p):
        if m == ():
            body = gauss_str(c)
        elif c == GR_ONE:
            body = mono_str(m)
        elif c == -GR_ONE:
            body = "-" + mono_str(m)
        elif _gauss_is_simple(c):
            body = f"{gauss_str(c)}*{mono_str(m)}"
        else:
            body = f"({gauss_str(c)})*{mono_str(m)}"
        if not chunks:
            chunks.append(body)
        elif body.startswith("-"):
            chunks.append("-" + body[1:])
        else:
            chunks.append("+" + body)
    return "".join(chunks)


# ---------------------------------------------------------------------------
# Exact division, pseudo-division, gcd


def poly_exact_div(a: Poly, b: Poly) -> Poly:
    """Divide a by b, raising ScalarError when the division is not exact."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if b.is_one():
        return a
    if b.is_const():
        return a.scale(b.const_value().inverse())
    q: dict = {}
    rem = a
    mb, cb = b.leading()
    cb_inv = cb.inverse()
    ib = dict(mb)
    while not rem.is_zero():
        mr, cr = rem.leading()
        ir = dict(mr)
        # leading-term divisibility
        qm = {}
        ok = True
        for v, e in ib.items():
            d = ir.get(v, 0) - e
            if d < 0:
                ok = False
                break
            if d:
                qm[v] = d
        if not ok:
            raise ScalarError("inexact polynomial division")
        for v, e in ir.items():
            if v not in ib:
                qm[v] = e
        qmono = tuple(sorted(qm.items(), key=lambda t: _rank(t[0])))
        qc = cr * cb_inv
        q[qmono] = q.get(qmono, GR_ZERO) + qc
        rem = rem - Poly._raw({qmono: qc}) * b
    return Poly._raw({m: c for m, c in q.items() if c})


def _univ(p: Poly, var: str) -> dict:
    """View p as univariate in var: {exponent: Poly-without-var}."""
    out: dict = {}
    for m, c in p.terms.items():
        e = 0
        rest = []
        for v, k in m:
            if v == var:
                e = k
            else:
                rest.append((v, k))
        rest_m = tuple(rest)
        slot = out.setdefault(e, {})
        slot[rest_m] = slot.get(rest_m, GR_ZERO) + c
    polys = ((e, Poly(d)) for e, d in out.items())
    return {e: p for e, p in polys if p}


def _prem(a: Poly, b: Poly, var: str) -> Poly:
    """Pseudo-remainder of a by b with respect to var."""
    db = b.degree_in(var)
    ub = _univ(b, var)
    lb = ub[db]
    r = a
    while not r.is_zero():
        dr = r.degree_in(var)
        if dr < db:
            break
        ur = _univ(r, var)
        lr = ur[dr]
        shift = Poly.var(var) ** (dr - db)
        r = r * lb - b * lr * shift
    return r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd in graded-lex order; gcd(0, 0) = 0."""
    if a.is_zero():
        return _monic(b)
    if b.is_zero():
        return _monic(a)
    if a.is_const() or b.is_const():
        return Poly.one()
    heavier = sorted(a.variables() | b.variables(), key=_rank)
    var = heavier[0]
    ca = _content(list(_univ(a, var).values()))
    cb = _content(list(_univ(b, var).values()))
    cont = poly_gcd(ca, cb)
    pa, pb = poly_exact_div(a, ca), poly_exact_div(b, cb)
    if pa.degree_in(var) < pb.degree_in(var):
        pa, pb = pb, pa
    while not pb.is_zero():
        r = _prem(pa, pb, var)
        pa, pb = pb, _primitive_in(r, var)
    if pa.degree_in(var) == 0:
        pa = Poly.one()
    return _monic(cont * pa)


def _content(polys: list) -> Poly:
    g = Poly.zero()
    for p in polys:
        g = poly_gcd(g, p)
        if g.is_one():
            break
    return g if not g.is_zero() else Poly.one()


def _primitive_in(p: Poly, var: str) -> Poly:
    """p divided by its content in var, made monic: the scalars of a
    remainder sequence then stay small."""
    if p.is_zero():
        return p
    c = _content(list(_univ(p, var).values()))
    return _monic(poly_exact_div(p, c))


def _monic(p: Poly) -> Poly:
    if p.is_zero():
        return p
    _, c = p.leading()
    return p.scale(c.inverse())


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly.zero()
    return _monic(poly_exact_div(a * b, poly_gcd(a, b)))


# ---------------------------------------------------------------------------
# Fraction field


def _times(a: Poly, b: Poly) -> Poly:
    """a*b without the product when a factor is 1, as most denominators are."""
    if a.is_one():
        return b
    if b.is_one():
        return a
    return a * b


class Frac:
    """Normalized fraction of polynomials.

    Invariant: gcd(num, den) = 1 and den is monic in graded-lex order, so
    equal values have identical (num, den) pairs.  Doubles as the exact
    scalar domain (no ``z``) and as rational coefficients in ``z``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None, _normalized=False):
        if den is None:
            den = _POLY_ONE
        if _normalized or den.is_one():
            # gcd(num, 1) = 1 and 1 is monic: already the normal form
            self.num, self.den = num, den
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = Poly.zero(), Poly.one()
            return
        if den.is_const():
            self.num = num.scale(den.const_value().inverse())
            self.den = Poly.one()
            return
        g = poly_gcd(num, den)
        if not g.is_one():
            num = poly_exact_div(num, g)
            den = poly_exact_div(den, g)
        if den.is_const():
            self.num = num.scale(den.const_value().inverse())
            self.den = Poly.one()
        else:
            _, lc = den.leading()
            inv = lc.inverse()
            self.num = num.scale(inv)
            self.den = den.scale(inv)

    @staticmethod
    def of(x) -> "Frac":
        if isinstance(x, Frac):
            return x
        if isinstance(x, Poly):
            return Frac(x)
        if isinstance(x, (int, Fraction, GaussianRational)):
            return Frac(Poly.const(GaussianRational.coerce(x)))
        raise TypeError(f"cannot coerce {x!r} to Frac")

    @staticmethod
    def var(name: str) -> "Frac":
        return Frac(Poly.var(name))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def variables(self) -> set:
        return self.num.variables() | self.den.variables()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, Poly)):
            other = Frac.of(other)
        if not isinstance(other, Frac):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = Frac.of(other)
        if self.den == other.den:
            return Frac(self.num + other.num, self.den)
        return Frac(
            _times(self.num, other.den) + _times(other.num, self.den),
            _times(self.den, other.den),
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Frac.of(other))

    def __rsub__(self, other):
        return Frac.of(other) - self

    def __neg__(self):
        return Frac(-self.num, self.den, _normalized=True)

    def __mul__(self, other):
        other = Frac.of(other)
        return Frac(self.num * other.num, _times(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Frac.of(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero fraction")
        return Frac(_times(self.num, other.den), _times(self.den, other.num))

    def __rtruediv__(self, other):
        return Frac.of(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return (Frac.of(1) / self) ** (-n)
        return binary_power(self, n) if n else FRAC_ONE

    def __str__(self):
        return frac_str(self)

    def __repr__(self):
        return f"Frac({frac_str(self)})"


FRAC_ZERO = Frac(Poly.zero())
FRAC_ONE = Frac(Poly.one())


def clear_denominators(fracs) -> list:
    """The fractions times the lcm of their denominators, and then times the
    lcm of the rational denominators inside the coefficients: polynomials
    with Gaussian-integer coefficients, so that products of them multiply
    integers rather than fractions."""
    fracs = list(fracs)
    lcm = Poly.one()
    for x in fracs:
        # the running lcm is monic, so a unit denominator leaves it as it is
        if not x.den.is_one():
            lcm = poly_lcm(lcm, x.den)
    # each denominator divides the lcm and shares no factor with its
    # numerator, so this is the numerator of x * lcm with no gcd to take
    out = [_times(x.num, lcm if x.den.is_one() else poly_exact_div(lcm, x.den)) for x in fracs]
    denoms = 1
    for q in out:
        for g in q.terms.values():
            denoms = math.lcm(denoms, g.re.denominator, g.im.denominator)
    if denoms != 1:
        grow = GaussianRational(denoms)
        out = [q.scale(grow) for q in out]
    return out


def unit_lead_numerators(fracs, lead: int) -> list:
    """The normal form of a list of fractions up to a common factor: cleared
    numerators with their polynomial content divided out, scaled so that
    the entry at position lead, which must be nonzero, has leading scalar
    +1; zero entries stay zero."""
    nums = clear_denominators(fracs)
    content = _content(nums)
    if not content.is_one():
        nums = [poly_exact_div(q, content) for q in nums]
    inv = nums[lead].leading()[1].inverse()
    return [q.scale(inv) for q in nums]


def has_toplevel(txt: str, ops: str) -> bool:
    """Whether an operator of ops occurs outside parentheses after the
    first character, which may be a sign."""
    depth = 0
    for k, ch in enumerate(txt):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and k > 0 and ch in ops:
            return True
    return False


def frac_str(f: Frac) -> str:
    n = poly_str(f.num)
    if f.den.is_one():
        return n
    d = poly_str(f.den)
    # numerator: sums must bind before the division; single-term products
    # are safe under left association
    if has_toplevel(n, "+-"):
        n = f"({n})"
    # denominator: anything beyond a single power must be grouped
    if has_toplevel(d, "+-*/") or d.startswith("-"):
        d = f"({d})"
    return f"{n}/{d}"


# ---------------------------------------------------------------------------
# Adjoined constants


# adjoined constant name -> its complex value; the name is the canonical
# printed form of the defining expression (for example ``exp(1)``) and
# doubles as the polynomial variable name, so two structurally equal
# adjunctions share a symbol
_REGISTRY: dict = {}
_REGISTRY_LOCK = threading.Lock()


def adjoin_constant(key: str, value: complex) -> Frac:
    if key == _Z:
        raise ScalarError("'z' is reserved for the series variable")
    with _REGISTRY_LOCK:
        if key not in _REGISTRY:
            _REGISTRY[key] = complex(value)
    return Frac.var(key)


def constant_value(name: str) -> complex:
    with _REGISTRY_LOCK:
        value = _REGISTRY.get(name)
    if value is None:
        raise ScalarError(f"unknown constant symbol {name!r}")
    return value


adjoin_constant("pi", math.pi)

PI = Frac.var("pi")


def frac_value(f: Frac) -> complex:
    """Numeric value of a fraction of adjoined constants; a fraction in z
    raises ScalarError."""
    return f.num.evaluate(constant_value) / f.den.evaluate(constant_value)


# F_p for p = 2^62 - 87, a prime = 1 (mod 4): -1 has the square root _MOD_I
MOD_P = 4611686018427387817
_MOD_I = 120863620846201794


def _residue(name: str) -> int:
    """The fixed image of a variable in F_p, from the bytes of its name:
    a constant is free, so any residue gives a ring homomorphism, and
    one that does not depend on the hash seed keeps reruns identical."""
    h = 1
    for b in name.encode():
        h = (h * 1099511628211 + b) % MOD_P
    return h


def _inverse_mod_p(d: int) -> int:
    if not d % MOD_P:
        raise ZeroDivisionError("denominator vanishes mod p")
    return pow(d, -1, MOD_P)


def _poly_residue(q: Poly, powers: dict, unit: int) -> int:
    # i maps to unit; the terms summed as one fraction num/den, so that one
    # inverse serves the polynomial; p is prime, so den maps to 0 exactly
    # when a term's denominator does
    num, den = 0, 1
    for mono, c in q.terms.items():
        d = c.re.denominator * c.im.denominator
        t = c.re.numerator * c.im.denominator + c.im.numerator * c.re.denominator * unit
        for var in mono:
            if var not in powers:
                name, e = var
                powers[var] = pow(_residue(name), e, MOD_P)
            t = t * powers[var] % MOD_P
        num = (num * d + t * den) % MOD_P
        den = den * d % MOD_P
    return num * _inverse_mod_p(den) % MOD_P


def _images(fracs, unit: int) -> list:
    powers = {}
    out = []
    for x in fracs:
        r = _poly_residue(x.num, powers, unit)
        if not x.den.is_one():
            r = r * _inverse_mod_p(_poly_residue(x.den, powers, unit)) % MOD_P
        out.append(r)
    return out


def residues(fracs) -> list:
    """Each fraction's image num * den^-1 in F_p, with i at a root of -1
    and each adjoined constant at the residue of its name; a denominator,
    or a coefficient's, that maps to 0 raises ZeroDivisionError."""
    return _images(fracs, _MOD_I)


def conjugate_residues(fracs) -> list:
    """The images of residues with i at the other root of -1, p - _MOD_I.
    A Gaussian rational a + b*i maps to a + b*_MOD_I under one and to
    a - b*_MOD_I under the other, so the two images give a and b back."""
    return _images(fracs, MOD_P - _MOD_I)


# every fraction n/d with |n|, d <= _LIFT_BOUND has its own residue, since
# 2 * _LIFT_BOUND^2 < p
_LIFT_BOUND = math.isqrt(MOD_P // 2)
_HALF = pow(2, -1, MOD_P)
_HALF_OVER_I = pow(2 * _MOD_I, -1, MOD_P)


def _rational_lift(x: int):
    """The fraction n/d with |n|, d <= _LIFT_BOUND whose residue is x, or
    None: rational reconstruction by the half-extended Euclidean algorithm
    on (p, x), whose remainders r and cofactors t keep r = t*x (mod p)."""
    r0, r1, t0, t1 = MOD_P, x, 0, 1
    while r1 > _LIFT_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > _LIFT_BOUND or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def gaussian_lift(plus, minus):
    """The Gaussian rationals whose images under residues and
    conjugate_residues are plus and minus, entry by entry, or None when a
    real or imaginary part has no lift within the reconstruction bound
    (Wang, SYMSAC 1981).  A lift is the only small candidate, not a proof."""
    out = []
    for x, y in zip(plus, minus):
        re = _rational_lift((x + y) * _HALF % MOD_P)
        im = _rational_lift((x - y) * _HALF_OVER_I % MOD_P)
        if re is None or im is None:
            return None
        out.append(GaussianRational._raw(re, im))
    return out


# ---------------------------------------------------------------------------
# exp / sin / cos of exact constants

_QUARTER_UNITS = {0: GR_ONE, 1: GR_I, 2: -GR_ONE, 3: -GR_I}

_PI_MONO = (("pi", 1),)


def _split_quarter_turns(u: Frac):
    """Extract an additive term q*pi*i with 2q integral; return (unit, rest)."""
    if not u.den.is_one():
        return GR_ONE, u
    c = u.num.terms.get(_PI_MONO)
    if c is None or c.re:
        return GR_ONE, u
    q = c.im  # the term is (q*i)*pi
    twice = 2 * q
    if twice.denominator != 1:
        return GR_ONE, u
    unit = _QUARTER_UNITS[int(twice) % 4]
    rest = Frac(u.num - Poly({_PI_MONO: c}), Poly.one())
    return unit, rest


def exp_of_scalar(u: Frac) -> Frac:
    unit, rest = _split_quarter_turns(u)
    if rest.is_zero():
        return Frac.of(unit)
    key = f"exp({frac_str(rest)})"
    sym = adjoin_constant(key, cmath.exp(frac_value(rest)))
    return sym * unit


def _trig_of_scalar(u: Frac, fn: str) -> Frac:
    if u.is_zero():
        return FRAC_ZERO if fn == "sin" else FRAC_ONE
    key = f"{fn}({frac_str(u)})"
    value = cmath.sin(frac_value(u)) if fn == "sin" else cmath.cos(frac_value(u))
    return adjoin_constant(key, value)


def sin_of_scalar(u: Frac) -> Frac:
    return _trig_of_scalar(u, "sin")


def cos_of_scalar(u: Frac) -> Frac:
    return _trig_of_scalar(u, "cos")
