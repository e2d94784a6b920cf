"""Differential polynomials in one unknown function.

A differential monomial y0^{m_0} y1^{m_1} ... yn^{m_n} stands for the
product f^{m_0} (f')^{m_1} ... (f^{(n)})^{m_n}.  A differential polynomial
is a finite sum of such monomials with coefficients rational in z.

Monomials are exponent tuples with trailing zeros trimmed, ranked by
(weight, total degree, exponents); the weight of a monomial is the sum of
derivative order times exponent, so it is stable under substituting one
function of z for another.
"""

from __future__ import annotations

import operator

from .scalars import (
    Frac,
    FRAC_ONE,
    GaussianRational,
    binary_power,
    frac_str,
    has_toplevel,
    unit_lead_numerators,
)
from .series import PowerSeries
from .expr import Grammar, ParseError, expand_series, expression_of_frac, parse_text


class DiffPolyError(ValueError):
    pass


DiffMono = tuple  # exponent tuple, trailing zeros trimmed


def mono_of(exponents) -> DiffMono:
    m = tuple(int(e) for e in exponents)
    if any(e < 0 for e in m):
        raise DiffPolyError("negative exponent in a differential monomial")
    while m and m[-1] == 0:
        m = m[:-1]
    return m


def mono_weight(m: DiffMono) -> int:
    return sum(k * e for k, e in enumerate(m))


def mono_total_degree(m: DiffMono) -> int:
    return sum(m)


def mono_order(m: DiffMono) -> int:
    return len(m) - 1 if m else 0


def mono_product(a: DiffMono, b: DiffMono) -> DiffMono:
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return mono_of(x + y for x, y in zip(a, b))


def mono_rank(m: DiffMono):
    """Sort key; higher compares later, display order is descending."""
    return (mono_weight(m), mono_total_degree(m), m)


def diff_mono_text(m: DiffMono) -> str:
    if not m:
        return "1"
    parts = []
    for k, e in enumerate(m):
        if e == 0:
            continue
        parts.append(f"y{k}" if e == 1 else f"y{k}^{e}")
    return "*".join(parts)


class DiffPoly:
    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        clean = {}
        for m, c in terms.items():
            c = c if isinstance(c, Frac) else Frac.of(c)
            if not c.is_zero():
                clean[mono_of(m)] = c
        self.terms = clean

    @staticmethod
    def constant(c) -> "DiffPoly":
        return DiffPoly({(): c})

    @staticmethod
    def variable(k: int) -> "DiffPoly":
        if k < 0:
            raise DiffPolyError("derivative index must be nonnegative")
        return DiffPoly({(0,) * k + (1,): FRAC_ONE})

    @staticmethod
    def monomial(m, coeff=FRAC_ONE) -> "DiffPoly":
        return DiffPoly({mono_of(m): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def order(self) -> int:
        """Highest derivative index present."""
        return max((mono_order(m) for m in self.terms if m), default=0)

    @property
    def weight(self) -> int:
        return max((mono_weight(m) for m in self.terms), default=0)

    @property
    def total_degree(self) -> int:
        return max((mono_total_degree(m) for m in self.terms), default=0)

    @property
    def coeff_degree(self) -> int:
        """Largest z-degree over numerators and denominators of coefficients."""
        out = 0
        for c in self.terms.values():
            out = max(out, c.num.degree_in("z"), c.den.degree_in("z"))
        return out

    def sorted_terms(self):
        """(monomial, coefficient) pairs, heaviest monomial first."""
        return sorted(self.terms.items(), key=lambda t: mono_rank(t[0]), reverse=True)

    def __eq__(self, other):
        return isinstance(other, DiffPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Frac.of(0)) + c
        return DiffPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DiffPoly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_product(ma, mb)
                c = ca * cb
                out[m] = out[m] + c if m in out else c
        return DiffPoly(out)

    def scale(self, c) -> "DiffPoly":
        c = c if isinstance(c, Frac) else Frac.of(c)
        return DiffPoly({m: cc * c for m, cc in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise DiffPolyError("negative power of a differential polynomial")
        return binary_power(self, n) if n else DiffPoly.constant(FRAC_ONE)

    def __str__(self):
        return ade_text(self)

    def __repr__(self):
        return f"DiffPoly({ade_text(self)!r})"


# ---------------------------------------------------------------------------
# Printing


def _frac_is_negative(c: Frac) -> bool:
    g = c.num.leading()[1]
    return g.re < 0 or (g.re == 0 and g.im < 0)


def _coeff_factor_text(c: Frac) -> str:
    txt = frac_str(c)
    if has_toplevel(txt, "+-"):
        return f"({txt})"
    return txt


def ade_text(p: DiffPoly) -> str:
    """Canonical text; reparses to the same differential polynomial."""
    if p.is_zero():
        return "0"
    pieces = []
    for m, c in p.sorted_terms():
        negative = _frac_is_negative(c)
        if not m:
            # bare constant chunk: the separator sign binds only the first
            # monomial on reparse, so keep the remaining signs as written
            txt = frac_str(c)
            if negative:
                body = txt[1:] if txt.startswith("-") else frac_str(-c)
            else:
                body = txt
        else:
            if negative:
                c = -c
            if c == FRAC_ONE:
                body = diff_mono_text(m)
            else:
                body = f"{_coeff_factor_text(c)}*{diff_mono_text(m)}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# Parsing


def _divide(a: DiffPoly, b: DiffPoly) -> DiffPoly:
    if set(b.terms) - {()}:
        raise DiffPolyError("can only divide by a scalar coefficient")
    if b.is_zero():
        raise ZeroDivisionError("division by zero")
    return a.scale(FRAC_ONE / b.terms[()])


def _name(parser, text: str, pos: int) -> DiffPoly:
    if text == "z":
        return DiffPoly.constant(Frac.var("z"))
    if text == "pi":
        return DiffPoly.constant(Frac.var("pi"))
    if text == "i":
        return DiffPoly.constant(Frac.of(GaussianRational(0, 1)))
    if len(text) >= 2 and text[0] == "y" and text[1:].isdecimal():
        return DiffPoly.variable(int(text[1:]))
    raise ParseError(f"unknown name {text!r} in a differential polynomial", pos)


_ADE_GRAMMAR = Grammar(
    lambda x: DiffPoly.constant(Frac.of(GaussianRational.coerce(x))),
    operator.neg, operator.add, operator.sub, operator.mul, _divide, operator.pow, _name,
)


def parse_ade(text: str) -> DiffPoly:
    """The differential polynomial of text: the expression grammar over the
    names y0, y1, ... for f, f', ..., with z, pi and i in coefficients."""
    return parse_text(text, _ADE_GRAMMAR)


# ---------------------------------------------------------------------------
# Normal form


def normalize(p: DiffPoly) -> DiffPoly:
    """Canonical representative of the proportionality class: coefficients
    cleared to coprime polynomials and the leading monomial's leading scalar
    made +1."""
    if p.is_zero():
        return p
    monos = list(p.terms)
    lead = monos.index(max(monos, key=mono_rank))
    nums = unit_lead_numerators(p.terms.values(), lead)
    return DiffPoly({m: Frac(q) for m, q in zip(monos, nums)})


# ---------------------------------------------------------------------------
# Evaluation on series


class Jet:
    """The series y0, y1, ... of a function and its derivatives around one
    center, with every power and differential monomial of them, each built
    once and shared by the searches' columns and the checks' residuals.

    ``Jet(ys)`` holds a given stack and cannot grow.  ``Jet.expanding``
    owns one subject's expansion: it re-expands only when a caller needs
    more coefficients than it holds, to exactly that need, dropping the
    monomials, and takes derivatives on demand.  Callers read truncations:
    a product truncates, so they are the series an expansion at the
    caller's own order would give."""

    def __init__(self, ys, expand=None):
        self._ys, self._expand, self._monos = list(ys), expand, {}

    @classmethod
    def expanding(cls, subject, env, center, mode) -> "Jet":
        return cls([], lambda order: expand_series(subject, center, order, mode=mode, env=env))

    def stack(self, depth: int, order: int):
        """The series of y0..y_depth through the given order."""
        ys = self._ys
        if self._expand is not None:
            if not ys or ys[0].order < order + depth:
                self._ys = ys = [self._expand(order + depth)]
                self._monos = {}
            while len(ys) <= depth:
                ys.append(ys[-1].derivative())
        if depth >= len(ys) or min(y.order for y in ys[: depth + 1]) < order:
            raise DiffPolyError("derivative stack is too short for this request")
        return [y.truncate(order) for y in ys[: depth + 1]]

    def monomials(self, monos, order: int):
        """The series of each differential monomial through the given order,
        on the stack grown as far as they need."""
        self.stack(max(map(mono_order, monos), default=0), order)
        return [self._monomial(m).truncate(order) for m in monos]

    def _monomial(self, m: DiffMono) -> PowerSeries:
        # the monomial without its highest derivative, times that
        # derivative's power: the association of the product of powers
        # taken left to right, so numeric monomials keep their bits
        if m not in self._monos:
            k = len(m) - 1
            if not m:
                y0 = self._ys[0]
                self._monos[m] = PowerSeries.constant(y0.domain.one, y0.order, y0.domain)
            elif any(m[:k]):
                self._monos[m] = self._monomial(mono_of(m[:k])) * self._monomial((0,) * k + (m[k],))
            else:
                self._monos[m] = self._ys[k] ** m[k]
        return self._monos[m]

    def residual(self, terms, order: int):
        """(the sum through the given order, the series of each term) of a
        map from monomial to coefficient series: each term is the
        coefficient times the monomial's series, the one ``monomials``
        gives the searches."""
        columns = self.monomials(list(terms), order)
        out = [c * s for c, s in zip(terms.values(), columns)]
        return sum(out, PowerSeries.zero(order, self._ys[0].domain)), out


def residual_series(p: DiffPoly, subject, env, center, order: int, mode: str = "exact") -> PowerSeries:
    """P[subject] expanded around center to the given order."""
    return _residual(p, subject, env, center, order, mode)[0]


def _residual(p: DiffPoly, subject, env, center, order: int, mode):
    """Jet.residual of P on an expansion of the subject of its own."""
    coeffs = {m: expand_series(expression_of_frac(c), center, order, mode=mode) for m, c in p.terms.items()}
    return Jet.expanding(subject, env, center, mode).residual(coeffs, order)


def holds_on(p: DiffPoly, subject, env, center, order: int, mode: str = "exact") -> bool:
    """Whether P[subject] vanishes identically through the given order:
    exactly, or in numeric mode within the numeric domain's tolerance
    relative to its largest term."""
    res, terms = _residual(p, subject, env, center, order, mode)
    return res.domain.vanishes(res, terms)
