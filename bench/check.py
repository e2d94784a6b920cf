"""Output checks for the benchmark, written apart from adekit.

Nothing here imports adekit.  An equation is read back from its printed
text and evaluated at points away from the expansion center on
derivatives taken by hand from closed forms with ``cmath``; the other
checks test properties the method must have (equal sides of the rewrite
identity, commuting pairs, the growth of exp, the first strict iterate
level, the calculus cell of a known equation).
"""

from __future__ import annotations

import cmath
import math
import re

# residual of an equation relative to the sum of its term moduli
REL_TOL = 1e-9

_TOKEN = re.compile(r"\s*(?:(\d+)|(y\d+|[a-z]+)|(.))")


class CheckError(ValueError):
    """An output that the benchmark does not accept."""


def _lex(text: str):
    out = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise CheckError(f"cannot read {text!r} at {pos}")
        num, name, op = m.groups()
        if num is not None:
            out.append(("num", int(num)))
        elif name is not None:
            out.append(("name", name))
        elif op is not None and not op.isspace():
            out.append(("op", op))
        pos = m.end()
    out.append(("end", None))
    return out


class _Reader:
    """Recursive-descent reader for printed equations: sums of products of
    integers, i, pi, z, y<k>, exp/sin/cos calls, powers and quotients.
    Each node is a function of (z, ys) returning a complex number."""

    def __init__(self, text: str):
        self.toks = _lex(text)
        self.pos = 0

    def _peek(self):
        return self.toks[self.pos]

    def _take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def _expect(self, op):
        tok = self._take()
        if tok != ("op", op):
            raise CheckError(f"expected {op!r}, got {tok!r}")

    def terms(self):
        """Top-level summands, each a signed node."""
        out = self._summands()
        if self._peek()[0] != "end":
            raise CheckError(f"unexpected {self._peek()!r}")
        return out

    def _sum(self):
        nodes = self._summands()
        return lambda z, ys: sum(n(z, ys) for n in nodes)

    def _summands(self):
        out = []
        sign = 1
        if self._peek() == ("op", "-"):
            self._take()
            sign = -1
        while True:
            node = self._product()
            out.append(node if sign > 0 else (lambda n: lambda z, ys: -n(z, ys))(node))
            tok = self._peek()
            if tok == ("op", "+"):
                sign = 1
            elif tok == ("op", "-"):
                sign = -1
            else:
                return out
            self._take()

    def _product(self):
        node = self._power()
        while self._peek() in (("op", "*"), ("op", "/")):
            op = self._take()[1]
            rhs = self._power()
            if op == "*":
                node = (lambda a, b: lambda z, ys: a(z, ys) * b(z, ys))(node, rhs)
            else:
                node = (lambda a, b: lambda z, ys: a(z, ys) / b(z, ys))(node, rhs)
        return node

    def _power(self):
        node = self._atom()
        if self._peek() == ("op", "^"):
            self._take()
            kind, n = self._take()
            if kind != "num":
                raise CheckError("exponents are nonnegative integers")
            node = (lambda a, k: lambda z, ys: a(z, ys) ** k)(node, n)
        return node

    def _atom(self):
        kind, val = self._take()
        if kind == "num":
            return lambda z, ys, v=complex(val): v
        if kind == "op" and val == "(":
            node = self._sum()
            self._expect(")")
            return node
        if kind == "op" and val == "-":
            inner = self._power()
            return lambda z, ys: -inner(z, ys)
        if kind == "name":
            if val == "z":
                return lambda z, ys: z
            if val == "i":
                return lambda z, ys: 1j
            if val == "pi":
                return lambda z, ys: complex(math.pi)
            if val[0] == "y" and val[1:].isdigit():
                k = int(val[1:])
                return lambda z, ys: ys[k]
            fn = {"exp": cmath.exp, "sin": cmath.sin, "cos": cmath.cos}.get(val)
            if fn is not None:
                self._expect("(")
                arg = self._sum()
                self._expect(")")
                return lambda z, ys: fn(arg(z, ys))
        raise CheckError(f"unexpected token {val!r}")


def equation_terms(text: str):
    """The printed equation as a list of summand functions of (z, ys)."""
    reader = _Reader(text)
    return reader.terms()


def equation_order(text: str) -> int:
    """Highest derivative y<k> named in the printed equation."""
    ks = [int(k) for k in re.findall(r"y(\d+)", text)]
    return max(ks, default=0)


# ---------------------------------------------------------------------------
# Closed-form derivatives, taken by hand


def _exp_family(a):
    def derivs(z, n):
        e = cmath.exp(a * z)
        return [a**k * e for k in range(n + 1)]

    return derivs


def _sin_family(a):
    def derivs(z, n):
        # d^k/dz^k sin(a z) = a^k sin(a z + k pi/2)
        s, c = cmath.sin(a * z), cmath.cos(a * z)
        cycle = [s, c, -s, -c]
        return [a**k * cycle[k % 4] for k in range(n + 1)]

    return derivs


def _translate_family(a, shift=0):
    def derivs(z, n):
        # z + shift + exp(a z)
        e = cmath.exp(a * z)
        out = [z + shift + e, 1 + a * e]
        out += [a**k * e for k in range(2, n + 1)]
        return out[: n + 1]

    return derivs


def _tower_family(a):
    def derivs(z, n):
        # y = exp(u), u = exp(a z): y' = a u y, y'' = a^2 (u + u^2) y
        if n > 2:
            raise CheckError("tower derivatives are written out to order 2")
        u = cmath.exp(a * z)
        y = cmath.exp(u)
        return [y, a * u * y, a * a * (u + u * u) * y][: n + 1]

    return derivs


def _iterate_exp_family(a):
    def derivs(z, n):
        # h = exp(a u), u = exp(a z): h' = a^2 u h, h'' = (a^3 u + a^4 u^2) h
        if n > 2:
            raise CheckError("iterate derivatives are written out to order 2")
        u = cmath.exp(a * z)
        h = cmath.exp(a * u)
        return [h, a**2 * u * h, (a**3 * u + a**4 * u * u) * h][: n + 1]

    return derivs


def _gauss_family(a):
    def derivs(z, n):
        # exp(a z^2): y' = 2 a z y, y'' = (2 a + 4 a^2 z^2) y
        if n > 2:
            raise CheckError("exp(a z^2) derivatives are written out to order 2")
        y = cmath.exp(a * z * z)
        return [y, 2 * a * z * y, (2 * a + 4 * a * a * z * z) * y][: n + 1]

    return derivs


FAMILIES = {
    "exp": _exp_family,
    "sin": _sin_family,
    "translate": _translate_family,
    "tower": _tower_family,
    "iterate_exp": _iterate_exp_family,
    "gauss": _gauss_family,
}


def closed_form(family: str, *params):
    """Derivative function z, n -> [y0, ..., yn] of a named subject family."""
    try:
        return FAMILIES[family](*params)
    except KeyError:
        raise CheckError(f"no closed form for {family!r}") from None


def sample_points(center: complex):
    """Points at distance 2 from the expansion center.  An equation that a
    series matches only to some order can hold within rounding near the
    center: numeric find_ade's answer for sin(z) leaves 1e-13 of its term
    scale at distance 0.7, and 1e-7 at distance 2."""
    return [center + 2 * cmath.exp(1j * t) for t in (0.4, 1.9, 3.3, 4.8)]


def check_equation(text: str, derivs, center: complex = 0j, rel_tol: float = REL_TOL):
    """Raise CheckError unless the printed equation vanishes on the closed
    form at every sample point, relative to the size of its terms."""
    terms = equation_terms(text)
    n = equation_order(text)
    for z in sample_points(complex(center)):
        ys = derivs(z, n)
        values = [t(z, ys) for t in terms]
        scale = max(1.0, sum(abs(v) for v in values))
        residual = abs(sum(values))
        if not residual <= rel_tol * scale:
            raise CheckError(
                f"{text!r} leaves residual {residual:.3g} at z={z} (term scale {scale:.3g})"
            )


def check_equal(got, want, what: str):
    if got != want:
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


def check_stages(stages, cells, what: str):
    """An escalation history (weight, degree, coefficient degree, unknowns,
    rank) must visit exactly these cells, each an honest negative of full
    column rank."""
    check_equal([tuple(s[:3]) for s in stages], [tuple(c) for c in cells], f"escalation cells of {what}")
    for s in stages:
        if s[4] != s[3]:
            raise CheckError(f"{what}: stage {s} is not full rank")


def check_commute(f, g, points, rel_tol: float = REL_TOL):
    """f(g(z)) = g(f(z)) at each point, with f and g plain complex functions."""
    for z in points:
        lhs, rhs = f(g(z)), g(f(z))
        if not abs(lhs - rhs) <= rel_tol * max(1.0, abs(lhs)):
            raise CheckError(f"f(g) = {lhs} but g(f) = {rhs} at z={z}")


def check_close(got: float, want: float, tol: float, what: str):
    if not abs(got - want) <= tol:
        raise CheckError(f"{what}: got {got!r}, expected {want!r} within {tol}")
