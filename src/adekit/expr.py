"""Closed-form expressions: AST, parser, printer, calculus, expansion.

The expression language covers the variable z, Gaussian-rational literals,
pi, integer powers, the four ring operations, exp/sin/cos, references to
named functions from a definition environment, composition ``name(arg)``
and compositional iteration ``iter(name, n)``.

Two extra node features exist only internally and never come out of the
user grammar: a derivative order on named references (``f''`` produced by
:func:`differentiate`) and composition with an arbitrary closed outer
expression (produced by inlining iterates).

Names are resolved in one place: :func:`inline` is the only reader of a
definition environment.  :func:`expand_series` and :func:`eval_numeric`
inline once and then walk a closed tree, without named references or
iterates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .scalars import (
    Frac,
    GR_I,
    GR_ONE,
    GaussianRational,
    Poly,
    cos_of_scalar,
    exp_of_scalar,
    gauss_str,
    sin_of_scalar,
)
from .series import Domain, PowerSeries, SeriesError, series_exp, series_sin_cos


class ExprError(ValueError):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class EvalError(ExprError):
    pass


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Expression:
    def __str__(self):
        return to_text(self)


@dataclass(frozen=True)
class Var(Expression):
    pass


@dataclass(frozen=True)
class Lit(Expression):
    value: GaussianRational


@dataclass(frozen=True)
class PiConst(Expression):
    pass


@dataclass(frozen=True)
class Add(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Sub(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Mul(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Div(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Pow(Expression):
    base: Expression
    exponent: int


@dataclass(frozen=True)
class Exp(Expression):
    arg: Expression


@dataclass(frozen=True)
class Sin(Expression):
    arg: Expression


@dataclass(frozen=True)
class Cos(Expression):
    arg: Expression


@dataclass(frozen=True)
class FuncRef(Expression):
    """order-th derivative of a named function, as a function of z."""

    name: str
    order: int = 0


@dataclass(frozen=True)
class Compose(Expression):
    """outer evaluated at inner(z); outer is read as a function of z."""

    outer: Expression
    inner: Expression


@dataclass(frozen=True)
class Iterate(Expression):
    name: str
    count: int


Z = Var()
ZERO = Lit(GaussianRational(0))
ONE = Lit(GR_ONE)


def lit(x) -> Lit:
    return Lit(GaussianRational.coerce(x))


def _is_zero(e) -> bool:
    return isinstance(e, Lit) and not e.value


def _is_one(e) -> bool:
    return isinstance(e, Lit) and e.value == GR_ONE


# Smart constructors: fold literal arithmetic and the obvious identities.
# Used by the parser (literal normalization) and by differentiate, so that
# derivatives come out without dangling *1 and +0 noise.


def add(a: Expression, b: Expression) -> Expression:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    if isinstance(a, Lit) and isinstance(b, Lit):
        return Lit(a.value + b.value)
    return Add(a, b)


def sub(a: Expression, b: Expression) -> Expression:
    if _is_zero(b):
        return a
    if isinstance(a, Lit) and isinstance(b, Lit):
        return Lit(a.value - b.value)
    return Sub(a, b)


def mul(a: Expression, b: Expression) -> Expression:
    if _is_zero(a) or _is_zero(b):
        return ZERO
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    if isinstance(a, Lit) and isinstance(b, Lit):
        return Lit(a.value * b.value)
    return Mul(a, b)


def div(a: Expression, b: Expression) -> Expression:
    if _is_zero(b):
        raise ZeroDivisionError("division by a zero constant expression")
    if _is_zero(a):
        return ZERO
    if _is_one(b):
        return a
    if isinstance(a, Lit) and isinstance(b, Lit):
        return Lit(a.value / b.value)
    return Div(a, b)


def neg(a: Expression) -> Expression:
    if isinstance(a, Lit):
        return Lit(-a.value)
    return Mul(Lit(-GR_ONE), a)


def pow_(a: Expression, n: int) -> Expression:
    if n < 0:
        raise ExprError("negative exponents are not in the grammar; use division")
    if n == 0:
        return ONE
    if n == 1:
        return a
    if isinstance(a, Lit):
        return Lit(a.value**n)
    return Pow(a, n)


def iterate(name: str, count: int) -> Expression:
    if count < 1:
        raise ExprError("iterate count must be a positive integer")
    if count == 1:
        return FuncRef(name)
    return Iterate(name, count)


# ---------------------------------------------------------------------------
# Definition environment


_RESERVED = {"z", "i", "pi", "exp", "sin", "cos", "iter"}


class DefinitionEnvironment:
    """Ordered named definitions; a name may only use earlier names, which
    rules out cycles by construction."""

    def __init__(self):
        self._defs: dict = {}
        self._frozen = False

    def define(self, name: str, body: Expression):
        if self._frozen:
            raise ExprError("definition environment is frozen")
        if name in _RESERVED:
            raise ExprError(f"{name!r} is a reserved name")
        if name in self._defs:
            raise ExprError(f"duplicate definition of {name!r}")
        if not isinstance(body, Expression):
            raise TypeError("definition body must be an Expression")
        self._defs[name] = body

    def define_text(self, name: str, text: str):
        self.define(name, parse(text, env=self))

    def freeze(self):
        self._frozen = True

    def lookup(self, name: str) -> Expression:
        try:
            return self._defs[name]
        except KeyError:
            raise ExprError(f"unknown function {name!r}") from None

    def __contains__(self, name):
        return name in self._defs

    def names(self):
        return list(self._defs)


EMPTY_ENV = DefinitionEnvironment()
EMPTY_ENV.freeze()


# ---------------------------------------------------------------------------
# Parser

_TOKEN_OPS = set("+-*/^(),")


def _lex(text: str):
    toks = []
    k = 0
    n = len(text)
    while k < n:
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch in _TOKEN_OPS:
            toks.append((ch, ch, k))
            k += 1
            continue
        if ch.isdigit():
            j = k
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", text[k:j], k))
            k = j
            continue
        if ch.isalpha() or ch == "_":
            j = k
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[k:j], k))
            k = j
            continue
        if ch == "'":
            j = k
            while j < n and text[j] == "'":
                j += 1
            toks.append(("prime", text[k:j], k))
            k = j
            continue
        raise ParseError(f"unexpected character {ch!r}", k)
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str, env: DefinitionEnvironment):
        self.text = text
        self.toks = _lex(text)
        self.pos = 0
        self.env = env

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str):
        t = self.take()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, found {t[1]!r}" if t[1] else f"expected {kind!r}", t[2])
        return t

    def parse(self) -> Expression:
        e = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise ParseError(f"unexpected {t[1]!r}", t[2])
        return e

    def expr(self) -> Expression:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expression:
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, oppos = self.take()
            rhs = self.factor()
            try:
                e = mul(e, rhs) if op == "*" else div(e, rhs)
            except ZeroDivisionError:
                raise ParseError("division by zero in a constant expression", oppos) from None
        return e

    def factor(self) -> Expression:
        t = self.peek()
        if t[0] == "-":
            # negation: binds a whole factor, folding into literals
            self.take()
            return neg(self.factor())
        e = self.base()
        if self.peek()[0] == "^":
            self.take()
            n = self.nonneg_int()
            e = pow_(e, n)
        return e

    def nonneg_int(self) -> int:
        t = self.expect("int")
        return int(t[1])

    def base(self) -> Expression:
        kind, text, pos = self.take()
        if kind == "int":
            # rational := integer ('/' positive-integer)?
            if self.peek()[0] == "/" and self.toks[self.pos + 1][0] == "int":
                self.take()
                den = int(self.expect("int")[1])
                if den == 0:
                    raise ParseError("zero denominator in rational literal", pos)
                return lit(Fraction(int(text), den))
            return lit(int(text))
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "name":
            if text == "z":
                return Z
            if text == "i":
                return Lit(GR_I)
            if text == "pi":
                return PiConst()
            if text in ("exp", "sin", "cos"):
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return {"exp": Exp, "sin": Sin, "cos": Cos}[text](arg)
            if text == "iter":
                self.expect("(")
                nt = self.expect("name")
                if nt[1] not in self.env:
                    raise ParseError(f"unknown function {nt[1]!r}", nt[2])
                self.expect(",")
                ct = self.expect("int")
                count = int(ct[1])
                if count < 1:
                    raise ParseError("iterate count must be positive", ct[2])
                self.expect(")")
                return iterate(nt[1], count)
            if text in self.env:
                order = 0
                if self.peek()[0] == "prime":
                    order = len(self.take()[1])
                if self.peek()[0] == "(":
                    self.take()
                    arg = self.expr()
                    self.expect(")")
                    return Compose(FuncRef(text, order), arg)
                return FuncRef(text, order)
            raise ParseError(f"unknown identifier {text!r}", pos)
        raise ParseError(f"expected an expression, found {text!r}" if text else "unexpected end of input", pos)


def parse(text: str, env: DefinitionEnvironment | None = None) -> Expression:
    return _Parser(text, env if env is not None else EMPTY_ENV).parse()


# ---------------------------------------------------------------------------
# Printer (minimal parenthesization; output reparses to the same AST)

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4


def _level(e: Expression) -> int:
    if isinstance(e, (Add, Sub)):
        return _LEVEL_ADD
    if isinstance(e, (Mul, Div)):
        return _LEVEL_MUL
    if isinstance(e, Pow):
        return _LEVEL_POW
    if isinstance(e, Lit):
        # mixed literals print as a sum; an imaginary one with a scale
        # prints as a product; both need parens inside tighter contexts
        if e.value.re and e.value.im:
            return _LEVEL_ADD
        if e.value.im and e.value.im not in (1, -1):
            return _LEVEL_MUL
        return _LEVEL_ATOM
    return _LEVEL_ATOM


def _wrap(e: Expression, need: int) -> str:
    txt = to_text(e)
    return f"({txt})" if _level(e) < need else txt


def to_text(e: Expression) -> str:
    if isinstance(e, Var):
        return "z"
    if isinstance(e, PiConst):
        return "pi"
    if isinstance(e, Lit):
        return gauss_str(e.value)
    if isinstance(e, Add):
        rhs = _wrap(e.right, _LEVEL_MUL) if isinstance(e.right, (Add, Sub)) else to_text(e.right)
        return f"{_wrap(e.left, _LEVEL_ADD)}+{rhs}"
    if isinstance(e, Sub):
        rhs = _wrap(e.right, _LEVEL_MUL) if isinstance(e.right, (Add, Sub)) else to_text(e.right)
        return f"{_wrap(e.left, _LEVEL_ADD)}-{rhs}"
    if isinstance(e, Mul):
        rhs = _wrap(e.right, _LEVEL_POW) if _level(e.right) == _LEVEL_MUL else _wrap(e.right, _LEVEL_MUL)
        return f"{_wrap(e.left, _LEVEL_MUL)}*{rhs}"
    if isinstance(e, Div):
        rhs = _wrap(e.right, _LEVEL_POW) if _level(e.right) == _LEVEL_MUL else _wrap(e.right, _LEVEL_MUL)
        return f"{_wrap(e.left, _LEVEL_MUL)}/{rhs}"
    if isinstance(e, Pow):
        base = to_text(e.base)
        if _level(e.base) < _LEVEL_ATOM or base.startswith("-"):
            base = f"({base})"
        return f"{base}^{e.exponent}"
    if isinstance(e, Exp):
        return f"exp({to_text(e.arg)})"
    if isinstance(e, Sin):
        return f"sin({to_text(e.arg)})"
    if isinstance(e, Cos):
        return f"cos({to_text(e.arg)})"
    if isinstance(e, FuncRef):
        return e.name + "'" * e.order
    if isinstance(e, Compose):
        if isinstance(e.outer, FuncRef):
            return f"{to_text(e.outer)}({to_text(e.inner)})"
        return f"({to_text(e.outer)} @ {to_text(e.inner)})"
    if isinstance(e, Iterate):
        return f"iter({e.name},{e.count})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Calculus and structural transforms


def differentiate(e: Expression) -> Expression:
    """Purely syntactic derivative; named references gain a prime."""
    if isinstance(e, (Lit, PiConst)):
        return ZERO
    if isinstance(e, Var):
        return ONE
    if isinstance(e, Add):
        return add(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Sub):
        return sub(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Mul):
        return add(mul(differentiate(e.left), e.right), mul(e.left, differentiate(e.right)))
    if isinstance(e, Div):
        num = sub(mul(differentiate(e.left), e.right), mul(e.left, differentiate(e.right)))
        return div(num, pow_(e.right, 2))
    if isinstance(e, Pow):
        return mul(mul(lit(e.exponent), pow_(e.base, e.exponent - 1)), differentiate(e.base))
    if isinstance(e, Exp):
        return mul(e, differentiate(e.arg))
    if isinstance(e, Sin):
        return mul(Cos(e.arg), differentiate(e.arg))
    if isinstance(e, Cos):
        return mul(neg(Sin(e.arg)), differentiate(e.arg))
    if isinstance(e, FuncRef):
        return FuncRef(e.name, e.order + 1)
    if isinstance(e, Compose):
        return mul(Compose(differentiate(e.outer), e.inner), differentiate(e.inner))
    if isinstance(e, Iterate):
        inner = iterate(e.name, e.count - 1)
        return mul(Compose(FuncRef(e.name, 1), inner), differentiate(inner))
    raise TypeError(f"not an expression node: {e!r}")


def nth_derivative(e: Expression, n: int) -> Expression:
    if n < 0:
        raise ExprError("derivative count must be nonnegative")
    for _ in range(n):
        e = differentiate(e)
    return e


def inline(e: Expression, env: DefinitionEnvironment) -> Expression:
    """Resolve every named reference and iterate to a closed expression."""
    if isinstance(e, (Var, Lit, PiConst)):
        return e
    if isinstance(e, Add):
        return add(inline(e.left, env), inline(e.right, env))
    if isinstance(e, Sub):
        return sub(inline(e.left, env), inline(e.right, env))
    if isinstance(e, Mul):
        return mul(inline(e.left, env), inline(e.right, env))
    if isinstance(e, Div):
        return div(inline(e.left, env), inline(e.right, env))
    if isinstance(e, Pow):
        return pow_(inline(e.base, env), e.exponent)
    if isinstance(e, Exp):
        return Exp(inline(e.arg, env))
    if isinstance(e, Sin):
        return Sin(inline(e.arg, env))
    if isinstance(e, Cos):
        return Cos(inline(e.arg, env))
    if isinstance(e, FuncRef):
        return nth_derivative(inline(env.lookup(e.name), env), e.order)
    if isinstance(e, Compose):
        return Compose(inline(e.outer, env), inline(e.inner, env))
    if isinstance(e, Iterate):
        body = inline(env.lookup(e.name), env)
        out = body
        for _ in range(e.count - 1):
            out = Compose(body, out)
        return out
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Numeric evaluation

_INF = complex(math.inf, 0.0)


def eval_numeric(e: Expression, point: complex, env: DefinitionEnvironment | None = None) -> complex:
    """Evaluate at a point; an overflow comes back as an infinite complex
    rather than an exception."""
    closed = inline(e, env if env is not None else EMPTY_ENV)
    try:
        return _eval(closed, complex(point))
    except OverflowError:
        return _INF


def _eval(e: Expression, pt: complex) -> complex:
    if isinstance(e, Var):
        return pt
    if isinstance(e, Lit):
        return e.value.to_complex()
    if isinstance(e, PiConst):
        return complex(math.pi)
    if isinstance(e, Add):
        return _eval(e.left, pt) + _eval(e.right, pt)
    if isinstance(e, Sub):
        return _eval(e.left, pt) - _eval(e.right, pt)
    if isinstance(e, Mul):
        return _eval(e.left, pt) * _eval(e.right, pt)
    if isinstance(e, Div):
        den = _eval(e.right, pt)
        if den == 0:
            raise EvalError("division by zero during evaluation")
        return _eval(e.left, pt) / den
    if isinstance(e, Pow):
        return _eval(e.base, pt) ** e.exponent
    if isinstance(e, Exp):
        return cmath.exp(_eval(e.arg, pt))
    if isinstance(e, Sin):
        return cmath.sin(_eval(e.arg, pt))
    if isinstance(e, Cos):
        return cmath.cos(_eval(e.arg, pt))
    if isinstance(e, Compose):
        return _eval(e.outer, _eval(e.inner, pt))
    raise TypeError(f"not a closed expression node: {e!r}")


# ---------------------------------------------------------------------------
# Exact scalar evaluation (z-free expressions)


def scalar_of(e: Expression) -> Frac:
    """Exact value of a z-free expression as a scalar fraction."""
    if isinstance(e, Var):
        raise ExprError("expression depends on z where a constant is required")
    if isinstance(e, Lit):
        return Frac.of(e.value)
    if isinstance(e, PiConst):
        return Frac.var("pi")
    if isinstance(e, Add):
        return scalar_of(e.left) + scalar_of(e.right)
    if isinstance(e, Sub):
        return scalar_of(e.left) - scalar_of(e.right)
    if isinstance(e, Mul):
        return scalar_of(e.left) * scalar_of(e.right)
    if isinstance(e, Div):
        return scalar_of(e.left) / scalar_of(e.right)
    if isinstance(e, Pow):
        return scalar_of(e.base) ** e.exponent
    if isinstance(e, Exp):
        return exp_of_scalar(scalar_of(e.arg))
    if isinstance(e, Sin):
        return sin_of_scalar(scalar_of(e.arg))
    if isinstance(e, Cos):
        return cos_of_scalar(scalar_of(e.arg))
    raise ExprError(f"{type(e).__name__} node is not a constant scalar")


def frac_of_expression(e: Expression) -> Frac:
    """Read an exp/sin/cos-free expression as a rational function of z."""
    if isinstance(e, Var):
        return Frac.var("z")
    if isinstance(e, Lit):
        return Frac.of(e.value)
    if isinstance(e, PiConst):
        return Frac.var("pi")
    if isinstance(e, Add):
        return frac_of_expression(e.left) + frac_of_expression(e.right)
    if isinstance(e, Sub):
        return frac_of_expression(e.left) - frac_of_expression(e.right)
    if isinstance(e, Mul):
        return frac_of_expression(e.left) * frac_of_expression(e.right)
    if isinstance(e, Div):
        return frac_of_expression(e.left) / frac_of_expression(e.right)
    if isinstance(e, Pow):
        return frac_of_expression(e.base) ** e.exponent
    raise ExprError(f"{type(e).__name__} node is not rational in z")


def expression_of_frac(f: Frac, z_expr: Expression = Z) -> Expression:
    """Rebuild an expression from a rational function, substituting z_expr
    for the variable z."""

    def poly_expr(p: Poly) -> Expression:
        total = ZERO
        for mono, coeff in sorted(p.terms.items()):
            term = Lit(coeff)
            for v, k in mono:
                base = z_expr if v == "z" else (PiConst() if v == "pi" else _constant_ref(v))
                term = mul(term, pow_(base, k))
            total = add(total, term)
        return total

    num = poly_expr(f.num)
    if f.den.is_one():
        return num
    return div(num, poly_expr(f.den))


def _constant_ref(key: str) -> Expression:
    # constant keys are canonical printed forms, so they reparse
    return parse(key)


# ---------------------------------------------------------------------------
# Series expansion


def expand_series(
    e: Expression,
    center,
    order: int,
    mode: str = "exact",
    env: DefinitionEnvironment | None = None,
) -> PowerSeries:
    """Taylor coefficients of e around z = center.

    In exact mode the center is a scalar :class:`Frac` (or anything
    coercible); values of exp/sin/cos at nonzero constants are adjoined as
    symbols subject to the quarter-period rule.  In numeric mode the center
    is complex and everything is floating point.  Named references and
    iterates are inlined from env first.
    """
    if order < 0:
        raise ExprError("expansion order must be nonnegative")
    try:
        dom = Domain.of(mode)
    except SeriesError:
        raise ExprError(f"unknown mode {mode!r}") from None
    closed = inline(e, env if env is not None else EMPTY_ENV)
    return _expand(closed, dom.center(center), order, dom)


def _expand(e, center, order, dom) -> PowerSeries:
    rec = lambda sub: _expand(sub, center, order, dom)
    if isinstance(e, Var):
        cs = [center] + ([dom.one] if order >= 1 else [])
        cs += [dom.zero] * (order + 1 - len(cs))
        return PowerSeries(dom, cs)
    if isinstance(e, Lit):
        return PowerSeries.constant(dom.literal(e.value), order, dom)
    if isinstance(e, PiConst):
        return PowerSeries.constant(dom.pi, order, dom)
    if isinstance(e, Add):
        return rec(e.left) + rec(e.right)
    if isinstance(e, Sub):
        return rec(e.left) - rec(e.right)
    if isinstance(e, Mul):
        return rec(e.left) * rec(e.right)
    if isinstance(e, Div):
        return rec(e.left) / rec(e.right)
    if isinstance(e, Pow):
        return rec(e.base) ** e.exponent
    if isinstance(e, Exp):
        u0, tail = _split_const(rec(e.arg))
        scalar = dom.exp(u0)
        return series_exp(tail).scale(scalar)
    if isinstance(e, (Sin, Cos)):
        u0, tail = _split_const(rec(e.arg))
        s, c = series_sin_cos(tail)
        s0, c0 = dom.sin(u0), dom.cos(u0)
        if isinstance(e, Sin):
            return s.scale(c0) + c.scale(s0)
        return c.scale(c0) - s.scale(s0)
    if isinstance(e, Compose):
        u0, tail = _split_const(rec(e.inner))
        return _expand(e.outer, u0, order, dom).compose(tail)
    raise TypeError(f"not a closed expression node: {e!r}")


def _split_const(s: PowerSeries):
    """(constant term, series with constant term removed)."""
    return s.coeffs[0], PowerSeries(s.domain, (s.domain.zero,) + s.coeffs[1:])
