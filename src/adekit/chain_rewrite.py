"""Rewriting a differential equation along a permutable partner.

Let f and g commute under composition and write G_j for g^(j) evaluated
at f(z).  Differentiating f(g) = g(f) repeatedly expresses each f^(k)
composed with g in the G_j: the table T_k collects, for each monomial in
the G_j, a coefficient built from derivatives of f and g at z.  The names
"f" and "g" inside those coefficients are reserved references that a
verification environment must bind.

Substituting the tables into an equation P[f] = 0 read along g yields an
identity whose support (the set of G-monomials) carries the same maximal
weight as P; searching that support for a polynomial relation is what
produces an equation for g.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

from .diffpoly import (
    DiffMono,
    DiffPoly,
    DiffPolyError,
    diff_mono_text,
    mono_of,
    mono_product,
    mono_rank,
    mono_weight,
)
from .expr import (
    DefinitionEnvironment,
    Expression,
    FuncRef,
    ONE,
    ZERO,
    add,
    differentiate,
    div,
    expand_series,
    expression_of_frac,
    inline,
    lit,
    mul,
    to_text,
)

_F1 = FuncRef("f", 1)
_G1 = FuncRef("g", 1)


# T_0, T_1, ...: each table is built once per process, from the one before
_TABLES = [MappingProxyType({(1,): ONE})]


def derivative_transfer(k: int) -> Mapping:
    """Table for f^(k) along g: G-monomial -> coefficient expression, as a
    read-only mapping.

    T_0 is G_0 itself; each step differentiates and divides by g', with
    a G-derivative raising the index and costing a factor f'/g'.
    """
    if k < 0:
        raise DiffPolyError("derivative index must be nonnegative")
    while len(_TABLES) <= k:
        _TABLES.append(MappingProxyType(_next_table(_TABLES[-1])))
    return _TABLES[k]


def _next_table(table: Mapping) -> dict:
    nxt = {}

    def put(mono: DiffMono, coeff: Expression):
        if coeff == ZERO:
            return
        nxt[mono] = add(nxt[mono], coeff) if mono in nxt else coeff

    for mono, c in table.items():
        put(mono, div(differentiate(c), _G1))
        for j, e in enumerate(mono):
            if not e:
                continue
            bumped = list(mono) + [0] * (j + 2 - len(mono))
            bumped[j] -= 1
            bumped[j + 1] += 1
            put(mono_of(bumped), div(mul(mul(c, lit(e)), _F1), _G1))
    return nxt


def _table_product(a: Mapping, b: Mapping) -> dict:
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_product(ma, mb)
            c = mul(ca, cb)
            out[m] = add(out[m], c) if m in out else c
    return out


def transfer_support(p: DiffPoly) -> dict:
    """Rewrite P[f] along g: G-monomial -> coefficient expression.

    Coefficients of P move inside g (z becomes a reference to g); each
    derivative factor is replaced by its transfer table.
    """
    total: dict = {}
    for mono, coeff in p.terms.items():
        acc = {(): expression_of_frac(coeff, FuncRef("g"))}
        for k, e in enumerate(mono):
            for _ in range(e):
                acc = _table_product(acc, derivative_transfer(k))
        for m, c in acc.items():
            total[m] = add(total[m], c) if m in total else c
    return {m: c for m, c in total.items() if c != ZERO}


def support_monomials(support: dict):
    """G-monomials in ascending canonical order."""
    return sorted(support, key=mono_rank)


def max_support_weight(support: dict) -> int:
    return max((mono_weight(m) for m in support), default=0)


def table_text(table: Mapping) -> str:
    """Display form of a transfer table, heaviest monomial first."""
    parts = []
    for mono in sorted(table, key=mono_rank, reverse=True):
        gtxt = "*".join(
            (f"G{j}" if e == 1 else f"G{j}^{e}") for j, e in enumerate(mono) if e
        ) or "1"
        parts.append(f"({to_text(table[mono])})*{gtxt}")
    return " + ".join(parts) if parts else "0"


def bound_pair(f_expr: Expression, g_expr: Expression, env: DefinitionEnvironment) -> DefinitionEnvironment:
    """A frozen environment binding the reserved names f and g, which the
    transfer coefficients read, to the pair's inlined bodies."""
    bound = DefinitionEnvironment()
    bound.define("f", inline(f_expr, env))
    bound.define("g", inline(g_expr, env))
    bound.freeze()
    return bound


def transfer_residual(support: dict, bound: DefinitionEnvironment, center, order: int, mode: str = "exact"):
    """Series of the transferred identity; zero when f and g commute and
    P[f] vanishes."""
    return _transfer_terms(support, bound, center, order, mode)[0]


def _transfer_terms(support: dict, bound: DefinitionEnvironment, center, order: int, mode):
    """Jet.residual of the support on the stack G_0..G_depth, G_j = g^(j)
    read at f, that the pair keeps with its series of f and g for this
    center and order; the coefficients read those series too."""
    coeffs = {m: expand_series(c, center, order, mode=mode, env=bound) for m, c in support.items()}
    return bound.expansions(center, order, mode).stack("g", "f").residual(coeffs, order)


def verify_transfer(
    p: DiffPoly,
    f_expr: Expression,
    g_expr: Expression,
    env: DefinitionEnvironment,
    order: int = 20,
    center=0,
    mode: str = "exact",
) -> bool:
    """Check the rewritten identity for a concrete permutable pair: exactly,
    or in numeric mode within the numeric domain's tolerance relative to
    its largest term."""
    support = transfer_support(p)
    res, terms = _transfer_terms(support, bound_pair(f_expr, g_expr, env), center, order, mode)
    return res.domain.vanishes(res, terms)


def support_text(support: dict):
    """G-monomials as y-monomial texts, ascending."""
    return [diff_mono_text(m) for m in support_monomials(support)]
