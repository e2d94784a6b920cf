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

from .diffpoly import (
    DiffMono,
    DiffPoly,
    DiffPolyError,
    Jet,
    diff_mono_text,
    mono_of,
    mono_order,
    mono_product,
    mono_rank,
    mono_weight,
)
from .expr import (
    Compose,
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


def derivative_transfer(k: int) -> dict:
    """Table for f^(k) along g: G-monomial -> coefficient expression.

    T_0 is G_0 itself; each step differentiates and divides by g', with
    a G-derivative raising the index and costing a factor f'/g'.
    """
    if k < 0:
        raise DiffPolyError("derivative index must be nonnegative")
    table = {(1,): ONE}
    for _ in range(k):
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
        table = nxt
    return table


def _table_product(a: dict, b: dict) -> dict:
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
    tables = {}

    def table(k: int) -> dict:
        if k not in tables:
            tables[k] = derivative_transfer(k)
        return tables[k]

    total: dict = {}
    for mono, coeff in p.terms.items():
        acc = {(): expression_of_frac(coeff, FuncRef("g"))}
        for k, e in enumerate(mono):
            for _ in range(e):
                acc = _table_product(acc, table(k))
        for m, c in acc.items():
            total[m] = add(total[m], c) if m in total else c
    return {m: c for m, c in total.items() if c != ZERO}


def support_monomials(support: dict):
    """G-monomials in ascending canonical order."""
    return sorted(support, key=mono_rank)


def max_support_weight(support: dict) -> int:
    return max((mono_weight(m) for m in support), default=0)


def table_text(table: dict) -> str:
    """Display form of a transfer table, heaviest monomial first."""
    parts = []
    for mono in sorted(table, key=mono_rank, reverse=True):
        gtxt = "*".join(
            (f"G{j}" if e == 1 else f"G{j}^{e}") for j, e in enumerate(mono) if e
        ) or "1"
        parts.append(f"({to_text(table[mono])})*{gtxt}")
    return " + ".join(parts) if parts else "0"


def bound_pair(f_expr: Expression, g_expr: Expression, env: DefinitionEnvironment) -> DefinitionEnvironment:
    """Environment binding the reserved names used by transfer coefficients."""
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
    """Jet.residual of the support on the stack G_0..G_depth."""
    # G_j = g^(j) at f(z): the composition expands the reference g^(j)
    # with z bound to the series of f, like any other composition
    depth = max(map(mono_order, support), default=0)
    gs = [
        expand_series(Compose(FuncRef("g", j), FuncRef("f")), center, order, mode=mode, env=bound)
        for j in range(depth + 1)
    ]
    coeffs = {m: expand_series(c, center, order, mode=mode, env=bound) for m, c in support.items()}
    return Jet(gs).residual(coeffs, order)


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
