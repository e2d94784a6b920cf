"""End-to-end flows over the symbolic core.

check_permutable compares both composition orders as exact or floating
series.  compose_ade and iterate_ade bound the search for an equation of
a composite by the weights, degrees and coefficient degrees of the input
equations.  transfer_ade carries an equation across a permutable pair:
rewrite along the partner, search the support for a polynomial relation,
and escalate to a higher iterate of the source when the support admits
none.  All three check first that each input equation holds for its
function, since no search from a false one could succeed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diffpoly import (
    DiffPoly,
    Jet,
    diff_mono_text,
    holds_on,
    normalize,
)
from .discovery import (
    DiscoveryError,
    SearchOutcome,
    VerificationError,
    find_ade,
    search_stage,
)
from .chain_rewrite import support_monomials, transfer_support
from .expr import Compose, DefinitionEnvironment, Expression, expand_series


def _require_holds(p: DiffPoly, f: Expression, env, center, mode, name: str):
    """Reject an input equation that does not hold for its function: no
    search built on it could succeed."""
    if not holds_on(p, f, env, center, 12 + p.order, mode):
        raise DiscoveryError(f"the input equation does not hold for {name}")


@dataclass
class PermutabilityReport:
    equal: bool
    order: int
    first_mismatch: int | None
    mode: str


def check_permutable(
    f: Expression,
    g: Expression,
    env: DefinitionEnvironment,
    order: int = 16,
    center=0,
    mode: str = "exact",
) -> PermutabilityReport:
    """Compare f(g) and g(f) as series around the center."""
    fog = expand_series(Compose(f, g), center, order, mode=mode, env=env)
    gof = expand_series(Compose(g, f), center, order, mode=mode, env=env)
    mismatch = fog.domain.first_mismatch(fog, gof)
    return PermutabilityReport(mismatch is None, order, mismatch, mode)


def compose_ade(
    p: DiffPoly,
    q: DiffPoly,
    f: Expression,
    g: Expression,
    env: DefinitionEnvironment,
    center=0,
    mode: str = "exact",
) -> SearchOutcome:
    """Equation for f(g) searched at the combined weight of the inputs,
    with degree and coefficient-degree budgets added.  Each equation must
    hold for its function."""
    _require_holds(p, f, env, center, mode, "f")
    _require_holds(q, g, env, center, mode, "g")
    return _composite_search(p, q, f, g, env, center, mode)


def _composite_search(p, q, f, g, env, center, mode) -> SearchOutcome:
    """compose_ade's search, for equations known to hold."""
    if p.is_zero() or q.is_zero():
        raise DiscoveryError("composition needs two nonzero equations")
    w = p.weight + q.weight
    return find_ade(
        Compose(f, g),
        env,
        center=center,
        min_weight=w,
        max_weight=w,
        max_degree=p.total_degree + q.total_degree,
        max_coeff_degree=p.coeff_degree + q.coeff_degree + 2,
        mode=mode,
    )


def iterate_ade(
    f: Expression,
    p: DiffPoly,
    count: int,
    env: DefinitionEnvironment,
    center=0,
    mode: str = "exact",
) -> SearchOutcome:
    """Equation for the count-fold composition of f with itself, built up
    one composition at a time."""
    if count < 1:
        raise DiscoveryError("iterate count must be positive")
    if p.is_zero():
        raise DiscoveryError("cannot iterate the zero equation")
    _require_holds(p, f, env, center, mode, "f")
    if count == 1:
        return SearchOutcome(
            ade=normalize(p),
            found_at=(p.weight, p.total_degree, p.coeff_degree),
            num_unknowns=0,
            num_equations=0,
            solve_order=0,
            verify_order=0,
            kernel_dimension=0,
            escalations=[],
        )
    acc_expr = f
    acc_ade = p
    outcome = None
    for _ in range(count - 1):
        outcome = _composite_search(p, acc_ade, f, acc_expr, env, center, mode)
        acc_expr = Compose(f, acc_expr)
        acc_ade = outcome.ade
    return outcome


@dataclass
class TransferReport:
    status: str
    q: int
    intermediate_ade: DiffPoly | None
    support: list
    output_ade: DiffPoly | None
    verified_order: int
    escalations: list = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.status == "ok"

    def support_text(self):
        return [diff_mono_text(m) for m in self.support]


def transfer_ade(
    f: Expression,
    p: DiffPoly,
    g: Expression,
    env: DefinitionEnvironment,
    q: int = 1,
    max_q: int = 3,
    center=0,
    verified_order: int = 30,
    max_relation_degree: int | None = None,
    mode: str = "exact",
) -> TransferReport:
    """Carry an equation for f over to its permutable partner g.

    For each iterate count starting at q, the equation of the iterate is
    rewritten along g and its support searched for a polynomial relation
    of escalating coefficient degree; the first verified relation is the
    answer.  A support that admits none sends the search to the next
    iterate, which enlarges the comparison function and tames the
    coefficients.  A pair whose compositions differ as series is
    rejected before any search.
    """
    if q < 1 or max_q < q:
        raise DiscoveryError("iterate bounds must satisfy 1 <= q <= max_q")
    if p.is_zero():
        raise DiscoveryError("cannot transfer the zero equation")
    if max_relation_degree is not None and max_relation_degree < 0:
        raise DiscoveryError("the relation degree bound must be nonnegative")
    if verified_order < 0:
        raise DiscoveryError("the verification order must be nonnegative")
    _require_holds(p, f, env, center, mode, "the source function")
    commute = check_permutable(f, g, env, center=center, mode=mode)
    if not commute.equal:
        raise DiscoveryError(
            f"the functions do not commute: f(g) and g(f) differ at index {commute.first_mismatch}"
        )

    escalations = []
    g_jet = Jet.expanding(g, env, center, mode)
    # the iterate of f and its equation, each built from the last
    composite, intermediate = f, p
    for qq in range(1, max_q + 1):
        if qq > 1:
            intermediate = _composite_search(p, intermediate, f, composite, env, center, mode).ade
            composite = Compose(f, composite)
        if qq < q:
            continue
        support_map = transfer_support(intermediate)
        support = support_monomials(support_map)
        cap = (
            max_relation_degree
            if max_relation_degree is not None
            else intermediate.coeff_degree + 2
        )
        for deg in range(cap + 1):
            unknowns = len(support) * (deg + 1)
            candidate, rank, _, _ = search_stage(g_jet, support, deg, center)
            if candidate is not None:
                break
            escalations.append({"q": qq, "relation_degree": deg, "rank": rank, "unknowns": unknowns})
        if candidate is None:
            continue
        if not holds_on(candidate, g, env, center, verified_order, mode):
            raise VerificationError(
                f"transferred candidate {candidate} failed verification at order {verified_order}"
            )
        return TransferReport(
            status="ok",
            q=qq,
            intermediate_ade=intermediate,
            support=support,
            output_ade=candidate,
            verified_order=verified_order,
            escalations=escalations,
        )
    return TransferReport(
        status="exhausted",
        q=max_q,
        intermediate_ade=intermediate,
        support=support,
        output_ade=None,
        verified_order=0,
        escalations=escalations,
    )
