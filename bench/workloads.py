"""The benchmark's workloads: inputs made from a seed, the operations run
on them through adekit's public API, and the check of each output.

Every operation returns a plain record (strings, numbers, tuples) so a
traced and an untraced pass can be compared for equality, and every
record goes to a check from ``check.py``, which does not use adekit.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable

import check

# Scale factors a for subjects such as sin(a*z), and translate shifts k
# for the pairs z + exp(z), z + 2*pi*i*k + exp(z), which commute for every
# integer k.  Each scale keeps the cell of the subject's equation known by
# calculus.  A sign flip leaves the work unchanged (the same numbers of
# fraction constructions, series products and polynomial divisions, with
# integers of the same size), so a pass costs the same whichever the seed
# draws.  a = 1 is left out because the parser drops the factor.
SCALES = ("2", "-2")
SHIFTS = (1, -1)

# Orders, bounds and sample counts, chosen so that no single operation
# takes more than about a second (iterate_ade about three) and a pass a
# few seconds: a run then times each operation many times.
SIN_BOUNDS = dict(max_degree=2, max_coeff_degree=1)
TOWER_BOUNDS = dict(max_degree=2, max_coeff_degree=0)
RELATION_DEGREE = 3
CORPUS_ORDER = 6
GROWTH_SAMPLES = 2**12
CHARACTERISTIC_SAMPLES = 2**14
CHARACTERISTIC_RADII = (1.0, 3.0, 5.0, 8.0)


@dataclass
class Op:
    """One timed call: ``run`` returns a record, ``check`` raises
    ``check.CheckError`` when the record is wrong.  ``faulty`` marks the
    one operation that fails on every pass because of a known fault."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    faulty: bool = False


def _scale(rng: random.Random) -> str:
    return rng.choice(SCALES)


def _minus(a: str) -> str:
    """Text of "- a*y0" for a printed scale factor a."""
    return f"+ {a[1:]}*y0" if a.startswith("-") else f"- {a}*y0"


def _outcome_record(ak, out):
    stages = tuple((s["weight"], s["degree"], s["coeff_degree"], s["unknowns"], s["rank"]) for s in out.escalations)
    return ak.ade_text(out.ade), tuple(out.found_at), stages


def _cells_before(cell, max_degree, max_coeff_degree, min_weight=1):
    """Escalation cells visited before ``cell``: weight, then degree, then
    coefficient degree, as find_ade documents."""
    out = []
    for w in range(min_weight, cell[0] + 1):
        for d in range(1, max_degree + 1):
            for c in range(max_coeff_degree + 1):
                if (w, d, c) == tuple(cell):
                    return out
                out.append((w, d, c))
    raise check.CheckError(f"cell {cell} is outside the search bounds")


def _search_check(family, a, what, cell, max_degree, max_coeff_degree, min_weight=1, center=0j):
    """Check of a find_ade record: the calculus cell, the equation on the
    closed form, and every earlier cell an honest negative."""
    derivs = check.closed_form(family, complex(a))
    earlier = _cells_before(cell, max_degree, max_coeff_degree, min_weight)

    def run_check(rec):
        text, found_at, stages = rec
        check.check_equal(found_at, cell, f"found_at of {what}")
        check.check_equation(text, derivs, center)
        check.check_stages(stages, earlier, what)

    return run_check


def _find_op(ak, name, text, family, a, cell, *, max_degree=3, max_coeff_degree=4, min_weight=1, **kwargs):
    subject = ak.parse(text)
    kw = dict(min_weight=min_weight, max_degree=max_degree, max_coeff_degree=max_coeff_degree, **kwargs)
    return Op(
        name,
        lambda: _outcome_record(ak, ak.find_ade(subject, ak.EMPTY_ENV, **kw)),
        _search_check(family, a, text, cell, max_degree, max_coeff_degree, min_weight, kwargs.get("center", 0)),
    )


# ---------------------------------------------------------------------------
# search: multi-stage exact escalations


def search_ops(ak, rng):
    """The acceptance-09 searches, with the escalation of sin cut to
    degree 2 and coefficient degree 1 and that of the tower to degree 2
    and coefficient degree 0, so that no search takes much over a second;
    the cells found are the same as with the default bounds."""
    a = [_scale(rng) for _ in range(5)]
    return [
        _find_op(ak, "find_ade exp", f"exp({a[0]}*z)", "exp", a[0], (1, 1, 0)),
        _find_op(ak, "find_ade sin", f"sin({a[1]}*z)", "sin", a[1], (2, 1, 0), **SIN_BOUNDS),
        _find_op(ak, "find_ade z+exp", f"z+exp({a[2]}*z)", "translate", a[2], (1, 1, 1)),
        _find_op(
            ak, "find_ade z+exp weight 2", f"z+exp({a[3]}*z)", "translate", a[3], (2, 1, 0),
            min_weight=2, max_coeff_degree=0,
        ),
        _find_op(ak, "find_ade exp(exp)", f"exp(exp({a[4]}*z))", "tower", a[4], (2, 2, 0), **TOWER_BOUNDS),
    ]


# ---------------------------------------------------------------------------
# iterate: eliminations over Z[i][exp(a)]


def iterate_ops(ak, rng):
    """The second iterate of exp(a*z) through iterate_ade, and a
    relation search around z = 1 that certifies exp(b*z), ..., exp(4*b*z)
    independent over polynomials of degree 3.  Distinct exponentials are
    linearly independent over C[z], so the search must end full rank:
    one 27 x 16 elimination over Z[i][exp(b)] whose series are cheap."""
    a, b = _scale(rng), _scale(rng)
    exp_a = ak.parse(f"exp({a}*z)")
    p = ak.parse_ade(f"y1 {_minus(a)}")
    exps = [ak.parse(f"exp({m}*{b}*z)") for m in range(1, 5)]

    def check_independent(rec):
        found, rank, unknowns = rec
        check.check_equal(found, False, "relation among distinct exponentials")
        full = 4 * (RELATION_DEGREE + 1)
        check.check_equal((rank, unknowns), (full, full), "rank of the exponential relation search")

    return [
        Op(
            "iterate_ade exp",
            lambda: _outcome_record(ak, ak.iterate_ade(exp_a, p, 2, ak.EMPTY_ENV)),
            # iterate_ade searches the composite at weight 2, degree <= 2 and
            # coefficient degree <= 2
            _search_check("iterate_exp", a, "the second iterate", (2, 2, 0), 2, 2, min_weight=2),
        ),
        Op(
            "relation_search exponentials",
            lambda: (lambda r: (r.found, r.rank, r.num_unknowns))(
                ak.relation_search(exps, ak.EMPTY_ENV, degree=RELATION_DEGREE, center=1)
            ),
            check_independent,
        ),
    ]


# ---------------------------------------------------------------------------
# transfer: chain rewriting and composition


def _corpus_equation(p):
    """P written on f: sum of coeff * prod f^(k)^e, as in acceptance 04."""
    from adekit.expr import ZERO, FuncRef, add, expression_of_frac, mul, pow_

    total = ZERO
    for mono, coeff in p.terms.items():
        term = expression_of_frac(coeff)
        for k, e in enumerate(mono):
            if e:
                term = mul(term, pow_(FuncRef("f", k), e))
        total = add(total, term)
    return total


def _translate_pair(ak, k):
    env = ak.DefinitionEnvironment()
    env.define_text("f", "z+exp(z)")
    env.define_text("g", f"z+{2 * k}*pi*i+exp(z)")
    return env, ak.parse("f", env), ak.parse("g", env)


def _permutable_check(k, what):
    shift = 2j * math.pi * k

    def run_check(rec):
        check.check_equal(rec, (True, None), what)
        check.check_commute(lambda z: z + cmath.exp(z), lambda z: z + shift + cmath.exp(z), check.sample_points(0j))

    return run_check


def _permutable_record(rep):
    return rep.equal, rep.first_mismatch


def transfer_ops(ak, rng):
    """The weight-3 rewrite-identity corpus of acceptance 04 on a power
    pair and a translate pair, then permutability and transfer in both
    directions on the translate pair."""
    from adekit import chain_rewrite
    from adekit.expr import Compose, FuncRef

    k = rng.choice(SHIFTS)
    ops = []
    power = ak.DefinitionEnvironment()
    power.define_text("f", "z^2")
    power.define_text("g", "z^4")
    env, f, g = _translate_pair(ak, k)
    pairs = [
        ((power, ak.parse("f", power), ak.parse("g", power)), 1, "power"),
        ((env, f, g), 0, "translate"),
    ]
    for (pair_env, pf, pg), center, label in pairs:
        bound = chain_rewrite.bound_pair(pf, pg, pair_env)
        c = ak.Frac.of(center)
        for mono in ak.candidate_monomials(3, 3):
            p = ak.DiffPoly.monomial(mono)
            rhs_expr = Compose(_corpus_equation(p), FuncRef("g"))

            def run(p=p, rhs_expr=rhs_expr, bound=bound, c=c):
                support = ak.transfer_support(p)
                lhs = chain_rewrite.transfer_residual(support, bound, c, CORPUS_ORDER)
                rhs = ak.expand_series(rhs_expr, c, CORPUS_ORDER, env=bound)
                return (
                    ak.max_support_weight(support),
                    tuple(str(x) for x in lhs.coeffs),
                    tuple(str(x) for x in rhs.coeffs),
                )

            def check_identity(rec, weight=p.weight, mono=mono):
                check.check_equal(rec[0], weight, f"support weight of {mono}")
                check.check_equal(rec[1], rec[2], f"rewrite identity for {mono}")

            ops.append(Op(f"rewrite {label} {mono}", run, check_identity))

    p = ak.parse_ade("y2 - y1 + 1")
    ops.append(
        Op(
            "check_permutable translate",
            lambda: _permutable_record(ak.check_permutable(f, g, env, order=16)),
            _permutable_check(k, "check_permutable on the translate pair"),
        )
    )

    def transfer_record(rep):
        return (rep.status, rep.q, ak.ade_text(rep.output_ade) if rep.output_ade else None, rep.verified_order)

    def transfer_check(derivs):
        def run_check(rec):
            check.check_equal(rec[:2], ("ok", 1), "transfer status and iterate count")
            check.check_equation(rec[2], derivs)

        return run_check

    ops.append(
        Op(
            "transfer_ade f to g",
            lambda: transfer_record(ak.transfer_ade(f, p, g, env, q=1)),
            transfer_check(check.closed_form("translate", 1, 2j * math.pi * k)),
        )
    )
    ops.append(
        Op(
            "transfer_ade g to f",
            lambda: transfer_record(ak.transfer_ade(g, p, f, env, q=1)),
            transfer_check(check.closed_form("translate", 1, 0)),
        )
    )
    return ops


# ---------------------------------------------------------------------------
# float: numeric mode and growth scans


def float_ops(ak, rng):
    """Numeric searches and the growth scans, plus numeric find_ade on
    sin(z), which returns a wrong equation on every pass."""
    a = [_scale(rng) for _ in range(5)]
    k = rng.choice(SHIFTS)
    ops = [
        _find_op(ak, "numeric find_ade exp", f"exp({a[0]}*z)", "exp", a[0], (1, 1, 0), center=0.3, mode="numeric"),
        _find_op(ak, "numeric find_ade z+exp", f"z+exp({a[1]}*z)", "translate", a[1], (1, 1, 1), mode="numeric"),
        _find_op(ak, "numeric find_ade exp(z^2)", f"exp({a[2]}*z^2)", "gauss", a[2], (1, 1, 1), mode="numeric"),
    ]

    env, f, g = _translate_pair(ak, k)
    ops.append(
        Op(
            "numeric check_permutable",
            lambda: _permutable_record(ak.check_permutable(f, g, env, order=16, mode="numeric")),
            _permutable_check(k, "numeric check_permutable on the translate pair"),
        )
    )
    circle = [ak.parse(f"sin({a[3]}*z)^2"), ak.parse(f"cos({a[3]}*z)^2"), ak.parse("1")]
    ops.append(
        Op(
            "numeric relation_search",
            lambda: tuple(
                str(c) for c in ak.relation_search(circle, ak.EMPTY_ENV, degree=0, mode="numeric").certificate or ()
            ),
            lambda rec: check.check_equal(rec, ("1", "1", "-1"), "circular identity"),
        )
    )

    exp_z, tower = ak.parse("exp(z)"), ak.parse("exp(exp(z))")

    def run_baker():
        rep = ak.baker_scan(exp_z, tower, ak.EMPTY_ENV, 5, [2.0, 3.0, 4.0], samples=GROWTH_SAMPLES)
        return (rep.p, tuple((row.p, row.margin, row.strict) for row in rep.rows))

    def check_baker(rec):
        check.check_equal(rec[0], 3, "first strict iterate level")
        second = [row for row in rec[1] if row[0] == 2]
        check.check_equal(len(second), 3, "p = 2 rows")
        for _, margin, strict in second:
            # exp(exp(z)) is the second iterate itself: an equality
            check.check_close(margin, 0.0, 1e-9, "p = 2 margin")
            check.check_equal(strict, False, "p = 2 strictness")

    ops.append(Op("baker_scan", run_baker, check_baker))

    scaled = ak.parse(f"exp({a[4]}*z)")
    modulus = abs(complex(a[4]))
    for r in CHARACTERISTIC_RADII:
        ops.append(
            Op(
                f"characteristic r={r}",
                lambda r=r: ak.characteristic(scaled, ak.EMPTY_ENV, r, samples=CHARACTERISTIC_SAMPLES),
                # T(r, exp(a z)) = |a| r / pi
                lambda got, r=r: check.check_close(got, modulus * r / math.pi, 1e-4 * modulus * r / math.pi, "T(r)"),
            )
        )
    ops.append(
        Op(
            "log_convexity",
            lambda: tuple(row.holds for row in ak.log_convexity(scaled, ak.EMPTY_ENV, 1.0, 10.0, points=10, samples=GROWTH_SAMPLES)),
            lambda rec: check.check_equal(rec, (True,) * 8, "convexity rows"),
        )
    )

    suite_r = 4.0

    def check_suite(rec):
        for name, holds in rec:
            if name == "shrunk_modulus_dominates_power":
                # log(c) + log M(r/4, exp) = log(1/4) + r/4 against 4 log r
                check.check_equal(holds, math.log(0.25) + suite_r / 4 > 4 * math.log(suite_r), name)
            else:
                check.check_equal(holds, True, name)

    ops.append(
        Op(
            "growth_suite",
            lambda: tuple(
                (row.name, row.holds) for row in ak.growth_suite(exp_z, tower, ak.EMPTY_ENV, suite_r, samples=GROWTH_SAMPLES)
            ),
            check_suite,
        )
    )

    sin_z = ak.parse("sin(z)")
    sin_check = _search_check("sin", "1", "sin(z)", (2, 1, 0), 3, 4)
    ops.append(
        Op(
            "numeric find_ade sin",
            lambda: _outcome_record(ak, ak.find_ade(sin_z, ak.EMPTY_ENV, mode="numeric")),
            sin_check,
            faulty=True,
        )
    )
    return ops


WORKLOADS = {
    "search": search_ops,
    "iterate": iterate_ops,
    "transfer": transfer_ops,
    "float": float_ops,
}


def build(name: str, seed: int):
    """Import adekit and build the named workload's operations."""
    import adekit

    return WORKLOADS[name](adekit, random.Random(seed))
