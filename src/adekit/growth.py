"""Numeric growth scale of entire functions.

Values are carried as log-modulus plus angle, so towers like exp(exp(z))
stay finite long after complex floats overflow: the log-modulus of the
third exponential of 4 is about 5e23, a perfectly ordinary float.  Only
when an operation needs the value itself (another exponential on top, a
trigonometric call) and the modulus exceeds float range does the result
degrade to an overflow marker, which maximum-modulus readings report as
infinity and mean-based readings refuse.

A circle is evaluated node by node in blocks of samples: the post-order
of the expression is folded once per block, and each node's value is a
list with one (log_abs, angle) pair or OVERFLOW per sample.  Each node
type has one list kernel (_add_list, _mul_list, _div_list, _pow_list,
_exp_list, _trig_list), a plain loop over its operands' lists; _exp_list
computes exp(log_abs) again only when the log modulus changes from one
sample to the next.  The sample angles are reduced once per sample
count, in a table that every circle with that count reads.  Every sample
goes through the same float operations as when it is evaluated alone,
so no reading depends on the block size.
"""

from __future__ import annotations

import cmath
import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

from .expr import (
    Add,
    Compose,
    Cos,
    DefinitionEnvironment,
    Div,
    Exp,
    Expression,
    Lit,
    Mul,
    PiConst,
    Pow,
    Sin,
    Sub,
    Var,
    inline,
)

TAU = 2.0 * math.pi
EXP_LIMIT = 709.0
STRICT_TOL = 1e-9


class GrowthError(ValueError):
    pass


class _OverflowMarker:
    __slots__ = ()

    def __repr__(self):
        return "overflow"


OVERFLOW = _OverflowMarker()


def _pair(log_abs, angle) -> tuple:
    """A value w = exp(log_abs) * exp(i*angle) in its normal form: floats,
    the angle reduced to [-pi, pi] and 0.0 when it is not finite, and a
    log_abs of -inf for zero."""
    return (float(log_abs), math.remainder(float(angle), TAU) if math.isfinite(angle) else 0.0)


_ZERO = _pair(-math.inf, 0.0)
_UNIT = _pair(0.0, 0.0)


def _pair_of_complex(w: complex) -> tuple:
    if w == 0:
        return _ZERO
    return _pair(math.log(abs(w)), cmath.phase(w))


# One list kernel per node type.  Each takes its operands' lists, one
# entry per sample, and returns the node's list: OVERFLOW stays OVERFLOW,
# and every other sample goes through the float operations of one value
# alone, with _pair's normal form written out: the angle reduced by
# remainder(angle, TAU), or 0.0 when it is not finite.


def _add_list(xs: list, ys: list, negate: bool) -> list:
    """x + y on each sample, or x - y with negate: y's angle turned by pi
    and reduced first, as for a negated value."""
    exp, log, rect, phase, rem, isfinite = math.exp, math.log, cmath.rect, cmath.phase, math.remainder, math.isfinite
    pi, neg_inf = math.pi, -math.inf
    out = []
    append = out.append
    for a, b in zip(xs, ys):
        if a is OVERFLOW or b is OVERFLOW:
            append(OVERFLOW)
            continue
        la, ta = a
        lb, tb = b
        if negate and lb != neg_inf:
            tb += pi
            tb = rem(tb, TAU) if isfinite(tb) else 0.0
        if la == neg_inf:
            append((lb, tb))
            continue
        if lb == neg_inf:
            append(a)
            continue
        # factor out the larger modulus so the residual sum stays in range
        if lb > la:
            la, ta, lb, tb = lb, tb, la, ta
        small = lb - la
        s = rect(1.0, ta) + rect(exp(small) if small > -745.0 else 0.0, tb)
        if s == 0:
            append(_ZERO)
            continue
        t = phase(s)
        append((la + log(abs(s)), rem(t, TAU) if isfinite(t) else 0.0))
    return out


def _mul_list(xs: list, ys: list) -> list:
    rem, isfinite = math.remainder, math.isfinite
    neg_inf = -math.inf
    out = []
    append = out.append
    for a, b in zip(xs, ys):
        if a is OVERFLOW or b is OVERFLOW:
            append(OVERFLOW)
            continue
        la, ta = a
        lb, tb = b
        if la == neg_inf or lb == neg_inf:
            append(_ZERO)
            continue
        t = ta + tb
        append((la + lb, rem(t, TAU) if isfinite(t) else 0.0))
    return out


def _div_list(xs: list, ys: list) -> list:
    rem, isfinite = math.remainder, math.isfinite
    neg_inf = -math.inf
    out = []
    append = out.append
    for a, b in zip(xs, ys):
        if a is OVERFLOW or b is OVERFLOW:
            append(OVERFLOW)
            continue
        la, ta = a
        lb, tb = b
        if lb == neg_inf:
            raise GrowthError("division by zero during growth evaluation")
        if la == neg_inf:
            append(a)
            continue
        t = ta - tb
        append((la - lb, rem(t, TAU) if isfinite(t) else 0.0))
    return out


def _pow_list(xs: list, n: int) -> list:
    if n == 0:
        return [a if a is OVERFLOW else _UNIT for a in xs]
    rem, isfinite = math.remainder, math.isfinite
    neg_inf = -math.inf
    out = []
    append = out.append
    for a in xs:
        if a is OVERFLOW or a[0] == neg_inf:
            append(a)
            continue
        la, ta = a
        t = n * ta
        append((n * la, rem(t, TAU) if isfinite(t) else 0.0))
    return out


def _exp_list(xs: list) -> list:
    exp, rect, rem, isfinite = math.exp, cmath.rect, math.remainder, math.isfinite
    neg_inf = -math.inf
    out = []
    append = out.append
    # the modulus exp(log_abs) of the last sample: every sample of a
    # circle's a*z has the same log modulus
    last, modulus = None, 0.0
    for a in xs:
        if a is OVERFLOW:
            append(a)
            continue
        la, ta = a
        if la == neg_inf:
            append(_UNIT)
            continue
        if la > EXP_LIMIT:
            append(OVERFLOW)
            continue
        if la != last:
            last, modulus = la, exp(la)
        w = rect(modulus, ta)
        t = w.imag
        append((w.real, rem(t, TAU) if isfinite(t) else 0.0))
    return out


def _trig_list(xs: list, fn) -> list:
    exp, log, rect, phase, rem, isfinite = math.exp, math.log, cmath.rect, cmath.phase, math.remainder, math.isfinite
    neg_inf = -math.inf
    out = []
    append = out.append
    for a in xs:
        if a is OVERFLOW:
            append(a)
            continue
        la, ta = a
        if la == neg_inf:
            w = 0j
        elif la > EXP_LIMIT:
            append(OVERFLOW)
            continue
        else:
            w = rect(exp(la), ta)
        try:
            v = fn(w)
        except OverflowError:
            # |sin w| and |cos w| grow like exp(|Im w|)/2
            append((abs(w.imag) - log(2.0), 0.0))
            continue
        if v == 0:
            append(_ZERO)
            continue
        t = phase(v)
        append((log(abs(v)), rem(t, TAU) if isfinite(t) else 0.0))
    return out


# Samples per block of a circle: enough that each node's loop runs long,
# few enough that the per-node lists stay small next to the output.
BLOCK_SAMPLES = 256


def _eval_block(e: Expression, args: list) -> list:
    """Evaluate e on every argument of a block at once, node by node: each
    node's value is a list with one entry per argument, a pair or OVERFLOW.
    A sample sees the same float operations, in the same order, as when
    it is evaluated alone."""
    vals = []
    for node, ops in e._subtrees:
        t = type(node)
        if t is Var:
            v = args
        elif t is Lit:
            v = [_pair_of_complex(node.value.to_complex())] * len(args)
        elif t is PiConst:
            v = [_pair(math.log(math.pi), 0.0)] * len(args)
        elif t is Add or t is Sub:
            v = _add_list(vals[ops[0]], vals[ops[1]], t is Sub)
        elif t is Mul:
            v = _mul_list(vals[ops[0]], vals[ops[1]])
        elif t is Div:
            v = _div_list(vals[ops[0]], vals[ops[1]])
        elif t is Pow:
            v = _pow_list(vals[ops[0]], node.exponent)
        elif t is Exp:
            v = _exp_list(vals[ops[0]])
        elif t is Sin or t is Cos:
            v = _trig_list(vals[ops[0]], cmath.sin if t is Sin else cmath.cos)
        elif t is Compose:
            # the outer runs only on the samples whose inner is a number, so
            # an overflowed sample stays OVERFLOW even under a constant outer
            inner = vals[ops[0]]
            live = [a for a in inner if a is not OVERFLOW]
            outer = iter(_eval_block(node.outer, live) if live else ())
            v = [a if a is OVERFLOW else next(outer) for a in inner]
        else:
            raise TypeError(f"not a closed expression node: {node!r}")
        vals.append(v)
    return vals[-1]


# ---------------------------------------------------------------------------
# Circle statistics


MAX_SAMPLES = 2**20


def _check_samples(samples: int):
    if samples < 64 or samples & (samples - 1):
        raise GrowthError("sample count must be a power of two, at least 64")
    if samples > MAX_SAMPLES:
        raise GrowthError(f"sample count must be at most {MAX_SAMPLES}")


def _check_radius(r: float):
    r = float(r)
    if not math.isfinite(r) or r <= 0:
        raise GrowthError("radius must be a positive finite number")
    return r


@lru_cache(maxsize=None)
def _angles(samples: int) -> array:
    """The angle of every sample of a circle, reduced as _pair reduces it;
    one table per sample count, under 16 MiB over all the counts allowed."""
    return array("d", (math.remainder(TAU * k / samples, TAU) for k in range(samples)))


def circle_log_abs(f: Expression, env: DefinitionEnvironment, r: float, samples: int):
    """log moduli on the circle of radius r; entries may be OVERFLOW."""
    r = _check_radius(r)
    _check_samples(samples)
    closed = inline(f, env)
    log_r = math.log(r)
    angles = _angles(samples)
    out = []
    for start in range(0, samples, BLOCK_SAMPLES):
        args = list(zip(repeat(log_r), angles[start : start + BLOCK_SAMPLES]))
        out += [v if v is OVERFLOW else v[0] for v in _eval_block(closed, args)]
    return out


def _log_max(values: list) -> float:
    if any(v is OVERFLOW for v in values):
        return math.inf
    return max(values)


def _characteristic(values: list, r: float) -> float:
    total = 0.0
    for v in values:
        if v is OVERFLOW:
            raise GrowthError(
                f"modulus overflows float range on the circle r={r}; reduce the radius"
            )
        if v > 0.0:
            total += v
    return total / len(values)


def log_max_modulus(f: Expression, env: DefinitionEnvironment, r: float, samples: int = 1024) -> float:
    """log M(r, f) over a sampled circle; infinity when any sample overflows."""
    return _log_max(circle_log_abs(f, env, r, samples))


def max_modulus(f: Expression, env: DefinitionEnvironment, r: float, samples: int = 1024) -> float:
    """M(r, f); infinity when the modulus exceeds float range."""
    lm = log_max_modulus(f, env, r, samples)
    if lm == -math.inf:
        return 0.0
    try:
        return math.exp(lm)
    except OverflowError:
        return math.inf


def characteristic(f: Expression, env: DefinitionEnvironment, r: float, samples: int = 4096) -> float:
    """Mean of max(log |f|, 0) over the circle, the growth characteristic
    of an entire function."""
    return _characteristic(circle_log_abs(f, env, r, samples), r)


# ---------------------------------------------------------------------------
# Iterate comparisons


def is_transcendental(f: Expression, env: DefinitionEnvironment) -> bool:
    """Whether the closed form still contains an elementary transcendental."""
    return any(
        type(node) in (Exp, Sin, Cos) or (type(node) is Compose and is_transcendental(node.outer, env))
        for node, _ in inline(f, env)._subtrees
    )


def _require_transcendental(f: Expression, env: DefinitionEnvironment, role: str):
    if not is_transcendental(f, env):
        raise GrowthError(f"{role} must be transcendental for iterate comparisons")


def compose_iterate(f_closed: Expression, p: int) -> Expression:
    out = f_closed
    for _ in range(p - 1):
        out = Compose(f_closed, out)
    return out


@dataclass
class BakerRow:
    p: int
    r: float
    log_iterate: float
    log_partner: float
    margin: float
    strict: bool


@dataclass
class BakerReport:
    p: int | None
    rows: list
    tol: float


def baker_scan(
    f: Expression,
    g: Expression,
    env: DefinitionEnvironment,
    max_p: int,
    radii,
    samples: int = 256,
) -> BakerReport:
    """Smallest p with M(r, p-th iterate of f) strictly above M(r, g) on
    every radius given."""
    _require_transcendental(f, env, "the iterated function")
    _require_transcendental(g, env, "the comparison function")
    radii = [_check_radius(r) for r in radii]
    if not radii:
        raise GrowthError("at least one radius is required")
    if max_p < 1:
        raise GrowthError("iterate bound must be positive")
    f_closed = inline(f, env)
    rows = []
    partner = []  # log M(r, g) on each radius, read at p = 1
    for p in range(1, max_p + 1):
        fp = compose_iterate(f_closed, p)
        all_strict = True
        for i, r in enumerate(radii):
            li = log_max_modulus(fp, env, r, samples)
            if p == 1:
                partner.append(log_max_modulus(g, env, r, samples))
            lg = partner[i]
            if math.isinf(li) and math.isinf(lg):
                raise GrowthError(
                    f"both sides overflow at r={r}; reduce the radius to compare"
                )
            margin = li - lg
            strict = margin > STRICT_TOL
            rows.append(BakerRow(p, r, li, lg, margin, strict))
            all_strict = all_strict and strict
        if all_strict:
            return BakerReport(p, rows, STRICT_TOL)
    return BakerReport(None, rows, STRICT_TOL)


# ---------------------------------------------------------------------------
# Inequality suite


@dataclass
class InequalityRow:
    name: str
    r: float
    lhs: float
    rhs: float
    holds: bool
    note: str = ""


def composition_lower_bound(
    f: Expression,
    g: Expression,
    env: DefinitionEnvironment,
    r: float,
    c: float = 0.25,
    samples: int = 1024,
) -> InequalityRow:
    """log M(r, f(g)) >= log M(c*M(r/2, g), f)."""
    r = _check_radius(r)
    if not 0 < c <= 1:
        raise GrowthError("the shrink factor must be in (0, 1]")
    fg = Compose(inline(f, env), inline(g, env))
    lhs = log_max_modulus(fg, env, r, samples)
    inner = log_max_modulus(g, env, r / 2.0, samples)
    if inner > EXP_LIMIT:
        raise GrowthError("inner modulus overflows; reduce the radius")
    rho = c * math.exp(inner)
    rhs = log_max_modulus(f, env, rho, samples)
    return InequalityRow(
        "composition_lower_bound",
        r,
        lhs,
        rhs,
        lhs >= rhs - STRICT_TOL,
        note=f"inner radius {rho:.6g}",
    )


def characteristic_sandwich(
    f: Expression, env: DefinitionEnvironment, r: float, samples: int = 4096
) -> list:
    """T(r) <= log M(r) <= 3 T(2r)."""
    r = _check_radius(r)
    values = circle_log_abs(f, env, r, samples)
    t = _characteristic(values, r)
    lm = _log_max(values)
    if math.isinf(lm):
        raise GrowthError("modulus overflows at this radius")
    t2 = characteristic(f, env, 2.0 * r, samples)
    return [
        InequalityRow("characteristic_below_log_max", r, t, lm, t <= lm + STRICT_TOL),
        InequalityRow("log_max_below_triple_characteristic", r, lm, 3.0 * t2, lm <= 3.0 * t2 + STRICT_TOL),
    ]


def log_convexity(
    f: Expression,
    env: DefinitionEnvironment,
    r_low: float,
    r_high: float,
    points: int = 10,
    samples: int = 1024,
) -> list:
    """Midpoint convexity of log M along a geometric radius grid."""
    r_low = _check_radius(r_low)
    r_high = _check_radius(r_high)
    if r_high <= r_low:
        raise GrowthError("the radius interval is empty")
    if points < 3:
        raise GrowthError("convexity needs at least three grid points")
    ratio = (r_high / r_low) ** (1.0 / (points - 1))
    radii = [r_low * ratio**k for k in range(points)]
    values = [log_max_modulus(f, env, r, samples) for r in radii]
    if any(math.isinf(v) for v in values):
        raise GrowthError("modulus overflows inside the convexity grid")
    rows = []
    scale = max(1.0, max(abs(v) for v in values))
    for k in range(1, points - 1):
        bend = values[k - 1] - 2.0 * values[k] + values[k + 1]
        rows.append(
            InequalityRow(
                "log_convexity",
                radii[k],
                bend,
                0.0,
                bend >= -STRICT_TOL * scale,
                note=f"second difference at grid point {k}",
            )
        )
    return rows


def growth_suite(
    f: Expression,
    g: Expression,
    env: DefinitionEnvironment,
    r: float,
    c: float = 0.25,
    samples: int = 1024,
) -> list:
    """The standing inequalities behind iterate comparisons, evaluated at
    one radius for a pair of entire functions."""
    r = _check_radius(r)
    rows = [composition_lower_bound(f, g, env, r, c, samples)]
    rows.extend(characteristic_sandwich(f, env, r, samples))
    rows.extend(log_convexity(f, env, r / 2.0, 2.0 * r, 10, samples))

    # hypothesis radius check: c*M(r/4, f) must dominate a power of r
    lm_quarter = log_max_modulus(f, env, r / 4.0, samples)
    lhs = math.log(c) + lm_quarter
    rhs = 4.0 * math.log(r)
    rows.append(
        InequalityRow("shrunk_modulus_dominates_power", r, lhs, rhs, lhs > rhs, note="log scale")
    )

    # smallest radius where T(r^4, g) has tripled relative to T(r, g)
    probe = None
    lo = max(0.5, r / 8.0)
    ratio = (r / lo) ** (1.0 / 11.0)
    for k in range(12):
        rr = lo * ratio**k
        try:
            if characteristic(g, env, rr**4, samples) >= 3.0 * characteristic(g, env, rr, samples):
                probe = rr
                break
        except GrowthError:
            break
    rows.append(
        InequalityRow(
            "characteristic_triples_under_fourth_power",
            probe if probe is not None else math.nan,
            3.0,
            3.0,
            probe is not None,
            note="smallest radius found" if probe is not None else "not reached",
        )
    )
    return rows
