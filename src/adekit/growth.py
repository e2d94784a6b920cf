"""Numeric growth scale of entire functions.

Values are carried as log-modulus plus angle, so towers like exp(exp(z))
stay finite long after complex floats overflow: the log-modulus of the
third exponential of 4 is about 5e23, a perfectly ordinary float.  Only
when an operation needs the value itself (another exponential on top, a
trigonometric call) and the modulus exceeds float range does the result
degrade to an overflow marker, which maximum-modulus readings report as
infinity and mean-based readings refuse.

A circle is evaluated node by node in blocks of samples: the post-order
of the expression is folded once per block, and each node's value is two
columns with one entry per sample, the log moduli and the angles, with
OVERFLOW in the log column for a sample past float range.  Each node
type has one kernel (_add_cols, _mul_cols, _div_cols, _pow_cols,
_exp_cols, _trig_cols), which checks its operands' log columns once per
block.  When every entry is a finite float, and for exp, sin and cos at
most EXP_LIMIT, the kernel runs list comprehensions; a block that holds
an edge (OVERFLOW, an infinity, a nan, a modulus past EXP_LIMIT) runs the
kernel's per-sample loop (_add_loop, ...) over the same columns.  The
root needs no angle, since circle_log_abs reads only the root's log
column: the root kernel skips its angle comprehension, and a root
exponential takes exp(log_abs)*cos(angle) alone, the real part
cmath.rect returns.  The sample angles are reduced once per sample
count, in a table that every circle with that count reads.  Both routes
put every sample through the float operations it would go through
alone, in the same order, so no reading depends on the block size or on
the route a block takes.
"""

from __future__ import annotations

import cmath
import math
from array import array
from dataclasses import dataclass
from functools import lru_cache

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


def _pair_of_complex(w: complex) -> tuple:
    if w == 0:
        return _pair(-math.inf, 0.0)
    return _pair(math.log(abs(w)), cmath.phase(w))


# One kernel per node type.  Each takes its operands' columns, a log
# column xs (ys) and an angle column us (vs), and returns the node's two
# columns; with polar false it may return None for the angles.  Angles
# are always finite, so only the log columns are checked.  A clean block
# runs comprehensions; any other block runs the kernel's loop, which
# keeps OVERFLOW (with angle 0.0) and writes _pair's normal form out: the
# angle reduced by remainder(angle, TAU), or 0.0 when it is not finite.
# Where a comprehension drops that test, its angle is finite.


def _finite(xs) -> bool:
    """Whether every entry of a log column is a finite float: OVERFLOW
    cannot be summed, and a sum over an infinity or a nan is not finite.
    A sum that overflows on finite entries only sends its block down the
    loop."""
    try:
        return math.isfinite(sum(xs))
    except TypeError:
        return False


def _below_limit(xs) -> bool:
    """_finite, and no modulus past EXP_LIMIT, so that exp, sin and cos
    can form the value itself on every sample."""
    return _finite(xs) and max(xs) <= EXP_LIMIT


def _add_cols(xs, us, ys, vs, negate: bool, polar: bool):
    """x + y on each sample, or x - y with negate: y's angle turned by pi
    and reduced first, as for a negated value.  The larger modulus is
    factored out, so the residual sum stays in range."""
    if not (_finite(xs) and _finite(ys)):
        return _add_loop(xs, us, ys, vs, negate)
    exp, log, rect, phase, rem = math.exp, math.log, cmath.rect, cmath.phase, math.remainder
    if negate:
        vs = [rem(v + math.pi, TAU) for v in vs]
    # x leads unless y is larger; small is the smaller log modulus less
    # the larger
    smalls = [y - x if y <= x else x - y for x, y in zip(xs, ys)]
    scales = [exp(small) if small > -745.0 else 0.0 for small in smalls]
    sums = [
        rect(1.0, u) + rect(e, v) if y <= x else rect(1.0, v) + rect(e, u)
        for x, u, y, v, e in zip(xs, us, ys, vs, scales)
    ]
    logs = [(x if y <= x else y) + log(abs(s)) if s else -math.inf for x, y, s in zip(xs, ys, sums)]
    return logs, [rem(phase(s), TAU) if s else 0.0 for s in sums] if polar else None


def _add_loop(xs, us, ys, vs, negate: bool):
    exp, log, rect, phase, rem, isfinite = math.exp, math.log, cmath.rect, cmath.phase, math.remainder, math.isfinite
    pi, neg_inf = math.pi, -math.inf
    logs, angles = [], []
    for la, ta, lb, tb in zip(xs, us, ys, vs):
        if la is OVERFLOW or lb is OVERFLOW:
            la, ta = OVERFLOW, 0.0
        else:
            if negate and lb != neg_inf:
                tb += pi
                tb = rem(tb, TAU) if isfinite(tb) else 0.0
            if la == neg_inf:
                la, ta = lb, tb
            elif lb != neg_inf:
                if lb > la:
                    la, ta, lb, tb = lb, tb, la, ta
                small = lb - la
                s = rect(1.0, ta) + rect(exp(small) if small > -745.0 else 0.0, tb)
                if s == 0:
                    la, ta = neg_inf, 0.0
                else:
                    t = phase(s)
                    la, ta = la + log(abs(s)), rem(t, TAU) if isfinite(t) else 0.0
        logs.append(la)
        angles.append(ta)
    return logs, angles


def _mul_cols(xs, us, ys, vs, polar: bool):
    if not (_finite(xs) and _finite(ys)):
        return _mul_loop(xs, us, ys, vs)
    rem = math.remainder
    return [x + y for x, y in zip(xs, ys)], [rem(u + v, TAU) for u, v in zip(us, vs)] if polar else None


def _mul_loop(xs, us, ys, vs):
    rem, isfinite = math.remainder, math.isfinite
    neg_inf = -math.inf
    logs, angles = [], []
    for la, ta, lb, tb in zip(xs, us, ys, vs):
        if la is OVERFLOW or lb is OVERFLOW:
            la, t = OVERFLOW, 0.0
        elif la == neg_inf or lb == neg_inf:
            la, t = neg_inf, 0.0
        else:
            la, t = la + lb, ta + tb
            t = rem(t, TAU) if isfinite(t) else 0.0
        logs.append(la)
        angles.append(t)
    return logs, angles


def _div_cols(xs, us, ys, vs, polar: bool):
    if not (_finite(xs) and _finite(ys)):
        return _div_loop(xs, us, ys, vs)
    rem = math.remainder
    return [x - y for x, y in zip(xs, ys)], [rem(u - v, TAU) for u, v in zip(us, vs)] if polar else None


def _div_loop(xs, us, ys, vs):
    rem, isfinite = math.remainder, math.isfinite
    neg_inf = -math.inf
    logs, angles = [], []
    for la, ta, lb, tb in zip(xs, us, ys, vs):
        if la is OVERFLOW or lb is OVERFLOW:
            la, ta = OVERFLOW, 0.0
        elif lb == neg_inf:
            raise GrowthError("division by zero during growth evaluation")
        elif la != neg_inf:
            la, t = la - lb, ta - tb
            ta = rem(t, TAU) if isfinite(t) else 0.0
        logs.append(la)
        angles.append(ta)
    return logs, angles


def _pow_cols(xs, us, n: int, polar: bool):
    if n == 0:
        # one comprehension serves every entry: only OVERFLOW stays
        return [x if x is OVERFLOW else 0.0 for x in xs], [0.0] * len(xs)
    if not _finite(xs):
        return _pow_loop(xs, us, n)
    rem = math.remainder
    return [n * x for x in xs], [rem(n * u, TAU) for u in us] if polar else None


def _pow_loop(xs, us, n: int):
    rem, isfinite = math.remainder, math.isfinite
    neg_inf = -math.inf
    logs, angles = [], []
    for la, ta in zip(xs, us):
        if la is OVERFLOW:
            ta = 0.0
        elif la != neg_inf:
            la, t = n * la, n * ta
            ta = rem(t, TAU) if isfinite(t) else 0.0
        logs.append(la)
        angles.append(ta)
    return logs, angles


def _exp_cols(xs, us, polar: bool):
    """exp on each sample.  For a finite modulus m and angle u,
    cmath.rect(m, u) is (m*cos(u), m*sin(u)), and (m, m*u) at u == 0,
    which has the same bits; the root takes the real part alone."""
    if not _below_limit(xs):
        return _exp_loop(xs, us, polar)
    exp, cos = math.exp, math.cos
    if not polar:
        return [exp(x) * cos(u) for x, u in zip(xs, us)], None
    sin, rem = math.sin, math.remainder
    moduli = [exp(x) for x in xs]
    return [m * cos(u) for m, u in zip(moduli, us)], [rem(m * sin(u), TAU) for m, u in zip(moduli, us)]


def _exp_loop(xs, us, polar: bool):
    exp, cos, rect, rem, isfinite = math.exp, math.cos, cmath.rect, math.remainder, math.isfinite
    neg_inf = -math.inf
    logs, angles = [], []
    for la, ta in zip(xs, us):
        if la is OVERFLOW or la > EXP_LIMIT:
            la, ta = OVERFLOW, 0.0
        elif la == neg_inf:
            la, ta = 0.0, 0.0
        elif not polar:
            la = exp(la) * cos(ta)
        else:
            w = rect(exp(la), ta)
            t = w.imag
            la, ta = w.real, rem(t, TAU) if isfinite(t) else 0.0
        logs.append(la)
        angles.append(ta)
    return logs, angles if polar else None


def _trig_cols(xs, us, fn, polar: bool):
    if not _below_limit(xs):
        return _trig_loop(xs, us, fn)
    exp, log, rect, phase, rem = math.exp, math.log, cmath.rect, cmath.phase, math.remainder
    try:
        values = [fn(rect(exp(x), u)) for x, u in zip(xs, us)]
    except OverflowError:
        # |Im w| past about 710 on some sample: the loop reads its size
        return _trig_loop(xs, us, fn)
    logs = [log(abs(v)) if v else -math.inf for v in values]
    return logs, [rem(phase(v), TAU) if v else 0.0 for v in values] if polar else None


def _trig_loop(xs, us, fn):
    exp, log, rect, phase, rem, isfinite = math.exp, math.log, cmath.rect, cmath.phase, math.remainder, math.isfinite
    neg_inf = -math.inf
    logs, angles = [], []
    for la, ta in zip(xs, us):
        if la is OVERFLOW or la > EXP_LIMIT:
            logs.append(OVERFLOW)
            angles.append(0.0)
            continue
        w = 0j if la == neg_inf else rect(exp(la), ta)
        try:
            v = fn(w)
        except OverflowError:
            # |sin w| and |cos w| grow like exp(|Im w|)/2
            la, ta = abs(w.imag) - log(2.0), 0.0
        else:
            if v == 0:
                la, ta = neg_inf, 0.0
            else:
                t = phase(v)
                la, ta = log(abs(v)), rem(t, TAU) if isfinite(t) else 0.0
        logs.append(la)
        angles.append(ta)
    return logs, angles


# Samples per block of a circle: enough that each node's comprehensions
# run long, few enough that the per-node columns stay small next to the
# output.
BLOCK_SAMPLES = 256


def _eval_block(e: Expression, xs: list, us, polar: bool = True) -> tuple:
    """Evaluate e on every argument of a block at once, node by node.  The
    arguments are a log column xs and an angle column us; each node's
    value is such a pair of columns, OVERFLOW in the log column where a
    sample left float range.  Returns the root's columns; with polar
    false the root's angles may be None, as circle_log_abs needs only its
    log moduli.  A sample sees the same float operations, in the same
    order, as when it is evaluated alone."""
    n = len(xs)
    root = len(e._subtrees) - 1
    vals = []
    for i, (node, ops) in enumerate(e._subtrees):
        t = type(node)
        p = polar or i < root
        if t is Var:
            v = (xs, us)
        elif t is Lit or t is PiConst:
            la, ta = _pair_of_complex(node.value.to_complex()) if t is Lit else _pair(math.log(math.pi), 0.0)
            v = ([la] * n, [ta] * n)
        elif t is Add or t is Sub:
            v = _add_cols(*vals[ops[0]], *vals[ops[1]], t is Sub, p)
        elif t is Mul:
            v = _mul_cols(*vals[ops[0]], *vals[ops[1]], p)
        elif t is Div:
            v = _div_cols(*vals[ops[0]], *vals[ops[1]], p)
        elif t is Pow:
            v = _pow_cols(*vals[ops[0]], node.exponent, p)
        elif t is Exp:
            v = _exp_cols(*vals[ops[0]], p)
        elif t is Sin or t is Cos:
            v = _trig_cols(*vals[ops[0]], cmath.sin if t is Sin else cmath.cos, p)
        elif t is Compose:
            inner, angles = vals[ops[0]]
            if _finite(inner):
                v = _eval_block(node.outer, inner, angles, p)
            else:
                # the outer runs only on the samples whose inner is a
                # number, so an overflowed sample stays OVERFLOW even under
                # a constant outer
                live = [k for k, x in enumerate(inner) if x is not OVERFLOW]
                logs, out = [OVERFLOW] * n, [0.0] * n
                if live:
                    ls, ts = _eval_block(node.outer, [inner[k] for k in live], [angles[k] for k in live], p)
                    for k, la in zip(live, ls):
                        logs[k] = la
                    if p:
                        for k, ta in zip(live, ts):
                            out[k] = ta
                v = (logs, out if p else None)
        else:
            raise TypeError(f"not a closed expression node: {node!r}")
        vals.append(v)
    return vals[-1]


# ---------------------------------------------------------------------------
# Circle statistics


MAX_SAMPLES = 2**20
# Iterates one baker_scan may compose: the p-th reading evaluates p copies
# of f on each sample, so a scan to p costs p(p+1)/2 evaluations of f per
# sample and radius.
MAX_ITERATES = 64


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
        block = angles[start : start + BLOCK_SAMPLES]
        out += _eval_block(closed, [log_r] * len(block), block, False)[0]
    return out


def _log_max(values: list) -> float:
    # a circle has at least 64 samples, so max compares every one of them,
    # and OVERFLOW, which has no order, makes that comparison raise.  max
    # keeps a leading nan and skips a later one, so a nan anywhere is read
    # off the sum, which is nan only when an entry is nan or two are
    # opposite infinities
    try:
        top = max(values)
    except TypeError:
        return math.inf
    if math.isnan(sum(values)) and any(map(math.isnan, values)):
        return math.nan
    return top


def _characteristic(values: list, r: float) -> float:
    total = 0.0
    try:
        for v in values:
            # a nan passes this test, so it makes the mean nan
            if not v <= 0.0:
                total += v
    except TypeError:
        # only OVERFLOW fails the comparison with 0.0
        raise GrowthError(f"modulus overflows float range on the circle r={r}; reduce the radius") from None
    return total / len(values)


def log_max_modulus(f: Expression, env: DefinitionEnvironment, r: float, samples: int = 1024) -> float:
    """log M(r, f) over a sampled circle; infinity when any sample
    overflows, else nan when any sample is nan."""
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
    of an entire function; nan when any sample is nan."""
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
    if max_p > MAX_ITERATES:
        raise GrowthError(f"iterate bound must be at most {MAX_ITERATES}")
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
