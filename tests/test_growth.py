"""Growth-scale numerics: log-polar evaluation, circle statistics, and
the iterate-domination scan they feed."""

import cmath
import math
import random
import sys
import tracemalloc

import pytest

from adekit.expr import (
    Add,
    Compose,
    Cos,
    DefinitionEnvironment,
    Div,
    EMPTY_ENV,
    Exp,
    ExprError,
    Lit,
    Mul,
    PiConst,
    Pow,
    Sin,
    Sub,
    Var,
    inline,
    parse,
)
from adekit.growth import (
    MAX_SAMPLES,
    TAU,
    GrowthError,
    OVERFLOW,
    baker_scan,
    characteristic,
    characteristic_sandwich,
    circle_log_abs,
    compose_iterate,
    composition_lower_bound,
    growth_suite,
    is_transcendental,
    log_convexity,
    log_max_modulus,
    max_modulus,
)
from adekit.growth import _eval_block, _pair_of_complex

EXP = parse("exp(z)")
EXP2 = parse("exp(exp(z))")
EXP3 = parse("exp(exp(exp(z)))")
EXP4 = parse("exp(exp(exp(exp(z))))")


def one_sample(e, z0):
    """A closed expression at one point, through the block evaluator: a
    (log_abs, angle) pair, or OVERFLOW."""
    (v,) = _eval_block(e, [_pair_of_complex(complex(z0))])
    return v


def pair_value(v):
    """The complex value of a (log_abs, angle) pair in float range."""
    log_abs, angle = v
    return 0j if log_abs == -math.inf else cmath.rect(math.exp(log_abs), angle)


def test_eval_log_polar_matches_direct_arithmetic():
    e = parse("(z+1)*(z-1) + z^3/2")
    for z0 in (2.0, -1.5 + 0.5j, 0.25j):
        got = one_sample(e, z0)
        want = (z0 + 1) * (z0 - 1) + z0**3 / 2
        assert abs(pair_value(got) - want) < 1e-10 * max(1.0, abs(want))


def test_eval_log_polar_cancellation():
    got = one_sample(parse("0*exp(z)"), 2.0)
    assert got[0] == -math.inf
    # subtraction cancels through rect/phase rounding: tiny, not exactly zero
    got = one_sample(parse("(z+1) - (z+1)"), 2.0)
    assert got[0] < -30.0


def test_eval_log_polar_survives_a_triple_tower():
    # exp(exp(exp(4))) has log-modulus near 5.1e23, far past float range
    # for the value itself but an easy float as a logarithm
    got = one_sample(EXP3, 4.0)
    assert got is not OVERFLOW
    assert math.isclose(got[0], math.exp(math.exp(4.0)), rel_tol=1e-12)


def test_eval_log_polar_overflow_marker_on_quadruple_tower():
    got = one_sample(EXP4, 4.0)
    assert got is OVERFLOW


def test_max_modulus_cubic():
    assert math.isclose(max_modulus(parse("z^3"), EMPTY_ENV, 2.0), 8.0, rel_tol=1e-12)


def test_log_max_modulus_triple_tower_and_overflow():
    assert math.isclose(
        log_max_modulus(EXP3, EMPTY_ENV, 4.0, samples=256),
        5.148435562634557e23,
        rel_tol=1e-12,
    )
    assert log_max_modulus(EXP4, EMPTY_ENV, 4.0, samples=256) == math.inf
    assert max_modulus(EXP3, EMPTY_ENV, 4.0, samples=256) == math.inf


def test_max_modulus_is_finite_up_to_the_float_range():
    # a float reaches about e^709.78, so log M = 709.5 is still finite
    assert math.isclose(max_modulus(EXP, EMPTY_ENV, 709.5, samples=64), math.exp(709.5), rel_tol=1e-12)
    assert max_modulus(EXP, EMPTY_ENV, 709.9, samples=64) == math.inf


def test_sample_and_radius_validation():
    with pytest.raises(GrowthError):
        circle_log_abs(EXP, EMPTY_ENV, 1.0, 100)
    with pytest.raises(GrowthError):
        circle_log_abs(EXP, EMPTY_ENV, 1.0, 32)
    with pytest.raises(GrowthError, match="at most"):
        circle_log_abs(EXP, EMPTY_ENV, 1.0, 2 * MAX_SAMPLES)
    with pytest.raises(GrowthError):
        circle_log_abs(EXP, EMPTY_ENV, -1.0, 64)
    with pytest.raises(GrowthError):
        log_max_modulus(EXP, EMPTY_ENV, math.inf)


def test_characteristic_exponential_is_radius_over_pi():
    for r in (1.0, 5.0):
        t = characteristic(EXP, EMPTY_ENV, r, samples=4096)
        assert math.isclose(t, r / math.pi, rel_tol=1e-6)


def test_characteristic_polynomial_and_small_constant():
    # |z^2| is constant e^2 on the circle of radius e
    assert characteristic(parse("z^2"), EMPTY_ENV, math.e, samples=256) == 2.0
    assert characteristic(parse("1/2"), EMPTY_ENV, 5.0, samples=256) == 0.0


def test_characteristic_refuses_overflowing_circle():
    with pytest.raises(GrowthError):
        characteristic(EXP4, EMPTY_ENV, 4.0, samples=64)


def test_is_transcendental():
    assert is_transcendental(EXP, EMPTY_ENV)
    assert is_transcendental(parse("sin(z)^2 + z"), EMPTY_ENV)
    assert not is_transcendental(parse("z^3 + 2*z - 1"), EMPTY_ENV)
    env = DefinitionEnvironment()
    env.define_text("f", "z+exp(z)")
    assert is_transcendental(parse("f(z)", env), env)
    assert is_transcendental(parse("iter(f, 2)", env), env)


def test_compose_iterate_unrolls():
    sq = parse("z^2")
    assert compose_iterate(sq, 1) is sq
    third = compose_iterate(sq, 3)
    assert abs(pair_value(one_sample(third, 2.0)) - 256.0) < 1e-9


def test_baker_scan_exponential_against_double_tower():
    report = baker_scan(EXP, EXP2, EMPTY_ENV, 5, [2.0, 3.0, 4.0], samples=256)
    assert report.p == 3
    assert len(report.rows) == 9
    by_p = {p: [row for row in report.rows if row.p == p] for p in (1, 2, 3)}
    assert all(row.margin < 0 and not row.strict for row in by_p[1])
    # the second iterate IS the partner: identical samples, zero margin
    assert all(row.margin == 0.0 and not row.strict for row in by_p[2])
    assert all(row.margin > 0 and row.strict for row in by_p[3])


def test_baker_scan_reads_the_partner_once_per_radius(monkeypatch):
    from adekit import growth

    calls = []
    measure = growth.log_max_modulus

    def counting(f, env, r, samples=1024):
        calls.append(f)
        return measure(f, env, r, samples)

    monkeypatch.setattr(growth, "log_max_modulus", counting)
    report = baker_scan(EXP, EXP2, EMPTY_ENV, 5, [2.0, 3.0, 4.0], samples=64)
    assert report.p == 3
    # three iterates and one partner reading on each of the three radii
    assert len(calls) == (3 + 1) * 3
    assert sum(f is EXP2 for f in calls) == 3


def test_baker_scan_self_comparison_needs_two_iterates():
    report = baker_scan(EXP, EXP, EMPTY_ENV, 5, [1.0, 2.0], samples=64)
    assert report.p == 2
    assert [row.p for row in report.rows] == [1, 1, 2, 2]
    assert all(row.margin == 0.0 for row in report.rows if row.p == 1)


def test_baker_scan_can_come_up_empty():
    report = baker_scan(EXP, EXP3, EMPTY_ENV, 2, [2.0], samples=64)
    assert report.p is None
    assert all(not row.strict for row in report.rows)


def test_baker_scan_rejects_polynomial_ends():
    with pytest.raises(GrowthError):
        baker_scan(parse("z^2"), EXP, EMPTY_ENV, 3, [2.0])
    with pytest.raises(GrowthError):
        baker_scan(EXP, parse("z^3"), EMPTY_ENV, 3, [2.0])


def test_baker_scan_refuses_double_overflow():
    with pytest.raises(GrowthError):
        baker_scan(EXP4, EXP4, EMPTY_ENV, 1, [4.0], samples=64)


def test_baker_scan_argument_validation():
    with pytest.raises(GrowthError):
        baker_scan(EXP, EXP2, EMPTY_ENV, 0, [2.0])
    with pytest.raises(GrowthError):
        baker_scan(EXP, EXP2, EMPTY_ENV, 3, [])


def test_composition_lower_bound_exponentials():
    row = composition_lower_bound(EXP, EXP, EMPTY_ENV, 4.0)
    assert row.holds
    assert math.isclose(row.lhs, math.exp(4.0), rel_tol=1e-12)
    assert math.isclose(row.rhs, 0.25 * math.exp(2.0), rel_tol=1e-12)


def test_composition_lower_bound_validates_shrink_factor():
    with pytest.raises(GrowthError):
        composition_lower_bound(EXP, EXP, EMPTY_ENV, 2.0, c=0.0)
    with pytest.raises(GrowthError):
        composition_lower_bound(EXP, EXP, EMPTY_ENV, 2.0, c=1.5)


def test_characteristic_sandwich_exponential():
    rows = characteristic_sandwich(EXP, EMPTY_ENV, 10.0)
    assert [row.holds for row in rows] == [True, True]
    assert math.isclose(rows[0].lhs, 10.0 / math.pi, rel_tol=1e-4)
    assert math.isclose(rows[0].rhs, 10.0, rel_tol=1e-12)
    assert math.isclose(rows[1].rhs, 60.0 / math.pi, rel_tol=1e-4)


def test_log_convexity_exponential_and_cubic():
    rows = log_convexity(EXP, EMPTY_ENV, 1.0, 8.0, points=10, samples=256)
    assert len(rows) == 8
    assert all(row.holds for row in rows)
    # log M(r, z^3) = 3 log r is affine in log r: flat second differences
    for row in log_convexity(parse("z^3"), EMPTY_ENV, 1.0, 8.0, points=10, samples=256):
        assert row.holds and abs(row.lhs) < 1e-9


def test_log_convexity_validation():
    with pytest.raises(GrowthError):
        log_convexity(EXP, EMPTY_ENV, 4.0, 2.0)
    with pytest.raises(GrowthError):
        log_convexity(EXP, EMPTY_ENV, 1.0, 2.0, points=2)


def test_growth_suite_reports_honest_failures():
    rows = growth_suite(EXP, EXP2, EMPTY_ENV, 4.0, samples=256)
    named = {}
    for row in rows:
        named.setdefault(row.name, []).append(row)
    assert [r.holds for r in named["composition_lower_bound"]] == [True]
    assert all(r.holds for r in named["characteristic_below_log_max"])
    assert all(r.holds for r in named["log_max_below_triple_characteristic"])
    assert all(r.holds for r in named["log_convexity"])
    # exp at r/4 = 1 shrunk by 1/4 sits well below r^4: reported, not hidden
    assert [r.holds for r in named["shrunk_modulus_dominates_power"]] == [False]
    probe = named["characteristic_triples_under_fourth_power"][0]
    assert probe.holds and math.isfinite(probe.r)


def test_characteristic_sandwich_reads_each_circle_once(monkeypatch):
    from adekit import growth

    calls = []
    read = growth.circle_log_abs

    def counting(f, env, r, samples):
        calls.append((f, r))
        return read(f, env, r, samples)

    monkeypatch.setattr(growth, "circle_log_abs", counting)
    rows = characteristic_sandwich(EXP, EMPTY_ENV, 4.0, samples=256)
    assert [row.holds for row in rows] == [True, True]
    # T(r) and log M(r) come from one reading; T(2r) from a second
    assert calls == [(EXP, 4.0), (EXP, 8.0)]
    calls.clear()
    growth_suite(EXP, EXP2, EMPTY_ENV, 4.0, samples=256)
    assert len(calls) == len(set(calls)) == 30
    # an overflowing circle still fails on the characteristic's message
    with pytest.raises(GrowthError, match="overflows float range on the circle r=4.0"):
        characteristic_sandwich(EXP4, EMPTY_ENV, 4.0, samples=64)


# ---------------------------------------------------------------------------
# The per-sample walker that circles used before they were evaluated in
# blocks, kept as the reference: one tree walk per sample, one _RefPolar
# object per node.


class _RefPolar:
    __slots__ = ("log_abs", "angle")

    def __init__(self, log_abs, angle):
        self.log_abs = float(log_abs)
        self.angle = math.remainder(float(angle), TAU) if math.isfinite(angle) else 0.0

    @staticmethod
    def from_complex(w):
        w = complex(w)
        if w == 0:
            return _RefPolar(-math.inf, 0.0)
        return _RefPolar(math.log(abs(w)), cmath.phase(w))

    def is_zero(self):
        return self.log_abs == -math.inf


def _ref_add(a, b):
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if b.log_abs > a.log_abs:
        a, b = b, a
    small = b.log_abs - a.log_abs
    s = cmath.rect(1.0, a.angle) + cmath.rect(math.exp(small) if small > -745.0 else 0.0, b.angle)
    if s == 0:
        return _RefPolar(-math.inf, 0.0)
    return _RefPolar(a.log_abs + math.log(abs(s)), cmath.phase(s))


def _ref_neg(a):
    if a.is_zero():
        return a
    return _RefPolar(a.log_abs, a.angle + math.pi)


def _ref_mul(a, b):
    if a.is_zero() or b.is_zero():
        return _RefPolar(-math.inf, 0.0)
    return _RefPolar(a.log_abs + b.log_abs, a.angle + b.angle)


def _ref_div(a, b):
    if b.is_zero():
        raise GrowthError("division by zero during growth evaluation")
    if a.is_zero():
        return a
    return _RefPolar(a.log_abs - b.log_abs, a.angle - b.angle)


_REF_BINARY = {Add: _ref_add, Sub: lambda a, b: _ref_add(a, _ref_neg(b)), Mul: _ref_mul, Div: _ref_div}


def _ref_pow(a, n):
    if n == 0:
        return _RefPolar(0.0, 0.0)
    if a.is_zero():
        return a
    return _RefPolar(n * a.log_abs, n * a.angle)


def _ref_exp(a):
    if a.is_zero():
        return _RefPolar(0.0, 0.0)
    if a.log_abs > 709.0:
        return OVERFLOW
    w = cmath.rect(math.exp(a.log_abs), a.angle)
    return _RefPolar(w.real, w.imag)


def _ref_trig(a, fn):
    if a.is_zero():
        w = 0j
    elif a.log_abs > 709.0:
        return OVERFLOW
    else:
        w = cmath.rect(math.exp(a.log_abs), a.angle)
    try:
        v = fn(w)
    except OverflowError:
        return _RefPolar(abs(w.imag) - math.log(2.0), 0.0)
    return _RefPolar.from_complex(v)


def _ref_eval(e, arg):
    vals = []
    for node, ops in e._subtrees:
        t = type(node)
        a = vals[ops[0]] if ops else None
        if t is Var:
            v = arg
        elif t is Lit:
            v = _RefPolar.from_complex(node.value.to_complex())
        elif t is PiConst:
            v = _RefPolar(math.log(math.pi), 0.0)
        elif a is OVERFLOW or (t in _REF_BINARY and vals[ops[1]] is OVERFLOW):
            v = OVERFLOW
        elif t in _REF_BINARY:
            v = _REF_BINARY[t](a, vals[ops[1]])
        elif t is Pow:
            v = _ref_pow(a, node.exponent)
        elif t is Exp:
            v = _ref_exp(a)
        elif t is Sin or t is Cos:
            v = _ref_trig(a, cmath.sin if t is Sin else cmath.cos)
        elif t is Compose:
            v = _ref_eval(node.outer, a)
        else:
            raise TypeError(f"not a closed expression node: {node!r}")
        vals.append(v)
    return vals[-1]


def _ref_circle(f, env, r, samples):
    closed = inline(f, env)
    out = []
    for k in range(samples):
        v = _ref_eval(closed, _RefPolar(math.log(r), TAU * k / samples))
        out.append(OVERFLOW if v is OVERFLOW else v.log_abs)
    return out


def _outcome(reading, *args):
    try:
        return repr(reading(*args))
    except GrowthError as exc:
        return f"GrowthError: {exc}"


def _random_subject(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["z", "z", "z", "z", "3*z", "2", "1/3", "pi", "i", "(2-i)"])
    kind = rng.choice(["+", "-", "*", "/", "^", "exp", "exp", "sin", "cos", "h"])
    if kind in "+-*/":
        return f"({_random_subject(rng, depth - 1)}){kind}({_random_subject(rng, depth - 1)})"
    if kind == "^":
        return f"({_random_subject(rng, depth - 1)})^{rng.randint(0, 3)}"
    return f"{kind}({_random_subject(rng, depth - 1)})"


def _sweep_env():
    env = DefinitionEnvironment()
    env.define_text("h", "exp(z)/2 + z")
    # constant outers: a number, and a quotient by an exact zero
    env.define_text("k", "pi+2")
    env.define_text("c", "1/sin(0*z)")
    return env


def test_circles_match_the_per_sample_walker_bit_for_bit():
    rng = random.Random(13)
    env = _sweep_env()
    subjects = [
        "exp(z)",
        "exp(exp(z))",
        "exp(exp(exp(z)))",
        "exp(exp(exp(exp(z))))",
        "exp(2*exp(-z)) - exp(z)^3",
        "sin(exp(z))/(3+cos(z))",
        "pi*z^2 - i/z",
        "iter(h, 3)",
    ]
    while len(subjects) < 30:
        text = _random_subject(rng, 4)
        try:
            f = parse(text, env)
        except (ExprError, ZeroDivisionError):
            continue
        if any(type(node) is Var for node, _ in inline(f, env)._subtrees):
            subjects.append(text)
    for text in subjects:
        f = parse(text, env)
        for r in (0.5, 2.0, 4.0):
            for samples in (64, 256, 512):
                assert _outcome(circle_log_abs, f, env, r, samples) == _outcome(
                    _ref_circle, f, env, r, samples
                ), (text, r, samples)


@pytest.mark.parametrize(
    "text, r, samples",
    [
        # exact zeros: a zero literal, and a difference that cancels on
        # some samples and leaves rounding residue on others
        ("0*exp(z)", 2.0, 64),
        ("(z+1)-(z+1)", 2.0, 256),
        # a constant outer over an inner that overflows on part of the
        # circle, and on all of it
        ("k(exp(exp(exp(exp(z)))))", 4.0, 512),
        ("c(exp(exp(z+1000)))", 1.0, 64),
        # |Im w| past 710: cmath.sin and cmath.cos raise OverflowError
        ("sin(1000*z) + cos(900*z)", 1.0, 256),
        # division by an exact zero
        ("1/sin(0*z)", 1.0, 64),
        # an exact zero times OVERFLOW in one product block
        ("sin(0*z)*exp(exp(exp(exp(z))))", 4.0, 256),
        # the outer exponential straddles EXP_LIMIT on the circle
        ("exp(exp(exp(z)))", 7.0, 256),
        # a characteristic circle of 64 blocks, one angle table
        ("exp(-2*z)", 8.0, 2**14),
    ],
)
def test_fixed_circles_match_the_per_sample_walker(text, r, samples):
    env = _sweep_env()
    f = parse(text, env)
    got = _outcome(circle_log_abs, f, env, r, samples)
    assert got == _outcome(_ref_circle, f, env, r, samples)
    if text == "1/sin(0*z)":
        assert got == "GrowthError: division by zero during growth evaluation"


def test_one_sample_evaluation_matches_the_per_sample_walker():
    def reference(closed, z0):
        v = _ref_eval(closed, _RefPolar.from_complex(z0))
        return v if v is OVERFLOW else (v.log_abs, v.angle)

    env = _sweep_env()
    # at 4 the inner overflows and the quotient by zero is never reached
    for text in ("c(exp(exp(exp(exp(z)))))", "sin(1000*z)", "exp(exp(exp(z)))/z", "(z+1)-(z+1)"):
        closed = inline(parse(text, env), env)
        for z0 in (4.0, -1.5 + 0.5j, 1j, 0.25):
            assert _outcome(one_sample, closed, z0) == _outcome(reference, closed, z0), (text, z0)
    assert one_sample(inline(parse("c(exp(exp(exp(exp(z)))))", env), env), 4.0) is OVERFLOW


def test_circle_memory_stays_near_its_output():
    # samples are evaluated in blocks, so the working lists stay small next
    # to the output: a pass over the whole circle at once holds one list
    # per node and peaks at several times the output
    f = parse("exp(exp(z))")
    circle_log_abs(f, EMPTY_ENV, 2.0, 64)  # build the post-order first
    tracemalloc.start()
    try:
        out = circle_log_abs(f, EMPTY_ENV, 2.0, 2**14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sys.getsizeof(out) + sum(sys.getsizeof(v) for v in out)
    assert peak < 2 * size, (peak, size)
