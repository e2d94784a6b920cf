"""Growth-scale numerics: log-polar evaluation, circle statistics, and
the iterate-domination scan they feed."""

import math

import pytest

from adekit.expr import DefinitionEnvironment, EMPTY_ENV, parse
from adekit.growth import (
    GrowthError,
    LogPolar,
    OVERFLOW,
    baker_scan,
    characteristic,
    characteristic_sandwich,
    circle_log_abs,
    compose_iterate,
    composition_lower_bound,
    eval_log_polar,
    growth_suite,
    is_transcendental,
    log_convexity,
    log_max_modulus,
    max_modulus,
)

EXP = parse("exp(z)")
EXP2 = parse("exp(exp(z))")
EXP3 = parse("exp(exp(exp(z)))")
EXP4 = parse("exp(exp(exp(exp(z))))")


def test_log_polar_round_trip():
    w = LogPolar.from_complex(3 - 4j)
    assert abs(w.to_complex() - (3 - 4j)) < 1e-12
    zero = LogPolar.from_complex(0)
    assert zero.is_zero() and zero.to_complex() == 0j


def test_log_polar_to_complex_guards_range():
    with pytest.raises(GrowthError):
        LogPolar(800.0, 0.0).to_complex()


def test_eval_log_polar_matches_direct_arithmetic():
    e = parse("(z+1)*(z-1) + z^3/2")
    for z0 in (2.0, -1.5 + 0.5j, 0.25j):
        got = eval_log_polar(e, LogPolar.from_complex(z0))
        want = (z0 + 1) * (z0 - 1) + z0**3 / 2
        assert abs(got.to_complex() - want) < 1e-10 * max(1.0, abs(want))


def test_eval_log_polar_cancellation():
    got = eval_log_polar(parse("0*exp(z)"), LogPolar.from_complex(2.0))
    assert got.is_zero()
    # subtraction cancels through rect/phase rounding: tiny, not exactly zero
    got = eval_log_polar(parse("(z+1) - (z+1)"), LogPolar.from_complex(2.0))
    assert got.is_zero() or got.log_abs < -30.0


def test_eval_log_polar_survives_a_triple_tower():
    # exp(exp(exp(4))) has log-modulus near 5.1e23, far past float range
    # for the value itself but an easy float as a logarithm
    got = eval_log_polar(EXP3, LogPolar.from_complex(4.0))
    assert got is not OVERFLOW
    assert math.isclose(got.log_abs, math.exp(math.exp(4.0)), rel_tol=1e-12)


def test_eval_log_polar_overflow_marker_on_quadruple_tower():
    got = eval_log_polar(EXP4, LogPolar.from_complex(4.0))
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


def test_sample_and_radius_validation():
    with pytest.raises(GrowthError):
        circle_log_abs(EXP, EMPTY_ENV, 1.0, 100)
    with pytest.raises(GrowthError):
        circle_log_abs(EXP, EMPTY_ENV, 1.0, 32)
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
    got = eval_log_polar(third, LogPolar.from_complex(2.0))
    assert abs(got.to_complex() - 256.0) < 1e-9


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
