"""Release acceptance: the headline behaviors of the toolkit, each run
at its stated tolerance, each printing one PASS or FAIL line on the real
stdout so a full run reads as a checklist.

The ten checks:
  01 the translate pair commutes, exactly, fast
  02 an equation crosses the pair in both directions unchanged
  03 an equation crosses from a function to its second iterate
  04 the rewrite tables match their closed forms and the rewrite
     identity holds on a weight-bounded corpus for two pairs
  05 composite functions get equations from their factors' equations
  06 polynomial relation search finds the circular identity and
     certifies independence with a full-rank report
  07 the iterate-domination scan finds the first strict level
  08 the circle characteristic is accurate, sandwiched, and convex
  09 equation discovery reproduces the minimal equations of the
     standard subjects within a time budget
  10 randomized algebra laws, parser round trips, and byte-identical
     command line reruns
"""

import json
import random
import time

import pytest

from adekit.scalars import Frac, frac_str
from adekit.expr import (
    Compose,
    DefinitionEnvironment,
    EMPTY_ENV,
    FuncRef,
    ZERO,
    add,
    expand_series,
    expression_of_frac,
    mul,
    parse,
    pow_,
    to_text,
)
from adekit.diffpoly import DiffPoly, ade_text, holds_on, parse_ade
from adekit.chain_rewrite import (
    bound_pair,
    derivative_transfer,
    max_support_weight,
    transfer_residual,
    transfer_support,
    verify_transfer,
)
from adekit.discovery import candidate_monomials, find_ade, relation_search
from adekit.pipeline import check_permutable, compose_ade, transfer_ade
from adekit.growth import baker_scan, characteristic, characteristic_sandwich, log_convexity
from adekit.cli import main as cli_main

from test_diffpoly import seeded_ring_and_derivation_sweep
from test_expr import NAME_ENV, rand_expr


def _translate_env():
    env = DefinitionEnvironment()
    env.define_text("f", "z+exp(z)")
    env.define_text("g", "z+2*pi*i+exp(z)")
    return env


PAIR_ENV = _translate_env()
F_OF = parse("f", PAIR_ENV)
G_OF = parse("g", PAIR_ENV)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _checklist_stream(capsys):
    # keep the per-test capture handle so _report can print its PASS or
    # FAIL line on the real terminal, past pytest's capture
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(tag: str, ok: bool, detail: str = ""):
    line = f"acceptance {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def test_01_translate_pair_permutability():
    started = time.perf_counter()
    rep = check_permutable(F_OF, G_OF, PAIR_ENV, order=16, mode="exact")
    elapsed = time.perf_counter() - started
    ok = rep.equal and rep.order == 16 and rep.mode == "exact" and elapsed < 5.0
    _report("01 translate-pair permutability", ok, f"exact order 16 in {elapsed:.2f}s (< 5s)")


def test_02_transfer_round_trip():
    p = parse_ade("y2 - y1 + 1")
    started = time.perf_counter()
    fwd = transfer_ade(F_OF, p, G_OF, PAIR_ENV, q=1)
    back = transfer_ade(G_OF, p, F_OF, PAIR_ENV, q=1)
    elapsed = time.perf_counter() - started
    ok = (
        fwd.found
        and back.found
        and fwd.q == 1
        and back.q == 1
        and ade_text(fwd.output_ade) == "y2 - y1 + 1"
        and ade_text(back.output_ade) == "y2 - y1 + 1"
        and fwd.verified_order >= 30
        and back.verified_order >= 30
        and elapsed < 30.0
    )
    _report(
        "02 transfer both directions",
        ok,
        f"q=1, verified to order {min(fwd.verified_order, back.verified_order)}, "
        f"{elapsed:.2f}s (< 30s)",
    )


def test_03_transfer_to_second_iterate():
    rep = transfer_ade(
        parse("exp(z)"), parse_ade("y1 - y0"), parse("exp(exp(z))"), EMPTY_ENV
    )
    ok = (
        rep.found
        and ade_text(rep.output_ade) == "y0*y2 - y1^2 - y0*y1"
        and rep.verified_order >= 30
        and holds_on(rep.output_ade, parse("exp(exp(z))"), EMPTY_ENV, 0, 30)
    )
    _report(
        "03 transfer onto the second iterate",
        ok,
        f"escalated to q={rep.q}, verified to order {rep.verified_order}",
    )


def _equation_on_f(p: DiffPoly):
    total = ZERO
    for mono, coeff in p.terms.items():
        term = expression_of_frac(coeff)
        for k, e in enumerate(mono):
            if e:
                term = mul(term, pow_(FuncRef("f", k), e))
        total = add(total, term)
    return total


def _formula_env():
    env = DefinitionEnvironment()
    env.define_text("f", "z")
    env.define_text("g", "z")
    return env


def test_04_rewrite_tables_and_identity():
    checks = 0
    ok = True

    # closed forms of the first two tables, compared as series on a
    # concrete commuting pair
    bound = bound_pair(F_OF, G_OF, PAIR_ENV)
    names = _formula_env()
    t1 = derivative_transfer(1)
    t2 = derivative_transfer(2)
    refs = [
        (t1[(0, 1)], parse("f'/g'", names)),
        (t2[(0, 0, 1)], parse("(f'/g')^2", names)),
        (t2[(0, 1)], parse("(f''*g'-f'*g'')/g'^3", names)),
    ]
    for got_expr, ref in refs:
        got = expand_series(got_expr, 0, 12, env=bound)
        want = expand_series(ref, 0, 12, env=bound)
        ok = ok and (got - want).is_zero()
        checks += 1

    # rewrite identity at order 20 over the weight <= 3 corpus, on a
    # polynomial pair and a transcendental pair
    pairs = [
        ("z^2", "z^4", Frac.of(1)),
        ("z+exp(z)", "z+2*pi*i+exp(z)", Frac.of(0)),
    ]
    for f_text, g_text, center in pairs:
        env = DefinitionEnvironment()
        env.define_text("f", f_text)
        env.define_text("g", g_text)
        pair_bound = bound_pair(parse("f", env), parse("g", env), env)
        for mono in candidate_monomials(3, 3):
            p = DiffPoly.monomial(mono)
            support = transfer_support(p)
            ok = ok and max_support_weight(support) == p.weight
            lhs = transfer_residual(support, pair_bound, center, 20)
            rhs = expand_series(
                Compose(_equation_on_f(p), FuncRef("g")), center, 20, env=pair_bound
            )
            ok = ok and (lhs - rhs).is_zero()
            checks += 1

    # annihilating equations drive the residual itself to zero
    ok = ok and verify_transfer(parse_ade("y2 - y1 + 1"), F_OF, G_OF, PAIR_ENV, order=20)
    power_env = DefinitionEnvironment()
    power_env.define_text("f", "z^2")
    power_env.define_text("g", "z^4")
    ok = ok and verify_transfer(
        parse_ade("z*y1 - 2*y0"),
        parse("f", power_env),
        parse("g", power_env),
        power_env,
        order=20,
        center=Frac.of(1),
    )
    checks += 2
    _report(
        "04 rewrite tables and identity",
        ok,
        f"{checks} checks at order 20, support weight equals equation weight",
    )


def test_05_composition_equations():
    p = parse_ade("y1 - y0")
    tower = compose_ade(p, p, parse("exp(z)"), parse("exp(z)"), EMPTY_ENV)
    gauss = compose_ade(
        p, parse_ade("y1 - 2*z"), parse("exp(z)"), parse("z^2"), EMPTY_ENV
    )
    ok = (
        ade_text(tower.ade) == "y0*y2 - y1^2 - y0*y1"
        and ade_text(gauss.ade) == "y1 - 2*z*y0"
        and holds_on(tower.ade, parse("exp(exp(z))"), EMPTY_ENV, 0, 30)
        and holds_on(gauss.ade, parse("exp(z^2)"), EMPTY_ENV, 0, 30)
    )
    _report("05 composition equations", ok, "exp(exp(z)) and exp(z^2), verified to order 30")


def test_06_polynomial_relations():
    circular = relation_search(
        [parse("sin(z)^2"), parse("cos(z)^2"), parse("1")], EMPTY_ENV, degree=0
    )
    independent = relation_search(
        [parse("exp(z)"), parse("exp(2*z)")], EMPTY_ENV, degree=3
    )
    ok = (
        circular.found
        and [frac_str(c) for c in circular.certificate] == ["1", "1", "-1"]
        and not independent.found
        and independent.num_unknowns == 8
        and independent.rank == 8
    )
    _report(
        "06 polynomial relations",
        ok,
        "circular identity at degree 0; full rank 8/8 negative at degree 3",
    )


def test_07_iterate_domination_scan():
    report = baker_scan(
        parse("exp(z)"),
        parse("exp(exp(z))"),
        EMPTY_ENV,
        5,
        [2.0, 3.0, 4.0],
        samples=256,
    )
    rows2 = [row for row in report.rows if row.p == 2]
    rows3 = [row for row in report.rows if row.p == 3]
    ok = (
        report.p == 3
        and len(rows3) == 3
        and all(row.margin > 1e-9 and row.strict for row in rows3)
        and len(rows2) == 3
        and all(abs(row.margin) <= 1e-9 and not row.strict for row in rows2)
    )
    _report(
        "07 iterate domination scan",
        ok,
        "first strict level p=3 at r in {2,3,4}; p=2 equality detected non-strict",
    )


def test_08_characteristic_accuracy():
    import math

    exp = parse("exp(z)")
    ok = True
    worst = 0.0
    for r in (1.0, 5.0, 10.0):
        t = characteristic(exp, EMPTY_ENV, r, samples=4096)
        rel = abs(t - r / math.pi) / (r / math.pi)
        worst = max(worst, rel)
        ok = ok and rel <= 1e-4
        ok = ok and all(row.holds for row in characteristic_sandwich(exp, EMPTY_ENV, r))
    ok = ok and all(
        row.holds for row in log_convexity(exp, EMPTY_ENV, 1.0, 10.0, points=10)
    )
    _report(
        "08 characteristic accuracy",
        ok,
        f"worst relative error {worst:.2e} (<= 1e-4), sandwich and convexity hold",
    )


def test_09_discovery_regression():
    started = time.perf_counter()
    cases = [
        ("exp(z)", {}, "y1 - y0", (1, 1, 0)),
        ("sin(z)", {}, "y2 + y0", (2, 1, 0)),
        ("z+exp(z)", {}, "y1 - y0 + z-1", (1, 1, 1)),
        ("z+exp(z)", {"min_weight": 2, "max_coeff_degree": 0}, "y2 - y1 + 1", (2, 1, 0)),
        ("exp(exp(z))", {}, "y0*y2 - y1^2 - y0*y1", (2, 2, 0)),
    ]
    # the first sub-check that failed, so a wrong equation and a slow run
    # read differently
    failed = None
    for text, bounds, want, cell in cases:
        subject = parse(text)
        out = find_ade(subject, EMPTY_ENV, **bounds)
        got = ade_text(out.ade)
        if failed is None and got != want:
            failed = f"{text}: ADE {got!r}, expected {want!r}"
        if failed is None and out.found_at != cell:
            failed = f"{text}: found_at {out.found_at}, expected {cell}"
        if failed is None and not holds_on(out.ade, subject, EMPTY_ENV, 0, out.verify_order + 10):
            failed = f"{text}: re-verification failed at order {out.verify_order + 10}"
    elapsed = time.perf_counter() - started
    if failed is None and not elapsed < 120.0:
        failed = "time over the 120s budget"
    ok = failed is None
    detail = f"5 searches re-verified past their solve orders in {elapsed:.1f}s (< 120s)"
    if not ok:
        detail = f"first failed check: {failed}; {elapsed:.1f}s elapsed"
    _report("09 discovery regression", ok, detail)


def _run_cli(capsys, argv):
    rc = cli_main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out


def test_10_soundness_properties(capsys):
    ok = seeded_ring_and_derivation_sweep(count=100, seed=60103) == 100

    rng = random.Random(90417)
    trips = 0
    while trips < 50:
        e = rand_expr(rng, rng.randint(1, 4))
        ok = ok and parse(to_text(e), NAME_ENV) == e
        trips += 1

    goldens = [
        (
            ("series", "--subject", "exp(z)", "--order", "4"),
            "order 4\ncenter 0\n0: 1\n1: 1\n2: 1/2\n3: 1/6\n4: 1/24\n",
        ),
        (("find-ade", "--subject", "exp(z)", "--format", "json"), None),
        (
            ("growth", "max-modulus", "--subject", "z^3", "--radius", "2"),
            "max_modulus,2.0,7.999999999999998,1024\n",
        ),
        (
            ("growth", "characteristic", "--subject", "exp(z)", "--radii", "1,5", "--samples", "512"),
            "characteristic,1.0,0.31830589143212884,512\n"
            "characteristic,5.0,1.591529457160644,512\n",
        ),
        (
            ("growth", "baker-scan", "--subject", "exp(z),exp(exp(z))", "--max-p", "5", "--radii", "2,3,4"),
            None,
        ),
    ]
    for argv, frozen in goldens:
        rc1, out1 = _run_cli(capsys, argv)
        rc2, out2 = _run_cli(capsys, argv)
        ok = ok and rc1 == 0 and rc2 == 0 and out1 == out2
        if frozen is not None:
            ok = ok and out1 == frozen
    payload = json.loads(_run_cli(capsys, goldens[1][0])[1])
    ok = ok and payload["ade"] == "y1 - y0" and payload["found_at"] == [1, 1, 0]
    _report(
        "10 soundness properties",
        ok,
        "100 algebra law checks, 50 parser round trips, byte-identical reruns",
    )
