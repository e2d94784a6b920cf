"""Tests of the benchmark itself: the checker, and the traced mode.

    python3 -m pytest -q bench/test_bench.py

The traced-mode tests run every workload's operations once untraced and
twice traced, about two minutes in all.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import check  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# what numeric find_ade(sin(z)) returns at (1, 2, 3); y2 + y0 is right
NUMERIC_SIN = (
    "(z^2-28480/2571)*y1 + (1/857*z^2+145/2571)*y0^2 + "
    "(75/857*z^3-4585/857*z)*y0 - 1067/857*z^2+28480/2571"
)


@pytest.mark.parametrize(
    "text, family, a",
    [
        ("y2 + y0", "sin", 1),
        ("y2 + 4*y0", "sin", 2),
        ("y1 - y0", "exp", 1),
        ("y1 + 2*y0", "exp", -2),
        ("y1 - y0 + z-1", "translate", 1),
        ("y1 + 2*y0 - 2*z-1", "translate", -2),
        ("y2 - y1 + 1", "translate", 1),
        ("y0*y2 - y1^2 - y0*y1", "tower", 1),
        ("y0*y2 - y1^2 + 2*y0*y1", "tower", -2),
        ("y0*y2 - y1^2 - 2*y0*y1", "iterate_exp", 2),
        ("y1 - 2*z*y0", "gauss", 1),
        ("y1 + 4*z*y0", "gauss", -2),
    ],
)
def test_checker_accepts_known_equations(text, family, a):
    check.check_equation(text, check.closed_form(family, a))


@pytest.mark.parametrize("text", [NUMERIC_SIN, "y2 - y0", "y1 - y0", "y2 + 2*y0"])
def test_checker_rejects_wrong_sin_equations(text):
    with pytest.raises(check.CheckError):
        check.check_equation(text, check.closed_form("sin", 1))


def test_checker_rejects_translate_equation_on_shifted_partner():
    # y1 - y0 + z - 1 holds for z + exp(z), not for z + 1 + exp(z)
    with pytest.raises(check.CheckError):
        check.check_equation("y1 - y0 + z-1", check.closed_form("translate", 1, 1))


def test_checker_commute_rejects_non_commuting_pair():
    import cmath

    points = check.sample_points(0j)
    check.check_commute(lambda z: z + cmath.exp(z), lambda z: z + 2j * cmath.pi + cmath.exp(z), points)
    with pytest.raises(check.CheckError):
        check.check_commute(lambda z: z + cmath.exp(z), lambda z: z + 1, points)


def test_numeric_sin_is_the_only_faulty_operation():
    ops = workloads.build("float", 1)
    faulty = [op for op in ops if op.faulty]
    assert [op.name for op in faulty] == ["numeric find_ade sin"]
    with pytest.raises(check.CheckError):
        faulty[0].check(faulty[0].run())


def test_seed_picks_the_inputs():
    # the first search operation is find_ade on exp(a*z), a drawn by the seed
    texts = {seed: workloads.build("search", seed)[0].run()[0] for seed in range(8)}
    assert len(set(texts.values())) > 1
    assert workloads.build("search", 3)[0].run() == workloads.build("search", 3)[0].run()


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_pass_matches_untraced_and_counts_repeat(workload):
    ops = workloads.build(workload, 7)
    plain = run._run_pass(ops)
    counts, records = [], []
    t = tracer.Tracer()
    for _ in range(2):
        t.install()
        try:
            t.reset()
            records.append(run._run_pass(ops, t)["records"])
        finally:
            t.uninstall()
        counts.append(tracer.counts(t.table()))
    assert records[0] == plain["records"]
    assert records[1] == plain["records"]
    assert counts[0] == counts[1]
    declared = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["per_layer"]
    reported = run._layer_values(t)
    assert {m["name"] for m in declared} == set(reported) | {"trace.overhead_s"}
    assert all(reported[m["name"]][1] == m["unit"] for m in declared if m["name"] in reported)


def test_tracer_restores_the_program():
    import adekit
    from adekit import discovery, expr, scalars, series

    before = (adekit.find_ade, discovery.poly_gcd, expr.expand_series, scalars.Frac.__init__, series.PowerSeries.__mul__)
    t = tracer.Tracer().install()
    assert discovery.poly_gcd is not before[1]
    assert expr.expand_series.__wrapped__ is before[2]
    t.uninstall()
    after = (adekit.find_ade, discovery.poly_gcd, expr.expand_series, scalars.Frac.__init__, series.PowerSeries.__mul__)
    assert after == before


def test_self_time_excludes_traced_children():
    t = tracer.Tracer()
    import time

    def child():
        time.sleep(0.02)

    wrapped_child = t._wrap("x.child", child)

    def parent():
        wrapped_child()
        wrapped_child()

    t.span("x.parent", parent)
    calls, self_s, incl_s = t.stats["x.parent"]
    assert calls == 1 and incl_s >= 0.04 and self_s < 0.01
    assert t.stats["x.child"][0] == 2


def test_reference_computes_exactly():
    from fractions import Fraction
    from math import factorial

    # exp(z) * exp(-2z) = exp(-z): its z^21 coefficient is -1/21!
    assert reference.reference()[0] == Fraction(-1, factorial(21))


def test_relative_times_follow_the_reference():
    # a pass made while the machine ran twice as slow, reference included,
    # gives the same relative times as a quiet one
    quiet = {"times": [0.5, 2.0], "refs": [0.01, 0.01, 0.01]}
    slow = {"times": [1.0, 4.0], "refs": [0.02, 0.02, 0.02]}
    expected = [50 * reference.REFERENCE_S, 200 * reference.REFERENCE_S]
    assert run._relative([quiet, slow, slow]) == pytest.approx(expected)
    # each operation is set against the references just before and after it
    mixed = {"times": [0.5, 3.0], "refs": [0.01, 0.01, 0.02]}
    assert run._relative([mixed]) == pytest.approx(expected)


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    bench = json.load(open(tmp_path / "BENCHMARK.json"))
    cmd = bench["command"] + ["--workload", "float", "--seed", "1", "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
