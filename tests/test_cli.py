"""Command line surface: exit codes, stream discipline, payload shapes,
and byte-for-byte determinism of reruns."""

import argparse
import ast
import inspect
import json
import os
import subprocess
import sys

import pytest

from adekit import cli, discovery
from adekit.cli import build_parser, main
from adekit.expr import eval_numeric, parse

PAIR_DEFS = ["--def", "f=z+exp(z)", "--def", "g=z+2*pi*i+exp(z)"]


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_series_golden(capsys):
    rc, out, err = run(capsys, "series", "--subject", "exp(z)", "--order", "4")
    assert rc == 0
    assert out == "order 4\ncenter 0\n0: 1\n1: 1\n2: 1/2\n3: 1/6\n4: 1/24\n"
    assert err == ""


def test_series_with_definitions(capsys):
    rc, out, _ = run(
        capsys, "series", "--subject", "f(z)", "--def", "f=z^2+1", "--order", "2"
    )
    assert rc == 0
    assert out.splitlines()[2:] == ["0: 1", "1: 0", "2: 1"]


def test_series_numeric_mode(capsys):
    rc, out, _ = run(
        capsys,
        "series", "--subject", "exp(z)", "--order", "2",
        "--mode", "numeric", "--center", "1",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "order 2"
    assert lines[1] == "center (1+0j)"
    assert all(":" in line for line in lines[2:])


def test_diff(capsys):
    rc, out, _ = run(capsys, "diff", "--subject", "z^3", "--count", "2")
    assert rc == 0
    # syntactic derivative, so no constant folding; check the value instead
    assert eval_numeric(parse(out.strip()), 2.0) == pytest.approx(12.0)


def test_find_ade_text(capsys):
    rc, out, err = run(capsys, "find-ade", "--subject", "exp(z)")
    assert rc == 0
    assert out == "y1 - y0\n"
    assert "found at weight=1 degree=1 coeff_degree=0" in err


def test_find_ade_json(capsys):
    rc, out, _ = run(capsys, "find-ade", "--subject", "exp(z)", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["ade"] == "y1 - y0"
    assert payload["found_at"] == [1, 1, 0]
    assert payload["kernel_dimension"] == 1
    assert isinstance(payload["escalations"], list)


def test_find_ade_exhaustion_exits_1(capsys):
    rc, out, err = run(
        capsys,
        "find-ade", "--subject", "exp(exp(z))",
        "--max-weight", "1", "--max-degree", "1", "--max-coeff-degree", "0",
    )
    assert rc == 1
    assert out == ""
    assert err.startswith("not found:")


def test_rewrite_chain_table(capsys):
    rc, out, _ = run(capsys, "rewrite-chain", "--order", "2")
    assert rc == 0
    assert out.startswith("T2 = ")
    assert "G2" in out and "G1" in out


def test_rewrite_chain_equation_support(capsys):
    rc, out, _ = run(capsys, "rewrite-chain", "--ade", "y2 - y1 + 1", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["support_J"] == ["1", "y1", "y2"]
    assert set(payload["coefficients"]) == {"1", "y1", "y2"}


def test_rewrite_chain_table_json(capsys):
    rc, out, _ = run(capsys, "rewrite-chain", "--order", "2", "--format", "json")
    assert rc == 0
    terms = {"y1": "(f''*g'-f'*g'')/g'^2/g'", "y2": "f'/g'*f'/g'"}
    assert out == json.dumps({"order": 2, "terms": terms}) + "\n"


def test_check_permutable_accepts_the_translate_pair(capsys):
    rc, out, _ = run(
        capsys, "check-permutable", "--subject", "f(z),g(z)", *PAIR_DEFS,
        "--order", "12",
    )
    assert rc == 0
    assert out == "permutable through order 12\n"


def test_check_permutable_rejects_and_exits_1(capsys):
    rc, out, _ = run(capsys, "check-permutable", "--subject", "exp(z),sin(z)")
    assert rc == 1
    assert out.startswith("not permutable: series differ at index")


def test_check_permutable_json_golden(capsys):
    rc, out, err = run(
        capsys, "check-permutable", "--subject", "f(z),g(z)", *PAIR_DEFS,
        "--order", "8", "--format", "json",
    )
    assert (rc, err) == (0, "")
    assert out == '{"equal": true, "order": 8, "first_mismatch": null, "mode": "exact"}\n'
    rc, out, _ = run(
        capsys, "check-permutable", "--subject", "exp(z),sin(z)",
        "--mode", "numeric", "--format", "json",
    )
    assert rc == 1
    assert out == '{"equal": false, "order": 16, "first_mismatch": 0, "mode": "numeric"}\n'


def test_transfer_json_reruns_are_byte_identical(capsys):
    argv = (
        "transfer-ade", "--subject", "f(z),g(z)", *PAIR_DEFS,
        "--ade", "y2 - y1 + 1", "--verified-order", "16", "--format", "json",
    )
    rc1, out1, _ = run(capsys, *argv)
    rc2, out2, _ = run(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert list(payload) == [
        "status", "q", "intermediate_ade", "support_J", "output_ade",
        "verified_order", "escalations", "wall_time_ms",
    ]
    assert payload["status"] == "ok"
    assert payload["q"] == 1
    assert payload["support_J"] == ["1", "y1", "y2"]
    assert payload["output_ade"] == "y2 - y1 + 1"
    assert payload["wall_time_ms"] == 0


def test_transfer_ade_text_found(capsys):
    rc, out, err = run(
        capsys, "transfer-ade", "--subject", "f(z),g(z)", *PAIR_DEFS, "--ade", "y1 - y0 + z-1"
    )
    assert rc == 0
    assert out == "y1 - y0 + z+2*i*pi-1\n"
    assert err == "q=1 support=[1, y0, y1] verified to order 30\n"


def test_transfer_ade_text_exhausted_exits_1(capsys):
    rc, out, err = run(
        capsys, "transfer-ade", "--subject", "exp(z),exp(exp(z))", "--ade", "y1 - y0", "--max-q", "1"
    )
    assert rc == 1
    assert out == ""
    assert err == "no relation found up to q=1; support=[y0, y1]\n"


def test_unverified_candidate_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(discovery, "holds_on", lambda *args: False)
    rc, out, err = run(capsys, "find-ade", "--subject", "exp(z)")
    assert rc == 3
    assert out == ""
    assert err.startswith("verification failed: candidate y1 - y0 from stage (w=1, d=1, c=0)")


def test_compose_ade_tower(capsys):
    rc, out, _ = run(
        capsys,
        "compose-ade", "--subject", "exp(z),exp(z)",
        "--ade", "y1 - y0", "--ade", "y1 - y0",
    )
    assert rc == 0
    assert out.splitlines()[0] == "y0*y2 - y1^2 - y0*y1"


def test_iterate_ade_square(capsys):
    rc, out, _ = run(
        capsys,
        "iterate-ade", "--subject", "z^2", "--ade", "z*y1 - 2*y0", "--count", "2",
        "--center", "1",
    )
    assert rc == 0
    assert out.splitlines()[0] == "z*y1 - 4*y0"


def test_growth_max_modulus_golden(capsys):
    rc, out, _ = run(
        capsys, "growth", "max-modulus", "--subject", "z^3", "--radius", "2"
    )
    assert rc == 0
    assert out == "max_modulus,2.0,7.999999999999998,1024\n"


def test_growth_characteristic_golden_rerun(capsys):
    argv = (
        "growth", "characteristic", "--subject", "exp(z)",
        "--radii", "1,5", "--samples", "512",
    )
    rc1, out1, _ = run(capsys, *argv)
    rc2, out2, _ = run(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1 == (
        "characteristic,1.0,0.31830589143212884,512\n"
        "characteristic,5.0,1.591529457160644,512\n"
    )


def test_growth_measure_parses_the_subject_once(capsys, monkeypatch):
    texts = []

    def counting(text, env=None):
        texts.append(text)
        return parse(text, env)

    monkeypatch.setattr(cli, "parse", counting)
    rc, out, _ = run(
        capsys, "growth", "max-modulus", "--subject", "z^3", "--radii", "1,2,3", "--samples", "64"
    )
    assert rc == 0
    assert out == (
        "max_modulus,1.0,1.0,64\n"
        "max_modulus,2.0,7.999999999999998,64\n"
        "max_modulus,3.0,27.0,64\n"
    )
    # each radius is read once, and the subject once for all of them
    assert texts.count("z^3") == 1
    assert sorted(texts) == ["1", "2", "3", "z^3"]


def test_growth_baker_scan_found(capsys):
    rc, out, _ = run(
        capsys,
        "growth", "baker-scan", "--subject", "exp(z),exp(exp(z))",
        "--max-p", "5", "--radii", "2,3,4",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "baker_result,3"
    assert len(lines) == 10
    assert all(line.startswith("baker,") for line in lines[:-1])


def test_growth_baker_scan_not_found_exits_1(capsys):
    rc, out, _ = run(
        capsys,
        "growth", "baker-scan", "--subject", "exp(z),exp(exp(z))",
        "--max-p", "1", "--radii", "2",
    )
    assert rc == 1
    assert out.splitlines()[-1] == "baker_result,none"


def _baker_row(p, r, log_iterate, log_partner, margin, strict):
    return {
        "p": p, "r": r, "log_iterate": log_iterate, "log_partner": log_partner,
        "margin": margin, "strict": strict,
    }


def test_growth_baker_scan_json_golden(capsys):
    rc, out, _ = run(
        capsys,
        "growth", "baker-scan", "--subject", "exp(z),exp(exp(z))",
        "--max-p", "3", "--radii", "2,3", "--samples", "64", "--format", "json",
    )
    assert rc == 0
    rows = [
        _baker_row(1, 2.0, 2.0, 7.38905609893065, -5.38905609893065, False),
        _baker_row(1, 3.0, 3.0000000000000004, 20.085536923187675, -17.085536923187675, False),
        _baker_row(2, 2.0, 7.38905609893065, 7.38905609893065, 0.0, False),
        _baker_row(2, 3.0, 20.085536923187675, 20.085536923187675, 0.0, False),
        _baker_row(3, 2.0, 1618.1779919126539, 7.38905609893065, 1610.7889358137231, True),
        _baker_row(3, 3.0, 528491311.4854981, 20.085536923187675, 528491291.3999612, True),
    ]
    # json.dumps keeps the key order written here, so this pins the order too
    assert out == json.dumps({"p": 3, "tol": 1e-09, "rows": rows}) + "\n"
    rc, out, _ = run(
        capsys,
        "growth", "baker-scan", "--subject", "exp(z),exp(exp(z))",
        "--max-p", "1", "--radii", "2", "--samples", "64", "--format", "json",
    )
    assert rc == 1
    assert out == json.dumps({"p": None, "tol": 1e-09, "rows": rows[:1]}) + "\n"


def test_growth_inequalities_json_golden(capsys):
    rc, out, _ = run(
        capsys,
        "growth", "inequalities", "--subject", "exp(z),exp(exp(z))",
        "--radius", "4", "--samples", "256", "--format", "json",
    )
    assert rc == 0

    def row(name, r, lhs, rhs, holds, note=""):
        return {"name": name, "r": r, "lhs": lhs, "rhs": rhs, "holds": holds, "note": note}

    convexity = [
        (2.333058079152233, 0.05546384204428767),
        (2.721580000348754, 0.06470018239112418),
        (3.1748021039363987, 0.0754746416251173),
        (3.703498849149161, 0.08804336120730039),
        (4.3202389555692235, 0.10270513759020528),
        (5.039684199579491, 0.1198085255126351),
        (5.8789379691023935, 0.13976012419928363),
        (6.857951862824581, 0.16303424345323236),
    ]
    rows = [
        row("composition_lower_bound", 4.0, 5.148435562634557e23, 404.54449797816335, True, "inner radius 404.544"),
        row("characteristic_below_log_max", 4.0, 1.273175628227284, 4.0, True),
        row("log_max_below_triple_characteristic", 4.0, 4.0, 7.6390537693637, True),
        *(
            row("log_convexity", r, lhs, 0.0, True, f"second difference at grid point {k}")
            for k, (r, lhs) in enumerate(convexity, start=1)
        ),
        row("shrunk_modulus_dominates_power", 4.0, -0.3862943611198906, 5.545177444479562, False, "log scale"),
        row("characteristic_triples_under_fourth_power", 1.5544062817709186, 3.0, 3.0, True, "smallest radius found"),
    ]
    assert out == json.dumps({"rows": rows}) + "\n"


def test_growth_inequalities_reports_all_rows(capsys):
    rc, out, _ = run(
        capsys,
        "growth", "inequalities", "--subject", "exp(z),exp(exp(z))",
        "--radius", "4", "--samples", "256",
    )
    assert rc == 0
    lines = out.splitlines()
    assert all(line.startswith("inequality,") for line in lines)
    named = {line.split(",")[1] for line in lines}
    assert "composition_lower_bound" in named
    assert "shrunk_modulus_dominates_power" in named
    # the honest negative stays a row, not an exit code
    assert any(
        line.split(",")[1] == "shrunk_modulus_dominates_power" and line.endswith(",false")
        for line in lines
    )


def test_usage_errors_exit_2(capsys):
    cases = [
        ("series", "--subject", "z + * 2"),
        ("series", "--subject", "f(z)"),
        ("series", "--subject", "z", "--def", "nonsense"),
        ("series", "--subject", "1/z"),
        ("compose-ade", "--subject", "exp(z),exp(z)", "--ade", "y1 - y0"),
        ("growth", "characteristic", "--subject", "exp(z)", "--samples", "100"),
        # inputs no search could succeed on, rejected before searching: a
        # relation search with no degree to try, and equations that do not
        # hold for their functions
        ("transfer-ade", "--subject", "exp(z),exp(z)", "--ade", "y1 - y0",
         "--max-relation-degree", "-1", "--max-q", "1"),
        ("iterate-ade", "--subject", "sin(z)", "--ade", "y1 - 2*y0", "--count", "1"),
        # an equation whose coefficients have a pole at the center
        ("iterate-ade", "--subject", "exp(z)", "--ade", "y1/z - y0/z", "--count", "2"),
        # the zero equation holds for every function and says nothing, at
        # every count
        ("iterate-ade", "--subject", "exp(z)", "--ade", "0", "--count", "1"),
        # a bound no check could meet, rejected before the commute check
        ("transfer-ade", "--subject", "exp(z),exp(z)", "--ade", "y1 - y0", "--verified-order", "-5"),
        ("iterate-ade", "--subject", "z+exp(z)", "--ade", "y1 - 2*y0", "--count", "2",
         "--def", "f=z+exp(z)"),
        ("compose-ade", "--subject", "exp(z),sin(z)", "--ade", "y1 - y0", "--ade", "y1 - y0"),
        ("compose-ade", "--subject", "exp(z),sin(z)", "--ade", "y1 + y0", "--ade", "y2 + y0"),
        # a true equation for f, but f and g do not commute
        ("transfer-ade", "--subject", "f(z),g(z)", "--def", "f=z+exp(z)", "--def", "g=z+1",
         "--ade", "y2 - y1 + 1"),
    ]
    for argv in cases:
        rc = main(list(argv))
        captured = capsys.readouterr()
        assert rc == 2, argv
        assert captured.out == ""
        assert captured.err.startswith("error:"), argv
        assert captured.err.count("\n") == 1, argv
        if "--verified-order" in argv:
            assert "verification order" in captured.err, argv


@pytest.mark.parametrize(
    "argv",
    [
        # exp(1/8)^2 - exp(1/4) is a nonzero polynomial in independent
        # symbols but zero by value: no division by it, and no "differ"
        # report from a difference that is zero by value
        ("series", "--subject", "1/(exp(z/2)^2 - exp(z))", "--center", "1/4", "--order", "1"),
        ("series", "--subject", "1/(exp(pi*i*z/3)^6 - 1)", "--center", "1", "--order", "0"),
        ("find-ade", "--subject", "1/(exp(z/2)^2 - exp(z))", "--center", "1/4"),
        ("check-permutable", "--subject", "f(z),g(z)", "--def", "f=sin(z)^2+cos(z)^2+z",
         "--def", "g=z+1", "--order", "4"),
        # a center divides as a series does
        ("series", "--subject", "z", "--center", "1/(exp(1/8)^2-exp(1/4))"),
    ],
)
def test_a_constant_that_is_zero_by_value_is_a_usage_error(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: exact constant ") and err.count("\n") == 1
    assert "is zero by value" in err


@pytest.mark.parametrize(
    "subject, value",
    [
        # exp(300)^3 overflows a complex power, exp(200)*exp(300)*exp(400)
        # a complex product: a value past the float range judges nothing
        ("1/(exp(z+300)^3 - exp(z))", "1/(exp(300)^3-1)"),
        ("1/(exp(z+300)*exp(z+200)*exp(z+400) - exp(z))", "1/(exp(200)*exp(300)*exp(400)-1)"),
    ],
)
def test_a_constant_past_the_float_range_is_not_judged_by_value(capsys, subject, value):
    rc, out, err = run(capsys, "series", "--subject", subject, "--order", "0")
    assert rc == 0 and err == ""
    assert out == f"order 0\ncenter 0\n0: {value}\n"


def test_find_ade_output_does_not_depend_on_the_hash_seed():
    # the residues of the modular rank come from the names' bytes, not
    # from hash(), so two interpreters with different hash seeds agree
    argv = [sys.executable, "-m", "adekit.cli", "find-ade", "--subject", "exp(exp(z))",
            "--max-degree", "2", "--max-coeff-degree", "0", "--format", "json"]
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(argv, capture_output=True, timeout=120, env=env)
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["ade"] == "y0*y2 - y1^2 - y0*y1"


@pytest.mark.parametrize(
    "argv",
    [
        ("iterate-ade", "--subject", "exp(z)", "--ade", "y1 - y0", "--ade", "garbage((", "--count", "1"),
        ("transfer-ade", "--subject", "exp(z),exp(z)", "--ade", "y1 - y0", "--ade", "garbage(("),
        ("rewrite-chain", "--ade", "y1 - y0", "--ade", "garbage(("),
    ],
)
def test_a_second_equation_is_a_usage_error(capsys, argv):
    # the second --ade would otherwise be dropped unread
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err == f"error: {argv[0]} needs exactly one --ade equation\n"


def test_a_complex_radius_is_a_usage_error(capsys):
    # the real part alone would measure a circle nobody asked for
    rc, out, err = run(capsys, "growth", "max-modulus", "--subject", "exp(z)", "--radii", "1+i")
    assert rc == 2
    assert out == ""
    assert err == "error: radius '1+i' is not real\n"


def _leaf_commands(parser, words=()):
    """(command words, parser) of every subcommand that has a handler."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_commands(sub, words + (name,))
            return
    yield words, parser


def _reads(fn):
    """The attributes of args that fn reads, following the cli helpers it
    hands args to, and whether it reads env."""
    attrs, uses_env = set(), False
    for node in ast.walk(ast.parse(inspect.getsource(fn))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
            attrs.add(node.attr)
        elif isinstance(node, ast.Name) and node.id == "env" and isinstance(node.ctx, ast.Load):
            uses_env = True
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            helper = getattr(cli, node.func.id, None)
            hands_args = any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)
            if hands_args and inspect.isfunction(helper) and helper.__module__ == cli.__name__:
                attrs |= _reads(helper)[0]
    return attrs, uses_env


def test_every_option_is_read():
    # main reads --timing for every command, and --def to build the
    # environment, which only a handler that reads env uses
    unread = []
    for words, sub in _leaf_commands(build_parser()):
        attrs, uses_env = _reads(sub.get_default("func"))
        read = attrs | {"timing"} | ({"defs"} if uses_env else set())
        unread += [
            (" ".join(words), action.option_strings[0])
            for action in sub._actions
            if action.option_strings and action.dest != "help" and action.dest not in read
        ]
    assert unread == []


def test_growth_sample_cap_is_a_usage_error(capsys, monkeypatch):
    # 2^31 samples would run for days; the cap rejects the count before
    # any sample is evaluated
    from adekit import growth

    evaluated = []
    monkeypatch.setattr(growth, "_eval_block", lambda *args: evaluated.append(args))
    rc, out, err = run(capsys, "growth", "characteristic", "--subject", "exp(z)", "--samples", "2147483648")
    assert rc == 2
    assert out == ""
    assert err == f"error: sample count must be at most {growth.MAX_SAMPLES}\n"
    assert not evaluated


def test_growth_iterate_cap_is_a_usage_error(capsys, monkeypatch):
    # a baker scan's cost grows with the square of --max-p; the cap rejects
    # the bound before any sample is evaluated
    from adekit import growth

    evaluated = []
    monkeypatch.setattr(growth, "_eval_block", lambda *args: evaluated.append(args))
    rc, out, err = run(capsys, "growth", "baker-scan", "--subject", "sin(z)/10,exp(z)", "--radii", "2", "--max-p", "10000")
    assert rc == 2
    assert out == ""
    assert err == f"error: iterate bound must be at most {growth.MAX_ITERATES}\n"
    assert not evaluated


def test_pair_errors_report_offsets_in_the_whole_subject(capsys):
    rc, _, err = run(capsys, "check-permutable", "--subject", "exp(z), sin(z)+*")
    assert rc == 2
    assert err == "error: expected an expression, found '*' at offset 15\n"


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_timing_goes_to_stderr_only(capsys):
    rc, plain_out, _ = run(capsys, "series", "--subject", "exp(z)", "--order", "3")
    rc2, timed_out, timed_err = run(
        capsys, "series", "--subject", "exp(z)", "--order", "3", "--timing"
    )
    assert rc == rc2 == 0
    assert timed_out == plain_out
    assert "wall_time_ms=" in timed_err


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "adekit.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "series" in proc.stdout and "transfer-ade" in proc.stdout


def test_series_of_a_huge_power_returns():
    # z^n with n past the order is the zero series; powering by squaring
    # takes a few dozen products, where n products would never finish
    proc = subprocess.run(
        [sys.executable, "-m", "adekit.cli", "series", "--subject", "z^100000000", "--order", "2"],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0
    assert proc.stdout == "order 2\ncenter 0\n0: 0\n1: 0\n2: 0\n"


def test_deeply_nested_subject_is_a_usage_error():
    # the parser bounds its nesting, so deep input is a parse error at the
    # first token past the bound: that is the caller's input, so it exits 2,
    # never 1 ("false") with a traceback
    for subject in ("(" * 2000 + "z" + ")" * 2000, "-" * 2000 + "z", "exp(" * 2000 + "z" + ")" * 2000):
        proc = subprocess.run(
            [sys.executable, "-m", "adekit.cli", "series", f"--subject={subject}", "--order", "2"],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert proc.returncode == 2
        # the 201st level starts there: "exp(" is four characters
        offset = 804 if subject.startswith("exp") else 201
        assert proc.stderr == f"error: expression nested too deeply at offset {offset}\n"
        assert "Traceback" not in proc.stderr


def test_deeply_nested_equation_is_a_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "adekit.cli", "iterate-ade", "--subject", "exp(z)", "--ade", "(" * 3000 + "y1" + ")" * 3000 + "-y0", "--count", "2"],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: expression nested too deeply at offset 201\n"


def test_deep_iterate_expands():
    # inlining iter(f,1200) nests 1200 compositions; the walkers fold it
    # without recursion, and the z^2 coefficient of the n-th iterate of
    # z+z^2 is n
    proc = subprocess.run(
        [sys.executable, "-m", "adekit.cli", "series", "--subject", "iter(f,1200)", "--def", "f=z+z^2", "--order", "2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "order 2\ncenter 0\n0: 0\n1: 1\n2: 1200\n"


def test_deep_iterate_differentiates():
    # the chain rule unrolls down the iterates in a loop: 1199 factors
    # f'(iter(f,k)) and a last f'
    proc = subprocess.run(
        [sys.executable, "-m", "adekit.cli", "diff", "--subject", "iter(f,1200)", "--def", "f=z+z^2", "--count", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    text = proc.stdout.strip()
    assert text.startswith("f'(iter(f,1199))*(f'(iter(f,1198))*")
    assert text.endswith("*(f'(iter(f,2))*(f'(f)*f'" + ")" * 1198)
    assert text.count("f'") == 1200


def test_series_at_a_huge_power_center_returns():
    # exact powers square too: pi^n takes a few dozen products, not n
    proc = subprocess.run(
        [sys.executable, "-m", "adekit.cli", "series", "--subject", "z", "--center", "pi^100000000", "--order", "1"],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0
    assert proc.stdout == "order 1\ncenter pi^100000000\n0: pi^100000000\n1: 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        # the float value of a center or an adjoined constant overflows
        ("series", "--subject", "exp(z)", "--center", "pi^1000", "--order", "1"),
        ("series", "--subject", "exp(z)", "--center", "10^400", "--order", "1"),
        ("series", "--subject", "exp(z)", "--center", "pi^1000", "--order", "1", "--mode", "numeric"),
        ("series", "--subject", "exp(z)", "--center", "10^400", "--order", "1", "--mode", "numeric"),
        # negative derivative counts
        ("rewrite-chain", "--order", "-1"),
        ("diff", "--subject", "z^2", "--count", "-1"),
    ],
)
def test_bad_input_exits_2_without_traceback(argv):
    # exit 1 means "false"; a failure on the caller's input is exit 2
    proc = subprocess.run(
        [sys.executable, "-m", "adekit.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_number_too_long_to_print_is_a_usage_error():
    # Python refuses to turn an integer of more than 4300 digits into
    # text; 2^20000 has 6021, and a crash must not read as exit 1 ("false")
    proc = subprocess.run(
        [sys.executable, "-m", "adekit.cli", "series", "--subject", "2^20000", "--order", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: number has too many digits to print\n"
    assert "Traceback" not in proc.stderr


def _run_cli(*argv, timeout):
    return subprocess.run(
        [sys.executable, "-m", "adekit.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


# f1199 inlines 1199 definitions, each calling the one before it
_DEF_CHAIN = ["--def", "f0=z+z^2"] + [a for k in range(1, 1200) for a in ("--def", f"f{k}=f{k - 1}(z)")]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--subject", "z", "--center", "10^400", "--mode", "numeric"), "a value exceeds the floating-point range"),
        (("--subject", "f1199(z)", *_DEF_CHAIN), "expression nested too deeply"),
    ],
    ids=["float-range", "def-chain"],
)
def test_recursion_and_overflow_exit_2_with_one_line(argv, message):
    proc = _run_cli("series", *argv, "--order", "1", timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.slow
@pytest.mark.parametrize(
    "argv, order",
    [
        # four adjoined constants: exp(1/4), exp(1/8), cos(exp(1/4)), sin(exp(1/4))
        (("--subject", "cos(exp(z))/(2+exp(z/2))"), 6),
        # the middle value sin(1/4)/(3+sin(1/4)^3) has a polynomial denominator
        (("--subject", "f(g(h(z)))", "--def", "f=exp(z)", "--def", "g=z/(3+z^3)", "--def", "h=sin(z)"), 4),
    ],
    ids=["cos-exp-quotient", "exp-quotient-sin"],
)
def test_series_past_the_gcd_cliff_finish(argv, order):
    # a gcd whose remainders' scalars swell ran these for minutes; the
    # series one order lower must print as the first lines of this one
    lines = {}
    for n in (order - 1, order):
        proc = _run_cli("series", *argv, "--center", "1/4", "--order", str(n), timeout=60)
        assert proc.returncode == 0, proc.stderr
        lines[n] = proc.stdout.splitlines()
    assert len(lines[order]) == order + 3
    assert lines[order][2 : order + 2] == lines[order - 1][2:]
