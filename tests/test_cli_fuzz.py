"""Seeded fuzzing of the command line.

Every generated argv runs in-process through ``cli.main``.  Whatever the
input, the CLI answers with one of its documented exit codes (0 true or
done, 1 false or exhausted, 2 usage, 3 unverified) and never lets an
exception escape as a traceback.  Budgets and inputs are kept small, so
that each case takes well under a second; the comments at KNOWN and
PLAIN_CENTERS name the inputs left out because they have no time bound.
"""

import contextlib
import io
import random

import pytest

from adekit.cli import main

SEED = 20260
CASES = 150

ADES = ["y1 - y0", "y2 + y0", "y1 - y0 + z-1", "y1^2 - y0*y2", "y1 - 2*y0", "y0", "1"]
BROKEN_ADES = ["y1 +", "y-1", "w2 - y0", "", "y1/(y0-y0)", "y1 - exp(y0)"]


def _atom(rng):
    return rng.choice(
        ["z", "z", "z", "z", "i", "pi", "0", "1", "2", "3/4", "f(z)", "f'(z)", "f(2*z)", "iter(f,2)"]
    )


def _expr(rng, depth):
    if depth <= 0 or rng.random() < 0.25:
        return _atom(rng)
    a = _expr(rng, depth - 1)
    roll = rng.random()
    if roll < 0.15:
        return f"exp({a})"
    if roll < 0.25:
        return f"sin({a})"
    if roll < 0.35:
        return f"cos({a})"
    if roll < 0.45:
        return f"({a})^{rng.choice([0, 1, 2, 3, 40])}"
    op = rng.choice("+-*/")
    return f"({a}){op}({_expr(rng, depth - 1)})"


def _mangle(rng, text):
    roll = rng.random()
    if roll < 0.06 and text:
        return text[: rng.randrange(len(text))]
    if roll < 0.12:
        k = rng.randrange(len(text) + 1)
        return text[:k] + rng.choice("()+*^,'$ ") + text[k:]
    return text


def _subject(rng):
    return _mangle(rng, _expr(rng, rng.randint(0, 2)))


def _pair(rng):
    known = ["z+exp(z),z+2*pi*i+exp(z)", "exp(z),exp(z)", "z^2,z^3", "sin(z),z", "exp(z),2*z"]
    if rng.random() < 0.5:
        return rng.choice(known)
    return f"{_subject(rng)},{_subject(rng)}"


# compose-ade and iterate-ade search at the combined weight of their
# equations with no budget option; an equation that does not hold is
# rejected before the search, so they get true, false and unparsable ones
KNOWN = {"sin(z)": "y2 + y0", "exp(z)": "y1 - y0", "2*z": "z*y1 - y0", "z^2": "z*y1 - 2*y0", "z+1": "y1 - 1"}
KNOWN_PAIRS = [("sin(z)", "2*z"), ("exp(z)", "2*z"), ("exp(z)", "z^2"), ("2*z", "z+1"), ("z^2", "2*z")]
KNOWN_ITERATES = ["2*z", "z^2", "z+1"]
# equations that hold for none of the subjects of KNOWN
FALSE_ADES = ["y1 - 2*y0", "y1^2 + y0", "z*y1 - 2*y0 + 1"]


def _known_ade(rng, subject):
    roll = rng.random()
    if roll < 0.5:
        return KNOWN[subject]
    return rng.choice(FALSE_ADES if roll < 0.85 else BROKEN_ADES)


def _ade(rng):
    return rng.choice(ADES if rng.random() < 0.8 else BROKEN_ADES)


def _definition(rng):
    body = rng.choice(["z+exp(z)", "z^2", "2*z", "sin(z)", "z+1", _expr(rng, 1)])
    # f may not refer to itself
    for ref in ("f'(z)", "f(2*z)", "f(z)", "iter(f,2)"):
        body = body.replace(ref, "z")
    return _mangle(rng, "f=" + body)


CENTERS = ["1/4", "-1", "i", "pi", "2^3", "z", "1/0", "("]
# exact arithmetic over nested adjoined values such as sin(sin(8)) has no
# time bound; searches and composition checks only get centers that fail
# to parse or keep their subjects' constants few
PLAIN_CENTERS = ["0", "z", "1/0", "("]


def _common(rng, argv, mode=True, centers=CENTERS, defs=True, fmt=True):
    # --def and --format are drawn for every command, offered or not, so
    # that each case draws what it drew when every command took both
    if rng.random() < 0.9:
        definition = _definition(rng)
        if defs:
            argv += ["--def", definition]
    if rng.random() < 0.2 and fmt:
        argv += ["--format", "json"]
    if mode and rng.random() < 0.3:
        argv += ["--mode", "numeric"]
    if centers and rng.random() < 0.25:
        argv += ["--center", rng.choice(centers)]
    return argv


def _argv(rng):
    cmd = rng.choice(
        [
            "series", "series", "diff", "diff", "find-ade", "compose-ade", "iterate-ade",
            "rewrite-chain", "check-permutable", "transfer-ade", "growth",
        ]
    )
    if cmd == "series":
        return _common(rng, [cmd, "--subject", _subject(rng), "--order", str(rng.randint(-1, 6))], fmt=False)
    if cmd == "diff":
        return _common(
            rng, [cmd, "--subject", _subject(rng), "--count", str(rng.randint(-1, 3))], False, None, fmt=False
        )
    if cmd == "find-ade":
        subject = rng.choice(["exp(z)", "sin(z)", "z*exp(z)", "exp(2*z)", _subject(rng)])
        argv = [
            cmd, "--subject", subject,
            "--min-weight", str(rng.randint(0, 2)),
            "--max-weight", str(rng.randint(-1, 2)),
            "--max-degree", str(rng.randint(0, 2)),
            "--max-coeff-degree", str(rng.randint(-1, 1)),
        ]
        return _common(rng, argv, centers=PLAIN_CENTERS)
    if cmd == "compose-ade":
        f, g = rng.choice(KNOWN_PAIRS)
        argv = [cmd, "--subject", _mangle(rng, f"{f},{g}")]
        for ade in rng.choice([[f], [f, g], [f, g], [f, g], [f, g, g]]):
            argv += ["--ade", _known_ade(rng, ade)]
        return _common(rng, argv, centers=PLAIN_CENTERS)
    if cmd == "iterate-ade":
        subject = rng.choice(KNOWN_ITERATES)
        argv = [cmd, "--subject", _mangle(rng, subject), "--ade", _known_ade(rng, subject)]
        return _common(rng, argv + ["--count", str(rng.randint(-1, 3))], centers=PLAIN_CENTERS)
    if cmd == "rewrite-chain":
        argv = [cmd, "--order", str(rng.randint(-1, 3))]
        if rng.random() < 0.4:
            argv += ["--ade", _ade(rng)]
        return _common(rng, argv, False, None, defs=False)
    if cmd == "check-permutable":
        argv = [cmd, "--subject", _pair(rng), "--order", str(rng.randint(-1, 8))]
        return _common(rng, argv, centers=PLAIN_CENTERS)
    if cmd == "transfer-ade":
        argv = [
            cmd, "--subject", _pair(rng), "--ade", _ade(rng),
            # a second iterate makes transfer-ade search like iterate-ade
            "--q", str(rng.randint(0, 2)), "--max-q", str(rng.randint(0, 1)),
            "--verified-order", str(rng.randint(-1, 12)),
        ]
        if rng.random() < 0.3:
            argv += ["--max-relation-degree", str(rng.randint(-1, 1))]
        return _common(rng, argv, centers=PLAIN_CENTERS)
    action = rng.choice(["max-modulus", "characteristic", "baker-scan", "inequalities"])
    radius = rng.choice(["1", "2", "0.5", "0", "-1", "nan", "inf", "1e300", "x"])
    samples = rng.choice(["64", "64", "128", "100", "0", "-64"])
    if action in ("max-modulus", "characteristic"):
        argv = ["growth", action, "--subject", _subject(rng), "--samples", samples]
        if rng.random() < 0.3:
            argv += ["--radii", rng.choice(["1,2", "1/2", "pi", "0", "1/(z-z)", "exp(1000)"])]
        else:
            argv += ["--radius", radius]
        return _common(rng, argv, False, None, fmt=False)
    argv = ["growth", action, "--subject", _pair(rng), "--samples", samples, "--radius", radius]
    if action == "baker-scan":
        argv += ["--max-p", str(rng.randint(-1, 2))]
    return _common(rng, argv, False, None)


def _cases():
    rng = random.Random(SEED)
    return [_argv(rng) for _ in range(CASES)]


@pytest.mark.parametrize("argv", _cases(), ids=[f"case{k}" for k in range(CASES)])
def test_cli_answers_with_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            # argparse rejects malformed options with exit 2
            code = stop.code
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
