"""Command line interface.

Machine-readable payloads go to stdout, human commentary to stderr.
Exit codes: 0 success or a true predicate, 1 a false predicate or an
exhausted search, 2 usage and parse problems, 3 a candidate that failed
verification.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .scalars import ScalarError
from .series import Domain, SeriesError
from .expr import (
    DefinitionEnvironment,
    ExprError,
    ParseError,
    eval_numeric,
    expand_series,
    nth_derivative,
    parse,
    parse_pair,
    scalar_of,
    to_text,
)
from .diffpoly import DiffPolyError, ade_text, diff_mono_text, mono_rank, parse_ade
from .chain_rewrite import derivative_transfer, support_text, table_text, transfer_support
from .discovery import BoundExhausted, DiscoveryError, VerificationError, find_ade
from .pipeline import check_permutable, compose_ade, iterate_ade, transfer_ade
from .growth import (
    GrowthError,
    baker_scan,
    characteristic,
    growth_suite,
    max_modulus,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_UNVERIFIED = 3


def _build_env(defs) -> DefinitionEnvironment:
    env = DefinitionEnvironment()
    for item in defs or []:
        name, eq, body = item.partition("=")
        if not eq or not name.strip() or not body.strip():
            raise ExprError(f"--def expects name=expression, got {item!r}")
        env.define_text(name.strip(), body.strip())
    return env


def _center_value(text: str, mode: str):
    return Domain.of(mode).scalar(scalar_of(parse(text)))


def _print_json(payload: dict):
    print(json.dumps(payload))


def _outcome_payload(out) -> dict:
    return {**vars(out), "ade": ade_text(out.ade)}


def _emit_outcome(out, fmt: str) -> int:
    if fmt == "json":
        _print_json(_outcome_payload(out))
    else:
        print(ade_text(out.ade))
        print(
            f"found at weight={out.found_at[0]} degree={out.found_at[1]} "
            f"coeff_degree={out.found_at[2]}; verified to order {out.verify_order}",
            file=sys.stderr,
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_series(args, env) -> int:
    subject = parse(args.subject, env)
    center = _center_value(args.center, args.mode)
    s = expand_series(subject, center, args.order, mode=args.mode, env=env)
    print(f"order {args.order}")
    print(f"center {s.domain.text(center)}")
    for k, coeff in enumerate(s):
        print(f"{k}: {s.domain.text(coeff)}")
    return EXIT_OK


def _cmd_diff(args, env) -> int:
    subject = parse(args.subject, env)
    print(to_text(nth_derivative(subject, args.count)))
    return EXIT_OK


def _cmd_find_ade(args, env) -> int:
    subject = parse(args.subject, env)
    out = find_ade(
        subject,
        env,
        center=_center_value(args.center, args.mode),
        min_weight=args.min_weight,
        max_weight=args.max_weight,
        max_degree=args.max_degree,
        max_coeff_degree=args.max_coeff_degree,
        mode=args.mode,
    )
    return _emit_outcome(out, args.format)


def _ades(args, count: int):
    """The --ade equations of a command that takes count of them."""
    if len(args.ade) != count:
        words = "one --ade equation" if count == 1 else "two --ade equations"
        raise DiffPolyError(f"{args.command} needs exactly {words}")
    return [parse_ade(text) for text in args.ade]


def _cmd_compose_ade(args, env) -> int:
    out = compose_ade(
        *_ades(args, 2),
        *parse_pair(args.subject, env),
        env,
        center=_center_value(args.center, args.mode),
        mode=args.mode,
    )
    return _emit_outcome(out, args.format)


def _cmd_iterate_ade(args, env) -> int:
    subject = parse(args.subject, env)
    out = iterate_ade(
        subject,
        *_ades(args, 1),
        args.count,
        env,
        center=_center_value(args.center, args.mode),
        mode=args.mode,
    )
    return _emit_outcome(out, args.format)


def _cmd_rewrite_chain(args, env) -> int:
    if args.ade:
        support = transfer_support(*_ades(args, 1))
        terms = {diff_mono_text(m): to_text(support[m]) for m in sorted(support, key=mono_rank)}
        if args.format == "json":
            _print_json({"support_J": support_text(support), "coefficients": terms})
        else:
            for mono, coeff in terms.items():
                print(f"{mono}: {coeff}")
        return EXIT_OK
    table = derivative_transfer(args.order)
    if args.format == "json":
        terms = {diff_mono_text(m): to_text(c) for m, c in sorted(table.items(), key=lambda t: mono_rank(t[0]))}
        _print_json({"order": args.order, "terms": terms})
    else:
        print(f"T{args.order} = {table_text(table)}")
    return EXIT_OK


def _cmd_check_permutable(args, env) -> int:
    rep = check_permutable(
        *parse_pair(args.subject, env),
        env,
        order=args.order,
        center=_center_value(args.center, args.mode),
        mode=args.mode,
    )
    if args.format == "json":
        _print_json(vars(rep))
    elif rep.equal:
        print(f"permutable through order {rep.order}")
    else:
        print(f"not permutable: series differ at index {rep.first_mismatch}")
    return EXIT_OK if rep.equal else EXIT_NEGATIVE


def _cmd_transfer_ade(args, env) -> int:
    f, g = parse_pair(args.subject, env)
    rep = transfer_ade(
        f,
        *_ades(args, 1),
        g,
        env,
        q=args.q,
        max_q=args.max_q,
        center=_center_value(args.center, args.mode),
        verified_order=args.verified_order,
        max_relation_degree=args.max_relation_degree,
        mode=args.mode,
    )
    payload = {
        "status": rep.status,
        "q": rep.q,
        "intermediate_ade": None if rep.intermediate_ade is None else ade_text(rep.intermediate_ade),
        "support_J": rep.support_text(),
        "output_ade": None if rep.output_ade is None else ade_text(rep.output_ade),
        "verified_order": rep.verified_order,
        "escalations": rep.escalations,
        # pinned so reruns are byte-identical; --timing measures on stderr
        "wall_time_ms": 0,
    }
    if args.format == "json":
        _print_json(payload)
    elif rep.found:
        print(ade_text(rep.output_ade))
        print(
            f"q={rep.q} support=[{', '.join(rep.support_text())}] "
            f"verified to order {rep.verified_order}",
            file=sys.stderr,
        )
    else:
        print(
            f"no relation found up to q={rep.q}; support=[{', '.join(rep.support_text())}]",
            file=sys.stderr,
        )
    return EXIT_OK if rep.found else EXIT_NEGATIVE


def _radii_of(args):
    if not args.radii:
        return [args.radius]
    radii = []
    for text in args.radii.split(","):
        value = eval_numeric(parse(text.strip()), 0j)
        if value.imag != 0:
            raise GrowthError(f"radius {text.strip()!r} is not real")
        radii.append(value.real)
    return radii


def _print_measure(args, env, measure, label: str) -> int:
    radii = _radii_of(args)
    subject = parse(args.subject, env)
    for r in radii:
        value = measure(subject, env, r, args.samples)
        print(f"{label},{r!r},{value!r},{args.samples}")
    return EXIT_OK


def _cmd_max_modulus(args, env) -> int:
    return _print_measure(args, env, max_modulus, "max_modulus")


def _cmd_characteristic(args, env) -> int:
    return _print_measure(args, env, characteristic, "characteristic")


def _cmd_baker_scan(args, env) -> int:
    rep = baker_scan(
        *parse_pair(args.subject, env),
        env,
        args.max_p,
        _radii_of(args),
        samples=args.samples,
    )
    if args.format == "json":
        _print_json({"p": rep.p, "tol": rep.tol, "rows": [vars(row) for row in rep.rows]})
    else:
        for row in rep.rows:
            print(
                f"baker,{row.p},{row.r!r},{row.log_iterate!r},{row.log_partner!r},"
                f"{row.margin!r},{str(row.strict).lower()}"
            )
        print(f"baker_result,{rep.p if rep.p is not None else 'none'}")
    return EXIT_OK if rep.p is not None else EXIT_NEGATIVE


def _cmd_inequalities(args, env) -> int:
    rows = growth_suite(
        *parse_pair(args.subject, env),
        env,
        args.radius,
        c=args.polya_c,
        samples=args.samples,
    )
    if args.format == "json":
        _print_json({"rows": [vars(row) for row in rows]})
    else:
        for row in rows:
            print(
                f"inequality,{row.name},{row.r!r},{row.lhs!r},{row.rhs!r},"
                f"{str(row.holds).lower()}"
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _add_common(sub, *shared):
    """Add --timing and each named option of "def", "format", "mode", "center"."""
    if "def" in shared:
        sub.add_argument(
            "--def",
            dest="defs",
            action="append",
            metavar="NAME=EXPR",
            help="define a named function; repeatable, later names may use earlier ones",
        )
    if "format" in shared:
        sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--timing", action="store_true", help="report wall time on stderr")
    if "mode" in shared:
        sub.add_argument("--mode", choices=("exact", "numeric"), default="exact")
    if "center" in shared:
        sub.add_argument("--center", default="0", help="expansion center (scalar expression)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adekit",
        description="Differential equations of permutable entire functions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("series", help="Taylor coefficients of an expression")
    p.add_argument("--subject", required=True)
    p.add_argument("--order", type=int, default=8)
    _add_common(p, "def", "mode", "center")
    p.set_defaults(func=_cmd_series)

    p = subs.add_parser("diff", help="syntactic derivative of an expression")
    p.add_argument("--subject", required=True)
    p.add_argument("--count", type=int, default=1)
    _add_common(p, "def")
    p.set_defaults(func=_cmd_diff)

    p = subs.add_parser("find-ade", help="search for a differential equation")
    p.add_argument("--subject", required=True)
    p.add_argument("--min-weight", type=int, default=1)
    p.add_argument("--max-weight", type=int, default=4)
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--max-coeff-degree", type=int, default=4)
    _add_common(p, "def", "format", "mode", "center")
    p.set_defaults(func=_cmd_find_ade)

    p = subs.add_parser("compose-ade", help="equation for f(g) from equations of f and g")
    p.add_argument("--subject", required=True, metavar="F,G")
    p.add_argument("--ade", action="append", required=True, help="give twice: equation of f, equation of g")
    _add_common(p, "def", "format", "mode", "center")
    p.set_defaults(func=_cmd_compose_ade)

    p = subs.add_parser("iterate-ade", help="equation for the n-fold self-composition")
    p.add_argument("--subject", required=True)
    p.add_argument("--ade", action="append", required=True)
    p.add_argument("--count", type=int, required=True)
    _add_common(p, "def", "format", "mode", "center")
    p.set_defaults(func=_cmd_iterate_ade)

    p = subs.add_parser("rewrite-chain", help="derivative transfer tables along a permutable partner")
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--ade", action="append", help="rewrite this equation instead of printing one table")
    _add_common(p, "format")
    p.set_defaults(func=_cmd_rewrite_chain)

    p = subs.add_parser("check-permutable", help="compare f(g) and g(f) as series")
    p.add_argument("--subject", required=True, metavar="F,G")
    p.add_argument("--order", type=int, default=16)
    _add_common(p, "def", "format", "mode", "center")
    p.set_defaults(func=_cmd_check_permutable)

    p = subs.add_parser("transfer-ade", help="carry an equation to a permutable partner")
    p.add_argument("--subject", required=True, metavar="F,G")
    p.add_argument("--ade", action="append", required=True)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--max-q", type=int, default=3)
    p.add_argument("--verified-order", type=int, default=30)
    p.add_argument("--max-relation-degree", type=int, default=None)
    _add_common(p, "def", "format", "mode", "center")
    p.set_defaults(func=_cmd_transfer_ade)

    p = subs.add_parser("growth", help="numeric growth measurements")
    gsubs = p.add_subparsers(dest="growth_command", required=True)

    for name, handler in (("max-modulus", _cmd_max_modulus), ("characteristic", _cmd_characteristic)):
        gp = gsubs.add_parser(name)
        gp.add_argument("--subject", required=True)
        gp.add_argument("--radius", type=float, default=1.0)
        gp.add_argument("--radii", help="comma-separated radii; overrides --radius")
        gp.add_argument("--samples", type=int, default=4096 if name == "characteristic" else 1024)
        _add_common(gp, "def")
        gp.set_defaults(func=handler)

    gp = gsubs.add_parser("baker-scan")
    gp.add_argument("--subject", required=True, metavar="F,G")
    gp.add_argument("--max-p", type=int, default=5)
    gp.add_argument("--radius", type=float, default=2.0)
    gp.add_argument("--radii", help="comma-separated radii; overrides --radius")
    gp.add_argument("--samples", type=int, default=256)
    _add_common(gp, "def", "format")
    gp.set_defaults(func=_cmd_baker_scan)

    gp = gsubs.add_parser("inequalities")
    gp.add_argument("--subject", required=True, metavar="F,G")
    gp.add_argument("--radius", type=float, default=4.0)
    gp.add_argument("--polya-c", type=float, default=0.25)
    gp.add_argument("--samples", type=int, default=1024)
    _add_common(gp, "def", "format")
    gp.set_defaults(func=_cmd_inequalities)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        env = _build_env(getattr(args, "defs", None))
        code = args.func(args, env)
    except BoundExhausted as e:
        print(f"not found: {e}", file=sys.stderr)
        return EXIT_NEGATIVE
    except VerificationError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return EXIT_UNVERIFIED
    except (
        ParseError,
        ExprError,
        DiffPolyError,
        ScalarError,
        SeriesError,
        DiscoveryError,
        GrowthError,
        ZeroDivisionError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError:
        # a float value of a huge center or adjoined constant
        print("error: a value exceeds the floating-point range", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "timing", False):
        ms = int((time.perf_counter() - started) * 1000)
        print(f"wall_time_ms={ms}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
