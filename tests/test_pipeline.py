"""End-to-end flows: commutation checks, composition, transfer."""

import pytest

from adekit import pipeline
from adekit.expr import DefinitionEnvironment, EMPTY_ENV, parse
from adekit.diffpoly import ade_text, holds_on, parse_ade
from adekit.discovery import DiscoveryError, SearchOutcome
from adekit.pipeline import (
    check_permutable,
    compose_ade,
    iterate_ade,
    transfer_ade,
)

ITERATE_SQUARE_ADE = (
    "y1*y3 - y2^2 - y0*y3 + (z+1)*y3 + 4*y1^2 - 12*y2 - 3*y0*y1 + (3*z+14)*y1"
    " - 9*y0 + 9*z-18"
)


def _pair_env():
    env = DefinitionEnvironment()
    env.define_text("f", "z+exp(z)")
    env.define_text("g", "z+2*pi*i+exp(z)")
    return env


PAIR_ENV = _pair_env()


# ---------------------------------------------------------------------------
# commutation


def test_check_permutable_translation_pair():
    rep = check_permutable(parse("f", PAIR_ENV), parse("g", PAIR_ENV), PAIR_ENV)
    assert rep.equal and rep.first_mismatch is None
    assert rep.order == 16


def test_check_permutable_power_pair():
    env = DefinitionEnvironment()
    env.define_text("f", "z^2")
    env.define_text("g", "z^4")
    assert check_permutable(parse("f", env), parse("g", env), env).equal


def test_check_permutable_self_iterate():
    env = DefinitionEnvironment()
    env.define_text("f", "z+exp(z)")
    rep = check_permutable(parse("f", env), parse("f(f(z))", env), env)
    assert rep.equal


def test_check_permutable_negative():
    rep = check_permutable(parse("exp(z)"), parse("sin(z)"), EMPTY_ENV)
    assert not rep.equal
    assert rep.first_mismatch == 0


def test_check_permutable_numeric_mode():
    env = DefinitionEnvironment()
    env.define_text("f", "z^2")
    env.define_text("g", "z^4")
    rep = check_permutable(parse("f", env), parse("g", env), env, mode="numeric")
    assert rep.equal and rep.mode == "numeric"


# ---------------------------------------------------------------------------
# composition


def test_compose_ade_exponential_tower():
    p = parse_ade("y1 - y0")
    out = compose_ade(p, p, parse("exp(z)"), parse("exp(z)"), EMPTY_ENV)
    assert ade_text(out.ade) == "y0*y2 - y1^2 - y0*y1"
    assert holds_on(out.ade, parse("exp(exp(z))"), EMPTY_ENV, 0, 30)


def test_compose_ade_gaussian():
    out = compose_ade(
        parse_ade("y1 - y0"),
        parse_ade("y1 - 2*z"),
        parse("exp(z)"),
        parse("z^2"),
        EMPTY_ENV,
    )
    assert ade_text(out.ade) == "y1 - 2*z*y0"
    assert holds_on(out.ade, parse("exp(z^2)"), EMPTY_ENV, 0, 30)


def test_compose_ade_weight_is_pinned():
    p = parse_ade("y1 - y0")
    out = compose_ade(p, p, parse("exp(z)"), parse("exp(z)"), EMPTY_ENV)
    assert out.found_at[0] == 2
    assert out.escalations == [] or all(e["weight"] == 2 for e in out.escalations)


# ---------------------------------------------------------------------------
# iteration


def test_iterate_ade_count_one_is_normalized_input():
    p = parse_ade("2*y1 - 2*y0")
    out = iterate_ade(parse("exp(z)"), p, 1, EMPTY_ENV)
    assert ade_text(out.ade) == "y1 - y0"


def test_iterate_ade_rejects_nonpositive_count():
    with pytest.raises(DiscoveryError):
        iterate_ade(parse("exp(z)"), parse_ade("y1 - y0"), 0, EMPTY_ENV)


@pytest.mark.parametrize("count", [1, 2])
def test_iterate_ade_rejects_an_equation_that_does_not_hold(count):
    # before the check, count 1 returned the false equation and higher
    # counts searched their whole budget
    with pytest.raises(DiscoveryError, match="does not hold for f"):
        iterate_ade(parse("sin(z)"), parse_ade("y1 - 2*y0"), count, EMPTY_ENV)


def test_compose_ade_rejects_an_equation_that_does_not_hold():
    true, false = parse_ade("y1 - y0"), parse_ade("y1 + y0")
    exp_z = parse("exp(z)")
    with pytest.raises(DiscoveryError, match="does not hold for f"):
        compose_ade(false, true, exp_z, exp_z, EMPTY_ENV)
    with pytest.raises(DiscoveryError, match="does not hold for g"):
        compose_ade(true, false, exp_z, exp_z, EMPTY_ENV)


def test_iterate_ade_square_of_translated_exponential():
    # frozen regression: the equation of f(f) for f = z + e^z
    env = DefinitionEnvironment()
    f = parse("z+exp(z)")
    out = iterate_ade(f, parse_ade("y2 - y1 + 1"), 2, env)
    assert ade_text(out.ade) == ITERATE_SQUARE_ADE
    assert out.found_at == (4, 2, 1)
    assert out.num_unknowns == 30
    assert out.kernel_dimension == 2
    assert len(out.escalations) == 4
    env2 = DefinitionEnvironment()
    env2.define_text("f", "z+exp(z)")
    assert holds_on(out.ade, parse("f(f(z))", env2), env2, 0, 40)


# ---------------------------------------------------------------------------
# transfer


def test_transfer_translation_pair_both_directions():
    p = parse_ade("y2 - y1 + 1")
    f = parse("f", PAIR_ENV)
    g = parse("g", PAIR_ENV)
    rep = transfer_ade(f, p, g, PAIR_ENV)
    assert rep.found and rep.q == 1
    assert ade_text(rep.output_ade) == "y2 - y1 + 1"
    assert rep.support_text() == ["1", "y1", "y2"]
    assert rep.verified_order == 30
    assert rep.escalations == []
    back = transfer_ade(g, p, f, PAIR_ENV)
    assert back.found and ade_text(back.output_ade) == "y2 - y1 + 1"


def test_transfer_requires_equation_to_hold():
    with pytest.raises(DiscoveryError):
        transfer_ade(parse("exp(z)"), parse_ade("y1 + y0"), parse("exp(z)"), EMPTY_ENV)


def test_transfer_escalates_to_second_iterate():
    rep = transfer_ade(
        parse("exp(z)"), parse_ade("y1 - y0"), parse("exp(exp(z))"), EMPTY_ENV
    )
    assert rep.found and rep.q == 2
    assert ade_text(rep.intermediate_ade) == "y0*y2 - y1^2 - y0*y1"
    assert ade_text(rep.output_ade) == "y0*y2 - y1^2 - y0*y1"
    assert rep.support_text() == ["y0*y1", "y1^2", "y0*y2"]
    assert rep.escalations == [
        {"q": 1, "relation_degree": 0, "rank": 2, "unknowns": 2},
        {"q": 1, "relation_degree": 1, "rank": 4, "unknowns": 4},
        {"q": 1, "relation_degree": 2, "rank": 6, "unknowns": 6},
    ]
    assert holds_on(rep.output_ade, parse("exp(exp(z))"), EMPTY_ENV, 0, 30)


def test_transfer_starting_at_the_second_iterate():
    rep = transfer_ade(
        parse("exp(z)"), parse_ade("y1 - y0"), parse("exp(exp(z))"), EMPTY_ENV, q=2, max_q=2
    )
    assert rep.found and rep.q == 2
    assert rep.escalations == []
    assert ade_text(rep.output_ade) == "y0*y2 - y1^2 - y0*y1"


def test_transfer_of_the_translate_pair_from_the_second_iterate():
    # the composite search for f(f) ends in the 41x30 stage over
    # Z[i][exp(1)] of the iterate square; its kernel is free of exp(1)
    p = parse_ade("y2 - y1 + 1")
    rep = transfer_ade(parse("f", PAIR_ENV), p, parse("g", PAIR_ENV), PAIR_ENV, q=2)
    assert rep.status == "ok" and rep.q == 2
    assert ade_text(rep.output_ade) == "y0*y2 - y0*y1 + y0"
    assert rep.verified_order == 30
    assert rep.escalations == []


def test_transfer_moves_the_constant_of_the_translate_pair():
    # g = f + 2*pi*i, so the z-coefficient of f's equation gains 2*pi*i:
    # the answer has an adjoined constant, and its text parses back to it
    rep = transfer_ade(parse("f", PAIR_ENV), parse_ade("y1 - y0 + z-1"), parse("g", PAIR_ENV), PAIR_ENV)
    assert rep.found and rep.q == 1
    text = ade_text(rep.output_ade)
    assert text == "y1 - y0 + z+2*i*pi-1"
    assert parse_ade(text) == rep.output_ade


def test_transfer_exhausted_reports_attempts():
    rep = transfer_ade(
        parse("exp(z)"), parse_ade("y1 - y0"), parse("exp(exp(z))"), EMPTY_ENV, max_q=1
    )
    assert not rep.found
    assert rep.status == "exhausted"
    assert rep.output_ade is None
    assert len(rep.escalations) == 3


def test_transfer_rejects_a_negative_relation_degree():
    # range(cap + 1) would try no degree and report "exhausted"
    with pytest.raises(DiscoveryError, match="nonnegative"):
        transfer_ade(
            parse("exp(z)"), parse_ade("y1 - y0"), parse("exp(z)"), EMPTY_ENV,
            max_q=1, max_relation_degree=-1,
        )


def test_transfer_builds_each_iterate_from_the_last(monkeypatch):
    # one composition per new iterate count: the equation of the q-th
    # iterate of f comes from that of the (q-1)-th, not from scratch
    p = parse_ade("y1 - y0")
    calls = []

    def counting_compose(a, b, f, g, env, center, mode):
        calls.append((ade_text(a), ade_text(b), str(f), str(g)))
        return SearchOutcome(
            ade=p, found_at=(1, 1, 0), num_unknowns=0, num_equations=0,
            solve_order=0, verify_order=0, kernel_dimension=0, escalations=[],
        )

    monkeypatch.setattr(pipeline, "_composite_search", counting_compose)
    rep = transfer_ade(parse("exp(z)"), p, parse("exp(exp(z))"), EMPTY_ENV, max_q=3)
    assert calls == [
        ("y1 - y0", "y1 - y0", "exp(z)", "exp(z)"),
        ("y1 - y0", "y1 - y0", "exp(z)", "(exp(z) @ exp(z))"),
    ]
    assert rep.status == "exhausted" and rep.q == 3 and rep.output_ade is None
    assert ade_text(rep.intermediate_ade) == "y1 - y0"
    assert rep.support_text() == ["y0", "y1"]
    assert rep.escalations == [
        {"q": q, "relation_degree": d, "rank": 2 * d + 2, "unknowns": 2 * d + 2}
        for q in (1, 2, 3)
        for d in (0, 1, 2)
    ]


def test_transfer_checks_its_inputs_once(monkeypatch):
    # p is checked on f once, and the answer once on g: the iterates'
    # equations come from verified searches and are not checked again
    calls = []
    real = pipeline.holds_on

    def counting_holds_on(p, subject, *args):
        calls.append((ade_text(p), str(subject)))
        return real(p, subject, *args)

    monkeypatch.setattr(pipeline, "holds_on", counting_holds_on)
    rep = transfer_ade(parse("exp(z)"), parse_ade("y1 - y0"), parse("exp(exp(z))"), EMPTY_ENV)
    assert rep.found and rep.q == 2
    assert calls == [
        ("y1 - y0", "exp(z)"),
        ("y0*y2 - y1^2 - y0*y1", "exp(exp(z))"),
    ]
