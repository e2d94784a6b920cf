"""Expression trees, the parser, and the printer.

The round-trip property is the load-bearing one: the printer emits
minimal parentheses, so fifty seeded random trees are printed and parsed
back, and both the tree and its series must survive the trip.
"""

import random
from fractions import Fraction

import pytest

from adekit.scalars import Frac, GaussianRational, Poly, frac_str, frac_value
from adekit.series import NUMERIC
from adekit.expr import (
    Compose,
    DefinitionEnvironment,
    Exp,
    ExprError,
    FuncRef,
    Iterate,
    Lit,
    ParseError,
    PiConst,
    Z,
    add,
    differentiate,
    div,
    eval_numeric,
    expand_series,
    expression_of_frac,
    frac_of_expression,
    inline,
    lit,
    mul,
    nth_derivative,
    parse,
    pow_,
    scalar_of,
    sub,
    to_text,
)
from adekit.expr import _OPERANDS, _postorder

from test_growth import one_sample, pair_value
from test_series import close_to, shifted_series

# ---------------------------------------------------------------------------
# random expression generator (smart constructors keep trees in printed form)


def _name_env():
    env = DefinitionEnvironment()
    env.define_text("f", "z+exp(z)")
    env.define_text("g", "sin(z)")
    return env


NAME_ENV = _name_env()


def _rand_leaf(rng):
    roll = rng.random()
    if roll < 0.45:
        return Z
    if roll < 0.65:
        return lit(GaussianRational(rng.randint(-6, 6)))
    if roll < 0.75:
        return lit(GaussianRational(Fraction(rng.randint(1, 9), rng.randint(2, 9))))
    if roll < 0.85:
        return lit(GaussianRational(0, rng.randint(1, 3)))
    if roll < 0.95:
        return PiConst()
    return FuncRef("f", rng.randint(0, 2))


def rand_expr(rng, depth):
    if depth <= 0:
        return _rand_leaf(rng)
    roll = rng.random()
    a = rand_expr(rng, depth - 1)
    if roll < 0.2:
        return add(a, rand_expr(rng, depth - 1))
    if roll < 0.35:
        return sub(a, rand_expr(rng, depth - 1))
    if roll < 0.55:
        return mul(a, rand_expr(rng, depth - 1))
    if roll < 0.62:
        b = rand_expr(rng, depth - 1)
        try:
            return div(a, b)
        except (ExprError, ZeroDivisionError):
            return a
    if roll < 0.72:
        return pow_(a, rng.randint(2, 4))
    if roll < 0.82:
        return Exp(a)
    if roll < 0.9:
        from adekit.expr import Sin

        return Sin(a)
    if roll < 0.96:
        from adekit.expr import Cos

        return Cos(a)
    return Compose(FuncRef("f"), a)


def test_parser_roundtrip_seeded():
    rng = random.Random(1105)
    trips = 0
    while trips < 50:
        e = rand_expr(rng, rng.randint(1, 4))
        text = to_text(e)
        back = parse(text, NAME_ENV)
        assert back == e, f"round trip changed {text!r} into {to_text(back)!r}"
        trips += 1


def test_roundtrip_series_agree():
    # the same trees, compared as numeric series about a safe center
    rng = random.Random(2211)
    done = 0
    while done < 20:
        e = rand_expr(rng, 3)
        text = to_text(e)
        try:
            s1 = expand_series(e, 0.25, 6, mode="numeric", env=NAME_ENV)
        except (ExprError, ZeroDivisionError, ArithmeticError):
            continue
        s2 = expand_series(parse(text, NAME_ENV), 0.25, 6, mode="numeric", env=NAME_ENV)
        assert close_to(s1, s2), f"series changed across round trip for {text!r}"
        done += 1


# ---------------------------------------------------------------------------
# fixed parses


def test_precedence_fixed_points():
    cases = [
        "z+2*z^3",
        "(1+z)^3",
        "1/2*z",
        "z/(z+1)",
        "exp(2*z)-sin(z)*cos(z)",
        "1+2*i",
        "-i*z",
        "f''(z)*g(z)",
        "iter(f,3)",
        "f(g(z))",
    ]
    for text in cases:
        assert to_text(parse(text, NAME_ENV)) == text


def test_negation_binds_below_power():
    e = parse("-z^2")
    assert eval_numeric(e, 2.0) == -4.0
    # canonical print carries the folded -1 factor and reparses to itself
    assert to_text(e) == "-1*z^2"
    assert parse(to_text(e)) == e


def test_int_fraction_fusion():
    e = parse("3/4")
    assert isinstance(e, Lit)
    assert e.value == GaussianRational(Fraction(3, 4))


def test_compose_and_primes():
    e = parse("f''(2*z)", NAME_ENV)
    assert isinstance(e, Compose)
    assert e.outer == FuncRef("f", 2)
    assert parse("g'", NAME_ENV) == FuncRef("g", 1)


def test_iterate_parse():
    e = parse("iter(g,4)", NAME_ENV)
    assert e == Iterate("g", 4)
    with pytest.raises(ParseError):
        parse("iter(g,0)", NAME_ENV)
    with pytest.raises(ParseError):
        parse("iter(missing,2)", NAME_ENV)


def test_parse_error_position():
    with pytest.raises(ParseError) as info:
        parse("z + * 2")
    assert info.value.position == 4


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse("(z+1")


def test_deep_nesting_parses():
    # the parser is recursive: 200 levels (its bound) of parentheses, calls
    # or signs stay within the default recursion limit, under pytest's own
    # frames too
    from adekit.diffpoly import parse_ade

    assert parse("(" * 200 + "z" + ")" * 200) == Z
    e = parse("exp(" * 200 + "z" + ")" * 200)
    for _ in range(200):
        assert isinstance(e, Exp)
        e = e.arg
    assert e == Z
    e = parse("-" * 200 + "z")
    for _ in range(200):
        assert e.left == lit(-1)
        e = e.right
    assert e == Z
    assert parse_ade("(" * 200 + "y1" + ")" * 200) == parse_ade("y1")


@pytest.mark.parametrize(
    "text, offset",
    [
        ("(" * 3000 + "z" + ")" * 3000, 201),
        ("-" * 3000 + "z", 201),
        ("exp(" * 3000 + "z" + ")" * 3000, 804),
        ("-(" * 1500 + "z" + ")" * 1500, 201),
        ("(" * 201 + "z" + ")" * 201, 201),
        ("z+" + "(" * 3000 + "z" + ")" * 3000, 203),
    ],
)
def test_nesting_past_the_bound_is_a_parse_error(text, offset):
    # the parser bounds its own recursion: the first factor nested deeper
    # than MAX_NESTING levels is reported where it starts
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.position == offset
    assert str(info.value) == f"expression nested too deeply at offset {offset}"


def test_only_decimal_digits_are_numbers():
    # "²" is a digit to str.isdigit but not a number to int()
    with pytest.raises(ParseError) as info:
        parse("z+²")
    assert info.value.position == 2
    assert parse("١٢") == lit(12)


def test_parse_pair_reads_two_expressions():
    from adekit.expr import parse_pair

    f, g = parse_pair("iter(g,2), g'(exp(z))", NAME_ENV)
    assert f == Iterate("g", 2)
    assert g == Compose(FuncRef("g", 1), Exp(Z))
    # offsets count from the start of the pair
    for text, position, message in [
        ("z", 1, "expected ','"),
        ("z, z+*", 5, "expected an expression, found '*'"),
        ("z,z,z", 3, "unexpected ','"),
        ("(z,z)", 2, "expected ')', found ','"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_pair(text)
        assert info.value.position == position
        assert str(info.value) == f"{message} at offset {position}"


def test_reserved_names_rejected_in_env():
    env = DefinitionEnvironment()
    for name in ("z", "i", "pi", "exp", "sin", "cos", "iter"):
        with pytest.raises(ExprError):
            env.define_text(name, "z")


def test_env_ordering_and_freeze():
    env = DefinitionEnvironment()
    env.define_text("f", "z+1")
    env.define_text("g", "f(f(z))")
    with pytest.raises(ExprError):
        env.define_text("h", "missing(z)")
    env.freeze()
    with pytest.raises(ExprError):
        env.define_text("k", "z")
    assert to_text(env.lookup("f")) == "z+1"


# ---------------------------------------------------------------------------
# calculus


def test_differentiate_polynomial():
    e = parse("z^3+2*z")
    d = differentiate(e)
    assert eval_numeric(d, 2.0) == 14.0


def test_differentiate_matches_series_derivative():
    # plain random trees, and their derivative trees, whose subtrees are
    # shared and repeated
    env = DefinitionEnvironment()
    env.define_text("f", "exp(z)-z")
    rng = random.Random(5150)
    done = 0
    while done < 30:
        e = rand_expr(rng, 3)
        if done % 2:
            e = nth_derivative(e, rng.randint(1, 2))
        try:
            s = expand_series(e, 0.3, 7, mode="numeric", env=env)
            ds = expand_series(differentiate(e), 0.3, 6, mode="numeric", env=env)
        except (ExprError, ZeroDivisionError, ArithmeticError):
            continue
        assert close_to(ds, s.derivative()), to_text(e)
        done += 1


def _tree_size(e):
    size, stack = 0, [e]
    while stack:
        node = stack.pop()
        size += 1
        stack.extend(getattr(node, name) for name in _OPERANDS[type(node)])
    return size


@pytest.mark.parametrize(
    "text, count, nodes, distinct",
    [
        ("sin(z+exp(z))", 4, 234, 33),
        ("exp(exp(z))*sin(z)", 4, 540, 34),
        ("exp(z)/(2+exp(z))", 5, 7147, 120),
    ],
)
def test_postorder_lists_each_distinct_subtree_once(text, count, nodes, distinct):
    d = nth_derivative(parse(text), count)
    order = _postorder(d)
    assert _tree_size(d) == nodes
    assert len(order) == distinct
    assert order[-1][0] is d
    for k, (node, ops) in enumerate(order):
        # operands come first, in field order, and each entry is its node
        assert all(p < k for p in ops)
        names = _OPERANDS[type(node)]
        assert [order[p][0] for p in ops] == [getattr(node, name) for name in names]
    assert len({to_text(node) for node, _ in order}) == distinct


def test_postorder_rejects_foreign_nodes():
    with pytest.raises(TypeError, match="not an expression node"):
        _postorder(add(Z, 3))
    with pytest.raises(TypeError, match="not an expression node"):
        to_text(Exp(None))


# Each node type as a frozen dataclass: (name, fields), a field as (name,
# annotation) or (name, annotation, default).  These dataclasses are the
# reference for construction, equality, hashing, printing, immutability
# and the walkers' field tables.
_DATACLASS_NODES = (
    ("Var", ()),
    ("Lit", (("value", "GaussianRational"),)),
    ("PiConst", ()),
    ("Add", (("left", "Expression"), ("right", "Expression"))),
    ("Sub", (("left", "Expression"), ("right", "Expression"))),
    ("Mul", (("left", "Expression"), ("right", "Expression"))),
    ("Div", (("left", "Expression"), ("right", "Expression"))),
    ("Pow", (("base", "Expression"), ("exponent", "int"))),
    ("Exp", (("arg", "Expression"),)),
    ("Sin", (("arg", "Expression"),)),
    ("Cos", (("arg", "Expression"),)),
    ("FuncRef", (("name", "str"), ("order", "int", 0))),
    ("Compose", (("outer", "Expression"), ("inner", "Expression"))),
    ("Iterate", (("name", "str"), ("count", "int"))),
)


def test_nodes_behave_as_frozen_dataclasses_seeded():
    import dataclasses

    from adekit import expr
    from adekit.expr import _SCALARS

    base = dataclasses.make_dataclass("Expression", [], frozen=True)
    refs = {
        getattr(expr, name): dataclasses.make_dataclass(name, [tuple(f) for f in spec], bases=(base,), frozen=True)
        for name, spec in _DATACLASS_NODES
    }
    assert set(refs) == set(_OPERANDS)

    for cls, ref in refs.items():
        fields = dataclasses.fields(ref)
        operands = tuple(f.name for f in fields if f.type == "Expression" and f.name != "outer")
        assert _OPERANDS[cls] == operands, cls
        assert _SCALARS[cls] == tuple(f.name for f in fields if f.type != "Expression"), cls

    def reference(node):
        """node rebuilt from the dataclasses, fields in order."""
        ref = refs[type(node)]
        values = [getattr(node, f.name) for f in dataclasses.fields(ref)]
        return ref(*(reference(v) if type(v) in refs else v for v in values))

    def fresh(node):
        """node rebuilt from new objects, fields by name."""
        return type(node)(**{k: fresh(v) if type(v) in refs else v for k, v in vars(node).items() if k != "_subtrees"})

    rng = random.Random(2701)
    trees = [rand_expr(rng, rng.randint(0, 3)) for _ in range(60)]
    trees += [Iterate("f", 2), Iterate("g", 2), Compose(Exp(Z), Z), Compose(Exp(Z), PiConst()), FuncRef("f"), FuncRef("f", 0)]
    trees += [nth_derivative(t, 1) for t in trees[:10]]
    for a in trees:
        ra = reference(a)
        assert repr(a) == repr(ra)
        assert hash(a) == hash(ra)
        assert a == fresh(a) and not a != fresh(a) and hash(fresh(a)) == hash(a)
        assert (a == 0) is (ra == 0) is False
        for b in trees:
            rb = reference(b)
            assert (a == b) is (ra == rb), (a, b)
            assert (a != b) is (ra != rb), (a, b)
        for node in (a, ra):
            targets = [f.name for f in dataclasses.fields(refs[type(a)])] + ["other"]
            for name in targets:
                with pytest.raises(AttributeError) as raised:
                    setattr(node, name, Z)
                messages = [str(raised.value)]
                with pytest.raises(AttributeError) as raised:
                    delattr(node, name)
                messages.append(str(raised.value))
                assert messages == [f"cannot assign to field {name!r}", f"cannot delete field {name!r}"]
    # equal trees from different objects count once in a set, as before
    assert len(set(trees)) == len({reference(t) for t in trees})
    assert FuncRef("f").order == 0 == refs[FuncRef]("f").order
    assert FuncRef("f") == FuncRef(name="f") == FuncRef("f", order=0)
    assert Compose(inner=Z, outer=Exp(Z)) == Compose(Exp(Z), Z)

    def refusal(make):
        with pytest.raises(TypeError) as raised:
            make()
        return str(raised.value)

    # a call the dataclass refuses is refused with the same message
    for cls, ref in refs.items():
        names = [f.name for f in dataclasses.fields(ref)]
        calls = [((Z,) * (len(names) + 1), {}), ((), {"other": Z})]
        if names:
            calls += [((Z,) * len(names), {names[0]: Z}), ((), {})]
        for args, kwargs in calls:
            assert refusal(lambda: cls(*args, **kwargs)) == refusal(lambda: ref(*args, **kwargs)), (cls, args, kwargs)


def test_funcref_derivative_bumps_order():
    assert differentiate(FuncRef("f", 1)) == FuncRef("f", 2)
    assert nth_derivative(FuncRef("f"), 3) == FuncRef("f", 3)


def test_chain_rule_through_compose():
    # (f(g))' = f'(g) * g'
    e = differentiate(Compose(FuncRef("f"), mul(lit(GaussianRational(2)), Z)))
    env = DefinitionEnvironment()
    env.define_text("f", "sin(z)")
    got = expand_series(e, 0.0, 8, mode="numeric", env=env)
    want = expand_series(parse("2*cos(2*z)"), 0.0, 8, mode="numeric", env=env)
    assert close_to(got, want)


def test_inline_resolves_nested_names():
    env = DefinitionEnvironment()
    env.define_text("f", "z+exp(z)")
    env.define_text("g", "f(f(z))")
    closed = inline(parse("g'(z)", env), env)
    got = expand_series(closed, 0.0, 8, mode="numeric")
    want = expand_series(parse("g(z)", env), 0.0, 9, mode="numeric", env=env).derivative()
    assert close_to(got, want)


def test_inline_unrolls_iteration():
    env = DefinitionEnvironment()
    env.define_text("f", "z^2")
    closed = inline(Iterate("f", 3), env)
    assert eval_numeric(closed, 2.0) == 256.0


# ---------------------------------------------------------------------------
# scalar bridges


def test_scalar_of_constant_expression():
    v = scalar_of(parse("1/2+2*pi*i-i"))
    assert "pi" in {str(name) for name in v.variables()}
    with pytest.raises(ExprError):
        scalar_of(parse("z+1"))


def test_frac_expression_roundtrip():
    rng = random.Random(808)
    z = Poly.var("z")
    for _ in range(25):
        num = Poly.zero()
        den = Poly.zero()
        for _ in range(rng.randint(1, 3)):
            num = num + Poly.const(rng.randint(-4, 4)) * z ** rng.randint(0, 3)
        for _ in range(rng.randint(1, 2)):
            den = den + Poly.const(rng.randint(1, 4)) * z ** rng.randint(0, 2)
        if den.is_zero():
            continue
        f = Frac(num, den)
        e = expression_of_frac(f)
        assert frac_of_expression(e) == f, frac_str(f)


def test_frac_of_expression_rejects_transcendental():
    with pytest.raises(ExprError):
        frac_of_expression(parse("exp(z)"))


def _rand_poly(rng, atoms, rational):
    z = Poly.var("z")
    p = Poly.zero()
    for _ in range(rng.randint(1, 2)):
        re, im = rng.randint(-3, 3), rng.randint(-3, 3)
        if rational:
            re, im = Fraction(re, rng.randint(1, 4)), Fraction(im, rng.randint(1, 4))
        term = Poly.const(GaussianRational(re, im)) * z ** rng.randint(0, 3)
        for a in atoms:
            term = term * a ** rng.randint(0, 1)
        p = p + term
    return p


def test_rational_functions_expand_as_the_binomial_reference():
    # holds_on expands each coefficient of an equation through its
    # expression, whose adjoined constants are reparsed from their keys:
    # they must come back as the same symbols with the same values
    rng = random.Random(2301)
    consts = [scalar_of(parse(t)).num for t in ("exp(1/4)", "sin(1/4)")]
    rings = [([], True), ([Poly.var("pi")], False), (consts, True)]
    centers = [Frac.of(0), Frac.of(Fraction(1, 4)), Frac.of(GaussianRational(1, 1))]
    order = 5
    checked = 0
    for atoms, rational in rings:
        for _ in range(6):
            num, den = _rand_poly(rng, atoms, rational), _rand_poly(rng, atoms, rational)
            if den.is_zero():
                continue
            f = Frac(num, den)
            e = expression_of_frac(f)
            for center in centers:
                try:
                    want = shifted_series(f, center, order)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        expand_series(e, center, order)
                    continue
                assert expand_series(e, center, order) == want, (to_text(e), frac_str(center))
                point = frac_value(center)
                got = expand_series(e, point, order, mode="numeric")
                assert close_to(got, shifted_series(f, point, order, NUMERIC)), to_text(e)
                checked += 1
    assert checked >= 40


def test_a_pole_of_a_rational_function_at_the_center_divides_by_zero():
    e = expression_of_frac(Frac(Poly.one(), Poly.var("z")))
    with pytest.raises(ZeroDivisionError, match="series with zero constant term"):
        expand_series(e, Frac.of(0), 4)


# ---------------------------------------------------------------------------
# evaluation and expansion


def test_eval_numeric_basics():
    assert abs(eval_numeric(parse("exp(1)"), 0.0) - 2.718281828459045) < 1e-12
    env = _env_square()
    assert eval_numeric(parse("iter(f,2)", env), 3.0, env) == 81.0


def _env_square():
    env = DefinitionEnvironment()
    env.define_text("f", "z^2")
    return env


def test_eval_numeric_overflow_is_infinite():
    v = eval_numeric(parse("exp(exp(exp(z)))"), 100.0)
    assert v.real == float("inf")


def test_expand_exp_at_one_adjoins_base():
    s = expand_series(parse("exp(z)"), Frac.of(1), 5)
    base = s[0]
    assert frac_str(base) == "exp(1)"
    for k in range(6):
        assert s[k] * Frac.of(Fraction(1, 1)) == base / Frac.of(_fact(k))


def _fact(k):
    out = 1
    for j in range(2, k + 1):
        out *= j
    return out


def test_expand_sin_at_center_angle_addition():
    import cmath

    c = 0.7 + 0.2j
    s = expand_series(parse("sin(z)"), c, 8, mode="numeric")
    want = cmath.sin(c)
    assert abs(s[0] - want) < 1e-12
    assert abs(s[1] - cmath.cos(c)) < 1e-12


def test_expand_iterate_matches_nested():
    env = DefinitionEnvironment()
    env.define_text("f", "z+exp(z)")
    a = expand_series(Iterate("f", 2), 0.0, 7, mode="numeric", env=env)
    b = expand_series(parse("f(f(z))", env), 0.0, 7, mode="numeric", env=env)
    assert close_to(a, b)


# ---------------------------------------------------------------------------
# numeric mode against exact mode


def _rand_analytic(rng, depth):
    """exp/sin/cos, products, quotients, sums and compositions over z and
    real rational literals.  Quotients divide by k + z^n with k >= 2, whose
    zeros lie at distance above 1 from the centers 0 and 1/4; a denominator
    with adjoined constants would make the exact coefficients rational
    functions in several symbols, some of which take over ten seconds to
    expand at order 8."""
    if depth <= 0:
        return rng.choice([Z, Z, lit(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))])
    from adekit.expr import Cos, Sin

    a = _rand_analytic(rng, depth - 1)
    roll = rng.random()
    if roll < 0.15:
        return Exp(a)
    if roll < 0.3:
        return Sin(a)
    if roll < 0.45:
        return Cos(a)
    if roll < 0.6:
        return mul(a, _rand_analytic(rng, depth - 1))
    if roll < 0.75:
        return div(a, add(lit(rng.randint(2, 4)), pow_(Z, rng.randint(1, 3))))
    if roll < 0.85:
        return add(a, _rand_analytic(rng, depth - 1))
    return Compose(a, _rand_analytic(rng, depth - 1))


def test_numeric_mode_matches_exact_mode_seeded():
    # the three numeric evaluators agree at the center too: the value, the
    # series' constant term and the log-polar value
    rng = random.Random(30817)
    for _ in range(24):
        e = _rand_analytic(rng, rng.randint(2, 3))
        for center in (Fraction(0), Fraction(1, 4)):
            numeric = expand_series(e, complex(center), 8, mode="numeric")
            exact = expand_series(e, Frac.of(center), 8)
            assert close_to(numeric, exact), f"{to_text(e)} at {center}"
            value = eval_numeric(e, complex(center))
            polar = pair_value(one_sample(e, complex(center)))
            scale = max(1.0, abs(value))
            assert abs(numeric[0] - value) <= 1e-12 * scale, f"{to_text(e)} at {center}"
            assert abs(polar - value) <= 1e-12 * scale, f"{to_text(e)} at {center}"


def test_composition_matches_the_horner_reference():
    # a composition expands its outer with z bound to the inner series;
    # Horner's rule through PowerSeries.compose, with the outer expanded
    # at the inner's constant term, is the reference
    from adekit.series import PowerSeries

    rng = random.Random(51203)
    n = 6
    for k in range(18):
        outer = _rand_analytic(rng, rng.randint(1, 2))
        if k % 3 == 0:
            outer = Compose(outer, _rand_analytic(rng, 1))
        inner = _rand_analytic(rng, rng.randint(1, 2))
        for center in (Fraction(0), Fraction(1, 4)):
            for c, mode in ((Frac.of(center), "exact"), (complex(center), "numeric")):
                b = expand_series(inner, c, n, mode=mode)
                tail = b - PowerSeries.constant(b[0], n, mode)
                want = expand_series(outer, b[0], n, mode=mode).compose(tail)
                got = expand_series(Compose(outer, inner), c, n, mode=mode)
                what = f"{to_text(outer)} of {to_text(inner)} at {center}, {mode}"
                assert got == want if mode == "exact" else close_to(got, want), what


def test_nested_definitions_expand_as_their_inlined_tree():
    env = DefinitionEnvironment()
    env.define_text("f", "z/2+exp(z)/3")
    env.define_text("g", "f(f(z))")
    env.define_text("h", "sin(g(z))*f'(z) + iter(f, 2)")
    e = parse("h''(z/3) + g'(z)", env)
    closed = inline(e, env)
    # g'(z), which the parser writes as g' composed with z, reads as the bare
    # reference g': the derivative of g's series, not g's derivative tree
    bare = add(parse("h''(z/3)", env), FuncRef("g", 1))
    for center in (Fraction(0), Fraction(1, 4)):
        assert expand_series(e, Frac.of(center), 4, env=env) == expand_series(closed, Frac.of(center), 4)
        for c in (complex(center), complex(center) - 0.3j):
            got = expand_series(e, c, 6, mode="numeric", env=env)
            assert close_to(got, expand_series(closed, c, 6, mode="numeric"))
            assert list(map(repr, got)) == list(map(repr, expand_series(bare, c, 6, mode="numeric", env=env)))
            assert repr(eval_numeric(e, c, env)) == repr(eval_numeric(closed, c))


def test_references_read_derivatives_of_one_expansion_seeded():
    # f^(n) read at z is the n-th derivative of one expansion of f's body;
    # the reference expands f's n-th symbolic derivative, inlined, as every
    # reference expanded before.  Bodies read earlier names at z, and the
    # frozen environment keeps one expansion of each per center and order
    rng = random.Random(2604)

    def rand_lit():
        return lit(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

    env = DefinitionEnvironment()
    env.define("a", parse("1/(2+exp(z))"))
    env.define("b", add(mul(add(rand_lit(), mul(rand_lit(), pow_(Z, 2))), FuncRef("a")), FuncRef("a", 1)))
    env.define("c", sub(FuncRef("b"), mul(rand_lit(), FuncRef("a", 2))))
    env.freeze()
    for center in (Frac.of(0), Frac.of(1) / Frac.of(4), Frac.of(GaussianRational(1, 1))):
        for name in ("a", "b", "c"):
            # highest n first: the lower ones read truncations of its expansion
            wants = [(n, nth_derivative(inline(FuncRef(name), env), n)) for n in range(4, -1, -1)]
            # exp(1/4) and exp(1+i) are adjoined, which makes a coefficient of
            # 1/(2+exp(z)) a rational function in them, slow to reduce
            order = 3 if center.is_zero() else 0
            for n, want in wants:
                what = f"{name}^({n}) at {frac_str(center)}"
                assert expand_series(FuncRef(name, n), center, order, env=env) == expand_series(want, center, order), what
            c = frac_value(center)
            for n, want in wants:
                got = expand_series(FuncRef(name, n), c, 4, mode="numeric", env=env)
                assert close_to(got, expand_series(want, c, 4, mode="numeric")), f"{name}^({n}) at {c}"


def test_a_typed_reference_builds_no_derivative_tree(monkeypatch):
    # the parser writes f''''(z) as f'''' composed with z; its series is the
    # fourth derivative of f's series, and no symbolic derivative is built
    from adekit import expr

    env = DefinitionEnvironment()
    env.define_text("f", "sin(z)/(2+exp(z))")
    env.freeze()
    typed = parse("f''''(z)", env)
    assert typed == Compose(FuncRef("f", 4), Z)
    want = expand_series(nth_derivative(inline(FuncRef("f"), env), 4), Frac.of(0), 4)
    orders, built = [], []
    real_nth, real_differentiate = expr.nth_derivative, expr.differentiate
    monkeypatch.setattr(expr, "nth_derivative", lambda e, n: orders.append(n) or real_nth(e, n))
    monkeypatch.setattr(expr, "differentiate", lambda e: built.append(e) or real_differentiate(e))
    assert expand_series(typed, Frac.of(0), 4, env=env) == want
    expand_series(typed, 0.25, 4, mode="numeric", env=env)
    # inline reads f's body as its 0th derivative, which is the body itself
    assert orders == [0, 0] and not built


def test_an_unfrozen_environment_expands_a_body_once_per_key(monkeypatch):
    # two calls at one center and order share one expansion of f: the
    # first reads f'', which expands f through two more terms, and the
    # second reads f as a truncation of it
    from adekit import expr

    env = DefinitionEnvironment()
    env.define_text("f", "sin(z)/(2+exp(z))")
    body = inline(FuncRef("f"), env)
    wants = [expand_series(nth_derivative(body, n), Frac.of(0), 5) for n in (2, 0)]
    bodies = []
    real = expr._expand_definition
    monkeypatch.setattr(expr, "_expand_definition", lambda env, name, z, order: bodies.append(name) or real(env, name, z, order))
    for n, want in zip((2, 0), wants):
        assert expand_series(FuncRef("f", n), Frac.of(0), 5, env=env) == want
    assert bodies == ["f"]
    # a new key expands the body again
    expand_series(FuncRef("f"), Frac.of(1), 5, env=env)
    assert bodies == ["f", "f"]


def test_a_name_defined_after_an_expansion_reads_as_in_a_fresh_environment():
    env = DefinitionEnvironment()
    env.define_text("f", "z/2+exp(z)/3")
    keys = [(Frac.of(0), 5, "exact"), (0.25 - 0.5j, 5, "numeric")]
    for center, order, mode in keys:
        expand_series(FuncRef("f", 1), center, order, mode=mode, env=env)
    env.define_text("g", "f(z)+z")
    fresh = DefinitionEnvironment()
    fresh.define_text("f", "z/2+exp(z)/3")
    fresh.define_text("g", "f(z)+z")
    e = add(mul(FuncRef("g", 2), FuncRef("f")), parse("g(f(z))", fresh))
    for center, order, mode in keys + keys:
        got = expand_series(e, center, order, mode=mode, env=env)
        want = expand_series(e, center, order, mode=mode, env=fresh)
        assert list(map(repr, got)) == list(map(repr, want)), (center, mode)


def test_unknown_mode_is_rejected():
    from adekit.series import PowerSeries, SeriesError

    with pytest.raises(ExprError):
        expand_series(Z, 0, 3, mode="float")
    with pytest.raises(SeriesError):
        PowerSeries("float", [1])


# ---------------------------------------------------------------------------
# the walkers fold one post-order


def test_walkers_reenter_only_outers_and_definitions():
    # a walker may call itself on a composition's outer or on a definition
    # body, never on an operand: operands come from the post-order
    import ast
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src" / "adekit"
    walkers = {
        "expr": {"to_text", "differentiate", "inline", "_eval", "frac_of_expression", "_expand"},
        "growth": {"_eval_block", "is_transcendental"},
    }
    allowed = {"node.outer", "env.lookup(node.name)"}
    seen, bad = set(), []
    for stem, names in walkers.items():
        tree = ast.parse((src / f"{stem}.py").read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name in names:
                seen.add(fn.name)
                for call in ast.walk(fn):
                    if isinstance(call, ast.Call) and getattr(call.func, "id", None) == fn.name:
                        if ast.unparse(call.args[0]) not in allowed:
                            bad.append(f"{stem}.{fn.name}: {ast.unparse(call)}")
    assert seen == set().union(*walkers.values())
    assert not bad, bad
