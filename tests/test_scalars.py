"""Exact scalar tower: Gaussian rationals, polynomials, fractions."""

import math
import random
from fractions import Fraction

import pytest

from adekit import scalars
from adekit.diffpoly import DiffPoly, mono_of, mono_rank, normalize
from adekit.scalars import (
    Frac,
    GaussianRational,
    Poly,
    ScalarError,
    clear_denominators,
    conjugate_residues,
    exp_of_scalar,
    frac_str,
    frac_value,
    gauss_str,
    poly_exact_div,
    poly_gcd,
    poly_lcm,
    poly_str,
    residues,
    sin_of_scalar,
    unit_lead_numerators,
    PI,
)


def rand_gauss(rng):
    return GaussianRational(
        Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
    )


def rand_poly(rng, vars=("z",), max_deg=3, max_terms=4):
    p = Poly.zero()
    for _ in range(rng.randint(0, max_terms)):
        mono = []
        for v in vars:
            e = rng.randint(0, max_deg)
            if e:
                mono.append((v, e))
        # z first, then the constants by name, as the monomials of Poly are
        p = p + Poly({tuple(sorted(mono, key=lambda t: (t[0] != "z", t[0]))): rand_gauss(rng)})
    return p


def test_gauss_field_axioms():
    rng = random.Random(20240817)
    for _ in range(100):
        a, b, c = rand_gauss(rng), rand_gauss(rng), rand_gauss(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == GaussianRational(1)


def test_gauss_pure_real_stays_real():
    a = GaussianRational(Fraction(3, 2))
    b = GaussianRational(Fraction(-5, 7))
    assert not (a * b).im and not (a + b).im
    assert (a * b).re == Fraction(-15, 14)


def test_gauss_i_squared():
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1)
    assert i**4 == GaussianRational(1)
    assert gauss_str(i) == "i"
    assert gauss_str(GaussianRational(1, -1)) == "1-i"
    assert gauss_str(GaussianRational(0, Fraction(-3, 2))) == "-3/2*i"


def test_poly_ring_axioms():
    rng = random.Random(7)
    for _ in range(40):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_poly_graded_lex_leading():
    z = Poly.var("z")
    e = Poly.var("e")
    p = z * z + z * e + e
    m, _ = p.leading()
    # z ranks before adjoined names at equal total degree
    assert m == (("z", 2),)


def _graded_lex_cmp(a, b):
    """Reference order: higher total degree leads, ties broken by the
    earliest variable (z, then the others alphabetically) whose exponents
    differ, the larger exponent leading."""
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return 1 if da > db else -1
    ea, eb = dict(a), dict(b)
    for v in sorted(set(ea) | set(eb), key=lambda v: (v != "z", v)):
        if ea.get(v, 0) != eb.get(v, 0):
            return 1 if ea.get(v, 0) > eb.get(v, 0) else -1
    return 0


def test_mono_key_matches_the_graded_lex_comparator():
    from adekit.scalars import _mono_key

    rng = random.Random(4242)
    names = ["z", "pi", "e", "sin3"]

    def mono():
        exps = [(v, rng.randint(0, 3)) for v in names if rng.random() < 0.6]
        return tuple(sorted(((v, e) for v, e in exps if e), key=lambda t: (t[0] != "z", t[0])))

    for _ in range(20000):
        a, b = mono(), mono()
        want = _graded_lex_cmp(a, b)
        got = (_mono_key(a) < _mono_key(b)) - (_mono_key(a) > _mono_key(b))
        assert got == want, (a, b)


def test_poly_exact_div_roundtrip():
    rng = random.Random(99)
    for _ in range(30):
        a = rand_poly(rng, max_deg=2, max_terms=3)
        b = rand_poly(rng, max_deg=2, max_terms=2)
        if b.is_zero():
            continue
        assert poly_exact_div(a * b, b) == a


def test_poly_exact_div_rejects_inexact():
    z = Poly.var("z")
    with pytest.raises(ScalarError):
        poly_exact_div(z * z + Poly.one(), z)


def test_poly_gcd_lcm():
    z = Poly.var("z")
    a = z * z - Poly.one()
    b = z - Poly.one()
    g = poly_gcd(a, b)
    assert poly_exact_div(a, g) is not None
    assert g.degree_in("z") == 1
    l = poly_lcm(a, b)
    assert l.degree_in("z") == 2


def test_frac_arithmetic_and_normal_form():
    z = Poly.var("z")
    x = Frac(z)
    y = (x * x - Frac.of(1)) / (x - Frac.of(1))
    assert y == x + Frac.of(1)
    assert frac_str(y) == "z+1"
    assert frac_str(Frac.of(1) / Frac.of(2)) == "1/2"
    assert frac_str(x / (x + Frac.of(1))) == "z/(z+1)"


def test_frac_str_monic_denominator():
    z = Poly.var("z")
    # normal form makes the denominator monic, moving the 1/2 up top
    q = Frac(z * z - Poly.const(4), Poly.const(2) * z)
    assert frac_str(q) == "(1/2*z^2-2)/z"
    assert poly_str(z * z - Poly.const(4)) == "z^2-4"


def test_exp_of_scalar_quarter_periods():
    # exp at multiples of pi*i/2 collapses to units; anything else adjoins
    # a named constant symbol
    one = Frac.of(1)
    assert frac_str(exp_of_scalar(Frac.of(0))) == "1"
    ipi = Frac.of(GaussianRational(0, 1)) * PI
    assert exp_of_scalar(ipi) == -one
    assert exp_of_scalar(ipi * Frac.of(2)) == one
    assert frac_str(exp_of_scalar(ipi / Frac.of(2))) == "i"
    named = exp_of_scalar(one)
    assert not (named.num.is_const() and named.den.is_one())
    assert frac_str(named) == "exp(1)"
    assert abs(frac_value(named) - 2.718281828459045) < 1e-12


def test_sin_of_scalar():
    assert sin_of_scalar(Frac.of(0)).is_zero()
    v = sin_of_scalar(PI)
    assert not (v.num.is_const() and v.den.is_one())
    assert abs(frac_value(v)) < 1e-12


def test_frac_value_numeric():
    z = Poly.var("z")
    with pytest.raises(ScalarError):
        frac_value(Frac(z))
    assert frac_value(Frac.of(3) / Frac.of(4)) == 0.75
    assert abs(frac_value(PI) - 3.141592653589793) < 1e-15


# ---------------------------------------------------------------------------
# The gcd against the primitive remainder sequence that rebuilt each
# primitive part from its coefficients and left the remainders' scalars
# to grow


def _reference_from_univ(d, var):
    total = Poly()
    xv = Poly.var(var)
    for e, coeff in d.items():
        total = total + coeff * xv**e
    return total


def _reference_prem(a, b, var):
    db = b.degree_in(var)
    lb = scalars._univ(b, var)[db]
    r = a
    while not r.is_zero():
        dr = r.degree_in(var)
        if dr < db:
            break
        lr = scalars._univ(r, var)[dr]
        r = r * lb - b * lr * Poly.var(var) ** (dr - db)
    return r


def _reference_content(polys):
    g = Poly.zero()
    for p in polys:
        g = _reference_poly_gcd(g, p)
        if g.is_one():
            break
    return g if not g.is_zero() else Poly.one()


def _reference_primitive_in(p, var):
    if p.is_zero():
        return p
    up = scalars._univ(p, var)
    c = _reference_content(list(up.values()))
    return _reference_from_univ({e: poly_exact_div(q, c) for e, q in up.items()}, var)


def _reference_poly_gcd(a, b):
    if a.is_zero() and b.is_zero():
        return Poly.zero()
    if a.is_zero():
        return scalars._monic(b)
    if b.is_zero():
        return scalars._monic(a)
    if a.is_const() or b.is_const():
        return Poly.one()
    var = sorted(a.variables() | b.variables(), key=scalars._rank)[0]
    ua, ub = scalars._univ(a, var), scalars._univ(b, var)
    ca = _reference_content(list(ua.values()))
    cb = _reference_content(list(ub.values()))
    cont = _reference_poly_gcd(ca, cb)
    pa = _reference_from_univ({e: poly_exact_div(c, ca) for e, c in ua.items()}, var)
    pb = _reference_from_univ({e: poly_exact_div(c, cb) for e, c in ub.items()}, var)
    if pa.degree_in(var) < pb.degree_in(var):
        pa, pb = pb, pa
    while not pb.is_zero():
        r = _reference_prem(pa, pb, var)
        pa, pb = pb, _reference_primitive_in(r, var)
    if pa.degree_in(var) == 0:
        pa = Poly.one()
    return scalars._monic(cont * pa)


def _gcd_pairs(rng, count):
    """Pairs with a planted common factor over one to three of z and three
    adjoined constants, with Gaussian-rational coefficients."""
    names = ("z", "pi", "exp(1/4)", "sin(1/4)")
    pairs = []
    while len(pairs) < count:
        vars = rng.sample(names, rng.randint(1, 3))
        g, a, b = (rand_poly(rng, vars=vars, max_deg=2, max_terms=3) for _ in range(3))
        if g and a and b:
            pairs.append((g * a, g * b))
    return pairs


def test_poly_gcd_matches_the_rebuilding_reference(monkeypatch):
    pairs = _gcd_pairs(random.Random(2001), 100)

    def results():
        return [
            (poly_gcd(a, b).terms, poly_lcm(a, b).terms, frac_str(Frac(a, b)))
            for a, b in pairs
        ]

    got = results()
    monkeypatch.setattr(scalars, "poly_gcd", _reference_poly_gcd)
    want = results()
    for pair, g, w in zip(pairs, got, want):
        assert g == w, pair
    assert sum(not Poly(g).is_one() for g, _, _ in got) > 80
    # gcd(0, 0) = 0 without a branch of its own; a zero operand gives the
    # other made monic
    a = pairs[0][0]
    assert poly_gcd(Poly.zero(), Poly.zero()).is_zero()
    assert poly_gcd(Poly.zero(), a) == poly_gcd(a, Poly.zero()) == scalars._monic(a)


# ---------------------------------------------------------------------------
# The normal form of Frac, its unit-denominator path and shared operands


def _reference_normal_form(num, den):
    """The (num, den) pair of the normaliser without a unit-denominator
    path: reduce by the gcd, divide exactly, scale the denominator monic."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return Poly.zero(), Poly.const(1)
    if den.is_const():
        return num.scale(den.const_value().inverse()), Poly.const(1)
    g = poly_gcd(num, den)
    if not g.is_one():
        num = poly_exact_div(num, g)
        den = poly_exact_div(den, g)
    if den.is_const():
        return num.scale(den.const_value().inverse()), Poly.const(1)
    _, lc = den.leading()
    inv = lc.inverse()
    return num.scale(inv), den.scale(inv)


def _assert_normal(got, num, den):
    want_num, want_den = _reference_normal_form(num, den)
    assert got.num.terms == want_num.terms and got.den.terms == want_den.terms, (got, num, den)
    assert hash(got) == hash((want_num, want_den))
    assert frac_str(got) == frac_str(Frac(want_num, want_den, _normalized=True))


def _rand_gauss_int(rng):
    return GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4))


def _rand_den(rng, vars):
    """A unit, constant (2, 1+i, a random Gaussian rational) or
    polynomial denominator."""
    kind = rng.randrange(4)
    if kind == 0:
        return Poly.one()
    if kind == 1:
        return Poly.const(rng.choice([2, GaussianRational(1, 1)]))
    if kind == 2:
        return Poly.const(rand_gauss(rng) or 3)
    den = rand_poly(rng, vars=vars, max_deg=2, max_terms=2)
    return den if not den.is_zero() else Poly.var(vars[0]) + Poly.one()


# three families: Q(i), Z[i][pi] and rational functions of z over Q(i)
_FAMILIES = {
    "Q(i)": lambda rng: (Poly.const(rand_gauss(rng)), Poly.one()),
    "Z[i][pi]": lambda rng: (
        sum((Poly({(("pi", e),) if e else (): _rand_gauss_int(rng)}) for e in range(rng.randint(1, 3))), Poly.zero()),
        _rand_den(rng, ("pi",)),
    ),
    "Q(i)(z)": lambda rng: (rand_poly(rng, max_deg=2, max_terms=3), _rand_den(rng, ("z",))),
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_frac_normal_form_matches_the_reference(family):
    rng = random.Random(1201 + sorted(_FAMILIES).index(family))
    draw = _FAMILIES[family]
    for _ in range(60):
        pa, qa = draw(rng)
        pb, qb = draw(rng)
        a, b = Frac(pa, qa), Frac(pb, qb)
        _assert_normal(a, pa, qa)
        _assert_normal(b, pb, qb)
        _assert_normal(a + b, a.num * b.den + b.num * a.den, a.den * b.den)
        _assert_normal(a - b, a.num * b.den - b.num * a.den, a.den * b.den)
        _assert_normal(a * b, a.num * b.num, a.den * b.den)
        if b:
            _assert_normal(a / b, a.num * b.den, a.den * b.num)
        n = rng.randint(0, 3)
        _assert_normal(a**n, a.num**n, a.den**n)
        if a:
            _assert_normal(a ** (-n), a.den**n, a.num**n)
        _assert_normal(Frac.of(pa), pa, Poly.one())
    for x in (0, 1, -3, Fraction(2, 3), GaussianRational(0, 1), GaussianRational(Fraction(-1, 2), 5)):
        _assert_normal(Frac.of(x), Poly.const(x), Poly.one())


# rings of constants for the image in F_p: rational numbers inside the
# coefficients, and polynomial denominators in the constants
_IMAGE_RINGS = {
    "Q(i)": lambda rng: Frac(Poly.const(rand_gauss(rng))),
    "Z[i][pi]": lambda rng: Frac(rand_poly(rng, vars=("pi",), max_deg=2), _rand_den(rng, ("pi",))),
    "Z[i][pi, exp(1/4)]": lambda rng: Frac(
        rand_poly(rng, vars=("pi", "exp(1/4)"), max_deg=2), _rand_den(rng, ("pi", "exp(1/4)"))
    ),
}


@pytest.mark.parametrize("ring", sorted(_IMAGE_RINGS))
def test_residues_are_a_ring_homomorphism(ring):
    p = scalars.MOD_P
    rng = random.Random(2201 + sorted(_IMAGE_RINGS).index(ring))
    draw = _IMAGE_RINGS[ring]
    for _ in range(60):
        x, y = draw(rng), draw(rng)
        for image in (residues, conjugate_residues):
            rx, ry = image([x, y])
            assert image([x + y, x * y]) == [(rx + ry) % p, rx * ry % p]
            if ry:
                assert image([x / y]) == [rx * pow(ry, -1, p) % p]
    assert residues([Frac.of(GaussianRational(0, 1)), PI]) == [scalars._MOD_I, scalars._residue("pi")]
    assert conjugate_residues([Frac.of(GaussianRational(0, 1)), PI]) == [p - scalars._MOD_I, scalars._residue("pi")]


def _per_term_residue(q):
    """The image of q in F_p with each term's denominator inverted on its
    own: the reference for the one inverse per polynomial of residues."""
    p = scalars.MOD_P
    acc = 0
    for mono, c in q.terms.items():
        t = c.re.numerator * c.im.denominator + c.im.numerator * c.re.denominator * scalars._MOD_I
        t = t * pow(c.re.denominator * c.im.denominator, -1, p)
        for name, e in mono:
            t = t * pow(scalars._residue(name), e, p) % p
        acc += t
    return acc % p


@pytest.mark.parametrize("ring", sorted(_IMAGE_RINGS))
def test_residues_are_the_term_by_term_image(ring):
    p = scalars.MOD_P
    rng = random.Random(2301 + sorted(_IMAGE_RINGS).index(ring))
    draw = _IMAGE_RINGS[ring]
    for _ in range(60):
        xs = [draw(rng) for _ in range(3)]
        want = [_per_term_residue(x.num) * pow(_per_term_residue(x.den), -1, p) % p for x in xs]
        assert residues(xs) == want


def test_a_denominator_that_vanishes_mod_p_has_no_image():
    # a Gaussian-rational denominator p, and pi minus its own residue
    vanishing = (
        Frac.of(Fraction(1, scalars.MOD_P)),
        Frac.of(GaussianRational(1, Fraction(2, 3 * scalars.MOD_P))),
        Frac(Poly.one(), Poly.var("pi") - Poly.const(scalars._residue("pi"))),
    )
    for x in vanishing:
        with pytest.raises(ZeroDivisionError):
            residues([Frac.of(1), x])


def _snapshot(x):
    """The terms of a Poly, or of a Frac's num and den, by value and by the
    identity of the dict that holds them."""
    if isinstance(x, Frac):
        return _snapshot(x.num), _snapshot(x.den)
    if isinstance(x, Poly):
        return id(x.terms), {m: (c.re, c.im) for m, c in x.terms.items()}
    return x


def test_operations_never_write_to_their_operands():
    # Poly.one() is one shared object and the unit-denominator path keeps
    # its numerator, so no operation may write to an operand's terms
    rng = random.Random(1212)
    ops = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "neg": lambda a, b: -a,
        "pow": lambda a, b: a**2,
    }
    one = Poly.one()
    one_before = _snapshot(one)
    for _ in range(30):
        polys = [rand_poly(rng, vars=("z", "pi"), max_deg=2, max_terms=3) for _ in range(2)]
        polys.append(rng.choice([Poly.one(), Poly.const(2), Poly.zero()]))
        a, b = (rand_poly(rng, max_deg=2, max_terms=3) or Poly.one() for _ in range(2))
        c = polys[2]
        fracs = [Frac(a, b), Frac(b, c or Poly.one()), Frac.of(c), Frac(polys[0])]
        for x in polys + fracs:
            for y in polys + fracs:
                if isinstance(x, Poly) != isinstance(y, Poly):
                    continue
                before = _snapshot(x), _snapshot(y)
                for op in ops.values():
                    op(x, y)
                if isinstance(x, Poly):
                    x.scale(rand_gauss(rng))
                    x.scale(1)
                    poly_gcd(x, y)
                    if y:
                        poly_exact_div(x * y, y)
                else:
                    Frac(x.num, x.den)
                    if y:
                        x / y
                assert (_snapshot(x), _snapshot(y)) == before
                assert _snapshot(one) == one_before
    assert Poly.one() is one and one.is_one()


def test_fractions_over_one_call_no_inverse_and_no_gcd(monkeypatch):
    calls = {"inverse": 0, "poly_gcd": 0}
    inverse, gcd = GaussianRational.inverse, scalars.poly_gcd

    def counted_inverse(self):
        calls["inverse"] += 1
        return inverse(self)

    def counted_gcd(a, b):
        calls["poly_gcd"] += 1
        return gcd(a, b)

    monkeypatch.setattr(GaussianRational, "inverse", counted_inverse)
    monkeypatch.setattr(scalars, "poly_gcd", counted_gcd)
    z, pi = Poly.var("z"), Poly.var("pi")
    p = Poly.const(GaussianRational(Fraction(3, 7), 2)) * z * z + pi - Poly.const(5)
    q = z * pi + Poly.const(Fraction(1, 2))
    x, y = Frac(p), Frac(q)
    assert x.num is p and x.den.is_one()
    s, t = x + y, x * y
    assert calls == {"inverse": 0, "poly_gcd": 0}
    assert s == Frac(p + q) and t == Frac(p * q)
    # the counters do count: a constant denominator inverts, a polynomial
    # one takes a gcd
    Frac(p, Poly.const(2))
    Frac(p, q)
    assert calls["inverse"] >= 1 and calls["poly_gcd"] >= 1


def test_poly_rejects_a_monomial_out_of_canonical_order():
    # z first, then constants by name: arithmetic and exact division rely
    # on it, and division by such a monomial used to loop forever
    with pytest.raises(ScalarError, match="canonical variable order"):
        Poly({(("pi", 1), ("z", 1)): GaussianRational(1)})
    with pytest.raises(ScalarError, match="canonical variable order"):
        Poly({(("z", 1), ("z", 2)): GaussianRational(1)})
    p = Poly({(("z", 1), ("pi", 1)): GaussianRational(1)})
    assert p == Poly.var("pi") * Poly.var("z")
    assert poly_exact_div(p + Poly.one(), p + Poly.one()) == Poly.one()


# ---------------------------------------------------------------------------
# The normal form of a list of fractions, against the three routines it
# replaced: a row cleared for elimination, the primitive numerators, and
# their scaling to a unit lead in DiffPoly normalization


def _reference_clear_denominators(fracs):
    fracs = list(fracs)
    lcm = Poly.one()
    for x in fracs:
        lcm = poly_lcm(lcm, x.den)
    return [(x * Frac(lcm)).num for x in fracs]


def _reference_clear_row(row):
    out = _reference_clear_denominators(row)
    denoms = 1
    for q in out:
        for g in q.terms.values():
            denoms = math.lcm(denoms, g.re.denominator, g.im.denominator)
    if denoms != 1:
        grow = GaussianRational(denoms)
        out = [q.scale(grow) for q in out]
    return out


def _reference_primitive_numerators(fracs):
    nums = _reference_clear_denominators(fracs)
    content = scalars._content(nums)
    if content.is_one():
        return nums
    return [poly_exact_div(q, content) for q in nums]


def _reference_unit_lead(coeffs, lead):
    nums = _reference_primitive_numerators(coeffs)
    inv = Frac.of(nums[lead].leading()[1].inverse())
    return [Frac(q) * inv for q in nums]


def _reference_normalize(p):
    if p.is_zero():
        return p
    monos = list(p.terms)
    lead = monos.index(max(monos, key=mono_rank))
    return DiffPoly(dict(zip(monos, _reference_unit_lead(p.terms.values(), lead))))


def _rand_frac_zpi(rng):
    # small entries: larger rational systems over z and pi reach the
    # coefficient swell of the multivariate gcd
    if rng.random() < 0.15:
        return Frac(Poly.zero())
    num = rand_poly(rng, vars=("z", "pi"), max_deg=2, max_terms=2)
    return Frac(num, _rand_den(rng, ("z", "pi")))


def _unit_den_frac(rng):
    # denominator 1, rational coefficients inside the numerator
    return Frac(rand_poly(rng, vars=("z", "pi"), max_deg=2, max_terms=2))


def test_clear_denominators_matches_the_row_clearing_reference():
    rng = random.Random(1401)
    draws = {
        "any": lambda: _rand_frac_zpi(rng),
        "unit": lambda: _unit_den_frac(rng),
        "mixed": lambda: rng.choice([_rand_frac_zpi, _unit_den_frac])(rng),
    }
    for kind, draw in draws.items():
        for _ in range(150):
            row = [draw() for _ in range(rng.randint(1, 4))]
            assert kind != "unit" or all(x.den.is_one() for x in row)
            got, want = clear_denominators(row), _reference_clear_row(row)
            assert [q.terms for q in got] == [q.terms for q in want], (kind, row)
            assert all(g.re.denominator == g.im.denominator == 1 for q in got for g in q.terms.values())


def test_clear_denominators_takes_no_lcm_of_unit_denominators(monkeypatch):
    calls = []
    lcm = scalars.poly_lcm

    def counted(a, b):
        calls.append(b)
        return lcm(a, b)

    monkeypatch.setattr(scalars, "poly_lcm", counted)
    rng = random.Random(1404)
    for _ in range(50):
        clear_denominators([_unit_den_frac(rng) for _ in range(rng.randint(1, 4))])
    assert calls == []
    # the spy does count: a row with one polynomial denominator takes one lcm
    den = Poly.var("z") + Poly.one()
    clear_denominators([Frac.of(1), Frac(Poly.one(), den), Frac.of(2)])
    assert calls == [den]


def test_unit_lead_numerators_match_the_reference():
    rng = random.Random(1402)
    checked = 0
    for _ in range(150):
        fracs = [_rand_frac_zpi(rng) for _ in range(rng.randint(1, 4))]
        nonzero = [k for k, x in enumerate(fracs) if x]
        if not nonzero:
            continue
        lead = rng.choice(nonzero)
        got = [Frac(q) for q in unit_lead_numerators(fracs, lead)]
        want = _reference_unit_lead(fracs, lead)
        assert [(x.num.terms, x.den.terms) for x in got] == [(x.num.terms, x.den.terms) for x in want]
        assert [frac_str(x) for x in got] == [frac_str(x) for x in want]
        assert got[lead].num.leading()[1] == GaussianRational(1)
        checked += 1
    assert checked > 100


def test_normalize_matches_the_reference():
    rng = random.Random(1403)
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = mono_of([rng.randint(0, 2) for _ in range(rng.randint(0, 3))])
            terms[mono] = _rand_frac_zpi(rng)
        p = DiffPoly(terms)
        got, want = normalize(p), _reference_normalize(p)
        assert list(got.terms.items()) == list(want.terms.items())
        assert str(got) == str(want)
