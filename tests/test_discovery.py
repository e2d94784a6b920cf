"""Kernel extraction and the bounded equation search."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from adekit import diffpoly, discovery, scalars
from adekit.scalars import Frac, GaussianRational, Poly, clear_denominators
from adekit.series import EXACT, NUMERIC, PowerSeries
from adekit.expr import EMPTY_ENV, DefinitionEnvironment, parse
from adekit.pipeline import iterate_ade
from adekit.diffpoly import ade_text, holds_on, mono_of, mono_rank, mono_total_degree, mono_weight, parse_ade
from adekit.discovery import (
    BoundExhausted,
    DiscoveryError,
    _kernel,
    candidate_monomials,
    exact_nullspace,
    find_ade,
    numeric_nullspace,
    relation_search,
    snap_scalar,
)

from test_series import shifted_series


def _frac_rows(int_rows):
    return [[Frac.of(x) for x in row] for row in int_rows]


# ---------------------------------------------------------------------------
# nullspaces


def test_exact_nullspace_known_kernel():
    # x + y + z = 0, x + 2y + 3z = 0 has kernel spanned by (1, -2, 1)
    basis, rank = exact_nullspace(_frac_rows([[1, 1, 1], [1, 2, 3]]))
    assert rank == 2 and len(basis) == 1
    v = basis[0]
    t = v[2]
    assert [x / t for x in v] == [Frac.of(1), Frac.of(-2), Frac.of(1)]


def test_exact_nullspace_full_rank():
    basis, rank = exact_nullspace(_frac_rows([[1, 0], [0, 1], [1, 1]]))
    assert rank == 2 and basis == []


def test_exact_nullspace_polynomial_entries():
    z = Frac(Poly.var("z"))
    one = Frac.of(1)
    # rows [z, -1], [z^2, -z] are dependent; kernel is (1, z)
    basis, rank = exact_nullspace([[z, -one], [z * z, -z]])
    assert rank == 1 and len(basis) == 1
    v = basis[0]
    assert v[1] / v[0] == z


def test_exact_nullspace_gaussian_entries():
    i = Frac.of(GaussianRational(0, 1))
    basis, rank = exact_nullspace([[Frac.of(1), i]])
    assert rank == 1 and len(basis) == 1
    v = basis[0]
    assert v[0] / v[1] == -i


def _annihilates(v, rows):
    for row in rows:
        acc = Frac.of(0)
        for a, x in zip(row, v):
            acc = acc + a * x
        if not acc.is_zero():
            return False
    return True


def test_exact_nullspace_seeded_verification():
    rng = random.Random(90210)
    for _ in range(20):
        m, n = rng.randint(2, 5), rng.randint(2, 6)
        rows = [[Frac.of(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        basis, rank = exact_nullspace(rows)
        assert rank + len(basis) == n
        for v in basis:
            assert _annihilates(v, rows)


def test_exact_nullspace_adjoined_constant_full_rank():
    # the zero below the first pivot must still be scaled by that pivot,
    # or the next step's division by pi is inexact
    pi, one, zero = Frac.var("pi"), Frac.of(1), Frac.of(0)
    basis, rank = exact_nullspace([[pi, one, zero], [zero, one, one], [one, zero, one]])
    assert rank == 3 and basis == []


def test_exact_nullspace_adjoined_constant_kernel():
    pi, one, zero = Frac.var("pi"), Frac.of(1), Frac.of(0)
    rows = [[pi, one, zero, one], [zero, one, one, zero], [one, zero, one, one]]
    basis, rank = exact_nullspace(rows)
    assert rank == 3 and len(basis) == 1
    v = basis[0]
    assert _annihilates(v, rows)
    two = one + one
    assert [x / v[2] for x in v] == [two / (pi - one), -one, one, -(pi + one) / (pi - one)]


def _reference_rank(rows):
    """Rank by plain Gauss-Jordan elimination over Frac."""
    mat = [list(r) for r in rows]
    m, n = len(mat), len(mat[0])
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if not mat[i][col].is_zero()), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Frac.of(1) / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(m):
            if i != r and not mat[i][col].is_zero():
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def _rand_gaussian(rng):
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5 else 0
    return GaussianRational(re, im)


def _rand_entry(rng, kind):
    # half the entries are zero, so zeros sit below pivots
    if rng.random() < 0.5:
        return Frac.of(0)
    if kind == "gaussian":
        return Frac.of(_rand_gaussian(rng))
    pi = Poly.var("pi")
    num = Poly.const(_rand_gaussian(rng)) + Poly.const(_rand_gaussian(rng)) * pi
    if rng.random() < 0.3:
        num = num + Poly.const(_rand_gaussian(rng)) * pi**2
    den = pi + Poly.one() if rng.random() < 0.15 else Poly.one()
    return Frac(num, den)


def test_exact_nullspace_matches_gauss_jordan_reference():
    rng = random.Random(20260)
    for trial in range(60):
        kind = "gaussian" if trial % 2 else "pi"
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        rows = [[_rand_entry(rng, kind) for _ in range(n)] for _ in range(m)]
        if m >= 3 and rng.random() < 0.5:
            # a dependent last row, so rank deficiency shows up too
            a, b = _rand_entry(rng, kind) or Frac.of(1), _rand_entry(rng, kind)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        basis, rank = exact_nullspace(rows)
        assert rank == _reference_rank(rows)
        assert len(basis) == n - rank
        for v in basis:
            assert _annihilates(v, rows)
        if basis:
            # the basis vectors are independent, so they span the kernel
            assert _reference_rank(basis) == len(basis)


# ---------------------------------------------------------------------------
# guessed in an image, proven over the ring


def _is_prime(n):
    """Deterministic Miller-Rabin: the first twelve prime bases decide every
    n below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_modular_image_constants():
    p, root = scalars.MOD_P, scalars._MOD_I
    assert p.bit_length() == 62
    assert _is_prime(p)
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7
    assert _is_prime(7) and not _is_prime(3215031751)
    assert p % 4 == 1
    assert root * root % p == p - 1


def test_residues_do_not_depend_on_the_hash_seed():
    # the found equations cannot show a seed-dependent residue, since the
    # proofs fix the answer; the residues themselves must not move either
    code = "from adekit import scalars; print(scalars._residue('pi'), scalars._residue('exp(1)'))"
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60, env=env)
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.fixture
def paths(monkeypatch):
    """Spy on the routes of exact_nullspace past a rank mod p short of the
    column count: each kernel read off the images as "proven", or as
    "unlifted" when an entry had no rational lift and "refused" when the
    lift failed its proof; then each elimination over the ring as
    "bareiss"."""
    seen = []
    lifted = []
    bareiss, reconstruct, lift = discovery._bareiss, discovery._kernel_by_reconstruction, discovery.gaussian_lift

    def spy_bareiss(mat):
        seen.append("bareiss")
        return bareiss(mat)

    def spy_lift(plus, minus):
        out = lift(plus, minus)
        lifted.append(out is not None)
        return out

    def spy_reconstruct(rows, mat, image, pivots):
        lifted.clear()
        out = reconstruct(rows, mat, image, pivots)
        seen.append("proven" if out is not None else "refused" if all(lifted) else "unlifted")
        return out

    monkeypatch.setattr(discovery, "_bareiss", spy_bareiss)
    monkeypatch.setattr(discovery, "gaussian_lift", spy_lift)
    monkeypatch.setattr(discovery, "_kernel_by_reconstruction", spy_reconstruct)
    return seen


def _bareiss_of(rows):
    return discovery._bareiss([clear_denominators(r) for r in rows])


def test_bareiss_never_divides_by_one(monkeypatch):
    # the first step's prev is 1, and a division by it would change nothing
    divisions = {"all": 0, "by one": 0}
    div = discovery.poly_exact_div

    def counted(a, b):
        divisions["all"] += 1
        divisions["by one"] += b.is_one()
        return div(a, b)

    monkeypatch.setattr(discovery, "poly_exact_div", counted)
    rng = random.Random(2402)
    for trial in range(24):
        kind = "gaussian" if trial % 2 else "pi"
        m, n = rng.randint(3, 5), rng.randint(3, 5)
        rows = [[_rand_entry(rng, kind) for _ in range(n)] for _ in range(m)]
        basis, rank = _bareiss_of(rows)
        assert rank == _reference_rank(rows) and len(basis) == n - rank
        assert all(_annihilates(v, rows) for v in basis)
    assert divisions["all"] > 0 and divisions["by one"] == 0


def test_full_rank_mod_p_skips_elimination(paths):
    pi, one = Frac.var("pi"), Frac.of(1)
    rows = [[pi, one, Frac.of(0)], [one, pi, one], [pi * pi, one, pi + one], [one, one, one]]
    assert exact_nullspace(rows) == ([], 3)
    assert paths == []


def test_a_kernel_free_of_constants_is_lifted_and_proven(paths):
    # the last column is 2*col0 - i*col1, so the kernel is (2, -i, -1)
    # up to scale, with no pi in it
    pi, one, i = Frac.var("pi"), Frac.of(1), Frac.of(GaussianRational(0, 1))
    cols = [[pi, one, one / (pi + one)], [one, pi * pi, pi]]
    rows = [[a, b, 2 * a - i * b] for a, b in zip(*cols)]
    basis, rank = exact_nullspace(rows)
    assert paths == ["proven"]
    assert (basis, rank) == _bareiss_of(rows)
    assert rank == 2 and basis == [[Frac.of(-2), i, Frac.of(1)]]


def test_a_full_rank_matrix_singular_mod_p_falls_back(paths):
    # full rank over Q(i), but the entry p vanishes in F_p: the image's
    # kernel vector (1, 0) lifts and fails M v = 0
    rows = _frac_rows([[scalars.MOD_P, 0], [0, 1]])
    assert exact_nullspace(rows) == ([], 2)
    assert paths == ["refused", "bareiss"]


def test_a_kernel_that_depends_on_a_constant_falls_back(paths):
    # the matrix of test_exact_nullspace_adjoined_constant_kernel: its
    # kernel has 2/(pi-1), whose image at the residue of pi has no small
    # lift, and no vector over Q(i) annihilates the rows
    pi, one, zero = Frac.var("pi"), Frac.of(1), Frac.of(0)
    rows = [[pi, one, zero, one], [zero, one, one, zero], [one, zero, one, one]]
    basis, rank = exact_nullspace(rows)
    assert paths == ["unlifted", "bareiss"]
    assert (basis, rank) == _bareiss_of(rows)
    assert rank == 3 and _annihilates(basis[0], rows)


@pytest.mark.parametrize("vanishes", [True, False])
def test_a_constant_pivot_that_vanishes_mod_p_is_refused(paths, vanishes):
    # pi - r vanishes mod p at the residue r of pi, so the image's extra
    # kernel vector (0, 1) lifts and fails M v = 0; pi - 3 is a pivot in
    # F_p as over the ring, and the kernel beside it is free of pi
    pi, one, zero = Frac.var("pi"), Frac.of(1), Frac.of(0)
    drop = pi - Frac.of(3)
    if vanishes:
        rows = [[drop, zero], [zero, pi - Frac.of(scalars._residue("pi"))]]
    else:
        rows = [[drop, zero, zero], [zero, one, one]]
    basis, rank = exact_nullspace(rows)
    assert paths == (["refused", "bareiss"] if vanishes else ["proven"])
    assert (basis, rank) == _bareiss_of(rows)
    assert rank == 2 and len(basis) == len(rows[0]) - 2


def test_exact_nullspace_matches_bareiss_sweep(paths):
    # Q(i) and Z[i][pi] matrices, (pi+1) denominators included, of full
    # rank, with a dependent row (a kernel over the constants, as a rule)
    # and with a column dependent over Q(i) (a kernel free of them)
    rng = random.Random(16016)
    for trial in range(48):
        kind = "gaussian" if trial % 2 else "pi"
        shape = trial // 2 % 3
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        rows = [[_rand_entry(rng, kind) for _ in range(n)] for _ in range(m)]
        if shape == 1 and m >= 3:
            a, b = _rand_entry(rng, kind) or Frac.of(1), _rand_entry(rng, kind)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        elif shape == 2:
            a, b = Frac.of(_rand_gaussian(rng)), Frac.of(_rand_gaussian(rng))
            rows = [row[:-1] + [a * row[0] + b * row[-2 if n > 2 else 0]] for row in rows]
        got = exact_nullspace(rows)
        assert got == _bareiss_of(rows)
        assert got[1] == _reference_rank(rows)
    # the sweep takes every route: kernels proven from the images, lifts
    # that fail their proof, entries that do not lift, and Bareiss after
    # either refusal
    assert {"proven", "refused", "unlifted", "bareiss"} <= set(paths)


def test_a_full_rank_stage_never_clears_its_rows(monkeypatch):
    cleared = []
    clear = discovery.clear_denominators
    monkeypatch.setattr(discovery, "clear_denominators", lambda row: cleared.append(row) or clear(row))
    jet = diffpoly.Jet.expanding(parse("sin(pi*z)"), EMPTY_ENV, 0, "exact")
    for coeff_degree in range(3):
        candidate, _, _, dimension = discovery.search_stage(jet, candidate_monomials(1, 1), coeff_degree, 0)
        assert candidate is None and dimension == 0
    assert cleared == []
    # the spy does see a stage with a kernel, y2 + pi^2*y0, clear its rows
    candidate, _, _, _ = discovery.search_stage(jet, candidate_monomials(2, 1), 0, 0)
    assert ade_text(candidate) == "y2 + pi^2*y0"
    assert cleared


def test_a_stage_maps_its_rows_once_and_the_conjugate_only_with_a_kernel(monkeypatch):
    # one image with i at _MOD_I gives the rank and, when it falls short,
    # the kernel; the image with i at the other root is taken only then
    mapped = {"residues": 0, "conjugate_residues": 0}

    def counted(name):
        image = getattr(discovery, name)

        def spy(row):
            mapped[name] += 1
            return image(row)

        return spy

    for name in mapped:
        monkeypatch.setattr(discovery, name, counted(name))
    jet = diffpoly.Jet.expanding(parse("exp(2*z)*sin(z)"), EMPTY_ENV, 0, "exact")
    for weight, coeff_degree, has_kernel in ((1, 0, False), (1, 1, False), (2, 0, True)):
        for key in mapped:
            mapped[key] = 0
        _, _, n_rows, dimension = discovery.search_stage(jet, candidate_monomials(weight, 1), coeff_degree, 0)
        assert (dimension > 0) == has_kernel
        assert mapped == {"residues": n_rows, "conjugate_residues": n_rows if has_kernel else 0}


def test_a_row_whose_denominator_vanishes_mod_p_gets_no_image(paths):
    # the first row of each matrix has no image in F_p, so the rank there
    # falls short of the column count: the kernel of the other row lifts,
    # and fails its proof on the rows the image left out
    pi, one = Frac.var("pi"), Frac.of(1)
    no_image = Frac.of(Fraction(1, scalars.MOD_P))
    vanishing = Frac(Poly.one(), Poly.var("pi") - Poly.const(scalars._residue("pi")))
    for rows in (
        [[no_image, one], [Frac.of(2), Frac.of(3)]],
        [[pi, vanishing, one], [one, pi, one]],
    ):
        paths.clear()
        got = exact_nullspace(rows)
        assert paths == ["refused", "bareiss"]
        assert got == _bareiss_of(rows)
    assert got[1] == 2 and _annihilates(got[0][0], rows)


def _bounded_fraction(rng, bound):
    # the extremes of the bound half the time
    if rng.random() < 0.5:
        return Fraction(rng.choice((-bound, 0, bound)), rng.choice((1, bound)))
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def test_gaussian_rationals_within_the_bound_lift_from_their_two_images():
    bound = math.isqrt(scalars.MOD_P // 2)
    rng = random.Random(2801)
    for _ in range(300):
        size = rng.choice((3, 2**20, bound))
        xs = [GaussianRational(_bounded_fraction(rng, size), _bounded_fraction(rng, size)) for _ in range(4)]
        fracs = [Frac.of(x) for x in xs]
        assert scalars.gaussian_lift(scalars.residues(fracs), scalars.conjugate_residues(fracs)) == xs
    # past the bound a part's residue lifts to nothing or to another fraction
    for past in (Fraction(bound + 1), Fraction(1, bound + 1), Fraction(2**40), Fraction(-(2**40) - 1, 3)):
        fracs = [Frac.of(GaussianRational(past, 1))]
        assert scalars.gaussian_lift(scalars.residues(fracs), scalars.conjugate_residues(fracs)) != [fracs[0].num.const_value()]


def test_a_kernel_entry_past_the_lift_bound_falls_back(paths):
    # the last column is 2^40*col0 + col1, so the kernel is (2^40, 1, -1),
    # whose first entry lies past the bound: it lifts to a small fraction
    # that fails the proof, and Bareiss gives the kernel
    rows = _frac_rows([[a, b, 2**40 * a + b] for a, b in ((1, 2), (3, 5), (7, 11))])
    basis, rank = exact_nullspace(rows)
    assert 2**40 > math.isqrt(scalars.MOD_P // 2)
    assert paths == ["refused", "bareiss"]
    assert (basis, rank) == _bareiss_of(rows)
    assert rank == 2 and basis == [_frac_rows([[-(2**40), -1, 1]])[0]]


def test_iterations_take_their_kernels_from_the_images(monkeypatch):
    # the square of z + exp(z) and of exp(2z) end in kernel stages over
    # Q(i), each proven from its lift without an elimination over the ring
    eliminations = []
    bareiss = discovery._bareiss
    monkeypatch.setattr(discovery, "_bareiss", lambda mat: eliminations.append(mat) or bareiss(mat))
    square = iterate_ade(parse("z+exp(z)"), parse_ade("y2 - y1 + 1"), 2, DefinitionEnvironment())
    assert square.kernel_dimension == 2
    twice = iterate_ade(parse("exp(2*z)"), parse_ade("y1 - 2*y0"), 2, DefinitionEnvironment())
    assert ade_text(twice.ade) == "y0*y2 - y1^2 - 2*y0*y1"
    assert eliminations == []


def _kernel_rows(monkeypatch, series, degree, center):
    """The rows _kernel hands to its domain's nullspace."""
    seen = []
    monkeypatch.setattr(series[0].domain, "nullspace", lambda rows: seen.append(rows) or ([], 0))
    _kernel(series, degree, center)
    monkeypatch.undo()
    return seen[0]


def _product_route_rows(series, degree, center):
    """Each column as the series of z^j around the center times s."""
    dom = series[0].domain
    order = min(s.order for s in series)
    zpows = [shifted_series(Frac(Poly.var("z") ** j), center, order, dom) for j in range(degree + 1)]
    columns = [zp * s for s in series for zp in zpows]
    return [[col.coeffs[i] for col in columns] for i in range(order + 1)]


def test_kernel_columns_by_shift_match_the_product_route(monkeypatch):
    rng = random.Random(61)
    pi = Frac(Poly.var("pi"))
    centers = [Frac.of(0), Frac.of(Fraction(1, 4)), Frac.of(GaussianRational(1, 1)), pi]
    for center in centers:
        for degree in range(4):
            order = rng.randint(6, 9)
            series = [
                PowerSeries(EXACT, [_rand_entry(rng, "pi") for _ in range(order + 1)])
                for _ in range(rng.randint(1, 3))
            ]
            rows = _kernel_rows(monkeypatch, series, degree, center)
            assert rows == _product_route_rows(series, degree, center)


def test_kernel_columns_by_shift_numeric(monkeypatch):
    # up to z^1 the shift forms the same sums as the product; from z^2 on
    # it nests c*(c*s) where the product has (c^2)*s, so they agree to
    # rounding
    rng = random.Random(62)
    for degree in range(4):
        series = [
            PowerSeries(NUMERIC, [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(13)])
            for _ in range(2)
        ]
        for center in (0, 0.3):
            rows = _kernel_rows(monkeypatch, series, degree, center)
            want = _product_route_rows(series, degree, center)
            if center == 0 or degree <= 1:
                assert rows == want
                continue
            scale = max(abs(x) for row in want for x in row)
            assert all(abs(x - y) <= 1e-14 * scale for r, w in zip(rows, want) for x, y in zip(r, w))


def test_numeric_nullspace_matches_exact_rank():
    rows = [[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]]
    basis, rank = numeric_nullspace(rows)
    assert rank == 2 and len(basis) == 1
    v = basis[0]
    w = [x / v[2] for x in v]
    assert abs(w[0] - 1) < 1e-9 and abs(w[1] + 2) < 1e-9


def test_numeric_nullspace_of_a_zero_matrix_is_the_unit_basis():
    basis, rank = numeric_nullspace([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert rank == 0
    assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_snap_scalar():
    assert snap_scalar(complex(0.5, 0)) == Frac.of(Fraction(1, 2))
    assert snap_scalar(complex(0.3333333333, 0)) == Frac.of(Fraction(1, 3))
    v = snap_scalar(complex(0, -0.25))
    assert v == Frac.of(GaussianRational(0, Fraction(-1, 4)))


# ---------------------------------------------------------------------------
# candidate enumeration


def test_candidate_monomials_bounds():
    monos = candidate_monomials(2, 2)
    assert () in monos
    assert all(mono_weight(m) <= 2 and mono_total_degree(m) <= 2 for m in monos)
    assert (0, 2) in monos and (0, 0, 1) in monos
    assert (0, 1, 1) not in monos  # weight 3


def test_candidate_monomials_growth():
    a = len(candidate_monomials(2, 2))
    b = len(candidate_monomials(3, 3))
    assert a < b


def _candidate_monomials_by_frontier(max_weight, max_degree):
    """Reference enumeration: a breadth-first frontier that raises one
    exponent at a time and keeps what stays within both budgets."""
    seen = {()}
    frontier = [()]
    while frontier:
        grown = []
        for m in frontier:
            for k in range(max_weight + 1):
                bumped = list(m) + [0] * (k + 1 - len(m))
                bumped[k] += 1
                t = mono_of(bumped)
                if t in seen:
                    continue
                if mono_weight(t) <= max_weight and mono_total_degree(t) <= max_degree:
                    seen.add(t)
                    grown.append(t)
        frontier = grown
    return sorted(seen, key=mono_rank)


def test_candidate_monomials_match_the_frontier_reference():
    for max_weight in range(1, 7):
        for max_degree in range(1, 6):
            want = _candidate_monomials_by_frontier(max_weight, max_degree)
            assert candidate_monomials(max_weight, max_degree) == want, (max_weight, max_degree)


# ---------------------------------------------------------------------------
# relation search


def test_relation_search_circular_identity():
    funcs = [parse("sin(z)*sin(z)"), parse("cos(z)*cos(z)"), parse("1")]
    rel = relation_search(funcs, EMPTY_ENV, 0, 0, "exact")
    assert rel.found and rel.rank == 2
    assert [str(c) for c in rel.certificate] == ["1", "1", "-1"]


def test_relation_search_reports_independence():
    funcs = [parse("exp(z)"), parse("exp(2*z)")]
    rel = relation_search(funcs, EMPTY_ENV, 3, 0, "exact")
    assert not rel.found
    assert rel.rank == rel.num_unknowns == 8


def test_relation_search_numeric_mode():
    funcs = [parse("sin(z)*sin(z)"), parse("cos(z)*cos(z)"), parse("1")]
    rel = relation_search(funcs, EMPTY_ENV, 0, 0.2, "numeric")
    assert rel.found
    assert [str(c) for c in rel.certificate] == ["1", "1", "-1"]


def test_relation_search_picks_the_simplest_of_a_plane_of_relations():
    # c0 + c1*z + c2*z^2 = 0 with linear c_k: the kernel is spanned by
    # (z, -1, 0) and (0, z, -1), two terms of degree 1 each, and the
    # coefficient texts break the tie
    rel = relation_search([parse("1"), parse("z"), parse("z^2")], EMPTY_ENV, degree=1)
    assert rel.num_unknowns - rel.rank == 2
    assert [str(c) for c in rel.certificate] == ["0", "z", "-1"]


# ---------------------------------------------------------------------------
# the bounded search


def test_find_ade_exponential():
    out = find_ade(parse("exp(z)"), EMPTY_ENV)
    assert ade_text(out.ade) == "y1 - y0"
    assert out.found_at == (1, 1, 0)
    assert out.kernel_dimension == 1


def test_find_ade_sine():
    out = find_ade(parse("sin(z)"), EMPTY_ENV)
    assert ade_text(out.ade) == "y2 + y0"
    assert out.found_at == (2, 1, 0)


def test_find_ade_minimal_bound_pinning():
    # default escalation meets a coefficient-bearing equation first; the
    # weight-pinned search recovers the constant-coefficient one
    out_default = find_ade(parse("z+exp(z)"), EMPTY_ENV)
    assert ade_text(out_default.ade) == "y1 - y0 + z-1"
    assert out_default.found_at == (1, 1, 1)
    out_pinned = find_ade(parse("z+exp(z)"), EMPTY_ENV, min_weight=2, max_coeff_degree=0)
    assert ade_text(out_pinned.ade) == "y2 - y1 + 1"
    assert out_pinned.found_at == (2, 1, 0)


def test_find_ade_tower_of_exponentials():
    out = find_ade(parse("exp(exp(z))"), EMPTY_ENV)
    assert ade_text(out.ade) == "y0*y2 - y1^2 - y0*y1"
    assert out.found_at == (2, 2, 0)
    # full escalation history: three degrees at weight 1, one at weight 2,
    # five coefficient degrees each
    assert len(out.escalations) == 20


def test_find_ade_gaussian_subject():
    out = find_ade(parse("exp(z^2)"), EMPTY_ENV)
    assert ade_text(out.ade) == "y1 - 2*z*y0"
    assert out.found_at == (1, 1, 1)


def test_find_ade_polynomial_subject():
    out = find_ade(parse("z^2"), EMPTY_ENV)
    assert ade_text(out.ade) == "y1 - 2*z"
    assert out.kernel_dimension == 2


def test_find_ade_numeric_mode():
    out = find_ade(parse("exp(z)"), EMPTY_ENV, center=0.3, mode="numeric")
    assert ade_text(out.ade) == "y1 - y0"


def test_find_ade_expands_once_per_increase_of_the_solve_order(monkeypatch):
    # the five stages solve at orders 13, 16, 15, 20 and 14, plus one
    # derivative of the subject at weight 1 and two at weight 2: the
    # expansion grows at the first, second and fourth, and the others read
    # truncations; the check in holds_on expands on its own, at the verify
    # order 24 plus two derivatives; the expansions of the equation's
    # coefficients there are not the subject's and are not counted
    orders = []
    expand = diffpoly.expand_series
    searched = parse("sin(z)")

    def counting(subject, center, order, **kw):
        if subject is searched:
            orders.append(order)
        return expand(subject, center, order, **kw)

    monkeypatch.setattr(diffpoly, "expand_series", counting)
    out = find_ade(searched, EMPTY_ENV, max_degree=2, max_coeff_degree=1)
    assert orders == [14, 17, 21, 26]
    assert ade_text(out.ade) == "y2 + y0"
    assert out.found_at == (2, 1, 0)
    assert [(e["weight"], e["degree"], e["coeff_degree"], e["unknowns"], e["rank"]) for e in out.escalations] == [
        (1, 1, 0, 3, 3),
        (1, 1, 1, 6, 6),
        (1, 2, 0, 5, 5),
        (1, 2, 1, 10, 10),
    ]


def test_find_ade_result_verifies_beyond_solve_order():
    out = find_ade(parse("exp(z^2)"), EMPTY_ENV)
    assert out.verify_order > out.solve_order
    assert holds_on(out.ade, parse("exp(z^2)"), EMPTY_ENV, 0, out.verify_order + 10)


def test_find_ade_exhaustion_raises_with_history():
    with pytest.raises(BoundExhausted) as info:
        find_ade(parse("exp(exp(z))"), EMPTY_ENV, max_weight=1, max_degree=1, max_coeff_degree=0)
    assert info.value.escalations


def test_find_ade_rejects_bad_bounds():
    with pytest.raises(DiscoveryError):
        find_ade(parse("exp(z)"), EMPTY_ENV, min_weight=3, max_weight=2)
