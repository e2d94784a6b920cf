"""Finding differential equations and polynomial relations from series.

Everything reduces to one primitive: a candidate family of functions is
expanded around a center, the coefficients are arranged into a linear
system, and an exact nullspace computation produces candidate identities.
A candidate found with N unknowns is solved from N + 10 series
coefficients and independently re-verified with 10 more, so a kernel
vector that merely reflects truncation is rejected rather than reported.

The exact nullspace guesses by homomorphism and proves exactly.  Its rows,
as given, are mapped into F_p by scalars.residues, and a rank mod p equal
to the column count proves full rank, since a ring homomorphism cannot
raise rank.  A matrix with a kernel reads it off the same elimination,
and off a second image with i at the other root of -1, and lifts each
entry to a Gaussian rational by rational reconstruction.  That basis is
returned only when it annihilates the rows cleared of denominators
exactly, the rank mod p leaves room for no other vector, and each vector
has the shape back-substitution gives its free column.  Anything else
falls back to Bareiss elimination over Z[i] and the constants.  Rank and
kernel are statements about the free ring of adjoined constants either
way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import (
    FRAC_ZERO,
    MOD_P,
    Frac,
    GaussianRational,
    Poly,
    clear_denominators,
    conjugate_residues,
    gaussian_lift,
    poly_exact_div,
    poly_gcd,  # unused here; bench/test_bench.py checks that the tracer rebinds this copy
    residues,
    unit_lead_numerators,
)
from .series import EXACT, NUMERIC
from .diffpoly import (
    DiffPoly,
    Jet,
    holds_on,
    mono_product,
    mono_rank,
    mono_weight,
    normalize,
)
from .expr import DefinitionEnvironment, Expression, expand_series

SOLVE_MARGIN = 10
VERIFY_MARGIN = 10
SNAP_DENOMINATOR = 10**6


class DiscoveryError(ValueError):
    pass


class BoundExhausted(DiscoveryError):
    def __init__(self, message: str, escalations):
        super().__init__(message)
        self.escalations = escalations


class VerificationError(DiscoveryError):
    pass


# ---------------------------------------------------------------------------
# Exact and numeric nullspaces


def exact_nullspace(rows):
    """Right nullspace basis of a matrix of scalar fractions, and its rank.

    Full rank is proven by the rank in F_p of the rows as given.  A kernel
    is read off that elimination, lifted from F_p by rational
    reconstruction and proven over the ring of the adjoined constants on
    the rows cleared to Gaussian-integer polynomials; when the lift or
    its proof fails, fraction-free elimination over that ring gives it.
    Either way the basis is the one back-substitution reads off the
    echelon form: one vector per free column, over the fraction field.
    """
    if not rows:
        return [], 0
    n = len(rows[0])
    image = _image(rows, residues)
    pivots = _echelon_mod_p(image, n)
    if len(pivots) == n:
        # a ring homomorphism cannot raise rank
        return [], n
    mat = [clear_denominators(r) for r in rows]
    found = _kernel_by_reconstruction(rows, mat, image, pivots)
    if found is not None:
        return found
    return _bareiss(mat)


def _bareiss(mat):
    """(basis, rank) of cleared rows by fraction-free elimination, which
    divides exactly at every step; the rows are not changed."""
    mat = [list(r) for r in mat]
    m, n = len(mat), len(mat[0])
    prev = Poly.one()
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if not mat[i][col].is_zero()), None)
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
        p = mat[r][col]
        # rows with q == 0 still get p*row/prev: skipping them breaks the
        # exactness of the next step's division by prev
        for i in range(r + 1, m):
            q = mat[i][col]
            for j in range(col + 1, n):
                e = p * mat[i][j] - q * mat[r][j]
                # the first step's prev is 1, which divides nothing
                mat[i][j] = e if prev.is_one() else poly_exact_div(e, prev)
            mat[i][col] = Poly.zero()
        prev = p
        pivots.append((r, col))
        r += 1
        if r == m:
            break
    return _back_substitute(mat, pivots, EXACT, Frac), len(pivots)


def _image(rows, image_of) -> list:
    """The images in F_p of the rows that have one; fewer rows cannot
    raise the rank."""
    out = []
    for row in rows:
        try:
            out.append(image_of(row))
        except ZeroDivisionError:
            continue
    return out


def _echelon_mod_p(rows, n: int) -> list:
    """The pivot columns of rows over F_p, whose count is a lower bound on
    the rank over the fraction field.  The rows are brought to echelon
    form in place, except that entries below a pivot keep their values:
    only the entries after each row's pivot are read afterwards."""
    m = len(rows)
    pivots = []
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, m) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        inv = pow(top[col], -1, MOD_P)
        for row in rows[r + 1 :]:
            f = row[col] * inv % MOD_P
            if f:
                for j in range(col + 1, n):
                    row[j] = (row[j] - f * top[j]) % MOD_P
        pivots.append(col)
        if r + 1 == m:
            break
    return pivots


def _kernel_mod_p(rows, pivots, n: int) -> list:
    """One vector per free column of echelon rows over F_p, as
    back-substitution gives it: 1 at its free column c, 0 at the other
    free columns and after c."""
    inverses = [pow(rows[r][c], -1, MOD_P) for r, c in enumerate(pivots)]
    taken = set(pivots)
    basis = []
    for free in (c for c in range(n) if c not in taken):
        x = [0] * n
        x[free] = 1
        for r in reversed(range(len(pivots))):
            ci = pivots[r]
            if ci < free:
                row = rows[r]
                acc = sum(row[j] * x[j] for j in range(ci + 1, free + 1) if x[j])
                x[ci] = -acc * inverses[r] % MOD_P
        basis.append(x)
    return basis


def _kernel_by_reconstruction(rows, mat, image, pivots):
    """The kernel read off the echelon image and lifted from F_p, returned
    with its rank only with its proof, else None.  The rows' second image,
    with i at the other root of -1, must have the same pivot columns, and
    each entry must lift to a Gaussian rational (scalars.gaussian_lift).

    The proof, on the cleared rows: M v = 0 for each vector v, so the
    kernel has dimension at least k; the rank mod p is at least n - k, so
    at most k; and v is 1 at its free column c, 0 at the other free
    columns and 0 after c, so column c depends on the columns before it
    and is free in the echelon form over the ring too.  A kernel vector is
    fixed by its values on the free columns, so these are the vectors
    elimination over the ring returns."""
    n = len(mat[0])
    conjugate = _image(rows, conjugate_residues)
    if _echelon_mod_p(conjugate, n) != pivots:
        return None
    basis = []
    for plus, minus in zip(_kernel_mod_p(image, pivots, n), _kernel_mod_p(conjugate, pivots, n)):
        lifted = gaussian_lift(plus, minus)
        if lifted is None:
            return None
        basis.append([Frac.of(g) for g in lifted])
    k = len(basis)
    if len(pivots) < n - k:
        return None
    free = [max(j for j, x in enumerate(v) if not x.is_zero()) for v in basis]
    if len(set(free)) != k:
        return None
    for v, c in zip(basis, free):
        if not v[c].is_one() or any(not v[f].is_zero() for f in free if f != c) or not _annihilates(mat, v):
            return None
    return basis, n - k


def _annihilates(mat, v) -> bool:
    """M v = 0 over the ring, on the cleared rows with the vector cleared
    to Gaussian integers: a nonzero scale leaves M v = 0 as it is."""
    support = [(j, g.const_value()) for j, g in enumerate(clear_denominators(v)) if g]
    return not any(sum((row[j].scale(g) for j, g in support), Poly.zero()) for row in mat)


def numeric_nullspace(rows):
    """Floating-point analogue with partial pivoting; a pivot counts when
    it exceeds the numeric tolerance relative to the largest entry."""
    if not rows:
        return [], 0
    mat = [[complex(x) for x in row] for row in rows]
    m, n = len(mat), len(mat[0])
    cutoff = NUMERIC.tolerance * max((abs(x) for row in mat for x in row), default=0.0)
    pivots = []
    r = 0
    for col in range(n):
        piv = max(range(r, m), key=lambda i: abs(mat[i][col]), default=None)
        if piv is None or abs(mat[piv][col]) <= cutoff:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
        p = mat[r][col]
        for i in range(r + 1, m):
            f = mat[i][col] / p
            if f == 0:
                continue
            for j in range(col, n):
                mat[i][j] -= f * mat[r][j]
        pivots.append((r, col))
        r += 1
        if r == m:
            break
    return _back_substitute(mat, pivots, NUMERIC, complex), len(pivots)


def _back_substitute(mat, pivots, dom, lift):
    """One kernel vector per free column of an echelon matrix over the
    domain, lifting each entry it reads into the domain.  Zero products
    are skipped: the exact sum is unchanged, and a numeric sum starts at
    +0j, which adding a signed zero leaves as it is."""
    n = len(mat[0])
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in (c for c in range(n) if c not in pivot_cols):
        x = [dom.zero] * n
        x[free] = dom.one
        for ri, ci in reversed(pivots):
            acc = dom.zero
            for j in range(ci + 1, n):
                if not dom.is_zero(x[j]) and not dom.is_zero(mat[ri][j]):
                    acc = acc + lift(mat[ri][j]) * x[j]
            x[ci] = -acc / lift(mat[ri][ci])
        basis.append(x)
    return basis


def snap_scalar(x: complex) -> Frac:
    """Nearest small rational point, for reading numeric kernels back."""
    re = Fraction(x.real).limit_denominator(SNAP_DENOMINATOR)
    im = Fraction(x.imag).limit_denominator(SNAP_DENOMINATOR)
    return Frac.of(GaussianRational(re, im))


# ---------------------------------------------------------------------------
# The shared kernel


def _kernel(series, degree: int, center):
    """Kernel of the columns z^j * s (each series s, then j = 0..degree),
    one row per coefficient: (basis, rank, number of rows)."""
    dom = series[0].domain
    order = min(s.order for s in series)
    c = dom.center(center)
    columns = []
    for s in series:
        col = s.coeffs[: order + 1]
        columns.append(col)
        for _ in range(degree):
            # z = c + t, so z*col has coefficients c*col[k] + col[k-1]:
            # around 0 a plain shift
            shifted = (dom.zero,) + col[:-1]
            col = shifted if dom.is_zero(c) else tuple(c * x + y for x, y in zip(col, shifted))
            columns.append(col)
    rows = [[col[i] for col in columns] for i in range(order + 1)]
    basis, rank = dom.nullspace(rows)
    return basis, rank, len(rows)


def _coefficients(vec, count: int, degree: int):
    """The count polynomials of a kernel vector of _kernel: the k-th is
    the sum of vec[k*(degree+1) + j] * z^j over j = 0..degree."""
    z = Frac.var("z")
    out = []
    for k in range(count):
        total = FRAC_ZERO
        for j in range(degree + 1):
            total = total + vec[k * (degree + 1) + j] * z**j
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# Polynomial relations among given functions


@dataclass
class RelationResult:
    """Outcome of a single-degree relation search."""

    certificate: list | None
    degree: int
    rank: int
    num_unknowns: int
    num_equations: int
    solve_order: int

    @property
    def found(self) -> bool:
        return self.certificate is not None


def relation_search(
    funcs,
    env: DefinitionEnvironment,
    degree: int = 0,
    center=0,
    mode: str = "exact",
) -> RelationResult:
    """Look for polynomial coefficients c_k(z) of bounded degree with
    sum(c_k * funcs[k]) identically zero."""
    if not funcs:
        raise DiscoveryError("relation search needs at least one function")
    if degree < 0:
        raise DiscoveryError("coefficient degree must be nonnegative")
    n_solve = len(funcs) * (degree + 1) + SOLVE_MARGIN
    series = [expand_series(f, center, n_solve, mode=mode, env=env) for f in funcs]
    basis, rank, n_rows = _kernel(series, degree, center)

    def certificate(vec):
        coeffs = _coefficients(vec, len(funcs), degree)
        nonzero = [k for k, c in enumerate(coeffs) if not c.is_zero()]
        if nonzero:
            # the first nonzero entry's leading scalar is +1
            coeffs = [Frac(q) for q in unit_lead_numerators(coeffs, nonzero[0])]
        return coeffs

    def simplicity(coeffs):
        return (
            sum(1 for c in coeffs if not c.is_zero()),
            sum(c.num.degree_in("z") for c in coeffs),
            tuple(str(c.num) for c in coeffs),
        )

    best = min(map(certificate, basis), key=simplicity, default=None)
    return RelationResult(best, degree, rank, len(funcs) * (degree + 1), n_rows, series[0].order)


# ---------------------------------------------------------------------------
# Differential equation search


def candidate_monomials(max_weight: int, max_degree: int):
    """Every differential monomial within the weight and degree budget,
    constant included, in ascending canonical order."""
    ys = [(0,) * k + (1,) for k in range(max_weight + 1)]
    monos = {()}
    for _ in range(max_degree):
        grown = (mono_product(m, y) for m in monos for y in ys)
        monos |= {t for t in grown if mono_weight(t) <= max_weight}
    return sorted(monos, key=mono_rank)


@dataclass
class SearchOutcome:
    """A verified differential equation and how it was found."""

    ade: DiffPoly
    found_at: tuple
    num_unknowns: int
    num_equations: int
    solve_order: int
    verify_order: int
    kernel_dimension: int
    escalations: list


def find_ade(
    subject: Expression,
    env: DefinitionEnvironment,
    center=0,
    min_weight: int = 1,
    max_weight: int = 4,
    max_degree: int = 3,
    max_coeff_degree: int = 4,
    mode: str = "exact",
) -> SearchOutcome:
    """Smallest differential equation satisfied by the subject, escalating
    weight, then total degree, then coefficient degree (fastest)."""
    if min_weight < 1 or max_weight < min_weight:
        raise DiscoveryError("weight bounds must satisfy 1 <= min <= max")
    if max_degree < 1 or max_coeff_degree < 0:
        raise DiscoveryError("degree bounds are out of range")
    escalations = []
    jet = Jet.expanding(subject, env, center, mode)
    for w in range(min_weight, max_weight + 1):
        for d in range(1, max_degree + 1):
            monos = candidate_monomials(w, d)
            for c in range(0, max_coeff_degree + 1):
                unknowns = len(monos) * (c + 1)
                n_solve = unknowns + SOLVE_MARGIN
                candidate, rank, n_rows, dimension = search_stage(jet, monos, c, center)
                if candidate is None:
                    escalations.append(
                        {
                            "weight": w,
                            "degree": d,
                            "coeff_degree": c,
                            "unknowns": unknowns,
                            "rank": rank,
                        }
                    )
                    continue
                verify_order = n_solve + VERIFY_MARGIN
                if not holds_on(candidate, subject, env, center, verify_order, mode):
                    raise VerificationError(
                        f"candidate {candidate} from stage (w={w}, d={d}, c={c}) "
                        f"failed re-verification at order {verify_order}"
                    )
                return SearchOutcome(
                    ade=candidate,
                    found_at=(w, d, c),
                    num_unknowns=unknowns,
                    num_equations=n_rows,
                    solve_order=n_solve,
                    verify_order=verify_order,
                    kernel_dimension=dimension,
                    escalations=escalations,
                )
    raise BoundExhausted(
        f"no differential equation within weight {max_weight}, degree {max_degree}, "
        f"coefficient degree {max_coeff_degree}",
        escalations,
    )


def search_stage(jet: Jet, monos, degree: int, center):
    """One search stage: the kernel of the monomials of a jet with
    polynomial coefficients of the given degree, solved from the series
    through order unknowns + SOLVE_MARGIN.  Returns (candidate, rank,
    rows, kernel dimension); the candidate is the normalized equation of
    the simplest kernel vector (fewest terms, then lowest coefficient
    degree, then text), or None when the columns have full rank."""
    order = len(monos) * (degree + 1) + SOLVE_MARGIN
    basis, rank, n_rows = _kernel(jet.monomials(monos, order), degree, center)

    def equation(vec):
        return normalize(DiffPoly(dict(zip(monos, _coefficients(vec, len(monos), degree)))))

    best = min(map(equation, basis), key=lambda p: (len(p.terms), p.coeff_degree, str(p)), default=None)
    return best, rank, n_rows, len(basis)
