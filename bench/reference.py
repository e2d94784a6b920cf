"""A fixed reference computation, timed next to every operation.

This machine's speed changes by up to a factor of two for minutes at a
time, on both CPUs at once, whatever the benchmark does.  The reference
slows down with it: it does the same kind of work as adekit's hot loops
(truncated products of series with exact rational coefficients, and a
sparse polynomial product kept in a dict of exponent tuples), with the
standard library's ``Fraction`` in place of adekit's scalars.  An
operation's time divided by the reference's time measured just before it
follows the code, not the minute; ``REFERENCE_S`` turns that ratio back
into seconds.  Nothing here imports adekit, so no change to adekit moves
the reference.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

# The reference's median time in a quiet minute on the machine the
# README's figures come from (2 shared vCPUs, Python 3.11.7).  It only
# scales the reported seconds; the ratios are what is measured.
REFERENCE_S = 0.0065

_ORDER = 22
_FACTORIALS = [math.factorial(k) for k in range(_ORDER)]
_POLY = {(i, j): Fraction(i + 1, j + 2) for i in range(8) for j in range(8) if (i + j) % 3}


def reference():
    """Truncated product of the series of exp(z) and exp(-2z), and the
    square of a sparse bivariate polynomial truncated in the first
    variable.  Returns a value the tests check."""
    a = [Fraction(1, f) for f in _FACTORIALS]
    b = [Fraction((-2) ** k, f) for k, f in enumerate(_FACTORIALS)]
    c = [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(_ORDER)]
    sq = {}
    for (i1, j1), x in _POLY.items():
        for (i2, j2), y in _POLY.items():
            if i1 + i2 < 10:
                key = (i1 + i2, j1 + j2)
                sq[key] = sq.get(key, 0) + x * y
    return c[-1], sum(sq.values())


def time_reference() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start
