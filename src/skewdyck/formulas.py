"""Explicit coefficient formulas via weighted trinomial coefficients.

This module is a purely arithmetic route to single series coefficients: no
power-series division or square roots, only (generalized) binomials and the
trinomial coefficients [t^k](1 + m*t + t^2)^n.  It cross-validates the
kernel-method closed forms in :mod:`.genfunc` coefficient by coefficient.

Conventions
-----------
* Negative upper index: C(-m, k) = (-1)^k * C(m+k-1, k), so that C(-j, k)
  is [v^k](1+v)^{-j}.  ``kappa_coeff`` expands 1/(1+2v)^j with it, and the
  test suite pins it against the series oracle
  [v^k]((1+v)^2 (1-v) / (1+2v)^j).
* ``dual_coeff_explicit`` sums k = 0..N inclusive.  The k = N term
  multiplies trinomial(N-1; 0) = 1 by mu_{j;N}, which is nonzero whenever
  N <= j+3, so it cannot be dropped; the equality test against the series
  route pins this down.
"""

import math
from functools import lru_cache

from .series import WPoly, quadratic_power


def _check_args(family=None, **args):
    """The entry guard of the public functions: a ValueError that names the
    first of ``args`` that is not an int, or a level ``j`` below the axis,
    where ``family``'s paths never end (hot callers test ints first)."""
    for name, value in args.items():
        if not isinstance(value, int):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if family and args["j"] < 0:
        raise ValueError(f"level j={args['j']}: {family} paths never end below the axis")


def binom(n, k):
    """Binomial coefficient with integer upper index of either sign.

    For n < 0 uses C(-m, k) = (-1)^k * C(m+k-1, k); k < 0 gives 0.
    """
    if not (isinstance(n, int) and isinstance(k, int)):
        _check_args(n=n, k=k)
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    return (-1) ** k * math.comb(-n + k - 1, k)


# Rows up to this upper index are memoized, up to 128 of them.  A half row
# of 2+w holds about n^2/2 ints of about 2n bits: 0.1 MiB at n = 64, so the
# cache stays below ~13 MiB.  A larger row is kept only until the next one.
_CACHED_ROW_MAX_N = 64


@lru_cache(maxsize=128)
def _trinomial_row(n, middle):
    """The first half a_0..a_n of the coefficients of (1 + middle*t + t^2)^n.

    The row is palindromic, a_k = a_{2n-k}, so the half fixes it.  It comes
    from :func:`~skewdyck.series.quadratic_power` at p/q = n, a = middle,
    b = 1, on integer lists (a_k as its w-coefficients): O(n) steps and no
    other row, so a cold row neither recurses nor fills the cache.
    """
    if isinstance(middle, WPoly):
        return tuple(map(WPoly, quadratic_power(n + 1, middle.coeffs, (1,), n, 1)))
    return tuple(a[0] for a in quadratic_power(n + 1, (middle,), (1,), n, 1))


_large_trinomial_row = lru_cache(maxsize=1)(_trinomial_row.__wrapped__)


def trinomial(n, middle, k):
    """[t^k](1 + middle*t + t^2)^n; zero outside 0 <= k <= 2n.

    ``middle`` is an integer or an integer :class:`WPoly` (e.g. 2+w), and
    so is the result.  Rows are memoized per (n, middle), the large ones
    one at a time (see ``_CACHED_ROW_MAX_N``).
    """
    if not (isinstance(n, int) and isinstance(k, int)):
        _check_args(n=n, k=k)
    if n < 0:
        raise ValueError("trinomial upper index must be nonnegative")
    if not isinstance(middle, (int, WPoly)):
        raise ValueError(f"trinomial middle must be an int or a WPoly, got {middle!r}")
    if k < 0 or k > 2 * n:
        return WPoly() if isinstance(middle, WPoly) else 0
    return _half_row(n, middle)[min(k, 2 * n - k)]


def _half_row(n, middle):
    """The half row a_0..a_n of (1 + middle*t + t^2)^n, from the cache that
    ``n`` selects."""
    return (_trinomial_row if n <= _CACHED_ROW_MAX_N else _large_trinomial_row)(n, middle)


def _row_3(n):
    """The whole row trinomial(n, 3, 0..2n), for the level formulas' sums
    (n >= 0: the callers' guards ensure it)."""
    half = _half_row(n, 3)
    return half + half[-2::-1]


# --- primal level coefficients ------------------------------------------------


def kappa_coeff(j, k):
    """Integer weight kappa_{j;k} = [v^k]((1+v)^2 (1-v) / (1+2v)^j).

    These arise from the residue computation of [z^(2m+j)] of the primal
    level series under the substitution x = v/(1+3v+v^2), carried out with
    the correct square-root branch: 1/P^(j+1) maps to
    (1+3v+v^2)^(j+1)/(1+2v)^(j+1) (P is a unit, so its reciprocal power is
    a power series, unlike the conjugate root).
    """
    _check_args("bounded", j=j, k=k)
    total = 0
    for i, e in enumerate((1, 1, -1, -1)):
        if k - i >= 0:
            total += e * binom(-j, k - i) * 2 ** (k - i)
    return total


def primal_coeff_explicit(j, m):
    """[z^(2m+j)] of the primal level-j total series, as an exact integer.

    Residue formula: sum_{k=0}^{m} kappa_{j;k} * trinomial(m-1+j, 3, m-k).
    Requires j >= 0 (bounded paths never end below the axis) and m >= 1,
    so the trinomial upper index m-1+j is nonnegative.
    """
    _check_args("bounded", j=j, m=m)
    if m < 1:
        raise ValueError("primal_coeff_explicit requires m >= 1")
    row = _row_3(m - 1 + j)  # terms with m-k past the row's end vanish
    return sum(kappa_coeff(j, k) * row[m - k] for k in range(max(0, m + 1 - len(row)), m + 1))


# --- dual level coefficients --------------------------------------------------


def mu_coeff(j, k):
    """The four-term integer weight mu_{j;k}.

    Equals [v^k]((3 - 7(2+v) + 5(2+v)^2 - (2+v)^3)(2+v)^j), for j >= 0.
    """
    _check_args("dual", j=j, k=k)

    def term(c, n):
        # binom(n, k) vanishes for k > n >= 0, keeping the power of 2 integral
        b = binom(n, k)
        return 0 if b == 0 else c * b * 2 ** (n - k)

    return term(3, j) + term(-7, j + 1) + term(5, j + 2) + term(-1, j + 3)


def dual_coeff_explicit(j, N):
    """[z^(j+2N) u^j] of the dual kernel solution, as an exact integer.

    Sums k = 0..N inclusive (see module docstring); requires j >= 0.
    """
    _check_args("dual", j=j, N=N)
    if N < 1:
        raise ValueError("dual_coeff_explicit requires N >= 1")
    row = _row_3(N - 1)  # terms with N-k past the row's end vanish
    return sum(mu_coeff(j, k) * row[N - k] for k in range(max(0, N + 1 - len(row)), N + 1))


# --- red-marked axis coefficients --------------------------------------------


def red_coeff_explicit(n):
    """[x^n] of the w-marked axis series S(0), as a :class:`WPoly`.

    Four-trinomial combination T(n) + T(n-1) - T(n-2) - T(n-3) with
    T(k) = trinomial(n-1, 2+w, k).
    """
    _check_args(n=n)
    if n < 1:
        raise ValueError("red_coeff_explicit requires n >= 1")
    middle = WPoly((2, 1))

    def T(k):
        return trinomial(n - 1, middle, k)

    return T(n) + T(n - 1) - T(n - 2) - T(n - 3)
