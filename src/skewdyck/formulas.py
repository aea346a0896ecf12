"""Explicit coefficient formulas via weighted trinomial coefficients.

A purely arithmetic route to single series coefficients: no power-series
division or square roots, only integer weights and the trinomial
coefficients [t^k](1 + m*t + t^2)^n.  It cross-validates the kernel-method
closed forms in :mod:`.genfunc` coefficient by coefficient.

Every formula is one Lagrange-inversion sum (Flajolet & Sedgewick,
*Analytic Combinatorics*, Thm A.2), :func:`_lagrange_sum`: under
x = v/phi(v) with phi = 1 + m*v + v^2, [x^n] H(v) equals
[v^n] H(v) (1 - v^2) phi(v)^(n-1) = sum_k c_k * trinomial(n', m, n - k).
The weights c_k are the coefficients of the prefactor (1 + v)^2 (1 - v)
times one power of a linear factor:

* primal, ``kappa_coeff``: (1 + 2v)^(-j), with m = 3;
* dual, ``mu_coeff``: (2 + v)^j, with m = 3 (the dual kernel's four terms
  3 - 7y + 5y^2 - y^3 are (y - 1)^2 (3 - y) at y = 2 + v);
* red: the factor 1, with m = 2 + w.

``dual_coeff_explicit`` sums k = 0..N inclusive: the k = N term, mu_{j;N}
times trinomial(N-1, 3, 0) = 1, is nonzero whenever N <= j+3.
"""

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


# (1 + v)^2 (1 - v) = 1 + v - v^2 - v^3: Lagrange inversion's 1 - v^2 times
# 1 + v, the start of every weight list
_PREFACTOR = (1, 1, -1, -1)


def _weights(power, count):
    """[v^0..v^(count-1)] of the prefactor times ``power``, coefficients [c]
    as :func:`~skewdyck.series.quadratic_power` gives them, zero past its end."""
    c = [a[0] for a in power] + [0] * count
    return [sum(p * c[k - i] for i, p in enumerate(_PREFACTOR) if k >= i) for k in range(count)]


def _kappa(j, count):
    """kappa_{j;0..count-1} or longer, with (1 + 2v)^(-j) as a series: the
    cached row of level j when ``count`` is within it (the weights of every
    m <= ``_CACHED_ROW_MAX_N``), else built for this call alone."""
    if count <= _CACHED_ROW_MAX_N + 1:
        return _kappa_row(j)
    return _build_kappa(j, count)


def _build_kappa(j, count):
    return _weights(quadratic_power(count, (2,), (), -j, 1), count)


@lru_cache(maxsize=128)
def _kappa_row(j):
    """kappa_{j;0..N}, N = ``_CACHED_ROW_MAX_N``, for up to 128 levels."""
    return tuple(_build_kappa(j, _CACHED_ROW_MAX_N + 1))


def _mu(j):
    """mu_{j;0..j+3}: the cached row of level j up to ``_CACHED_ROW_MAX_N``
    (up to 128 of them, j + 4 ints of at most about 2j bits each), else
    built for this call alone."""
    return _mu_row(j) if j <= _CACHED_ROW_MAX_N else _build_mu(j)


def _build_mu(j):
    """mu_{j;0..j+3}, with (2 + v)^j the reversed row of (1 + 2v)^j."""
    return tuple(_weights(quadratic_power(j + 1, (2,), (), j, 1)[::-1], j + 4))


_mu_row = lru_cache(maxsize=128)(_build_mu)


def _lagrange_sum(weights, upper, middle, n):
    """sum_k weights[k] * trinomial(upper, middle, n - k), over the k where
    both can be nonzero (``upper >= 0``: the callers' guards ensure it).  A
    weight of 1 or -1 adds or subtracts its row entry without a product."""
    half = _half_row(upper, middle)
    top = 2 * upper
    total = WPoly() if isinstance(middle, WPoly) else 0
    for k in range(max(0, n - top), min(n + 1, len(weights))):
        c, a = weights[k], half[min(n - k, top - n + k)]
        total = total + a if c == 1 else total - a if c == -1 else total + c * a
    return total


# --- primal level coefficients ------------------------------------------------


def kappa_coeff(j, k):
    """Integer weight kappa_{j;k} = [v^k]((1+v)^2 (1-v) / (1+2v)^j); 0 for k < 0.

    From the primal level series under x = v/(1+3v+v^2), with the correct
    square-root branch: 1/P^(j+1) maps to (1+3v+v^2)^(j+1)/(1+2v)^(j+1) (P
    is a unit, so its reciprocal power is a power series, unlike the
    conjugate root's).
    """
    _check_args("bounded", j=j, k=k)
    return _kappa(j, k + 1)[k] if k >= 0 else 0


def primal_coeff_explicit(j, m):
    """[z^(2m+j)] of the primal level-j total series, as an exact integer.

    Residue formula: sum_{k=0}^{m} kappa_{j;k} * trinomial(m-1+j, 3, m-k).
    Requires j >= 0 (bounded paths never end below the axis) and m >= 1,
    so the trinomial upper index m-1+j is nonnegative.
    """
    _check_args("bounded", j=j, m=m)
    if m < 1:
        raise ValueError("primal_coeff_explicit requires m >= 1")
    return _lagrange_sum(_kappa(j, m + 1), m - 1 + j, 3, m)


# --- dual level coefficients --------------------------------------------------


def mu_coeff(j, k):
    """Integer weight mu_{j;k} = [v^k]((1+v)^2 (1-v) (2+v)^j), for j >= 0;
    0 for k < 0 and k > j+3."""
    _check_args("dual", j=j, k=k)
    return _mu(j)[k] if 0 <= k <= j + 3 else 0


def dual_coeff_explicit(j, N):
    """[z^(j+2N) u^j] of the dual kernel solution, as an exact integer.

    sum_{k=0}^{N} mu_{j;k} * trinomial(N-1, 3, N-k), k = N included (see
    the module docstring); requires j >= 0 and N >= 1.
    """
    _check_args("dual", j=j, N=N)
    if N < 1:
        raise ValueError("dual_coeff_explicit requires N >= 1")
    return _lagrange_sum(_mu(j), N - 1, 3, N)


# --- red-marked axis coefficients --------------------------------------------


def red_coeff_explicit(n):
    """[x^n] of the w-marked axis series S(0), as a :class:`WPoly`.

    S(0) = 1 + v under x = v/(1 + (2+w)v + v^2), so the weights are the
    prefactor's: T(n) + T(n-1) - T(n-2) - T(n-3), T(k) = trinomial(n-1, 2+w, k).
    """
    _check_args(n=n)
    if n < 1:
        raise ValueError("red_coeff_explicit requires n >= 1")
    return _lagrange_sum(_PREFACTOR, n - 1, WPoly((2, 1)), n)
