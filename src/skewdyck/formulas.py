"""Explicit coefficient formulas via weighted trinomial coefficients.

A purely arithmetic route to single series coefficients: no power-series
division or square roots, only integer weights, the trinomial
coefficients [t^k](1 + m*t + t^2)^n and products of binomials.  It
cross-validates the kernel-method closed forms in :mod:`.genfunc`
coefficient by coefficient.

Every formula comes from one Lagrange-inversion sum (Flajolet & Sedgewick,
*Analytic Combinatorics*, Thm A.2): under x = v/phi(v) with
phi = 1 + m*v + v^2, [x^n] H(v) equals
[v^n] H(v) (1 - v^2) phi(v)^(n-1) = sum_k c_k * trinomial(n', m, n - k).
The weights c_k are the coefficients of the prefactor (1 + v)^2 (1 - v)
times one power of a linear factor:

* primal, ``kappa_coeff``: (1 + 2v)^(-j), with m = 3;
* dual, ``mu_coeff``: (2 + v)^j, with m = 3 (the dual kernel's four terms
  3 - 7y + 5y^2 - y^3 are (y - 1)^2 (3 - y) at y = 2 + v);
* red: the factor 1, with m = 2 + w.

The primal and dual sums are evaluated as they stand, by
:func:`_lagrange_sum` over one row over 3.  The red sum collapses to a
product of a binomial and a Catalan number per power of w (see
:func:`red_coeff_explicit`), so red builds no row, and every row is
one over the integers: :func:`trinomial` takes an int middle only.

``dual_coeff_explicit`` sums k = 0..N inclusive: the k = N term, mu_{j;N}
times trinomial(N-1, 3, 0) = 1, is nonzero whenever N <= j+3.
"""

from .series import WPoly, bounded_cache, check_int, quadratic_power


def _check_args(family=None, **args):
    """The entry guard of the public functions: a ValueError that names the
    first of ``args`` that is not an int (:func:`~skewdyck.series.check_int`),
    or a level ``j`` below the axis, where ``family``'s paths never end."""
    for name, value in args.items():
        check_int(name, value)
    if family and args["j"] < 0:
        raise ValueError(f"level j={args['j']}: {family} paths never end below the axis")


# The caches below keep rows and weights up to this index; the README
# states what they hold at most.
_CACHED_ROW_MAX_N = 64


def _row_is_kept(n, middle):
    """Whether :func:`_trinomial_row` keeps the row of n and ``middle``."""
    return n <= _CACHED_ROW_MAX_N and middle == 3


@bounded_cache(128, _row_is_kept)
def _trinomial_row(n, middle):
    """The first half a_0..a_n of the coefficients of (1 + middle*t + t^2)^n.

    The row is palindromic, a_k = a_{2n-k}, so the half fixes it.  It comes
    from :func:`~skewdyck.series.quadratic_power` at p/q = n, a = middle,
    b = 1: O(n) integer steps and no other row, so a cold row neither
    recurses nor fills the cache.  Only rows over 3, the middle the
    formulas read, are kept, up to n = ``_CACHED_ROW_MAX_N``.
    """
    return tuple(quadratic_power(n + 1, middle, 1, n, 1))


def trinomial(n, middle, k):
    """[t^k](1 + middle*t + t^2)^n, an int; zero outside 0 <= k <= 2n.

    ``n``, ``middle`` and ``k`` are ints.  Rows over 3 up to
    n = ``_CACHED_ROW_MAX_N`` are memoized; outside them only the
    coefficients up to min(k, 2n - k) are built, so the cost follows k.
    """
    _check_args(n=n, middle=middle, k=k)
    if n < 0:
        raise ValueError("trinomial upper index must be nonnegative")
    if k < 0 or k > 2 * n:
        return 0
    k = min(k, 2 * n - k)
    if _row_is_kept(n, middle):
        return _trinomial_row(n, middle)[k]
    return quadratic_power(k + 1, middle, 1, n, 1)[-1]


# (1 + v)^2 (1 - v) = 1 + v - v^2 - v^3: Lagrange inversion's 1 - v^2 times
# 1 + v, the start of every weight list
_PREFACTOR = (1, 1, -1, -1)


def _weights(power, count):
    """[v^0..v^(count-1)] of the prefactor times ``power``, an int list
    from :func:`~skewdyck.series.quadratic_power`, zero past its end."""
    c = list(power) + [0] * count
    return [sum(p * c[k - i] for i, p in enumerate(_PREFACTOR) if k >= i) for k in range(count)]


def _kappa(j, count):
    """kappa_{j;0..count-1} or longer: at least the weights of every
    m <= ``_CACHED_ROW_MAX_N``, so that one row per level serves them all."""
    return _kappa_row(j, max(count, _CACHED_ROW_MAX_N + 1))


@bounded_cache(128, lambda j, count: j <= _CACHED_ROW_MAX_N and count <= _CACHED_ROW_MAX_N + 1)
def _kappa_row(j, count):
    """kappa_{j;0..count-1}, with (1 + 2v)^(-j) as a series."""
    return tuple(_weights(quadratic_power(count, 2, 0, -j, 1), count))


@bounded_cache(128, lambda j: j <= _CACHED_ROW_MAX_N)
def _mu(j):
    """mu_{j;0..j+3}, with (2 + v)^j the reversed row of (1 + 2v)^j."""
    return tuple(_weights(quadratic_power(j + 1, 2, 0, j, 1)[::-1], j + 4))


def _lagrange_sum(weights, upper, n):
    """sum_k weights[k] * trinomial(upper, 3, n - k), an int, over the k
    where both can be nonzero (``upper >= 0``: the callers' guards ensure it).
    It reads the half row up to min(n, upper), and builds no more than that
    outside the cached rows."""
    kept = _row_is_kept(upper, 3)
    half = _trinomial_row(upper, 3) if kept else quadratic_power(min(n, upper) + 1, 3, 1, upper, 1)
    top = 2 * upper
    ks = range(max(0, n - top), min(n + 1, len(weights)))
    return sum(weights[k] * half[min(n - k, top - n + k)] for k in ks)


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
    return _lagrange_sum(_kappa(j, m + 1), m - 1 + j, m)


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
    return _lagrange_sum(_mu(j), N - 1, N)


# --- red-marked axis coefficients --------------------------------------------


def red_coeff_explicit(n):
    """[x^n] of the w-marked axis series S(0), as a :class:`WPoly`.

    S(0) = 1 + v under x = v/(1 + (2+w)v + v^2), so the Lagrange sum with
    the prefactor's weights is T(n) + T(n-1) - T(n-2) - T(n-3), with
    T(k) = trinomial(n-1, 2+w, k).  That sum collapses.  With M = n - 1,

        (1 + (2+w)t + t^2)^M = sum_i C(M, i) w^i t^i (1 + t)^(2(M-i)),

    so with m = M - i the four terms give [w^i] the factor C(M, i) times
    C(2m, m+1) + C(2m, m) - C(2m, m-1) - C(2m, m-2) = C(2m, m) - C(2m, m-2)
    = Cat(m+1), and

        [w^i x^n] S(0) = C(n-1, i) * Cat(n-i),   i = 0..n-1:

    S(0) = C(x/(1 - wx)), with C the Catalan series.  At w = 1, A002212 is
    the binomial transform of the Catalan numbers; at w = 0 the paths with
    no red step are the Dyck paths.  Both factors come from running ratios,
    Cat(k+1) = Cat(k) 2(2k+1)/(k+2) and C(M, i+1) = C(M, i) (M-i)/(i+1):
    O(n) integer steps and no trinomial row.
    """
    _check_args(n=n)
    if n < 1:
        raise ValueError("red_coeff_explicit requires n >= 1")
    catalan = [1]  # Cat(1), Cat(2), ..., Cat(n)
    for k in range(1, n):
        catalan.append(catalan[-1] * 2 * (2 * k + 1) // (k + 2))
    coeffs, binom = [], 1
    for i in range(n):
        coeffs.append(binom * catalan[n - 1 - i])
        binom = binom * (n - 1 - i) // (i + 1)
    return WPoly._trusted(coeffs)
