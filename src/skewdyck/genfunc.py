"""Kernel-method closed forms for all path families, as truncated series.

Everything here is an algebraic expression in W = sqrt(1-6z^2+5z^4) (or its
w-refined analogue) evaluated with exact series arithmetic.  The roots
r_1 = P/z, r_2 = Q/z of the kernel and their reciprocals carry 1/z poles, so
no root is ever materialized as a series.  A closed form that divides is
multiplied through by conjugates (PQ = z^2(2-z^2), P + Q = 1 + z^2,
W^2 = (1-z^2)(1-5z^2)) until it reads (a + bR)/(z^s d), R = W or a root in
x = z^2, with polynomials a, b and d; :func:`_closed_form` reads it and
divides only by d.  That is the module's only division: each ladder, too,
reads its base 1/den0 as such a form (``_INV_P`` and ``_RED_BASE``), and
its ratio -den1/den0 is the kernel's u-coefficient den1, a polynomial,
times that base, so no series is ever inverted.

A family's classes share one denominator, linear in u, so a level's total
has the sum of the class numerators as its numerator (:func:`_with_total`).

Negative territory deserves a warning.  The level-indexed system below the
axis has two natural "solved" forms, depending on which factor of the
quadratic kernel is cancelled against the numerators:

* cancelling at the reciprocal of the small root yields the classical
  closed forms exposed by :func:`negative_axis_series` (their axis-return
  coefficients 1, 2, 6, 21, 79, ... reproduce OEIS A033321);
* cancelling at the small root itself yields the solution whose
  coefficients actually count walks on the state diagram
  (:func:`negative_level_series`), with axis-return coefficients
  1, 2, 7, 29, 127, ...  Those walks start in class f: the empty path
  stands after an up step, and UR is forbidden, so no unbounded word
  starts with R.

Both solutions share the upper kernel's class relations g0 = rho_g f0 and
h0 = rho_h f0, with rho_h = z^4/(Q(z^2-1)+1-2z^2) and
rho_g = (z^2+rho_h)/(1-z^2), and differ only in f0.  Only the
second choice is enumerative: the first one, extended to levels below -1,
produces negative coefficients.  Both are kept, cross-checked, and the
divergence is deliberate and documented rather than glossed over.
"""

from itertools import zip_longest

from .series import (
    ExactnessError,
    RATIONAL,
    Record,
    Series,
    WPOLY,
    WPoly,
    W_VAR,
    check_int,
    compare,
    div,
    half,
    quadratic_power,
    shift_divide,
    shift_up,
    specialize_w,
)

DEFAULT_ORDER = 40
DEFAULT_NEGATIVE_ORDER = 24

PRIMAL_CLASSES = ("f", "g", "h", "total")
DUAL_CLASSES = ("a", "b", "c", "total")


def _units(order, ring=RATIONAL):
    """The series 1, z and z^2 to z^order in ``ring``."""
    one = Series.one(order, ring)
    return one, Series.z(order, ring), shift_up(one, 2)


def _kernel_root(order, a, b):
    """sqrt(1 + a z^2 + b z^4) to z^order, over the ring of a and b (ints,
    or :class:`~skewdyck.series.WPoly` values): the
    :func:`~skewdyck.series.quadratic_power` c_n in x = z^2, at z^{2n}."""
    coeffs = [0] * (order + 1)
    coeffs[::2] = quadratic_power(order // 2 + 1, a, b)
    return Series(coeffs, WPOLY if isinstance(a, WPoly) else RATIONAL)


class KernelBundle(Record):
    """The square root W and the kernel half-roots P = z r1, Q = z r2.

    Identities (checked in the test suite, exact):
      W^2 = 1 - 6z^2 + 5z^4,  P*Q = z^2(2 - z^2),  P + Q = 1 + z^2.

    W is the square root of 1 + a x + b x^2 in x = z^2, a = -6 and b = 5
    (:func:`_kernel_root`), so a bundle of order N costs O(N) integer steps
    instead of the O(N^2) ring operations of a generic square root.  The
    test suite keeps that generic square root as the oracle that pins W, P
    and Q coefficient for coefficient.  The w-refined root W_w is no part
    of the bundle: :func:`dual_blue_g0` builds it, and the red-marked
    readers take it from there.
    """

    _fields = ("order", "W", "P", "Q")
    __slots__ = _fields

    def __init__(self, order, W, P, Q):
        self._set(order, W, P, Q)


def kernel_bundle(order=DEFAULT_ORDER):
    """The :class:`KernelBundle` truncated at z^order; order must be >= 0."""
    _check_args(order)
    W = _kernel_root(order, -6, 5)
    one, _, z2 = _units(order)
    P = half(one + z2 + W)
    Q = half(one + z2 - W)
    return KernelBundle(order=order, W=W, P=P, Q=Q)


def _bundle(bundle, order, need):
    """``bundle``, or a new one of order ``need`` (what ``order`` coefficients
    need) when none is given; a shorter bundle, or one that is no
    :class:`KernelBundle`, is refused."""
    if bundle is None:
        return kernel_bundle(need)
    if not isinstance(bundle, KernelBundle):
        raise ValueError(f"bundle must be a KernelBundle, got {bundle!r}")
    if bundle.order < need:
        raise ValueError(f"bundle order {bundle.order} too short for order {order}; need {need}")
    return bundle


def _closed_form(root, order, a, b, den, shift=0):
    """(a + b root)/(z^shift den) to z^order, for polynomials ``a``, ``b``
    and ``den`` given as {power: coefficient} dicts, the coefficients in
    the ring of ``root``; ``root`` is known to z^(order + shift).

    The one reader of the package's rationalized closed forms.  Its only
    division is by the polynomial ``den``, whose constant term is a nonzero
    int (1 + w for the red ladder), so a wrong form raises
    :class:`ExactnessError`, there or in the exact division by z^shift.
    """
    n = order + shift
    r = root.truncate(n).coeffs
    num = [a.get(i, 0) + sum(c * r[i - p] for p, c in b.items() if p <= i) for i in range(n + 1)]
    num = shift_divide(Series(num, root.ring), shift)
    return div(num, Series.from_dict(den, order, root.ring))


def _check_args(order, family=None, cls=None, classes=None, **levels):
    """The entry guard of every public constructor: a ValueError that names
    the argument for an ``order`` or ``levels`` value that is not an int
    (:func:`~skewdyck.series.check_int`), a negative ``order``, an empty
    range ``lo..hi``, one of ``levels`` below the axis when ``family`` names
    paths that never end there, or a ``cls`` not among ``classes`` (when
    given).  It runs before any bundle is built."""
    for name, value in {"order": order, **levels}.items():
        check_int(name, value)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if "lo" in levels and levels["lo"] > levels["hi"]:
        raise ValueError("empty level range {lo}..{hi} (lo > hi)".format(**levels))
    for name, level in levels.items():
        if family and level < 0:
            raise ValueError(f"level {name}={level}: {family} paths never end below the axis")
    if classes is not None and cls not in classes:
        raise ValueError(f"unknown class {cls!r}; expected one of {classes}")


def _ladder(num, base, den1, lo, hi):
    """[u^j] of num(u)/(den0 + den1 u) for j = lo..hi (0 <= lo), as a list,
    given base = 1/den0 and the polynomial den1 as {power: coefficient}.

    Every kernel-method solution here has a denominator linear in u, so
    its levels form a ladder: 1/(den0 + den1 u) = base sum_t ratio^t u^t,
    ratio = -den1 base, and level j is L_j = sum_i num_i base ratio^(j-i).
    Hence L_0 = num_0 base and L_(j+1) = ratio L_j + num_(j+1) base
    (num_i = 0 past the given parts): one series product per level, and
    only the current level is kept.  For the bounded family (num/(zu - P))
    this is level j = -num z^j / P^(j+1) (Prodinger, "The kernel method: a
    collection of examples", Sem. Lothar. Combin. 50 (2004) B50f).  The
    callers read base with :func:`_closed_form`, so a ladder divides once.
    """
    ratio = -(Series.from_dict(den1, base.order, base.ring) * base)
    level = num[0] * base
    out = []
    for j in range(hi + 1):
        if j >= lo:
            out.append(level)
        if j < hi:
            level = ratio * level
            if j + 1 < len(num):
                level = level + num[j + 1] * base
    return out


# The ladders' bases 1/den0 as W-linear forms (a, b, den, shift) of
# (a + bR)/(z^shift den), and their kernels' u-coefficients den1.  zu - P
# has base -1/P and P - z(2-z^2)u has 1/P: by PQ = z^2(2-z^2),
# 1/P = Q/(z^2(2-z^2)) with Q = (1+z^2-W)/2.  zu - P_w has base -1/P_w, a
# form over R = G, the axis series (1-wz^2-W_w)/(2z^2) of dual_blue_g0: by
# P_w Q_w = z^2(1+w-wz^2), with Q_w = (1+wz^2-W_w)/2 = z^2(w+G),
# 1/P_w = (w+G)/(1+w-wz^2).
_INV_P = ({0: 1, 2: 1}, {0: -1}, {0: 4, 2: -2}, 2)
_RED_DEN = {0: 1 + W_VAR, 2: -W_VAR}
_RED_BASE = ({0: -W_VAR}, {0: -1}, _RED_DEN, 0)
_ZU = {1: 1}  # den1 of zu - P and zu - P_w
_DUAL_U = {1: -2, 3: 1}  # den1 of P - z(2-z^2)u


def _with_total(nums):
    """``nums``, a dict from class to numerator parts over one shared
    denominator, with "total" added as the sum of the parts."""
    first = next(iter(nums.values()))[0]
    zero = Series.zero(first.order, first.ring)
    nums["total"] = tuple(sum(p, zero) for p in zip_longest(*nums.values(), fillvalue=zero))
    return nums


def _bounded_numerators(P, w):
    """The class numerators of the bounded family over zu - P, with their
    total: f = -P, g = P - 1, h = w(P - 1 + z^2).  The red-marked forms of
    :func:`red_level_series` take P = P_w and w = W_VAR, the plain forms of
    :func:`primal_levels` P and w = 1."""
    one, _, z2 = _units(P.order, P.ring)
    g = P - one
    return _with_total({"f": (-P,), "g": (g,), "h": ((g + z2) * w,)})


def primal_levels(lo, hi, cls="total", order=DEFAULT_ORDER, bundle=None):
    """Levels lo..hi of the bounded family, per last-step class, as a list.

    Level j is [u^j] of num/(zu - P), that is -num z^j / P^(j+1), with the
    class numerators -(1+z^2+W)/2 = -P, (-1+z^2+W)/2 = P - 1 and
    (-1+3z^2+W)/2 = P - 1 + z^2 (:func:`_bounded_numerators`).  All levels
    come from one bundle and one ladder, base -1/P and ratio z/P (den1 = z).
    """
    _check_args(order, "bounded", cls, PRIMAL_CLASSES, lo=lo, hi=hi)
    bundle = _bundle(bundle, order, order + 2)
    num = _bounded_numerators(bundle.P.truncate(order), 1)[cls]
    return _ladder(num, -_closed_form(bundle.W, order, *_INV_P), _ZU, lo, hi)


def primal_level_series(j, cls="total", order=DEFAULT_ORDER, bundle=None):
    """Level j of :func:`primal_levels`."""
    _check_args(order, "bounded", j=j)
    return primal_levels(j, j, cls, order, bundle)[0]


# 2(z^2+2z-1), the denominator of both free-endpoint (u := 1) forms
_OPEN_ENDED_DEN = {0: -2, 1: 4, 2: 2}


def primal_open_ended(order=DEFAULT_ORDER):
    """Paths with free endpoint: the level series summed by setting u := 1.

    Closed form -((z+1)(z^2+3z-2) + (z+2)W) / (2z(z^2+2z-1)): u := 1 in the
    total (P - 2 + z^2)/(zu - P) of :func:`primal_levels`, times the
    conjugate z - Q over itself, (z - P)(z - Q) = z(1-z)(z^2+2z-1).  The
    numerator has a vanishing constant term, so the division by z is exact.
    """
    _check_args(order)
    W = _kernel_root(order + 1, -6, 5)
    return _closed_form(W, order, {0: 2, 1: -1, 2: -4, 3: -1}, {0: -2, 1: -1}, _OPEN_ENDED_DEN, 1)


def red_level_series(j, cls="total", order=DEFAULT_ORDER):
    """[u^j] of the red-edge-marked solution, per last-step class.

    The solution is num/(zu - P_w), P_w = (1+wz^2+W_w)/2 = 1 - z^2 G with
    G = :func:`dual_blue_g0`, and class numerators
    (:func:`_bounded_numerators`)
    f: -(1+wz^2+W_w)/2 = -P_w,   g: (-1+wz^2+W_w)/2 = P_w - 1,
    h: w(-1+(2+w)z^2+W_w)/2 = w(P_w - 1 + z^2).
    (The h numerator carries a prefactor w -- every h-path has a red edge
    -- and the w := 1 specialization recovers the plain class forms.)
    The ladder's base -1/P_w is a form over G too, and its ratio is z/P_w.
    """
    _check_args(order, "bounded", cls, PRIMAL_CLASSES, j=j)
    G = dual_blue_g0(order)
    num = _bounded_numerators(Series.one(order, WPOLY) - shift_up(G, 2), W_VAR)[cls]
    return _ladder(num, _closed_form(G, order, *_RED_BASE), _ZU, j, j)[0]


def even_to_x(s):
    """Rewrite a series in z with even support as a series in x = z^2."""
    if not isinstance(s, Series):
        raise ValueError(f"expected a Series, got {s!r}")
    odd = next((n for n in range(1, s.order + 1, 2) if s.coeffs[n]), None)
    if odd is not None:
        raise ExactnessError(f"odd coefficient z^{odd} = {s.coeffs[odd]} is not 0")
    return Series(s.coeffs[::2], s.ring)


def substitution_identity_check(s0):
    """Verify S(0) = 1 + v under x = v/(1 + m v + v^2), in its defining form.

    ``s0`` is the red-marked axis series S(0) in x, as ``verify`` reads it:
    ``even_to_x(dual_blue_g0(order))``, which equals level 0 of
    :func:`red_level_series` by the reversal duality.  With V = S(0) - 1
    the identity is checked as the equation V = x (1 + m V + V^2),
    coefficient by coefficient over x^0..x^N, where N is the order of
    ``s0``.

    The two forms are equivalent: x(v) has x(0) = 0 and x'(0) = 1, so
    S(x(v)) = 1 + v holds exactly when V is the compositional inverse of
    x(v), that is, when V = x phi(V) with phi(V) = 1 + m V + V^2.
    Coefficient n of either side depends only on V_0..V_n, so both forms
    fail first at the same power of x.

    Returns two :class:`~skewdyck.series.Check` records: one for middle
    weight m = 2+w (marked red edges) and one for the w := 1 specialization
    (m = 3).
    """
    if not isinstance(s0, Series):
        raise ValueError(f"expected a Series, got {s0!r}")
    checks = []
    for name, s, middle in (
        ("substitution weight 2+w", s0, 2 + W_VAR),
        ("substitution weight 3", specialize_w(s0, 1), 3),
    ):
        one = Series.one(s.order, s.ring)
        v = s - one
        rhs = shift_up(one + v * middle + v * v, 1)
        triples = zip(range(s.order + 1), v.coeffs, rhs.coeffs)
        checks.append(compare(name, triples, fmt="first mismatch at order %s: %s != %s"))
    return checks


def average_red_series(order=DEFAULT_ORDER):
    """Total red edges over all axis-return paths, as a series in x: with
    R = sqrt(1-6x+5x^2), ((1-3x) - R)/(2R) rationalized by R^2 = (1-x)(1-5x),

        (-1 + 6x - 5x^2 + (1-3x) R) / (2(1-x)(1-5x)).

    The raw closed form appears in places with the sign of the 3x term
    flipped.  The second route, d/dw of the w-marked axis series at w = 1,
    pins the sign given here: ``verify`` compares the two
    (``closed-derivative:red``), and the test suite pins the values (the
    x^2 coefficient is 1).
    """
    _check_args(order)
    root = Series(quadratic_power(order + 1, -6, 5), RATIONAL)
    return _closed_form(root, order, {0: -1, 1: 6, 2: -5}, {0: 1, 1: -3}, {0: 2, 1: -12, 2: 10})


# red_w_power_slice's forms (a, b, den, shift), den = 2 or 1 times (1-4x)^k
_RED_SLICES = (
    ({0: 1}, {0: -1}, {0: 2}, 1),
    ({0: -1, 1: 4}, {0: 1, 1: -2}, {0: 2, 1: -8}, 0),
    ({}, {3: 1}, {0: 1, 1: -8, 2: 16}, 0),
    ({}, {4: 1, 5: -2}, {0: 1, 1: -12, 2: 48, 3: -64}, 0),
    ({}, {5: 1, 6: -4, 7: 5}, {0: 1, 1: -16, 2: 96, 3: -256, 4: 256}, 0),
)


def red_w_power_slice(k, order=DEFAULT_ORDER):
    """Axis-return paths with exactly k red edges, as a series in x, from
    the algebraic closed forms, k = 0..4, with R = sqrt(1-4x): (1 - R)/(2x),
    (1 - 2x - R)/(2R), x^3/((1-4x)R), x^4(1-2x)/((1-4x)^2 R) and
    x^5(1-4x+5x^2)/((1-4x)^3 R).  1/R = R/(1-4x) moves R into the numerator
    (``_RED_SLICES``), so the only divisors are 2, x and powers of 1 - 4x.

    The same series, for any k >= 0, is [w^k], taken coefficientwise, of
    ``even_to_x(dual_blue_g0(2 * order))``, the trivariate axis series;
    the test suite keeps that slice as the oracle that pins these forms.
    """
    _check_args(order, k=k)
    if not 0 <= k <= 4:
        raise ValueError(f"k must be in 0..4 for the closed forms, got k={k}")
    R = Series(quadratic_power(order + 2, -4, 0), RATIONAL)
    return _closed_form(R, order, *_RED_SLICES[k])


# -- dual family -------------------------------------------------------


def dual_levels(lo, hi, cls="total", order=DEFAULT_ORDER, bundle=None):
    """Levels lo..hi of the dual family, per last-step class, as a list.

    Classes (a = up-black, b = down, c = up-blue) come from
    A(u) = (1-zu)P/D, B(u) = (1-2z^2-W)/D, C(u) = zPu/D with
    D = P - z(2-z^2)u, and the total from the sum of their numerators.
    It equals front * z^j * S^(j+1), front = (3-3z^2-W)/(2(2-z^2)), S = Q/z^2.
    The ladder's base is 1/P and its ratio Q/z (den1 = -z(2-z^2)).
    """
    _check_args(order, "dual", cls, DUAL_CLASSES, lo=lo, hi=hi)
    bundle = _bundle(bundle, order, order + 2)
    W, P = bundle.W.truncate(order), bundle.P.truncate(order)
    one, z, z2 = _units(order)
    zp, zero = z * P, Series.zero(order, RATIONAL)
    num = _with_total({"a": (P, -zp), "b": (one - 2 * z2 - W,), "c": (zero, zp)})[cls]
    return _ladder(num, _closed_form(bundle.W, order, *_INV_P), _DUAL_U, lo, hi)


def dual_level_series(j, cls="total", order=DEFAULT_ORDER, bundle=None):
    """Level j of :func:`dual_levels`."""
    _check_args(order, "dual", j=j)
    return dual_levels(j, j, cls, order, bundle)[0]


def dual_open_ended(order=DEFAULT_ORDER):
    """Dual paths with free endpoint: ((1+z)(1-3z) - W) / (2z(z^2+2z-1)).

    Same denominator as the primal open-ended form, from u := 1 in the
    total of :func:`dual_levels` times the conjugate Q - z(2-z^2) of its
    denominator (the product is z(2-z^2)(1-z)(z^2+2z-1)); the numerator has
    a vanishing constant term, so the division by z is exact.  (Note the W
    belongs in the numerator.)
    """
    _check_args(order)
    W = _kernel_root(order + 1, -6, 5)
    return _closed_form(W, order, {0: 1, 1: -2, 2: -3}, {0: -1}, _OPEN_ENDED_DEN, 1)


def dual_blue_g0(order=DEFAULT_ORDER):
    """Axis-return dual paths with blue edges marked: (1 - z^2 w - W_w)/(2z^2).

    The package's one construction of W_w = sqrt(1 - (4+2w)z^2 + w(4+w)z^4),
    the w-refined kernel root: :func:`red_level_series` reads it through
    this series.  Identical to the red-marked axis series by the reversal
    duality, so the red checks read it in x = z^2 (:func:`even_to_x`); the
    test suite pins it coefficientwise against the blue-marked DP and
    against :func:`red_level_series`.  ``verify`` builds it once, to
    z^max(order, 40): the red checks read it in x = z^2, and
    ``kernel-identities`` reads W_w = 1 - wz^2 - 2z^2 G from it and checks
    it to that order.  So the W_w^2 identity and the substitution identity
    check one equation, G = 1 - wz^2 + wz^2 G + z^2 G^2, at two orders.
    """
    _check_args(order)
    Ww = _kernel_root(order + 2, WPoly((-4, -2)), WPoly((0, 4, 1)))
    one, _, z2 = _units(order + 2, WPOLY)
    return half(shift_divide(one - z2 * W_VAR - Ww, 2))


# -- negative territory ------------------------------------------------


NEGATIVE_AXIS_CLASSES = ("f0", "g0", "h0", "sum")


# The W-linear forms (a, b, den, shift) of (a + bW)/(z^shift den) below the
# axis.  The classical f0 is the bad root over z, that is 1/P.
_CLASSICAL_AXIS = {
    "f0": _INV_P,
    "g0": ({0: 1, 2: -4, 4: 2, 6: 1}, {0: -1, 2: 1, 4: -1}, {0: 8, 2: -8, 4: 2}, 4),
    "h0": ({0: 1, 2: -5, 4: 4, 6: -2}, {0: -1, 2: 2}, {0: 8, 2: -8, 4: 2}, 4),
    "sum": ({0: 1, 2: -3, 4: 2}, {0: -1}, {0: 4, 2: -2}, 4),
}
_BOUNDARY = (
    ({0: 1, 2: -6, 4: 5}, {0: 1, 2: -2}, {0: 2, 2: -13, 4: 16, 6: -5}),
    ({0: -1, 2: 7, 4: -10}, {0: 1, 2: 4}, {0: 8, 2: -48, 4: 42, 6: -10}),
    ({0: -1, 2: 5, 4: 1, 6: -5}, {0: 1, 2: -2, 4: 3}, {0: 8, 2: -56, 4: 90, 6: -52, 8: 10}),
)


def negative_axis_series(cls, order=DEFAULT_NEGATIVE_ORDER):
    """The classical axis closed forms for the below-axis-allowed family.

    With g0 = rho_g f0, h0 = rho_h f0 (module docstring) and each W-linear
    denominator c + dW multiplied by its conjugate c - dW:

        f0  = (1 + z^2 - W)/(2z^2(2-z^2)) = (z/P)/z (the bad root over z),
        g0  = ((1-z^2)(1-3z^2-z^4) - (1-z^2+z^4)W)/(2z^4(2-z^2)^2),
        h0  = (1 - 5z^2 + 4z^4 - 2z^6 - (1-2z^2)W)/(2z^4(2-z^2)^2),
        sum = (f0-1)/z^2 = (1-3z^2+2z^4-W)/(2z^4(2-z^2)) = f0 + g0 + h0.

    The sum's coefficients 1, 2, 6, 21, 79, ... match OEIS A033321.  These
    closed forms arise from the axis system with the kernel condition
    imposed at the reciprocal root; they do NOT equal the enumerative
    level-0 series of :func:`negative_level_series` (see the module
    docstring) and are kept as reference data in their own right.
    """
    _check_args(order, cls=cls, classes=NEGATIVE_AXIS_CLASSES)
    return _closed_form(_kernel_root(order + 4, -6, 5), order, *_CLASSICAL_AXIS[cls])


def negative_boundary_series(order=DEFAULT_NEGATIVE_ORDER, bundle=None):
    """The enumerative boundary constants (f0, g0, h0) of the level system.

    The two class relations from the upper (level >= 0) kernel are kept:
    g0 = rho_g f0 and h0 = rho_h f0 (module docstring).  The remaining
    condition is that the numerator of the below-axis solution,
    -2z u^2 + (1+2z^2 f0+z^2 g0+z^2 h0) u - z f0, vanishes at the bad
    (small) root u = z/P of the quadratic kernel
    z(z^2-2)(u - P/(z(2-z^2)))(u - z/P).  Solved for f0, with
    z/P = Q/(z(2-z^2)) and each W-linear denominator c + dW multiplied
    through by its conjugate c - dW (W^2 = D = (1-z^2)(1-5z^2)), that
    condition gives

        f0 = (D + (1-2z^2)W)/((2-z^2)D),
        g0 = (-(1-2z^2)(1-5z^2) + (1+4z^2)W)/(2(2-z^2)^2(1-5z^2)),
        h0 = (-(1-z^4)(1-5z^2) + (1-2z^2+3z^4)W)/(2(2-z^2)^2 D),

    so f0 = 1 + z^2 + 3z^4 + 13z^6 + 59z^8 + ..., which matches the
    state-diagram walk counts exactly.
    """
    _check_args(order)
    W = _bundle(bundle, order, order).W
    return tuple(_closed_form(W, order, *form) for form in _BOUNDARY)


def negative_levels(lo, hi, cls="total", order=DEFAULT_NEGATIVE_ORDER, bundle=None):
    """Levels lo..hi of the below-axis-allowed family, any integers, as a list.

    Classes are by last step (f = up, g = down-black, h = down-red), with
    the empty path in f.  Boundary constants come from
    :func:`negative_boundary_series`, built once per call, so the
    coefficients agree with the brute-force/dp oracles at every level --
    positive and negative alike.

    Levels j >= 0 use num/(zu - P) with numerators z^2 s - f0, -z^2 s,
    -z^2(g0+h0) (s = f0+g0+h0).  Levels j < 0 use [u^{-j}] of the solved
    A/B/C branch over the shared denominator P - z(2-z^2)u, with the bad
    root z/P = Q/(z(2-z^2)) = (1+z^2-W)/(2z(2-z^2)) substituted for the
    cancelled factor.  Each sign runs one ladder: levels j >= 0 that of
    :func:`primal_levels`, levels j < 0 that of :func:`dual_levels`.  1/P
    is built once, and the bad root z/P is z times it.
    """
    _check_args(order, cls=cls, classes=PRIMAL_CLASSES, lo=lo, hi=hi)
    bundle = _bundle(bundle, order, order + 2)
    boundary = negative_boundary_series(order=order, bundle=bundle)
    inv_p = _closed_form(bundle.W, order, *_INV_P)
    out = []
    if lo < 0:
        below = _negative_numerators(order, boundary, shift_up(inv_p, 1))[cls]
        out += reversed(_ladder(below, inv_p, _DUAL_U, max(-hi, 1), -lo))
    if hi >= 0:
        above = _negative_numerators(order, boundary, None)[cls]
        out += _ladder(above, -inv_p, _ZU, max(lo, 0), hi)
    return out


def negative_level_series(j, cls="total", order=DEFAULT_NEGATIVE_ORDER, bundle=None):
    """Level j of :func:`negative_levels`."""
    _check_args(order, j=j)
    return negative_levels(j, j, cls, order, bundle)[0]


def _negative_numerators(order, boundary, s1):
    """The numerator parts of :func:`negative_levels` to z^order, per class
    of ``PRIMAL_CLASSES``, as a dict: over zu - P when the bad root ``s1``
    is None (levels >= 0), else over the dual denominator (levels < 0)."""
    one, z, z2 = _units(order)
    f0, g0, h0 = boundary
    z2f, z2g, z2h = z2 * f0, z2 * g0, z2 * h0
    if s1 is None:
        z2s = z2f + z2g + z2h
        nums = {"f": (z2s - f0,), "g": (-z2s,), "h": (-(z2g + z2h),)}
    else:
        zs = z * s1
        # the g and h parts share c = s1 z^2 - z^3 (f0 + g0) + z (g0 - h0) and s1 c
        c = shift_up(s1, 2) - shift_up(z, 2) * (f0 + g0) + z * (g0 - h0)
        sc = s1 * c
        nums = {
            "f": (one + 2 * z2f + z2g + z2h - 2 * zs, z * -2),
            "g": (-(sc - zs + z2f - g0 + z2h), z - c, -z2),
            "h": (sc + h0 - z2g, c, z2),
        }
    return _with_total(nums)
