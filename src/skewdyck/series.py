"""Truncated formal power series over exact integer coefficient rings.

Two coefficient rings are supported: the integers and polynomials in a
single marker variable ``w`` with integer coefficients (:class:`WPoly`),
tagged ``RATIONAL`` (a name kept from when it held rationals) and ``WPOLY``.
Every series counted here has integer coefficients, so every division is
exact: :func:`half` and :func:`quadratic_power` divide each coefficient
by an integer, :func:`div` by the divisor's constant term (an integer, or
a w-polynomial such as 2 + 2w, by long division in w), and a remainder
raises :class:`ExactnessError`.  A :class:`Series` carries an
explicit truncation order N: coefficients of z^0..z^N are exact, everything
beyond is unknown.  Operations never report a coefficient they cannot
guarantee; where an order cannot be preserved it shrinks.

All values are immutable; all operations are pure functions.
"""

from functools import lru_cache, update_wrapper
from itertools import zip_longest

RATIONAL = "rational"
WPOLY = "wpoly"


class SeriesError(ValueError):
    """Base class for series arithmetic errors."""


class RingMismatchError(SeriesError):
    """Operands live over different coefficient rings."""


class NonUnitError(SeriesError):
    """A divisor (or constant term) is not invertible in its ring."""


class ExactnessError(SeriesError):
    """An operation that must be exact (a division, an identity check)
    found a nonzero remainder.  Usually signals a transcribed-formula bug."""


class Record:
    """Base of the package's immutable records.

    A subclass lists its fields in ``_fields``, slots them, and sets them
    once, in ``__init__``, with :meth:`_set`.  Like a frozen dataclass, a
    record compares, hashes and prints field by field, and assigning or
    deleting an attribute raises ``AttributeError``.  Plain classes keep
    :mod:`dataclasses` (and the ``inspect`` it loads) off the import path
    of every CLI process.
    """

    __slots__ = ()
    _fields = ()

    def _set(self, *values):
        for field, value in zip(self._fields, values):
            object.__setattr__(self, field, value)

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def bounded_cache(maxsize, admit):
    """Decorator: keep a call in an ``lru_cache(maxsize)`` when ``admit(*args)``
    accepts its (positional) arguments, and build any other call for that
    call alone, kept nowhere.  So the cache holds at most ``maxsize``
    results, each no larger than ``admit`` lets it be.  The wrapper exposes
    the cache's ``cache_info`` and ``cache_clear``."""

    def wrap(build):
        cached = lru_cache(maxsize)(build)

        def call(*args):
            return cached(*args) if admit(*args) else build(*args)

        call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
        return update_wrapper(call, build)

    return wrap


def check_int(name, value):
    """The package's integer guard: a ValueError that names ``name`` unless
    ``value`` is an int; a bool is none (``True`` is no length or order)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")


class Check(Record):
    """The outcome of one cross-check; a failure is report content, not an
    exception, and its detail names the first mismatch."""

    _fields = ("name", "ok", "detail")
    __slots__ = _fields

    def __init__(self, name, ok, detail=""):
        self._set(name, ok, detail)


def first_mismatch(triples):
    """The first ``(where, got, want)`` with ``got != want``, or None.

    Consumes ``triples`` lazily: whatever a generator would build after the
    first mismatch is never built.
    """
    return next((t for t in triples if t[1] != t[2]), None)


def compare(name, triples, ok_detail="", fmt="first mismatch at %s: %s != %s"):
    """The :class:`Check` ``name`` over ``(where, got, want)`` triples: it
    fails with detail ``fmt % bad`` at the :func:`first_mismatch` ``bad``,
    and passes with ``ok_detail``."""
    bad = first_mismatch(triples)
    return Check(name, False, fmt % bad) if bad else Check(name, True, ok_detail)


def _int(x):
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"cannot use {x!r} as an integer coefficient")


def _divide_exactly(c, d):
    """c / d for a nonzero d, an int or a :class:`WPoly`, and c an int or
    a :class:`WPoly` (a :class:`WPoly` when d is one); a remainder raises
    :class:`ExactnessError`.  A d of degree >= 1 in w divides c by long
    division from the top power of w."""
    if isinstance(d, WPoly):
        if len(d.coeffs) > 1:
            return _long_divide(c.coeffs, d.coeffs)
        d = d.coeffs[0]
    if isinstance(c, WPoly):
        return WPoly._trusted([_divide_exactly(x, d) for x in c.coeffs])
    q, r = divmod(c, d)
    if r:
        raise ExactnessError(f"{c} is not divisible by {d}")
    return q


def _long_divide(cs, ds):
    """The :class:`WPoly` with coefficients q, q * ds = cs, for coefficient
    tuples ``cs`` and ``ds`` (len(ds) >= 2); a remainder raises
    :class:`ExactnessError`."""
    rest, m = list(cs), len(ds) - 1
    q = [0] * max(len(rest) - m, 0)
    for k in reversed(range(len(q))):
        if rest[k + m]:
            q[k], r = divmod(rest[k + m], ds[m])
            if r:
                break
            for i, d in enumerate(ds):
                rest[k + i] -= q[k] * d
    if any(rest):
        raise ExactnessError(f"{WPoly(cs)} is not divisible by {WPoly(ds)}")
    return WPoly._trusted(q)


class WPoly:
    """Polynomial in the edge-color marker w, integer coefficients.

    Stored as a coefficient tuple indexed by the power of w, trailing zeros
    trimmed.  Zero is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _trusted(cls, coeffs):
        """A polynomial from a list of ints the package computed itself:
        trailing zeros are trimmed, the int check is skipped."""
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        poly = object.__new__(cls)
        object.__setattr__(poly, "coeffs", tuple(coeffs))
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("WPoly is immutable")

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def coerce(cls, x):
        return x if isinstance(x, WPoly) else cls.const(_int(x))

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = WPoly.const(other)
        if not isinstance(other, WPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # equal values hash equal: a constant, 0 included, hashes as its int
        cs = self.coeffs
        return hash(cs[0] if cs else 0) if len(cs) < 2 else hash(("WPoly", cs))

    def __add__(self, other):
        other = WPoly.coerce(other)
        if not self.coeffs:
            return other
        return WPoly._trusted([a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    __radd__ = __add__

    def __neg__(self):
        return WPoly._trusted([-c for c in self.coeffs])

    def __sub__(self, other):
        other = WPoly.coerce(other)
        return WPoly._trusted([a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __rsub__(self, other):
        return WPoly.coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            return WPoly._trusted([c * other for c in self.coeffs])
        other = WPoly.coerce(other)
        if not self.coeffs or not other.coeffs:
            return WPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return WPoly._trusted(out)

    __rmul__ = __mul__

    def __divmod__(self, d):
        """(quotient, remainder) of each coefficient by an int d != 0, as
        two polynomials: the remainder is zero when d divides them all."""
        pairs = [divmod(c, d) for c in self.coeffs]
        return WPoly._trusted([q for q, _ in pairs]), WPoly._trusted([r for _, r in pairs])

    def eval(self, value):
        """Evaluate at an integer value of w (a ring homomorphism)."""
        value = _int(value)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def deriv(self):
        return WPoly._trusted([k * c for k, c in enumerate(self.coeffs) if k >= 1])

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*w" if c != 1 else "w")
            else:
                parts.append(f"{c}*w^{k}" if c != 1 else f"w^{k}")
        return " + ".join(parts)


W_VAR = WPoly((0, 1))


def _rational_coeff(x):
    if isinstance(x, WPoly):
        raise RingMismatchError("w-polynomial coefficient in an integer series")
    return _int(x)


# ring tag -> the coercion of a coefficient into that ring
_COERCE = {RATIONAL: _rational_coeff, WPOLY: WPoly.coerce}


class Series:
    """Truncated power series: exact coefficients of z^0..z^order."""

    __slots__ = ("coeffs", "ring")

    def __init__(self, coeffs, ring=RATIONAL):
        if ring not in (RATIONAL, WPOLY):
            raise ValueError(f"unknown ring {ring!r}; expected {RATIONAL!r} or {WPOLY!r}")
        cs = tuple(map(_COERCE[ring], coeffs))
        if not cs:
            raise SeriesError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "ring", ring)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @property
    def order(self):
        return len(self.coeffs) - 1

    def coeff(self, n):
        if n < 0:
            return _COERCE[self.ring](0)
        if n > self.order:
            raise SeriesError(
                f"coefficient of z^{n} requested beyond guaranteed order {self.order}"
            )
        return self.coeffs[n]

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order, ring=RATIONAL):
        return cls([0] * (order + 1), ring)

    @classmethod
    def one(cls, order, ring=RATIONAL):
        return cls([1] + [0] * order, ring)

    @classmethod
    def z(cls, order, ring=RATIONAL):
        """z truncated at z^order (the zero series when order is 0)."""
        return cls.from_dict({1: 1}, order, ring)

    @classmethod
    def from_dict(cls, powers, order, ring=RATIONAL):
        """Series from a {power >= 0: coefficient} polynomial, cut at z^order."""
        cs = [0] * (order + 1)
        for p, c in powers.items():
            if p < 0:
                raise ValueError(f"power {p} is negative; a series has none")
            if p <= order:
                cs[p] = c
        return cls(cs, ring)

    def truncate(self, order):
        if order > self.order:
            raise SeriesError(f"cannot extend order {self.order} to {order}")
        return Series(self.coeffs[: order + 1], self.ring)

    # -- ring plumbing ------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Series):
            raise TypeError(f"expected a Series, got {other!r}")
        if self.ring != other.ring:
            raise RingMismatchError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._check(other)
        n = min(self.order, other.order)
        return Series(
            [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)], self.ring
        )

    def __sub__(self, other):
        self._check(other)
        n = min(self.order, other.order)
        return Series(
            [self.coeffs[i] - other.coeffs[i] for i in range(n + 1)], self.ring
        )

    def __neg__(self):
        return Series([-c for c in self.coeffs], self.ring)

    def __mul__(self, other):
        if isinstance(other, (int, WPoly)):
            s = _COERCE[self.ring](other)
            return Series([c * s for c in self.coeffs], self.ring)
        self._check(other)
        n = min(self.order, other.order)
        out = [_COERCE[self.ring](0) for _ in range(n + 1)]
        for i in range(n + 1):
            a = self.coeffs[i]
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return Series(out, self.ring)

    __rmul__ = __mul__

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[: min(8, len(self.coeffs))])
        tail = ", ..." if self.order >= 8 else ""
        return f"Series([{shown}{tail}], order={self.order}, ring={self.ring})"


def _quotient(a, b):
    """q with q*b = a to truncation, each q_k divided exactly by b(0).

    b(0) is an int, or in the w ring a :class:`WPoly`; a zero b(0) raises
    :class:`NonUnitError`.  Only b's nonzero terms are walked, so dividing
    by a polynomial costs O(terms) ring steps per coefficient.
    """
    d = b.coeffs[0]
    if not d:
        raise NonUnitError("division by a series with a zero constant term")
    n = min(a.order, b.order)
    terms = [(i, c) for i, c in enumerate(b.coeffs[1 : n + 1], 1) if c]
    out = []
    for k in range(n + 1):
        acc = a.coeffs[k]
        for i, c in terms:
            if i > k:
                break
            acc = acc - c * out[k - i]
        out.append(_divide_exactly(acc, d))
    return Series(out, a.ring)


def div(a, b):
    """Quotient q with q*b = a to truncation; b(0) must be nonzero (else
    :class:`NonUnitError`) and divide each step exactly (else
    :class:`ExactnessError`)."""
    a._check(b)
    return _quotient(a, b)


def half(a):
    """a / 2, coefficient by coefficient; an odd coefficient raises
    :class:`ExactnessError`."""
    return Series([_divide_exactly(c, 2) for c in a.coeffs], a.ring)


def quadratic_power(count, a, b, p=1, q=2):
    """c_0..c_{count-1} of (1 + a t + b t^2)^(p/q), exact.

    ``a`` and ``b`` are ring elements: ints, and then so is each c_k, or
    :class:`WPoly` values, and then each c_k past c_0 = 1 is one.
    Differentiating T = (1 + a t + b t^2)^(p/q) gives
    q (1 + a t + b t^2) T' = p (a + 2b t) T, whose t^k coefficient is

      q(k+1) c_{k+1} = a(p - qk) c_k + b(2p - q(k-1)) c_{k-1},   c_0 = 1:

    O(count) steps of one loop.  p/q = 1/2 gives the kernel roots W, W_w
    and sqrt(1 - 4x), p/q = n with b = 1 the trinomial rows, and b = 0 the
    powers of 1 + a t.  A coefficient that is not integral raises
    :class:`ExactnessError`.
    """
    out = [1]
    prev, cur = 0, 1
    for k in range(count - 1):
        v = (p - q * k) * a * cur + (2 * p - q * (k - 1)) * b * prev
        c, r = divmod(v, q * (k + 1))
        if r:
            raise ExactnessError(f"coefficient of t^{k + 1} is not an integer")
        out.append(c)
        prev, cur = cur, c
    return out[:count]


def shift_divide(a, k):
    """Exact division by z^k; the low-order coefficients must vanish."""
    if k < 0:
        raise ValueError("shift_divide needs k >= 0")
    if k == 0:
        return a
    if a.order < k:
        raise SeriesError(f"order {a.order} too small to divide by z^{k}")
    for i in range(k):
        if a.coeffs[i]:
            raise ExactnessError(
                f"division by z^{k}: coefficient of z^{i} is {a.coeffs[i]}, not 0"
            )
    return Series(a.coeffs[k:], a.ring)


def shift_up(a, k):
    """Multiply by z^k, keeping the same order (top coefficients drop off)."""
    if k < 0:
        raise ValueError("shift_up needs k >= 0")
    zero = _COERCE[a.ring](0)
    cs = [zero] * min(k, a.order + 1) + list(a.coeffs)
    return Series(cs[: a.order + 1], a.ring)


# -- ring homomorphisms on WPOLY series -------------------------------


def specialize_w(s, value):
    """Evaluate every w-polynomial coefficient at an integer w (e.g. w=1)."""
    if s.ring != WPOLY:
        raise RingMismatchError("specialize_w needs a w-polynomial series")
    return Series([c.eval(value) for c in s.coeffs], RATIONAL)


def w_derivative(s):
    """d/dw applied coefficientwise."""
    if s.ring != WPOLY:
        raise RingMismatchError("w_derivative needs a w-polynomial series")
    return Series([c.deriv() for c in s.coeffs], WPOLY)
