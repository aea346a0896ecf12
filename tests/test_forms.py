"""The closed forms that genfunc transcribes by hand, composed in code.

genfunc reads every divided closed form as (a + bR)/(z^s d), with
polynomials a, b and d and a kernel root R, and keeps each form as dicts
derived outside the package (``_INV_P``, ``_CLASSICAL_AXIS`` and the rest).
Here a test-side :class:`Form` composes each one from z, R and the kernel
half-root P = (1 + wz^2 + R)/2 (w = 1 for W) with +, -, x and division
through the conjugate, and the two are compared as series.  The composed
denominators are not reduced, so they are longer than the transcribed ones.
The ladders' ratios are no transcribed forms: genfunc builds each as -den1
times its base, and each is compared here with the root it stands for,
z/P, Q/z or z/P_w.
"""

import pytest

from skewdyck import genfunc
from skewdyck.series import (
    W_VAR,
    WPOLY,
    Series,
    WPoly,
    div,
    quadratic_power,
    shift_divide,
    shift_up,
)

ORDERS = [*range(41), 200]


def _clean(p):
    return {k: c for k, c in p.items() if c}


def _add(p, q):
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0) + c
    return _clean(out)


def _mul(p, q):
    out = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return _clean(out)


def _neg(p):
    return {k: -c for k, c in p.items()}


class Form:
    """(a + bR)/d, for polynomials a, b and d as {power: coefficient} dicts
    over ints or w-polynomials, and R^2 = ``delta``, a polynomial too."""

    def __init__(self, a, b, d, delta):
        self.a, self.b, self.d, self.delta = _clean(a), _clean(b), _clean(d), delta

    def _lift(self, other):
        return other if isinstance(other, Form) else Form({0: other}, {}, {0: 1}, self.delta)

    def __add__(self, other):
        o = self._lift(other)
        a = _add(_mul(self.a, o.d), _mul(o.a, self.d))
        b = _add(_mul(self.b, o.d), _mul(o.b, self.d))
        return Form(a, b, _mul(self.d, o.d), self.delta)

    __radd__ = __add__

    def __neg__(self):
        return Form(_neg(self.a), _neg(self.b), self.d, self.delta)

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._lift(other)
        a = _add(_mul(self.a, o.a), _mul(_mul(self.b, o.b), self.delta))
        b = _add(_mul(self.a, o.b), _mul(self.b, o.a))
        return Form(a, b, _mul(self.d, o.d), self.delta)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # 1/o = d (a - bR) / (a^2 - b^2 R^2), by the conjugate
        o = self._lift(other)
        norm = _add(_mul(o.a, o.a), _neg(_mul(_mul(o.b, o.b), self.delta)))
        return self * Form(_mul(o.d, o.a), _neg(_mul(o.d, o.b)), norm, self.delta)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def series(self, root, order):
        """The form to z^order, for the root R known to z^(order + s), where
        z^s is the largest power of z that divides d."""
        s = min(self.d)
        n = order + s
        num = Series.from_dict(self.a, n, root.ring)
        for p, c in self.b.items():
            num = num + shift_up(root.truncate(n), p) * c
        den = Series.from_dict({k - s: c for k, c in self.d.items()}, order, root.ring)
        return div(shift_divide(num, s), den)


def _variable_and_root(delta):
    """The variable (z or x) and the root R of R^2 = ``delta`` as forms."""
    return Form({1: 1}, {}, {0: 1}, delta), Form({}, {0: 1}, {0: 1}, delta)


def _ladder_ratio(den0, base, den1):
    """The ratio -den1/den0 that :func:`genfunc._ladder` builds from the
    base 1/den0 and den1: level 1 of den0/(den0 + den1 u)."""
    return genfunc._ladder((den0,), base, den1, 1, 1)[0]


def _w_ratio(sign, den1):
    """The ratio of the ladder over sign P + den1 u, base sign/P."""

    def made(order):
        b = genfunc.kernel_bundle(order + 2)
        inv_p = genfunc._closed_form(b.W, order, *genfunc._INV_P)
        return _ladder_ratio(sign * b.P.truncate(order), sign * inv_p, den1)

    return made


def _red_ratio(order):
    G = genfunc.dual_blue_g0(order)
    Pw = Series.one(order, WPOLY) - shift_up(G, 2)
    return _ladder_ratio(-Pw, genfunc._closed_form(G, order, *genfunc._RED_BASE), genfunc._ZU)


def _compose():
    """{name: (form, root builder, genfunc's series at an order)}."""
    out = {}

    # W = sqrt(1 - 6z^2 + 5z^4), P = (1 + z^2 + W)/2 and Q = 1 + z^2 - P
    z, W = _variable_and_root({0: 1, 2: -6, 4: 5})
    z2 = z * z
    P = (1 + z2 + W) / 2
    Q = 1 + z2 - P
    rho_h = z2 * z2 / (Q * (z2 - 1) + 1 - 2 * z2)
    rho_g = (z2 + rho_h) / (1 - z2)
    s1 = z / P  # the bad root
    # the kernel condition -2z u^2 + (1 + z^2 (2f0 + g0 + h0)) u - z f0 = 0 at u = s1
    f0 = (2 * z * s1 * s1 - s1) / (z2 * s1 * (2 + rho_g + rho_h) - z)
    axis = {"f0": s1 / z}
    axis.update(g0=rho_g * axis["f0"], h0=rho_h * axis["f0"])
    axis["sum"] = axis["f0"] + axis["g0"] + axis["h0"]

    def w_root(n):
        return genfunc._kernel_root(n, -6, 5)

    def transcribed(name):
        form = getattr(genfunc, name)
        return lambda order: genfunc._closed_form(w_root(order + form[3]), order, *form)

    out["_INV_P"] = 1 / P, w_root, transcribed("_INV_P")
    # the ladders' ratios: z/P, the bad root, over zu - P and Q/z over P - z(2-z^2)u
    out["ratio[primal]"] = z / P, w_root, _w_ratio(-1, genfunc._ZU)
    out["ratio[dual]"] = Q / z, w_root, _w_ratio(1, genfunc._DUAL_U)
    # u := 1 in the level totals: (P - 2 + z^2)/(zu - P) and
    # (P + 1 - 2z^2 - W)/(P - z(2 - z^2)u)
    out["primal_open_ended"] = (P - 2 + z2) / (z - P), w_root, genfunc.primal_open_ended
    out["dual_open_ended"] = (P + 1 - 2 * z2 - W) / (P - z * (2 - z2)), w_root, genfunc.dual_open_ended
    for cls, form in axis.items():
        out[f"_CLASSICAL_AXIS[{cls}]"] = (
            form, w_root, lambda order, cls=cls: genfunc.negative_axis_series(cls, order)
        )
    for i, form in enumerate((f0, rho_g * f0, rho_h * f0)):
        out[f"_BOUNDARY[{i}]"] = (
            form, w_root, lambda order, i=i: genfunc.negative_boundary_series(order)[i]
        )

    # W_w = sqrt(1 - (4+2w)z^2 + w(4+w)z^4) and P_w = (1 + wz^2 + W_w)/2; the
    # red forms are read over G = (1 - P_w)/z^2, dual_blue_g0
    w = W_VAR
    z, Ww = _variable_and_root({0: 1, 2: -4 - 2 * w, 4: w * (4 + w)})
    Pw = (1 + z * z * w + Ww) / 2

    def red_root(n):
        return genfunc._kernel_root(n, WPoly((-4, -2)), WPoly((0, 4, 1)))

    out["dual_blue_g0"] = (1 - Pw) / (z * z), red_root, genfunc.dual_blue_g0
    out["_RED_BASE"] = -1 / Pw, red_root, lambda order: genfunc._closed_form(
        genfunc.dual_blue_g0(order), order, *genfunc._RED_BASE
    )
    out["ratio[red]"] = z / Pw, red_root, _red_ratio

    # in x = z^2: d/dw at w = 1 of the axis series (1 - wx - W_w)/(2x), with
    # dW_w/dw = (dD_w/dw)/(2W_w) = (-2x + 6x^2)/(2R) at w = 1, R = sqrt(1 - 6x + 5x^2)
    x, R = _variable_and_root({0: 1, 1: -6, 2: 5})
    avg = (-x - (-2 * x + 6 * x * x) / (2 * R)) / (2 * x)
    out["average_red_series"] = (
        avg, lambda n: Series(quadratic_power(n + 1, -6, 5)), genfunc.average_red_series
    )
    # the w-power slices' docstring forms, R = sqrt(1 - 4x)
    x, R = _variable_and_root({0: 1, 1: -4})
    q = 1 - 4 * x
    slices = (
        (1 - R) / (2 * x),
        (1 - 2 * x - R) / (2 * R),
        x * x * x / (q * R),
        x * x * x * x * (1 - 2 * x) / (q * q * R),
        x * x * x * x * x * (1 - 4 * x + 5 * x * x) / (q * q * q * R),
    )
    for k, form in enumerate(slices):
        out[f"_RED_SLICES[{k}]"] = (
            form, lambda n: Series(quadratic_power(n + 1, -4, 0)),
            lambda order, k=k: genfunc.red_w_power_slice(k, order),
        )
    return out


_FORMS = _compose()


def test_every_transcribed_form_is_composed():
    names = {name.split("[")[0] for name in _FORMS}
    assert names == {
        "_INV_P", "_RED_BASE", "ratio", "_CLASSICAL_AXIS", "_BOUNDARY", "_RED_SLICES",
        "primal_open_ended", "dual_open_ended", "average_red_series", "dual_blue_g0",
    }
    assert len(_FORMS) == 2 + 3 + 2 + 4 + 3 + 1 + 1 + 5
    assert len(genfunc._CLASSICAL_AXIS) == 4 and len(genfunc._BOUNDARY) == 3
    assert len(genfunc._RED_SLICES) == 5


@pytest.mark.parametrize("name", sorted(_FORMS))
def test_transcribed_form_is_the_composed_one(name):
    form, root, made = _FORMS[name]
    top = max(ORDERS)
    composed = form.series(root(top + min(form.d)), top)
    for order in ORDERS:
        assert made(order) == composed.truncate(order), (name, order)
