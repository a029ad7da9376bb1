"""Extended nonnegative real arithmetic.

Values live in [0, +inf].  The degenerate products and quotients that show
up in supremum formulas are all total: 0 * inf = 0, 0/0 = 0, x/inf = 0,
x/0 = inf for x > 0, and inf/inf = inf (the conservative choice for
finiteness checks).  Comparisons with inf are exact; there is no tolerance
at this layer.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IndeterminatePower, InvalidExponent

__all__ = [
    "ExtReal",
    "EXT_INF",
    "EXT_ZERO",
    "ext_mul",
    "ext_div",
    "ext_pow",
    "conjugate_exponent",
]


class ExtReal:
    """A number in [0, +inf].  Immutable; NaN and negatives are rejected."""

    __slots__ = ("value",)

    def __init__(self, value):
        if isinstance(value, ExtReal):
            value = value.value
        value = float(value)
        if math.isnan(value) or value < 0.0:
            raise ValueError(f"ExtReal requires a value in [0, inf], got {value}")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, val):
        raise AttributeError("ExtReal is immutable")

    @property
    def is_inf(self):
        return math.isinf(self.value)

    @property
    def is_zero(self):
        return self.value == 0.0

    @property
    def is_finite(self):
        return math.isfinite(self.value)

    def __float__(self):
        return self.value

    def __repr__(self):
        return f"ExtReal({self.value!r})"

    def __eq__(self, other):
        return self.value == _coerce(other)

    def __lt__(self, other):
        return self.value < _coerce(other)

    def __le__(self, other):
        return self.value <= _coerce(other)

    def __gt__(self, other):
        return self.value > _coerce(other)

    def __ge__(self, other):
        return self.value >= _coerce(other)

    def __hash__(self):
        return hash(self.value)

    def __mul__(self, other):
        return ext_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return ext_div(self, other)

    def __rtruediv__(self, other):
        return ext_div(other, self)

    def __pow__(self, e):
        return ext_pow(self, e)

    def __add__(self, other):
        return ExtReal(self.value + _coerce(other))

    __radd__ = __add__


def _coerce(x) -> float:
    if isinstance(x, ExtReal):
        return x.value
    x = float(x)
    if math.isnan(x) or x < 0.0:
        raise ValueError(f"expected a value in [0, inf], got {x}")
    return x


EXT_INF = ExtReal(math.inf)
EXT_ZERO = ExtReal(0.0)


def _coerce_array(x):
    x = np.asarray(x.value if isinstance(x, ExtReal) else x, dtype=float)
    if np.any(np.isnan(x) | (x < 0.0)):
        raise ValueError("expected values in [0, inf], got nan or negative")
    return x


def ext_mul(a, b) -> ExtReal:
    """Product with 0 * inf = 0.  An array factor gives the float array
    of products, broadcast, with the same convention."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = _coerce_array(a), _coerce_array(b)
        with np.errstate(invalid="ignore", over="ignore"):
            return np.where((a == 0.0) | (b == 0.0), 0.0, a * b)
    a, b = _coerce(a), _coerce(b)
    if a == 0.0 or b == 0.0:
        return EXT_ZERO
    return ExtReal(a * b)


def ext_div(a, b) -> ExtReal:
    """Quotient with 0/0 = 0, x/inf = 0, x/0 = inf (x > 0), inf/inf = inf.
    An array operand gives the float array of quotients, broadcast, with
    the same conventions."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = _coerce_array(a), _coerce_array(b)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q = a / b   # nan only at 0/0 and inf/inf
        return np.where(a == 0.0, 0.0, np.where(np.isnan(q), math.inf, q))
    a, b = _coerce(a), _coerce(b)
    if a == 0.0:
        return EXT_ZERO
    if math.isinf(a):
        return EXT_INF
    if b == 0.0:
        return EXT_INF
    if math.isinf(b):
        return EXT_ZERO
    return ExtReal(a / b)


def ext_pow(a, e) -> ExtReal:
    """Power a^e for a in [0, inf], real e; 0^0 and inf^0 are rejected.

    An array base gives the float array of powers with the same
    conventions (0^e = inf for e < 0, inf^e = 0, overflow to inf)."""
    e = float(e)
    if isinstance(a, np.ndarray):
        if e == 0.0 and np.any((a == 0.0) | np.isinf(a)):
            raise IndeterminatePower("0^0 or inf^0 is indeterminate")
        with np.errstate(divide="ignore", over="ignore"):
            return np.power(a, e)
    a = _coerce(a)
    if e == 0.0:
        if a == 0.0 or math.isinf(a):
            raise IndeterminatePower(f"{a}^0 is indeterminate")
        return ExtReal(1.0)
    if a == 0.0:
        return EXT_INF if e < 0.0 else EXT_ZERO
    if math.isinf(a):
        return EXT_ZERO if e < 0.0 else EXT_INF
    try:
        return ExtReal(a ** e)
    except OverflowError:
        return EXT_INF


def conjugate_exponent(p) -> ExtReal:
    """Conjugate exponent p' on (0, inf].

    p/(1-p) for 0<p<1, inf for p=1, p/(p-1) for 1<p<inf, 1 for p=inf.
    """
    p = float(p)
    if math.isnan(p) or p <= 0.0:
        raise InvalidExponent(f"conjugate exponent requires p > 0, got {p}")
    if math.isinf(p):
        return ExtReal(1.0)
    if p == 1.0:
        return EXT_INF
    if p < 1.0:
        return ExtReal(p / (1.0 - p))
    return ExtReal(p / (p - 1.0))
