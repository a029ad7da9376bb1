"""Extended nonnegative real arithmetic.

Values live in [0, +inf].  The degenerate products and quotients that show
up in supremum formulas are all total: 0 * inf = 0, 0/0 = 0, x/inf = 0,
x/0 = inf for x > 0, and inf/inf = inf (the conservative choice for
finiteness checks).  Comparisons with inf are exact; there is no tolerance
at this layer.
"""

from __future__ import annotations

import functools
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


EXT_INF = ExtReal(math.inf)
EXT_ZERO = ExtReal(0.0)


def _coerce(x):
    """x, an ExtReal, a value or an array of values, as a float array."""
    x = np.asarray(x.value if isinstance(x, ExtReal) else x, dtype=float)
    if not (x >= 0.0).all():   # false at nan too
        raise ValueError("expected values in [0, inf], got nan or negative")
    return x


def scalar_results(convert):
    """Decorator for a public function of an array layer: a call with no
    ndarray among its positional arguments (or the ends of an interval
    tuple) runs on the same array path, and its result is converted once,
    by convert (float or ExtReal), on the way out."""
    def wrap(fn):
        @functools.wraps(fn)
        def public(*args, **kwargs):
            out = fn(*args, **kwargs)
            # an array result with an axis can only come from array
            # arguments
            if out is None or getattr(out, "ndim", 0) or any(
                    isinstance(x, np.ndarray) or isinstance(x, tuple)
                    and any(isinstance(y, np.ndarray) for y in x)
                    for x in args):
                return out
            return convert(out)
        return public
    return wrap


@scalar_results(ExtReal)
def ext_mul(a, b) -> ExtReal:
    """Product with 0 * inf = 0.  An array factor gives the float array
    of products, broadcast, with the same convention."""
    return _mul(_coerce(a), _coerce(b))


@scalar_results(ExtReal)
def ext_div(a, b) -> ExtReal:
    """Quotient with 0/0 = 0, x/inf = 0, x/0 = inf (x > 0), inf/inf = inf.
    An array operand gives the float array of quotients, broadcast, with
    the same conventions."""
    return _div(_coerce(a), _coerce(b))


@scalar_results(ExtReal)
def ext_pow(a, e) -> ExtReal:
    """Power a^e for a in [0, inf], real e; 0^0 and inf^0 are rejected.

    An array base gives the float array of powers with the same
    conventions (0^e = inf for e < 0, inf^e = 0, overflow to inf)."""
    a, e = _coerce(a), float(e)
    if e == 0.0 and np.any((a == 0.0) | np.isinf(a)):
        raise IndeterminatePower("0^0 or inf^0 is indeterminate")
    return _power(a, e)


# The conventions on floats and float arrays in [0, inf], which the
# internal paths call without the checks of the public functions: a nan
# stays nan (0 times nan is 0), so a faulty integrand still shows, and an
# ExtReal reads as its value.

def _mul(a, b):
    """a * b, broadcast, with 0 * inf = 0 and overflow to inf, without a
    warning; a finite positive float a needs no zero mask."""
    with np.errstate(invalid="ignore", over="ignore"):
        if isinstance(a, float) and 0.0 < a < math.inf:
            return a * b
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return np.where((a == 0.0) | (b == 0.0), 0.0, a * b)


def _div(a, b):
    """a / b, broadcast, with 0/0 = 0, x/inf = 0, x/0 = inf (x > 0) and
    inf/inf = inf, without a warning."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = a / b
    return np.where(a == 0.0, 0.0,
                    np.where(np.isinf(a) & np.isinf(b), math.inf, q))


def _power(a, e):
    """a^e, broadcast, with 0^e = inf and inf^e = 0 for e < 0 and overflow
    to inf, without a warning; 0^0 and inf^0 read 1."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.power(np.asarray(a, dtype=float), e)


def _float_pow(x, e):
    """x ** e for a float x in [0, inf], x > 0 for e < 0; overflow: inf."""
    try:
        return x ** e
    except OverflowError:
        return math.inf


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
