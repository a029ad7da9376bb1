"""Extended nonnegative real arithmetic and conjugate exponents."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from morreyemb.extreal import (EXT_INF, ExtReal, conjugate_exponent, ext_div,
                               ext_mul, ext_pow)
from morreyemb.errors import IndeterminatePower, InvalidExponent

INF = math.inf


class TestConventions:
    def test_zero_times_inf(self):
        assert float(ext_mul(ExtReal(0.0), EXT_INF)) == 0.0
        assert float(ext_mul(EXT_INF, ExtReal(0.0))) == 0.0

    def test_zero_over_zero(self):
        assert float(ext_div(ExtReal(0.0), ExtReal(0.0))) == 0.0

    def test_finite_over_inf(self):
        assert float(ext_div(ExtReal(3.0), EXT_INF)) == 0.0

    def test_positive_over_zero(self):
        assert ext_div(ExtReal(2.0), ExtReal(0.0)).is_inf

    def test_inf_over_inf(self):
        assert ext_div(EXT_INF, EXT_INF).is_inf

    def test_indeterminate_powers(self):
        with pytest.raises(IndeterminatePower):
            ext_pow(ExtReal(0.0), 0.0)
        with pytest.raises(IndeterminatePower):
            ext_pow(EXT_INF, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ExtReal(-1.0)


class TestOperators:
    """ExtReal's operators follow the conventions of ext_div and ext_pow."""

    def test_order(self):
        one, two = ExtReal(1.0), ExtReal(2.0)
        assert one < two and one <= two and one <= 1.0 and two >= one
        assert not two < one and not two <= one and not one >= two
        assert ExtReal(0.0) < EXT_INF and EXT_INF >= 1e308

    @pytest.mark.parametrize("a,b,want", [
        (0.0, 0.0, 0.0),       # 0/0 = 0
        (3.0, INF, 0.0),       # x/inf = 0
        (2.0, 0.0, INF),       # x/0 = inf
        (INF, INF, INF),       # inf/inf = inf
        (3.0, 2.0, 1.5),
    ])
    def test_division(self, a, b, want):
        for got in (ExtReal(a) / ExtReal(b), ExtReal(a) / b, a / ExtReal(b)):
            assert isinstance(got, ExtReal) and float(got) == want

    @pytest.mark.parametrize("a,e,want", [
        (0.0, -1.0, INF),      # 0^e = inf for e < 0
        (INF, -2.0, 0.0),
        (4.0, 0.5, 2.0),
        (0.0, 3.0, 0.0),
    ])
    def test_power(self, a, e, want):
        got = ExtReal(a) ** e
        assert isinstance(got, ExtReal) and float(got) == want

    def test_sum(self):
        for got in (ExtReal(1.0) + 2.0, 2.0 + ExtReal(1.0),
                    ExtReal(1.0) + ExtReal(2.0)):
            assert isinstance(got, ExtReal) and float(got) == 3.0
        assert (EXT_INF + 1.0).is_inf

    def test_hash_and_repr(self):
        assert hash(ExtReal(2.0)) == hash(2.0)
        assert len({ExtReal(2.0), ExtReal(2.0), ExtReal(3.0)}) == 2
        assert repr(ExtReal(0.5)) == "ExtReal(0.5)"
        assert repr(EXT_INF) == "ExtReal(inf)"

    def test_immutable(self):
        x = ExtReal(1.0)
        with pytest.raises(AttributeError, match="immutable"):
            x.value = 2.0
        assert float(x) == 1.0


@pytest.mark.parametrize("p,expected", [
    (0.5, 1.0),
    (1.0, INF),
    (1.5, 3.0),
    (2.0, 2.0),
    (3.0, 1.5),
    (INF, 1.0),
])
def test_conjugate_exponent_table(p, expected):
    assert float(conjugate_exponent(p)) == expected


def test_conjugate_rejects_nonpositive():
    with pytest.raises(InvalidExponent):
        conjugate_exponent(0.0)
    with pytest.raises(InvalidExponent):
        conjugate_exponent(-2.0)


@given(st.floats(min_value=1.0 + 1e-6, max_value=1e6))
def test_conjugate_is_involutive_above_one(p):
    pp = float(conjugate_exponent(p))
    assert float(conjugate_exponent(pp)) == pytest.approx(p, rel=1e-9)


@given(st.floats(min_value=1.0 + 1e-6, max_value=1e6))
def test_conjugate_holder_identity(p):
    pp = float(conjugate_exponent(p))
    assert 1.0 / p + 1.0 / pp == pytest.approx(1.0, rel=1e-12, abs=0.0)


@given(st.floats(min_value=0.0, max_value=1e12),
       st.floats(min_value=0.0, max_value=1e12))
def test_mul_commutes(x, y):
    assert float(ext_mul(ExtReal(x), ExtReal(y))) == \
        float(ext_mul(ExtReal(y), ExtReal(x)))


@given(st.floats(min_value=1e-8, max_value=1e8),
       st.floats(min_value=-8.0, max_value=8.0))
def test_pow_matches_float(x, e):
    assert float(ext_pow(ExtReal(x), e)) == pytest.approx(x ** e, rel=1e-12,
                                                          abs=0.0)
