import pytest
from hypothesis import given, strategies as st

from bigon.braided import BraidedElement
from bigon.hopf import OqElement, OqTensor
from bigon.qtorus import TRIANGLE, QTElement, QuantumTorus
from bigon.tangle import TangleError, TLElement
from bigon.ring import (
    HalfLaurent,
    RatFunc,
    ZERO,
    ONE,
    half,
    q_power,
    q_int,
    q_factorial,
    q_binom,
    divexact,
    laurent_gcd,
    format_vform,
    format_qform,
    parse_vform,
    ScalarParseError,
)

small_poly = st.dictionaries(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(HalfLaurent)


def test_basic_arithmetic():
    v = half(1)
    assert v * v == q_power(1)
    assert v + v == half(1, 2)
    assert v - v == ZERO
    assert (v + 1) * (v - 1) == q_power(1) - 1
    assert 3 - half(2) == HalfLaurent({0: 3, 2: -1})


def test_pow_and_inverse():
    v = half(1)
    assert v ** 5 == half(5)
    assert v ** -3 == half(-3)
    assert (half(2, -1)) ** -1 == half(-2, -1)
    assert (half(2, -1)) ** -2 == half(-4)
    with pytest.raises(ValueError):
        (v + 1) ** -1


def test_conjugate_and_specialize():
    p = HalfLaurent({3: 2, -1: -5})
    assert p.conjugate() == HalfLaurent({-3: 2, 1: -5})
    assert p.specialize(1) == -3
    assert p.specialize(-1) == 3  # odd exponents flip sign
    with pytest.raises(ValueError):
        p.specialize(2)


@given(small_poly, small_poly, small_poly)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a


@given(small_poly, small_poly)
def test_conjugate_is_ring_map(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_q_int_values():
    assert q_int(0) == ZERO
    assert q_int(1) == ONE
    assert q_int(2) == q_power(2) + q_power(-2)
    assert q_int(3) == q_power(4) + ONE + q_power(-4)
    assert q_int(-2) == -q_int(2)
    # defining property, cleared of denominators
    for n in range(6):
        assert q_int(n) * (q_power(2) - q_power(-2)) == q_power(2 * n) - q_power(-2 * n)


def test_q_factorial():
    assert q_factorial(0) == ONE
    assert q_factorial(3) == q_int(2) * q_int(3)


def test_q_binom_small():
    assert q_binom(2, 1, 4) == ONE + q_power(4)
    assert q_binom(4, 2, 2) == parse_vform(format_vform(q_binom(4, 2, 2)))
    assert q_binom(3, 5, 2) == ZERO
    assert q_binom(3, -1, 2) == ZERO
    assert q_binom(5, 0, 4) == ONE


def test_q_binom_pascal():
    for e in (2, 4):
        for n in range(1, 8):
            for i in range(0, n + 1):
                lhs = q_binom(n, i, e)
                rhs = q_binom(n - 1, i, e) + q_power(e * (n - i)) * q_binom(n - 1, i - 1, e)
                assert lhs == rhs, (n, i, e)


def test_divexact():
    p = (half(1) + 1) * (half(3) - 2)
    assert divexact(p, half(1) + 1) == half(3) - 2
    with pytest.raises(ValueError):
        divexact(half(1) + 1, half(1) - 1)
    with pytest.raises(ZeroDivisionError):
        divexact(ONE, ZERO)


def test_laurent_gcd():
    a = (half(1) + 1) * (half(1) + 2)
    b = (half(1) + 1) * (half(1) + 3)
    g = laurent_gcd(a, b)
    # gcd is only defined up to units; both inputs must divide exactly
    divexact(a, g)
    divexact(b, g)
    assert divexact(a, g) * g == a


def test_ratfunc_arithmetic():
    x = RatFunc(ONE, half(1) + 1)
    y = RatFunc(ONE, half(1) - 1)
    s = x + y
    assert s == RatFunc(half(1, 2), q_power(1) - 1)
    assert x * (half(1) + 1) == RatFunc(ONE)
    assert (x / y) * y == x
    assert RatFunc(ZERO, half(7)) == RatFunc(ZERO)
    with pytest.raises(ZeroDivisionError):
        x / RatFunc(ZERO)


@given(small_poly, small_poly, small_poly)
def test_ratfunc_scaling_invariance(a, b, k):
    if b.is_zero() or k.is_zero():
        return
    assert RatFunc(a * k, b * k) == RatFunc(a, b)


def test_ratfunc_canonical_equality_is_structural():
    r1 = RatFunc(half(3, 2), half(1, 4))
    r2 = RatFunc(half(2), half(0, 2))
    assert r1 == r2
    assert (r1.num, r1.den) == (r2.num, r2.den)


def test_ratfunc_as_half():
    assert RatFunc(q_power(2) - 1, half(1) + half(-1)).as_half() == half(3) - half(1)
    with pytest.raises(ValueError):
        RatFunc(ONE, half(1) + 1).as_half()


def test_format_vform():
    assert format_vform(ZERO) == "0"
    assert format_vform(HalfLaurent({0: -3})) == "-3"
    assert format_vform(HalfLaurent({-2: 1, 0: -1, 3: 4})) == "v^-2 - 1 + 4*v^3"
    assert format_vform(half(1)) == "v"


def test_format_qform():
    assert format_qform(q_power(2) - q_power(-2)) == "q^2 - q^-2"
    assert format_qform(half(5, -1) + 1) == "-v^5 + 1"
    assert format_qform(q_power(1, 3) + half(1)) == "3*q + v"
    assert format_qform(ZERO) == "0"


@given(small_poly)
def test_vform_round_trip(p):
    assert parse_vform(format_vform(p)) == p


@given(small_poly)
def test_qform_parses_back(p):
    assert parse_vform(format_qform(p)) == p


def test_parse_errors_carry_position():
    with pytest.raises(ScalarParseError) as exc:
        parse_vform("v^")
    assert exc.value.pos == 2
    with pytest.raises(ScalarParseError):
        parse_vform("1 + + 2")
    with pytest.raises(ScalarParseError):
        parse_vform("2 *")


# ---------------------------------------------------------------------------
# the linear-combination core shared by every element type
# ---------------------------------------------------------------------------

_V = half(1)

# (x, y, an element of another frame, the error that adding it raises)
COMBINATIONS = [
    pytest.param(
        OqElement({"ab": _V, "": ONE}),
        OqElement({"ab": -_V, "d": q_power(2)}),
        None,
        None,
        id="OqElement",
    ),
    pytest.param(
        OqTensor({("a", "d"): _V}),
        OqTensor({("a", "d"): ONE, ("", "b"): -_V}),
        None,
        None,
        id="OqTensor",
    ),
    pytest.param(
        BraidedElement(2, {("a", ""): _V}),
        BraidedElement(2, {("a", ""): ONE, ("", "c"): _V}),
        BraidedElement(3, {("a", "", ""): ONE}),
        ValueError,
        id="BraidedElement",
    ),
    pytest.param(
        QTElement(TRIANGLE, {(1, 0, -1): _V}),
        QTElement(TRIANGLE, {(1, 0, -1): -_V, (0, 0, 0): ONE}),
        QTElement(QuantumTorus(2, ((0, 1), (-1, 0))), {(1, 0): ONE}),
        ValueError,
        id="QTElement",
    ),
    pytest.param(
        TLElement.identity(2).scale(RatFunc(_V, q_int(2))),
        TLElement.hook(2, 0) - TLElement.identity(2),
        TLElement.identity(3),
        TangleError,
        id="TLElement",
    ),
]


@pytest.mark.parametrize("x, y, other, error", COMBINATIONS)
def test_combination_core(x, y, other, error):
    assert not (x + (-x)).terms
    assert (x - y) + y == x
    assert not x.scale(0).terms
    if other is not None:
        with pytest.raises(error) as err:
            x + other
        assert err.type is error
