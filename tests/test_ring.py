import operator

import pytest
from hypothesis import given, strategies as st
from support import seeded

from bigon.braided import BraidedElement, braided_product
from bigon.hopf import OqElement, OqTensor
from bigon.qtorus import TRIANGLE, QTElement, QuantumTorus, StatedCornerArc, qt_multiply
from bigon.tangle import Slice, TangleError, TLElement
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
    one_minus_power,
    expand,
    format_qform,
    format_sum,
    parse_vform,
    MAX_NESTING,
    ScalarParseError,
    sweep,
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


@pytest.mark.parametrize(
    "build",
    [
        lambda: HalfLaurent({0: 1.5}),
        lambda: HalfLaurent({0.7: 2}),
        lambda: HalfLaurent({0.5: 0}),
        lambda: q_power(0.7),
        lambda: half(0.5, 3),
    ],
    ids=["coefficient", "exponent", "zero-coefficient", "q_power", "half"],
)
def test_non_integers_are_refused(build):
    with pytest.raises(TypeError):
        build()


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


def _as_laurent(x):
    return HalfLaurent({0: x}) if isinstance(x, int) else x


def _dict_add(x, y):
    """The sum by a copy of one dict and a pass over the other: the oracle for `+`."""
    c = dict(_as_laurent(x).items())
    for e, a in _as_laurent(y).items():
        c[e] = c.get(e, 0) + a
        if not c[e]:
            del c[e]
    return HalfLaurent(c)


def _dict_mul(x, y):
    """The product by a double loop, or a shift when a factor is a monomial: the oracle for `*`."""
    p, r = dict(_as_laurent(x).items()), dict(_as_laurent(y).items())
    if len(p) == 1 or len(r) == 1:
        if len(r) != 1:
            p, r = r, p
        ((e2, a2),) = r.items()
        c = {e1 + e2: a1 * a2 for e1, a1 in p.items()}
    else:
        c = {}
        for e1, a1 in p.items():
            for e2, a2 in r.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + a1 * a2
        c = {e: a for e, a in c.items() if a}
    return HalfLaurent(c)


def _kernel_values(rng):
    """ZERO, ONE, -1, signed monomials, and values of several terms, some seeded."""
    values = [ZERO, ONE, HalfLaurent({0: -1}), half(0, 2)]
    values += [half(e, a) for e in (-3, -1, 1, 4) for a in (1, -1, 3)]
    values += [
        HalfLaurent({rng.randint(-6, 6): rng.randint(-4, 4) for _ in range(rng.randint(2, 5))})
        for _ in range(12)
    ]
    return values + [HalfLaurent({0: 2, 1: -1}), HalfLaurent({-2: 1, 2: 1})]


def _same(got, want):
    return type(got) is HalfLaurent and dict(got.items()) == dict(want.items())


def test_the_kernel_matches_the_dict_oracle_on_seeded_pairs():
    values = _kernel_values(seeded(26))
    ints = [0, 1, -1, 2, 3]
    pairs = [(x, y) for x in values for y in values + ints] + [(k, y) for k in ints for y in values]
    wrong = [
        (name, x, y)
        for x, y in pairs
        for name, got, want in (
            ("*", x * y, _dict_mul(x, y)),
            ("+", x + y, _dict_add(x, y)),
            ("-", x - y, _dict_add(x, _dict_mul(-1, y))),
        )
        if not _same(got, want)
    ]
    assert wrong == []


def test_a_unit_factor_or_zero_summand_returns_the_other_operand():
    for x in _kernel_values(seeded(27)):
        assert x * ONE is x and ONE * x is x and x * 1 is x and 1 * x is x
        assert x + ZERO is x and ZERO + x is x and x + 0 is x and x - ZERO is x


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
    assert q_binom(4, 2, 2) == parse_vform(format_qform(q_binom(4, 2, 2)))
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


def _product_q_binom(n, i, e):
    """The Gaussian binomial as (numerator, denominator), the two products whose
    quotient the ratio recurrence builds."""
    if i < 0 or i > n:
        return ZERO, ONE
    num = den = ONE
    for j in range(n - i + 1, n + 1):
        num = num * (ONE - q_power(e * j))
    for j in range(1, i + 1):
        den = den * (ONE - q_power(e * j))
    return num, den


def test_q_binom_matches_the_product_route():
    for e in (1, 2, 4):
        for n in range(13):
            for i in range(-1, n + 2):
                num, den = _product_q_binom(n, i, e)
                assert q_binom(n, i, e) * den == num, (n, i, e)


def test_one_minus_power():
    # (1 + 2t + 3t^2)(1 - t^2) = 1 + 2t + 2t^2 - 2t^3 - 3t^4, and back
    assert one_minus_power([1, 2, 3], 2) == [1, 2, 2, -2, -3]
    assert one_minus_power([1, 2, 2, -2, -3], 2, divide=True) == [1, 2, 3]
    assert one_minus_power([0, 0], 1, divide=True) == [0]
    for cs, s in (([1, 2, 3], 2), ([1, 1], 1), ([1], 3), ([1, 0, 0, 2], 3)):
        with pytest.raises(ValueError, match="inexact"):
            one_minus_power(cs, s, divide=True)


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
def test_a_fraction_equals_itself_scaled(a, b, k):
    if not b or not k:
        return
    assert RatFunc(a * k, b * k) == RatFunc(a, b)


@given(small_poly, small_poly, small_poly)
def test_a_sum_over_one_denominator_keeps_it(a, b, d):
    if not d:
        return
    assert (RatFunc(a, d) + RatFunc(b, d)).den == d
    assert (RatFunc(a, d) - RatFunc(b, d)).den == d


def test_a_fraction_is_unhashable():
    # nothing is cancelled, so no hash could agree with cross multiplication
    with pytest.raises(TypeError):
        hash(RatFunc(ONE))


def test_ratfunc_reflected_operators_and_text():
    v = half(1)
    x = RatFunc(ONE, v + 1)
    assert 1 - x == RatFunc(v, v + 1)
    assert 2 / x == 2 * v + 2
    assert str(RatFunc(half(3))) == "v^3"
    assert str(x) == "(1) / (v + 1)"


@pytest.mark.parametrize("n", [0, 1, -1, 3, 2**70])
def test_equal_scalars_hash_equally(n):
    # a constant and a HalfLaurent that compare equal are one set member; a RatFunc
    # over ONE compares equal to both, and is unhashable
    laurent, fraction = HalfLaurent({0: n}), RatFunc(n)
    assert laurent == n and fraction == n and fraction == laurent
    assert hash(laurent) == hash(n)
    assert len({n, laurent}) == 1


def test_a_scalar_stores_only_its_terms():
    # no hash is cached: each call computes it afresh from the terms
    x = half(3, 2) + half(-1)
    assert HalfLaurent.__slots__ == ("_c",)
    assert hash(x) == hash(x) == hash(half(-1) + half(3, 2))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: half(0, 2) ** -1, ValueError, "only unit monomials"),
        (lambda: q_binom(3, 1, 0), ZeroDivisionError, "zero polynomial"),
        (lambda: RatFunc(ONE, ZERO), ZeroDivisionError, "zero denominator"),
        # the 201st '(' open at once is refused where it stands, whoever calls
        (lambda: parse_vform("(" * 5000 + "1" + ")" * 5000), ScalarParseError, r"nests too deeply \(at position 200\)"),
    ],
    ids=["invert-2", "binomial-at-q0", "zero-denominator", "deep-scalar"],
)
def test_scalars_out_of_range_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def _refusal(text, frames):
    """The message that refuses parse_vform(text), called `frames` frames deeper."""
    if frames:
        return _refusal(text, frames - 1)
    with pytest.raises(ScalarParseError) as caught:
        parse_vform(text)
    return str(caught.value)


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 247, 5000])
def test_the_nesting_error_depends_on_the_text_only(depth):
    text = "(" * depth + "1" + ")" * depth
    message = "expression nests too deeply (at position %d)" % MAX_NESTING
    assert _refusal(text, 0) == _refusal(text, 100) == message
    assert parse_vform("(" * MAX_NESTING + "q" + ")" * MAX_NESTING) == q_power(1)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Slice("cap", 0, 2),
        lambda: StatedCornerArc(1, "+-"),
        lambda: OqElement.from_word("ba"),
    ],
    ids=["slice", "corner-arc", "element"],
)
def test_equal_values_compare_and_hash_equal(make):
    x, y = make(), make()
    assert x is not y and x == y
    assert hash(x) == hash(y) and len({x, y}) == 1


def test_ratfunc_canonical_equality_is_structural():
    r1 = RatFunc(half(3, 2), half(1, 4))
    r2 = RatFunc(half(2), half(0, 2))
    assert r1 == r2


def test_format_qform():
    assert format_qform(q_power(2) - q_power(-2)) == "q^2 - q^-2"
    assert format_qform(half(5, -1) + 1) == "-v^5 + 1"
    assert format_qform(q_power(1, 3) + half(1)) == "3*q + v"
    assert format_qform(ZERO) == "0"


def test_format_qform_of_half_powers():
    assert format_qform(ZERO) == "0"
    assert format_qform(HalfLaurent({0: -3})) == "-3"
    assert format_qform(HalfLaurent({-2: 1, 0: -1, 3: 4})) == "4*v^3 - 1 + q^-1"
    assert format_qform(half(1)) == "v"


# The printer before it wrote each monomial in one pass, kept as the oracle of
# the one-pass printer: (sign, body) pieces joined after the fact.


def _old_power_text(e, mag):
    if e == 0:
        return str(mag)
    if e % 2 == 0:
        head = "q" if e == 2 else "q^%d" % (e // 2)
    else:
        head = "v" if e == 1 else "v^%d" % e
    return head if mag == 1 else "%d*%s" % (mag, head)


def _old_join_signed(pieces):
    text = "".join(" %s %s" % piece for piece in pieces)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _old_monomials(p):
    for e, a in sorted(p.items(), reverse=True):
        yield "-" if a < 0 else "+", _old_power_text(e, abs(a))


def _old_format_qform(p):
    return _old_join_signed(_old_monomials(p))


def _old_scalar_head(coeff):
    if len(coeff.items()) != 1:
        return "+", "(%s)" % _old_format_qform(coeff)
    ((sign, head),) = _old_monomials(coeff)
    return sign, "" if head == "1" else head


def _old_format_sum(terms):
    pieces = []
    for coeff, factor in terms:
        sign, head = _old_scalar_head(coeff)
        pieces.append((sign, "*".join(filter(None, (head, factor))) or "1"))
    return _old_join_signed(pieces)


_OLD_COEFFICIENTS = (0, 1, -1, 2, -2, 17, -17, 10**30, -(10**30))


def _random_scalar(rng, terms):
    return HalfLaurent({rng.randint(-600, 600): rng.choice(_OLD_COEFFICIENTS) for _ in range(terms)})


def test_the_one_pass_printer_writes_what_the_old_one_did():
    rng = seeded(34)
    # every exponent and coefficient alone, then random sums of them
    scalars = [HalfLaurent({e: a}) for e in range(-600, 601) for a in _OLD_COEFFICIENTS]
    scalars += [_random_scalar(rng, rng.randint(0, 9)) for _ in range(3000)]
    for p in scalars:
        assert format_qform(p) == _old_format_qform(p), dict(p.items())
    factors = ["", "a", "a^2*b*d^3", "(|ab)", "(|)"]
    for _ in range(3000):
        terms = [
            (_random_scalar(rng, rng.choice((1, 1, 1, 2, 5))), rng.choice(factors))
            for _ in range(rng.randint(0, 6))
        ]
        assert format_sum(terms) == _old_format_sum(terms), terms


@given(small_poly)
def test_qform_parses_back(p):
    assert parse_vform(format_qform(p)) == p
    # the one text of a scalar
    assert repr(p) == str(p) == format_qform(p)


def test_parse_errors_carry_position():
    with pytest.raises(ScalarParseError) as exc:
        parse_vform("v^")
    assert exc.value.pos == 2
    with pytest.raises(ScalarParseError):
        parse_vform("1 + + 2")
    with pytest.raises(ScalarParseError):
        parse_vform("2 *")


def test_scalars_read_the_whole_grammar():
    assert parse_vform("(q + 1)*(q - 1)") == q_power(2) - 1
    assert parse_vform("q*q") == parse_vform("q^2") == parse_vform("v^4")
    assert parse_vform("-(v^-1)^3") == half(-3, -1)
    with pytest.raises(ScalarParseError):
        parse_vform("(q + 1)^-1")
    with pytest.raises(ScalarParseError) as exc:
        parse_vform("  q + x")
    assert exc.value.pos == 6


# ---------------------------------------------------------------------------
# the linear-combination core shared by every element type
# ---------------------------------------------------------------------------

_V = half(1)

# (x, y, an element of another frame, the error that adding or multiplying it
# raises, the product of two elements)
COMBINATIONS = [
    pytest.param(
        OqElement({"ab": _V, "": ONE}),
        OqElement({"ab": -_V, "d": q_power(2)}),
        None,
        None,
        operator.mul,
        id="OqElement",
    ),
    pytest.param(
        OqTensor({("a", "d"): _V}),
        OqTensor({("a", "d"): ONE, ("", "b"): -_V}),
        None,
        None,
        operator.mul,
        id="OqTensor",
    ),
    pytest.param(
        BraidedElement(2, {("a", ""): _V}),
        BraidedElement(2, {("a", ""): ONE, ("", "c"): _V}),
        BraidedElement(3, {("a", "", ""): ONE}),
        ValueError,
        braided_product,
        id="BraidedElement",
    ),
    pytest.param(
        QTElement(TRIANGLE, {(1, 0, -1): _V}),
        QTElement(TRIANGLE, {(1, 0, -1): -_V, (0, 0, 0): ONE}),
        QTElement(QuantumTorus(((0, 1), (-1, 0))), {(1, 0): ONE}),
        ValueError,
        qt_multiply,
        id="QTElement",
    ),
    pytest.param(
        TLElement.identity(2).scale(RatFunc(_V, q_int(2))),
        TLElement.hook(2, 0) - TLElement.identity(2),
        TLElement.identity(3),
        TangleError,
        operator.mul,
        id="TLElement",
    ),
]


@pytest.mark.parametrize("x, y, other, error, times", COMBINATIONS)
def test_combination_core(x, y, other, error, times):
    assert not (x + (-x)).terms
    assert (x - y) + y == x
    assert not x.scale(0).terms
    if other is not None:
        with pytest.raises(error) as err:
            x + other
        assert err.type is error


@pytest.mark.parametrize("x, y, other, error, times", COMBINATIONS)
def test_one_product_rule(x, y, other, error, times):
    # scalars multiply from either side, as scale does
    assert 2 * x == x * 2 == x.scale(2)
    assert _V * x == x * _V == x.scale(_V)
    with pytest.raises(TypeError):
        x * "a"
    with pytest.raises(TypeError):
        "a" * x
    # the product is bilinear in either operand
    assert times(x + y, y) == times(x, y) + times(y, y)
    assert times(x, y.scale(_V)) == times(x, y).scale(_V)
    if times is not operator.mul:
        # these elements have no * between two of them
        with pytest.raises(TypeError):
            x * y
    if other is not None:
        with pytest.raises(error) as err:
            times(x, other)
        assert err.type is error


# ---------------------------------------------------------------------------
# the fold: sweep and expand
# ---------------------------------------------------------------------------


def test_expand_merges_equal_keys_and_drops_cancelled_ones():
    assert expand({"a": ONE, "b": half(1)}, lambda key: [("x", ONE)]) == {"x": ONE + half(1)}
    # the x terms cancel, the y terms survive
    image = {"a": [("x", ONE), ("y", ONE)], "b": [("x", -ONE), ("y", half(2))]}
    assert expand({"a": ONE, "b": ONE}, image.get) == {"y": ONE + half(2)}
    assert expand({"a": half(3), "b": half(3)}, image.get) == {"y": half(3) + half(5)}


def test_sweep_over_no_steps_returns_its_input():
    terms = {"a": half(1), "b": half(-2, 3)}
    assert sweep(terms, [], lambda key, step: [(key + step, ONE)]) == terms


def test_an_empty_image_gives_the_zero_combination():
    assert expand({"a": ONE, "b": half(1)}, lambda key: ()) == {}
    assert sweep({"a": ONE}, "xyz", lambda key, step: [] if step == "y" else [(key + step, ONE)]) == {}


def _nested_expands(terms, steps, image):
    """One plain sum per step, its zeros dropped at the end: an oracle that shares
    no code with `sweep` or with `expand`, a sweep of one step."""
    if not steps:
        return terms
    out = {}
    for key, c in terms.items():
        for new, d in image(key, steps[0]):
            out[new] = out.get(new, ZERO) + c * d
    return _nested_expands({key: c for key, c in out.items() if c}, steps[1:], image)


def test_sweep_equals_nested_expands():
    rng = seeded(11)
    for _ in range(40):
        table = {}  # a fixed random image per (key, step), whose coefficients can cancel

        def image(key, step):
            if (key, step) not in table:
                table[key, step] = [
                    (rng.randrange(6), half(rng.randint(-2, 2), rng.choice((-1, 1))))
                    for _ in range(rng.randint(0, 3))
                ]
            return table[key, step]

        terms = {rng.randrange(6): half(rng.randint(-2, 2), rng.randint(-3, 3) or 1) for _ in range(4)}
        steps = [rng.randrange(3) for _ in range(rng.randint(1, 5))]
        assert sweep(terms, steps, image) == _nested_expands(terms, steps, image)
