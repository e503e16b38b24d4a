"""Braided tensor powers, twisted products, and polygon splitting."""

import itertools

import pytest

from bigon.braided import (
    BraidedElement,
    adjoint_coaction,
    antipode_flip_coaction,
    braided_product,
    polygon_split,
    rho_twisted_multiply,
    self_braided_product,
    standard_coaction,
    transmutation_product,
    trivial_coaction,
    _block_coproduct,
    _mul_legs,
)
from bigon.hopf import GENERATORS, OqTensor, counit_word, multiply
from bigon.ring import ONE, ZERO, q_power
from support import basis_words, oq, random_scalar, random_word, seeded


def _legs(*words):
    return BraidedElement.from_legs(words)


def _random_braided(rng, arity, max_total=2, n_terms=2):
    """Random element whose leg words have combined length <= max_total."""
    x = BraidedElement(arity, {})
    for _ in range(n_terms):
        w = random_word(rng, max_total)
        cuts = sorted(rng.randint(0, len(w)) for _ in range(arity - 1))
        legs = []
        prev = 0
        for k in cuts:
            legs.append(w[prev:k])
            prev = k
        legs.append(w[prev:])
        x = x + BraidedElement.from_legs(tuple(legs), random_scalar(rng))
    return x


# ---------------------------------------------------------------------------
# the tensor-power container
# ---------------------------------------------------------------------------


def test_from_legs_normalizes_each_leg():
    # inside one leg the letters multiply as usual: ba = q^2 ab
    assert _legs("ba", "") == BraidedElement.from_legs(("ab", ""), q_power(2))


def test_constructor_checks_leg_count():
    with pytest.raises(ValueError):
        BraidedElement(2, {("a",): ONE})


def test_zero_terms_are_dropped():
    x = _legs("a", "b")
    assert (x - x) == BraidedElement(2, {})
    assert not (x - x).terms


def test_memoised_leg_products_are_immutable():
    # the memo caches hand one result to every caller, so it must not be mutable
    for compute in (
        lambda: _block_coproduct(("ab", "c")),
        lambda: _mul_legs(("ab", "c"), ("d", "b"), "rho"),
        lambda: _mul_legs(("b", "", "c"), ("a", "d", ""), "mirror"),
    ):
        first = compute()
        hash(first)
        assert compute() == first


def test_product_requires_matching_arity():
    with pytest.raises(ValueError):
        braided_product(_legs("a"), _legs("a", "b"))


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        braided_product(_legs("a", ""), _legs("", "a"), "sideways")


# ---------------------------------------------------------------------------
# the braided product
# ---------------------------------------------------------------------------


def test_ordered_legs_multiply_freely():
    for variant in ("standard", "mirror"):
        assert braided_product(_legs("a", ""), _legs("", "a"), variant) == _legs("a", "a")


def test_reversed_legs_pay_the_exchange_weight():
    x = _legs("", "a")
    y = _legs("a", "")
    assert braided_product(x, y) == BraidedElement.from_legs(("a", "a"), q_power(1))
    assert braided_product(x, y, "mirror") == BraidedElement.from_legs(("a", "a"), q_power(-1))


def test_unit_is_a_two_sided_identity():
    rng = seeded(61)
    one = BraidedElement.unit(2)
    for _ in range(10):
        x = _random_braided(rng, 2)
        for variant in ("standard", "mirror"):
            assert braided_product(one, x, variant) == x
            assert braided_product(x, one, variant) == x


def test_associativity_on_generator_triples():
    atoms = [_legs(g, "") for g in GENERATORS] + [_legs("", g) for g in GENERATORS]
    for variant in ("standard", "mirror"):
        for x, y, z in itertools.product(atoms, repeat=3):
            left = braided_product(braided_product(x, y, variant), z, variant)
            right = braided_product(x, braided_product(y, z, variant), variant)
            assert left == right


def test_associativity_on_random_degree_two_triples():
    rng = seeded(62)
    for variant in ("standard", "mirror"):
        for _ in range(50):
            x = _random_braided(rng, 2)
            y = _random_braided(rng, 2)
            z = _random_braided(rng, 2)
            left = braided_product(braided_product(x, y, variant), z, variant)
            right = braided_product(x, braided_product(y, z, variant), variant)
            assert left == right


def test_product_is_bilinear():
    rng = seeded(68)
    for _ in range(5):
        x = _random_braided(rng, 2)
        y = _random_braided(rng, 2)
        z = _random_braided(rng, 2)
        assert braided_product(x + y, z) == braided_product(x, z) + braided_product(y, z)
        assert braided_product(x, y + z) == braided_product(x, y) + braided_product(x, z)


# ---------------------------------------------------------------------------
# twisted products on a single copy
# ---------------------------------------------------------------------------


def test_trivial_coactions_reduce_to_plain_multiplication():
    rng = seeded(63)
    for _ in range(15):
        x = oq(random_word(rng, 2), random_scalar(rng))
        y = oq(random_word(rng, 2), random_scalar(rng))
        got = self_braided_product(x, y, trivial_coaction, trivial_coaction)
        assert got == multiply(x, y)


def test_twisted_unit_laws():
    one = oq("")
    for w in GENERATORS:
        x = oq(w)
        assert self_braided_product(one, x, antipode_flip_coaction, standard_coaction) == x
        assert self_braided_product(x, one, antipode_flip_coaction, standard_coaction) == x


def test_covariantized_unit_laws():
    one = oq("")
    for w in ["", "a", "b", "c", "d"]:
        x = oq(w)
        assert transmutation_product(one, x) == x
        assert transmutation_product(x, one) == x


def test_covariantized_square_of_a():
    a = oq("a")
    assert transmutation_product(a, a) == multiply(a, a)


def test_covariantized_product_is_associative_on_generators():
    gens = [oq(w) for w in GENERATORS]
    for x, y, z in itertools.product(gens, repeat=3):
        left = transmutation_product(transmutation_product(x, y), z)
        right = transmutation_product(x, transmutation_product(y, z))
        assert left == right


def test_covariantized_product_is_associative_on_degree_two_monomials():
    rng = seeded(64)
    words = [w for w in basis_words(2) if len(w) == 2]
    for _ in range(12):
        x, y, z = (oq(rng.choice(words)) for _ in range(3))
        left = transmutation_product(transmutation_product(x, y), z)
        right = transmutation_product(x, transmutation_product(y, z))
        assert left == right


def test_covariantized_product_agrees_with_the_twisted_comodule_route():
    for wx in GENERATORS:
        for wy in GENERATORS:
            x, y = oq(wx), oq(wy)
            direct = transmutation_product(x, y)
            routed = self_braided_product(
                x, y, antipode_flip_coaction, standard_coaction, product=rho_twisted_multiply
            )
            assert direct == routed


def test_covariantized_product_is_a_comodule_algebra_map():
    # the adjoint coaction of a covariantized product equals the pairwise
    # product of the coactions (body slots twisted, outer slots plain)
    for wx in GENERATORS:
        for wy in GENERATORS:
            x, y = oq(wx), oq(wy)
            lhs = adjoint_coaction(transmutation_product(x, y))
            acc = {}
            for (xb, xo), cx in adjoint_coaction(x).terms.items():
                for (yb, yo), cy in adjoint_coaction(y).terms.items():
                    body = transmutation_product(oq(xb), oq(yb))
                    outer = multiply(oq(xo), oq(yo))
                    for wb, cb in body.terms.items():
                        for wo, co in outer.terms.items():
                            key = (wb, wo)
                            s = acc.get(key, ZERO) + cx * cy * cb * co
                            if s:
                                acc[key] = s
                            elif key in acc:
                                del acc[key]
            assert lhs == OqTensor(acc)


# ---------------------------------------------------------------------------
# polygon splitting
# ---------------------------------------------------------------------------


def _split_sum(n, x, cut):
    acc = {}
    for left, right in polygon_split(n, x, cut):
        for ll, cl in left.terms.items():
            for rr, cr in right.terms.items():
                key = (ll, rr)
                s = acc.get(key, ZERO) + cl * cr
                if s:
                    acc[key] = s
                elif key in acc:
                    del acc[key]
    return acc


def _blockwise_product(n, cut, f1, f2, variant):
    acc = {}
    for (l1, r1), c1 in f1.items():
        for (l2, r2), c2 in f2.items():
            lprod = braided_product(
                BraidedElement(cut + 1, {l1: ONE}), BraidedElement(cut + 1, {l2: ONE}), variant
            )
            rprod = braided_product(
                BraidedElement(n - 1 - cut, {r1: ONE}),
                BraidedElement(n - 1 - cut, {r2: ONE}),
                variant,
            )
            for lt, lc in lprod.terms.items():
                for rt, rc in rprod.terms.items():
                    key = (lt, rt)
                    s = acc.get(key, ZERO) + c1 * c2 * lc * rc
                    if s:
                        acc[key] = s
                    elif key in acc:
                        del acc[key]
    return acc


def _recombined(n, x, cut):
    # collapse the right piece's new leg with the counit and glue back
    out = BraidedElement(n - 1, {})
    for left, right in polygon_split(n, x, cut):
        for ll, cl in left.terms.items():
            for rr, cr in right.terms.items():
                scalar = counit_word(rr[0])
                if not scalar:
                    continue
                out = out + BraidedElement(n - 1, {ll + rr[1:]: cl * cr * scalar})
    return out


def test_split_validates_arity_and_cut():
    x = _legs("a", "")
    with pytest.raises(ValueError):
        polygon_split(4, x, 1)
    with pytest.raises(ValueError):
        polygon_split(3, x, 0)
    with pytest.raises(ValueError):
        polygon_split(3, x, 2)


def test_split_of_a_tensor_one():
    pairs = polygon_split(3, _legs("a", ""), 1)
    assert len(pairs) == 1
    left, right = pairs[0]
    assert left == _legs("a", "")
    assert right == _legs("")


def test_split_pieces_have_the_right_arities():
    x = _legs("b", "c", "a")
    for cut in (1, 2):
        for left, right in polygon_split(4, x, cut):
            assert left.arity == cut + 1
            assert right.arity == 3 - cut


def test_splitting_then_counit_recombines():
    rng = seeded(65)
    for _ in range(15):
        x = _random_braided(rng, 2)
        assert _recombined(3, x, 1) == x
    for _ in range(10):
        x = _random_braided(rng, 3)
        for cut in (1, 2):
            assert _recombined(4, x, cut) == x


def test_splitting_is_an_algebra_map():
    rng = seeded(66)
    for variant in ("mirror", "standard"):
        for _ in range(30):
            x = _random_braided(rng, 2)
            y = _random_braided(rng, 2)
            lhs = _split_sum(3, braided_product(x, y, variant), 1)
            rhs = _blockwise_product(3, 1, _split_sum(3, x, 1), _split_sum(3, y, 1), variant)
            assert lhs == rhs


def test_splitting_is_an_algebra_map_on_the_last_square_diagonal():
    rng = seeded(67)
    for _ in range(10):
        x = _random_braided(rng, 3, n_terms=1)
        y = _random_braided(rng, 3, n_terms=1)
        lhs = _split_sum(4, braided_product(x, y, "mirror"), 2)
        rhs = _blockwise_product(4, 2, _split_sum(4, x, 2), _split_sum(4, y, 2), "mirror")
        assert lhs == rhs
