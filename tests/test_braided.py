"""Braided tensor powers, twisted products, and polygon splitting."""

import functools
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
    transmutation_product,
    trivial_coaction,
    _block_coproduct,
    _exchange,
    _mul_legs,
    _triple_coproduct_word,
)
from bigon.hopf import (
    GENERATORS,
    OqElement,
    OqTensor,
    antipode,
    co_r,
    coproduct,
    coproduct_word,
    counit_word,
    multiply,
    normal_word,
    rho_word,
)
from bigon.ring import ONE, ZERO, add_to, expand, q_power
from support import basis_words, oq, random_element, random_scalar, random_word, seeded


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


def test_from_legs_rejects_letters_outside_abcd():
    with pytest.raises(ValueError, match="unknown generator 'e'"):
        BraidedElement.from_legs(("ex", "a"))


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


def test_units_with_no_legs_multiply_to_the_unit():
    # the base case of `_mul_legs`: no legs left to multiply
    assert braided_product(BraidedElement.unit(0), BraidedElement.unit(0)) == BraidedElement.unit(0)


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
        assert self_braided_product(one, x, antipode_flip_coaction, coproduct) == x
        assert self_braided_product(x, one, antipode_flip_coaction, coproduct) == x


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
            # the transmutation's exchange, over the coproduct in place of the
            # adjoint coaction, with each exchanged pair multiplied by the
            # co-R-twisted product in place of the plain one
            exchanged = _exchange(
                coproduct(x).terms.items(), antipode_flip_coaction(y).terms.items(), "rho"
            )
            routed = OqElement()
            for (w1, w2), c in exchanged.items():
                routed = routed + rho_twisted_multiply(oq(w1), oq(w2)).scale(c)
            assert transmutation_product(x, y) == routed


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


# The coactions through the element-level antipode and product, kept as the
# oracle for the word maps in `braided`.
def _antipode_flipped(w):
    """One word's image: sum of x'' tensor S(x') over its coproduct."""
    for (w1, w2), d in coproduct_word(w):
        for sw, e in antipode(OqElement.from_word(w1)).terms.items():
            yield (w2, sw), d * e


def _adjoint_word(w):
    """One word's image: x'' tensor S(x')x''' over its triple coproduct."""
    for (w1, w2, w3), d in _triple_coproduct_word(w):
        wing = multiply(antipode(OqElement.from_word(w1)), OqElement.from_word(w3))
        for uw, e in wing.terms.items():
            yield (w2, uw), d * e


def _element_antipode_flip_coaction(x):
    return OqTensor(expand(x.terms, _antipode_flipped))


def _element_adjoint_coaction(x):
    return OqTensor(expand(x.terms, _adjoint_word))


def _element_transmutation_product(x, y):
    return self_braided_product(x, y, _element_antipode_flip_coaction, _element_adjoint_coaction)


def _free_words(max_len):
    return ["".join(p) for n in range(max_len + 1) for p in itertools.product(GENERATORS, repeat=n)]


def test_coactions_match_the_element_route():
    for w in _free_words(4):
        x = oq(w)
        assert antipode_flip_coaction(x) == _element_antipode_flip_coaction(x), w
        assert adjoint_coaction(x) == _element_adjoint_coaction(x), w


def test_transmutation_matches_the_element_route():
    # both products are bilinear, and a free word of n letters normal-forms into
    # the basis words of at most n letters: the basis pairs cover every free pair
    elements = [oq(w) for w in basis_words(3)] + [oq(w) for w in _free_words(2)]
    for x, y in itertools.product(elements, repeat=2):
        assert transmutation_product(x, y) == _element_transmutation_product(x, y)


@pytest.mark.parametrize("degree", (1, 2, 3))
@pytest.mark.parametrize("middle", "bc")
def test_transmutation_matches_the_element_route_on_deep_words(degree, middle):
    # a^k times b^k or c^k, and both sides of its associativity check against a generator
    x, y = oq("a" * degree), oq(middle * degree)
    xy = transmutation_product(x, y)
    assert xy == _element_transmutation_product(x, y)
    for z in map(oq, GENERATORS):
        assert transmutation_product(xy, z) == _element_transmutation_product(xy, z)
        yz = _element_transmutation_product(y, z)
        assert transmutation_product(x, transmutation_product(y, z)) == _element_transmutation_product(x, yz)


# The transmutation as a braided group (Majid's BSL_q(2)): its determinant and
# its central, ad-coinvariant trace carry q^4 in this module's relations, and
# q^2 in place of q^4 is the mutant each check must reject.
def _braided_determinant(k):
    a, b, c, d = (oq(g) for g in GENERATORS)
    return transmutation_product(a, d) - transmutation_product(c, b).scale(q_power(k))


def _braided_trace(k):
    return oq("a") + oq("d").scale(q_power(k))


def test_transmutation_has_the_braided_determinant():
    assert _braided_determinant(4) == oq("")
    assert _braided_determinant(2) != oq("")


def test_braided_trace_is_central_for_the_transmutation():
    def central(t):
        return all(transmutation_product(t, g) == transmutation_product(g, t) for g in map(oq, GENERATORS))

    assert central(_braided_trace(4))
    assert not central(_braided_trace(2))


def test_braided_trace_is_ad_coinvariant():
    def coinvariant(t):
        return adjoint_coaction(t) == OqTensor({(w, ""): c for w, c in t.terms.items()})

    assert coinvariant(_braided_trace(4))
    assert not coinvariant(_braided_trace(2))


def test_braided_trace_square_is_ad_coinvariant():
    def coinvariant(t):
        square = multiply(t, t)
        return adjoint_coaction(square) == trivial_coaction(square)

    assert coinvariant(_braided_trace(4))
    assert not coinvariant(_braided_trace(2))


def _braided_coproduct_terms(x, y):
    """The terms of Σ ρ(x″₁, y′₁) · (x′ ∘ y′₀) ⊗ (x″₀ ∘ y″), with ρ left open.

    x′ ⊗ x″ is the coproduct, u ↦ u₀ ⊗ u₁ the adjoint coaction and ∘ the
    transmutation: yields (x″₁, y′₁, coefficient, x′ ∘ y′₀, x″₀ ∘ y″).
    """
    for (x1, x2), cx in coproduct(x).terms.items():
        for (y1, y2), cy in coproduct(y).terms.items():
            for (x20, x21), c2 in adjoint_coaction(oq(x2)).terms.items():
                for (y10, y11), c1 in adjoint_coaction(oq(y1)).terms.items():
                    left = transmutation_product(oq(x1), oq(y10))
                    right = transmutation_product(oq(x20), oq(y2))
                    yield x21, y11, cx * cy * c2 * c1, left, right


def _braided_coproduct(terms, form):
    out = {}
    for u, v, c, left, right in terms:
        weight = form(u, v)
        if weight:
            for wl, cl in left.terms.items():
                for wr, cr in right.terms.items():
                    add_to(out, (wl, wr), c * weight * cl * cr)
    return OqTensor(out)


def test_coproduct_is_a_braided_algebra_map_of_the_transmutation():
    # Δ(x∘y) is the braided product of Δx and Δy, the exchange paying
    # ρ(x″₁, y′₁); ρ with its arguments swapped, and the bar or mirror form
    # in either order, each fail on every generator pair
    mutants = [lambda u, v: rho_word(v, u, "rho")] + [
        lambda u, v, kind=kind, flip=flip: rho_word(*((v, u) if flip else (u, v)), kind)
        for kind in ("bar", "mirror")
        for flip in (False, True)
    ]
    for wx, wy in itertools.product(GENERATORS, repeat=2):
        x, y = oq(wx), oq(wy)
        lhs = coproduct(transmutation_product(x, y))
        terms = list(_braided_coproduct_terms(x, y))
        assert lhs == _braided_coproduct(terms, lambda u, v: rho_word(u, v, "rho")), (wx, wy)
        for mutant in mutants:
            assert lhs != _braided_coproduct(terms, mutant), (wx, wy)


# ---------------------------------------------------------------------------
# the tail-pair loops: one co-R exchange per pair of coproduct tails, kept as
# the oracles of the single exchange the products now share
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _pairwise_mul_legs(xlegs, ylegs, kind):
    """Product of two single leg tuples, as a sorted tuple of (leg tuple, coeff)."""
    if not xlegs:
        return (((), ONE),)
    if len(xlegs) == 1:
        return tuple(((w,), c) for w, c in normal_word(xlegs[0] + ylegs[0]))
    x1, xrest = xlegs[0], xlegs[1:]
    y1, yrest = ylegs[0], ylegs[1:]
    out = {}
    # slide the whole tail block of x leftwards past the first leg of y,
    # paying the co-R weight of the exchanged coproduct tails
    for (block, uw), cu in _block_coproduct(xrest):
        for (y1p, vw), cv in coproduct_word(y1):
            weight = rho_word(uw, vw, kind)
            if not weight:
                continue
            weight = weight * cu * cv
            for first, cf in normal_word(x1 + y1p):
                for rest, cr in _pairwise_mul_legs(block, yrest, kind):
                    add_to(out, (first,) + rest, weight * cf * cr)
    return tuple(sorted(out.items()))


def _pairwise_braided_product(x, y, variant):
    kind = {"standard": "rho", "mirror": "mirror"}[variant]
    terms = {}
    for xlegs, cx in x.terms.items():
        for ylegs, cy in y.terms.items():
            for legs, c in _pairwise_mul_legs(xlegs, ylegs, kind):
                add_to(terms, legs, cx * cy * c)
    return BraidedElement(x.arity, terms)


def _pairwise_rho_twisted_multiply(x, y):
    """The co-R-twisted product: sum of co-R(x',y') times x''y''."""
    out = {}
    for wx, cx in x.terms.items():
        for (x1, x2), d1 in coproduct_word(wx):
            for wy, cy in y.terms.items():
                for (y1, y2), d2 in coproduct_word(wy):
                    weight = rho_word(x1, y1, "rho")
                    if weight:
                        weight = cx * cy * d1 * d2 * weight
                        for w, c in normal_word(x2 + y2):
                            add_to(out, w, c * weight)
    return OqElement(out)


def _pairwise_transmutation_product(x, y):
    """Covariantized product via triple coproducts and antipode wings.

    The wing pairing the left factor is S(head leg) times tail leg; applying
    the antipode to the whole head*tail product instead breaks associativity,
    which is the cross-check that pins this reading.
    """
    out = {}
    for wx, cx in x.terms.items():
        for (x1, x2, x3), d in _triple_coproduct_word(wx):
            wing = multiply(antipode(OqElement.from_word(x1)), OqElement.from_word(x3))
            for wy, cy in y.terms.items():
                for (y1, y2), e in coproduct_word(wy):
                    weight = co_r(wing, antipode(OqElement.from_word(y1)))
                    if weight:
                        weight = cx * cy * d * e * weight
                        for w, c in normal_word(x2 + y2):
                            add_to(out, w, c * weight)
    return OqElement(out)


@pytest.mark.parametrize("arity", (2, 3, 4))
def test_braided_product_matches_the_tail_pair_loop(arity):
    rng = seeded(90 + arity)
    for variant in ("standard", "mirror"):
        for _ in range(12):
            x = _random_braided(rng, arity, max_total=5, n_terms=3)
            y = _random_braided(rng, arity, max_total=5, n_terms=3)
            assert braided_product(x, y, variant) == _pairwise_braided_product(x, y, variant)


def test_twisted_products_match_the_tail_pair_loops():
    rng = seeded(94)
    for _ in range(25):
        x = random_element(rng, 3)
        y = random_element(rng, 3)
        assert rho_twisted_multiply(x, y) == _pairwise_rho_twisted_multiply(x, y)
        assert transmutation_product(x, y) == _pairwise_transmutation_product(x, y)


def test_leg_products_recurse_once_per_surviving_block():
    # summing the exchange weights over tails first leaves one block per level
    # here; recursing per tail pair took 517 leg products
    _mul_legs.cache_clear()
    braided_product(_legs(*["ad"] * 6), _legs(*["a"] * 6), "mirror")
    assert _mul_legs.cache_info().misses <= 10


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
    # collapse the left piece's new leg with the counit and glue back
    out = BraidedElement(n - 1, {})
    for left, right in polygon_split(n, x, cut):
        for ll, cl in left.terms.items():
            for rr, cr in right.terms.items():
                scalar = counit_word(ll[-1])
                if not scalar:
                    continue
                out = out + BraidedElement(n - 1, {ll[:-1] + rr: cl * cr * scalar})
    return out


def _single_leg_split(n, x, cut):
    # the earlier split, which expanded leg `cut` alone
    out = {}
    for legs, c in x.terms.items():
        head, mid, tail = legs[:cut], legs[cut], legs[cut + 1 :]
        for (m1, m2), d in coproduct_word(mid):
            add_to(out, (head + (m2,), (m1,) + tail), c * d)
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


@pytest.mark.parametrize("n", (4, 5))
def test_splitting_is_an_algebra_map_at_every_cut(n):
    rng = seeded(68 + n)
    for cut in range(1, n - 1):
        for variant in ("standard", "mirror"):
            for _ in range(3):
                x = _random_braided(rng, n - 1, max_total=3)
                y = _random_braided(rng, n - 1, max_total=3)
                lhs = _split_sum(n, braided_product(x, y, variant), cut)
                rhs = _blockwise_product(
                    n, cut, _split_sum(n, x, cut), _split_sum(n, y, cut), variant
                )
                assert lhs == rhs, (cut, variant)


def test_single_leg_split_is_not_an_algebra_map_at_interior_cuts():
    # the test above can tell: expanding leg `cut` alone fails at cut 1
    x = _legs("a", "", "b")
    y = _legs("", "c", "")
    for variant in ("standard", "mirror"):
        lhs = _single_leg_split(4, braided_product(x, y, variant), 1)
        rhs = _blockwise_product(
            4, 1, _single_leg_split(4, x, 1), _single_leg_split(4, y, 1), variant
        )
        assert lhs != rhs, variant


def test_splitting_is_an_algebra_map_on_the_last_square_diagonal():
    rng = seeded(67)
    for _ in range(10):
        x = _random_braided(rng, 3, n_terms=1)
        y = _random_braided(rng, 3, n_terms=1)
        lhs = _split_sum(4, braided_product(x, y, "mirror"), 2)
        rhs = _blockwise_product(4, 2, _split_sum(4, x, 2), _split_sum(4, y, 2), "mirror")
        assert lhs == rhs


def _cotensor_sides(split):
    """Both sides of the cutting theorem on {(left legs, right legs): coeff}.

    The left side expands the left piece's diagonal leg by the coproduct; the
    right side expands the right piece by its leg-wise coaction, the second
    halves multiplied in leg order.  The image lies in the cotensor product
    (the Hochschild H^0) exactly when the two agree.
    """
    lhs, rhs = {}, {}
    for (left, block), c in split.items():
        head, tail = left[:-1], left[-1]
        for (t1, t2), d in coproduct_word(tail):
            add_to(lhs, (head, block, t1, t2), c * d)
        for halves in itertools.product(*(coproduct_word(w) for w in block)):
            second, coeff = OqElement.unit(), c
            for (_, w2), d in halves:
                second, coeff = second * oq(w2), coeff * d
            firsts = tuple(w1 for (w1, _), _ in halves)
            for w, e in second.terms.items():
                add_to(rhs, (head, firsts, w, tail), coeff * e)
    return lhs, rhs


def _cotensor_failures(split):
    rng = seeded(72)
    failures = []
    for arity in (2, 3, 4):
        for _ in range(4):
            x = _random_braided(rng, arity, max_total=4)
            for cut in range(1, arity):
                lhs, rhs = _cotensor_sides(split(arity + 1, x, cut))
                if lhs != rhs:
                    failures.append((x, cut))
    return failures


def test_split_lies_in_the_cotensor_product():
    assert _cotensor_failures(_split_sum) == []


def test_cotensor_check_catches_a_reversed_tail_product(monkeypatch):
    def reversed_tails(words):
        acc = {((), ""): ONE}
        for w in words:
            nxt = {}
            for (block, tail), c in acc.items():
                for (w1, w2), d in coproduct_word(w):
                    for merged, e in normal_word(w2 + tail):
                        add_to(nxt, (block + (w1,), merged), c * d * e)
            acc = nxt
        return tuple(acc.items())

    monkeypatch.setattr("bigon.braided._block_coproduct", reversed_tails)
    assert _cotensor_failures(_split_sum)


def test_cotensor_check_catches_the_single_leg_split():
    assert _cotensor_failures(_single_leg_split)
