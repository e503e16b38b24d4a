import functools
import itertools
import time

import pytest

from bigon import hopf, tangle
from bigon.hopf import (
    GENERATORS,
    OqElement,
    OqTensor,
    antipode,
    bar_involution,
    canonical_monomials,
    co_r,
    co_r_mirror,
    coproduct,
    coproduct_word,
    counit,
    counit_word,
    element_to_string,
    from_canonical,
    hopf_pairing,
    is_positive,
    mono_parts,
    multiply,
    normal_word,
    reduce_bigon,
    rho_word,
    rotation,
    to_canonical,
    u_action,
    word_weight,
)
from bigon.ring import HalfLaurent, ONE, RatFunc, ZERO, add_to, expand, format_sum, half, q_factorial, q_power, sweep

from support import basis_words, oq, random_element, random_word, seeded, word_triples


def gens():
    return [OqElement.from_word(g) for g in GENERATORS]


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------


def test_defining_relations():
    a, b, c, d = gens()
    assert c * a == oq("ac", 1).scale(q_power(2))
    assert b * a == q_power(2) * oq("ab")
    assert d * b == q_power(2) * oq("bd")
    assert d * c == q_power(2) * oq("cd")
    assert b * c == q_power(2) * oq("ad") - OqElement.unit(q_power(2))
    assert b * c == c * b
    assert d * a == q_power(4) * oq("ad") + OqElement.unit(ONE - q_power(4))


# The recursive rewriting and the 2^n-expansion coproduct that the
# straightening fold replaced, kept verbatim as oracles on small words.

_Q2 = q_power(2)

# Local rewriting rules on adjacent letter pairs.  Each right-hand side is a
# list of (coefficient, replacement word); the left-hand pair is deleted.
_REWRITES = {
    "ca": ((_Q2, "ac"),),
    "ba": ((_Q2, "ab"),),
    "db": ((_Q2, "bd"),),
    "dc": ((_Q2, "cd"),),
    "da": ((q_power(4), "ad"), (ONE - q_power(4), "")),
    "bc": ((_Q2, "ad"), (-_Q2, "")),
    "cb": ((_Q2, "ad"), (-_Q2, "")),
}


@functools.lru_cache(maxsize=None)
def _rewritten_word(word):
    """Normal form of a free word, as a tuple of (basis word, coefficient).

    Rewriting is leftmost-innermost; it terminates because every rule either
    shortens the word or decreases it lexicographically at equal length.
    """
    for i in range(len(word) - 1):
        rule = _REWRITES.get(word[i : i + 2])
        if rule is None:
            continue
        acc = {}
        for coeff, repl in rule:
            for mono, c in _rewritten_word(word[:i] + repl + word[i + 2 :]):
                add_to(acc, mono, coeff * c)
        return tuple(sorted(acc.items()))
    return ((word, ONE),)


# Delta of each generator, written out here so that the oracle does not read
# the table under test
_DELTA_ROWS = {
    "a": (("a", "a"), ("b", "c")),
    "b": (("a", "b"), ("b", "d")),
    "c": (("c", "a"), ("d", "c")),
    "d": (("c", "b"), ("d", "d")),
}


def _expanded_coproduct_word(word):
    """Coproduct of a basis word as a tuple of ((w1, w2), coefficient)."""
    pairs = {("", ""): ONE}
    for ch in word:
        nxt = {}
        for (w1, w2), c in pairs.items():
            for u, v in _DELTA_ROWS[ch]:
                add_to(nxt, (w1 + u, w2 + v), c)
        pairs = nxt
    acc = {}
    for (w1, w2), c in pairs.items():
        for m1, c1 in _rewritten_word(w1):
            for m2, c2 in _rewritten_word(w2):
                add_to(acc, (m1, m2), c * c1 * c2)
    return tuple(sorted(acc.items()))


def _free_words(max_len):
    for n in range(max_len + 1):
        yield from map("".join, itertools.product(GENERATORS, repeat=n))


def test_straightening_step_matches_the_rewriting():
    for w in basis_words(6):
        for g in GENERATORS:
            assert tuple(sorted(_step(w, g))) == _rewritten_word(w + g), (w, g)
            assert tuple(sorted(hopf._word_product(w, g))) == _rewritten_word(w + g), (w, g)


def test_normal_forms_match_the_rewriting():
    for w in _free_words(6):
        assert normal_word(w) == _rewritten_word(w), w


def test_coproducts_match_the_expansion():
    for w in _free_words(6):
        assert coproduct_word(w) == _expanded_coproduct_word(w), w


@pytest.mark.parametrize("letter", GENERATORS)
def test_expansion_catches_swapped_cut_states(letter, monkeypatch):
    # Delta(letter) with the first legs of its two cut-state terms swapped
    (u1, v1), (u2, v2) = hopf._DELTA[letter]
    mutant = dict(hopf._DELTA, **{letter: ((u2, v1), (u1, v2))})
    try:
        with monkeypatch.context() as m:
            m.setattr(hopf, "_DELTA", mutant)
            coproduct_word.cache_clear()
            assert any(coproduct_word(w) != _expanded_coproduct_word(w) for w in _free_words(2))
    finally:
        coproduct_word.cache_clear()


# The one-letter straightening step that the closed-form chunk product
# replaced, kept as its oracle.  With w = a^h x^k d^l (x = b or c,
# or k = 0) read by mono_parts, the relations give, for g = b or c,
#     w*d = a^h x^k d^(l+1)
#     w*a = q^(4l+2k) a^(h+1) x^k d^l + (1 - q^(4l)) a^h x^k d^(l-1)
#     w*g = q^(2l) a^h g^(k+1) d^l                          (k = 0 or x = g)
#     w*g = q^(2l+2k) a^(h+1) x^(k-1) d^(l+1) - q^(2l+2) a^h x^(k-1) d^l   (x != g)
# since d^l a = q^(4l) a d^l + (1 - q^(4l)) d^(l-1), x^k a = q^(2k) a x^k,
# d^l g = q^(2l) g d^l and bc = cb = q^2 ad - q^2.
def _step(word, g):
    """A basis word times one generator, as a tuple of (basis word, coefficient)."""
    if g == "d":
        return ((word + "d", ONE),)
    h, x, k, l = mono_parts(word)
    head, mid = "a" * h, x * k
    if g == "a":
        first = ("a" + head + mid + "d" * l, q_power(4 * l + 2 * k))
        if not l:
            return (first,)
        return (first, (head + mid + "d" * (l - 1), ONE - q_power(4 * l)))
    if not k or x == g:
        return ((head + g + mid + "d" * l, q_power(2 * l)),)
    mid = mid[1:]
    return (
        ("a" + head + mid + "d" * (l + 1), q_power(2 * l + 2 * k)),
        (head + mid + "d" * l, -q_power(2 * l + 2)),
    )


# The letter-by-letter fold: the basis prefix as it is, then one `_step` per letter.
def _letter_fold(word):
    n = hopf._BASIS_CHUNK.match(word).end()
    return tuple(sorted(sweep({word[:n]: ONE}, word[n:], _step).items()))


def _pbw_words(max_power):
    """Basis words a^h x^k d^l with h, k, l <= max_power, for both middle letters."""
    powers = range(max_power + 1)
    return sorted({"a" * h + x * k + "d" * l for h, k, l in itertools.product(powers, repeat=3) for x in "bc"})


def test_word_products_match_the_letter_fold():
    for w1, w2 in itertools.product(_pbw_words(3), repeat=2):
        assert tuple(sorted(hopf._word_product(w1, w2))) == _letter_fold(w1 + w2), (w1, w2)


def test_deep_rules_match_the_letter_fold():
    words = ["d" * l + "a" * m for l in range(17) for m in range(17)]
    words += [x * i + y * j for i in range(11) for j in range(11) for x, y in ("bc", "cb")]
    # both rules in one chunk product: x^k1 d^l1 times a^h2 y^k2 with x != y
    words += ["b" * 6 + "d" * 6 + "a" * 6 + "c" * 6, "b" * 8 + "d" * 4 + "a" * 4 + "c" * 8]
    words += ["c" * 5 + "d" * 7 + "a" * 3 + "b" * 9]
    for w in words:
        assert normal_word(w) == _letter_fold(w), w


def test_straightening_step_is_the_closed_form_on_one_letter():
    for w in basis_words(6):
        for g in GENERATORS:
            assert tuple(sorted(hopf._word_product(w, g))) == tuple(sorted(_step(w, g))), (w, g)


def _bump_term(rule, index):
    """A closed-form rule with one extra q^2 on its j = index (or r = index) term."""

    def mutant(*powers):
        out = rule(*powers)
        return out[:index] + [c * _Q2 for c in out[index : index + 1]] + out[index + 1 :]

    return mutant


@pytest.mark.parametrize(
    "target, index",
    [("_d_times_a", 0), ("_d_times_a", 1), ("_b_times_c", 0), ("_b_times_c", 1)],
    ids=["d*a-j0", "d*a", "b*c-r0", "b*c"],
)
def test_oracles_catch_a_one_exponent_mutant(target, index, monkeypatch):
    # one extra q^2 in one term of a rule: both comparisons must fail, since
    # the coproduct multiplies its legs through the same normal form
    mutant = _bump_term(getattr(hopf, target), index)
    try:
        with monkeypatch.context() as m:
            m.setattr(hopf, target, mutant)
            normal_word.cache_clear()
            coproduct_word.cache_clear()
            assert any(normal_word(w) != _rewritten_word(w) for w in _free_words(3))
            assert any(coproduct_word(w) != _expanded_coproduct_word(w) for w in _free_words(3))
    finally:
        normal_word.cache_clear()
        coproduct_word.cache_clear()


@pytest.mark.parametrize("word, letter", [("xa", "x"), ("ax", "x"), ("abe", "e"), ("A", "A")])
def test_word_folds_reject_letters_outside_abcd(word, letter):
    for fold in (normal_word, coproduct_word):
        with pytest.raises(ValueError, match="unknown generator '%s'" % letter):
            fold(word)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: OqElement.unit("x"), TypeError, "ground-ring scalar"),
        (lambda: rho_word("a", "d", "other"), ValueError, "unknown form"),
    ],
    ids=["unit-of-a-string", "unknown-form"],
)
def test_bad_scalars_and_form_kinds_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("word", ["ba", "da", "bc", "ax", "dab"])
def test_elements_reject_keys_outside_the_basis(word):
    # a free word is normal-formed by from_word; as a raw key it would print
    # unstraightened and compare unequal to its own normal form
    with pytest.raises(ValueError, match="'%s' is not a normal-form basis word" % word):
        OqElement({word: ONE})
    for w in basis_words(3):
        assert OqElement({w: ONE}).terms == {w: ONE}


def test_deep_product_normal_form():
    z = OqElement.from_word("d" * 32 + "a" * 32)
    assert normal_word("d" * 32 + "a" * 32) == _letter_fold("d" * 32 + "a" * 32)
    assert len(z.terms) == 33
    x, y = oq("d" * 32), oq("a" * 32)
    assert z == x * y
    assert counit(z) == counit(x) * counit(y)
    assert reduce_bigon(z) == _x_mul(reduce_bigon(x), reduce_bigon(y))


def _cold_coefficient_products(monkeypatch, word):
    """The `HalfLaurent.__mul__` calls that `normal_word(word)` makes with its memo cleared."""
    calls = []
    inner = HalfLaurent.__mul__
    with monkeypatch.context() as m:
        m.setattr(HalfLaurent, "__mul__", lambda self, other: calls.append(other) or inner(self, other))
        normal_word.cache_clear()
        try:
            normal_word(word)
        finally:
            normal_word.cache_clear()
    return len(calls)


def test_cold_normal_word_of_d_n_a_n_makes_two_products_per_term(monkeypatch):
    # a growth pin by counted work, no timer: the closed-form chunk product makes
    # one coefficient product per term of d^n a^n and the fold one more, 2(n + 1)
    assert [_cold_coefficient_products(monkeypatch, "d" * n + "a" * n) for n in (20, 40)] == [42, 82]


def test_a_letter_fold_fails_the_growth_pin(monkeypatch):
    # the one-letter straightening step in place of the chunk product: (n + 1)^2 products
    monkeypatch.setattr(hopf, "_word_product", lambda w1, w2: sweep({w1: ONE}, w2, _step).items())
    assert [_cold_coefficient_products(monkeypatch, "d" * n + "a" * n) for n in (20, 40)] == [441, 1681]


def test_normal_words_are_fixed():
    for w in basis_words(4):
        assert normal_word(w) == ((w, ONE),)


def test_mono_parts():
    assert mono_parts("aabdd") == (2, "b", 1, 2)
    assert mono_parts("") == (0, "", 0, 0)
    assert mono_parts("ccc") == (0, "c", 3, 0)
    assert mono_parts("ad") == (1, "", 0, 1)


def test_associativity_exhaustive_low_degree():
    for w1, w2, w3 in word_triples(3):
        x, y, z = oq(w1), oq(w2), oq(w3)
        assert (x * y) * z == x * (y * z), (w1, w2, w3)


def test_associativity_random():
    rng = seeded(7)
    for _ in range(60):
        x = random_element(rng, 2)
        y = random_element(rng, 2)
        z = random_element(rng, 2)
        assert (x * y) * z == x * (y * z)


def test_bigrading_additive_under_multiply():
    for w1 in basis_words(2):
        for w2 in basis_words(2):
            prod = oq(w1) * oq(w2)
            if prod:
                r1, s1 = word_weight(w1)
                r2, s2 = word_weight(w2)
                assert prod.weight() == (r1 + r2, s1 + s2)


def test_the_zero_element_has_weight_zero_and_a_unit_holds_its_scalar():
    assert OqElement().weight() == (0, 0)
    assert OqElement.unit(3).terms == {"": HalfLaurent({0: 3})}


# ---------------------------------------------------------------------------
# coalgebra
# ---------------------------------------------------------------------------


def test_coproduct_generators():
    a = OqElement.from_word("a")
    assert coproduct(a) == OqTensor({("a", "a"): ONE, ("b", "c"): ONE})
    assert coproduct(OqElement.unit()) == OqTensor({("", ""): ONE})
    b = OqElement.from_word("b")
    sq = coproduct(b * b)
    direct = OqTensor({("a", "b"): ONE, ("b", "d"): ONE})
    assert sq == direct * direct


def test_tensor_products_take_only_tensors_and_scalars():
    # an element is not a tensor: its word must not be read as two legs
    t = OqTensor({("a", "d"): ONE})
    for word in ("ad", "bd", "a", "abd"):
        x = OqElement.from_word(word)
        with pytest.raises(TypeError):
            t * x
        with pytest.raises(TypeError):
            x * t
    assert t * 2 == 2 * t == t.scale(2)
    assert t * half(1) == half(1) * t == t.scale(half(1))


def test_coproduct_is_algebra_map():
    rng = seeded(11)
    for _ in range(25):
        x = random_element(rng, 2)
        y = random_element(rng, 2)
        assert coproduct(x * y) == coproduct(x) * coproduct(y)


def test_coassociativity_and_counit_laws():
    for w in basis_words(2):
        left = {}
        right = {}
        for (w1, w2), c in coproduct_word(w):
            for (u1, u2), c1 in coproduct_word(w1):
                key = (u1, u2, w2)
                left[key] = left.get(key, ZERO) + c * c1
            for (u1, u2), c2 in coproduct_word(w2):
                key = (w1, u1, u2)
                right[key] = right.get(key, ZERO) + c * c2
        assert {k: v for k, v in left.items() if v} == {k: v for k, v in right.items() if v}

        # (ε⊗id)Δ = id = (id⊗ε)Δ
        lhs = OqElement()
        rhs = OqElement()
        for (w1, w2), c in coproduct_word(w):
            lhs = lhs + oq(w2, counit_word(w1) * c)
            rhs = rhs + oq(w1, counit_word(w2) * c)
        assert lhs == oq(w)
        assert rhs == oq(w)


def test_counit_values():
    a, b, c, d = gens()
    assert counit(a) == ONE
    assert counit(c) == ZERO
    assert counit(a * d) == ONE
    assert counit(b * c) == ZERO
    rng = seeded(3)
    for _ in range(20):
        x, y = random_element(rng, 3), random_element(rng, 3)
        assert counit(x * y) == counit(x) * counit(y)


# ---------------------------------------------------------------------------
# antipode, reflection, rotation
# ---------------------------------------------------------------------------


def test_antipode_values():
    a, b, c, d = gens()
    assert antipode(a) == d
    assert antipode(d) == a
    assert antipode(b) == -q_power(2) * b
    assert antipode(c) == -q_power(-2) * c
    assert antipode(c * a) == -oq("cd")


def test_antipode_axiom():
    for w in basis_words(2):
        left = OqElement()
        right = OqElement()
        for (w1, w2), c in coproduct_word(w):
            left = left + (antipode(oq(w1)) * oq(w2)).scale(c)
            right = right + (oq(w1) * antipode(oq(w2))).scale(c)
        expected = OqElement.unit(counit_word(w))
        assert left == expected, w
        assert right == expected, w


def test_antipode_is_antimorphism():
    rng = seeded(5)
    for _ in range(20):
        x, y = random_element(rng, 2), random_element(rng, 2)
        assert antipode(x * y) == antipode(y) * antipode(x)


_SWAP_AD = str.maketrans("ad", "da")


def _normal_form_antipode(x):
    """The anti-automorphism a -> d, d -> a, b -> -q^2 b, c -> -q^-2 c."""
    images = {}
    for w, c in x.terms.items():
        nb, nc = w.count("b"), w.count("c")
        images[w[::-1].translate(_SWAP_AD)] = c * half(4 * (nb - nc), (-1) ** (nb + nc))
    return OqElement(expand(images, normal_word))


_GENERATOR_ANTIPODES = {"a": oq("d"), "b": oq("b", q_power(2, -1)), "c": oq("c", q_power(-2, -1)), "d": oq("a")}


def _letter_antipode(word):
    """S(g1 ... gn) = S(gn) ... S(g1), each product through the normal form."""
    out = OqElement.unit()
    for g in reversed(word):
        out = out * _GENERATOR_ANTIPODES[g]
    return out


def _antipode_word_mismatches():
    """The basis words of length <= 10 whose `antipode_word` is not one basis word
    with a coefficient ±q^(2m), or differs from the normal-form route."""
    bad = []
    for w in basis_words(10):
        s, e = hopf.antipode_word(w)
        ((exp, lead),) = e.items()
        image = OqElement({s: e})
        if normal_word(s) != ((s, ONE),) or exp % 4 or lead not in (1, -1):
            bad.append(w)
        elif image != _normal_form_antipode(oq(w)) or antipode(oq(w)) != image:
            bad.append(w)
    return bad


def test_antipode_of_a_basis_word_is_one_basis_word():
    assert _antipode_word_mismatches() == []


def test_normal_form_antipode_is_the_letter_antipode():
    # the oracle itself, against S applied letter by letter as an anti-automorphism
    for w in basis_words(6):
        assert _normal_form_antipode(oq(w)) == _letter_antipode(w), w


_ANTIPODE_WORD = hopf.antipode_word


def _drop_the_sign(w):
    s, e = _ANTIPODE_WORD(w)
    return s, -e if (w.count("b") + w.count("c")) % 2 else e


def _flip_the_q_power(w):
    s, e = _ANTIPODE_WORD(w)
    ((exp, lead),) = e.items()
    return s, half(-exp, lead)


@pytest.mark.parametrize("mutant", [_drop_the_sign, _flip_the_q_power], ids=["no-sign", "flipped-q"])
def test_antipode_oracle_catches_mutants(mutant, monkeypatch):
    monkeypatch.setattr(hopf, "antipode_word", mutant)
    assert _antipode_word_mismatches()


def test_bar_involution():
    a, b, c, d = gens()
    assert bar_involution(a) == a
    assert bar_involution(q_power(1) * a) == q_power(-1) * a
    assert bar_involution(c * a) == a * c
    rng = seeded(13)
    for _ in range(20):
        x, y = random_element(rng, 2), random_element(rng, 2)
        assert bar_involution(x * y) == bar_involution(y) * bar_involution(x)
        assert bar_involution(bar_involution(x)) == x


def test_bar_and_rotation_respect_weights():
    for w in basis_words(3):
        r, s = word_weight(w)
        assert bar_involution(oq(w)).weight() == (r, s)
        assert rotation(oq(w)).weight() == (s, r)


def test_rotation():
    a, b, c, d = gens()
    assert rotation(b) == c
    assert rotation(a) == a
    assert rotation(a * b) == a * c
    rng = seeded(17)
    for _ in range(20):
        x, y = random_element(rng, 2), random_element(rng, 2)
        assert rotation(x * y) == rotation(x) * rotation(y)
        assert rotation(rotation(x)) == x


def test_reduce_bigon_values():
    a, b, c, d = gens()
    assert reduce_bigon(a * d) == {0: ONE}
    assert reduce_bigon(b) == {}
    assert reduce_bigon(a * a) == {2: ONE}
    assert reduce_bigon(d) == {-1: ONE}


def _x_mul(p1, p2):
    out = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            s = out.get(e1 + e2, ZERO) + c1 * c2
            if s:
                out[e1 + e2] = s
            elif e1 + e2 in out:
                del out[e1 + e2]
    return out


def test_reduce_bigon_is_algebra_map():
    words = [w for w in basis_words(3)]
    for w1 in words:
        for w2 in words:
            if len(w1) + len(w2) > 3:
                continue
            lhs = reduce_bigon(oq(w1) * oq(w2))
            rhs = _x_mul(reduce_bigon(oq(w1)), reduce_bigon(oq(w2)))
            assert lhs == rhs, (w1, w2)


# ---------------------------------------------------------------------------
# braiding forms
# ---------------------------------------------------------------------------

# The hard-coded standard table, the candidate-selected inverse table and the
# reversed recursion that reading the forms off one crossing replaced, kept
# verbatim as the oracle of the forms.

# Values of the standard form on generator pairs.
_RHO_TABLE = {
    ("a", "a"): q_power(1),
    ("d", "d"): q_power(1),
    ("a", "d"): q_power(-1),
    ("d", "a"): q_power(-1),
    ("b", "c"): q_power(1) - q_power(-3),
}

_derived_tables = {}


def _inverse_table():
    """Generator table of the inverse form, computed from the tangle layer.

    The negative crossing admits two boundary-state arrangements (one per
    mirror choice).  Both candidate tables are built by evaluating the
    crossing as a two-strand operator, and the convolution-inverse identity
    against the standard form selects the right one.
    """
    if "bar" in _derived_tables:
        return _derived_tables["bar"]

    states = {"a": ("+", "+"), "b": ("+", "-"), "c": ("-", "+"), "d": ("-", "-")}
    candidates = []
    for mirrored in (True, False):
        table = {}
        for g1, (n1, m1) in states.items():
            for g2, (n2, m2) in states.items():
                if mirrored:
                    left, right = (n2, n1), (m1, m2)
                else:
                    left, right = (n1, n2), (m2, m1)
                t = tangle.SlicedTangle(
                    [tangle.Slice("x-", 0, 2)], left_states=left, right_states=right
                )
                val = tangle.rt_evaluate(t)
                if val:
                    table[(g1, g2)] = val
        candidates.append(table)

    good = [t for t in candidates if _is_convolution_inverse(t)]
    if len(good) != 1:
        raise AssertionError(
            "inverse-form derivation must single out one arrangement, got %d" % len(good)
        )
    _derived_tables["bar"] = good[0]
    return good[0]


def _is_convolution_inverse(table):
    for g1 in GENERATORS:
        for g2 in GENERATORS:
            total = ZERO
            for u1, v1 in hopf._DELTA[g1]:
                for u2, v2 in hopf._DELTA[g2]:
                    lhs = _RHO_TABLE.get((u1, u2))
                    rhs = table.get((v1, v2))
                    if lhs and rhs:
                        total = total + lhs * rhs
            expected = counit_word(g1) * counit_word(g2)
            if total != expected:
                return False
    return True


def _mirror_table():
    if "mirror" not in _derived_tables:
        bar = _inverse_table()
        _derived_tables["mirror"] = {(g2, g1): v for (g1, g2), v in bar.items()}
    return _derived_tables["mirror"]


def _generator_table(kind):
    if kind == "rho":
        return _RHO_TABLE
    if kind == "bar":
        return _inverse_table()
    if kind == "mirror":
        return _mirror_table()
    raise ValueError("unknown form %r" % kind)


_rho_cache = {}


def _table_rho_word(w1, w2, kind="rho"):
    """The chosen bilinear form on a pair of basis words.

    The standard and mirror forms extend by splitting the left slot against
    the coproduct of the right slot (and the first letter of a two-sided
    split pairs with the *later* factor); the inverse form uses the same
    splittings with the two sub-evaluations swapped.
    """
    key = (kind, w1, w2)
    cached = _rho_cache.get(key)
    if cached is not None:
        return cached
    reverse = kind == "bar"
    if not w1 or not w2:
        val = counit_word(w1) * counit_word(w2)
    elif len(w1) == 1 and len(w2) == 1:
        val = _generator_table(kind).get((w1, w2)) or ZERO
    elif len(w1) > 1:
        g, rest = w1[0], w1[1:]
        total = ZERO
        for (z1, z2), c in coproduct_word(w2):
            if reverse:
                term = _table_rho_word(rest, z1, kind) * _table_rho_word(g, z2, kind)
            else:
                term = _table_rho_word(g, z1, kind) * _table_rho_word(rest, z2, kind)
            total = total + c * term
        val = total
    else:
        g = w1
        y, rest = w2[0], w2[1:]
        total = ZERO
        for u, v in hopf._DELTA[g]:
            if reverse:
                term = _table_rho_word(v, rest, kind) * _table_rho_word(u, y, kind)
            else:
                term = _table_rho_word(u, rest, kind) * _table_rho_word(v, y, kind)
            total = total + term
        val = total
    _rho_cache[key] = val
    return val


_FORMS = ("rho", "bar", "mirror")


def _form_corpus():
    """Every pair of free words of length <= 3, then seeded pairs up to length 8."""
    rng = seeded(43)
    pairs = list(itertools.product(_free_words(3), repeat=2))
    return pairs + [(random_word(rng, 8), random_word(rng, 8)) for _ in range(100)]


def _form_mismatches(pairs):
    return [
        (w1, w2, kind)
        for w1, w2 in pairs
        for kind in _FORMS
        if hopf.rho_word(w1, w2, kind) != _table_rho_word(w1, w2, kind)
    ]


def test_forms_match_the_table_recursion():
    assert _form_mismatches(_form_corpus()) == []


# The crossing reading of the forms and the coproduct recursion that the
# closed form replaced, kept verbatim as the second oracle of the forms.

# Each form on two generators is the operator invariant of one stated
# crossing.  The first letter T_ij runs from the bottom left (state i) to the
# top right (state j), the second T_kl from the top left (state k) to the
# bottom right (state l).  The standard form reads the positive crossing, the
# mirror form the negative one, and the inverse form is the mirror form with
# its two arguments swapped.
_CROSSING = {"rho": "x+", "mirror": "x-"}

# the stated arc T_ij as a generator, keyed by its letter: (state i, state j)
LETTER_STATES = {"a": ("+", "+"), "b": ("+", "-"), "c": ("-", "+"), "d": ("-", "-")}


@functools.lru_cache(maxsize=None)
def _crossing_value(kind, g1, g2):
    """The form `kind` on two generators, read off one crossing."""
    (i, j), (k, l) = LETTER_STATES[g1], LETTER_STATES[g2]
    crossing = tangle.SlicedTangle([tangle.Slice(_CROSSING[kind], 0, 2)], (i, k), (l, j))
    return tangle.rt_evaluate(crossing)


@functools.lru_cache(maxsize=None)
def _crossing_rho_word(w1, w2, kind="rho"):
    """The chosen bilinear form on a pair of basis words.

    The standard and mirror forms extend by splitting the left slot against
    the coproduct of the right slot (and the first letter of a two-sided
    split pairs with the *later* factor); the inverse form is the mirror form
    with its arguments swapped.
    """
    if kind == "bar":
        return _crossing_rho_word(w2, w1, "mirror")
    if kind not in _CROSSING:
        raise ValueError("unknown form %r" % kind)
    if not w1 or not w2:
        return counit_word(w1) * counit_word(w2)
    total = ZERO
    if len(w1) > 1:
        g, rest = w1[0], w1[1:]
        for (z1, z2), c in coproduct_word(w2):
            total = total + c * _crossing_rho_word(g, z1, kind) * _crossing_rho_word(rest, z2, kind)
    elif len(w2) == 1:
        total = _crossing_value(kind, w1, w2)
    else:
        y, rest = w2[0], w2[1:]
        for u, v in hopf._DELTA[w1]:
            total = total + _crossing_rho_word(u, rest, kind) * _crossing_rho_word(v, y, kind)
    return total


def test_closed_form_matches_the_crossing_recursion():
    # every basis word a^h x^k d^l with h, k, l <= 2
    words = [w for w in basis_words(6) if all(w.count(g) <= 2 for g in GENERATORS)]
    assert len(words) == 45
    mismatches = [
        (w1, w2, kind)
        for w1 in words
        for w2 in words
        for kind in _FORMS
        if rho_word(w1, w2, kind) != _crossing_rho_word(w1, w2, kind)
    ]
    assert mismatches == []


def test_generator_forms_are_one_stated_crossing():
    for g1 in GENERATORS:
        for g2 in GENERATORS:
            assert rho_word(g1, g2, "rho") == _crossing_value("rho", g1, g2), (g1, g2)
            assert rho_word(g1, g2, "mirror") == _crossing_value("mirror", g1, g2), (g1, g2)
            assert rho_word(g1, g2, "bar") == _crossing_value("mirror", g2, g1), (g1, g2)


def _swap_middle_letters(m):
    m.setattr(hopf, "_FORM_SHAPE", {"rho": ("cb", 1), "mirror": ("bc", -1)})


def _flip_the_weight_term(m):
    exponent = hopf._form_exponent
    m.setattr(
        hopf,
        "_form_exponent",
        lambda h1, l1, h2, l2, k, s: exponent(h1, l1, h2, l2, k, s) - 2 * s * (h1 - l1) * (h2 - l2),
    )


def _drop_the_k_squared_term(m):
    exponent = hopf._form_exponent
    m.setattr(hopf, "_form_exponent", lambda h1, l1, h2, l2, k, s: exponent(h1, l1, h2, l2, k, s) - s * k * k)


def _keep_bar_arguments(m):
    rho_word = hopf.rho_word
    m.setattr(hopf, "rho_word", lambda w1, w2, kind: rho_word(w1, w2, "mirror" if kind == "bar" else kind))


@pytest.mark.parametrize(
    "mutate", [_swap_middle_letters, _flip_the_weight_term, _drop_the_k_squared_term, _keep_bar_arguments]
)
def test_form_oracle_catches_mutants(mutate, monkeypatch):
    try:
        with monkeypatch.context() as m:
            hopf.rho_word.cache_clear()
            mutate(m)
            assert _form_mismatches(itertools.product(_free_words(2), repeat=2))
    finally:
        hopf.rho_word.cache_clear()


def test_rho_generator_table():
    for g1 in GENERATORS:
        for g2 in GENERATORS:
            expected = _RHO_TABLE.get((g1, g2), ZERO)
            assert co_r(oq(g1), oq(g2)) == expected, (g1, g2)


def test_rho_worked_examples():
    assert co_r(oq("b"), oq("c")) == q_power(1) - q_power(-3)
    assert co_r(oq("a"), oq("b")) == ZERO
    assert co_r(oq("a") * oq("a"), oq("a") * oq("a")) == q_power(4)
    assert co_r(OqElement.unit(), oq("ad")) == ONE
    assert co_r(oq("a" * 10 + "d" * 10), oq("a" * 10 + "d" * 10)) == ONE


def test_rho_word_is_memoised_per_word_pair():
    w = "d" * 12 + "a" * 12
    first = rho_word(w, w)
    hits = rho_word.cache_info().hits
    assert rho_word(w, w) is first
    assert rho_word.cache_info().hits == hits + 1


def test_rho_bilinear():
    rng = seeded(23)
    for _ in range(10):
        x, y, z = (random_element(rng, 2) for _ in range(3))
        assert co_r(x + y, z) == co_r(x, z) + co_r(y, z)
        assert co_r(x, y + z) == co_r(x, y) + co_r(x, z)


def test_inverse_table_values():
    # the derived inverse table, cross-checked against the antipode route
    expected = {
        ("a", "a"): q_power(-1),
        ("d", "d"): q_power(-1),
        ("a", "d"): q_power(1),
        ("d", "a"): q_power(1),
        ("b", "c"): q_power(-1) - q_power(3),
    }
    for g1 in GENERATORS:
        for g2 in GENERATORS:
            got = co_r(oq(g1), oq(g2), inverse=True)
            assert got == expected.get((g1, g2), ZERO), (g1, g2)
            assert got == co_r(antipode(oq(g1)), oq(g2)), (g1, g2)


def test_convolution_inverse_axiom():
    corpus = [(g1, g2) for g1 in GENERATORS for g2 in GENERATORS]
    rng = seeded(29)
    words = basis_words(2)
    corpus += [(rng.choice(words), rng.choice(words)) for _ in range(50)]
    for w1, w2 in corpus:
        total = ZERO
        for (x1, x2), cx in coproduct_word(w1):
            for (y1, y2), cy in coproduct_word(w2):
                total = total + cx * cy * rho_word(x1, y1) * rho_word(x2, y2, "bar")
        assert total == counit_word(w1) * counit_word(w2), (w1, w2)


def test_flip_law():
    corpus = [(g1, g2) for g1 in GENERATORS for g2 in GENERATORS]
    rng = seeded(31)
    words = [w for w in basis_words(2) if len(w) == 2]
    corpus += [(rng.choice(words), rng.choice(words)) for _ in range(50)]
    for w1, w2 in corpus:
        lhs = OqElement()
        rhs = OqElement()
        for (x1, x2), cx in coproduct_word(w1):
            for (y1, y2), cy in coproduct_word(w2):
                c = cx * cy
                lhs = lhs + (oq(y1) * oq(x1)).scale(c * rho_word(x2, y2))
                rhs = rhs + (oq(x2) * oq(y2)).scale(c * rho_word(x1, y1))
        assert lhs == rhs, (w1, w2)


def test_mirror_form():
    for g1 in GENERATORS:
        for g2 in GENERATORS:
            assert co_r_mirror(oq(g1), oq(g2)) == co_r(oq(g2), oq(g1), inverse=True)
    assert co_r_mirror(oq("c"), oq("b")) == q_power(-1) - q_power(3)
    assert co_r_mirror(oq("b"), oq("c")) == ZERO


# ---------------------------------------------------------------------------
# pairing and module structure
# ---------------------------------------------------------------------------


def test_pairing_generator_values():
    K = (("K", 1),)
    E = (("E", 1),)
    F = (("F", 1),)
    vals = {
        (K, "a"): q_power(2),
        (K, "d"): q_power(-2),
        (K, "b"): ZERO,
        (K, "c"): ZERO,
        (E, "b"): ONE,
        (E, "a"): ZERO,
        (E, "c"): ZERO,
        (E, "d"): ZERO,
        (F, "c"): ONE,
        (F, "a"): ZERO,
        (F, "b"): ZERO,
        (F, "d"): ZERO,
    }
    for (u, w), expected in vals.items():
        assert hopf_pairing(u, oq(w)) == expected, (u, w)


# The recursion that split a word against the letter's coproduct, kept as the
# oracle of the closed form.
_K_VALUES = {1: {"a": q_power(2), "d": q_power(-2)}, -1: {"a": q_power(-2), "d": q_power(2)}}


@functools.lru_cache(maxsize=None)
def _recursive_pair_letter_word(letter, sign, word):
    """Pairing of a single K/E/F generator with a basis word."""
    if letter == "K":
        val = ONE
        for ch in word:
            v = _K_VALUES[sign].get(ch)
            if v is None:
                return ZERO
            val = val * v
        return val
    if not word:
        return ZERO
    g, rest = word[0], word[1:]
    if letter == "E":
        # split against 1⊗E + E⊗K
        head = ONE if all(c in "ad" for c in g) else ZERO
        return head * _recursive_pair_letter_word("E", 1, rest) + (
            (ONE if g == "b" else ZERO) * _recursive_pair_letter_word("K", 1, rest)
        )
    if letter == "F":
        # split against K^{-1}⊗F + F⊗1
        kval = _K_VALUES[-1].get(g)
        out = ZERO
        if kval is not None:
            out = kval * _recursive_pair_letter_word("F", 1, rest)
        if g == "c":
            out = out + counit_word(rest)
        return out
    raise ValueError(letter)


# The letter route that `_pair_token` replaced, kept as its oracle: each
# divided power flattened into n letters, each letter paired in closed form,
# and the result divided by the [n]! denominators.
def _pair_letter_word(letter, sign, word):
    """Pairing of one generator K^sign, E or F with a basis word, in closed form:

        <K^s, a^h d^l> = q^(2s(h-l))    <E, a^h b d^l> = q^(-2l)    <F, a^h c d^l> = q^(-2h)

    and 0 on every other basis word.
    """
    h, x, k, l = mono_parts(word)
    if letter == "K":
        return ZERO if k else q_power(2 * sign * (h - l))
    if k != 1:
        return ZERO
    if letter == "E":
        return q_power(-2 * l) if x == "b" else ZERO
    return q_power(-2 * h) if x == "c" else ZERO


def _expand_uword(u):
    """Flatten divided powers: plain letter sequence and the [n]! denominator."""
    letters = []
    denom = ONE
    for letter, n in map(hopf._check_token, u):
        if letter == "K":
            letters.append(("K", n))
        else:
            letters.extend((letter, 1) for _ in range(n))
            denom = denom * q_factorial(n)
    return letters, denom


def test_letter_pairing_matches_the_recursion():
    for w in basis_words(6):
        for letter, sign in (("K", 1), ("K", -1), ("E", 1), ("F", 1)):
            expected = _recursive_pair_letter_word(letter, sign, w)
            assert _pair_letter_word(letter, sign, w) == expected, (letter, sign, w)


# The recursion that split the word once per coproduct branch, kept as the
# oracle of the left-to-right pass in hopf_pairing.
def _recursive_pair_letters_word(letters, word):
    if not letters:
        return counit_word(word)
    head, rest = letters[0], letters[1:]
    if not rest:
        return _pair_letter_word(head[0], head[1], word)
    total = ZERO
    for (z1, z2), c in coproduct_word(word):
        first = _pair_letter_word(head[0], head[1], z1)
        if first:
            total = total + c * first * _recursive_pair_letters_word(rest, z2)
    return total


def _recursive_pairing(u, x):
    """⟨u, x⟩ as a fraction over the [n]! of u's divided powers; it equals a
    Laurent polynomial by cross multiplication."""
    letters, denom = _expand_uword(u)
    total = sum((c * _recursive_pair_letters_word(letters, w) for w, c in x.terms.items()), ZERO)
    return RatFunc(total, denom)


def _recursive_action(u, x):
    """(N, denom) with u·x = N / denom, and u·x = Σ x' ⟨u, x''⟩ straight from its
    definition, one coproduct per word of x."""
    letters, denom = _expand_uword(u)
    terms = {}
    for w, c in x.terms.items():
        for (z1, z2), d in coproduct_word(w):
            add_to(terms, z1, c * d * _recursive_pair_letters_word(letters, z2))
    return OqElement(terms), denom


_ORACLE_UWORDS = [(("K", 1),), (("K", -1),), (("E", 1),), (("F", 1),), (("E", 2),), (("F", 2),)]
_MULTI_TOKEN_UWORDS = [
    (("E", 1), ("F", 1)),
    (("F", 1), ("K", -1), ("E", 1)),
    (("E", 2), ("K", 1), ("F", 2)),
    (("K", 1), ("E", 3), ("F", 1)),
]


def test_pairing_matches_the_recursion():
    for u in _ORACLE_UWORDS:
        for w in basis_words(6):
            assert hopf_pairing(u, oq(w)) == _recursive_pairing(u, oq(w)), (u, w)
    for u in _MULTI_TOKEN_UWORDS:
        for w in basis_words(4):
            assert hopf_pairing(u, oq(w)) == _recursive_pairing(u, oq(w)), (u, w)
    rng = seeded(38)
    u = (("E", 1), ("K", 1), ("F", 1))
    for _ in range(10):
        x = random_element(rng, 4, n_terms=3)
        assert hopf_pairing(u, x) == _recursive_pairing(u, x)


_TOKENS = [("K", 1), ("K", -1)] + [(letter, n) for letter in "EF" for n in range(1, 5)]


@functools.lru_cache(maxsize=None)
def _letter_route_values():
    """{(token, basis word): the letter route's pairing} on every basis word of length <= 6."""
    return {(token, w): _recursive_pairing((token,), oq(w)) for token in _TOKENS for w in basis_words(6)}


def _token_mismatches():
    """The (token, word) pairs on which `hopf_pairing` of one token leaves the letter route."""
    values = _letter_route_values()
    return [key for key, value in values.items() if hopf_pairing((key[0],), oq(key[1])) != value]


def test_token_pairing_matches_the_letter_route():
    for (token, w), value in _letter_route_values().items():
        assert hopf._pair_token(token, w) == value, (token, w)
    assert _token_mismatches() == []


def test_pairing_and_action_match_the_letter_route():
    words = basis_words(4)
    for u in _ORACLE_UWORDS + _MULTI_TOKEN_UWORDS:
        for w in words:
            action, denom = _recursive_action(u, oq(w))
            assert u_action(u, oq(w)).scale(denom) == action, (u, w)
    rng = seeded(39)
    for _ in range(12):
        u = tuple(rng.choice(_TOKENS) for _ in range(rng.randint(1, 3)))
        x = random_element(rng, 5, n_terms=3)
        assert hopf_pairing(u, x) == _recursive_pairing(u, x), (u, x)
        action, denom = _recursive_action(u, x)
        assert u_action(u, x).scale(denom) == action, (u, x)


_CLOSED_FORM = hopf._pair_token


def _e_drops_n(token, word):
    """q^(-2l) in place of q^(-2nl) for E^(n)."""
    value = _CLOSED_FORM(token, word)
    return value * q_power(2 * (token[1] - 1) * mono_parts(word)[3]) if token[0] == "E" else value


def _k_at_least_n(token, word):
    """k >= n in place of k = n: E^(n) or F^(n) also pairs with a^h x^k d^l for k > n."""
    h, x, k, l = mono_parts(word)
    if token[0] != "K" and k > token[1]:
        word = "a" * h + x * token[1] + "d" * l
    return _CLOSED_FORM(token, word)


def _f_reads_l(token, word):
    """F^(n) reads the d-power l in place of the a-power h."""
    if token[0] == "F":
        h, x, k, l = mono_parts(word)
        word = "a" * l + x * k + "d" * h
    return _CLOSED_FORM(token, word)


@pytest.mark.parametrize("mutant", [_e_drops_n, _k_at_least_n, _f_reads_l], ids=lambda f: f.__name__)
def test_letter_route_catches_closed_form_mutants(mutant, monkeypatch):
    monkeypatch.setattr(hopf, "_pair_token", mutant)
    assert _token_mismatches()


def test_pairing_and_action_sweep_once_per_token(monkeypatch):
    # one step per token: a divided power reads each word's coproduct once, not once per letter
    calls = []

    def counted(word):
        calls.append(word)
        return coproduct_word(word)

    monkeypatch.setattr(hopf, "coproduct_word", counted)
    x = random_element(seeded(40), 5, n_terms=4)
    for enter in (hopf_pairing, u_action):
        calls.clear()
        enter((("E", 4),), x)
        assert len(calls) == len(x.terms), enter
    calls.clear()
    start = time.perf_counter()
    assert hopf_pairing((("E", 10**6),), OqElement.from_word("abd")) == ZERO
    assert time.perf_counter() - start < 1.0
    assert calls == ["abd"]


def test_pairing_oracle_catches_peeling_the_second_leg(monkeypatch):
    def flipped(word):
        return tuple(((z2, z1), c) for (z1, z2), c in coproduct_word(word))

    monkeypatch.setattr(hopf, "coproduct_word", flipped)
    u = (("E", 1), ("F", 1))
    assert any(hopf_pairing(u, oq(w)) != _recursive_pairing(u, oq(w)) for w in basis_words(2))


def test_pairing_duality_law():
    # ⟨u, x·y⟩ = Σ ⟨u', x⟩⟨u'', y⟩ spot-checked through single-letter splits
    rng = seeded(37)
    for _ in range(15):
        x = random_element(rng, 2)
        y = random_element(rng, 2)
        # E: Δ(E) = 1⊗E + E⊗K
        lhs = hopf_pairing((("E", 1),), x * y)
        rhs = counit(x) * hopf_pairing((("E", 1),), y) + hopf_pairing(
            (("E", 1),), x
        ) * hopf_pairing((("K", 1),), y)
        assert lhs == rhs
        # F: Δ(F) = K⁻¹⊗F + F⊗1
        lhs = hopf_pairing((("F", 1),), x * y)
        rhs = hopf_pairing((("K", -1),), x) * hopf_pairing((("F", 1),), y) + hopf_pairing(
            (("F", 1),), x
        ) * counit(y)
        assert lhs == rhs


def test_divided_power_pairing():
    b = OqElement.from_word("b")
    assert hopf_pairing((("E", 2),), b * b) == ONE
    c = OqElement.from_word("c")
    assert hopf_pairing((("F", 2),), c * c) == ONE


def test_action_examples():
    a, b, c, d = gens()
    assert u_action((("K", 1),), a) == q_power(2) * a
    assert u_action((("E", 1),), b) == a
    assert u_action((("E", 1),), a) == OqElement()
    # lowering flips the rightmost + state: c = (-,+) goes to (-,-) = d
    assert u_action((("F", 1),), c) == d
    assert u_action((("F", 1),), a) == b


def test_k_acts_by_right_weight():
    for w in basis_words(3):
        _, s = word_weight(w)
        assert u_action((("K", 1),), oq(w)) == oq(w, q_power(2 * s))


def test_action_is_module_action():
    # (uv)·x == u·(v·x) by construction; check the defining U relations instead
    K = ("K", 1)
    Kinv = ("K", -1)
    E = ("E", 1)
    F = ("F", 1)
    for w in basis_words(3):
        x = oq(w)
        ke = u_action((K, E), x)
        ek = u_action((E, K), x)
        assert ke == q_power(4) * ek, w
        kf = u_action((K, F), x)
        fk = u_action((F, K), x)
        assert q_power(4) * kf == fk, w
        comm = u_action((E, F), x) - u_action((F, E), x)
        rhs = u_action((K,), x) - u_action((Kinv,), x)
        assert comm.scale(q_power(2) - q_power(-2)) == rhs, w


_BAD_TOKENS = [("G", 1), ("E", -1), ("E", 0), ("F", 0), ("K", 2), ("K", 0), ("E", True), ("F", 1.0)]
_BAD_TOKENS += [("E", "2"), "E", ("E",), ("E", 1, 2), ["E", 1]]


@pytest.mark.parametrize("token", _BAD_TOKENS)
def test_a_uword_token_is_checked_where_it_enters(token):
    # an unknown letter must not pair as F, nor E^(-1) as E^(0)
    c = OqElement.from_word("c")
    for enter in (hopf_pairing, u_action):
        with pytest.raises(ValueError, match="U-word token"):
            enter((("K", 1), token), c)


# ---------------------------------------------------------------------------
# canonical basis
# ---------------------------------------------------------------------------


def test_canonical_change_of_basis():
    a, b, c, d = gens()
    assert to_canonical(d * a) == {"cb": q_power(2), "": ONE}
    assert to_canonical(c * a) == {"ca": ONE}
    assert to_canonical(OqElement.unit()) == {"": ONE}


def test_canonical_round_trip():
    rng = seeded(41)
    for _ in range(25):
        x = random_element(rng, 3)
        assert from_canonical(to_canonical(x)) == x


def test_canonical_monomials_enumeration():
    words = canonical_monomials(2)
    assert "" in words and "cb" in words and "d" in words and "ab" in words
    assert len(words) == len(set(words))
    # each enumerated word is its own canonical expansion
    for w in words:
        assert to_canonical(from_canonical({w: ONE})) == {w: ONE}


def _solved_canonical_word(mono):
    """The canonical word for `mono` solved from its weight and length: the derivation
    `hopf._canonical_word_for` had before it read the word's PBW exponents, kept as its oracle."""
    r, s = word_weight(mono)
    length = len(mono)
    delta = (r - s) // 2  # n - l in either family
    if r + s >= 0:
        m = (r + s) // 2
        mid = "a"
    else:
        m = -(r + s) // 2
        mid = "d"
    l2 = length - m - delta
    if l2 < 0 or l2 % 2:
        raise ValueError("no canonical word matches %r" % mono)
    l = l2 // 2
    n = l + delta
    if n < 0:
        raise ValueError("no canonical word matches %r" % mono)
    return "c" * l + mid * m + "b" * n


def test_the_canonical_word_read_from_the_exponents_matches_the_weight_solve():
    words = basis_words(12)
    assert [hopf._canonical_word_for(w) for w in words] == [_solved_canonical_word(w) for w in words]
    # what `to_canonical` relies on: the word's normal form has `mono` as its longest term
    for w in basis_words(7):
        terms = [t for t, _ in normal_word(hopf._canonical_word_for(w))]
        assert max(terms, key=lambda t: (len(t), t)) == w


def test_positivity_sample():
    x = from_canonical({"d": ONE}) * from_canonical({"a": ONE})
    assert is_positive(to_canonical(x))
    assert not is_positive({"": -ONE})
    assert not is_positive({"": half(1)})


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def test_element_to_string():
    a, b, c, d = gens()
    assert element_to_string(b * c) == "q^2*a*d - q^2"
    assert element_to_string(OqElement()) == "0"
    assert element_to_string(a) == "a"
    assert element_to_string(-a) == "-a"
    assert element_to_string(d * a) == "q^4*a*d + (-q^4 + 1)"
    assert element_to_string(oq("aab", q_power(-1))) == "q^-1*a^2*b"
    assert element_to_string(a + OqElement.unit(HalfLaurent({0: 3}))) == "a + 3"


def _old_element_to_string(x):
    """The text as it was written before words were printed from their `mono_parts`:
    ranked letters and runs of equal letters."""
    rank = {"": 0, "b": 1, "c": 2}

    def key(word):
        h, letter, k, l = mono_parts(word)
        return (h, rank[letter], k, l)

    def mono(word):
        runs = [(ch, len(list(g))) for ch, g in itertools.groupby(word)]
        return "*".join(ch if n == 1 else "%s^%d" % (ch, n) for ch, n in runs)

    return format_sum((x.terms[w], mono(w)) for w in sorted(x.terms, key=key, reverse=True))


def test_element_text_is_what_the_letter_runs_gave():
    rng = seeded(34)
    for _ in range(400):
        x = random_element(rng, rng.randint(0, 9), rng.randint(0, 6))
        assert element_to_string(x) == _old_element_to_string(x)
    every = OqElement({"a" * h + g * k + "d" * l: ONE for h in range(4) for g in "bc" for k in range(4) for l in range(4)})
    assert element_to_string(every) == _old_element_to_string(every)
