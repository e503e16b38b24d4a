"""The quantised coordinate ring of 2x2 matrices at q^2, as a normal-form algebra.

Elements are integer-Laurent combinations of ordered monomials in the four
generators a, b, c, d subject to

    ca = q^2 ac      ba = q^2 ab      db = q^2 bd      dc = q^2 cd
    bc = cb = q^2 ad - q^2           da = q^4 ad + (1 - q^4)

so every element has a unique normal form supported on the monomial basis
a^h b^k d^l / a^h c^k d^l.  On top of the plain algebra the module carries the
full Hopf package -- coproduct, counit, antipode -- plus the dual-braiding
bilinear forms, the dual pairing with the divided-power quantum enveloping
algebra acting by E/F/K, the reflection and rotation involutions, the
canonical basis change, and the one-variable quotient of the algebra.

Monomials are stored as plain strings over the alphabet "abcd" in normal
order.  There is one straightening rule, the PBW product of two basis words
in closed form (from the rules for d^l a^m and b^i c^j), and `normal_word`
is its one caller: a `ring.sweep` over the word's maximal basis chunks, each
step one basis word times the next chunk, so d^k a^k is one step and there
is no rewriting recursion.  The generator T_ij is the stated arc from state
i to state j (`LETTER_STATES`), and the coproduct is cutting the bigon along
an ideal arc, Delta(T_ij) = Σ_k T_ik ⊗ T_kj: one sweep step per letter
multiplies each leg by its generator through the memoised normal form, so
its cost follows the number of terms rather than the 2^n raw words of the
expansion.  Both sweeps are memoised per word (`normal_word`,
`coproduct_word`), and the braiding forms per pair of words (`rho_word`);
the closed forms under them -- powers of q, the counit and the antipode of
a basis word (one basis word, `antipode_word`), one U-word token paired
with a basis word -- are not memoised.

The dual pairing and the action take a U-word as a tuple of (letter, n)
tokens, e.g. (("E", 1), ("F", 2)), and check each token where it enters;
U-words have no text form.  Each token, a divided power E^(n) or F^(n)
included, pairs with a basis word in closed form (`_pair_token`), so a
U-word is one sweep step per token whatever its exponents.
"""

from __future__ import annotations

import functools
import re

from .ring import Combination, HalfLaurent, ONE, ZERO, add_to, expand, format_sum
from .ring import from_dense, half, one_minus_power, q_power, sweep

GENERATORS = "abcd"
STATES = ("+", "-")

# the generator T_ij is the stated arc from state i to state j, keyed by its letter
LETTER_STATES = {"a": "++", "b": "+-", "c": "-+", "d": "--"}
STATE_LETTERS = {states: g for g, states in LETTER_STATES.items()}


def mono_parts(word):
    """Split a basis word into (a-power, middle letter, its power, d-power)."""
    h = len(word) - len(word.lstrip("a"))
    l = len(word) - len(word.rstrip("d"))
    k = len(word) - h - l
    if not k:
        return h, "", 0, l
    return h, word[h], k, l


# The product of two basis words in closed form.  With Q = q^4, the
# relation da = Q ad + (1 - Q) gives
#     d^l a^m = Σ_j q^(4(l-j)(m-j)) [l, j]_Q [m, j]_Q (Q; Q)_j a^(m-j) d^(l-j),
# and with n = min(i, j), δ = |i - j| and z = b if i > j, else c,
#     b^i c^j = Σ_r (-1)^(n-r) q^(2n + 2r(r-1) + 2rδ) [n, r]_Q a^r z^δ d^r.
# Each sum's coefficients follow one ratio recurrence in j or r, every step
# an exact pass over a dense list in Q (`ring.one_minus_power`).
def _d_times_a(l, m, k1, k2):
    """The coefficients c_j of x^k1 d^l a^m y^k2 = Σ_j c_j a^(m-j) x^k1 y^k2 d^(l-j).

    Moving a^(m-j) left past x^k1 and d^(l-j) right past y^k2 adds
    q^(2 k1 (m-j) + 2 k2 (l-j)) to the d^l a^m rule above; its ratio is
    c_j / c_(j-1) = (1 - Q^(l-j+1)) (1 - Q^(m-j+1)) / (1 - Q^j) up to that monomial.
    """
    out, cs = [q_power(4 * l * m + 2 * k1 * m + 2 * k2 * l)], [1]
    for j in range(1, min(l, m) + 1):
        cs = one_minus_power(one_minus_power(cs, l - j + 1), m - j + 1)
        cs = one_minus_power(cs, j, divide=True)
        out.append(from_dense(8 * (l - j) * (m - j) + 4 * k1 * (m - j) + 4 * k2 * (l - j), cs, 8))
    return out


def _b_times_c(n, delta):
    """The coefficients e_r of b^(n+δ) c^n = Σ_r e_r a^r b^δ d^r.

    b and c commute, so c^(n+δ) b^n is the same sum with c^δ.  The ratio is
    e_r / e_(r-1) = -(1 - Q^(n-r+1)) / (1 - Q^r) up to the monomial of the rule above.
    """
    out, cs = [q_power(2 * n, (-1) ** n)], [(-1) ** n]
    for r in range(1, n + 1):
        cs = one_minus_power([-a for a in one_minus_power(cs, n - r + 1)], r, divide=True)
        out.append(from_dense(4 * (n + r * (r - 1) + r * delta), cs, 8))
    return out


def _word_product(w1, w2):
    """Two basis words multiplied, as (basis word, coefficient) pairs.

    With w1 = a^h1 x^k1 d^l1 and w2 = a^h2 y^k2 d^l2 (`mono_parts`), the
    middle x^k1 d^l1 a^h2 y^k2 is `_d_times_a`; when x and y are b and c,
    the b^i c^j left in each term is `_b_times_c`.
    """
    h1, x, k1, l1 = mono_parts(w1)
    h2, y, k2, l2 = mono_parts(w2)
    if x and y and x != y:
        z = x if k1 > k2 else y
        middle = list(enumerate(_b_times_c(min(k1, k2), abs(k1 - k2))))
        mid = z * abs(k1 - k2)
    else:
        middle, mid = [(0, ONE)], (x or y) * (k1 + k2)
    out = {}
    for j, c in enumerate(_d_times_a(l1, h2, k1, k2)):
        for r, e in middle:
            word = "a" * (h1 + h2 - j + r) + mid + "d" * (l1 + l2 - j + r)
            add_to(out, word, c * e)
    return out.items()


# a basis word; matched along a free word, its maximal runs, then the empty match at the end
_BASIS_CHUNK = re.compile("a*(?:b+|c+)?d*")
_NOT_A_GENERATOR = re.compile("[^abcd]")


def _check_word(word):
    if bad := _NOT_A_GENERATOR.search(word):
        raise ValueError("unknown generator %r in word %r" % (bad.group(), word))


@functools.lru_cache(maxsize=None)
def normal_word(word):
    """Normal form of a free word, as a sorted tuple of (basis word, coefficient).

    The word splits into its maximal basis chunks; the first is kept as it
    is, and each further chunk, one letter or many, is a step that multiplies
    a basis word by it in closed form (`_word_product`).  This is the only
    product of basis words: every other one in the package comes through here.
    """
    _check_word(word)
    first, *rest = _BASIS_CHUNK.findall(word)
    return tuple(sorted(sweep({first: ONE}, rest[:-1], _word_product).items()))


_SIGN = {"+": 1, "-": -1}


def word_weight(word):
    """(left, right) weight of a word: the sums of its letters' state signs."""
    r = s = 0
    for ch in word:
        i, j = LETTER_STATES[ch]
        r += _SIGN[i]
        s += _SIGN[j]
    return r, s


class OqElement(Combination):
    """A finite R-linear combination of normal-form basis words.

    Immutable by convention.  `terms` maps basis word -> HalfLaurent; no zero
    coefficients are kept.  Addition and the (noncommutative) product are the
    usual dunder operators; scalars from the ground ring multiply from either
    side.
    """

    __slots__ = ()

    def _key(self, word):
        if not _BASIS_CHUNK.fullmatch(word):
            raise ValueError("%r is not a normal-form basis word" % (word,))
        return word

    @classmethod
    def unit(cls, coeff=ONE):
        coeff = _as_scalar(coeff)
        return cls({"": coeff})

    @classmethod
    def from_word(cls, word, coeff=ONE):
        """Normal-form the free word and scale it."""
        coeff = _as_scalar(coeff)
        return cls({mono: coeff * c for mono, c in normal_word(word)})

    def _times(self, other):
        return self.product(other, lambda w1, w2: normal_word(w1 + w2))

    def weight(self):
        """The common (left, right) weight, or None if inhomogeneous."""
        ws = {word_weight(w) for w in self.terms}
        if len(ws) == 1:
            return ws.pop()
        return None if ws else (0, 0)

    def __repr__(self):
        return element_to_string(self)


def _as_scalar(x):
    if isinstance(x, int):
        return HalfLaurent({0: x})
    if isinstance(x, HalfLaurent):
        return x
    raise TypeError("expected a ground-ring scalar, got %r" % (x,))


def multiply(x, y):
    return x * y


# ---------------------------------------------------------------------------
# coalgebra structure
# ---------------------------------------------------------------------------

# cutting the bigon along an ideal arc: Delta(T_ij) = Σ_k T_ik ⊗ T_kj
_DELTA = {
    g: tuple((STATE_LETTERS[i + k], STATE_LETTERS[k + j]) for k in "+-")
    for g, (i, j) in LETTER_STATES.items()
}


def _coproduct_step(key, g):
    """Both legs times Delta(g): for each cut state, leg 1 times T_ik and leg 2 times T_kj."""
    w1, w2 = key
    for u, v in _DELTA[g]:
        for m1, c1 in normal_word(w1 + u):
            for m2, c2 in normal_word(w2 + v):
                yield (m1, m2), c1 * c2


@functools.lru_cache(maxsize=None)
def coproduct_word(word):
    """Coproduct of a word as a sorted tuple of ((w1, w2), coefficient).

    Delta is an algebra map, so each letter is one step that multiplies the
    leg pairs by the letter's cutting sum (`_coproduct_step`), each leg
    through `normal_word`.
    """
    _check_word(word)
    return tuple(sorted(sweep({("", ""): ONE}, word, _coproduct_step).items()))


class OqTensor(Combination):
    """Two-leg tensors over the algebra, with the componentwise product."""

    __slots__ = ()

    def _times(self, other):
        return self.product(other, _legs_times)

    def __repr__(self):
        return format_leg_terms(self.terms)


def _legs_times(legs1, legs2):
    """Two leg pairs multiplied leg by leg, each leg through the normal form."""
    (x1, y1), (x2, y2) = legs1, legs2
    for m1, d1 in normal_word(x1 + x2):
        for m2, d2 in normal_word(y1 + y2):
            yield (m1, m2), d1 * d2


def coproduct(x):
    return OqTensor(expand(x.terms, coproduct_word))


def counit_word(word):
    return ONE if all(ch in "ad" for ch in word) else ZERO


def counit(x):
    return sum((counit_word(w) * c for w, c in x.terms.items()), ZERO)


_SWAP_AD = str.maketrans("ad", "da")
_SWAP_BC = str.maketrans("bc", "cb")


def antipode_word(word):
    """The antipode of a basis word, as (basis word, coefficient).

    S is the anti-automorphism a -> d, d -> a, b -> -q^2 b, c -> -q^-2 c, so
    it sends a^h x^k d^l to the basis word a^l x^k d^h times (-q^(±2))^k.
    """
    nb, nc = word.count("b"), word.count("c")
    return word[::-1].translate(_SWAP_AD), half(4 * (nb - nc), (-1) ** (nb + nc))


def antipode(x):
    """The antipode of an element, one basis word per term (`antipode_word`)."""
    return OqElement(expand(x.terms, lambda w: [antipode_word(w)]))


def bar_involution(x):
    """Order-reversing involution fixing the generators, conjugating v."""
    return OqElement(expand({w[::-1]: c.conjugate() for w, c in x.terms.items()}, normal_word))


def rotation(x):
    """The algebra involution swapping b and c (a, d fixed)."""
    return OqElement({w.translate(_SWAP_BC): c for w, c in x.terms.items()})


def reduce_bigon(x):
    """Quotient by b = c = 0, ad = 1: a one-variable Laurent polynomial.

    Returned as a map from the power of the surviving variable to its
    coefficient (a^m for m > 0, d^{-m} for m < 0).
    """
    out = {}
    for w, c in x.terms.items():
        h, letter, k, l = mono_parts(w)
        if k:
            continue
        add_to(out, h - l, c)
    return out


# ---------------------------------------------------------------------------
# the dual-braiding bilinear forms
# ---------------------------------------------------------------------------

# The forms in closed form on basis words: the universal R-matrix
# q^(H⊗H/2) Σ c_n E^n ⊗ F^n of U_q(sl2) read as a pairing.  With s = 1 for
# the standard form and s = -1 for the mirror form,
#     form(a^h1 x^k d^l1, a^h2 y^k d^l2)
#         = q^(s((h1-l1)(h2-l2) + k^2) - k(h1+l1+h2+l2)) Π_{i=1..k} (1 - q^(-4si))
# where (x, y) = (b, c) for the standard form and (c, b) for the mirror form
# (k = 0 covers the words in a and d alone); every other pair of basis words
# gives 0.  The inverse form is the mirror form with its arguments swapped.
# The paper reads the same values off one stated crossing (x+ for the
# standard form, x- for the mirror form); the tests keep that reading as an
# oracle.
_FORM_SHAPE = {"rho": ("bc", 1), "mirror": ("cb", -1)}


def _form_exponent(h1, l1, h2, l2, k, s):
    return s * ((h1 - l1) * (h2 - l2) + k * k) - k * (h1 + l1 + h2 + l2)


def _basis_form(w1, w2, kind):
    """The form `kind` ("rho" or "mirror") on a pair of basis words."""
    middle, s = _FORM_SHAPE[kind]
    h1, x1, k, l1 = mono_parts(w1)
    h2, x2, k2, l2 = mono_parts(w2)
    if k != k2 or (k and x1 + x2 != middle):
        return ZERO
    value = q_power(_form_exponent(h1, l1, h2, l2, k, s))
    for i in range(1, k + 1):
        value = value * (ONE - q_power(-4 * s * i))
    return value


@functools.lru_cache(maxsize=None)
def rho_word(w1, w2, kind="rho"):
    """The form `kind` ("rho", "bar" or "mirror") on two words, through their normal forms."""
    if kind == "bar":
        w1, w2, kind = w2, w1, "mirror"
    if kind not in _FORM_SHAPE:
        raise ValueError("unknown form %r" % kind)
    total = ZERO
    for m1, c1 in normal_word(w1):
        for m2, c2 in normal_word(w2):
            value = _basis_form(m1, m2, kind)
            if value:
                total = total + c1 * c2 * value
    return total


def _bilinear_form(x, y, kind):
    total = ZERO
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            total = total + c1 * c2 * rho_word(w1, w2, kind)
    return total


def co_r(x, y, inverse=False):
    """Bilinear braiding form on two elements; `inverse` selects the inverse form."""
    return _bilinear_form(x, y, "bar" if inverse else "rho")


def co_r_mirror(x, y):
    """The mirror braiding form: inverse form with swapped arguments."""
    return _bilinear_form(x, y, "mirror")


# ---------------------------------------------------------------------------
# dual pairing with the quantum enveloping algebra
# ---------------------------------------------------------------------------

# A UWord is a tuple of (letter, n) tokens: ("K", ±1), ("E", n), ("F", n),
# the E/F exponents meaning divided powers E^(n) = E^n / [n]!.


def _pair_token(token, word):
    """Pairing of one token K^s, E^(n) or F^(n) with a basis word, in closed form:

        <K^s, a^h d^l> = q^(2s(h-l))    <E^(n), a^h b^n d^l> = q^(-2nl)    <F^(n), a^h c^n d^l> = q^(-2nh)

    and 0 on every other basis word.
    """
    letter, n = token
    h, x, k, l = mono_parts(word)
    if letter == "K":
        return ZERO if k else q_power(2 * n * (h - l))
    if k != n:
        return ZERO
    if letter == "E":
        return q_power(-2 * n * l) if x == "b" else ZERO
    return q_power(-2 * n * h) if x == "c" else ZERO


def _check_token(token):
    """A UWord token, returned as it is; anything but ("K", ±1), ("E", n) or ("F", n)
    with an integer n >= 1 is a ValueError."""
    if type(token) is tuple and len(token) == 2 and type(token[1]) is int:
        letter, n = token
        if (n in (1, -1)) if letter == "K" else (letter in ("E", "F") and n >= 1):
            return token
    raise ValueError(
        'a U-word token is ("K", ±1), ("E", n) or ("F", n) with an integer n >= 1, not %r' % (token,)
    )


def _pair_leg(word, step):
    """The other coproduct leg, weighted by leg `leg` paired (nonzero) with the token."""
    token, leg = step
    for pair, d in coproduct_word(word):
        val = _pair_token(token, pair[leg])
        if val:
            yield pair[1 - leg], d * val


def hopf_pairing(u, x):
    """Pairing of a UWord against an element; exact in the ground ring.

    <u1 u2 ... un, x> = sum <u1, x'> <u2 ... un, x''>: each token is a step
    that pairs with the first coproduct leg of what is left (`_pair_leg`).
    """
    steps = [(_check_token(token), 0) for token in u]
    words = sweep(x.terms, steps, _pair_leg)
    return sum((c * counit_word(w) for w, c in words.items()), ZERO)


def u_action(u, x):
    """Left action dual to the coproduct: u·x = Σ x' ⟨u, x''⟩, one step per token from the right."""
    steps = [(_check_token(token), 1) for token in u]
    return OqElement(sweep(x.terms, steps[::-1], _pair_leg))


# ---------------------------------------------------------------------------
# canonical basis
# ---------------------------------------------------------------------------


def canonical_monomials(max_len):
    """All canonical-basis words of length <= max_len.

    The basis consists of the words c^l a^m b^n together with c^l d^m b^n for
    m >= 1; the two families overlap nowhere.
    """
    out = []
    for total in range(max_len + 1):
        for l in range(total + 1):
            for m in range(total - l + 1):
                n = total - l - m
                out.append("c" * l + "a" * m + "b" * n)
                if m >= 1:
                    out.append("c" * l + "d" * m + "b" * n)
    return out


def _canonical_word_for(mono):
    """The canonical word whose normal form has `mono` as its longest term."""
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


def to_canonical(x):
    """Coordinates of an element in the canonical basis.

    Within a fixed weight, basis words of either kind are singly indexed by
    length and the change of basis is triangular with unit diagonal, so plain
    back-substitution from the longest normal-form word down is exact.
    """
    remaining = dict(x.terms)
    out = {}
    while remaining:
        mono = max(remaining, key=lambda w: (len(w), w))
        cand = _canonical_word_for(mono)
        nf = dict(normal_word(cand))
        lead = nf[mono]
        coeff = remaining[mono] * lead ** -1
        add_to(out, cand, coeff)
        for w, c in nf.items():
            add_to(remaining, w, -(coeff * c))
    return out


def from_canonical(coords):
    return OqElement(expand(coords, normal_word))


def is_positive(coords):
    """True when every coordinate lies in N[q^{±1}] (even powers, >= 0)."""
    for coeff in coords.values():
        for e, n in coeff.items():
            if e % 2 or n < 0:
                return False
    return True


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _format_mono(h, x, k, l):
    """The basis word a^h x^k d^l (`mono_parts`) as a product of powers, e.g. 'a^2*b*d^3'."""
    powers = []
    if h:
        powers.append("a" if h == 1 else f"a^{h}")
    if k:
        powers.append(x if k == 1 else f"{x}^{k}")
    if l:
        powers.append("d" if l == 1 else f"d^{l}")
    return "*".join(powers)


def element_to_string(x):
    """Canonical text form, e.g. ``q^2*a*d - q^2``; parses back bit-exactly.  The words
    come in descending order of their `mono_parts`, in which '' < 'b' < 'c'."""
    parts = sorted(((mono_parts(w), w) for w in x.terms), reverse=True)
    return format_sum((x.terms[w], _format_mono(*p)) for p, w in parts)


def format_leg_terms(terms):
    """Canonical text for {leg words: coefficient} maps, e.g. ``q*(a|b)``."""
    return format_sum((terms[legs], "(%s)" % "|".join(legs)) for legs in sorted(terms))
