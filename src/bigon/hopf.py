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
order; rewriting is memoised per word, which keeps repeated normal-form work
(coproducts expand to 2^n raw words) cheap.
"""

from __future__ import annotations

import functools
import itertools

from .ring import Combination, HalfLaurent, ONE, ZERO, add_to, divexact, q_factorial, q_power

GENERATORS = "abcd"

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
def normal_word(word):
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
            for mono, c in normal_word(word[:i] + repl + word[i + 2 :]):
                add_to(acc, mono, coeff * c)
        return tuple(sorted(acc.items()))
    return ((word, ONE),)


def mono_parts(word):
    """Split a basis word into (a-power, middle letter, its power, d-power)."""
    h = 0
    while h < len(word) and word[h] == "a":
        h += 1
    l = 0
    while l < len(word) - h and word[len(word) - 1 - l] == "d":
        l += 1
    mid = word[h : len(word) - l]
    if not mid:
        return h, "", 0, l
    return h, mid[0], len(mid), l


_WEIGHTS = {"a": (1, 1), "b": (1, -1), "c": (-1, 1), "d": (-1, -1)}


def word_weight(word):
    """(left, right) weight of a word; additive, so order-independent."""
    r = s = 0
    for ch in word:
        wr, ws = _WEIGHTS[ch]
        r += wr
        s += ws
    return r, s


class OqElement(Combination):
    """A finite R-linear combination of normal-form basis words.

    Immutable by convention.  `terms` maps basis word -> HalfLaurent; no zero
    coefficients are kept.  Addition and the (noncommutative) product are the
    usual dunder operators; scalars from the ground ring multiply from either
    side.
    """

    __slots__ = ()

    @classmethod
    def unit(cls, coeff=ONE):
        coeff = _as_scalar(coeff)
        return cls({"": coeff})

    @classmethod
    def generator(cls, letter):
        if letter not in GENERATORS:
            raise ValueError("unknown generator %r" % letter)
        return cls({letter: ONE})

    @classmethod
    def from_word(cls, word, coeff=ONE):
        """Normal-form the free word and scale it."""
        coeff = _as_scalar(coeff)
        out = {}
        for mono, c in normal_word(word):
            out[mono] = coeff * c
        return cls(out)

    def __mul__(self, other):
        if isinstance(other, (HalfLaurent, int)):
            return self.scale(other)
        if not isinstance(other, OqElement):
            return NotImplemented
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                c12 = c1 * c2
                for mono, c in normal_word(w1 + w2):
                    add_to(out, mono, c12 * c)
        return self._with(out)

    def __rmul__(self, other):
        if isinstance(other, (HalfLaurent, int)):
            return self.scale(other)
        return NotImplemented

    def weight(self):
        """The common (left, right) weight, or None if inhomogeneous."""
        ws = {word_weight(w) for w in self.terms}
        if len(ws) == 1:
            return ws.pop()
        return None if ws else (0, 0)

    def __str__(self):
        return element_to_string(self)

    def __repr__(self):
        return "OqElement(%s)" % element_to_string(self)


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

_DELTA = {
    "a": (("a", "a"), ("b", "c")),
    "b": (("a", "b"), ("b", "d")),
    "c": (("c", "a"), ("d", "c")),
    "d": (("c", "b"), ("d", "d")),
}


@functools.lru_cache(maxsize=None)
def coproduct_word(word):
    """Coproduct of a basis word as a tuple of ((w1, w2), coefficient)."""
    pairs = {("", ""): ONE}
    for ch in word:
        nxt = {}
        for (w1, w2), c in pairs.items():
            for u, v in _DELTA[ch]:
                add_to(nxt, (w1 + u, w2 + v), c)
        pairs = nxt
    acc = {}
    for (w1, w2), c in pairs.items():
        for m1, c1 in normal_word(w1):
            for m2, c2 in normal_word(w2):
                add_to(acc, (m1, m2), c * c1 * c2)
    return tuple(sorted(acc.items()))


class OqTensor(Combination):
    """Two-leg tensors over the algebra, with the componentwise product."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, (HalfLaurent, int)):
            return self.scale(other)
        out = {}
        for (x1, y1), c1 in self.terms.items():
            for (x2, y2), c2 in other.terms.items():
                c12 = c1 * c2
                for m1, d1 in normal_word(x1 + x2):
                    cm = c12 * d1
                    for m2, d2 in normal_word(y1 + y2):
                        add_to(out, (m1, m2), cm * d2)
        return self._with(out)

    __rmul__ = __mul__

    def __repr__(self):
        bits = []
        for (w1, w2), c in sorted(self.terms.items()):
            bits.append("(%s)*(%s⊗%s)" % (c.qform(), w1 or "1", w2 or "1"))
        return " + ".join(bits) if bits else "0"


def coproduct(x):
    out = {}
    for w, c in x.terms.items():
        for key, d in coproduct_word(w):
            add_to(out, key, c * d)
    return OqTensor(out)


def counit_word(word):
    return ONE if all(ch in "ad" for ch in word) else ZERO


def counit(x):
    total = ZERO
    for w, c in x.terms.items():
        if all(ch in "ad" for ch in w):
            total = total + c
    return total


_ANTIPODE = {
    "a": (ONE, "d"),
    "d": (ONE, "a"),
    "b": (-q_power(2), "b"),
    "c": (-q_power(-2), "c"),
}


def antipode(x):
    out = OqElement()
    for w, c in x.terms.items():
        coeff = c
        image = []
        for ch in reversed(w):
            s, letter = _ANTIPODE[ch]
            coeff = coeff * s
            image.append(letter)
        out = out + OqElement.from_word("".join(image), coeff)
    return out


def bar_involution(x):
    """Order-reversing involution fixing the generators, conjugating v."""
    out = OqElement()
    for w, c in x.terms.items():
        out = out + OqElement.from_word(w[::-1], c.conjugate())
    return out


def rotation(x):
    """The algebra involution swapping b and c (a, d fixed)."""
    swap = str.maketrans("bc", "cb")
    return OqElement({w.translate(swap): c for w, c in x.terms.items()})


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

    from . import tangle  # deferred: tangle itself builds on this module

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
            for u1, v1 in _DELTA[g1]:
                for u2, v2 in _DELTA[g2]:
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


def rho_word(w1, w2, kind="rho"):
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
                term = rho_word(rest, z1, kind) * rho_word(g, z2, kind)
            else:
                term = rho_word(g, z1, kind) * rho_word(rest, z2, kind)
            total = total + c * term
        val = total
    else:
        g = w1
        y, rest = w2[0], w2[1:]
        total = ZERO
        for u, v in _DELTA[g]:
            if reverse:
                term = rho_word(v, rest, kind) * rho_word(u, y, kind)
            else:
                term = rho_word(u, rest, kind) * rho_word(v, y, kind)
            total = total + term
        val = total
    _rho_cache[key] = val
    return val


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

_K_VALUES = {1: {"a": q_power(2), "d": q_power(-2)}, -1: {"a": q_power(-2), "d": q_power(2)}}


def parse_uword(text):
    """Parse 'K K- E F(2)'-style token strings into a UWord."""
    word = []
    for tok in text.replace(";", " ").split():
        if tok in ("K", "K+"):
            word.append(("K", 1))
        elif tok in ("K-", "K^-1", "K-1"):
            word.append(("K", -1))
        elif tok and tok[0] in "EF":
            n = 1
            rest = tok[1:]
            if rest:
                if not (rest.startswith("(") and rest.endswith(")")):
                    raise ValueError("bad token %r (want E, F, E(n) or F(n))" % tok)
                n = int(rest[1:-1])
                if n < 1:
                    raise ValueError("divided power must be >= 1 in %r" % tok)
            word.append((tok[0], n))
        else:
            raise ValueError("bad token %r" % tok)
    return tuple(word)


@functools.lru_cache(maxsize=None)
def _pair_letter_word(letter, sign, word):
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
        return head * _pair_letter_word("E", 1, rest) + (
            (ONE if g == "b" else ZERO) * _pair_letter_word("K", 1, rest)
        )
    if letter == "F":
        # split against K^{-1}⊗F + F⊗1
        kval = _K_VALUES[-1].get(g)
        out = ZERO
        if kval is not None:
            out = kval * _pair_letter_word("F", 1, rest)
        if g == "c":
            out = out + counit_word(rest)
        return out
    raise ValueError(letter)


def _expand_uword(u):
    """Flatten divided powers: plain letter sequence and the [n]! denominator."""
    letters = []
    denom = ONE
    for letter, n in u:
        if letter == "K":
            letters.append(("K", n))
        else:
            letters.extend((letter, 1) for _ in range(n))
            denom = denom * q_factorial(n)
    return letters, denom


def _pair_letters_word(letters, word):
    if not letters:
        return counit_word(word)
    head, rest = letters[0], letters[1:]
    if not rest:
        return _pair_letter_word(head[0], head[1], word)
    total = ZERO
    for (z1, z2), c in coproduct_word(word):
        first = _pair_letter_word(head[0], head[1], z1)
        if not first:
            continue
        total = total + c * first * _pair_letters_word(rest, z2)
    return total


def hopf_pairing(u, x):
    """Pairing of a UWord against an element; exact in the ground ring."""
    letters, denom = _expand_uword(u)
    total = ZERO
    for w, c in x.terms.items():
        total = total + c * _pair_letters_word(letters, w)
    return divexact(total, denom)


def u_action(u, x):
    """Left action dual to the coproduct: u·x = Σ x' ⟨u, x''⟩."""
    letters, denom = _expand_uword(u)
    for letter in reversed(letters):
        out = {}
        for w, c in x.terms.items():
            for (z1, z2), d in coproduct_word(w):
                val = _pair_letter_word(letter[0], letter[1], z2)
                if val:
                    add_to(out, z1, c * d * val)
        x = OqElement(out)
    if denom != ONE:
        x = OqElement({w: divexact(c, denom) for w, c in x.terms.items()})
    return x


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
    out = OqElement()
    for word, coeff in coords.items():
        out = out + OqElement.from_word(word, coeff)
    return out


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

_LETTER_RANK = {"": 0, "b": 1, "c": 2}


def _mono_sort_key(word):
    h, letter, k, l = mono_parts(word)
    return (h, _LETTER_RANK[letter], k, l)


def _format_mono(word):
    if not word:
        return ""
    bits = []
    for ch, grp in itertools.groupby(word):
        n = len(list(grp))
        bits.append(ch if n == 1 else "%s^%d" % (ch, n))
    return "*".join(bits)


def element_to_string(x):
    """Canonical text form, e.g. ``q^2*a*d - q^2``; parses back bit-exactly."""
    if not x.terms:
        return "0"
    words = sorted(x.terms, key=_mono_sort_key, reverse=True)
    pieces = []
    for w in words:
        coeff = x.terms[w]
        mono = _format_mono(w)
        items = sorted(coeff.items(), reverse=True)
        if len(items) == 1:
            e, n = items[0]
            neg = n < 0
            n = abs(n)
            if e == 0:
                head = str(n)
                if mono and n == 1:
                    head = ""
            elif e % 2 == 0:
                head = ("q" if e == 2 else "q^%d" % (e // 2)) if n == 1 else None
                if head is None:
                    head = "%d*%s" % (n, "q" if e == 2 else "q^%d" % (e // 2))
            else:
                head = ("v" if e == 1 else "v^%d" % e) if n == 1 else None
                if head is None:
                    head = "%d*%s" % (n, "v" if e == 1 else "v^%d" % e)
            body = head + ("*" + mono if mono and head else mono)
            pieces.append(("-" if neg else "+", body))
        else:
            body = "(%s)" % coeff.qform()
            if mono:
                body += "*" + mono
            pieces.append(("+", body))
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += (" - " if sign == "-" else " + ") + body
    return text

