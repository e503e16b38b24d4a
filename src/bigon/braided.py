"""Braided tensor powers of the bigon algebra and covariantized products.

An n-sided polygon algebra is modelled as the (n-1)-fold braided tensor
power: tuples of normal-form monomial legs with scalar coefficients.  Legs
with increasing index multiply freely; exchanging a high leg past a low one
inserts the co-R weight of their coproduct tails.  The module also carries
the self-braided product of two commuting coactions, the covariantized
(transmuted) product of the algebra itself, and the diagonal splitting of a
polygon element into a sum of smaller-polygon pairs.
"""

from __future__ import annotations

import functools

from .hopf import (
    OqElement,
    OqTensor,
    antipode,
    coproduct,
    coproduct_word,
    co_r,
    multiply,
    normal_word,
    rho_word,
)
from .ring import ONE, Combination, add_to

_RHO_KINDS = {"standard": "rho", "mirror": "mirror"}


class BraidedElement(Combination):
    """A sum of leg tuples (normal-form words) with Laurent coefficients."""

    __slots__ = ()

    frame_name = "arity"

    def __init__(self, arity, terms=None):
        super().__init__(terms, arity)

    @property
    def arity(self):
        return self.frame

    def _key(self, legs):
        if len(legs) != self.frame:
            raise ValueError("leg tuple %r does not have arity %d" % (legs, self.frame))
        return legs

    @classmethod
    def unit(cls, arity):
        return cls(arity, {("",) * arity: ONE})

    @classmethod
    def from_legs(cls, legs, coeff=ONE):
        """Build from one tuple of words, normalizing each leg."""
        legs = tuple(legs)
        out = {(): coeff}
        for leg in legs:
            nxt = {}
            for done, c in out.items():
                for w, d in normal_word(leg):
                    add_to(nxt, done + (w,), c * d)
            out = nxt
        return cls(len(legs), out)

    def __repr__(self):
        bits = []
        for legs, c in sorted(self.terms.items()):
            body = "⊗".join(w or "1" for w in legs) or "1"
            bits.append("(%s)*%s" % (c.qform(), body))
        return " + ".join(bits) if bits else "0"


@functools.lru_cache(maxsize=None)
def _block_coproduct(words):
    """Leg-wise coaction of a block, as a sorted tuple of
    ((split block, tail word), coeff).

    The tail is the product of the per-leg coproduct tails taken in leg
    order, already in normal form.
    """
    acc = {((), ""): ONE}
    for w in words:
        nxt = {}
        for (block, tail), c in acc.items():
            for (w1, w2), d in coproduct_word(w):
                for merged, e in normal_word(tail + w2):
                    add_to(nxt, (block + (w1,), merged), c * d * e)
        acc = nxt
    return tuple(sorted(acc.items()))


@functools.lru_cache(maxsize=None)
def _mul_legs(xlegs, ylegs, kind):
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
                for rest, cr in _mul_legs(block, yrest, kind):
                    add_to(out, (first,) + rest, weight * cf * cr)
    return tuple(sorted(out.items()))


def braided_product(x, y, rho_variant="standard"):
    x._check_frame(y)
    if rho_variant not in _RHO_KINDS:
        raise ValueError("rho_variant must be one of %s" % sorted(_RHO_KINDS))
    kind = _RHO_KINDS[rho_variant]
    terms = {}
    for xlegs, cx in x.terms.items():
        for ylegs, cy in y.terms.items():
            cxy = cx * cy
            for legs, c in _mul_legs(xlegs, ylegs, kind):
                add_to(terms, legs, cxy * c)
    return x._with(terms)


def polygon_split(n, x, cut):
    """Split an n-gon element along diagonal `cut` (1-based).

    Leg `cut` is expanded by the coproduct; the left piece keeps legs
    0..cut-1 plus the inner coproduct half on its new last leg, the right
    piece starts with the outer half followed by the remaining legs.
    Returns a list of (left, right) pairs whose sum represents the image.

    With this half assignment the split is multiplicative for the two-block
    product (each block multiplied with the same exchange variant, blocks
    independent) whenever cut == n - 2, which is the cut both documented
    examples use.  The opposite assignment breaks multiplicativity, as does
    every block/placement variant at interior cuts of larger polygons, where
    cutting crosses arcs from more than one leg.
    """
    if x.arity != n - 1:
        raise ValueError("an %d-gon element needs %d legs" % (n, n - 1))
    if not 1 <= cut <= n - 2:
        raise ValueError("cut must lie in 1..%d" % (n - 2))
    acc = {}
    for legs, c in x.terms.items():
        head, mid, tail = legs[:cut], legs[cut], legs[cut + 1 :]
        for (m1, m2), d in coproduct_word(mid):
            add_to(acc, (head + (m2,), (m1,) + tail), c * d)
    return [
        (BraidedElement(cut + 1, {left: coeff}), BraidedElement(n - 1 - cut, {right: ONE}))
        for (left, right), coeff in acc.items()
    ]


# ---------------------------------------------------------------------------
# coactions and covariantized products
# ---------------------------------------------------------------------------


def trivial_coaction(x):
    return OqTensor({(w, ""): c for w, c in x.terms.items()})


def standard_coaction(x):
    """The coproduct viewed as a right coaction."""
    return coproduct(x)


def antipode_flip_coaction(x):
    """The left coaction turned right: x maps to sum of x'' tensor S(x')."""
    out = {}
    for w, c in x.terms.items():
        for (w1, w2), d in coproduct_word(w):
            for sw, e in antipode(OqElement.from_word(w1)).terms.items():
                add_to(out, (w2, sw), c * d * e)
    return OqTensor(out)


@functools.lru_cache(maxsize=None)
def _triple_coproduct_word(w):
    out = {}
    for (w1, rest), c in coproduct_word(w):
        for (w2, w3), d in coproduct_word(rest):
            add_to(out, (w1, w2, w3), c * d)
    return tuple(out.items())


def adjoint_coaction(x):
    """Right adjoint coaction: x'' tensor S(x')x''' over the triple coproduct."""
    out = {}
    for w, c in x.terms.items():
        for (w1, w2, w3), d in _triple_coproduct_word(w):
            wing = multiply(antipode(OqElement.from_word(w1)), OqElement.from_word(w3))
            for uw, e in wing.terms.items():
                add_to(out, (w2, uw), c * d * e)
    return OqTensor(out)


def self_braided_product(x, y, coaction1, coaction2, product=multiply):
    """Twisted product of two commuting right-comodule structures.

    coaction2 feeds the left factor, coaction1 the right one; the exchanged
    tails pay the co-R weight.  `product` is the underlying multiplication
    the twist is built on.
    """
    out = OqElement()
    for (xw, uw), cx in coaction2(x).terms.items():
        for (yw, vw), cy in coaction1(y).terms.items():
            weight = rho_word(uw, vw, "rho")
            if weight:
                piece = product(OqElement.from_word(xw), OqElement.from_word(yw))
                out = out + piece * (cx * cy * weight)
    return out


def rho_twisted_multiply(x, y):
    """The co-R-twisted product: sum of co-R(x',y') times x''y''."""
    out = OqElement()
    for wx, cx in x.terms.items():
        for (x1, x2), d1 in coproduct_word(wx):
            for wy, cy in y.terms.items():
                for (y1, y2), d2 in coproduct_word(wy):
                    weight = rho_word(x1, y1, "rho")
                    if weight:
                        piece = OqElement.from_word(x2) * OqElement.from_word(y2)
                        out = out + piece * (cx * cy * d1 * d2 * weight)
    return out


def transmutation_product(x, y):
    """Covariantized product via triple coproducts and antipode wings.

    The wing pairing the left factor is S(head leg) times tail leg; applying
    the antipode to the whole head*tail product instead breaks associativity,
    which is the cross-check that pins this reading.
    """
    out = OqElement()
    for wx, cx in x.terms.items():
        for (x1, x2, x3), d in _triple_coproduct_word(wx):
            wing = multiply(antipode(OqElement.from_word(x1)), OqElement.from_word(x3))
            for wy, cy in y.terms.items():
                for (y1, y2), e in coproduct_word(wy):
                    weight = co_r(wing, antipode(OqElement.from_word(y1)))
                    if weight:
                        piece = OqElement.from_word(x2) * OqElement.from_word(y2)
                        out = out + piece * (cx * cy * d * e * weight)
    return out
