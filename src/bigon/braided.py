"""Braided tensor powers of the bigon algebra and covariantized products.

An n-sided polygon algebra is modelled as the (n-1)-fold braided tensor
power: tuples of normal-form monomial legs with scalar coefficients.  Legs
with increasing index multiply freely; exchanging a high leg past a low one
inserts the co-R weight of their coproduct tails.  The module also carries
the self-braided product of two commuting coactions; the co-R-twisted
product and the covariantized (transmuted) product of the algebra itself are
instances of it, the latter over the adjoint and the antipode-flipped
coactions.  One co-R exchange serves every braided and twisted product.
Last, a polygon element splits along a diagonal into a sum of
smaller-polygon pairs.
"""

from __future__ import annotations

import functools

from .hopf import (
    OqElement,
    OqTensor,
    antipode_word,
    coproduct,
    coproduct_word,
    format_leg_terms,
    normal_word,
    rho_word,
)
from .ring import ONE, Combination, expand, sweep

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
        return cls(len(legs), sweep({(): coeff}, legs, _append_leg))

    def __repr__(self):
        return format_leg_terms(self.terms)


def _append_leg(done, leg):
    """The legs so far, followed by the normal form of one more leg."""
    for w, d in normal_word(leg):
        yield done + (w,), d


def _coact_leg(key, w):
    """Split one more leg by its coproduct: head to the block, tail onto the tail."""
    block, tail = key
    for (w1, w2), d in coproduct_word(w):
        for merged, e in normal_word(tail + w2):
            yield (block + (w1,), merged), d * e


@functools.lru_cache(maxsize=None)
def _block_coproduct(words):
    """Leg-wise coaction of a block, as a sorted tuple of
    ((split block, tail word), coeff).

    Each leg is a step (`_coact_leg`): the tail is the product of the per-leg
    coproduct tails taken in leg order, already in normal form.
    """
    return tuple(sorted(sweep({((), ""): ONE}, words, _coact_leg).items()))


def _exchange(left, right, kind):
    """The co-R exchange of two coactions, each given as ((leg, tail), coeff) pairs.

    Returns {(left leg, right leg): sum of coeff * coeff' * form(tail, tail')},
    the pairing form of the given kind, without zero weights.
    """
    right = tuple(right)
    return expand(dict(left), lambda x: [
        ((x[0], yleg), cv * weight) for (yleg, vw), cv in right if (weight := rho_word(x[1], vw, kind))
    ])


@functools.lru_cache(maxsize=None)
def _mul_legs(xlegs, ylegs, kind):
    """Product of two single leg tuples, as a sorted tuple of (leg tuple, coeff)."""
    if not xlegs:
        return (((), ONE),)
    if len(xlegs) == 1:
        return tuple(((w,), c) for w, c in normal_word(xlegs[0] + ylegs[0]))
    # slide the whole tail block of x leftwards past the first leg of y,
    # paying the co-R weight of the exchanged coproduct tails
    exchanged = _exchange(_block_coproduct(xlegs[1:]), coproduct_word(ylegs[0]), kind)
    return tuple(sorted(expand(exchanged, lambda pair: [
        ((first,) + rest, cf * cr)
        for first, cf in normal_word(xlegs[0] + pair[1])
        for rest, cr in _mul_legs(pair[0], ylegs[1:], kind)
    ]).items()))


def braided_product(x, y, rho_variant="standard"):
    if rho_variant not in _RHO_KINDS:
        raise ValueError("rho_variant must be one of %s" % sorted(_RHO_KINDS))
    kind = _RHO_KINDS[rho_variant]
    return x.product(y, lambda xlegs, ylegs: _mul_legs(xlegs, ylegs, kind))


def polygon_split(n, x, cut):
    """Split an n-gon element along diagonal `cut` (1-based).

    The diagonal crosses every leg from `cut` on.  The left piece keeps legs
    0..cut-1 and gains a last leg on the diagonal; the right piece has one leg
    per crossed leg.  Each crossed leg is expanded by the coproduct: its first
    half stays in the right piece and its second half goes to the left
    piece's last leg, where the second halves multiply in leg order (the
    leg-wise coaction of the crossed block).  Returns a list of (left, right)
    pairs whose sum represents the image.

    The split is multiplicative at every cut, for either exchange variant,
    with the two pieces multiplied independently; collapsing the left
    piece's last leg with the counit glues a pair back together.
    """
    if x.arity != n - 1:
        raise ValueError("an %d-gon element needs %d legs" % (n, n - 1))
    if not 1 <= cut <= n - 2:
        raise ValueError("cut must lie in 1..%d" % (n - 2))
    acc = expand(x.terms, lambda legs: [
        ((legs[:cut] + (tail,), block), d) for (block, tail), d in _block_coproduct(legs[cut:])
    ])
    return [
        (BraidedElement(cut + 1, {left: coeff}), BraidedElement(n - 1 - cut, {right: ONE}))
        for (left, right), coeff in acc.items()
    ]


# ---------------------------------------------------------------------------
# coactions and covariantized products
# ---------------------------------------------------------------------------


def trivial_coaction(x):
    return OqTensor({(w, ""): c for w, c in x.terms.items()})


def _antipode_flipped(w):
    """One word's image: sum of x'' tensor S(x') over its coproduct, each S(x') one word."""
    for (w1, w2), d in coproduct_word(w):
        sw, e = antipode_word(w1)
        yield (w2, sw), d * e


def antipode_flip_coaction(x):
    """The left coaction turned right: x maps to sum of x'' tensor S(x')."""
    return OqTensor(expand(x.terms, _antipode_flipped))


def _split_second(pair):
    return [((pair[0], w2, w3), d) for (w2, w3), d in coproduct_word(pair[1])]


def _triple_coproduct_word(w):
    return tuple(expand(dict(coproduct_word(w)), _split_second).items())


def _adjoint_word(w):
    """One word's image: x'' tensor S(x')x''' over its triple coproduct, S(x') one word."""
    for (w1, w2, w3), d in _triple_coproduct_word(w):
        sw, e = antipode_word(w1)
        for uw, f in normal_word(sw + w3):
            yield (w2, uw), d * e * f


def adjoint_coaction(x):
    """Right adjoint coaction: x'' tensor S(x')x''' over the triple coproduct."""
    return OqTensor(expand(x.terms, _adjoint_word))


def self_braided_product(x, y, coaction1, coaction2):
    """Twisted product of two commuting right-comodule structures.

    coaction2 feeds the left factor, coaction1 the right one; the exchanged
    tails pay the co-R weight, and each exchanged pair of legs multiplies as
    the normal form of the two words run together.
    """
    exchanged = _exchange(coaction2(x).terms.items(), coaction1(y).terms.items(), "rho")
    return OqElement(expand(exchanged, lambda pair: normal_word(pair[0] + pair[1])))


def _flipped_coproduct(x):
    """The coproduct with its legs swapped: x maps to sum of x'' tensor x'."""
    return OqTensor({(w2, w1): c for (w1, w2), c in coproduct(x).terms.items()})


def rho_twisted_multiply(x, y):
    """The co-R-twisted product: sum of co-R(x',y') times x''y''.

    It is the self-braided product over the coproduct with its legs swapped.
    """
    return self_braided_product(x, y, _flipped_coproduct, _flipped_coproduct)


def transmutation_product(x, y):
    """Covariantized product: the self-braided product of the adjoint coaction
    (left factor) and the antipode-flipped coaction (right factor).

    The wing pairing the left factor is S(head leg) times tail leg; applying
    the antipode to the whole head*tail product instead breaks associativity,
    which is the cross-check that pins this reading.
    """
    return self_braided_product(x, y, antipode_flip_coaction, adjoint_coaction)
