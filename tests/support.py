"""Shared helpers for the test suite: corpora and seeded random elements."""

import itertools
import random
from fractions import Fraction

from bigon.classical import SL2Matrix
from bigon.hopf import GENERATORS, OqElement
from bigon.ring import HalfLaurent
from bigon.tangle import Slice, SlicedTangle


def basis_words(max_len):
    """All normal-form basis words of length <= max_len."""
    out = [""]
    for n in range(1, max_len + 1):
        for h in range(n + 1):
            for k in range(n - h + 1):
                l = n - h - k
                if k == 0:
                    out.append("a" * h + "d" * l)
                else:
                    out.append("a" * h + "b" * k + "d" * l)
                    out.append("a" * h + "c" * k + "d" * l)
    return out


def oq(word, coeff=1):
    return OqElement.from_word(word, HalfLaurent({0: coeff}) if isinstance(coeff, int) else coeff)


def random_scalar(rng, span=3):
    return HalfLaurent({rng.randint(-span, span): rng.choice([-2, -1, 1, 2])})


def random_word(rng, max_len):
    return "".join(rng.choice(GENERATORS) for _ in range(rng.randint(0, max_len)))


def random_element(rng, max_len, n_terms=2):
    x = OqElement()
    for _ in range(n_terms):
        x = x + OqElement.from_word(random_word(rng, max_len), random_scalar(rng))
    return x


def word_triples(total_degree):
    """All triples of basis words with combined length <= total_degree."""
    words = basis_words(total_degree)
    for w1, w2, w3 in itertools.product(words, repeat=3):
        if len(w1) + len(w2) + len(w3) <= total_degree:
            yield w1, w2, w3


def seeded(seed=20240214):
    return random.Random(seed)


def random_sl2(rng, steps=4):
    """A random rational determinant-one matrix (product of shears).

    The shears multiply as Fraction rows, not through `SL2Matrix`, so a fault in
    the package's product cannot shape the inputs it is tested on.
    """
    (a, b), (c, d) = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    for _ in range(rng.randint(1, steps)):
        x = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if rng.random() < 0.5:  # times [[1, x], [0, 1]]
            b, d = a * x + b, c * x + d
        else:  # times [[1, 0], [x, 1]]
            a, c = a + b * x, c + d * x
    return SL2Matrix(((a, b), (c, d)))


def slice_options(n, max_strands):
    opts = []
    if n >= 2:
        for p in range(n - 1):
            opts += [("cap", p), ("x+", p), ("x-", p)]
    if n + 2 <= max_strands:
        opts += [("cup", p) for p in range(n + 1)]
    return opts


def tangle_shapes(max_strands, max_slices):
    """Every slice word whose cross-sections stay within max_strands."""
    shapes = []

    def grow(slices, n):
        shapes.append((tuple(slices), n))
        if len(slices) == max_slices:
            return
        for kind, p in slice_options(n, max_strands):
            s = Slice(kind, p, n)
            grow(slices + [s], s.out_strands)

    for n0 in range(max_strands + 1):
        grow([], n0)
    return shapes


def state_vectors(n):
    return list(itertools.product("+-", repeat=n))


def exhaustive_tangles(max_strands, max_slices):
    for slices, n_out in tangle_shapes(max_strands, max_slices):
        n_in = slices[0].in_strands if slices else n_out
        for left in state_vectors(n_in):
            for right in state_vectors(n_out):
                yield SlicedTangle(slices, left, right)


def random_tangle(rng, max_strands=4, max_slices=6):
    n0 = rng.randint(0, max_strands)
    slices = []
    n = n0
    for _ in range(rng.randint(1, max_slices)):
        opts = slice_options(n, max_strands)
        if not opts:
            break
        kind, p = rng.choice(opts)
        s = Slice(kind, p, n)
        slices.append(s)
        n = s.out_strands
    left = tuple(rng.choice("+-") for _ in range(n0))
    right = tuple(rng.choice("+-") for _ in range(n))
    return SlicedTangle(slices, left, right)
