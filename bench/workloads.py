"""Seeded request lists for the benchmark workloads.

A request is a plain tuple ``(op, size, args)``: ``op`` names an entry of
``ops.OPS``, ``size`` is the input size the per-size breakdown groups by
(degree, crossings, strands, faces or pieces), and ``args`` is JSON-like data.
This module does not import the package under test, so the program sees
only the generated inputs.

Every list is stratified: each (op, size) class gets a fixed number of
requests of a fixed shape, sent in an order that depends on the workload
only.  The seed draws the details: words where the rotation b <-> c (an
algebra automorphism) keeps the cost, free words, side labels, mirror
images, arc end states, crossing signs, TL matchings, the SL2
representation and its paths, and where each revisit lands.  The work in a
list therefore moves little from one seed to the next, which keeps the
end-to-end figures of different seeds comparable.
"""

import random
from fractions import Fraction

WORKLOADS = ("algebra", "surfaces")

_LETTERS = "abcd"


_SWAP = str.maketrans("bc", "cb")


def _rotated(rng, words):
    """The words, or their images under b <-> c: same cost, other input."""
    return tuple(w.translate(_SWAP) for w in words) if rng.random() < 0.5 else tuple(words)


def shaped(rng, h, k, l):
    """The basis word a^h x^k d^l, with x = b or c drawn from the seed."""
    return "a" * h + rng.choice("bc") * k + "d" * l


def free_word(rng, length):
    return "".join(rng.choice(_LETTERS) for _ in range(length))


def _in_fixed_order(name, fresh):
    """Shuffle by a permutation that depends on the list length only.

    Every seed then sends the same classes in the same order, so each
    request meets the same cache contents whichever words the seed drew.
    """
    random.Random(name).shuffle(fresh)
    return fresh


def _with_revisits(rng, fresh):
    """Send every request twice: once cold, once later as a revisit.

    The revisit lands at a random later position, so the package's memo
    caches see each key again after other work has passed through them.
    """
    out = list(fresh)
    for i in range(len(out) - 1, -1, -1):
        out.insert(rng.randint(i + 1, len(out)), out[i])
    return out


# ---------------------------------------------------------------------------
# algebra: hopf, braided, tangle, ring and a slice of cli
# ---------------------------------------------------------------------------


def _uword(rng, degree):
    """A U-word E^(m) K^s or F^(m) K^s and a basis word of degree it pairs with."""
    m = (degree + 1) // 2
    middle = rng.choice("bc")
    u = [("E" if middle == "b" else "F", m), ("K", rng.choice((1, -1)))]
    rng.shuffle(u)
    h = (degree - m) // 2
    return [list(t) for t in u], "a" * h + middle * m + "d" * (degree - m - h)


def algebra(rng):
    fresh = []
    for degree in range(4, 13):
        half = degree // 2
        # d^l a^h, the expensive rewriting case, twice; then a X^i d * a Y^j d
        # with X = Y and with X != Y; then two random free words
        fresh.append(("hopf.product", degree, ("d" * half, "a" * (degree - half))))
        fresh.append(("hopf.product", degree, ("d" * (half + 1), "a" * (degree - half - 1))))
        x = "a" + "b" * (half - 2) + "d"
        y = "a" + "b" * (degree - half - 2) + "d"
        for z in (y, y.translate(_SWAP)):
            fresh.append(("hopf.product", degree, _rotated(rng, (x, z))))
        fresh.append(("hopf.product", degree, (free_word(rng, half), free_word(rng, degree - half))))
        fresh.append(("hopf.coproduct", degree, (shaped(rng, degree - half, 0, half),)))
        third = degree // 3
        fresh.append(("hopf.coproduct", degree, (shaped(rng, third, degree - 2 * third, third),)))
    # the pairing forms are not symmetric under b <-> c, so their words are fixed
    for degree in range(2, 9):
        for kind, middle in (("rho", "b"), ("bar", "c"), ("mirror", "b")):
            x = "a" + middle * (degree - 2) + "d"
            y = "a" * (degree // 2) + "d" * (degree - degree // 2)
            fresh.append(("hopf.pairing_form", degree, (x, y, kind)))
    for degree in range(4, 13, 2):
        fresh.append(("hopf.antipode", degree, (shaped(rng, degree // 4, degree // 2, degree - degree // 4 - degree // 2),)))
    for degree in range(2, 9):
        for op in ("hopf.u_action", "hopf.pairing"):
            fresh.append((op, degree, _uword(rng, degree)))
    # nor are the braided products; the seed only draws the third factor z
    # of the associativity check: one generator on one of its legs
    for size in range(1, 5):
        ad = "a" * (size - size // 2) + "d" * (size // 2)
        for arity in (2, 3):
            for variant in ("standard", "mirror"):
                x = [ad] + ["b" * size] * (arity - 1)
                y = ["c" * size] + ["a" * (size // 2) + "d" * (size - size // 2)] * (arity - 1)
                z = [""] * arity
                z[rng.randrange(arity)] = rng.choice(_LETTERS)
                fresh.append(("braided.product", size, (x, y, variant, z)))
    for degree in (1, 2, 3):
        for middle in "bc":
            fresh.append(("braided.transmutation", degree, ("a" * degree, middle * degree, rng.choice(_LETTERS))))
    kinds = ("rho", "bar", "mirror")
    for l in (2, 3):
        fresh += [
            ("cli.normal_form", 6, ("d" * l, "a" * (6 - l))),
            ("cli.normal_form", 8, (free_word(rng, 4), free_word(rng, 4))),
            ("cli.normal_form", 10, _rotated(rng, ("aabbd", "accdd"))),
            ("cli.coproduct", 6, (shaped(rng, 3, 0, 3),)),
            ("cli.coproduct", 8, (shaped(rng, 2, 4, 2),)),
            ("cli.rho", 4, ("abbd", "aadd", kinds[l - 2])),
            ("cli.rho", 6, ("abbbbd", "aaaddd", kinds[l - 1])),
            ("cli.braided", 3, (["aad", "bb"], ["ccc", "ad"])),
        ]
    out = _with_revisits(rng, _in_fixed_order("algebra", fresh))
    # d^k * a^k past the depth where the recursive rewriting gives up; never
    # revisited, so that their number stays fixed
    for k in (24, 28, 32):
        out.insert(rng.randint(1, len(out)), ("hopf.product", 2 * k, ("d" * k, "a" * k)))
    # the tangle layer, whose lifts share short through-words in the caches
    places = random.Random("algebra:tangles")
    for req in _tangle_requests(rng):
        out.insert(places.randint(0, len(out)), req)
    return out


# ---------------------------------------------------------------------------
# tangle: state sums, the bracket oracle and Temperley-Lieb
# ---------------------------------------------------------------------------


def random_tangle(rng, crossings, left, cap, layout):
    """A stated tangle with `crossings` crossings on a 2 + `left` strand section.

    It opens with a cup, so the lift sweeps rather than resolving a run of
    leading crossings, and closes with a cap when `cap` is set: 2 to 6
    boundary points.  The boundary states decide how many resolutions
    survive, and so the cost; they and the crossing places come from
    `layout`, which is the same for every seed, and the seed draws the
    crossing signs.  Returned as (slice tokens, left states, right states);
    each token is (kind, position, incoming strand count).
    """
    width = left + 2
    slices = [("cup", layout.randint(0, left), left)]
    slices += [(rng.choice(("x+", "x-")), layout.randint(0, width - 2), width) for _ in range(crossings)]
    if cap:
        slices.append(("cap", layout.randint(0, width - 2), width))
    right = width - 2 if cap else width
    return slices, _signs(layout, left), _signs(layout, right)


def _signs(rng, n):
    return "".join(rng.choice("+-") for _ in range(n))


def random_matching(rng, n):
    """A random crossingless perfect matching of n left and n right points.

    Points are read around the boundary (left 0..n-1 upwards, then right
    n-1..0 downwards); a random balanced bracket word over those 2n points
    is a planar matching.
    """
    points = [("L", i) for i in range(n)] + [("R", i) for i in reversed(range(n))]
    opens = [True] * n + [False] * n
    while True:
        rng.shuffle(opens)
        depth = 0
        for o in opens:
            depth += 1 if o else -1
            if depth < 0:
                break
        else:
            break
    pairs, stack = [], []
    for point, o in zip(points, opens):
        if o:
            stack.append(point)
        else:
            pairs.append([list(stack.pop()), list(point)])
    return pairs


def _tangle_requests(rng):
    """State sums against the bracket oracle, and Temperley-Lieb products.

    Layouts, boundary states and TL diagrams come from generators that are
    the same for every seed, since they set the cost; the seed draws the
    crossing signs and which side a projector multiplies from.
    """
    out = []
    for crossings in range(2, 11):
        layout = random.Random("tangles:%d" % crossings)
        for left, cap in ((1, True), (1, False), (2, True), (2, False)):
            out.append(("tangle.statesum", crossings, random_tangle(rng, crossings, left, cap, layout)))
    for n in range(2, 6):
        layout = random.Random("tl:%d" % n)
        out.append(("tangle.tl.jones_wenzl", n, (n,)))
        if n < 5:
            out.append(("tangle.tl.square", n, (n,)))
        # JW(m) on n strands times a basis diagram, from the left or the right
        for m in (n, n, n, n - 1, n - 2)[: 3 if n == 2 else 5]:
            out.append(("tangle.tl.product", n, (m, n, random_matching(layout, n), rng.randint(0, 1))))
        out.append(("tangle.tl.hook", n, (n, layout.randint(0, n - 2), rng.randint(0, 1))))
    return out


# ---------------------------------------------------------------------------
# surfaces: qtorus and classical
# ---------------------------------------------------------------------------


def random_strip(rng, faces, cheap):
    """A strip of triangles and an arc crossing every internal edge.

    Face i is entered through side slot enters[i] and left through
    (enters[i] + turns[i]) % 3.  Faces 1 and 2 turn the same way, so an arc
    from the free side of face 1 to the free side of face 2 misses the long
    arc; the trace check uses it.  The turn pattern and the first end state
    set how many lifts die early, so they are fixed by `cheap`; the seed
    relabels the sides, picks the mirror image (which swaps the roles of the
    two first states) and draws the other states.
    """
    enters = [rng.randrange(3) for _ in range(faces)]
    turns = [1 + (i + 1) // 2 % 2 for i in range(faces)]
    first = "+" if cheap else "-"
    if rng.random() < 0.5:
        turns = [3 - t for t in turns]
        first = "-" if cheap else "+"
    return enters, turns, first + rng.choice("+-"), _signs(rng, 2)


PUNCTURED_TORUS_LOOPS = (
    (("F0", 0, 1), ("F1", 1, 0)),
    (("F0", 1, 0), ("F1", 0, 1)),
    (("F0", 0, 2), ("F1", 2, 0)),
    (("F0", 0, 1), ("F1", 1, 2), ("F0", 2, 0), ("F1", 0, 1), ("F0", 1, 2), ("F1", 2, 0)),
)

SQUARE_ARCS = (
    (("F0", 1, 2), ("F1", 2, 1)),
    (("F0", 0, 2), ("F1", 2, 0)),
    (("F0", 1, 2), ("F1", 2, 0)),
    (("F0", 0, 1),),
    (("F1", 0, 1),),
)

GENERATOR_NAMES = ("g0", "g1", "g2", "g3", "g4", "g5")


_SHEARS = tuple(Fraction(n, d) * s for n, d in ((1, 1), (1, 2), (2, 1), (3, 2)) for s in (1, -1))


def random_rep(rng):
    """Rational SL2 matrices, each the product of an upper and a lower shear.

    The shear amounts come from a fixed set; the seed picks them and the
    order, so entries grow along a path at a rate the seed barely changes.
    """
    gens = {}
    for name in GENERATOR_NAMES:
        m = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        for src, dst in rng.sample([(0, 1), (1, 0)], 2):
            t = rng.choice(_SHEARS)
            for row in m:
                row[dst] += t * row[src]
        gens[name] = [[str(e) for e in row] for row in m]
    return gens


def _path_word(rng, pieces):
    return [("~" if rng.random() < 0.3 else "") + rng.choice(GENERATOR_NAMES) for _ in range(pieces)]


def surfaces(rng):
    fresh = []
    for faces in range(4, 13):
        fresh.append(("qtorus.strip_trace", faces, (faces,) + random_strip(rng, faces, faces % 2 == 0)))
    for faces in range(4, 10):
        fresh.append(("qtorus.strip_trace", faces, (faces,) + random_strip(rng, faces, faces % 2 == 1)))
    for i, loop in enumerate(PUNCTURED_TORUS_LOOPS):
        for times in (1, 2, 3) if len(loop) == 2 else (1, 2):
            fresh.append(("qtorus.loop_trace", len(loop) * times, (i, times)))
    for i, arc in enumerate(SQUARE_ARCS):
        fresh.append(("qtorus.square_trace", len(arc), (i, _signs(rng, 2))))
    loops = len(PUNCTURED_TORUS_LOOPS)
    for a in range(loops):
        for b in range(a, loops):
            pair = (a, b) if rng.random() < 0.5 else (b, a)
            size = len(PUNCTURED_TORUS_LOOPS[a]) + len(PUNCTURED_TORUS_LOOPS[b])
            fresh.append(("qtorus.multiply", size, pair))
    rep = random_rep(rng)
    for pieces in range(4, 41, 4):
        for _ in range(3):
            fresh.append(("classical.trace_arc", pieces, (rep, _path_word(rng, pieces), _signs(rng, 2))))
        for _ in range(2):
            fresh.append(("classical.trace_loop", pieces, (rep, _path_word(rng, pieces))))
        for cuts in (1, 2):
            word = _path_word(rng, pieces)
            for _ in range(cuts):
                word.insert(rng.randint(1, len(word) - 1), "CUT")
            fresh.append(("classical.cut_check", pieces, (rep, word, _signs(rng, 2))))
    return _in_fixed_order("surfaces", fresh)


def build(workload, seed, part=0):
    """The fixed request list `part` of a workload for one seed.

    A seed makes a sequence of lists, parts 0, 1, 2, ..., all of the same
    classes; a run sends them in order, each from a fresh interpreter, so
    that its figures pool the seeded details of several lists.
    """
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r (choose from %s)" % (workload, ", ".join(WORKLOADS)))
    rng = random.Random("%s:%d:%d" % (workload, seed, part))
    return globals()[workload](rng)
