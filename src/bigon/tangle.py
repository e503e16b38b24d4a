"""Sliced tangle diagrams between two marked edges, and their invariants.

A diagram lives in a square with strand endpoints on the left and right
edges; it is presented as a word of elementary slices read left to right
(cap, cup, positive/negative crossing, identity spacer).  Boundary states
are +/- signs stored bottom-to-top.

Three evaluations are provided:

* ``rt_evaluate`` -- the scalar operator invariant, computed by sweeping the
  slice word from left to right across a dictionary of weighted state vectors.
* ``skein_element`` -- the same diagram as an element of the bigon algebra.
  Cutting the diagram just before its right edge is the coproduct, and the
  counit of the left piece is the scalar invariant, so the same sweep gives
  the weight of every state vector on the cut; each vector then contributes
  the parallel strands from it to the right states.
* ``kauffman_reduce`` -- an independent oracle, the Kauffman bracket: a sweep
  over flat pictures that resolves each crossing both ways, counts closed
  loops as it goes and merges equal pictures, then reads returning arcs and
  through strands off each distinct picture at the right edge.

The same flat machinery drives the Temperley-Lieb diagram algebra and the
Jones-Wenzl idempotents at the end of the module: two diagrams glue by
running the second one's cap/cup word, slice by slice, on the flat picture
at the first one's right edge.  One bracket walk over the endpoints
(``_bracket_walk``) checks that pairs form a crossingless matching and
writes its cap/cup word.  Temperley-Lieb products run fraction-free, over
one denominator per element, and JW(n) is kept over [n]!: the single-clasp
expansion builds it from JW(n-1) with no division.
"""

from __future__ import annotations

import functools
import math

from .hopf import STATE_LETTERS, STATES, OqElement, normal_word
from .ring import Combination, HalfLaurent, ONE, RatFunc, ZERO, add_to, half
from .ring import expand, q_int, q_power, sweep

LOOP = HalfLaurent({4: -1, -4: -1})  # value of a closed circle

# Scalar value of a returning arc on the left edge, keyed (top state, bottom
# state); a right-edge returning arc picks up the extra kink factor -q^3.
ARC = {("+", "-"): half(-1), ("-", "+"): half(-5, -1)}
KINK = HalfLaurent({6: -1})
CUP_ARC = {k: KINK * v for k, v in ARC.items()}


class TangleError(ValueError):
    """Structurally invalid slice word or state assignment."""


class Slice:
    """One elementary column: kind in {"cap","cup","x+","x-","id"}.

    `position` is the bottom-based index of the lower strand the column acts
    on; `in_strands` counts strands entering from the left.
    """

    __slots__ = ("kind", "position", "in_strands")

    def __init__(self, kind, position, in_strands):
        if kind not in ("cap", "cup", "x+", "x-", "id"):
            raise TangleError("unknown slice kind %r" % kind)
        if position < 0 or in_strands < 0:
            raise TangleError("negative slice geometry")
        if kind == "cap" and in_strands < position + 2:
            raise TangleError("cap@%d needs at least %d strands" % (position, position + 2))
        if kind in ("x+", "x-") and in_strands < position + 2:
            raise TangleError("crossing@%d needs at least %d strands" % (position, position + 2))
        if kind == "cup" and position > in_strands:
            raise TangleError("cup@%d cannot attach above %d strands" % (position, in_strands))
        if kind == "id" and position:
            raise TangleError("identity slices carry no position")
        self.kind = kind
        self.position = position
        self.in_strands = in_strands

    @property
    def out_strands(self):
        if self.kind == "cap":
            return self.in_strands - 2
        if self.kind == "cup":
            return self.in_strands + 2
        return self.in_strands

    def __repr__(self):
        if self.kind == "id":
            return "id%d" % self.in_strands
        return "%s@%d" % (self.kind, self.position)

    def __eq__(self, other):
        return (
            isinstance(other, Slice)
            and (self.kind, self.position, self.in_strands)
            == (other.kind, other.position, other.in_strands)
        )

    def __hash__(self):
        return hash((self.kind, self.position, self.in_strands))


class SlicedTangle:
    __slots__ = ("slices", "left_states", "right_states")

    def __init__(self, slices, left_states, right_states):
        left_states = tuple(left_states)
        right_states = tuple(right_states)
        n = len(left_states)
        for s in slices:
            if s.in_strands != n:
                raise TangleError(
                    "slice %r expects %d strands but %d arrive" % (s, s.in_strands, n)
                )
            n = s.out_strands
        if n != len(right_states):
            raise TangleError(
                "tangle ends with %d strands but %d right states given"
                % (n, len(right_states))
            )
        for st in left_states + right_states:
            if st not in STATES:
                raise TangleError("states must be '+' or '-', got %r" % st)
        self.slices = tuple(slices)
        self.left_states = left_states
        self.right_states = right_states

    def __repr__(self):
        return "SlicedTangle(%s, %s->%s)" % (
            format_tangle_word(self.slices, len(self.left_states)),
            "".join(self.left_states),
            "".join(self.right_states),
        )


def parse_tangle_word(text, n0=None):
    """Parse `cap@i`/`cup@i`/`x+@i`/`x-@i`/`idN` words into slice lists.

    The incoming strand count is `n0` when given, that of a leading `idN`
    otherwise, and failing that it is the least count that makes every slice
    legal, found in one pass over the slices.
    """
    text = text.strip()
    tokens = [t.strip() for t in text.split(";") if t.strip()] if text else []
    parsed = []
    for tok in tokens:
        if tok.startswith("id"):
            try:
                parsed.append(("id", int(tok[2:])))
            except ValueError:
                raise TangleError("bad identity token %r" % tok) from None
            continue
        if "@" not in tok:
            raise TangleError("missing @position in %r" % tok)
        kind, _, pos = tok.partition("@")
        if kind not in ("cap", "cup", "x+", "x-"):
            raise TangleError("unknown slice %r" % tok)
        try:
            parsed.append((kind, int(pos)))
        except ValueError:
            raise TangleError("bad position in %r" % tok) from None

    def build(n):
        slices = []
        for kind, arg in parsed:
            if kind == "id":
                if arg != n:
                    raise TangleError("id%d reached with %d strands" % (arg, n))
                slices.append(Slice("id", 0, n))
            else:
                slices.append(Slice(kind, arg, n))
                n = slices[-1].out_strands
        return slices, n

    if n0 is None and parsed and parsed[0][0] == "id":
        n0 = parsed[0][1]
    if n0 is None:
        # each slice needs a least strand count where it stands (an identity
        # slice an exact one); `shift` is the count gained since the left edge
        n0 = shift = 0
        for kind, arg in parsed:
            n0 = max(n0, (arg if kind in ("cup", "id") else arg + 2) - shift)
            shift += {"cap": -2, "cup": 2}.get(kind, 0)
    return build(n0)


def format_tangle_word(slices, n0=None):
    """Canonical word text; a leading idN records the incoming strand count."""
    if slices:
        n0 = slices[0].in_strands
    elif n0 is None:
        raise TangleError("empty slice list needs an explicit strand count")
    tokens = [] if slices and slices[0].kind == "id" else ["id%d" % n0]
    tokens += [repr(s) for s in slices]
    return ";".join(tokens)


# ---------------------------------------------------------------------------
# the scalar invariant
# ---------------------------------------------------------------------------


def _transfer_tables():
    """Local transfer tables of the slice kinds, read from left to right.

    A table maps the states a slice consumes at its position (bottom to top,
    two for a cap or a crossing, none for a cup) to the weighted states it
    produces there.
    """
    tables = {
        "cap": {(b, t): (((), w),) for (t, b), w in ARC.items()},
        "cup": {(): tuple(((b, t), w) for (t, b), w in CUP_ARC.items())},
    }
    pairs = (("+", "+"), ("+", "-"), ("-", "+"), ("-", "-"))
    for kind, straight, turn in (("x+", q_power(1), q_power(-1)), ("x-", q_power(-1), q_power(1))):
        # a crossing sends the top-to-bottom state pair lam to mu, either
        # straight through or by turning back as a cap followed by a cup
        table = {}
        for lam in pairs:
            row = []
            for mu in pairs:
                w = straight if lam == mu else ZERO
                if lam in ARC and mu in CUP_ARC:
                    w = w + turn * ARC[lam] * CUP_ARC[mu]
                if w:
                    row.append(((mu[1], mu[0]), w))
            table[(lam[1], lam[0])] = tuple(row)
        tables[kind] = table
    return tables


_TABLES = _transfer_tables()
_WIDTH = {kind: len(next(iter(table))) for kind, table in _TABLES.items()}  # states consumed


def _slice_step(vec, step):
    """The states a slice consumes at [p, end) replaced by each row of its table."""
    table, p, end = step
    for local, w in table.get(vec[p:end], ()):
        yield vec[:p] + local + vec[end:], w


def _sweep(states, slices):
    """Push {state tuple: weight} through `slices`, left to right, one step
    (`_slice_step`: table, position, end of the consumed states) per slice."""
    steps = [(_TABLES[s.kind], s.position, s.position + _WIDTH[s.kind]) for s in slices if s.kind != "id"]
    return sweep(states, steps, _slice_step)


def rt_evaluate(t):
    """The operator invariant's matrix entry for the given boundary states."""
    return _sweep({t.left_states: ONE}, t.slices).get(t.right_states) or ZERO


# ---------------------------------------------------------------------------
# the lift to the bigon algebra
# ---------------------------------------------------------------------------


def _strand_step(key, step):
    """Multiply on the strand from the cut's state eta[i] to the right state at i."""
    eta, word = key
    i, right = step
    for mono, s in normal_word(word + STATE_LETTERS[eta[i] + right]):
        yield (eta[:i], mono), s


def skein_element(t):
    """The element of the bigon algebra represented by the stated diagram.

    The diagram is its own left part glued to parallel strands at the right
    edge, so it lifts to the sum over the states eta on that cut of the
    invariant from the left states to eta times the strands from eta to the
    right states.  Each strand is a step from the top down (`_strand_step`),
    and terms that agree on the states still to come and on the product so
    far merge, so a sum that collapses (as it does under a cup) stays small.
    """
    terms = {(eta, ""): c for eta, c in _sweep({t.left_states: ONE}, t.slices).items()}
    terms = sweep(terms, reversed(list(enumerate(t.right_states))), _strand_step)
    return OqElement({word: c for (_, word), c in terms.items()})


# ---------------------------------------------------------------------------
# independent oracle: Kauffman bracket resolution
# ---------------------------------------------------------------------------

# (straight, turn-back) weights of the two resolutions of a crossing
_KAUFFMAN = {"x+": (q_power(1), q_power(-1)), "x-": (q_power(-1), q_power(1))}
_FRESH = ("C", -1)  # the token of a new cup's two strands, before renumbering


def _canonical(labels):
    """Cup tokens renumbered in order of position, so equal pictures are equal keys."""
    names = {}
    return tuple(x if x[0] == "L" else names.setdefault(x, ("C", len(names))) for x in labels)


def _cap(key, p):
    """Join strands p and p+1 of a flat picture: (picture, factor)."""
    labels, closed = key
    a, b = labels[p], labels[p + 1]
    rest = labels[:p] + labels[p + 2 :]
    if a == b:  # the two ends of one arc: a closed loop
        return (_canonical(rest), closed), LOOP
    if a[0] == b[0] == "L":
        return (rest, closed | {(a, b)}), ONE
    if a[0] == "L":
        a, b = b, a
    # the other strand carrying a's token now ends where b's far end does
    return (_canonical(tuple(b if x == a else x for x in rest)), closed), ONE


def _cup(key, p):
    labels, closed = key
    return _canonical(labels[:p] + (_FRESH, _FRESH) + labels[p:]), closed


def _flat_step(key, step):
    """One slice on a flat picture; a crossing yields both its resolutions,
    straight through and turned back (a cap, then a cup)."""
    kind, p = step
    if kind == "cup":
        yield _cup(key, p), ONE
    elif kind == "cap":
        yield _cap(key, p)
    else:
        straight, turn = _KAUFFMAN[kind]
        yield key, straight
        capped, w = _cap(key, p)
        yield _cup(capped, p), w * turn


def _left_edge(n):
    """The flat picture at a left edge of n points: each strand carries its own end."""
    return tuple(("L", i) for i in range(n)), frozenset()


def _endpoint_pairs(key):
    """The endpoint pairs of a flat picture at the right edge."""
    labels, closed = key
    ends = {}
    for j, x in enumerate(labels):
        ends.setdefault(x, [x] if x[0] == "L" else []).append(("R", j))
    return list(closed) + list(ends.values())


def _picture_value(key, left_states, right_states):
    """The stated element of a flat picture at the right edge, as (word, coeff) pairs."""
    return evaluate_matching(_endpoint_pairs(key), left_states, right_states).terms.items()


def _bracket_walk(pairs, n_left, n_right):
    """Walk each edge bottom to top, closing its arcs like brackets.

    Returns (caps, cups, through): the left and the right edge's arcs,
    innermost first, as (position, bottom, top), where position counts the
    points still open below the arc as it closes; then the (left, right)
    ends of the strands across, bottom to top.  Raises TangleError unless
    `pairs` is a crossingless perfect matching of n_left left and n_right
    right points.
    """
    points = {(side, i) for side, n in (("L", n_left), ("R", n_right)) for i in range(n)}
    pairs = [tuple(pair) for pair in pairs]
    partner = {pair[k]: pair[1 - k] for pair in pairs if len(pair) == 2 for k in (0, 1)}

    def walk(side, n):
        stack, arcs = [], []
        for i in range(n):
            if stack and partner.get((side, i)) == (side, stack[-1]):
                arcs.append((len(stack) - 1, stack.pop(), i))
            else:
                stack.append(i)
        return arcs, stack

    (caps, left), (cups, right) = walk("L", n_left), walk("R", n_right)
    through = list(zip(left, right))
    if (
        partner.keys() != points
        or 2 * len(pairs) != len(points)
        or len(left) != len(right)
        or any(partner[("L", i)] != ("R", j) for i, j in through)
    ):
        raise TangleError("not a crossingless matching of %d left and %d right points" % (n_left, n_right))
    return caps, cups, through


def evaluate_matching(pairs, left_states, right_states):
    """Value of a crossingless stated diagram given as endpoint pairs."""
    caps, cups, through = _bracket_walk(pairs, len(left_states), len(right_states))
    scalar = ONE
    for arcs, table, states in ((caps, ARC, left_states), (cups, CUP_ARC, right_states)):
        for _, lo, hi in arcs:
            w = table.get((states[hi], states[lo]))
            if w is None:
                return OqElement()
            scalar = scalar * w
    word = "".join(STATE_LETTERS[left_states[i] + right_states[j]] for i, j in reversed(through))
    return OqElement.from_word(word, scalar)


def kauffman_reduce(t):
    """Resolve every crossing both ways, slice by slice, as a sweep over flat
    pictures (`_flat_step`); then evaluate each distinct picture once.

    A picture is one label per current strand and the set of left-left arcs
    already closed.  A strand whose far end is on the left edge carries that
    end, ("L", i); the two ends of an arc born in cups share a token ("C", n).
    Equal pictures merge, so the cost follows the pictures, not the 2^c
    resolutions.
    """
    steps = [(s.kind, s.position) for s in t.slices if s.kind != "id"]
    pictures = sweep({_left_edge(len(t.left_states)): ONE}, steps, _flat_step)
    return OqElement(expand(pictures, lambda key: _picture_value(key, t.left_states, t.right_states)))


# ---------------------------------------------------------------------------
# Temperley-Lieb algebra and Jones-Wenzl idempotents
# ---------------------------------------------------------------------------


class TLDiagram:
    """A crossingless perfect matching of n left and n right points."""

    __slots__ = ("n", "pairs")

    def __init__(self, n, pairs):
        pairs = frozenset(frozenset(p) for p in pairs)
        _bracket_walk(pairs, n, n)
        self.n = n
        self.pairs = pairs

    @classmethod
    def _matching(cls, n, pairs):
        """The diagram of pairs already known to be a crossingless matching."""
        d = object.__new__(cls)
        d.n, d.pairs = n, frozenset(frozenset(p) for p in pairs)
        return d

    @classmethod
    def identity(cls, n):
        return cls(n, [(("L", i), ("R", i)) for i in range(n)])

    @classmethod
    def e(cls, n, i):
        """The hook generator joining strands i and i+1 on both sides."""
        if not 0 <= i < n - 1:
            raise TangleError("e_%d does not fit in %d strands" % (i, n))
        pairs = [(("L", i), ("L", i + 1)), (("R", i), ("R", i + 1))]
        pairs += [(("L", j), ("R", j)) for j in range(n) if j not in (i, i + 1)]
        return cls(n, pairs)

    def embed(self, n):
        """Add straight strands on top to reach n total."""
        pairs = [tuple(p) for p in self.pairs]
        pairs += [(("L", j), ("R", j)) for j in range(self.n, n)]
        return TLDiagram(n, pairs)

    def __eq__(self, other):
        return isinstance(other, TLDiagram) and (self.n, self.pairs) == (other.n, other.pairs)

    def __hash__(self):
        return hash((self.n, self.pairs))

    def __repr__(self):
        bits = sorted(tuple(sorted(p)) for p in self.pairs)
        return "TL%d{%s}" % (
            self.n,
            ", ".join("%s%d:%s%d" % (p[0][0], p[0][1], p[1][0], p[1][1]) for p in bits),
        )


@functools.lru_cache(maxsize=None)
def _flat_diagram(d):
    """The (kind, position) steps of a diagram's cap/cup slice word, and the
    flat picture they leave at its right edge: at most Catalan(n) entries."""
    steps = tuple((s.kind, s.position) for s in matching_to_slices(d.pairs, d.n, d.n))
    (picture,) = sweep({_left_edge(d.n): ONE}, steps, _flat_step)
    return steps, picture


def _glue_diagrams(d1, d2):
    """Glue d1's right side to d2's left side; return (loops, endpoint pairs).

    d2's cap/cup word runs on the flat picture at d1's right edge, one
    `_flat_step` of the bracket sweep per slice; a cap that closes a loop
    is one whose factor is LOOP.
    """
    picture, loops = _flat_diagram(d1)[1], 0
    for step in _flat_diagram(d2)[0]:
        ((picture, w),) = _flat_step(picture, step)
        loops += w == LOOP
    return loops, _endpoint_pairs(picture)


def _glue_sum(x, y):
    """The {diagram: numerator} product of two such maps: for each left diagram, the
    right numerators summed per gluing and their loop factors per output diagram,
    then one product with the left numerator per output diagram."""
    out = {}
    for d1, c1 in x.items():
        glued, looped = {}, {}
        for d2, c2 in y.items():
            loops, pairs = _glue_diagrams(d1, d2)
            add_to(glued, (TLDiagram._matching(d1.n, pairs), loops), c2)
        for (d, loops), c in glued.items():
            add_to(looped, d, c * LOOP**loops)
        for d, c in looped.items():
            add_to(out, d, c1 * c)
    return out


class TLElement(Combination):
    __slots__ = ("_common",)

    frame_name = "strand count"
    frame_error = TangleError
    scalars = (RatFunc, HalfLaurent, int)

    def __init__(self, n, terms=None):
        super().__init__(terms, n)

    @property
    def n(self):
        return self.frame

    @classmethod
    def identity(cls, n):
        return cls(n, {TLDiagram.identity(n): RatFunc(ONE)})

    @classmethod
    def hook(cls, n, i):
        return cls(n, {TLDiagram.e(n, i): RatFunc(ONE)})

    def _times(self, other):
        return tl_product(self, other)

    def embed(self, n):
        return TLElement(n, {d.embed(n): c for d, c in self.terms.items()})

    def identity_coefficient(self):
        return self.terms.get(TLDiagram.identity(self.n), RatFunc(ZERO))

    def _fraction_free(self):
        """(D, {diagram: c * D}), D the product of the distinct denominators, built once.

        Each numerator is multiplied by the other distinct denominators.
        Everything the package builds has one denominator, so each
        coefficient is already over D and keeps its numerator.
        """
        if not hasattr(self, "_common"):
            dens = {c.den for c in self.terms.values()}
            self._common = math.prod(dens, start=ONE), {
                k: math.prod((d for d in dens if d != c.den), start=c.num) for k, c in self.terms.items()
            }
        return self._common


def tl_product(x, y):
    """x*y, fraction-free: numerators over the product of the common denominators."""
    x._check_frame(y)
    (dx, nx), (dy, ny) = x._fraction_free(), y._fraction_free()
    den = dx * dy
    return x._with({d: RatFunc(c, den) for d, c in _glue_sum(nx, ny).items()})


@functools.lru_cache(maxsize=None)
def jones_wenzl(n):
    """The n-strand idempotent killing every hook generator, kept over [n]!.

    The single-clasp expansion (Morrison; Frenkel-Khovanov): with JW(n-1) =
    N / [n-1]! on n strands and D_k = e_(n-2) e_(n-3) ... e_k, one diagram,
    [n]! JW(n) = [n] N + sum over k < n-1 of [k+1] N D_k.  Each D_k is D_(k+1)
    glued to one more hook, and nothing is divided.
    """
    if n < 1:
        raise TangleError("defined for n >= 1")
    if n == 1:
        return TLElement.identity(1)
    den, prev = jones_wenzl(n - 1)._fraction_free()
    prev = {d.embed(n): c for d, c in prev.items()}
    terms = {d: q_int(n) * c for d, c in prev.items()}
    clasp = TLDiagram.e(n, n - 2)
    for k in reversed(range(n - 1)):
        if k < n - 2:
            clasp = TLDiagram._matching(n, _glue_diagrams(clasp, TLDiagram.e(n, k))[1])
        for d, c in _glue_sum(prev, {clasp: q_int(k + 1)}).items():
            add_to(terms, d, c)
    den = q_int(n) * den
    return TLElement(n)._with({d: RatFunc(c, den) for d, c in terms.items()})


def matching_to_slices(pairs, n_left, n_right):
    """Express a crossingless matching as a cap/cup slice word: the left
    edge's arcs close as caps, innermost first, then the right edge's arcs
    open as cups, outermost first."""
    caps, cups, _ = _bracket_walk(pairs, n_left, n_right)
    slices = [Slice("cap", p, n_left - 2 * k) for k, (p, _, _) in enumerate(caps)]
    n = n_left - 2 * len(caps)
    slices += [Slice("cup", p, n + 2 * k) for k, (p, _, _) in enumerate(reversed(cups))]
    return slices
