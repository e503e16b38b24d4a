"""Sliced tangle diagrams between two marked edges, and their invariants.

A diagram lives in a square with strand endpoints on the left and right
edges; it is presented as a word of elementary slices read left to right
(cap, cup, positive/negative crossing, identity spacer).  Boundary states
are +/- signs stored bottom-to-top.

Three evaluations are provided:

* ``rt_evaluate`` -- the scalar operator invariant, computed by sweeping the
  slice word across a dictionary of weighted state vectors.
* ``skein_element`` -- the same diagram as an element of the bigon algebra,
  via a single cut after the first slice: the first slice contributes stated
  arcs and generators, the remainder contributes its scalar invariant (the
  same sweep, run transposed from the right edge).
* ``kauffman_reduce`` -- an independent oracle that resolves every crossing,
  then reads off loops, returning arcs and through strands from the flat
  crossingless picture.

The same flat machinery drives the Temperley-Lieb diagram algebra and the
Jones-Wenzl idempotents at the end of the module.
"""

from __future__ import annotations

import functools

from .hopf import OqElement
from .ring import Combination, HalfLaurent, ONE, RatFunc, ZERO, add_to, half, q_int, q_power

LOOP = HalfLaurent({4: -1, -4: -1})  # value of a closed circle

# Scalar value of a returning arc on the left edge, keyed (top state, bottom
# state); a right-edge returning arc picks up the extra kink factor -q^3.
ARC = {("+", "-"): half(-1), ("-", "+"): half(-5, -1)}
KINK = HalfLaurent({6: -1})
CUP_ARC = {k: KINK * v for k, v in ARC.items()}

_GEN = {("+", "+"): "a", ("+", "-"): "b", ("-", "+"): "c", ("-", "-"): "d"}

STATES = ("+", "-")


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

    def word(self):
        return ";".join(repr(s) for s in self.slices)

    def __repr__(self):
        return "SlicedTangle(%s, %s->%s)" % (
            self.word() or "id%d" % len(self.left_states),
            "".join(self.left_states),
            "".join(self.right_states),
        )


def parse_tangle_word(text, left_states=None, n0=None):
    """Parse `cap@i`/`cup@i`/`x+@i`/`x-@i`/`idN` words into slice lists.

    The incoming strand count is taken from `left_states` or `n0` when given,
    from a leading `idN` otherwise, and failing that the smallest count that
    makes every slice legal is used.
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

    if left_states is not None:
        n0 = len(left_states)
    if n0 is None and parsed and parsed[0][0] == "id":
        n0 = parsed[0][1]
    if n0 is not None:
        return build(n0)
    last_err = None
    for guess in range(0, 65):
        try:
            return build(guess)
        except TangleError as err:
            last_err = err
    raise last_err


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
    """Local transfer tables of the slice kinds, forwards and transposed.

    A table maps the states a slice consumes at its position (bottom to top,
    two for a cap or a crossing, none for a cup) to the weighted states it
    produces there; the transposed table reads the same slice right to left.
    """
    forward = {
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
        forward[kind] = table
    backward = {}
    for kind, table in forward.items():
        back = {}
        for local_in, row in table.items():
            for local_out, w in row:
                back.setdefault(local_out, []).append((local_in, w))
        backward[kind] = back
    return forward, backward


_FORWARD, _BACKWARD = _transfer_tables()


def _sweep(states, slices, tables):
    """Push {state tuple: weight} through `slices` with the given tables."""
    for s in slices:
        if s.kind == "id":
            continue
        table = tables[s.kind]
        p = s.position
        width = len(next(iter(table)))
        out = {}
        for vec, c in states.items():
            head, tail = vec[:p], vec[p + width :]
            for local, w in table.get(vec[p : p + width], ()):
                add_to(out, head + local + tail, c * w)
        states = out
    return states


def rt_evaluate(t):
    """The operator invariant's matrix entry for the given boundary states."""
    return _sweep({t.left_states: ONE}, t.slices, _FORWARD).get(t.right_states) or ZERO


# ---------------------------------------------------------------------------
# the lift to the bigon algebra
# ---------------------------------------------------------------------------


def _through_word(left_states, right_states, skip_left=(), skip_right=()):
    """Generator word of parallel strands, multiplied top to bottom."""
    lpos = [i for i in range(len(left_states)) if i not in skip_left]
    rpos = [i for i in range(len(right_states)) if i not in skip_right]
    if len(lpos) != len(rpos):
        raise TangleError("through-strand mismatch")
    letters = []
    for i, j in zip(reversed(lpos), reversed(rpos)):
        letters.append(_GEN[(left_states[i], right_states[j])])
    return "".join(letters)


def _slice_element(s, nu, eta):
    """Stated first slice as an algebra element (None when a state kills it)."""
    p = s.position
    if s.kind == "id":
        return OqElement.from_word(_through_word(nu, eta))
    if s.kind == "cap":
        w = ARC.get((nu[p + 1], nu[p]))
        if w is None:
            return None
        word = _through_word(nu, eta, skip_left=(p, p + 1))
        return OqElement.from_word(word, w)
    if s.kind == "cup":
        w = CUP_ARC.get((eta[p + 1], eta[p]))
        if w is None:
            return None
        word = _through_word(nu, eta, skip_right=(p, p + 1))
        return OqElement.from_word(word, w)
    raise TangleError("crossings must be resolved before lifting")


def skein_element(t):
    """The element of the bigon algebra represented by the stated diagram."""
    slices = t.slices
    nu = t.left_states
    if not slices or all(s.kind == "id" for s in slices):
        return OqElement.from_word(_through_word(nu, t.right_states))
    first = slices[0]
    rest = slices[1:]
    if first.kind in ("x+", "x-"):
        # resolve the leading crossing, then lift each resolution
        straight = SlicedTangle(rest, nu, t.right_states)
        p = first.position
        turn = SlicedTangle(
            (Slice("cap", p, first.in_strands), Slice("cup", p, first.in_strands - 2))
            + rest,
            nu,
            t.right_states,
        )
        ws, wt = (q_power(1), q_power(-1)) if first.kind == "x+" else (q_power(-1), q_power(1))
        return skein_element(straight).scale(ws) + skein_element(turn).scale(wt)
    if first.kind == "id":
        return skein_element(SlicedTangle(rest, nu, t.right_states))
    # all left-boundary values of the remainder at once: {eta: invariant}
    back = _sweep({t.right_states: ONE}, reversed(rest), _BACKWARD)
    out = OqElement()
    for eta, scalar in back.items():
        if len(eta) != first.out_strands:
            continue
        piece = _slice_element(first, nu, eta)
        if piece is not None:
            out = out + piece.scale(scalar)
    return out


# ---------------------------------------------------------------------------
# independent oracle: full crossing resolution
# ---------------------------------------------------------------------------


def _resolutions(slices):
    """All crossingless resolutions as (coefficient, slice tuple) pairs."""
    out = [(ONE, [])]
    for s in slices:
        if s.kind in ("x+", "x-"):
            ws, wt = (q_power(1), q_power(-1)) if s.kind == "x+" else (q_power(-1), q_power(1))
            nxt = []
            for c, acc in out:
                nxt.append((c * ws, acc))
                nxt.append(
                    (
                        c * wt,
                        acc
                        + [Slice("cap", s.position, s.in_strands),
                           Slice("cup", s.position, s.in_strands - 2)],
                    )
                )
            out = nxt
        elif s.kind == "id":
            continue
        else:
            out = [(c, acc + [s]) for c, acc in out]
    return out


class _Strands:
    """Union-find over strand segments, tracking boundary ends and loops."""

    def __init__(self):
        self.parent = {}
        self.ends = {}
        self.loops = 0
        self._next = 0

    def fresh(self, end=None):
        sid = self._next
        self._next += 1
        self.parent[sid] = sid
        self.ends[sid] = [end] if end is not None else []
        return sid

    def find(self, sid):
        while self.parent[sid] != sid:
            self.parent[sid] = self.parent[self.parent[sid]]
            sid = self.parent[sid]
        return sid

    def join(self, s1, s2):
        r1, r2 = self.find(s1), self.find(s2)
        if r1 == r2:
            self.loops += 1
            del self.ends[r1]
            return
        self.parent[r2] = r1
        self.ends[r1] += self.ends.pop(r2)

    def close(self, sid, end):
        self.ends[self.find(sid)].append(end)


def _flat_components(slices, n_left):
    """Trace a crossingless slice word into loops and endpoint pairs."""
    tr = _Strands()
    current = [tr.fresh(("L", i)) for i in range(n_left)]
    for s in slices:
        p = s.position
        if s.kind == "cap":
            tr.join(current[p], current[p + 1])
            del current[p : p + 2]
        elif s.kind == "cup":
            fresh = tr.fresh()
            other = tr.fresh()
            tr.join(fresh, other)
            current[p:p] = [fresh, other]
        elif s.kind == "id":
            continue
        else:
            raise TangleError("crossing survived resolution")
    for j, sid in enumerate(current):
        tr.close(sid, ("R", j))
    pairs = []
    for root, ends in tr.ends.items():
        if tr.find(root) != root:
            continue
        if len(ends) != 2:
            raise TangleError("open strand in flat tracing")
        pairs.append(tuple(sorted(ends)))
    return tr.loops, pairs


def evaluate_matching(pairs, left_states, right_states, loops=0):
    """Value of a crossingless stated diagram given as endpoint pairs."""
    scalar = LOOP ** loops
    through = []
    for e1, e2 in pairs:
        side1, i1 = e1
        side2, i2 = e2
        if side1 == side2:
            lo, hi = min(i1, i2), max(i1, i2)
            table = ARC if side1 == "L" else CUP_ARC
            states = left_states if side1 == "L" else right_states
            w = table.get((states[hi], states[lo]))
            if w is None:
                return OqElement()
            scalar = scalar * w
        else:
            if side1 == "R":
                (side1, i1), (side2, i2) = (side2, i2), (side1, i1)
            through.append((i1, i2))
    word = "".join(
        _GEN[(left_states[i], right_states[j])] for i, j in sorted(through, reverse=True)
    )
    return OqElement.from_word(word, scalar)


def kauffman_reduce(t):
    """Resolve all crossings, then evaluate each flat diagram directly."""
    out = OqElement()
    for coeff, slices in _resolutions(t.slices):
        loops, pairs = _flat_components(slices, len(t.left_states))
        piece = evaluate_matching(pairs, t.left_states, t.right_states, loops)
        out = out + piece.scale(coeff)
    return out


# ---------------------------------------------------------------------------
# Temperley-Lieb algebra and Jones-Wenzl idempotents
# ---------------------------------------------------------------------------

DELTA = RatFunc(LOOP)


class TLDiagram:
    """A crossingless perfect matching of n left and n right points."""

    __slots__ = ("n", "pairs")

    def __init__(self, n, pairs):
        pairs = frozenset(frozenset(p) for p in pairs)
        count = sum(len(p) for p in pairs)
        if count != 2 * n or len(pairs) != n:
            raise TangleError("matching must pair up all 2n points")
        self.n = n
        self.pairs = pairs

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


def _concat_diagrams(d1, d2):
    """Glue d1's right side to d2's left side; return (diagram pairs, loops)."""
    adj = {}

    def add_edge(u, v):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    for p in d1.pairs:
        u, v = tuple(p)
        add_edge(("A",) + u, ("A",) + v)
    for p in d2.pairs:
        u, v = tuple(p)
        add_edge(("B",) + u, ("B",) + v)
    for i in range(d1.n):
        add_edge(("A", "R", i), ("B", "L", i))

    seen = set()
    pairs = []
    loops = 0

    def boundary(node):
        tag, side, i = node
        if tag == "A" and side == "L":
            return ("L", i)
        if tag == "B" and side == "R":
            return ("R", i)
        return None

    # boundary nodes have one edge, glued interior nodes have two, so every
    # component is either a boundary-to-boundary path or an interior cycle
    for start in list(adj):
        if start in seen or boundary(start) is None:
            continue
        seen.add(start)
        path_ends = [boundary(start)]
        prev, node = None, start
        while True:
            step = [x for x in adj[node] if x != prev]
            if not step:
                break
            prev, node = node, step[0]
            seen.add(node)
            b = boundary(node)
            if b is not None:
                path_ends.append(b)
                break
        if len(path_ends) != 2:
            raise TangleError("glued diagram left an open strand")
        pairs.append(tuple(path_ends))

    for start in list(adj):
        if start in seen:
            continue
        loops += 1
        prev, node = None, start
        while node not in seen:
            seen.add(node)
            step = [x for x in adj[node] if x != prev]
            prev, node = node, step[0]
    return pairs, loops


class TLElement(Combination):
    __slots__ = ()

    frame_name = "strand count"
    frame_error = TangleError

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

    def __mul__(self, other):
        if isinstance(other, (RatFunc, HalfLaurent, int)):
            return self.scale(other)
        return tl_product(self, other)

    __rmul__ = __mul__

    def embed(self, n):
        return TLElement(n, {d.embed(n): c for d, c in self.terms.items()})

    def identity_coefficient(self):
        return self.terms.get(TLDiagram.identity(self.n), RatFunc(ZERO))


def tl_product(x, y):
    x._check_frame(y)
    out = {}
    for d1, c1 in x.terms.items():
        for d2, c2 in y.terms.items():
            pairs, loops = _concat_diagrams(d1, d2)
            coeff = c1 * c2
            for _ in range(loops):
                coeff = coeff * DELTA
            add_to(out, TLDiagram(x.n, pairs), coeff)
    return x._with(out)


@functools.lru_cache(maxsize=None)
def jones_wenzl(n):
    """The n-strand idempotent killing every hook generator."""
    if n < 1:
        raise TangleError("defined for n >= 1")
    if n == 1:
        return TLElement.identity(1)
    prev = jones_wenzl(n - 1).embed(n)
    coeff = RatFunc(q_int(n - 1), q_int(n))
    hook = TLElement.hook(n, n - 2)
    return prev + (prev * hook * prev).scale(coeff)


def matching_to_slices(pairs, n_left, n_right):
    """Express a crossingless matching as a cap/cup slice word."""

    def peel(points, partner):
        ops = []
        pts = list(points)
        changed = True
        while changed:
            changed = False
            for p in range(len(pts) - 1):
                if partner.get(pts[p]) == pts[p + 1]:
                    ops.append((p, len(pts)))
                    del pts[p : p + 2]
                    changed = True
                    break
        return ops, pts

    partner = {}
    for e1, e2 in (tuple(p) for p in pairs):
        partner[e1] = e2
        partner[e2] = e1
    left_pts = [("L", i) for i in range(n_left)]
    right_pts = [("R", i) for i in range(n_right)]
    caps, _ = peel(left_pts, partner)
    cups_rev, _ = peel(right_pts, partner)

    slices = []
    n = n_left
    for p, _total in caps:
        slices.append(Slice("cap", p, n))
        n -= 2
    for p, _total in reversed(cups_rev):
        slices.append(Slice("cup", p, n))
        n += 2
    if n != n_right:
        raise TangleError("matching is not crossingless")
    return slices


def stated_diagram_element(diagram, left_states, right_states):
    """Map a stated crossingless matching through the algebra lift."""
    slices = matching_to_slices(diagram.pairs, diagram.n, diagram.n)
    return skein_element(SlicedTangle(slices, left_states, right_states))
