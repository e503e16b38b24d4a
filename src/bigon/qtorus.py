"""Quantum tori, the reduced triangle algebra, and traces of normal curves.

A quantum torus is the Laurent-monomial algebra on finitely many invertible
generators x_0..x_{r-1} with x_i x_j = q^{A[i][j]} x_j x_i for an antisymmetric
integer matrix A.  Monomials are stored normal-ordered (exponent vectors), so
the product of two monomials is a single monomial times an exact power of q.

On top of that sit:

* the rank-3 torus presenting the reduced triangle algebra, with the corner
  arc dictionary sending stated corner arcs to monomials (bad arcs to 0);
* triangulations of surfaces by ideal triangles, their edge commutation
  torus, and the per-face tensor torus, assembled from the triangle's
  checked entries;
* the trace of a normal curve: its state sum over lifts at internal edge
  crossings, computed in one sweep along the curve that carries partial
  lifts with integer weights, keyed by what the rest of the curve can read:
  the junction state, the corner sums of the faces still to be revisited,
  an interned id of the face vectors already pushed, and the power of v.
  Its cost follows the number of live partial monomials.
"""

import operator

from .hopf import STATES
from .ring import ONE, Combination, HalfLaurent, add_to, format_qform, half, sweep


class SurfaceError(ValueError):
    """A triangulation or curve that does not make sense."""


# ---------------------------------------------------------------------------
# quantum tori
# ---------------------------------------------------------------------------


class QuantumTorus:
    """Finitely many invertible generators with q-power commutation.

    It is given by its antisymmetric integer commutation matrix A; the rank,
    the number of generators, is the size of A.  It keeps only `form`, the
    nonzero entries below the diagonal as (i, j, A[i][j]) with i > j in
    row-major order, which determine A.
    """

    __slots__ = ("rank", "form")

    def __init__(self, matrix):
        matrix = tuple(tuple(map(operator.index, row)) for row in matrix)
        rank = len(matrix)
        if rank < 1:
            raise ValueError("rank must be positive")
        if any(len(row) != rank for row in matrix):
            raise ValueError("commutation matrix must be %d x %d" % (rank, rank))
        for i in range(rank):
            for j in range(rank):
                if matrix[i][j] != -matrix[j][i]:
                    raise ValueError("commutation matrix must be antisymmetric")
        self.rank = rank
        self.form = tuple((i, j, row[j]) for i, row in enumerate(matrix) for j in range(i) if row[j])

    @property
    def matrix(self):
        """The dense commutation matrix A, rebuilt from `form`."""
        rows = [[0] * self.rank for _ in range(self.rank)]
        for i, j, a in self.form:
            rows[i][j], rows[j][i] = a, -a
        return tuple(map(tuple, rows))

    def __eq__(self, other):
        return isinstance(other, QuantumTorus) and (self.rank, self.form) == (other.rank, other.form)

    def __hash__(self):
        return hash((self.rank, self.form))

    def __repr__(self):
        return "QuantumTorus(rank=%d)" % self.rank


def _torus(rank, form):
    """The torus of `rank` with below-diagonal entries `form`, unchecked but for
    its rank: only for entries in row-major order that are antisymmetric by
    construction, block sums of checked tori or sums of face contributions."""
    if rank < 1:
        raise ValueError("rank must be positive")
    out = object.__new__(QuantumTorus)
    out.rank, out.form = rank, form
    return out


class QTElement(Combination):
    """Linear combination of normal-ordered torus monomials."""

    __slots__ = ()

    frame_name = "torus"

    def __init__(self, torus, terms=None):
        super().__init__(terms, torus)

    @property
    def torus(self):
        return self.frame

    def _key(self, vec):
        vec = tuple(map(operator.index, vec))
        if len(vec) != self.frame.rank:
            raise ValueError("exponent vector %r does not fit rank %d" % (vec, self.frame.rank))
        return vec

    @classmethod
    def unit(cls, torus):
        return cls(torus, {(0,) * torus.rank: ONE})

    @classmethod
    def monomial(cls, torus, vec, coeff=ONE):
        return cls(torus, {tuple(vec): coeff})

    @classmethod
    def generator(cls, torus, i, power=1):
        vec = [0] * torus.rank
        vec[i] = power
        return cls.monomial(torus, vec)

    def __repr__(self):
        return format_qtorus(self)


def _qt_element(torus, terms):
    """The element over `terms`, unchecked: only for integer keys of its rank, no zero."""
    out = object.__new__(QTElement)
    out.frame, out.terms = torus, terms
    return out


def format_qtorus(x):
    lines = []
    for vec in sorted(x.terms):
        lines.append("%s * x^(%s)" % (format_qform(x.terms[vec]), ",".join(map(str, vec))))
    return "\n".join(lines) if lines else "0"


def _reorder_power(form, k, l):
    """Exponent of q produced when x^k passes to the left of x^l, for a torus's `form`."""
    return sum(k[i] * l[j] * a for i, j, a in form)


def qt_multiply(x, y):
    form = x.torus.form
    return x.product(y, lambda k, l: (
        (tuple(a + b for a, b in zip(k, l)), half(2 * _reorder_power(form, k, l))),
    ))


def qt_power(x, n):
    """n-th power of a single monomial (n may be negative)."""
    if len(x.terms) != 1:
        raise ValueError("only monomials have canonical powers")
    if n == 0:
        return QTElement.unit(x.torus)
    if n < 0:
        return qt_power(qt_invert(x), -n)
    out = x
    for _ in range(n - 1):
        out = qt_multiply(out, x)
    return out


def qt_invert(x):
    """Inverse of a single monomial with unit coefficient."""
    if len(x.terms) != 1:
        raise ValueError("only monomials are invertible")
    ((vec, c),) = x.terms.items()
    inv_vec = tuple(-e for e in vec)
    # fix the scalar so that x * inverse == 1 exactly
    twist = half(-2 * _reorder_power(x.torus.form, vec, inv_vec))
    try:
        inverse = c**-1
    except ValueError:
        raise ValueError("coefficient %r is not invertible" % c) from None
    return QTElement.monomial(x.torus, inv_vec, twist * inverse)


# ---------------------------------------------------------------------------
# the reduced triangle algebra
# ---------------------------------------------------------------------------

# generator order: the corner opposite side slot 0, then slot 1, then slot 2
TRIANGLE = QuantumTorus(((0, -1, 1), (1, 0, -1), (-1, 1, 0)))


class StatedCornerArc:
    """A corner-cutting arc with boundary states.

    `corner` is the side slot the arc does not touch (0, 1 or 2); `states`
    is the pair of endpoint signs, second following first counterclockwise.
    """

    __slots__ = ("corner", "states")

    def __init__(self, corner, states):
        if corner not in (0, 1, 2):
            raise ValueError("corner must be 0, 1 or 2")
        states = tuple(states)
        if len(states) != 2 or any(s not in STATES for s in states):
            raise ValueError("states must be a pair of '+'/'-'")
        self.corner = corner
        self.states = states

    def __eq__(self, other):
        return (
            isinstance(other, StatedCornerArc)
            and (self.corner, self.states) == (other.corner, other.states)
        )

    def __hash__(self):
        return hash((self.corner, self.states))

    def __repr__(self):
        return "StatedCornerArc(%d, %r)" % (self.corner, "".join(self.states))


# Scalars of the mixed-state images.  The (+,-) arc at corner j maps to a
# scalar times x_{j+1} x_{j+2}^{-1}; the scalars are forced by requiring the
# corner-exchange relations to hold (each is pinned by one relation instance
# with a vanishing bad-arc term).
_MIXED_SCALAR = {0: half(-1), 1: half(1), 2: half(-1)}


def corner_arc_image(arc):
    """Image of one stated corner arc in the triangle torus."""
    j = arc.corner
    if arc.states == ("+", "+"):
        return QTElement.generator(TRIANGLE, j)
    if arc.states == ("-", "-"):
        return QTElement.generator(TRIANGLE, j, -1)
    if arc.states == ("-", "+"):
        # the bad arc: it generates the ideal killed in the reduced algebra
        return QTElement(TRIANGLE, {})
    vec = [0, 0, 0]
    vec[(j + 1) % 3] = 1
    vec[(j + 2) % 3] = -1
    return QTElement.monomial(TRIANGLE, vec, _MIXED_SCALAR[j])


def triangle_element(arcs):
    """Image of a stack of stated corner arcs, first arc innermost."""
    out = QTElement.unit(TRIANGLE)
    for arc in arcs:
        out = qt_multiply(out, corner_arc_image(arc))
    return out


# ---------------------------------------------------------------------------
# triangulations
# ---------------------------------------------------------------------------


def _label(value):
    """A face id or side label read from JSON: a string or an integer, else a TypeError."""
    if type(value) not in (str, int):
        raise TypeError("an id or label must be a string or an integer, not %s" % type(value).__name__)
    return value


def _labels(values, count):
    """A JSON list of `count` ids or labels, as a tuple; else a TypeError."""
    if type(values) is not list or len(values) != count:
        raise TypeError("expected a list of %d ids or labels" % count)
    return tuple(map(_label, values))


class Triangulation:
    """Ideal triangles glued side-to-side.

    Faces are (id, three side labels counterclockwise); gluings identify two
    distinct (face, side) slots.  Unglued sides form the boundary.
    """

    def __init__(self, faces, gluings, boundary=None):
        self.faces = []
        self._face_pos = {}
        self._slot = {}
        for fid, sides in faces:
            sides = tuple(sides)
            if fid in self._face_pos:
                raise SurfaceError("duplicate face id %r" % (fid,))
            if len(sides) != 3 or len(set(sides)) != 3:
                raise SurfaceError("face %r needs three distinct sides" % (fid,))
            self._face_pos[fid] = len(self.faces)
            self.faces.append((fid, sides))
            for slot, label in enumerate(sides):
                self._slot[(fid, label)] = slot

        self.gluings = []
        self._partner = {}
        for fa, sa, fb, sb in gluings:
            a, b = (fa, sa), (fb, sb)
            for end, other in ((a, b), (b, a)):
                if end not in self._slot:
                    raise SurfaceError("glued side %r does not exist" % (end,))
                if end in self._partner:
                    raise SurfaceError("side %r glued twice" % (end,))
                self._partner[end] = other
            self.gluings.append((a, b))

        if boundary is not None and {(f, s) for f, s in boundary} != set(self.boundary):
            raise SurfaceError("boundary list disagrees with the gluings")
        self._face_torus = ambient_torus(self) if self.faces else None

    @classmethod
    def from_dict(cls, data):
        """A triangulation from its JSON object.

        * ``faces`` (required): a list of ``{"id": ..., "sides": [s0, s1, s2]}``,
          the three side labels counterclockwise.  Ids and labels are strings
          or integers, repeated exactly by the gluings and by curves.
        * ``gluings`` (default ``[]``): a list of ``[face, side, face, side]``,
          each gluing two distinct sides; no side may be glued twice.
        * ``boundary`` (optional): a list of ``[face, side]``; when given it
          must be exactly the unglued sides, which form the boundary anyway.

        A value of another shape is a TypeError.
        """
        faces = [(_label(f["id"]), _labels(f["sides"], 3)) for f in data["faces"]]
        gluings = [_labels(g, 4) for g in data.get("gluings", [])]
        boundary = data.get("boundary")
        if boundary is not None:
            boundary = [_labels(b, 2) for b in boundary]
        return cls(faces, gluings, boundary)

    def to_dict(self):
        return {
            "faces": [{"id": fid, "sides": list(sides)} for fid, sides in self.faces],
            "gluings": [[a[0], a[1], b[0], b[1]] for a, b in self.gluings],
            "boundary": [list(side) for side in self.boundary],
        }

    @property
    def torus(self):
        """The per-face torus (`ambient_torus`), built once at construction."""
        if self._face_torus is None:
            raise ValueError("rank must be positive")
        return self._face_torus

    def face_position(self, fid):
        if fid not in self._face_pos:
            raise SurfaceError("unknown face %r" % (fid,))
        return self._face_pos[fid]

    def slot(self, fid, side):
        if (fid, side) not in self._slot:
            raise SurfaceError("face %r has no side %r" % (fid, side))
        return self._slot[(fid, side)]

    def partner(self, fid, side):
        """The (face, side) glued to this one, or None on the boundary."""
        return self._partner.get((fid, side))

    @property
    def boundary(self):
        """The unglued sides, face by face and slot by slot."""
        return [side for side in self._slot if side not in self._partner]

    @property
    def edges(self):
        """One edge per gluing, then one per boundary side: each the set of its sides."""
        return [frozenset(gluing) for gluing in self.gluings] + [frozenset((s,)) for s in self.boundary]

    def _edge_numbers(self):
        """Each (face, side) slot's index in `edges`."""
        return {side: idx for idx, edge in enumerate(self.edges) for side in edge}

    def edge_index(self, fid, side):
        return self._edge_numbers()[(fid, side)]

    def variable(self, fid, side):
        """Index of this side's generator in the per-face tensor torus."""
        return 3 * self.face_position(fid) + self.slot(fid, side)


def ambient_torus(tri):
    """Tensor product over faces of the side torus; blocks commute.

    Each face block is the triangle's torus: sides in counterclockwise order
    satisfy (later)(earlier) = q (earlier)(later) cyclically.  Its entries are
    the triangle's checked ones shifted by 3 per face, in row-major order, so
    they are not checked again and cost O(F) for F faces.
    """
    count = len(tri.faces)
    form = tuple((i + 3 * pos, j + 3 * pos, a) for pos in range(count) for i, j, a in TRIANGLE.form)
    return _torus(3 * count, form)


def chekhov_fock(tri):
    """The edge commutation torus: corner contributions summed over faces.

    Within a face, the edge after contributes +1 against the edge before.
    The sums are kept by pair of edges below the diagonal, and a pair whose
    corners cancel is dropped, so the torus costs O(F) for F faces and its
    entries are antisymmetric by construction.
    """
    numbers = tri._edge_numbers()
    rank = len(numbers) - len(tri.gluings)  # a gluing's two sides are one edge
    entries = {}
    for fid, sides in tri.faces:
        idx = [numbers[(fid, label)] for label in sides]
        for a in range(3):
            later, earlier = idx[(a + 1) % 3], idx[a]
            if later > earlier:
                add_to(entries, (later, earlier), 1)
            elif later < earlier:
                add_to(entries, (earlier, later), -1)
    return _torus(rank, tuple((i, j, a) for (i, j), a in sorted(entries.items())))


# ---------------------------------------------------------------------------
# normal curves and their traces
# ---------------------------------------------------------------------------


class NormalCurve:
    """A curve in normal position: one corner arc per face visit.

    `steps` is a list of (face id, entering side label, leaving side label);
    consecutive steps pass through a glued edge.  Open curves carry the two
    endpoint states.
    """

    def __init__(self, steps, closed=False, end_states=()):
        self.steps = [tuple(s) for s in steps]
        if not self.steps:
            raise SurfaceError("a curve needs at least one step")
        if any(len(s) != 3 for s in self.steps):
            raise SurfaceError("each step is (face, enter side, exit side)")
        self.closed = bool(closed)
        self.end_states = tuple(end_states)
        if self.closed and self.end_states:
            raise SurfaceError("closed curves carry no states")
        if not self.closed:
            if len(self.end_states) != 2 or any(s not in STATES for s in self.end_states):
                raise SurfaceError("open curves need two end states from '+'/'-'")

    @classmethod
    def from_dict(cls, data):
        """A normal curve from its JSON object.

        * ``steps`` (required): a non-empty list of
          ``{"face": id, "enter": side, "exit": side}``, one corner arc per
          face visit, in order along the curve.
        * ``closed`` (default ``false``): whether the curve is a loop, a JSON
          boolean.
        * ``states`` (default empty): the states at the first and the last
          step of an open curve, as a string such as ``"+-"`` or a list of
          ``"+"``/``"-"``; required for an open curve, absent for a loop.

        Face ids and side labels are strings or integers, ``closed`` is a
        boolean and ``states`` a string or a list of strings, else a
        TypeError.
        """
        steps = [(_label(s["face"]), _label(s["enter"]), _label(s["exit"])) for s in data["steps"]]
        closed = data.get("closed", False)
        if type(closed) is not bool:
            raise TypeError("closed must be true or false")
        states = data.get("states", "")
        if type(states) is not str and (type(states) is not list or any(type(s) is not str for s in states)):
            raise TypeError("states must be a string or a list of strings")
        return cls(steps, closed=closed, end_states=tuple(states))

    def to_dict(self):
        out = {
            "closed": self.closed,
            "steps": [{"face": f, "enter": a, "exit": b} for f, a, b in self.steps],
        }
        if not self.closed:
            out["states"] = list(self.end_states)
        return out


def _validate_curve(tri, curve):
    """Each step's (face position, entering slot, leaving slot), once `curve` is checked on `tri`."""
    placed = []
    for fid, enter, leave in curve.steps:
        e_slot, l_slot = tri.slot(fid, enter), tri.slot(fid, leave)
        if e_slot == l_slot:
            raise SurfaceError("step in face %r does not cut a corner" % (fid,))
        placed.append((tri.face_position(fid), e_slot, l_slot))
    # consecutive steps must pass through a glued edge
    m = len(curve.steps)
    junctions = m if curve.closed else m - 1
    for k in range(junctions):
        fid, _, leave = curve.steps[k]
        nfid, enter, _ = curve.steps[(k + 1) % m]
        if tri.partner(fid, leave) != (nfid, enter):
            raise SurfaceError(
                "steps %d and %d do not meet across a glued edge" % (k, (k + 1) % m)
            )
    if not curve.closed:
        first_face, first_enter, _ = curve.steps[0]
        last_face, _, last_leave = curve.steps[-1]
        if tri.partner(first_face, first_enter) is not None:
            raise SurfaceError("an open curve must start on the boundary")
        if tri.partner(last_face, last_leave) is not None:
            raise SurfaceError("an open curve must end on the boundary")
    return placed


def _add(u, w):
    """The sum of two exponent 3-vectors."""
    return (u[0] + w[0], u[1] + w[1], u[2] + w[2])


def _tri_power(k, l):
    """`_reorder_power(TRIANGLE.form, k, l)` written out: the exponent of q
    produced when x^k passes to the left of x^l in the triangle torus."""
    return k[1] * l[0] - k[2] * l[0] + k[2] * l[1]


def _push(e):
    """A triangle monomial x^e in one face block, as (v-exponent, vector).

    The corner generator x_j goes to v y_{j+1} y_{j+2}, the Weyl ordered
    monomial [y_{j+1} y_{j+2}], and both tori have the same commutation
    matrix; so x^e = v^{-R(e,e)} [x^e] goes to v^{R(w,w)-R(e,e)} y^w, where R
    is `_tri_power` and w = (e_1 + e_2, e_2 + e_0, e_0 + e_1).
    """
    w = (e[1] + e[2], e[2] + e[0], e[0] + e[1])
    return _tri_power(w, w) - _tri_power(e, e), w


def _arc_rows(corner, forward, allowed):
    """The stated corner arcs a step at `corner` can take, by the state it
    enters with: (next state, sign, v-exponent, triangle vector, v-exponent
    of the arc pushed alone, its pushed vector), for each next state in
    `allowed` whose arc is not the bad arc (-,+)."""
    rows = {}
    for state in STATES:
        row = []
        for nxt in allowed:
            arc = StatedCornerArc(corner, (state, nxt) if forward else (nxt, state))
            for vec, c in corner_arc_image(arc).terms.items():
                for exp, sign in c.items():
                    push, pushed = _push(vec)
                    row.append((nxt, sign, exp, vec, exp + push, pushed))
        rows[state] = tuple(row)
    return rows


# the rows of every step, built once: every step but a curve's last may reach
# either state, and the last only the curve's final state
_ROWS = {
    (corner, forward, allowed): _arc_rows(corner, forward, allowed)
    for corner in range(3)
    for forward in (False, True)
    for allowed in (STATES,) + tuple((s,) for s in STATES)
}


def _lift_step(key, step):
    """Extend a partial lift by the stated corner arc of one curve step.

    A lift's key is (state at the junction, `sums`, `done`, power of v).
    `sums` holds nine corner sums, three 3-vectors, for each face that has
    been visited and has visits to come, in the order the curve opens them;
    the face of this step starts at `at` there.  `done` is the id, interned
    in `table`, of the face vectors pushed so far.  Face blocks commute, and
    within a face the arcs multiply in (corner, step) order, which the curve
    fixes; so the arc's q-power comes from the face's sums at the corners up
    to its own (`before`) and after it (`after`).  A face's first visit opens
    its sums and its last pushes them into its block; a face visited once
    takes its row's pushed vector.  The step's weight is the arc's sign."""
    rows, corner, at, first, last, table = step
    state, sums, done, power = key
    if first and last:
        for nxt, sign, _, _, push, pushed in rows[state]:
            yield (nxt, sums, table.setdefault((done, pushed), len(table) + 1), power + push), sign
        return
    if first:
        # the face opens with this arc's vector at its corner, at the end of `sums`
        head, tail = sums + (0, 0, 0) * corner, (0, 0, 0) * (2 - corner)
        for nxt, sign, exp, vec, _, _ in rows[state]:
            yield (nxt, head + vec + tail, done, power + exp), sign
        return
    face = sums[at : at + 3], sums[at + 3 : at + 6], sums[at + 6 : at + 9]
    if corner == 0:
        before, after = face[0], _add(face[1], face[2])
    elif corner == 1:
        before, after = _add(face[0], face[1]), face[2]
    else:
        before, after = _add(_add(face[0], face[1]), face[2]), (0, 0, 0)
    whole = _add(before, after)
    if last:
        rest = sums[:at] + sums[at + 9 :]
    else:
        head, tail = sums[: at + 3 * corner], sums[at + 3 * corner + 3 :]
    for nxt, sign, exp, vec, _, _ in rows[state]:
        exp += power + 2 * (_tri_power(before, vec) + _tri_power(vec, after))
        if last:
            push, pushed = _push(_add(whole, vec))
            yield (nxt, rest, table.setdefault((done, pushed), len(table) + 1), exp + push), sign
        else:
            yield (nxt, head + _add(face[corner], vec) + tail, done, exp), sign


def _unwind(parents, done, order, rank):
    """The exponent vector of rank `rank` whose face vectors were pushed as
    `done`: `parents` maps an id to (the id before it, its vector), and the
    faces at positions `order` were pushed in turn; a face the curve misses
    holds y^0."""
    vec = [0] * rank
    for pos in reversed(order):
        done, pushed = parents[done]
        vec[3 * pos : 3 * pos + 3] = pushed
    return tuple(vec)


def quantum_trace(tri, curve):
    """The curve's state sum over lifts, valued in the per-face torus.

    A sweep along the curve carries partial lifts with integer weights,
    keyed by (state at the current junction, open faces' corner sums, id of
    the pushed face vectors, power of v); each curve step is a step of it
    (`_lift_step`).  A closed curve runs once per initial state and keeps
    the lifts that return to it.  The live lifts are grouped by id, each id
    is unwound into its exponent vector once, and each coefficient is built
    once at the end.  The cost is steps times live partial monomials, not
    2^junctions.
    """
    placed = _validate_curve(tri, curve)
    last_visit = {pos: k for k, (pos, _, _) in enumerate(placed)}
    table = {}  # (id before, pushed face vector) to id; the empty sequence is 0
    opened, order, steps = [], [], []
    for k, (pos, e_slot, l_slot) in enumerate(placed):
        corner = 3 - e_slot - l_slot
        # a face stays open from its first visit to its last: the curve fixes
        # where its sums sit in every lift
        first, last = pos not in opened, k == last_visit[pos]
        at = 9 * (len(opened) if first else opened.index(pos))
        if first and not last:
            opened.append(pos)
        if last:
            order.append(pos)
            if not first:
                opened.remove(pos)
        # the arc's state pair runs counterclockwise from slot corner + 2
        forward = e_slot == (corner + 2) % 3
        steps.append((_ROWS[corner, forward, STATES], corner, at, first, last, table))
    total = {}  # ids to {power of v: weight}
    for start, final in ((s, s) for s in STATES) if curve.closed else (curve.end_states,):
        # the last step, whose corner and direction the loop above ended
        # on, may only reach the final state
        steps[-1] = (_ROWS[corner, forward, (final,)],) + steps[-1][1:]
        for (_, _, done, exp), weight in sweep({(start, (), 0, 0): 1}, steps, _lift_step).items():
            add_to(total.setdefault(done, {}), exp, weight)
    parents = {done: link for link, done in table.items()}
    torus = tri.torus
    # an id whose lifts cancel across the two runs of a closed curve holds no term
    terms = {_unwind(parents, done, order, torus.rank): HalfLaurent(c) for done, c in total.items() if c}
    return _qt_element(torus, terms)


def check_balanced(tri, x):
    """True iff every monomial has equal exponents across each glued pair."""
    if x.torus != tri.torus:
        raise ValueError("element does not live in the per-face torus")
    pairs = [(tri.variable(*a), tri.variable(*b)) for a, b in tri.gluings]
    return all(vec[i] == vec[j] for vec in x.terms for i, j in pairs)
