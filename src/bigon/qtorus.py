"""Quantum tori, the reduced triangle algebra, and traces of normal curves.

A quantum torus is the Laurent-monomial algebra on finitely many invertible
generators x_0..x_{r-1} with x_i x_j = q^{A[i][j]} x_j x_i for an antisymmetric
integer matrix A.  Monomials are stored normal-ordered (exponent vectors), so
the product of two monomials is a single monomial times an exact power of q.

On top of that sit:

* the rank-3 torus presenting the reduced triangle algebra, with the corner
  arc dictionary sending stated corner arcs to monomials (bad arcs to 0);
* triangulations of surfaces by ideal triangles, their edge commutation
  torus, and the per-face tensor torus;
* the trace of a normal curve: a state sum over lifts at internal edge
  crossings whose face contributions are corner-arc products pushed into the
  per-face torus.
"""

import itertools
import json

from .ring import ONE, Combination, add_to, half


class SurfaceError(ValueError):
    """A triangulation or curve that does not make sense."""


# ---------------------------------------------------------------------------
# quantum tori
# ---------------------------------------------------------------------------


class QuantumTorus:
    """Finitely many invertible generators with q-power commutation."""

    __slots__ = ("rank", "matrix")

    def __init__(self, rank, matrix):
        if rank < 1:
            raise ValueError("rank must be positive")
        matrix = tuple(tuple(int(e) for e in row) for row in matrix)
        if len(matrix) != rank or any(len(row) != rank for row in matrix):
            raise ValueError("commutation matrix must be %d x %d" % (rank, rank))
        for i in range(rank):
            for j in range(rank):
                if matrix[i][j] != -matrix[j][i]:
                    raise ValueError("commutation matrix must be antisymmetric")
        self.rank = rank
        self.matrix = matrix

    def __eq__(self, other):
        return (
            isinstance(other, QuantumTorus)
            and (self.rank, self.matrix) == (other.rank, other.matrix)
        )

    def __hash__(self):
        return hash((self.rank, self.matrix))

    def __repr__(self):
        return "QuantumTorus(rank=%d)" % self.rank


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
        vec = tuple(int(e) for e in vec)
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
        bits = []
        for vec, c in sorted(self.terms.items()):
            mono = "*".join(
                "x%d^%d" % (i, e) if e != 1 else "x%d" % i for i, e in enumerate(vec) if e
            )
            bits.append("(%s)%s" % (c.qform(), "*" + mono if mono else ""))
        return " + ".join(bits) if bits else "0"


def _reorder_power(matrix, k, l):
    """Exponent of q produced when x^k passes to the left of x^l."""
    total = 0
    for i, ki in enumerate(k):
        if not ki:
            continue
        row = matrix[i]
        for j in range(i):
            lj = l[j]
            if lj:
                total += ki * lj * row[j]
    return total


def qt_multiply(x, y):
    x._check_frame(y)
    matrix = x.torus.matrix
    terms = {}
    for k, ck in x.terms.items():
        for l, cl in y.terms.items():
            c = ck * cl * half(2 * _reorder_power(matrix, k, l))
            add_to(terms, tuple(a + b for a, b in zip(k, l)), c)
    return x._with(terms)


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
    twist = half(-2 * _reorder_power(x.torus.matrix, vec, inv_vec))
    if len(c.items()) != 1:
        raise ValueError("coefficient %r is not invertible" % c)
    ((exp, lead),) = c.items()
    if lead not in (1, -1):
        raise ValueError("coefficient %r is not invertible" % c)
    return QTElement.monomial(x.torus, inv_vec, twist * half(-exp, lead))


# ---------------------------------------------------------------------------
# the reduced triangle algebra
# ---------------------------------------------------------------------------

# generator order: the corner opposite side slot 0, then slot 1, then slot 2
TRIANGLE = QuantumTorus(3, ((0, -1, 1), (1, 0, -1), (-1, 1, 0)))

STATES = ("+", "-")


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


class Triangulation:
    """Ideal triangles glued side-to-side.

    Faces are (id, three side labels counterclockwise); gluings identify two
    distinct (face, side) slots.  Unglued sides form the boundary.
    """

    def __init__(self, faces, gluings, boundary=None):
        self.faces = []
        self._face_pos = {}
        seen_sides = {}
        for fid, sides in faces:
            sides = tuple(sides)
            if fid in self._face_pos:
                raise SurfaceError("duplicate face id %r" % (fid,))
            if len(sides) != 3 or len(set(sides)) != 3:
                raise SurfaceError("face %r needs three distinct sides" % (fid,))
            self._face_pos[fid] = len(self.faces)
            self.faces.append((fid, sides))
            for slot, label in enumerate(sides):
                seen_sides[(fid, label)] = slot
        self._slot = seen_sides

        self.gluings = []
        used = set()
        for fa, sa, fb, sb in gluings:
            a, b = (fa, sa), (fb, sb)
            for end in (a, b):
                if end not in seen_sides:
                    raise SurfaceError("glued side %r does not exist" % (end,))
                if end in used:
                    raise SurfaceError("side %r glued twice" % (end,))
                used.add(end)
            if a == b:
                raise SurfaceError("cannot glue side %r to itself" % (a,))
            self.gluings.append((a, b))
        self._partner = {}
        for a, b in self.gluings:
            self._partner[a] = b
            self._partner[b] = a

        derived_boundary = [
            (fid, label)
            for fid, sides in self.faces
            for label in sides
            if (fid, label) not in used
        ]
        if boundary is not None:
            given = {(f, s) for f, s in boundary}
            if given != set(derived_boundary):
                raise SurfaceError("boundary list disagrees with the gluings")
        self.boundary = derived_boundary
        # every side is accounted for exactly once
        assert 3 * len(self.faces) == 2 * len(self.gluings) + len(self.boundary)

        # edges: one per gluing, then one per boundary side
        self.edges = [frozenset((a, b)) for a, b in self.gluings]
        self.edges += [frozenset((side,)) for side in self.boundary]
        self._edge_of = {}
        for idx, edge in enumerate(self.edges):
            for side in edge:
                self._edge_of[side] = idx

    @classmethod
    def from_dict(cls, data):
        faces = [(f["id"], tuple(f["sides"])) for f in data["faces"]]
        gluings = [tuple(g) for g in data.get("gluings", [])]
        boundary = data.get("boundary")
        if boundary is not None:
            boundary = [tuple(b) for b in boundary]
        return cls(faces, gluings, boundary)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def to_dict(self):
        return {
            "faces": [{"id": fid, "sides": list(sides)} for fid, sides in self.faces],
            "gluings": [[a[0], a[1], b[0], b[1]] for a, b in self.gluings],
            "boundary": [list(side) for side in self.boundary],
        }

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

    def edge_index(self, fid, side):
        return self._edge_of[(fid, side)]

    def variable(self, fid, side):
        """Index of this side's generator in the per-face tensor torus."""
        return 3 * self.face_position(fid) + self.slot(fid, side)


# per-face commutation of the side torus: sides in counterclockwise order
# satisfy (later)(earlier) = q (earlier)(later) cyclically
_FACE_BLOCK = ((0, -1, 1), (1, 0, -1), (-1, 1, 0))


def ambient_torus(tri):
    """Tensor product over faces of the side torus; blocks commute."""
    rank = 3 * len(tri.faces)
    matrix = [[0] * rank for _ in range(rank)]
    for pos in range(len(tri.faces)):
        for i in range(3):
            for j in range(3):
                matrix[3 * pos + i][3 * pos + j] = _FACE_BLOCK[i][j]
    return QuantumTorus(rank, matrix)


def chekhov_fock(tri):
    """The edge commutation torus: corner contributions summed over faces."""
    rank = len(tri.edges)
    matrix = [[0] * rank for _ in range(rank)]
    for fid, sides in tri.faces:
        idx = [tri.edge_index(fid, label) for label in sides]
        for a in range(3):
            b = (a + 1) % 3
            # within a face, the edge after contributes +1 against the edge before
            matrix[idx[b]][idx[a]] += 1
            matrix[idx[a]][idx[b]] -= 1
    return QuantumTorus(rank, matrix)


# ---------------------------------------------------------------------------
# normal curves and their traces
# ---------------------------------------------------------------------------


class NormalCurve:
    """A curve in normal position: one corner arc per face visit.

    `steps` is a list of (face id, entering side label, leaving side label);
    consecutive steps pass through a glued edge.  Open curves carry the two
    endpoint states; `edge_orders` records crossing order along edges for
    diagram bookkeeping (products always use the fixed per-face corner
    order).
    """

    def __init__(self, steps, closed=False, end_states=(), edge_orders=None):
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
        self.edge_orders = dict(edge_orders or {})

    @classmethod
    def from_dict(cls, data):
        steps = [(s["face"], s["enter"], s["exit"]) for s in data["steps"]]
        return cls(
            steps,
            closed=data.get("closed", False),
            end_states=tuple(data.get("states", ())),
            edge_orders=data.get("edge_orders"),
        )

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def to_dict(self):
        out = {
            "closed": self.closed,
            "steps": [{"face": f, "enter": a, "exit": b} for f, a, b in self.steps],
        }
        if not self.closed:
            out["states"] = list(self.end_states)
        if self.edge_orders:
            out["edge_orders"] = dict(self.edge_orders)
        return out


def _validate_curve(tri, curve):
    for fid, enter, leave in curve.steps:
        if tri.slot(fid, enter) == tri.slot(fid, leave):
            raise SurfaceError("step in face %r does not cut a corner" % (fid,))
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


def _face_monomial(tri, torus, face_pos, x):
    """Push a triangle-torus element into one face's block of `torus`."""
    images = []
    for j in range(3):
        vec = [0] * torus.rank
        vec[3 * face_pos + (j + 1) % 3] = 1
        mono = QTElement.monomial(torus, vec)
        vec2 = [0] * torus.rank
        vec2[3 * face_pos + (j + 2) % 3] = 1
        images.append(qt_multiply(mono, QTElement.monomial(torus, vec2)).scale(half(1)))
    out = QTElement(torus, {})
    for vec, c in x.terms.items():
        piece = QTElement.unit(torus)
        for j, e in enumerate(vec):
            if e:
                piece = qt_multiply(piece, qt_power(images[j], e))
        out = out + piece.scale(c)
    return out


def quantum_trace(tri, curve):
    """State sum of the curve over lifts, valued in the per-face torus."""
    _validate_curve(tri, curve)
    torus = ambient_torus(tri)
    m = len(curve.steps)
    junctions = m if curve.closed else m - 1
    total = QTElement(torus, {})
    for lift in itertools.product(STATES, repeat=junctions):
        # states at the two ends of every step
        step_states = []
        for k in range(m):
            if curve.closed:
                enter_state = lift[(k - 1) % m]
                leave_state = lift[k]
            else:
                enter_state = curve.end_states[0] if k == 0 else lift[k - 1]
                leave_state = curve.end_states[1] if k == m - 1 else lift[k]
            step_states.append((enter_state, leave_state))
        # group the stated corner arcs by face, in fixed corner order
        by_face = {}
        for k, (fid, enter, leave) in enumerate(curve.steps):
            e_slot, l_slot = tri.slot(fid, enter), tri.slot(fid, leave)
            corner = 3 - e_slot - l_slot
            states_by_slot = {e_slot: step_states[k][0], l_slot: step_states[k][1]}
            pair = (states_by_slot[(corner + 2) % 3], states_by_slot[(corner + 1) % 3])
            by_face.setdefault(tri.face_position(fid), []).append(
                (corner, k, StatedCornerArc(corner, pair))
            )
        piece = QTElement.unit(torus)
        dead = False
        for face_pos, entries in sorted(by_face.items()):
            entries.sort(key=lambda t: (t[0], t[1]))
            contribution = triangle_element([arc for _, _, arc in entries])
            if not contribution.terms:
                dead = True
                break
            piece = qt_multiply(piece, _face_monomial(tri, torus, face_pos, contribution))
        if not dead:
            total = total + piece
    return total


def check_balanced(tri, x):
    """True iff every monomial has equal exponents across each glued pair."""
    if x.torus != ambient_torus(tri):
        raise ValueError("element does not live in the per-face torus")
    for vec in x.terms:
        for (fa, sa), (fb, sb) in tri.gluings:
            if vec[tri.variable(fa, sa)] != vec[tri.variable(fb, sb)]:
                return False
    return True
