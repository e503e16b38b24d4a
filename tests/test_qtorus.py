"""Quantum tori, the triangle dictionary, and normal-curve traces."""

import itertools
import json
import re
from fractions import Fraction

import pytest

from bigon import qtorus
from bigon.classical import SL2Matrix
from bigon.qtorus import (
    STATES,
    TRIANGLE,
    NormalCurve,
    QTElement,
    QuantumTorus,
    StatedCornerArc,
    SurfaceError,
    Triangulation,
    ambient_torus,
    chekhov_fock,
    check_balanced,
    corner_arc_image,
    qt_invert,
    qt_multiply,
    qt_power,
    quantum_trace,
    triangle_element,
    _add,
    _push,
    _qt_element,
    _reorder_power,
    _tri_power,
    _validate_curve,
)
from bigon.ring import ONE, ZERO, add_to, from_dense, half, q_power, sweep
from support import seeded


def _gen(i, power=1):
    return QTElement.generator(TRIANGLE, i, power)


def _mul(*xs):
    out = QTElement.unit(TRIANGLE)
    for x in xs:
        out = qt_multiply(out, x)
    return out


def _arc(corner, states):
    return corner_arc_image(StatedCornerArc(corner, states))


def _cap_weight(mu, nu):
    if (mu, nu) == ("+", "-"):
        return half(-1)
    if (mu, nu) == ("-", "+"):
        return half(-5, -1)
    return ZERO


SQUARE = Triangulation([("F0", (0, 1, 2)), ("F1", (0, 1, 2))], [("F0", 2, "F1", 2)])
PUNCTURED_TORUS = Triangulation(
    [("F0", (0, 1, 2)), ("F1", (0, 1, 2))],
    [("F0", 0, "F1", 0), ("F0", 1, "F1", 1), ("F0", 2, "F1", 2)],
)
ONE_TRIANGLE = Triangulation([("T", (0, 1, 2))], [])
SQUARE_ARCS = (
    (("F0", 1, 2), ("F1", 2, 1)),
    (("F0", 0, 2), ("F1", 2, 0)),
    (("F0", 1, 2), ("F1", 2, 0)),
    (("F0", 0, 1),),
    (("F1", 0, 1),),
)
PUNCTURED_TORUS_LOOPS = (
    (("F0", 0, 1), ("F1", 1, 0)),
    (("F0", 1, 0), ("F1", 0, 1)),
    (("F0", 0, 2), ("F1", 2, 0)),
    (("F0", 0, 1), ("F1", 1, 2), ("F0", 2, 0), ("F1", 0, 1), ("F0", 1, 2), ("F1", 2, 0)),
)


# ---------------------------------------------------------------------------
# torus arithmetic
# ---------------------------------------------------------------------------


def test_torus_requires_antisymmetry():
    with pytest.raises(ValueError):
        QuantumTorus(((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        QuantumTorus(((0, 1),))


def test_torus_rejects_entries_that_are_not_integers():
    # read with int(), both entries would truncate to 0: the zero matrix
    with pytest.raises(TypeError):
        QuantumTorus(((0, 0.5), (-0.7, 0)))


def test_element_checks_vector_length():
    with pytest.raises(ValueError):
        QTElement(TRIANGLE, {(1, 0): ONE})


@pytest.mark.parametrize("key", [(1.5, 0, 0), ("1", 0, 0)], ids=["float", "string"])
def test_element_rejects_exponents_that_are_not_integers(key):
    # read with int(), both keys would become (1, 0, 0)
    with pytest.raises(TypeError):
        QTElement(TRIANGLE, {key: ONE})


def _dense_reorder_power(matrix, k, l):
    """Exponent of q produced when x^k passes to the left of x^l, read entry
    by entry from the dense commutation matrix: the oracle for the form rule."""
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


def _antisymmetric(rng, rank):
    rows = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i):
            a = rng.choice((0, rng.randint(-3, 3)))
            rows[i][j], rows[j][i] = a, -a
    return tuple(map(tuple, rows))


# zero matrices of three ranks, which share an empty form, then seeded ones of rank 1-9
_DENSE = [((0,) * r,) * r for r in (1, 2, 3)] + [
    _antisymmetric(seeded(400 + 10 * rank + n), rank) for rank in range(1, 10) for n in range(4)
]


def _reads_as_dense(torus, matrix, rng):
    """Whether `torus` has `matrix` as its dense view and as its reorder rule,
    on seeded exponent vectors with entries in -2..2."""
    if torus.matrix != matrix:
        return False
    for _ in range(30):
        k, l = ([rng.randint(-2, 2) for _ in matrix] for _ in range(2))
        if _reorder_power(torus.form, k, l) != _dense_reorder_power(matrix, k, l):
            return False
    return True


def test_the_form_rule_matches_the_dense_rule():
    rng = seeded(401)
    assert all(_reads_as_dense(QuantumTorus(m), m, rng) for m in _DENSE)
    for m, n in itertools.product(_DENSE, repeat=2):
        assert (QuantumTorus(m) == QuantumTorus(n)) == (m == n)
        if m == n:
            assert hash(QuantumTorus(m)) == hash(QuantumTorus(n))


def test_a_transposed_form_is_caught():
    rng = seeded(402)
    tori = [QuantumTorus(m) for m in _DENSE]
    mutants = [qtorus._torus(t.rank, tuple((j, i, a) for i, j, a in t.form)) for t in tori]
    assert not all(_reads_as_dense(t, m, rng) for t, m in zip(mutants, _DENSE))


def test_monomial_commutation():
    # the triangle relations: beta*alpha = q alpha*beta and its cyclic mates
    for i in range(3):
        j = (i + 1) % 3
        lhs = qt_multiply(_gen(j), _gen(i))
        rhs = qt_multiply(_gen(i), _gen(j)).scale(q_power(1))
        assert lhs == rhs


def test_inverse_monomials_cancel():
    rng = seeded(71)
    for _ in range(20):
        vec = tuple(rng.randint(-3, 3) for _ in range(3))
        x = QTElement.monomial(TRIANGLE, vec, half(rng.randint(-4, 4), rng.choice([1, -1])))
        assert qt_multiply(x, qt_invert(x)) == QTElement.unit(TRIANGLE)
        assert qt_multiply(qt_invert(x), x) == QTElement.unit(TRIANGLE)


def test_product_associativity():
    assert _mul(_mul(_gen(0), _gen(1)), _gen(2)) == _mul(_gen(0), _mul(_gen(1), _gen(2)))
    rng = seeded(72)
    for _ in range(20):
        xs = [
            QTElement.monomial(TRIANGLE, tuple(rng.randint(-2, 2) for _ in range(3)))
            for _ in range(3)
        ]
        assert qt_multiply(qt_multiply(xs[0], xs[1]), xs[2]) == qt_multiply(
            xs[0], qt_multiply(xs[1], xs[2])
        )


def test_product_rejects_torus_mismatch():
    other = QuantumTorus(((0, 0, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError):
        qt_multiply(_gen(0), QTElement.generator(other, 0))


def test_negative_powers():
    x = _mul(_gen(0), _gen(1, -1))
    assert qt_multiply(qt_power(x, 2), qt_power(x, -2)) == QTElement.unit(TRIANGLE)
    with pytest.raises(ValueError):
        qt_power(_gen(0) + _gen(1), 2)


# ---------------------------------------------------------------------------
# the corner arc dictionary
# ---------------------------------------------------------------------------


def test_plain_corner_arcs_are_generators():
    for j in range(3):
        assert _arc(j, "++") == _gen(j)
        assert _arc(j, "--") == _gen(j, -1)
        assert _arc(j, "-+") == QTElement(TRIANGLE, {})


def test_mixed_corner_arc_values():
    # regression record of the derived dictionary; the relation suite below
    # is what actually pins these
    assert _arc(0, "+-") == QTElement.monomial(TRIANGLE, (0, 1, -1), half(-1))
    assert _arc(1, "+-") == QTElement.monomial(TRIANGLE, (-1, 0, 1), half(1))
    assert _arc(2, "+-") == QTElement.monomial(TRIANGLE, (1, -1, 0), half(-1))


def test_arc_validation():
    with pytest.raises(ValueError):
        StatedCornerArc(3, "++")
    with pytest.raises(ValueError):
        StatedCornerArc(0, "+?")


def test_corner_inverses():
    for j in range(3):
        up = triangle_element([StatedCornerArc(j, "++")])
        down = triangle_element([StatedCornerArc(j, "--")])
        assert qt_multiply(up, down) == QTElement.unit(TRIANGLE)
        assert qt_multiply(down, up) == QTElement.unit(TRIANGLE)


def test_bad_arc_kills_the_stack():
    arcs = [StatedCornerArc(0, "++"), StatedCornerArc(1, "-+")]
    assert triangle_element(arcs) == QTElement(TRIANGLE, {})


def test_corner_exchange_relations():
    # the four 2-arc exchange relations, all states, all cyclic shifts;
    # bad arcs enter as 0 and the returning-arc weights as scalars
    states = "+-"
    q1, q2, q5 = q_power(1), q_power(2), half(5)
    for t in range(3):
        first, second, third = t, (t + 1) % 3, (t + 2) % 3
        for mu, nu, mup, nup in itertools.product(states, repeat=4):
            lhs = _mul(_arc(second, (mu, nu)), _arc(first, (mup, nup)))
            rhs = _mul(_arc(first, (nu, nup)), _arc(second, (mu, mup))).scale(q1) - _mul(
                _arc(third, (nup, mu))
            ).scale(q2 * _cap_weight(nu, mup))
            assert lhs == rhs
        for nu, nup in itertools.product(states, repeat=2):
            cap = _cap_weight(nu, nup)
            lhs = _mul(_arc(first, ("-", nu)), _arc(first, ("+", nup)))
            rhs = _mul(_arc(first, ("+", nu)), _arc(first, ("-", nup))).scale(q2)
            assert lhs == rhs - QTElement.unit(TRIANGLE).scale(q5 * cap)
            lhs = _mul(_arc(first, (nu, "-")), _arc(first, (nup, "+")))
            rhs = _mul(_arc(first, (nu, "+")), _arc(first, (nup, "-"))).scale(q2)
            assert lhs == rhs - QTElement.unit(TRIANGLE).scale(q5 * cap)
            lhs = _mul(_arc(first, ("-", nu)), _arc(second, (nup, "+")))
            rhs = _mul(_arc(first, ("+", nu)), _arc(second, (nup, "-"))).scale(q2) - _mul(
                _arc(third, (nu, nup))
            ).scale(q5)
            assert lhs == rhs
            lhs = _mul(_arc(first, (nu, "-")), _arc(third, ("+", nup)))
            rhs = _mul(_arc(first, (nu, "+")), _arc(third, ("-", nup))).scale(q2) + _mul(
                _arc(second, (nup, nu))
            ).scale(half(-1))
            assert lhs == rhs


def test_worked_vanishing_instance():
    # both sides of the same-corner exchange at states (+,-) are zero
    lhs = _mul(_arc(0, "-+"), _arc(0, "+-"))
    rhs = _mul(_arc(0, "++"), _arc(0, "--")).scale(q_power(2)) - QTElement.unit(
        TRIANGLE
    ).scale(half(5) * _cap_weight("+", "-"))
    assert lhs == rhs == QTElement(TRIANGLE, {})


# ---------------------------------------------------------------------------
# triangulations
# ---------------------------------------------------------------------------


def test_triangulation_validation():
    with pytest.raises(SurfaceError):
        Triangulation([("F", (0, 1, 2)), ("F", (0, 1, 2))], [])
    with pytest.raises(SurfaceError):
        Triangulation([("F", (0, 1))], [])
    with pytest.raises(SurfaceError):
        Triangulation([("F", (0, 1, 2))], [("F", 0, "F", 7)])
    with pytest.raises(SurfaceError):
        Triangulation([("F", (0, 1, 2))], [("F", 0, "F", 0)])
    with pytest.raises(SurfaceError):
        Triangulation(
            [("A", (0, 1, 2)), ("B", (0, 1, 2))],
            [("A", 0, "B", 0), ("A", 0, "B", 1)],
        )
    with pytest.raises(SurfaceError):
        Triangulation([("F", (0, 1, 2))], [], boundary=[("F", 0)])


def test_a_side_glued_to_itself_is_refused():
    # the gluing's second end is the side its first end has just taken
    with pytest.raises(SurfaceError, match=r"side \('F0', 0\) glued twice"):
        Triangulation([("F0", (0, 1, 2)), ("F1", (0, 1, 2))], [("F0", 0, "F0", 0)])


def test_triangulation_json_round_trip():
    text = json.dumps(SQUARE.to_dict())
    again = Triangulation.from_dict(json.loads(text))
    assert again.faces == SQUARE.faces
    assert again.gluings == SQUARE.gluings
    assert again.boundary == SQUARE.boundary


def test_partner_lookup():
    assert SQUARE.partner("F0", 2) == ("F1", 2)
    assert SQUARE.partner("F0", 0) is None


def _walked_boundary(tri):
    """The unglued sides by a second walk over every face's sides, face by face, slot by slot."""
    glued = {side for gluing in tri.gluings for side in gluing}
    return [(fid, label) for fid, sides in tri.faces for label in sides if (fid, label) not in glued]


def test_the_boundary_is_the_walk_over_every_face_in_order():
    # `to_dict` writes the boundary and `edges` numbers its sides in this order
    mixed = Triangulation([("B", ("z", "x", "y")), ("A", (2, 0, 1))], [("A", 0, "B", "y")])
    built = [SQUARE, PUNCTURED_TORUS, ONE_TRIANGLE, CANCELLING, mixed, Triangulation([], [])]
    built.append(Triangulation(mixed.faces, [("A", 0, "B", "y")], boundary=reversed(mixed.boundary)))
    built.append(Triangulation.from_dict(SQUARE.to_dict()))
    built += [tri for _, tri, _ in _ORACLE_CASES]
    built += [_strip(faces, mirror, 500 + faces)[0] for faces in range(1, 41) for mirror in (False, True)]
    assert mixed.boundary == [("B", "z"), ("B", "x"), ("A", 2), ("A", 1)]
    for tri in built:
        walk, glued = _walked_boundary(tri), len(tri.gluings)
        assert tri.boundary == walk
        assert tri.to_dict()["boundary"] == [list(side) for side in walk]
        assert [tri.edge_index(*side) for side in walk] == list(range(glued, glued + len(walk)))


def _stored_facts(tri):
    """(boundary, edges, edge numbering) as `Triangulation.__init__` stored them before
    they were derived where they are read: its lines verbatim, after the side table and
    the set of glued sides that its checks filled.  The oracle for the derived facts."""
    seen_sides = {(fid, label): slot for fid, sides in tri.faces for slot, label in enumerate(sides)}
    used = {end for gluing in tri.gluings for end in gluing}
    derived_boundary = [side for side in seen_sides if side not in used]
    boundary = derived_boundary
    # every side is accounted for exactly once
    assert 3 * len(tri.faces) == 2 * len(tri.gluings) + len(boundary)

    # edges: one per gluing, then one per boundary side
    edges = [frozenset((a, b)) for a, b in tri.gluings]
    edges += [frozenset((side,)) for side in boundary]
    _edge_of = {side: idx for idx, edge in enumerate(edges) for side in edge}
    return boundary, edges, _edge_of


def _stored_chekhov_fock(tri):
    """`chekhov_fock` as it read the stored edges and numbering."""
    _, edges, _edge_of = _stored_facts(tri)
    rank = len(edges)
    if not rank:
        raise ValueError("rank must be positive")
    entries = {}
    for fid, sides in tri.faces:
        idx = [_edge_of[(fid, label)] for label in sides]
        for a in range(3):
            later, earlier = idx[(a + 1) % 3], idx[a]
            if later > earlier:
                add_to(entries, (later, earlier), 1)
            elif later < earlier:
                add_to(entries, (earlier, later), -1)
    return qtorus._torus(rank, tuple((i, j, a) for (i, j), a in sorted(entries.items())))


def _random_triangulation(rng):
    """Seeded faces, ids and labels mixing strings and integers, with a seeded
    share of their sides glued in seeded pairs and order."""
    count = rng.randint(1, 8)
    ids = rng.sample(["F%d" % i for i in range(count)] + list(range(count)), count)
    faces = [(fid, tuple(rng.sample([0, 1, 2, "x", "y", 7], 3))) for fid in ids]
    sides = [(fid, label) for fid, labels in faces for label in labels]
    rng.shuffle(sides)
    pairs = rng.randint(0, len(sides) // 2)
    gluings = [sides[2 * i] + sides[2 * i + 1] for i in range(pairs)]
    return Triangulation(faces, gluings)


def _built_triangulations():
    """The triangulations with faces that this file builds, seeded strips and seeded gluings."""
    mixed = Triangulation([("B", ("z", "x", "y")), ("A", (2, 0, 1))], [("A", 0, "B", "y")])
    built = [SQUARE, PUNCTURED_TORUS, ONE_TRIANGLE, CANCELLING, mixed]
    built.append(Triangulation(mixed.faces, [("A", 0, "B", "y")], boundary=reversed(mixed.boundary)))
    built.append(Triangulation.from_dict(SQUARE.to_dict()))
    built += [tri for _, tri, _ in _ORACLE_CASES]
    for seed in (100, 200, 300, 500):
        built += [_strip(faces, mirror, seed + faces)[0] for faces in range(1, 41) for mirror in (0, 1)]
    rng = seeded(404)
    built += [_random_triangulation(rng) for _ in range(200)]
    return built


def test_the_derived_facts_are_the_stored_ones():
    for tri in _built_triangulations():
        boundary, edges, edge_of = _stored_facts(tri)
        assert (tri.boundary, tri.edges) == (boundary, edges)
        sides = [(fid, label) for fid, labels in tri.faces for label in labels]
        assert [tri.edge_index(*side) for side in sides] == [edge_of[side] for side in sides]
        assert tri.to_dict() == {
            "faces": [{"id": fid, "sides": list(labels)} for fid, labels in tri.faces],
            "gluings": [[a[0], a[1], b[0], b[1]] for a, b in tri.gluings],
            "boundary": [list(side) for side in boundary],
        }
        assert chekhov_fock(tri) == _stored_chekhov_fock(tri)
    faceless = Triangulation([], [])
    assert (faceless.boundary, faceless.edges, faceless.to_dict()["boundary"]) == ([], [], [])
    for build in (chekhov_fock, _stored_chekhov_fock):
        with pytest.raises(ValueError, match="rank must be positive"):
            build(faceless)


def test_a_triangulation_keeps_no_derived_fact():
    # the boundary, the edges and their numbering are worked out on every read, and nothing is kept
    for tri in _built_triangulations() + [Triangulation([], [])]:
        kept = dict(vars(tri))
        assert not {"boundary", "edges", "_edge_of"} & kept.keys()
        read = [tri.boundary, tri.edges, tri.to_dict()]
        read += [tri.edge_index(fid, label) for fid, labels in tri.faces for label in labels]
        if tri.faces:
            read.append(chekhov_fock(tri))
        assert vars(tri) == kept


@pytest.mark.parametrize("side", [("F0", 7), ("F9", 0), ("F0", "0")], ids=["label", "face", "label-type"])
def test_an_unknown_side_has_no_edge_index(side):
    with pytest.raises(KeyError):
        SQUARE.edge_index(*side)


def test_side_torus_for_one_face():
    tri = Triangulation([("T", (0, 1, 2))], [])
    K = chekhov_fock(tri)
    assert K.matrix == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))
    assert K.matrix[1][0] == 1  # the later side q-commutes past the earlier


def test_square_edge_commutation():
    K = chekhov_fock(SQUARE)
    assert K.rank == 5
    i, j = SQUARE.edge_index("F0", 0), SQUARE.edge_index("F1", 0)
    assert K.matrix[i][j] == 0  # boundary edges of different faces commute


def test_punctured_torus_edge_commutation():
    K = chekhov_fock(PUNCTURED_TORUS)
    assert K.rank == 3
    for i in range(3):
        for j in range(3):
            if i != j:
                assert abs(K.matrix[i][j]) == 2


def _dense_chekhov_fock(tri):
    """The edge torus summed into a dense E x E matrix and checked entry by entry:
    the oracle for the sparse sum."""
    rank = len(tri.edges)
    matrix = [[0] * rank for _ in range(rank)]
    for fid, sides in tri.faces:
        idx = [tri.edge_index(fid, label) for label in sides]
        for a in range(3):
            b = (a + 1) % 3
            matrix[idx[b]][idx[a]] += 1
            matrix[idx[a]][idx[b]] -= 1
    return QuantumTorus(matrix)


# two faces glued along two edges whose corners cancel: those edges commute
CANCELLING = Triangulation([("F0", (0, 1, 2)), ("F1", (0, 1, 2))], [("F0", 0, "F1", 1), ("F0", 1, "F1", 0)])


def test_edge_torus_matches_the_dense_sum():
    cases = [SQUARE, PUNCTURED_TORUS, ONE_TRIANGLE, CANCELLING]
    cases += [_strip(faces, faces % 2, 200 + faces)[0] for faces in range(1, 13)]
    assert [chekhov_fock(tri) for tri in cases] == [_dense_chekhov_fock(tri) for tri in cases]
    i, j = CANCELLING.edge_index("F0", 0), CANCELLING.edge_index("F0", 1)
    assert chekhov_fock(CANCELLING).matrix[i][j] == 0
    assert all(a for _, _, a in chekhov_fock(CANCELLING).form)


def test_ambient_torus_blocks():
    torus = ambient_torus(SQUARE)
    assert torus.rank == 6
    for i in range(3):
        for j in range(3):
            assert torus.matrix[i][3 + j] == 0
            assert torus.matrix[i][j] == torus.matrix[3 + i][3 + j]


def test_ambient_torus_equals_the_checked_block_sum():
    for faces in range(1, 7):
        tri, _ = _strip(faces, False, 200 + faces)
        rank = 3 * faces
        checked = QuantumTorus(
            [
                [TRIANGLE.matrix[i % 3][j % 3] if i // 3 == j // 3 else 0 for j in range(rank)]
                for i in range(rank)
            ]
        )
        torus = ambient_torus(tri)
        assert (torus.rank, torus.matrix) == (checked.rank, checked.matrix)
        assert torus == checked and hash(torus) == hash(checked)
        assert len(torus.form) == rank
    with pytest.raises(ValueError, match="rank must be positive"):
        ambient_torus(Triangulation([], []))


def test_a_triangulation_keeps_its_torus_and_the_trace_reads_it(monkeypatch):
    for tri in (SQUARE, PUNCTURED_TORUS, _strip(5, True, 205)[0]):
        assert tri.torus == ambient_torus(tri)
    built = []
    monkeypatch.setattr(qtorus, "ambient_torus", lambda tri: built.append(tri) or ambient_torus(tri))
    tri = Triangulation.from_dict(SQUARE.to_dict())
    x = quantum_trace(tri, NormalCurve(SQUARE_ARCS[0], end_states=("+", "-")))
    assert x.torus is tri.torus and check_balanced(tri, x)
    assert built == [tri]
    faceless = Triangulation([], [])
    for ask in (lambda: faceless.torus, lambda: check_balanced(faceless, x)):
        with pytest.raises(ValueError, match="rank must be positive"):
            ask()


# ---------------------------------------------------------------------------
# quantum traces
# ---------------------------------------------------------------------------


def test_single_triangle_corner_arc_trace():
    tri = Triangulation([("T", (0, 1, 2))], [])
    tr = quantum_trace(tri, NormalCurve([("T", 1, 2)], end_states="++"))
    assert tr == QTElement.monomial(ambient_torus(tri), (0, 1, 1), half(1))


def test_face_embedding_preserves_the_relations():
    tri = Triangulation([("T", (0, 1, 2))], [])
    torus = ambient_torus(tri)
    images = [
        quantum_trace(tri, NormalCurve([("T", (j + 1) % 3, (j + 2) % 3)], end_states="++"))
        for j in range(3)
    ]
    for i in range(3):
        j = (i + 1) % 3
        lhs = qt_multiply(images[j], images[i])
        rhs = qt_multiply(images[i], images[j]).scale(q_power(1))
        assert lhs == rhs


def test_square_arc_has_one_surviving_lift():
    arc = NormalCurve([("F0", 1, 2), ("F1", 2, 1)], end_states="++")
    tr = quantum_trace(SQUARE, arc)
    # the other lift hits a bad arc in both faces; the exponent of q is a
    # record of the height convention, not an external value
    assert tr == QTElement.monomial(ambient_torus(SQUARE), (0, 1, 1, 0, 1, 1), q_power(1))


def test_square_corpus_is_balanced():
    curves = []
    for states in itertools.product("+-", repeat=2):
        curves.append(NormalCurve([("F0", 1, 2), ("F1", 2, 1)], end_states=states))
        curves.append(NormalCurve([("F0", 0, 2), ("F1", 2, 0)], end_states=states))
        curves.append(NormalCurve([("F0", 1, 2), ("F1", 2, 0)], end_states=states))
        curves.append(NormalCurve([("F0", 0, 1)], end_states=states))
        curves.append(NormalCurve([("F1", 0, 1)], end_states=states))
    for curve in curves:
        assert check_balanced(SQUARE, quantum_trace(SQUARE, curve))


def test_punctured_torus_corpus_is_balanced():
    loops = [
        NormalCurve([("F0", 0, 1), ("F1", 1, 0)], closed=True),
        NormalCurve([("F0", 1, 0), ("F1", 0, 1)], closed=True),
        NormalCurve([("F0", 0, 2), ("F1", 2, 0)], closed=True),
        NormalCurve(
            [
                ("F0", 0, 1),
                ("F1", 1, 2),
                ("F0", 2, 0),
                ("F1", 0, 1),
                ("F0", 1, 2),
                ("F1", 2, 0),
            ],
            closed=True,
        ),
    ]
    for loop in loops:
        tr = quantum_trace(PUNCTURED_TORUS, loop)
        assert tr.terms
        assert check_balanced(PUNCTURED_TORUS, tr)


def test_closed_trace_specializes_to_integers():
    tr = quantum_trace(PUNCTURED_TORUS, NormalCurve([("F0", 0, 1), ("F1", 1, 0)], closed=True))
    values = {vec: c.specialize(1) for vec, c in tr.terms.items()}
    assert values and all(isinstance(v, int) for v in values.values())


def test_disjoint_arcs_commute():
    # corner arcs in the two triangles of the square share no edges
    for s1 in itertools.product("+-", repeat=2):
        for s2 in itertools.product("+-", repeat=2):
            t1 = quantum_trace(SQUARE, NormalCurve([("F0", 0, 1)], end_states=s1))
            t2 = quantum_trace(SQUARE, NormalCurve([("F1", 0, 1)], end_states=s2))
            assert qt_multiply(t1, t2) == qt_multiply(t2, t1)


def test_balance_detects_a_lone_glued_variable():
    torus = ambient_torus(SQUARE)
    lone = QTElement.generator(torus, SQUARE.variable("F0", 2))
    assert not check_balanced(SQUARE, lone)
    assert check_balanced(SQUARE, QTElement.unit(torus))


def test_balance_rejects_foreign_elements():
    with pytest.raises(ValueError):
        check_balanced(SQUARE, QTElement.unit(TRIANGLE))


# ---------------------------------------------------------------------------
# curve validation and files
# ---------------------------------------------------------------------------


def test_curve_validation():
    with pytest.raises(SurfaceError):
        NormalCurve([], end_states="++")
    with pytest.raises(SurfaceError):
        NormalCurve([("F0", 1, 2)], closed=True, end_states="++")
    with pytest.raises(SurfaceError):
        NormalCurve([("F0", 1, 2)], end_states="+")
    with pytest.raises(SurfaceError):
        quantum_trace(SQUARE, NormalCurve([("F0", 1, 1)], end_states="++"))
    with pytest.raises(SurfaceError):
        # the two steps do not meet across the diagonal
        quantum_trace(SQUARE, NormalCurve([("F0", 1, 0), ("F1", 2, 1)], end_states="++"))
    with pytest.raises(SurfaceError):
        # open curve may not start on a glued side
        quantum_trace(SQUARE, NormalCurve([("F0", 2, 1)], end_states="++"))
    with pytest.raises(SurfaceError):
        # closed curve must close up
        quantum_trace(PUNCTURED_TORUS, NormalCurve([("F0", 0, 1)], closed=True))


def test_a_curve_with_two_faults_reports_its_corner_first():
    # step 2 cuts no corner, and steps 0 and 1 do not meet: F0's side 1 is glued to F1's
    steps = [("F0", 0, 1), ("F0", 1, 0), ("F1", 2, 2)]
    with pytest.raises(SurfaceError, match=r"^step in face 'F1' does not cut a corner$"):
        quantum_trace(PUNCTURED_TORUS, NormalCurve(steps, closed=True))
    # each fault alone is seen
    with pytest.raises(SurfaceError, match=r"^steps 0 and 1 do not meet across a glued edge$"):
        quantum_trace(PUNCTURED_TORUS, NormalCurve(steps[:2] + [("F1", 2, 0)], closed=True))


def test_the_checked_curve_hands_each_step_its_placement():
    for _, tri, curve in _ORACLE_CASES:
        looked_up = [(tri.face_position(f), tri.slot(f, a), tri.slot(f, b)) for f, a, b in curve.steps]
        assert _validate_curve(tri, curve) == looked_up


def test_a_trace_looks_up_each_step_once(monkeypatch):
    calls = []

    def counted(name):
        method = getattr(Triangulation, name)
        return lambda tri, *key: calls.append(name) or method(tri, *key)

    for name in ("slot", "face_position"):
        monkeypatch.setattr(Triangulation, name, counted(name))
    for _, tri, curve in _ORACLE_CASES:
        calls.clear()
        quantum_trace(tri, curve)
        assert sorted(calls) == ["face_position"] * len(curve.steps) + ["slot"] * (2 * len(curve.steps))


@pytest.mark.parametrize("coeff", [half(0, 2), half(0) + half(1), half(3, -2)], ids=["2", "1+v", "-2v^3"])
def test_an_inverse_refuses_a_coefficient_that_is_not_a_unit_monomial(coeff):
    message = "^coefficient %s is not invertible$" % re.escape(repr(coeff))
    with pytest.raises(ValueError, match=message):
        qt_invert(QTElement.monomial(TRIANGLE, (1, 0, 0), coeff))


def test_the_zeroth_power_is_the_unit():
    assert qt_power(_mul(_gen(0), _gen(2, -1)), 0) == QTElement.unit(TRIANGLE)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: qt_invert(_gen(0) + _gen(1)), ValueError, "only monomials are invertible"),
        (lambda: qt_invert(QTElement.monomial(TRIANGLE, (1, 0, 0), half(0, 2))), ValueError, "not invertible"),
        (lambda: qt_invert(QTElement.monomial(TRIANGLE, (1, 0, 0), half(0) + half(1))), ValueError, "not invertible"),
        (lambda: NormalCurve([("F0", 0)], end_states="+-"), SurfaceError, "each step is"),
        (
            lambda: quantum_trace(SQUARE, NormalCurve([("F0", 0, 2)], end_states="++")),
            SurfaceError,
            "must end on the boundary",
        ),
        (
            lambda: Triangulation([("F0", (0, 1, 2))], []).face_position("F9"),
            SurfaceError,
            "unknown face 'F9'",
        ),
        (lambda: QuantumTorus(()), ValueError, "rank must be positive"),
        (lambda: chekhov_fock(Triangulation([], [])), ValueError, "rank must be positive"),
        (lambda: qtorus._torus(0, ()), ValueError, "rank must be positive"),
    ],
    ids=[
        "two-terms",
        "coefficient-2",
        "two-term-coefficient",
        "two-part-step",
        "ends-inside",
        "unknown-face",
        "rank-0-torus",
        "no-edges",
        "rank-0-unchecked-torus",
    ],
)
def test_monomials_and_curves_out_of_range_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_curve_json_round_trip():
    curve = NormalCurve([("F0", 1, 2), ("F1", 2, 1)], end_states="+-")
    text = json.dumps(curve.to_dict())
    again = NormalCurve.from_dict(json.loads(text))
    assert again.steps == curve.steps
    assert again.closed == curve.closed
    assert again.end_states == curve.end_states
    assert quantum_trace(SQUARE, again) == quantum_trace(SQUARE, curve)
    # an `edge_orders` key, which older curve files carry, is ignored like any unknown key
    tagged = NormalCurve.from_dict({**curve.to_dict(), "edge_orders": {"d": [0]}})
    assert tagged.to_dict() == curve.to_dict()


@pytest.mark.parametrize("states", [{"+": 1, "-": 2}, [1, 2], ["+", 2], 12, None])
def test_curve_states_are_a_string_or_a_list_of_strings(states):
    data = {"steps": [{"face": "F0", "enter": 1, "exit": 2}, {"face": "F1", "enter": 2, "exit": 1}]}
    for good in ("+-", ["+", "-"]):
        assert NormalCurve.from_dict(dict(data, states=good)).end_states == ("+", "-")
    with pytest.raises(TypeError, match="states must be a string or a list of strings"):
        NormalCurve.from_dict(dict(data, states=states))


# ---------------------------------------------------------------------------
# the trace sweep against the lift enumerator and the classical limit
# ---------------------------------------------------------------------------


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


def _enumerated_trace(tri, curve):
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


def _strip(faces, mirror, seed):
    """A strip of triangles and a stated arc crossing every internal edge.

    Face i is entered through a seeded side slot and left through the slot
    `turns[i]` further on; the turns run 1, 2, 2, 1, 1, 2, 2, ... or, in the
    mirror image, 2, 1, 1, 2, 2, ...
    """
    rng = seeded(seed)
    enters = [rng.randrange(3) for _ in range(faces)]
    turns = [1 + (i + 1) // 2 % 2 for i in range(faces)]
    if mirror:
        turns = [3 - t for t in turns]
    leaves = [(e + t) % 3 for e, t in zip(enters, turns)]
    tri = Triangulation(
        [("F%d" % i, (0, 1, 2)) for i in range(faces)],
        [("F%d" % i, leaves[i], "F%d" % (i + 1), enters[i + 1]) for i in range(faces - 1)],
    )
    steps = [("F%d" % i, e, l) for i, (e, l) in enumerate(zip(enters, leaves))]
    return tri, NormalCurve(steps, end_states=(rng.choice(STATES), rng.choice(STATES)))


def _reversed(arc):
    return tuple((f, b, a) for f, a, b in reversed(arc))


def _oracle_cases():
    cases = []
    for enter, leave in itertools.permutations(range(3), 2):
        for states in itertools.product(STATES, repeat=2):
            curve = NormalCurve([("T", enter, leave)], end_states=states)
            cases.append(("triangle-%d%d%s" % (enter, leave, "".join(states)), ONE_TRIANGLE, curve))
    for i, arc in enumerate(SQUARE_ARCS):
        for name, steps in (("square-%d" % i, arc), ("square-%d-reversed" % i, _reversed(arc))):
            for states in itertools.product(STATES, repeat=2):
                curve = NormalCurve(list(steps), end_states=states)
                cases.append(("%s%s" % (name, "".join(states)), SQUARE, curve))
    for i, loop in enumerate(PUNCTURED_TORUS_LOOPS):
        for times in (1, 2, 3) if len(loop) == 2 else (1, 2):
            curve = NormalCurve(list(loop) * times, closed=True)
            cases.append(("loop-%d-x%d" % (i, times), PUNCTURED_TORUS, curve))
    # every closed 4-step walk: a face revisited at another corner, with
    # mixed arcs surviving, exercises the order of arcs within a face
    for sides in itertools.product(range(3), repeat=4):
        if all(sides[k] != sides[k - 1] for k in range(4)):
            steps = [("F%d" % (k % 2), sides[k], sides[(k + 1) % 4]) for k in range(4)]
            curve = NormalCurve(steps, closed=True)
            cases.append(("walk-%s" % "".join(map(str, sides)), PUNCTURED_TORUS, curve))
    for faces in range(2, 11):
        for mirror in (False, True):
            tri, curve = _strip(faces, mirror, 100 + faces)
            cases.append(("strip-%d%s" % (faces, "-mirror" if mirror else ""), tri, curve))
    return cases


_ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize(
    "tri, curve", [case[1:] for case in _ORACLE_CASES], ids=[case[0] for case in _ORACLE_CASES]
)
def test_sweep_matches_the_lift_enumerator(tri, curve):
    assert quantum_trace(tri, curve) == _enumerated_trace(tri, curve)


def test_triangle_pairing_is_the_reorder_power_written_out():
    for k in itertools.product(range(-2, 3), repeat=3):
        for l in itertools.product(range(-2, 3), repeat=3):
            assert _tri_power(k, l) == _reorder_power(TRIANGLE.form, k, l)


@pytest.mark.parametrize("term", range(3))
def test_oracle_catches_a_one_sign_mutant_of_the_triangle_pairing(term, monkeypatch):
    # k1 l0 - k2 l0 + k2 l1 with the sign of one term flipped; the enumerator
    # multiplies through `_reorder_power`, so it does not see the mutant
    def mutant(k, l):
        terms = [k[1] * l[0], -k[2] * l[0], k[2] * l[1]]
        terms[term] = -terms[term]
        return sum(terms)

    monkeypatch.setattr(qtorus, "_tri_power", mutant)
    assert any(quantum_trace(tri, curve) != _enumerated_trace(tri, curve) for _, tri, curve in _ORACLE_CASES)


def test_oracle_catches_a_per_face_torus_shifted_by_one(monkeypatch):
    def shifted(tri):
        count = len(tri.faces)
        shift = [3 * pos + 1 for pos in range(count)]
        return qtorus._torus(3 * count, tuple((i + d, j + d, a) for d in shift for i, j, a in TRIANGLE.form))

    monkeypatch.setattr(qtorus, "ambient_torus", shifted)
    # a triangulation builds its torus once, at construction: rebuild each under the mutant
    rebuilt = [(Triangulation.from_dict(tri.to_dict()), tri, curve) for _, tri, curve in _ORACLE_CASES]
    assert all(quantum_trace(new, curve) != _enumerated_trace(tri, curve) for new, tri, curve in rebuilt)


# stated corner arcs as (v-exponent, sign, triangle exponent vector); the bad
# arc (-,+) has no entry
_ARCS = {
    (j, first, second): (exp, sign, vec)
    for j in range(3)
    for first in STATES
    for second in STATES
    for vec, c in corner_arc_image(StatedCornerArc(j, (first, second))).terms.items()
    for exp, sign in c.items()
}


def _laurent_lift_step(key, step):
    """Extend a partial lift by the stated corner arc of one curve step.

    Face blocks commute, and within a face the arcs multiply in (corner,
    step) order, which the curve fixes; so the arc's q-power comes from the
    running sums of the face's arcs at the corners up to its own (`before`)
    and after it (`after`), summed once per partial lift.  On the face's last
    visit its sums are pushed into its block."""
    pos, corner, forward, last, states = step
    state, faces = key
    sums = faces[pos]
    if corner == 0:
        before, after = sums[0], _add(sums[1], sums[2])
    elif corner == 1:
        before, after = _add(sums[0], sums[1]), sums[2]
    else:
        before, after = _add(_add(sums[0], sums[1]), sums[2]), (0, 0, 0)
    whole = _add(before, after)
    head, tail = faces[:pos], faces[pos + 1 :]
    for nxt in states:
        arc = _ARCS.get((corner, state, nxt) if forward else (corner, nxt, state))
        if arc is None:
            continue
        exp, sign, vec = arc
        exp += 2 * (_tri_power(before, vec) + _tri_power(vec, after))
        if last:
            push, entry = _push(_add(whole, vec))
            exp += push
        else:
            entry = sums[:corner] + (_add(sums[corner], vec),) + sums[corner + 1 :]
        yield (nxt, head + (entry,) + tail), from_dense(exp, (sign,))


def _laurent_weighted_trace(tri, curve, fold=sweep):
    """The trace sweep whose lifts carry `HalfLaurent` weights, keyed by
    (state, per-face data): `quantum_trace` before the power of v moved into
    the key, kept as its oracle.  `fold` is the sweep it runs."""
    _validate_curve(tri, curve)
    last_visit = {tri.face_position(fid): k for k, (fid, _, _) in enumerate(curve.steps)}
    steps = []
    for k, (fid, enter, leave) in enumerate(curve.steps):
        e_slot = tri.slot(fid, enter)
        corner = 3 - e_slot - tri.slot(fid, leave)
        pos = tri.face_position(fid)
        # the arc's state pair runs counterclockwise from slot corner + 2
        steps.append((pos, corner, e_slot == (corner + 2) % 3, k == last_visit[pos], STATES))
    # a face holds its three corner sums until its last visit, then its
    # pushed exponent vector; a face the curve misses holds y^0 throughout
    start = tuple(
        ((0, 0, 0),) * 3 if pos in last_visit else (0, 0, 0) for pos in range(len(tri.faces))
    )
    total = {}  # keys are integer tuples of rank 3F, and add_to stores no zero
    for first, final in ((s, s) for s in STATES) if curve.closed else (curve.end_states,):
        # the last step may only reach the final state
        live = fold({(first, start): ONE}, steps[:-1] + [steps[-1][:-1] + ((final,),)], _laurent_lift_step)
        for (_, faces), coeff in live.items():
            add_to(total, tuple(itertools.chain.from_iterable(faces)), coeff)
    return _qt_element(ambient_torus(tri), total)


@pytest.mark.parametrize(
    "tri, curve", [case[1:] for case in _ORACLE_CASES], ids=[case[0] for case in _ORACLE_CASES]
)
def test_integer_weights_match_the_laurent_weighted_sweep(tri, curve):
    assert quantum_trace(tri, curve) == _laurent_weighted_trace(tri, curve)


def _long_strips(faces):
    """Both mirror images of a `faces`-face strip, each with all four end-state pairs."""
    for mirror in (False, True):
        tri, curve = _strip(faces, mirror, 300 + faces)
        for states in itertools.product(STATES, repeat=2):
            yield tri, NormalCurve(curve.steps, end_states=states)


@pytest.mark.parametrize("faces", range(11, 21))
def test_long_strips_match_the_laurent_weighted_sweep(faces):
    # 2^(faces - 1) lifts: out of the enumerator's reach
    for tri, curve in _long_strips(faces):
        assert quantum_trace(tri, curve) == _laurent_weighted_trace(tri, curve)


def _drop_the_step_power(step):
    def mutant(key, data):
        for (nxt, sums, done, _), sign in step(key, data):
            yield (nxt, sums, done, key[3]), sign

    return mutant


def _flip_the_step_sign(step):
    def mutant(key, data):
        for new, sign in step(key, data):
            yield new, -sign

    return mutant


@pytest.mark.parametrize("mutate", [_drop_the_step_power, _flip_the_step_sign])
def test_laurent_weighted_sweep_catches_a_step_mutant(mutate, monkeypatch):
    monkeypatch.setattr(qtorus, "_lift_step", mutate(qtorus._lift_step))
    assert any(
        quantum_trace(tri, curve) != _laurent_weighted_trace(tri, curve) for _, tri, curve in _ORACLE_CASES
    )


def test_laurent_weighted_sweep_catches_an_unwinding_in_the_wrong_face_order(monkeypatch):
    # each pushed face vector restored into the block of the face pushed
    # opposite it in the curve's order
    unwind = qtorus._unwind
    monkeypatch.setattr(qtorus, "_unwind", lambda parents, done, order, rank: unwind(parents, done, order[::-1], rank))
    assert any(
        quantum_trace(tri, curve) != _laurent_weighted_trace(tri, curve) for _, tri, curve in _ORACLE_CASES
    )


def _counting_sweep(counts, size):
    """`sweep` one step at a time, appending size(live lifts) after each step."""

    def fold(terms, steps, image):
        for step in steps:
            terms = sweep(terms, (step,), image)
            counts.append(size(terms))
        return terms

    return fold


@pytest.mark.parametrize("faces", [12, 16])
def test_integer_weights_keep_one_live_entry_per_monomial(faces, monkeypatch):
    # after every step, the sweep holds one key per monomial that the
    # Laurent-weighted sweep's coefficients hold: no timer, a count
    for tri, curve in _long_strips(faces):
        counts, monomials = [], []
        monkeypatch.setattr(qtorus, "sweep", _counting_sweep(counts, len))
        fold = _counting_sweep(monomials, lambda live: sum(len(c.items()) for c in live.values()))
        assert quantum_trace(tri, curve) == _laurent_weighted_trace(tri, curve, fold)
        assert len(counts) == faces and counts == monomials and max(counts) > 1


# live lifts after every step, counted when a lift's key still held every
# face's sums or pushed vector: interning the pushed vectors merges exactly
# the lifts that equal vectors merged
_LIVE_LIFTS = {
    (8, False): [1, 2, 3, 5, 7, 12, 17, 17],
    (8, True): [2, 3, 4, 7, 10, 17, 24, 17],
    (16, False): [2, 3, 4, 7, 10, 17, 24, 41, 58, 99, 140, 239, 338, 577, 816, 816],
    (16, True): [1, 2, 3, 5, 7, 12, 17, 29, 41, 70, 99, 169, 239, 408, 577, 408],
}


@pytest.mark.parametrize("faces, mirror", sorted(_LIVE_LIFTS))
def test_live_lifts_after_every_step_are_pinned(faces, mirror, monkeypatch):
    counts = []
    monkeypatch.setattr(qtorus, "sweep", _counting_sweep(counts, len))
    tri, curve = _strip(faces, mirror, 100 + faces)
    quantum_trace(tri, curve)
    assert counts == _LIVE_LIFTS[faces, mirror]


_UPPER_TURN = SL2Matrix(((1, 1), (0, 1)))
_LOWER_TURN = SL2Matrix(((1, 0), (1, 1)))


def _edge_matrix(z):
    return SL2Matrix(((z, 0), (0, 1 / z)))


def _classical_trace(tri, curve, z):
    """The curve's SL2 product at v = 1: its stated entry, or its trace.

    Each face visit is diag(z, 1/z) of the entering edge, a unipotent turn
    matrix whose zero entry is the bad arc (-,+), and diag(z, 1/z) of the
    leaving edge; factors multiply in curve order, and the start state picks
    the row, the end state the column.
    """
    product = SL2Matrix.identity()
    for fid, enter, leave in curve.steps:
        turn = (tri.slot(fid, leave) - tri.slot(fid, enter)) % 3
        product = (
            product
            * _edge_matrix(z[tri.edge_index(fid, enter)])
            * (_UPPER_TURN if turn == 2 else _LOWER_TURN)
            * _edge_matrix(z[tri.edge_index(fid, leave)])
        )
    if curve.closed:
        return product.trace()
    start, end = (STATES.index(s) for s in curve.end_states)
    return product.rows[start][end]


def _trace_at_one(tri, x, z):
    """x at v = 1, each side variable set to the value of its edge."""
    total = Fraction(0)
    for vec, c in x.terms.items():
        term = Fraction(c.specialize(1))
        for fid, sides in tri.faces:
            for side in sides:
                term *= z[tri.edge_index(fid, side)] ** vec[tri.variable(fid, side)]
        total += term
    return total


def test_trace_at_one_is_an_sl2_product():
    rng = seeded(73)
    for _, tri, curve in _ORACLE_CASES:
        z = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice((1, -1)) for _ in tri.edges]
        assert _trace_at_one(tri, quantum_trace(tri, curve), z) == _classical_trace(tri, curve, z)


def test_long_strip_trace_is_balanced():
    # 15 junctions: 2^15 lifts, but only a few hundred partial monomials
    for mirror in (False, True):
        tri, curve = _strip(16, mirror, 116)
        tr = quantum_trace(tri, curve)
        assert tr.terms and check_balanced(tri, tr)


# ---------------------------------------------------------------------------
# the punctured torus's skein relations
# ---------------------------------------------------------------------------

# three loops meeting pairwise once, each visiting each face once
ALPHA = (("F0", 0, 1), ("F1", 1, 0))
BETA = (("F0", 0, 2), ("F1", 2, 0))
DELTA = (("F0", 1, 2), ("F1", 2, 1))
PT_TORUS = ambient_torus(PUNCTURED_TORUS)


def _loop_trace(steps):
    return quantum_trace(PUNCTURED_TORUS, NormalCurve(list(steps), closed=True))


def _times(*xs):
    out = QTElement.unit(PT_TORUS)
    for x in xs:
        out = qt_multiply(out, x)
    return out


def _q_commutator(x, y, before=-1):
    """q^before t(x)t(y) - q^-before t(y)t(x)."""
    tx, ty = _loop_trace(x), _loop_trace(y)
    return _times(tx, ty).scale(q_power(before)) - _times(ty, tx).scale(q_power(-before))


_CYCLIC = [(ALPHA, BETA, DELTA), (BETA, DELTA, ALPHA), (DELTA, ALPHA, BETA)]


@pytest.mark.parametrize("x, y, z", _CYCLIC, ids=["alpha-beta", "beta-delta", "delta-alpha"])
def test_loops_meeting_once_satisfy_the_q_commutator_relation(x, y, z):
    # q^-1 t(x)t(y) - q t(y)t(x) = (q^-2 - q^2) t(z), in the per-face torus;
    # the reversed order must fail, or the check would not see q
    gap = q_power(-2) - q_power(2)
    assert _q_commutator(x, y) == _loop_trace(z).scale(gap)
    assert _q_commutator(y, x) != _loop_trace(z).scale(gap)


# (q^2 - q^-2)^-1 (q t(alpha)t(beta) - q^-1 t(beta)t(alpha)), divided exactly
_GAMMA = QTElement(
    PT_TORUS,
    {
        (-2, -1, -1, -2, -1, -1): q_power(1),
        (-2, 1, -1, -2, 1, -1): q_power(-5),
        (0, 1, -1, 0, 1, -1): q_power(1) + q_power(-3),
        (2, 1, -1, 2, 1, -1): q_power(3),
        (2, 1, 1, 2, 1, 1): q_power(1),
    },
)
# the Bullock-Przytycki cubic's value for the peripheral loop
_PERIPHERAL = QTElement(PT_TORUS, {(2,) * 6: q_power(4), (-2,) * 6: q_power(4)})


def test_the_recorded_right_sides_are_products_of_pinned_traces():
    alpha, beta, delta = map(_loop_trace, (ALPHA, BETA, DELTA))
    assert _q_commutator(ALPHA, BETA, before=1) == _GAMMA.scale(q_power(2) - q_power(-2))
    cubic = (
        _times(alpha, beta, delta).scale(q_power(-1))
        - _times(alpha, alpha).scale(q_power(-2))
        - _times(beta, beta).scale(q_power(2))
        - _times(delta, delta).scale(q_power(-2))
        + QTElement.unit(PT_TORUS).scale(q_power(2) + q_power(-2))
    )
    assert cubic == _PERIPHERAL
    # the sweep reaches the same monomials, with other powers of q
    assert set(_loop_trace(ALPHA + BETA).terms) == set(_GAMMA.terms)
    assert set(_loop_trace(PUNCTURED_TORUS_LOOPS[3]).terms) == set(_PERIPHERAL.terms)


@pytest.mark.xfail(strict=True, reason="the trace's height convention: it gives 1, q^-6, 2q^-2, q^2 and 1")
def test_alpha_then_beta_is_their_q_commutator():
    assert _loop_trace(ALPHA + BETA) == _GAMMA


@pytest.mark.xfail(strict=True, reason="the trace's height convention: it gives q^3 on both monomials")
def test_the_peripheral_loop_satisfies_the_cubic_relation():
    assert _loop_trace(PUNCTURED_TORUS_LOOPS[3]) == _PERIPHERAL


# ---------------------------------------------------------------------------
# gates that need no recorded values: bar invariance and the leading term
# ---------------------------------------------------------------------------


def _weyl_normalised(x, sign=1):
    """x's coefficients on Weyl-ordered monomials: the coefficient c of x^k times
    v^(-R), R = `_reorder_power(form, k, k)`.  `sign` -1 flips R, as a mutant."""
    form = x.torus.form
    return {k: c * half(-sign * _reorder_power(form, k, k)) for k, c in x.terms.items()}


def _leading(terms):
    """The monomial of largest exponent sum, ties going to the larger vector."""
    return max(terms, key=lambda k: (sum(k), k))


def _passes_the_gates(x, sign=1):
    """Whether x, Weyl-normalised, is bar invariant with leading coefficient 1."""
    terms = _weyl_normalised(x, sign)
    return all(c.conjugate() == c for c in terms.values()) and terms[_leading(terms)] == ONE


def _visit_counts(tri, curve):
    """The exponent vector counting, for each side of each face, the curve's ends on it."""
    vec = [0] * (3 * len(tri.faces))
    for fid, enter, leave in curve.steps:
        vec[tri.variable(fid, enter)] += 1
        vec[tri.variable(fid, leave)] += 1
    return tuple(vec)


_CLOSED_CASES = [case for case in _ORACLE_CASES if case[2].closed]
# the closed curves whose traces the height defect (ROADMAP direction 3) keeps off both gates
_HEIGHT_DEFECT = {"loop-3-x1", "loop-3-x2"} | {
    "walk-" + sides
    for sides in "0102 0121 0201 0212 1012 1020 1202 1210 2010 2021 2101 2120".split()
}
_GATED = [case for case in _CLOSED_CASES if case[0] not in _HEIGHT_DEFECT]


def test_the_gated_split_covers_every_closed_curve():
    assert len(_CLOSED_CASES) == 29 and len(_GATED) == 15
    assert _HEIGHT_DEFECT < {name for name, _, _ in _CLOSED_CASES}


@pytest.mark.parametrize(
    "tri, curve",
    [
        pytest.param(
            tri,
            curve,
            id=name,
            marks=[pytest.mark.xfail(strict=True, reason="the trace's height convention")]
            if name in _HEIGHT_DEFECT
            else [],
        )
        for name, tri, curve in _CLOSED_CASES
    ],
)
def test_a_closed_trace_is_bar_invariant_with_leading_coefficient_one(tri, curve):
    assert _passes_the_gates(quantum_trace(tri, curve))


@pytest.mark.parametrize(
    "tri, curve", [case[1:] for case in _CLOSED_CASES], ids=[case[0] for case in _CLOSED_CASES]
)
def test_a_closed_trace_leads_at_its_visit_counts(tri, curve):
    assert _leading(quantum_trace(tri, curve).terms) == _visit_counts(tri, curve)


def test_the_recorded_right_sides_pass_both_gates():
    # if they did not, the normalisation would be wrong, not the trace
    assert _passes_the_gates(_GAMMA) and _passes_the_gates(_PERIPHERAL)


def test_the_gates_catch_a_flipped_normalisation_and_a_stray_power_of_q():
    traces = [quantum_trace(tri, curve) for _, tri, curve in _GATED]
    assert all(_passes_the_gates(x) for x in traces)
    assert not any(_passes_the_gates(x, sign=-1) for x in traces)
    assert not any(_passes_the_gates(x.scale(q_power(1))) for x in traces)
