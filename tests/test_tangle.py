import functools
import inspect
import itertools
import textwrap
import time

import pytest

from bigon import tangle as tangle_module
from bigon.hopf import OqElement, OqTensor, coproduct, coproduct_word, counit
from bigon.ring import ONE, RatFunc, ZERO, add_to, half, q_binom, q_factorial, q_int, q_power
from bigon.tangle import (
    LOOP,
    STATES,
    Slice,
    SlicedTangle,
    TangleError,
    TLDiagram,
    TLElement,
    evaluate_matching,
    format_tangle_word,
    jones_wenzl,
    kauffman_reduce,
    matching_to_slices,
    parse_tangle_word,
    rt_evaluate,
    skein_element,
    tl_product,
    _glue_diagrams,
    _sweep,
)
from support import exhaustive_tangles, oq, random_tangle, seeded, state_vectors


def tangle(word, left, right):
    slices, _ = parse_tangle_word(word, n0=len(left))
    return SlicedTangle(slices, tuple(left), tuple(right))


# --- parsing and structure ---------------------------------------------------


def test_parse_round_trip():
    slices, n = parse_tangle_word("cup@1;x+@0;cap@1", n0=1)
    assert [s.kind for s in slices] == ["cup", "x+", "cap"]
    assert [s.in_strands for s in slices] == [1, 3, 3]
    assert n == 1
    t = SlicedTangle(slices, "+", "-")
    assert repr(t) == "SlicedTangle(id1;cup@1;x+@0;cap@1, +->-)"


def test_parse_infers_strand_count():
    slices, n = parse_tangle_word("id2")
    assert n == 2 and slices[0].kind == "id"
    slices, n = parse_tangle_word("cap@0")
    assert slices[0].in_strands == 2 and n == 0
    slices, n = parse_tangle_word("")
    assert slices == [] and n == 0


def test_parse_infers_strand_counts_past_64():
    slices, n = parse_tangle_word("cup@70")
    assert slices[0].in_strands == 70 and n == 72
    slices, n = parse_tangle_word("cap@70")
    assert slices[0].in_strands == 72 and n == 70
    slices, n = parse_tangle_word("cup@0;cap@66;x+@3")
    assert [s.in_strands for s in slices] == [66, 68, 66] and n == 66


@pytest.mark.parametrize(
    "bad",
    ["cap", "twist@0", "cap@x", "idq", "x*@1"],
)
def test_parse_rejects_garbage(bad):
    with pytest.raises(TangleError):
        parse_tangle_word(bad, n0=4)


def test_structural_errors():
    with pytest.raises(TangleError):
        Slice("cap", 1, 2)
    with pytest.raises(TangleError):
        Slice("x+", 0, 1)
    with pytest.raises(TangleError):
        SlicedTangle([Slice("cap", 0, 2)], "+", "+")  # 0 strands leave, 1 state
    with pytest.raises(TangleError):
        SlicedTangle([Slice("cup", 0, 0), Slice("cup", 0, 0)], "", "++++")
    with pytest.raises(TangleError):
        SlicedTangle([], "+", "o")


# --- the scalar invariant ----------------------------------------------------


def test_rt_cap_value():
    assert rt_evaluate(tangle("cap@0", "-+", "")) == half(-1)
    assert rt_evaluate(tangle("cap@0", "+-", "")) == -half(-5)
    assert rt_evaluate(tangle("cap@0", "++", "")) == ZERO


def test_rt_circle():
    assert rt_evaluate(tangle("cup@0;cap@0", "", "")) == LOOP
    assert LOOP == -q_power(2) - q_power(-2)


def test_rt_crossing_entries():
    # matrix entries of the two crossings on mixed states, plus the pure ones
    plus = q_power(1)
    minus = q_power(-1)
    cases = {
        ("x+", "++", "++"): plus,
        ("x+", "--", "--"): plus,
        ("x+", "-+", "-+"): ZERO,
        ("x+", "-+", "+-"): minus,
        ("x+", "+-", "-+"): minus,
        ("x+", "+-", "+-"): plus - q_power(-3),
        ("x+", "++", "+-"): ZERO,
        ("x-", "++", "++"): minus,
        ("x-", "--", "--"): minus,
        ("x-", "-+", "-+"): minus - q_power(3),
        ("x-", "-+", "+-"): plus,
        ("x-", "+-", "-+"): plus,
        ("x-", "+-", "+-"): ZERO,
        ("x-", "--", "-+"): ZERO,
    }
    for (kind, left, right), expected in cases.items():
        assert rt_evaluate(tangle(kind + "@0", left, right)) == expected, (kind, left, right)


def test_rt_reidemeister_ii():
    for left in state_vectors(2):
        for right in state_vectors(2):
            base = rt_evaluate(SlicedTangle([], left, right))
            assert rt_evaluate(tangle("x+@0;x-@0", left, right)) == base
            assert rt_evaluate(tangle("x-@0;x+@0", left, right)) == base
    # same, threaded through a 3-strand context
    for left in state_vectors(3):
        for right in state_vectors(3):
            base = rt_evaluate(SlicedTangle([], left, right))
            assert rt_evaluate(tangle("x+@1;x-@1", left, right)) == base


def test_rt_crossing_insertion_is_invisible():
    rng = seeded(5150)
    for _ in range(40):
        t = random_tangle(rng, max_strands=3, max_slices=4)
        spots = [i for i, s in enumerate(t.slices) if s.in_strands >= 2]
        if not spots:
            continue
        i = rng.choice(spots)
        n = t.slices[i].in_strands
        p = rng.randrange(n - 1)
        padded = (
            t.slices[:i]
            + (Slice("x+", p, n), Slice("x-", p, n))
            + t.slices[i:]
        )
        t2 = SlicedTangle(padded, t.left_states, t.right_states)
        assert rt_evaluate(t2) == rt_evaluate(t)


def test_rt_kinks():
    for nu in "+-":
        for mu in "+-":
            straight = rt_evaluate(SlicedTangle([], (nu,), (mu,)))
            pos = rt_evaluate(tangle("cup@1;x+@0;cap@1", (nu,), (mu,)))
            neg = rt_evaluate(tangle("cup@1;x-@0;cap@1", (nu,), (mu,)))
            assert pos == -q_power(3) * straight
            assert neg == -q_power(-3) * straight


def test_rt_snake_moves():
    for nu in "+-":
        for mu in "+-":
            straight = rt_evaluate(SlicedTangle([], (nu,), (mu,)))
            assert rt_evaluate(tangle("cup@1;cap@0", (nu,), (mu,))) == straight
            assert rt_evaluate(tangle("cup@0;cap@1", (nu,), (mu,))) == straight


# --- the algebra-valued lift -------------------------------------------------


def test_skein_single_strand():
    assert skein_element(SlicedTangle([], "+", "-")) == oq("b")
    assert skein_element(SlicedTangle([], "-", "+")) == oq("c")


def test_skein_empty_tangle():
    assert skein_element(SlicedTangle([], "", "")) == OqElement.unit()


def test_skein_circle():
    assert skein_element(tangle("cup@0;cap@0", "", "")) == OqElement.unit() * LOOP


def test_skein_parallel_strands_multiply_top_down():
    t = SlicedTangle([], "+-", "++")
    # top strand (-,+) reads c, bottom (+,+) reads a
    assert skein_element(t) == oq("ca")


def test_skein_cap_cup_scalars():
    assert skein_element(tangle("cap@0", "-+", "")) == OqElement.unit() * half(-1)
    assert skein_element(tangle("cup@0", "", "-+")) == OqElement.unit() * half(5, -1)
    assert skein_element(tangle("cup@0", "", "+-")) == OqElement.unit() * half(1)


def test_skein_stacked_arcs():
    # twelve arcs on one edge: the lift is the product of their scalars,
    # and the sum over cut states collapses arc by arc
    arcs = ";".join(["cap@0"] * 12)
    assert skein_element(tangle(arcs, "-+" * 12, "")) == OqElement.unit() * half(-1) ** 12
    arcs = ";".join(["cup@0"] * 12)
    assert skein_element(tangle(arcs, "", "-+" * 12)) == OqElement.unit() * half(5, -1) ** 12


def test_kauffman_positive_crossing_example():
    t = tangle("x+@0", "++", "++")
    assert kauffman_reduce(t) == oq("aa", q_power(1))
    assert skein_element(t) == oq("aa", q_power(1))


def test_kauffman_reidemeister_ii_element():
    t = tangle("x-@0;x+@0", "+-", "+-")
    flat = SlicedTangle([], "+-", "+-")
    assert kauffman_reduce(t) == kauffman_reduce(flat)
    assert kauffman_reduce(flat) == skein_element(flat)


def test_lift_theorem_small_corpus():
    for t in exhaustive_tangles(2, 2):
        assert counit(skein_element(t)) == rt_evaluate(t), t


def test_oracle_equivalence_small_corpus():
    for t in exhaustive_tangles(2, 2):
        assert skein_element(t) == kauffman_reduce(t), t


def test_lift_and_oracle_random():
    rng = seeded(1202)
    for _ in range(60):
        t = random_tangle(rng)
        x = skein_element(t)
        assert counit(x) == rt_evaluate(t), t
        assert x == kauffman_reduce(t), t


# The 2^c resolution enumerator that the sweep over flat pictures replaced,
# kept verbatim as the oracle of the bracket.


def _enumerated_resolutions(slices):
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


# The union-find strand tracer that Temperley-Lieb gluing ran on before it
# moved onto the flat pictures, kept as the oracle of both flat routes.


class _Strands:
    """Union-find over strand segments, tracking boundary ends and loops."""

    def __init__(self):
        self.parent = {}
        self.ends = {}
        self.loops = 0

    def fresh(self, end=None):
        sid = len(self.parent)
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

    def pairs(self):
        """The endpoint pairs of the traced arcs; every arc must have two ends."""
        if any(len(ends) != 2 for ends in self.ends.values()):
            raise TangleError("open strand in flat tracing")
        return [tuple(sorted(ends)) for ends in self.ends.values()]


def _traced_components(slices, n_left):
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
    return tr.loops, tr.pairs()


def _enumerated_kauffman(t):
    """Resolve all crossings, then evaluate each flat diagram directly."""
    out = {}
    for coeff, slices in _enumerated_resolutions(t.slices):
        loops, pairs = _traced_components(slices, len(t.left_states))
        piece = evaluate_matching(pairs, t.left_states, t.right_states)
        for mono, c in piece.terms.items():
            add_to(out, mono, c * coeff * LOOP**loops)
    return OqElement(out)


def _crossings(t):
    return sum(s.kind in ("x+", "x-") for s in t.slices)


def _bracket_corpus():
    """Every tangle of exhaustive_tangles(2, 2), and seeded ones up to width 6
    with cups, caps and at most 10 crossings anywhere."""
    corpus = list(exhaustive_tangles(2, 2))
    rng = seeded(1212)
    while len(corpus) < 550:
        t = random_tangle(rng, max_strands=6, max_slices=16)
        if _crossings(t) <= 10:
            corpus.append(t)
    return corpus


def test_bracket_sweep_matches_the_enumerator(monkeypatch):
    # which two strand labels each cap joins: the corpus must reach every case
    joined = set()
    cap = tangle_module._cap

    def spy(key, p):
        a, b = key[0][p : p + 2]
        joined.add("loop" if a == b else {"LL": "left-left", "CC": "cup-cup"}.get(a[0] + b[0], "left-cup"))
        return cap(key, p)

    monkeypatch.setattr(tangle_module, "_cap", spy)
    corpus = _bracket_corpus()
    for t in corpus:
        assert kauffman_reduce(t) == _enumerated_kauffman(t), t
    assert joined == {"loop", "left-left", "cup-cup", "left-cup"}
    assert max(map(_crossings, corpus)) == 10


@pytest.mark.parametrize(
    "name, old, new",
    [
        ("_cap", "LOOP", "ONE"),  # loses the loop factor
        ("_flat_step", "straight, turn =", "turn, straight ="),  # swaps the resolution weights
    ],
)
def test_enumerator_catches_bracket_mutants(name, old, new, monkeypatch):
    source = inspect.getsource(getattr(tangle_module, name))
    assert old in source
    namespace = dict(vars(tangle_module))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(tangle_module, name, namespace[name])
    assert any(kauffman_reduce(t) != _enumerated_kauffman(t) for t in exhaustive_tangles(2, 2))


def test_bracket_route_never_reads_the_state_sweep():
    route = [kauffman_reduce, evaluate_matching] + [
        getattr(tangle_module, name)
        for name in (
            "_flat_step", "_cap", "_cup", "_canonical", "_picture_value", "_endpoint_pairs", "_bracket_walk", "_left_edge"
        )
    ]
    codes = [f.__code__ for f in route]
    codes += [c for code in codes for c in code.co_consts if inspect.iscode(c)]
    names = set().union(*(code.co_names for code in codes))
    assert "sweep" in names
    assert not names & {"_TABLES", "_WIDTH", "_transfer_tables", "_slice_step", "_sweep", "rt_evaluate", "skein_element"}


def test_bracket_sweep_grows_with_the_pictures():
    # the workload's shape: a cup on two strands, crossings at width 4, a cap;
    # 2^16 and 2^40 resolutions, but only a few flat pictures at each slice
    rng = seeded(1640)
    for crossings in (16, 40):
        slices = [Slice("cup", 1, 2)]
        slices += [Slice(rng.choice(("x+", "x-")), rng.randint(0, 2), 4) for _ in range(crossings)]
        t = SlicedTangle(slices + [Slice("cap", 1, 4)], "+-", "-+")
        start = time.perf_counter()
        x = kauffman_reduce(t)
        assert x == skein_element(t) and x
        assert time.perf_counter() - start < 0.5, crossings


def _tensor_of(x, y):
    terms = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            key = (w1, w2)
            s = terms.get(key, ZERO) + c1 * c2
            if s:
                terms[key] = s
            elif key in terms:
                del terms[key]
    return OqTensor(terms)


def _split_sum(t, cut):
    head, tail = t.slices[:cut], t.slices[cut:]
    mid = head[-1].out_strands if head else len(t.left_states)
    total = OqTensor()
    for eta in state_vectors(mid):
        left = skein_element(SlicedTangle(head, t.left_states, eta))
        right = skein_element(SlicedTangle(tail, eta, t.right_states))
        total = total + _tensor_of(left, right)
    return total


def test_coproduct_matches_vertical_cuts():
    corpus = list(exhaustive_tangles(2, 2))
    rng = seeded(404)
    corpus += [random_tangle(rng, max_strands=3, max_slices=3) for _ in range(25)]
    for t in corpus:
        lhs = coproduct(skein_element(t))
        for cut in range(len(t.slices) + 1):
            assert _split_sum(t, cut) == lhs, (t, cut)


# --- Temperley-Lieb and the idempotents --------------------------------------


def _catalan(n):
    from math import comb

    return comb(2 * n, n) // (n + 1)


def test_tl_hook_relations():
    e1 = TLElement.hook(2, 0)
    assert tl_product(e1, e1) == e1.scale(RatFunc(LOOP))
    assert tl_product(TLElement.identity(2), e1) == e1
    f1 = TLElement.hook(3, 0)
    f2 = TLElement.hook(3, 1)
    assert tl_product(tl_product(f1, f2), f1) == f1
    assert tl_product(tl_product(f2, f1), f2) == f2
    assert f1 * f2 * f1 == f1  # operator sugar


def test_a_hook_prints_its_pairs():
    assert repr(TLDiagram.e(3, 0)) == "TL3{L0:L1, L2:R2, R0:R1}"


def test_tl_diagram_count_is_catalan():
    for n in (2, 3, 4):
        seen = {TLDiagram.identity(n)}
        frontier = list(seen)
        hooks = [TLDiagram.e(n, i) for i in range(n - 1)]
        while frontier:
            d = frontier.pop()
            for h in hooks:
                for d2, _ in tl_product(
                    TLElement(n, {d: RatFunc(ONE)}), TLElement(n, {h: RatFunc(ONE)})
                ).terms.items():
                    if d2 not in seen:
                        seen.add(d2)
                        frontier.append(d2)
        assert len(seen) == _catalan(n)


def test_jw_two():
    expected = TLElement.identity(2) + TLElement.hook(2, 0).scale(
        RatFunc(ONE, q_int(2))
    )
    assert jones_wenzl(2) == expected


def test_jw_properties():
    for n in range(1, 7):
        jw = jones_wenzl(n)
        assert jw.identity_coefficient() == RatFunc(ONE)
        assert jw * jw == jw
        for i in range(n - 1):
            hook = TLElement.hook(n, i)
            zero = TLElement(n)
            assert hook * jw == zero
            assert jw * hook == zero


def _is_the_projector(jw):
    """Identity coefficient 1, and every hook kills jw from both sides: this pins
    JW(n) uniquely."""
    zero = TLElement(jw.n)
    hooks = [TLElement.hook(jw.n, i) for i in range(jw.n - 1)]
    return jw.identity_coefficient() == RatFunc(ONE) and all(h * jw == zero == jw * h for h in hooks)


def test_jw_seven_is_the_projector():
    assert _is_the_projector(jones_wenzl(7))


def test_jw_eight_is_the_projector():
    assert _is_the_projector(jones_wenzl(8))


def test_jw_is_kept_over_the_quantum_factorial():
    for n in range(1, 9):
        assert jones_wenzl(n)._fraction_free()[0] == q_factorial(n), n
        assert all(c.den == q_factorial(n) for c in jones_wenzl(n).terms.values()), n


@pytest.mark.parametrize(
    "old, new, n",
    [
        ("q_int(n) * c", "q_int(n - 1) * c", 2),  # N scaled by [n-1], not [n]
        ("add_to(terms, d, c)", "add_to(terms, d, -c)", 2),  # the clasp sum's sign flipped
        ("q_int(k + 1)", "q_int(k)", 3),  # each clasp weighted [k], not [k+1]
    ],
    ids=["scaled-by-n-minus-1", "clasp-sign-flipped", "clasp-weight-off-by-one"],
)
def test_jw_checks_catch_source_mutants(old, new, n, monkeypatch):
    source = inspect.getsource(jones_wenzl)
    assert source.count(old) == 1
    namespace = dict(vars(tangle_module))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(tangle_module, "jones_wenzl", namespace["jones_wenzl"])
    assert not _is_the_projector(tangle_module.jones_wenzl(n))


def test_cold_jw_glues_one_clasp_per_hook(monkeypatch):
    # counted work, not time: [n]! JW(n) = [n] N + sum_k [k+1] N D_k glues each
    # of the n-1 clasps D_k to the Catalan(n-1) diagrams of N, and builds D_k
    # from D_(k+1) with one gluing, at every level m <= n of the recursion
    calls = []

    def counted(d1, d2):
        calls.append((d1, d2))
        return _glue_diagrams(d1, d2)

    monkeypatch.setattr(tangle_module, "_glue_diagrams", counted)
    for n, expected in ((6, 296), (7, 1093)):
        jones_wenzl.cache_clear()
        calls.clear()
        jones_wenzl(n)
        assert len(calls) == expected == sum((m - 1) * _catalan(m - 1) + m - 2 for m in range(2, n + 1)), n
    jones_wenzl.cache_clear()


def test_jw_absorbs_everything():
    jw = jones_wenzl(3)
    for d in [TLDiagram.e(3, 0), TLDiagram.e(3, 1), TLDiagram.identity(3)]:
        x = TLElement(3, {d: RatFunc(ONE)})
        eps = x.identity_coefficient()
        assert jw * x == jw.scale(eps)
        assert x * jw == jw.scale(eps)


# --- TL gluing against the operator invariant ----------------------------------


def _crossingless_matchings(n_left, n_right):
    """Every crossingless matching of n_left left and n_right right points,
    built directly: around the boundary, up the left edge and down the right."""
    boundary = [("L", i) for i in range(n_left)] + [("R", i) for i in reversed(range(n_right))]

    def matchings(points):
        if not points:
            yield []
        for k in range(1, len(points), 2):
            for inside in matchings(points[1:k]):
                for outside in matchings(points[k + 1 :]):
                    yield [(points[0], points[k])] + inside + outside

    return list(matchings(boundary))


def _tl_basis(n):
    """Every crossingless matching of n left and n right points, built directly."""
    return [TLDiagram(n, m) for m in _crossingless_matchings(n, n)]


@pytest.mark.parametrize(
    "pairs",
    [
        [(("L", 0), ("R", 1)), (("L", 1), ("R", 0))],  # the two strands cross
        [(("L", 0), ("R", 0)), (("L", 1), ("X", 9))],  # a point off the boundary
        [(("L", 0), ("R", 0)), (("L", 0), ("L", 1)), (("L", 1), ("R", 1))],  # L0 used twice
        [(("L", 0), ("L", 1), ("R", 0)), (("R", 1),)],
    ],
)
def test_tl_diagram_rejects_what_is_not_a_crossingless_matching(pairs):
    with pytest.raises(TangleError):
        TLDiagram(2, pairs)


NOT_CROSSINGLESS = [
    ([(("L", 0), ("R", 1)), (("L", 1), ("R", 0))], 2, 2),  # the two strands cross
    ([(("L", 0), ("R", 0)), (("L", 1), ("R", 2)), (("L", 2), ("R", 1))], 3, 3),
    ([(("L", 0), ("R", 0))], 2, 2),  # L1 and R1 left out
    ([], 1, 1),
    ([(("L", 0), ("L", 1))], 3, 0),  # L2 left out
    ([(("L", 0), ("L", 2)), (("L", 1), ("R", 0))], 3, 1),  # an arc around a strand across
    ([(("L", 0), ("R", 0)), (("L", 0), ("R", 0))], 1, 1),  # one strand given twice
]


@pytest.mark.parametrize("pairs, n_left, n_right", NOT_CROSSINGLESS)
def test_matching_to_slices_rejects_what_is_not_a_crossingless_matching(pairs, n_left, n_right):
    with pytest.raises(TangleError):
        matching_to_slices(pairs, n_left, n_right)


@pytest.mark.parametrize("pairs, n_left, n_right", NOT_CROSSINGLESS)
def test_evaluate_matching_rejects_what_is_not_a_crossingless_matching(pairs, n_left, n_right):
    with pytest.raises(TangleError):
        evaluate_matching(pairs, "+-+"[:n_left], "+-+"[:n_right])


def test_every_crossingless_matching_is_a_tl_diagram():
    for n in range(1, 6):
        basis = _tl_basis(n)
        assert len(set(basis)) == _catalan(n)


def _rt_rows(d):
    """{left states: {right states: value}} of a diagram, swept over the transfer tables."""
    slices = matching_to_slices(d.pairs, d.n, d.n)
    return {left: _sweep({left: ONE}, slices) for left in itertools.product(STATES, repeat=d.n)}


def _gluing_mismatches(max_n):
    """Basis pairs and left states where LOOP^loops * rt(d1*d2) is not rt(d1) rt(d2).

    The operator invariant is a functor, so composing the two diagrams'
    operators state by state must give the traced gluing, each closed loop
    worth LOOP.  tl_product glues on the bracket sweep's flat pictures, which
    never read the transfer tables this sweep runs on.
    """
    bad = []
    for n in range(1, max_n + 1):
        basis = _tl_basis(n)
        assert len(basis) == _catalan(n)
        rows = {d: _rt_rows(d) for d in basis}
        for d1, d2 in itertools.product(basis, repeat=2):
            product = tl_product(TLElement(n, {d1: RatFunc(ONE)}), TLElement(n, {d2: RatFunc(ONE)}))
            ((glued, coeff),) = product.terms.items()
            for left, glued_row in _rt_rows(glued).items():
                composed = {}
                for eta, w1 in rows[d1][left].items():
                    for right, w2 in rows[d2][eta].items():
                        add_to(composed, right, w1 * w2)
                assert coeff.den == ONE
                if {right: coeff.num * w for right, w in glued_row.items()} != composed:
                    bad.append((d1, d2, left))
    return bad


def test_tl_gluing_is_the_composition_of_operators():
    assert _gluing_mismatches(4) == []


@pytest.mark.parametrize("shift", [1, -1])
def test_gluing_check_catches_a_loop_count_off_by_one(shift, monkeypatch):
    def mutant(d1, d2):
        loops, pairs = _glue_diagrams(d1, d2)
        return max(loops + shift, 0), pairs

    monkeypatch.setattr("bigon.tangle._glue_diagrams", mutant)
    assert _gluing_mismatches(2)


def test_gluing_on_flat_pictures_matches_the_strand_tracer():
    for n in range(1, 6):
        basis = _tl_basis(n)
        for d1, d2 in itertools.product(basis, repeat=2):
            slices = matching_to_slices(d1.pairs, n, n) + matching_to_slices(d2.pairs, n, n)
            loops, pairs = _glue_diagrams(d1, d2)
            traced_loops, traced = _traced_components(slices, n)
            assert loops == traced_loops, (d1, d2)
            assert {frozenset(p) for p in pairs} == {frozenset(p) for p in traced}, (d1, d2)


def _names_read(functions):
    """The names the code of `functions` reads, following every function and
    method of the tangle module that it names, and theirs in turn."""
    own = {}
    for scope in (vars(tangle_module), vars(TLDiagram), vars(TLElement)):
        for name, f in scope.items():
            f = inspect.unwrap(getattr(f, "__func__", f))
            if inspect.isfunction(f) and f.__module__ == tangle_module.__name__:
                own.setdefault(name, []).append(f.__code__)
    todo = [inspect.unwrap(f).__code__ for f in functions]
    seen, names = set(), set()
    while todo:
        code = todo.pop()
        if code not in seen:
            seen.add(code)
            names |= set(code.co_names)
            todo += [c for c in code.co_consts if inspect.iscode(c)]
            todo += [c for name in code.co_names for c in own.get(name, ())]
    return names


def test_tl_route_never_reads_the_state_sweep():
    state_sweep = {"_TABLES", "_WIDTH", "_transfer_tables", "_slice_step", "_sweep"}
    assert {"_sweep", "_TABLES", "_slice_step"} <= _names_read([rt_evaluate])  # calls are followed
    names = _names_read([tl_product, jones_wenzl, _glue_diagrams])
    assert {"_flat_step", "_bracket_walk", "_endpoint_pairs"} <= names
    assert not names & state_sweep


# --- the per-pair RatFunc product, kept as the oracle of the fraction-free one --

DELTA = RatFunc(LOOP)


def ratfunc_tl_product(x, y):
    x._check_frame(y)
    out = {}
    for d1, c1 in x.terms.items():
        for d2, c2 in y.terms.items():
            loops, pairs = _glue_diagrams(d1, d2)
            coeff = c1 * c2
            for _ in range(loops):
                coeff = coeff * DELTA
            add_to(out, TLDiagram(x.n, pairs), coeff)
    return x._with(out)


@functools.lru_cache(maxsize=None)
def ratfunc_jones_wenzl(n):
    """The n-strand idempotent killing every hook generator."""
    if n < 1:
        raise TangleError("defined for n >= 1")
    if n == 1:
        return TLElement.identity(1)
    prev = ratfunc_jones_wenzl(n - 1).embed(n)
    coeff = RatFunc(q_int(n - 1), q_int(n))
    hook = TLElement.hook(n, n - 2)
    return prev + ratfunc_tl_product(ratfunc_tl_product(prev, hook), prev).scale(coeff)


def _coefficient_pool():
    """Coefficients with denominators 1, [k], q+1 and their products."""
    v, q = half(1), q_power(1)
    pool = [RatFunc(ONE), RatFunc(q_power(-1, -2)), RatFunc(v, q + 1)]
    pool += [RatFunc(ONE, q_int(k)) for k in (2, 3, 4)]
    pool += [pool[2] + pool[3], pool[4] - pool[5] * v]
    return pool


def _products_match_the_oracle(max_n):
    """x*y against the oracle for every basis pair (d1, d2), with seeded two-term x on d1, y on d2."""
    rng = seeded()
    pool = _coefficient_pool()
    for n in range(1, max_n + 1):
        basis = _tl_basis(n)
        for d1, d2 in itertools.product(basis, repeat=2):
            x = TLElement(n, {d1: rng.choice(pool), rng.choice(basis): rng.choice(pool)})
            y = TLElement(n, {d2: rng.choice(pool), rng.choice(basis): rng.choice(pool)})
            if x * y != ratfunc_tl_product(x, y):
                return False
    return True


def test_fraction_free_products_match_the_ratfunc_oracle():
    assert _products_match_the_oracle(4)
    for n in range(1, 5):
        jw = jones_wenzl(n)
        for d in _tl_basis(n):
            x = TLElement(n, {d: RatFunc(half(1), q_power(1) + 1)})
            assert jw * x == ratfunc_tl_product(jw, x)
            assert x * jw == ratfunc_tl_product(x, jw)


def test_fraction_free_jones_wenzl_matches_the_ratfunc_oracle():
    for n in range(1, 6):
        assert jones_wenzl(n) == ratfunc_jones_wenzl(n)
        assert all(type(c) is RatFunc for c in jones_wenzl(n).terms.values())


@pytest.mark.parametrize(
    "name, old, new",
    [
        ("tl_product", "dx * dy", "dx"),  # drops the right operand's common denominator
        ("_glue_sum", " * LOOP**loops", ""),  # loses the loop factor
        ("TLElement._fraction_free", " if d != c.den", ""),  # the cofactor takes its own denominator too
    ],
)
def test_oracle_catches_fraction_free_mutants(name, old, new, monkeypatch):
    *path, attr = name.split(".")
    owner = functools.reduce(getattr, path, tangle_module)
    source = textwrap.dedent(inspect.getsource(getattr(owner, attr)))
    assert old in source
    namespace = dict(vars(tangle_module))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(owner, attr, namespace[attr])
    assert not _products_match_the_oracle(3)


def _closure_loops(d):
    """Loops of the Markov closure of d (L_i joined to R_i), by the strand tracer."""
    tr = _Strands()
    arc_at = {}
    for pair in d.pairs:
        sid = tr.fresh()
        for point in pair:
            arc_at[point] = sid
    for i in range(d.n):
        tr.join(arc_at[("L", i)], arc_at[("R", i)])
    return tr.loops


def test_jw_markov_closure_is_the_quantum_integer():
    """The closed JW(n) is the loop value of the n-th Chebyshev polynomial: (-1)^n [n+1]."""
    for n in range(1, 7):
        closure = sum(c * RatFunc(LOOP ** _closure_loops(d)) for d, c in jones_wenzl(n).terms.items())
        assert closure == RatFunc((-1) ** n * q_int(n + 1)), n


# --- stated TL diagrams through the lift --------------------------------------


def _stated_tl(el, left, right):
    out = {}
    for diagram, coeff in el.terms.items():
        slices = matching_to_slices(diagram.pairs, diagram.n, diagram.n)
        piece = skein_element(SlicedTangle(slices, left, right))
        for w, c in piece.terms.items():
            s = out.get(w, RatFunc(ZERO)) + coeff * RatFunc(c)
            if s:
                out[w] = s
            elif w in out:
                del out[w]
    return out


def test_matching_to_slices_round_trip():
    for n_left, n_right in itertools.product(range(7), repeat=2):
        for pairs in _crossingless_matchings(n_left, n_right):
            slices = matching_to_slices(pairs, n_left, n_right)
            loops, traced = _traced_components(slices, n_left)
            assert loops == 0
            assert {frozenset(p) for p in traced} == {frozenset(p) for p in pairs}


def test_stated_jw_collapses_on_constant_states():
    for n in (2, 3):
        jw = jones_wenzl(n)
        for eta in "+-":
            for mu in "+-":
                letter = {"++": "a", "+-": "b", "-+": "c", "--": "d"}[eta + mu]
                got = _stated_tl(jw, (eta,) * n, (mu,) * n)
                assert got == {letter * n: RatFunc(ONE)}


def _eta_state(n, j):
    """Increasing state with j plus signs: minuses below, pluses on top."""
    return ("-",) * (n - j) + ("+",) * j


def _coproduct_with_ratfunc(stated):
    out = {}
    for w, r in stated.items():
        for key, d in coproduct_word(w):
            s = out.get(key, RatFunc(ZERO)) + r * RatFunc(d)
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def test_jw_coproduct_binomial():
    for n, mu_l, mu_r in [
        (2, ("+", "+"), ("+", "+")),
        (2, ("+", "-"), ("-", "+")),
        (3, ("+", "+", "+"), ("+", "+", "+")),
        (3, ("-", "+", "+"), ("+", "+", "-")),
    ]:
        jw = jones_wenzl(n)
        lhs = _coproduct_with_ratfunc(_stated_tl(jw, mu_l, mu_r))
        rhs = {}
        for j in range(n + 1):
            eta = _eta_state(n, j)
            coeff = RatFunc(q_binom(n, j, 4))
            left = _stated_tl(jw, mu_l, eta)
            right = _stated_tl(jw, eta, mu_r)
            for w1, c1 in left.items():
                for w2, c2 in right.items():
                    key = (w1, w2)
                    s = rhs.get(key, RatFunc(ZERO)) + coeff * c1 * c2
                    if s:
                        rhs[key] = s
                    elif key in rhs:
                        del rhs[key]
        assert lhs == rhs, (n, mu_l, mu_r)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Slice("zz", 0, 2), "unknown slice kind"),
        (lambda: Slice("cap", -1, 2), "negative slice geometry"),
        (lambda: Slice("cup", 3, 1), "cannot attach above"),
        (lambda: Slice("id", 1, 2), "carry no position"),
        (lambda: format_tangle_word([]), "explicit strand count"),
        (lambda: TLDiagram.e(3, 2), "does not fit"),
        (lambda: jones_wenzl(0), "n >= 1"),
        (lambda: parse_tangle_word("id2;id3"), "id3 reached with 2 strands"),
        (
            lambda: SlicedTangle(parse_tangle_word("cup@0")[0], (), ("+",)),
            "tangle ends with 2 strands but 1 right states given",
        ),
    ],
    ids=[
        "unknown-kind",
        "negative-position",
        "cup-above",
        "id-with-position",
        "empty-word",
        "e-too-high",
        "jw-0",
        "id-width",
        "right-states",
    ],
)
def test_slices_words_and_diagrams_out_of_range_are_refused(call, message):
    with pytest.raises(TangleError, match=message):
        call()
