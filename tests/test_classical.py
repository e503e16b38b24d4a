"""Rational traces of stated paths and their skein compatibility."""

import itertools
import json
import sys
from fractions import Fraction

import pytest
from support import oq, random_sl2, seeded

from bigon import classical
from bigon.classical import (
    FIBER,
    HALF_FIBER,
    IDENTITY,
    GroupoidRep,
    SL2Matrix,
    StatedPath,
    cut_check,
    evaluate_at_one,
    holonomy,
    skein_vs_classical,
    splice_cuts,
    trace_arc,
    trace_loop,
    _entry,
)
from bigon.hopf import multiply

STATES = ("+", "-")


def _rep(rng, *names):
    return GroupoidRep({n: random_sl2(rng) for n in names})


_LETTER_STATES = {"a": "++", "b": "+-", "c": "-+", "d": "--"}


def _dictionary(word=("g",)):
    return {g: StatedPath(list(word), states=st) for g, st in _LETTER_STATES.items()}


def test_sl2_validation():
    with pytest.raises(ValueError):
        SL2Matrix(((1, 0), (0, 2)))
    with pytest.raises(ValueError):
        SL2Matrix(((1, 0, 0), (0, 1, 0)))
    m = SL2Matrix(((2, 3), (1, 2)))
    assert m * m.inverse() == SL2Matrix.identity()
    assert (-m).trace() == -4
    assert m.rows[0][0] == Fraction(2)
    # the determinant is checked over the entries' common denominator
    assert SL2Matrix(((Fraction(1, 2), Fraction(3, 4)), (0, 2))).rows[0][1] == Fraction(3, 4)
    with pytest.raises(ValueError, match=r"^determinant is 3/2, not 1$"):
        SL2Matrix(((Fraction(1, 2), 0), (0, 3)))


def test_half_fiber_squares_to_fiber():
    assert HALF_FIBER * HALF_FIBER == FIBER
    assert FIBER * FIBER == SL2Matrix.identity()


def test_rep_injects_fiber_elements():
    rep = GroupoidRep({})
    assert rep.matrix("sqrtO") == HALF_FIBER
    assert rep.matrix("O") == FIBER
    with pytest.raises(ValueError):
        GroupoidRep({"sqrtO": SL2Matrix.identity()})
    with pytest.raises(ValueError):
        rep.matrix("nope")


@pytest.mark.parametrize("name", ["sqrtO-", "CUT", "~g", "~"])
def test_a_piece_named_like_a_token_is_refused(name):
    # a path reads these names as tokens, so the piece could never be reached
    with pytest.raises(ValueError, match="path token"):
        GroupoidRep({name: SL2Matrix(((2, 3), (1, 2)))})
    with pytest.raises(ValueError, match="path token"):
        GroupoidRep.from_dict({"generators": {name: [["2", "3"], ["1", "2"]]}})


def test_path_validation():
    with pytest.raises(ValueError):
        StatedPath(["g"], states="++", closed=True)
    with pytest.raises(ValueError):
        StatedPath(["g"])
    with pytest.raises(ValueError):
        StatedPath(["g"], states="+0")
    with pytest.raises(ValueError):
        StatedPath(["g"], states="+++")


def test_holonomy_reverses_the_word():
    rng = seeded(1)
    g, h = random_sl2(rng), random_sl2(rng)
    rep = GroupoidRep({"g": g, "h": h})
    assert holonomy(rep, StatedPath(["g", "h"], states="++")) == h * g
    assert holonomy(rep, StatedPath([], states="++")) == SL2Matrix.identity()


def test_token_semantics():
    rng = seeded(2)
    g = random_sl2(rng)
    rep = GroupoidRep({"g": g})
    assert holonomy(rep, StatedPath(["~g"], states="++")) == -g.inverse()
    assert holonomy(rep, StatedPath(["sqrtO-"], states="++")) == HALF_FIBER.inverse()
    with pytest.raises(ValueError):
        holonomy(rep, StatedPath(["CUT"], states="++"))


def test_trace_table():
    rep = GroupoidRep({"g": SL2Matrix(((2, 3), (1, 2)))})
    values = {
        ("+", "+"): Fraction(1),
        ("+", "-"): Fraction(-2),
        ("-", "+"): Fraction(2),
        ("-", "-"): Fraction(-3),
    }
    for st, expected in values.items():
        assert trace_arc(rep, StatedPath(["g"], states=st)) == expected


def test_trace_wants_matching_topology():
    rep = GroupoidRep({})
    with pytest.raises(ValueError):
        trace_arc(rep, StatedPath(["O"], closed=True))
    with pytest.raises(ValueError):
        trace_loop(rep, StatedPath(["O"], states="++"))


def test_arc_trace_survives_reversal():
    rng = seeded(3)
    for _ in range(100):
        rep = _rep(rng, "g")
        for st in itertools.product(STATES, repeat=2):
            fwd = trace_arc(rep, StatedPath(["g"], states=st))
            back = trace_arc(rep, StatedPath(["~g"], states=(st[1], st[0])))
            assert fwd == back


def test_multi_piece_reversal_needs_a_fiber_correction():
    # reversing the pieces one by one flips two signs, so a full fiber
    # restores the good lift of the reversed composite
    rng = seeded(4)
    rep = _rep(rng, "g", "h")
    for st in itertools.product(STATES, repeat=2):
        fwd = trace_arc(rep, StatedPath(["g", "h"], states=st))
        back = trace_arc(rep, StatedPath(["~h", "~g", "O"], states=(st[1], st[0])))
        assert fwd == back


def test_loop_traces():
    rng = seeded(5)
    rep = _rep(rng, "g")
    g = rep.matrix("g")
    assert trace_loop(rep, StatedPath(["g"], closed=True)) == g.trace()
    assert trace_loop(rep, StatedPath(["~g", "O"], closed=True)) == g.trace()
    # a plane circle winds the tangent once around the fiber
    assert trace_loop(GroupoidRep({}), StatedPath(["O"], closed=True)) == -2


def test_cut_formula():
    rng = seeded(6)
    for _ in range(100):
        rep = _rep(rng, "p", "q", "r")
        for word in (
            ["p", "CUT", "q"],
            ["p", "CUT", "q", "CUT", "r"],
            ["p", "CUT", "~q", "CUT", "r", "CUT", "CUT", "p"],
        ):
            for st in itertools.product(STATES, repeat=2):
                path = StatedPath(word, states=st)
                assert cut_check(rep, path) == trace_arc(rep, splice_cuts(path))


def test_cut_formula_without_marks_is_the_trace():
    rng = seeded(7)
    rep = _rep(rng, "g")
    path = StatedPath(["g"], states="+-")
    assert cut_check(rep, path) == trace_arc(rep, path)


def test_cut_check_starts_from_the_identity_built_once(monkeypatch):
    assert IDENTITY == SL2Matrix.identity() and FIBER == -IDENTITY
    rep = GroupoidRep({"g": ((2, 3), (1, 2))})
    path = StatedPath(["g", "CUT", "~g", "CUT", "O"], states="+-")
    expected = trace_arc(rep, splice_cuts(path))

    def checked(*args):
        raise AssertionError("cut_check went through the checking constructor")

    monkeypatch.setattr(SL2Matrix, "__init__", checked)
    assert cut_check(rep, path) == expected


def test_cut_check_rejections():
    rep = GroupoidRep({})
    with pytest.raises(ValueError):
        cut_check(rep, StatedPath(["O"], closed=True))
    # any number of cut marks is a product of state tables
    for st in itertools.product(STATES, repeat=2):
        path = StatedPath(["O", "CUT", "O", "CUT", "O", "CUT", "O"], states=st)
        assert cut_check(rep, path) == trace_arc(rep, splice_cuts(path))


def test_crossing_resolves_into_both_smoothings():
    # the two strands of a crossing, their parallel smoothing, and their
    # turnback smoothing (each turnback reverses one half-strand; the pair
    # carries one net full-fiber correction)
    rng = seeded(8)
    for _ in range(25):
        rep = _rep(rng, "al", "ar", "bl", "br")
        for l0, l1, r0, r1 in itertools.product(STATES, repeat=4):
            cross = trace_arc(rep, StatedPath(["al", "ar"], states=(l0, r1))) * trace_arc(
                rep, StatedPath(["bl", "br"], states=(l1, r0))
            )
            par = trace_arc(rep, StatedPath(["al", "br"], states=(l0, r0))) * trace_arc(
                rep, StatedPath(["bl", "ar"], states=(l1, r1))
            )
            turn = trace_arc(rep, StatedPath(["al", "~bl"], states=(l0, l1))) * trace_arc(
                rep, StatedPath(["~br", "O", "ar"], states=(r0, r1))
            )
            assert cross == par + turn


def test_generator_dictionary_is_multiplicative():
    rng = seeded(9)
    for _ in range(20):
        rep = _rep(rng, "g")
        x = multiply(oq("b"), oq("c"))
        assert skein_vs_classical(x, rep, _dictionary())


def test_dictionary_on_a_longer_word():
    rng = seeded(10)
    rep = _rep(rng, "g", "h")
    x = multiply(oq("ab"), oq("cd"))
    assert skein_vs_classical(x, rep, _dictionary(("g", "h")))


def test_incomplete_dictionary():
    rep = GroupoidRep({})
    dic = _dictionary()
    del dic["d"]
    with pytest.raises(ValueError):
        skein_vs_classical(oq("a"), rep, dic)


def test_a_dictionary_sending_b_and_c_to_one_arc_is_not_multiplicative():
    rep = GroupoidRep({"g": ((2, 1), (1, 1))})
    dic = _dictionary()
    assert skein_vs_classical(oq("a"), rep, dic)
    dic["c"] = dic["b"]
    assert not skein_vs_classical(oq("a"), rep, dic)


def test_commutators_collapse_at_one():
    rng = seeded(11)
    dic = _dictionary()
    for _ in range(20):
        rep = _rep(rng, "g")
        values = {g: trace_arc(rep, dic[g]) for g in "abcd"}
        bc = evaluate_at_one(multiply(oq("b"), oq("c")), values)
        cb = evaluate_at_one(multiply(oq("c"), oq("b")), values)
        assert bc == cb
        ca = evaluate_at_one(multiply(oq("c"), oq("a")), values)
        ac = evaluate_at_one(multiply(oq("a"), oq("c")), values)
        assert ca == ac


def test_quantum_determinant_evaluates_to_one():
    rng = seeded(12)
    dic = _dictionary()
    for _ in range(20):
        rep = _rep(rng, "g")
        values = {g: trace_arc(rep, dic[g]) for g in "abcd"}
        det = multiply(oq("a"), oq("d")) - multiply(oq("b"), oq("c"))
        assert evaluate_at_one(det, values) == 1


def test_rep_json_round_trip():
    rep = GroupoidRep({"g": SL2Matrix(((Fraction(1, 2), Fraction(-3, 4)), (1, Fraction(1, 2))))})
    data = json.loads(json.dumps(rep.to_dict()))
    again = GroupoidRep.from_dict(data)
    assert again.matrix("g") == rep.matrix("g")
    assert data["generators"]["g"][0][1] == "-3/4"
    assert again.matrix("O") == FIBER
    rng = seeded(17)
    for _ in range(20):
        rep = GroupoidRep({"g": random_sl2(rng), "h": random_sl2(rng), "k": random_sl2(rng)})
        again = GroupoidRep.from_dict(json.loads(json.dumps(rep.to_dict())))
        assert again.generators.keys() == rep.generators.keys()
        for name, matrix in rep.generators.items():
            assert again.matrix(name) == matrix and again.matrix(name).rows == matrix.rows
    # unreduced entries read as their reduced forms
    unreduced = GroupoidRep.from_dict({"generators": {"g": [["2/4", "-6/8"], ["3/3", "4/8"]]}})
    reduced = GroupoidRep.from_dict({"generators": {"g": [["1/2", "-3/4"], ["1", "1/2"]]}})
    assert unreduced.matrix("g").rows == reduced.matrix("g").rows
    for word in (["g"], ["g", "~g", "g"], ["g", "sqrtO", "g"]):
        for states in ("++", "+-", "-+", "--"):
            arc = StatedPath(word, states=states)
            assert trace_arc(unreduced, arc) == trace_arc(reduced, arc)
        loop = StatedPath(word, closed=True)
        assert trace_loop(unreduced, loop) == trace_loop(reduced, loop)


def test_path_json_round_trip():
    path = StatedPath(["g", "CUT", "~h"], states="+-")
    again = StatedPath.from_dict(json.loads(json.dumps(path.to_dict())))
    assert again.word == path.word and again.states == path.states
    loop = StatedPath(["g"], closed=True)
    assert StatedPath.from_dict(loop.to_dict()).closed


@pytest.mark.parametrize("entry", ["1/0", "-3/0", "abc"])
def test_an_unreadable_matrix_entry_is_a_type_error(entry):
    # a zero denominator too, rather than Fraction's ZeroDivisionError
    with pytest.raises(TypeError):
        GroupoidRep.from_dict({"generators": {"g": [[entry, "3"], ["1", "2"]]}})


def test_states_must_be_a_json_string():
    for states in ({"+": 1, "-": 2}, ["+", "-"], 1):
        with pytest.raises(TypeError, match="^states must be a string$"):
            StatedPath.from_dict({"word": ["g"], "states": states})
    assert StatedPath.from_dict({"word": ["g"], "states": "+-"}).states == ("+", "-")


def _fraction_entry(e):
    """The entry reader before the integer path: every string through Fraction."""
    if type(e) not in (int, str):
        raise TypeError("a matrix entry must be an integer or a string, not %s" % type(e).__name__)
    try:
        exponent = classical._EXPONENT.search(e) if type(e) is str else None
        limit = sys.get_int_max_str_digits()
        if exponent and limit and abs(int(exponent.group(1))) > limit:
            raise TypeError("a decimal exponent in %r is past %d digits" % (e[:40], limit))
        return Fraction(e)
    except (ValueError, ZeroDivisionError) as err:
        raise TypeError(str(err)) from None


_ENTRY_CORPUS = [
    "3", "+3", "-3", "007", "-0/5", "2/4", "-6/8", " 3 ", "1_000", "1.5", "1e3",
    "1/0", "1/00", "3/009", "abc", "\u0661",
    "7" * 5000, "-" + "7" * 5000, "1/" + "7" * 5000, "1e3000000",
    True, 1.5, None, 12, -12,
]


def _outcome(read, e):
    try:
        value = read(e)
    except Exception as err:
        return type(err), str(err)
    return value


def _entry_mismatches():
    """The corpus entries that `_entry` reads otherwise than the Fraction route."""
    bad = []
    for e in _ENTRY_CORPUS:
        got, want = _outcome(classical._entry, e), _outcome(_fraction_entry, e)
        if isinstance(want, Fraction):
            want = (want.numerator, want.denominator)
            if type(got) is not tuple or any(type(part) is not int for part in got):
                bad.append(e)
                continue
        if got != want:
            bad.append(e)
    return bad


def test_entries_read_as_the_fraction_route_reads_them():
    assert _entry_mismatches() == []


# The oracle for the integer arithmetic: entries as Fractions, each product of
# two entries reduced, pieces multiplied in reverse traversal order.  The
# package computes on the representation read back from its JSON object.


def _fraction_product(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _fraction_token(rep, token):
    if token == "sqrtO-":
        return ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))
    if token.startswith("~"):
        (a, b), (c, d) = rep.matrix(token[1:]).rows
        return ((-d, b), (c, -a))
    return rep.matrix(token).rows


def _fraction_holonomy(rep, word):
    out = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    for token in word:
        out = _fraction_product(_fraction_token(rep, token), out)
    return out


def _fraction_loop(rep, word):
    loop = _fraction_holonomy(rep, word)
    return loop[0][0] + loop[1][1]


def _fraction_arc(rep, word, states):
    (a, b), (c, d) = _fraction_holonomy(rep, word)
    return {"++": c, "+-": -a, "-+": d, "--": -b}["".join(states)]


def _fraction_cut(rep, word, states):
    """The cutting formula as written: a sum over the states at the marks of piece-trace products."""
    pieces = classical._split_at_cuts(word)
    total = Fraction(0)
    for inner in itertools.product(STATES, repeat=len(pieces) - 1):
        ends = (states[0],) + inner + (states[1],)
        term = Fraction(1)
        for i, piece in enumerate(pieces):
            term *= _fraction_arc(rep, piece, ends[i : i + 2])
        total += term
    return total


_TOKENS = ("g", "h", "~g", "~h", "sqrtO", "sqrtO-", "O")


def _oracle_mismatches(seed):
    """Requests on paths of 0-40 pieces, and a piece's inverse, where the package and the Fraction oracle differ."""
    rng = seeded(seed)
    bad = []
    for pieces in range(41):
        rep = GroupoidRep({"g": random_sl2(rng), "h": random_sl2(rng)})
        try:
            read = GroupoidRep.from_dict(rep.to_dict())
        except ValueError:
            bad.append((pieces, "from_dict"))
            continue
        word = [rng.choice(_TOKENS) for _ in range(pieces)]
        states = rng.choice(STATES) + rng.choice(STATES)
        cut = list(word)
        for _ in range(rng.randint(0, 3)):
            cut.insert(rng.randint(0, len(cut)), "CUT")
        got = {
            "holonomy": holonomy(read, StatedPath(word, states=states)).rows,
            "trace_arc": trace_arc(read, StatedPath(word, states=states)),
            "trace_loop": trace_loop(read, StatedPath(word, closed=True)),
            "cut_check": cut_check(read, StatedPath(cut, states=states)),
            "inverse": read.matrix("g").inverse().rows,
        }
        loop = _fraction_holonomy(rep, word)
        (a, b), (c, d) = rep.matrix("g").rows
        want = {
            "holonomy": loop,
            "trace_arc": _fraction_arc(rep, word, states),
            "trace_loop": loop[0][0] + loop[1][1],
            "cut_check": _fraction_cut(rep, cut, states),
            "inverse": ((d, -b), (-c, a)),
        }
        bad += [(pieces, op) for op in got if got[op] != want[op] or type(got[op]) is not type(want[op])]
    return bad


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_integer_holonomies_match_the_fraction_oracle(seed):
    assert _oracle_mismatches(seed) == []


def _inverse_losing_a_sign(self):
    a, b, c, d = self.nums
    return classical._sl2((d, b, -c, a), self.den)


def _product_losing_a_denominator(self, other):
    a00, a01, a10, a11 = self.nums
    b00, b01, b10, b11 = other.nums
    return classical._sl2(
        (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11, a10 * b00 + a11 * b10, a10 * b01 + a11 * b11),
        self.den,
    )


@pytest.mark.parametrize(
    "method, mutant", [("inverse", _inverse_losing_a_sign), ("__mul__", _product_losing_a_denominator)]
)
def test_fraction_oracle_catches_a_mutant(method, mutant, monkeypatch):
    monkeypatch.setattr(SL2Matrix, method, mutant)
    assert _oracle_mismatches(1) != []


def _times(a, b):
    """The product of two matrices as four integers each, in row order."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11, a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _fold_dropping_the_denominators(rep, word):
    nums = (1, 0, 0, 1)
    for token in word:
        nums = _times(classical._token_matrix(rep, token).nums, nums)
    return classical._sl2(nums, 1)


def _fold_in_traversal_order(rep, word):
    nums, den = (1, 0, 0, 1), 1
    for token in word:
        m = classical._token_matrix(rep, token)
        nums, den = _times(nums, m.nums), den * m.den
    return classical._sl2(nums, den)


@pytest.mark.parametrize("mutant", [_fold_dropping_the_denominators, _fold_in_traversal_order])
def test_fraction_oracle_catches_a_fold_mutant(mutant, monkeypatch):
    monkeypatch.setattr(classical, "_fold", mutant)
    assert _oracle_mismatches(1) != []


def test_fraction_oracle_catches_a_table_losing_the_reversal_sign(monkeypatch):
    token_matrix = classical._token_matrix

    def mutant(rep, token):
        m = token_matrix(rep, token)
        return -m if token.startswith("~") else m

    monkeypatch.setattr(classical, "_token_matrix", mutant)
    assert _oracle_mismatches(1) != []


def _counting(monkeypatch, name):
    """Wrap classical.`name` so that each call is counted; returns the list of calls' arguments."""
    calls, inner = [], getattr(classical, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(classical, name, counted)
    return calls


def test_each_token_matrix_is_made_once_per_fold(monkeypatch):
    calls = _counting(monkeypatch, "_token_matrix")
    rep = _rep(seeded(14), "g", "h")
    word = ["g", "~g", "sqrtO-", "~g", "g"] * 8
    assert trace_arc(rep, StatedPath(word, states="+-")) == _fraction_arc(rep, word, "+-")
    assert sorted(token for _, token in calls) == ["g", "sqrtO-", "~g"]
    # a second path makes its own, and so does each piece of a cut path
    assert trace_loop(rep, StatedPath(word[::-1], closed=True)) == _fraction_loop(rep, word[::-1])
    assert len(calls) == 6
    cut = word[:9] + ["CUT"] + word[9:]
    assert cut_check(rep, StatedPath(cut, states="-+")) == _fraction_cut(rep, cut, "-+")
    assert len(calls) == 12


@pytest.mark.parametrize(
    "token, message",
    [
        ("CUT", "cut marker outside the cutting formula"),
        ("~x", "unknown generator 'x'"),
        ("x", "unknown generator 'x'"),
    ],
)
def test_a_refused_token_is_refused_on_every_call(token, message, monkeypatch):
    calls = _counting(monkeypatch, "_token_matrix")
    rep = _rep(seeded(15), "g")
    value = trace_arc(rep, StatedPath(["g"], states="++"))
    for attempt in range(1, 4):
        with pytest.raises(ValueError, match="^%s$" % message):
            trace_arc(rep, StatedPath(["g", token, "g"], states="++"))
        assert len(calls) == 1 + 2 * attempt
    assert trace_arc(rep, StatedPath(["g"], states="++")) == value


def test_each_distinct_entry_text_is_read_once(monkeypatch):
    calls = _counting(monkeypatch, "_entry")
    shears = ("1/2", "-3", "1/2", "2", "-3", "2")
    data = {"generators": {"g%d" % i: [["1", t], ["0", "1"]] for i, t in enumerate(shears)}}
    rep = GroupoidRep.from_dict(data)
    assert sorted(e for (e,) in calls) == ["-3", "0", "1", "1/2", "2"]
    assert rep.matrix("g1") == SL2Matrix(((1, -3), (0, 1)))
    rng = seeded(16)
    data = GroupoidRep({"g%d" % i: random_sl2(rng) for i in range(6)}).to_dict()
    del data["generators"]["O"], data["generators"]["sqrtO"]
    texts = [e for rows in data["generators"].values() for row in rows for e in row]
    del calls[:]
    GroupoidRep.from_dict(data)
    assert len(texts) == 24 and len(calls) == len(set(texts)) < 24


def _reading_p_over_q_as_q_over_p(entry):
    def mutant(e):
        p, q = entry(e)
        if type(e) is str and "/" in e and p:
            return (q if p > 0 else -q), abs(p)
        return p, q

    return mutant


def _dropping_the_sign(entry):
    def mutant(e):
        p, q = entry(e)
        return abs(p), q

    return mutant


@pytest.mark.parametrize("mutate", [_reading_p_over_q_as_q_over_p, _dropping_the_sign])
def test_entry_oracles_catch_a_mutant(mutate, monkeypatch):
    monkeypatch.setattr(classical, "_entry", mutate(classical._entry))
    assert _entry_mismatches() != []
    assert _oracle_mismatches(1) != []


def test_equal_matrices_compare_and_hash_equal_whatever_their_denominators():
    rng = seeded(13)
    one = SL2Matrix.identity()
    for _ in range(20):
        g = random_sl2(rng)
        product = g * g.inverse()
        assert product == one and one == product and hash(product) == hash(one)
        assert len({product, one}) == 1
        assert product.rows == one.rows
        assert g * g * g.inverse() == g and hash(g * g * g.inverse()) == hash(g)
    g = SL2Matrix(((Fraction(1, 2), Fraction(3, 4)), (0, 2)))
    rep = GroupoidRep({"g": g})
    for k in range(6):
        # each ["g", "~g"] is -g^-1 g = -Id
        m = holonomy(rep, StatedPath(["g", "~g"] * k, closed=True))
        expected = one if k % 2 == 0 else -one
        assert m.den == 16**k  # unreduced, yet equal to +-Id
        assert m == expected and hash(m) == hash(expected)
        assert len({m, one, -one}) == 2
    assert one != ((1, 0), (0, 1))


# The parent's route into a representation, kept verbatim as the oracle for the
# one-pass reader: the public constructor converting and checking each piece,
# `from_dict` reading through a per-entry closure into a list, and the token
# table making a reversed piece as a negated inverse.


class _ParentRep(GroupoidRep):
    def __init__(self, generators):
        self.generators = {}
        for name, matrix in generators.items():
            if name in ("sqrtO-", "CUT") or str(name).startswith("~"):
                raise ValueError("%r is a path token, not a piece name" % (name,))
            if not isinstance(matrix, SL2Matrix):
                matrix = SL2Matrix(matrix)
            self.generators[name] = matrix
        for name, required in (("sqrtO", HALF_FIBER), ("O", FIBER)):
            if name in self.generators:
                if self.generators[name] != required:
                    text = "[[%s, %s], [%s, %s]]" % (required.rows[0] + required.rows[1])
                    raise ValueError("%s must be %s" % (name, text))
            else:
                self.generators[name] = required

    @classmethod
    def from_dict(cls, data):
        generators = data["generators"]
        if type(generators) is not dict:
            raise TypeError("generators must be an object")
        for rows in generators.values():
            if type(rows) is not list or [len(r) if type(r) is list else 0 for r in rows] != [2, 2]:
                raise TypeError("a matrix must be a list of two rows of two entries")
        texts = {}

        def read(e):
            # only a str is a key: 1, 1.0 and True are equal keys that read differently
            if type(e) is not str:
                return _entry(e)
            pair = texts.get(e)
            if pair is None:
                pair = texts[e] = _entry(e)
            return pair

        return cls(
            {
                name: SL2Matrix.__new__(SL2Matrix)._check([read(e) for row in rows for e in row])
                for name, rows in generators.items()
            }
        )


def _parent_token_matrix(rep, token):
    if token == "CUT":
        raise ValueError("cut marker outside the cutting formula")
    if token == "sqrtO-":
        return HALF_FIBER.inverse()
    if token.startswith("~"):
        # a piece run backwards as a good lift
        return -rep.matrix(token[1:]).inverse()
    return rep.matrix(token)


def _held(make, arg):
    """What `make(arg)` holds, name by name in order, as exact integers; or its exception."""
    try:
        rep = make(arg)
    except Exception as err:
        return type(err), str(err)
    return [(name, m.nums, m.den) for name, m in rep.generators.items()]


def _bench_shaped(rng):
    """Six pieces, each an upper times a lower shear by amounts such as 3/2, entries as text."""
    gens = {}
    for i in range(6):
        (a, b), (c, d) = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
        for upper in rng.sample([True, False], 2):
            t = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2])) * rng.choice([1, -1])
            if upper:
                b, d = a * t + b, c * t + d
            else:
                a, c = a + b * t, c + d * t
        gens["g%d" % i] = [[str(a), str(b)], [str(c), str(d)]]
    return {"generators": gens}


_GOOD = [["2", "3"], ["1", "2"]]
_DET_3 = [["2", "3"], ["1", "3"]]
_ID = [["1", "0"], ["0", "1"]]
_SQRT_O = [["0", "-1"], ["1", "0"]]
_MINUS_ID = [["-1", "0"], ["0", "-1"]]

# one fault each, the two well-formed objects at the end
_MALFORMED = [
    {},
    {"generators": []},
    {"generators": {"g": "ab"}},
    {"generators": {"g": [["1", "0"]]}},
    {"generators": {"g": [["1", "0"], ["0", "1"], ["0", "0"]]}},
    {"generators": {"g": [["1", "0"], "ab"]}},
    {"generators": {"g": [["1", "0", "0"], ["0", "1"]]}},
    {"generators": {"g": [("1", "0"), ("0", "1")]}},
    {"generators": {"g": [["1/0", "3"], ["1", "2"]]}},
    {"generators": {"g": [["abc", "3"], ["1", "2"]]}},
    {"generators": {"g": [["7" * 5000, "3"], ["1", "2"]]}},
    {"generators": {"g": [[1.5, "0"], ["0", "1"]]}},
    {"generators": {"g": [[True, "0"], ["0", "1"]]}},
    {"generators": {"g": [["1", None], ["0", "1"]]}},
    {"generators": {"g": [["1", "0"], [[0], "1"]]}},
    {"generators": {"g": [["1", "0"], ["0", {"1": 1}]]}},
    {"generators": {"g": _ID, "h": [["1", "0"], ["0", 1.0]]}},
    {"generators": {"g": _DET_3}},
    {"generators": {"g": [["1/2", "0"], ["0", "3"]]}},
    {"generators": {"~g": _GOOD}},
    {"generators": {"CUT": _GOOD}},
    {"generators": {"sqrtO-": _GOOD}},
    {"generators": {"sqrtO": _ID}},
    {"generators": {"O": _ID}},
    {"generators": {"g": _GOOD, "sqrtO": _SQRT_O, "O": _MINUS_ID}},
    {"generators": {"g": [[2, 3], [1, "2"]], "h": [["2", "3"], [1, 2]]}},
]

_SHAPE = (TypeError, "a matrix must be a list of two rows of two entries")
_DET = (ValueError, "determinant is 3, not 1")
_X = (TypeError, "Invalid literal for Fraction: 'x'")

# two faults each, in both orders: the first in the check order (every shape,
# then each matrix's entries and determinant in turn, then names, then sqrtO/O) speaks
_TWO_FAULTS = [
    ({"g": [["1/0", "3"], ["1", "2"]], "h": [["1", "0"]]}, _SHAPE),
    ({"h": [["1", "0"]], "g": [["1/0", "3"], ["1", "2"]]}, _SHAPE),
    ({"sqrtO": _ID, "g": "ab"}, _SHAPE),
    ({"g": _DET_3, "h": [["x", "0"], ["0", "1"]]}, _DET),
    ({"h": [["x", "0"], ["0", "1"]], "g": _DET_3}, _X),
    ({"g": [["2", "x"], [[1], "3"]]}, _X),
    ({"g": [["2", "3"], [[1], "x"]]}, (TypeError, "a matrix entry must be an integer or a string, not list")),
    ({"~g": _ID, "h": _DET_3}, _DET),
    ({"h": _DET_3, "~g": _ID}, _DET),
    ({"O": _ID, "h": _DET_3}, _DET),
    ({"sqrtO": _ID, "CUT": _ID}, (ValueError, "'CUT' is a path token, not a piece name")),
    ({"CUT": _ID, "sqrtO": _ID}, (ValueError, "'CUT' is a path token, not a piece name")),
    ({"O": _SQRT_O, "sqrtO": _MINUS_ID}, (ValueError, "sqrtO must be [[0, -1], [1, 0]]")),
]


def test_from_dict_holds_what_the_parent_route_held():
    rng = seeded(21)
    data = [_rep(rng, "g", "h", "k").to_dict() for _ in range(20)] + [_bench_shaped(rng) for _ in range(20)]
    assert "7/4" in {e for d in data for rows in d["generators"].values() for row in rows for e in row}
    for d in data:
        held = _held(GroupoidRep.from_dict, d)
        assert type(held) is list and held == _held(_ParentRep.from_dict, d)


def test_from_dict_refuses_as_the_parent_route_did():
    outcomes = [_held(GroupoidRep.from_dict, d) for d in _MALFORMED]
    assert outcomes == [_held(_ParentRep.from_dict, d) for d in _MALFORMED]
    assert [type(o) is list for o in outcomes].index(True) == len(_MALFORMED) - 2
    for generators, first in _TWO_FAULTS:
        data = {"generators": generators}
        assert _held(GroupoidRep.from_dict, data) == _held(_ParentRep.from_dict, data) == first


def test_the_constructor_holds_and_refuses_as_the_parent_route_did():
    rng = seeded(22)
    g = random_sl2(rng)
    corpus = [
        {},
        {"g": g, "h": random_sl2(rng)},
        {"g": ((2, 3), (1, 2)), "h": (("1/2", 0), (0, 2)), "k": ((Fraction(1, 3), 0), (1, 3))},
        {"sqrtO": HALF_FIBER, "O": FIBER},
        {"sqrtO": FIBER},
        {"O": ((1, 0), (0, 1))},
        {"g": ((1, 0), (0, 2))},
        {"g": ((1, 0, 0), (0, 1, 0))},
        {"g": (("x", 0), (0, 1))},
        {"~g": g},
        {"CUT": ((1, 0), (0, 2))},
        {"g": ((1, 0), (0, 2)), "~g": g},
        {"~g": g, "h": ((1, 0), (0, 2))},
        {"sqrtO": FIBER, "CUT": g},
        {"sqrtO-": ((1, 0),)},
        {1: g, ("t",): g},
    ]
    for generators in corpus:
        assert _held(GroupoidRep, generators) == _held(_ParentRep, generators)


def _token_mismatches(rep):
    """The tokens on which `_token_matrix` and the parent's table give different matrices or errors."""
    bad = []
    for token in ("g", "~g", "h", "~h", "sqrtO", "sqrtO-", "O", "CUT", "x", "~x"):
        got = _outcome(lambda t: classical._token_matrix(rep, t), token)
        want = _outcome(lambda t: _parent_token_matrix(rep, t), token)
        if isinstance(want, SL2Matrix):
            got, want = (type(got), getattr(got, "rows", got)), (type(want), want.rows)
        if got != want:
            bad.append(token)
    return bad


def test_token_matrices_are_the_parent_tables():
    rng = seeded(23)
    for _ in range(20):
        assert _token_mismatches(_rep(rng, "g", "h")) == []
        shaped = _bench_shaped(rng)["generators"]
        assert _token_mismatches(GroupoidRep.from_dict({"generators": {"g": shaped["g0"], "h": shaped["g1"]}})) == []


def test_a_reversed_piece_dropping_the_sign_is_caught(monkeypatch):
    token_matrix = classical._token_matrix

    def mutant(rep, token):
        if token.startswith("~"):
            m = rep.matrix(token[1:])
            return classical._sl2((m.nums[3], -m.nums[1], -m.nums[2], m.nums[0]), m.den)
        return token_matrix(rep, token)

    monkeypatch.setattr(classical, "_token_matrix", mutant)
    assert _token_mismatches(_rep(seeded(24), "g", "h")) == ["~g", "~h"]
    assert _oracle_mismatches(1) != []


def test_a_reversed_piece_and_the_backwards_half_fiber_are_one_matrix_each(monkeypatch):
    # -g^-1 is built as one matrix, and sqrtO- is a constant: no inverse or negation per token
    rep = _rep(seeded(25), "g")
    calls = []
    for method in ("inverse", "__neg__"):
        inner = getattr(SL2Matrix, method)
        monkeypatch.setattr(SL2Matrix, method, lambda self, inner=inner, name=method: calls.append(name) or inner(self))
    assert classical._token_matrix(rep, "sqrtO-") is classical.HALF_FIBER_INVERSE
    assert classical._token_matrix(rep, "~g") == _parent_token_matrix(rep, "~g")
    assert calls == ["inverse", "__neg__"]
