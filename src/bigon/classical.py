"""Exact rational classical limit: groupoid representations and traces.

At v = 1 the skein algebra of a surface turns into functions on twisted flat
SL2 bundles.  A bundle is represented here by a table of exact SL2(Q)
matrices for named path pieces, together with two distinguished elements: the
half fiber turn (written ``sqrtO`` in words) and the full fiber ``O`` = -Id.

Paths are explicit words over the piece names.  Traversal order is the list
order, so the holonomy is the reversed matrix product.  Tokens:

* ``name``   -- the matrix of the piece;
* ``~name``  -- the piece run backwards as a good lift, which flips the sign
  of the inverse matrix;
* ``sqrtO``  -- the half fiber, ``sqrtO-`` its plain inverse;
* ``O``      -- the full fiber (-Id), e.g. as the correction that makes a
  reversed multi-piece word a good lift again;
* ``CUT``    -- a cut marker, only meaningful to the cutting formula, which
  sums piece traces over states at the marks.

The trace of a stated arc with holonomy [[a, b], [c, d]] reads off the state
table (start state chooses the column, end state the row): (+,+) -> c,
(+,-) -> -a, (-,+) -> d, (-,-) -> -b.
"""

import itertools
import json
from fractions import Fraction


class SL2Matrix:
    """A 2x2 rational matrix of determinant one."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(Fraction(e) for e in row) for row in rows)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("need a 2x2 matrix")
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        if det != 1:
            raise ValueError("determinant is %s, not 1" % det)
        self.rows = rows

    @classmethod
    def identity(cls):
        return cls(((1, 0), (0, 1)))

    def __mul__(self, other):
        a, b = self.rows, other.rows
        return SL2Matrix(
            (
                (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
                (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
            )
        )

    def inverse(self):
        (a, b), (c, d) = self.rows
        return SL2Matrix(((d, -b), (-c, a)))

    def __neg__(self):
        # -M is again in SL2
        return SL2Matrix(tuple(tuple(-e for e in row) for row in self.rows))

    def trace(self):
        return self.rows[0][0] + self.rows[1][1]

    def __eq__(self, other):
        return isinstance(other, SL2Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "SL2Matrix(%r)" % (self.rows,)


HALF_FIBER = SL2Matrix(((0, -1), (1, 0)))
FIBER = -SL2Matrix.identity()

STATES = ("+", "-")


class GroupoidRep:
    """Named SL2(Q) matrices for path pieces, plus the fiber elements."""

    def __init__(self, generators):
        self.generators = {}
        for name, matrix in generators.items():
            if not isinstance(matrix, SL2Matrix):
                matrix = SL2Matrix(matrix)
            self.generators[name] = matrix
        for name, required in (("sqrtO", HALF_FIBER), ("O", FIBER)):
            if name in self.generators:
                if self.generators[name] != required:
                    raise ValueError("%s must be %r" % (name, required.rows))
            else:
                self.generators[name] = required

    @classmethod
    def from_dict(cls, data):
        return cls(
            {
                name: SL2Matrix([[Fraction(e) for e in row] for row in rows])
                for name, rows in data["generators"].items()
            }
        )

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def to_dict(self):
        return {
            "generators": {
                name: [[str(e) for e in row] for row in m.rows]
                for name, m in sorted(self.generators.items())
            }
        }

    def matrix(self, name):
        if name not in self.generators:
            raise ValueError("unknown generator %r" % name)
        return self.generators[name]


class StatedPath:
    """A word of path pieces, stated at the ends unless closed."""

    __slots__ = ("word", "states", "closed")

    def __init__(self, word, states=None, closed=False):
        self.word = tuple(word)
        self.closed = bool(closed)
        if self.closed:
            if states:
                raise ValueError("closed paths carry no states")
            self.states = ()
        else:
            states = tuple(states or ())
            if len(states) != 2 or any(s not in STATES for s in states):
                raise ValueError("open paths need two states from '+'/'-'")
            self.states = states

    @classmethod
    def from_dict(cls, data):
        return cls(
            data["word"],
            states=tuple(data.get("states", "")) or None,
            closed=data.get("closed", False),
        )

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def to_dict(self):
        out = {"word": list(self.word), "closed": self.closed}
        if not self.closed:
            out["states"] = "".join(self.states)
        return out


def _token_matrix(rep, token):
    if token == "CUT":
        raise ValueError("cut marker outside the cutting formula")
    if token == "sqrtO-":
        return HALF_FIBER.inverse()
    if token.startswith("~"):
        # a piece run backwards as a good lift
        return -rep.matrix(token[1:]).inverse()
    return rep.matrix(token)


def holonomy(rep, path):
    """Matrix of the path: pieces in traversal order multiply reversed."""
    out = SL2Matrix.identity()
    for token in path.word:
        out = _token_matrix(rep, token) * out
    return out


def _state_value(matrix, start, end):
    (a, b), (c, d) = matrix.rows
    return {
        ("+", "+"): c,
        ("+", "-"): -a,
        ("-", "+"): d,
        ("-", "-"): -b,
    }[(start, end)]


def trace_arc(rep, path):
    """Stated trace of an open path."""
    if path.closed:
        raise ValueError("trace_arc needs an open path")
    return _state_value(holonomy(rep, path), path.states[0], path.states[1])


def trace_loop(rep, path):
    """Matrix trace of a closed path."""
    if not path.closed:
        raise ValueError("trace_loop needs a closed path")
    return holonomy(rep, path).trace()


def _split_at_cuts(word):
    pieces = [[]]
    for token in word:
        if token == "CUT":
            pieces.append([])
        else:
            pieces[-1].append(token)
    return pieces


def splice_cuts(path):
    """The uncut path: each cut mark becomes a backwards half fiber."""
    word = []
    for token in path.word:
        if token == "CUT":
            word.append("sqrtO-")
        else:
            word.append(token)
    return StatedPath(word, states=path.states, closed=path.closed)


def cut_check(rep, path):
    """Sum of stated piece-trace products over all states at the cut marks.

    The value equals the trace of the spliced arc; cutting twice sums over
    four lifts.
    """
    if path.closed:
        raise ValueError("the cutting formula applies to stated arcs")
    pieces = _split_at_cuts(path.word)
    if len(pieces) > 3:
        raise ValueError("at most two cut marks are supported")
    matrices = [holonomy(rep, StatedPath(p, states="++")) for p in pieces]
    total = Fraction(0)
    for lift in itertools.product(STATES, repeat=len(pieces) - 1):
        chain = (path.states[0],) + lift + (path.states[1],)
        term = Fraction(1)
        for i, matrix in enumerate(matrices):
            term *= _state_value(matrix, chain[i], chain[i + 1])
        total += term
    return total


def evaluate_at_one(x, values):
    """Specialize an element at v = 1 against rational generator values.

    `values` maps each letter to a Fraction; monomial words multiply
    commutatively, coefficients collapse to integers.
    """
    total = Fraction(0)
    for word, coeff in x.terms.items():
        term = Fraction(coeff.specialize(1))
        for letter in word:
            term *= values[letter]
        total += term
    return total


def skein_vs_classical(x, rep, dictionary):
    """Does tracing the four generator arcs turn products into numbers?

    `dictionary` sends each of a, b, c, d to its stated arc; the induced
    evaluation must be multiplicative at v = 1 around x and on all generator
    pairs.
    """
    from .hopf import OqElement, multiply

    missing = [g for g in "abcd" if g not in dictionary]
    if missing:
        raise ValueError("dictionary lacks %s" % ", ".join(missing))
    values = {g: trace_arc(rep, dictionary[g]) for g in "abcd"}
    gens = {g: OqElement.from_word(g) for g in "abcd"}
    for g, h in itertools.product("abcd", repeat=2):
        if evaluate_at_one(multiply(gens[g], gens[h]), values) != values[g] * values[h]:
            return False
    phi_x = evaluate_at_one(x, values)
    for g in "abcd":
        if evaluate_at_one(multiply(x, gens[g]), values) != phi_x * values[g]:
            return False
        if evaluate_at_one(multiply(gens[g], x), values) != values[g] * phi_x:
            return False
    return True
