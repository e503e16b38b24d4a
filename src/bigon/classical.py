"""Exact rational classical limit: groupoid representations and traces.

At v = 1 the skein algebra of a surface turns into functions on twisted flat
SL2 bundles.  A bundle is represented here by a table of exact SL2(Q)
matrices for named path pieces, together with two distinguished elements: the
half fiber turn (written ``sqrtO`` in words) and the full fiber ``O`` = -Id.
A matrix is four integers over one denominator, checked once in integers when
it is built from outside; the arithmetic on it is not checked again.

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

A path's holonomy is one loop over its tokens that multiplies four integers
and a denominator, building a single matrix at the end; each distinct token's
matrix is made once per loop.
"""

import itertools
import math
import re
import sys
from fractions import Fraction

from .hopf import GENERATORS, STATES, OqElement, multiply


class SL2Matrix:
    """A 2x2 rational matrix of determinant one: integers nums = (n00, n01, n10, n11) over den > 0.

    The constructor checks the shape, reads an int entry as e/1, a Fraction as
    numerator/denominator and anything else through `Fraction`, and checks the
    determinant in integers (`_check`).  The arithmetic builds its results
    unchecked (`_sl2`), unreduced; `rows` reduces.
    """

    __slots__ = ("nums", "den")

    def __init__(self, rows):
        rows = tuple(tuple(map(_rational, row)) for row in rows)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("need a 2x2 matrix")
        self._check(rows[0] + rows[1])

    def _check(self, pairs):
        """Hold four entries, each (numerator, denominator > 0) in row order, if the determinant is 1.

        They are brought over the lcm of their denominators and checked as
        n00*n11 - n01*n10 = den^2; a `Fraction` determinant is made only to
        word the ValueError.  Returns self.
        """
        (p0, q0), (p1, q1), (p2, q2), (p3, q3) = pairs
        den = math.lcm(q0, q1, q2, q3)
        nums = (p0 * (den // q0), p1 * (den // q1), p2 * (den // q2), p3 * (den // q3))
        if nums[0] * nums[3] - nums[1] * nums[2] != den * den:
            det = Fraction(nums[0] * nums[3] - nums[1] * nums[2], den * den)
            try:
                message = "determinant is %s, not 1" % det
            except ValueError:  # more digits than the interpreter turns into text
                message = "determinant is not 1, and too long to print"
            raise ValueError(message)
        self.nums, self.den = nums, den
        return self

    @property
    def rows(self):
        n, den = self.nums, self.den
        return ((Fraction(n[0], den), Fraction(n[1], den)), (Fraction(n[2], den), Fraction(n[3], den)))

    @classmethod
    def identity(cls):
        return cls(((1, 0), (0, 1)))

    def __mul__(self, other):
        a00, a01, a10, a11 = self.nums
        b00, b01, b10, b11 = other.nums
        return _sl2(
            (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11, a10 * b00 + a11 * b10, a10 * b01 + a11 * b11),
            self.den * other.den,
        )

    def inverse(self):
        a, b, c, d = self.nums
        return _sl2((d, -b, -c, a), self.den)

    def __neg__(self):
        # -M is again in SL2
        return _sl2(tuple(-e for e in self.nums), self.den)

    def trace(self):
        return Fraction(self.nums[0] + self.nums[3], self.den)

    def __eq__(self, other):
        # equal as rational matrices, whatever the two denominators
        return isinstance(other, SL2Matrix) and all(
            a * other.den == b * self.den for a, b in zip(self.nums, other.nums)
        )

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "SL2Matrix(%r)" % (self.rows,)


def _sl2(nums, den):
    """The matrix nums / den, unchecked: only for results of determinant one by construction."""
    out = object.__new__(SL2Matrix)
    out.nums, out.den = nums, den
    return out


def _rational(e):
    """A constructor entry as (numerator, denominator > 0)."""
    if type(e) is int:
        return e, 1
    if not isinstance(e, Fraction):
        e = Fraction(e)
    return e.numerator, e.denominator


IDENTITY = SL2Matrix.identity()
HALF_FIBER = SL2Matrix(((0, -1), (1, 0)))
FIBER = -IDENTITY


# an ASCII integer, or p/q with q nonzero
_PLAIN = re.compile(r"([-+]?[0-9]+)(?:/(0*[1-9][0-9]*))?")
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _entry(e):
    """One file matrix entry as a reduced (numerator, denominator > 0) pair of ints; else a TypeError.

    An integer, or a string of an ASCII integer or p/q (optional sign, no
    spaces), is read straight into ints.  Any other string goes through
    `Fraction`, which reads spaces, decimals, exponents, underscores and other
    digits, and words each refusal: a zero denominator, more digits than the
    interpreter reads.  A decimal exponent past that limit is refused before
    `Fraction` expands it, as an integer string that long already is.
    """
    if type(e) is int:
        return e, 1
    if type(e) is not str:
        raise TypeError("a matrix entry must be an integer or a string, not %s" % type(e).__name__)
    plain = _PLAIN.fullmatch(e)
    if plain:
        try:
            p, q = int(plain[1]), int(plain[2] or 1)
        except ValueError:  # past the digit limit: Fraction words it
            pass
        else:
            g = math.gcd(p, q)
            return p // g, q // g
    try:
        exponent = _EXPONENT.search(e)
        limit = sys.get_int_max_str_digits()
        if exponent and limit and abs(int(exponent.group(1))) > limit:
            raise TypeError("a decimal exponent in %r is past %d digits" % (e[:40], limit))
        value = Fraction(e)
    except (ValueError, ZeroDivisionError) as err:
        raise TypeError(str(err)) from None
    return value.numerator, value.denominator


class GroupoidRep:
    """Named SL2(Q) matrices for path pieces, plus the fiber elements.

    No piece is named ``sqrtO-``, ``CUT`` or ``~...``: a path reads those as tokens.
    """

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
        """A representation from its JSON object.

        * ``generators`` (required): an object mapping each piece name to its
          matrix, a list of two rows, each a list of two entries, else a
          TypeError.  An entry is an integer or a string that
          ``fractions.Fraction`` reads (``"3"``, ``"-1/2"``), else a
          TypeError; each is read once into ints (`_entry`), and the matrix
          is checked once in integers: the determinant must be 1, else a
          ValueError.  Each distinct entry text is read once per call.
          ``sqrtO`` and ``O`` may be left out; when given they must equal
          [[0, -1], [1, 0]] and -Id.  A name that a path reads as a token
          (``sqrtO-``, ``CUT``, ``~...``) is a ValueError.
        """
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
        """A stated path from its JSON object.

        * ``word`` (required): a list of tokens, each a string, in traversal
          order (see the module docstring); else a TypeError.
        * ``closed`` (default ``false``): whether the path is a loop, a JSON
          boolean; else a TypeError.
        * ``states`` (default empty): the start and end states of an open
          path, as a string such as ``"+-"``, else a TypeError; required for
          an open path, absent or empty for a loop.
        """
        word = data["word"]
        if type(word) is not list or any(type(token) is not str for token in word):
            raise TypeError("word must be a list of strings")
        closed = data.get("closed", False)
        if type(closed) is not bool:
            raise TypeError("closed must be true or false")
        states = data.get("states", "")
        if type(states) is not str:
            raise TypeError("states must be a string")
        return cls(word, states=tuple(states) or None, closed=closed)

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


def _fold(rep, word):
    """The reversed product of the word's token matrices, unreduced and unchecked.

    Each distinct token's matrix is made once per call (`_token_matrix`), the
    first time the word uses it.
    """
    table = {}
    n00, n01, n10, n11, den = 1, 0, 0, 1, 1
    for token in word:
        m = table.get(token)
        if m is None:
            m = table[token] = _token_matrix(rep, token)
        a, b, c, d = m.nums
        n00, n01, n10, n11 = a * n00 + b * n10, a * n01 + b * n11, c * n00 + d * n10, c * n01 + d * n11
        den *= m.den
    return _sl2((n00, n01, n10, n11), den)


def holonomy(rep, path):
    """Matrix of the path: pieces in traversal order multiply reversed (`_fold`), unreduced."""
    return _fold(rep, path.word)


def _state_matrix(matrix):
    """The state table of a holonomy: start state picks the row, end state the column."""
    a, b, c, d = matrix.nums
    return _sl2((c, -a, d, -b), matrix.den)


def _at_states(table, states):
    return Fraction(table.nums[2 * STATES.index(states[0]) + STATES.index(states[1])], table.den)


def trace_arc(rep, path):
    """Stated trace of an open path."""
    if path.closed:
        raise ValueError("trace_arc needs an open path")
    return _at_states(_state_matrix(holonomy(rep, path)), path.states)


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

    The sum over the states at each mark is a matrix product of the pieces'
    state tables, read at the end states; it equals the trace of the spliced
    arc, whatever the number of marks.  Each piece folds as a holonomy does
    (`_fold`).
    """
    if path.closed:
        raise ValueError("the cutting formula applies to stated arcs")
    product = IDENTITY
    for piece in _split_at_cuts(path.word):
        product = product * _state_matrix(_fold(rep, piece))
    return _at_states(product, path.states)


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
    missing = [g for g in GENERATORS if g not in dictionary]
    if missing:
        raise ValueError("dictionary lacks %s" % ", ".join(missing))
    values = {g: trace_arc(rep, dictionary[g]) for g in GENERATORS}
    gens = {g: OqElement.from_word(g) for g in GENERATORS}
    for g, h in itertools.product(GENERATORS, repeat=2):
        if evaluate_at_one(multiply(gens[g], gens[h]), values) != values[g] * values[h]:
            return False
    phi_x = evaluate_at_one(x, values)
    for g in GENERATORS:
        if evaluate_at_one(multiply(x, gens[g]), values) != phi_x * values[g]:
            return False
        if evaluate_at_one(multiply(gens[g], x), values) != values[g] * phi_x:
            return False
    return True
