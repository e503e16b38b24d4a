"""Exact arithmetic over Z[v, v^-1], the ground ring of the whole package.

Everything downstream -- skein coefficients, quantum-torus weights, pairing
values -- lives over Laurent polynomials in a single variable ``v`` whose
square plays the role of the quantum parameter ``q``.  Storing the half power
directly keeps values like q^(5/2) exact integers of v-degree 5.

The module also provides the plain fraction type of the Temperley-Lieb
coefficients (`RatFunc`: nothing is cancelled, and two fractions are equal
by cross multiplication), quantum integers/binomials, the one text of a
scalar (`format_qform`: its repr, what the command line prints, and read
back bit-exactly), and the sparse linear-combination core of every element
type: `add_to`, `Combination` with its one product rule, and `sweep`, the
package's one fold; only `sweep` owns the fold loop, and `expand` is a
sweep of one step.

Last comes the one tokenizer and recursive-descent parser of the package's
text grammar (`parse_grammar`).  `parse_vform` reads scalars with it; the
command line reads algebra expressions and leg terms with the same parser,
supplying only its own names, product and power.
"""

from __future__ import annotations

import itertools
import operator
import re


_UNIT = {0: 1}  # the terms of ONE


class HalfLaurent:
    """A Laurent polynomial in v with integer coefficients.

    Immutable.  The internal representation is a dict mapping v-exponent to a
    nonzero integer coefficient; q is v^2 by convention throughout.  A
    non-integral exponent or coefficient is a TypeError.  A result may be one
    of its operands itself (x * 1 and x + 0 are x), so nothing may change a
    value once it is made.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, a in coeffs.items():
                e, a = operator.index(e), operator.index(a)
                if a:
                    c[e] = c.get(e, 0) + a
                    if not c[e]:
                        del c[e]
        self._c = c

    # -- ring structure ----------------------------------------------------
    # Each operation does only what its operands need: an exact-type check
    # before any coercion, and a zero summand or unit factor returns the other
    # operand itself.

    def __add__(self, other):
        if type(other) is not HalfLaurent:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        p, r = self._c, other._c
        if not r:
            return self
        if not p:
            return other
        if len(p) < len(r):
            p, r = r, p
        c = dict(p)
        get = c.get
        for e, a in r.items():
            a += get(e, 0)
            if a:
                c[e] = a
            else:
                del c[e]
        out = HalfLaurent.__new__(HalfLaurent)
        out._c = c
        return out

    __radd__ = __add__

    def __neg__(self):
        out = HalfLaurent.__new__(HalfLaurent)
        out._c = {e: -a for e, a in self._c.items()}
        return out

    def __sub__(self, other):
        if type(other) is not HalfLaurent:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        r = other._c
        if not r:
            return self
        c = dict(self._c)
        get = c.get
        for e, a in r.items():
            a = get(e, 0) - a
            if a:
                c[e] = a
            else:
                del c[e]
        out = HalfLaurent.__new__(HalfLaurent)
        out._c = c
        return out

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not HalfLaurent:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        p, r = self._c, other._c
        if r == _UNIT:
            return self
        if p == _UNIT:
            return other
        if len(p) == 1:
            p, r = r, p
        if len(r) == 1:
            # a monomial factor shifts the exponents; nothing can cancel
            ((e2, a2),) = r.items()
            if len(p) == 1:
                ((e1, a1),) = p.items()
                c = {e1 + e2: a1 * a2}
            elif a2 == 1:
                c = {e1 + e2: a1 for e1, a1 in p.items()}
            else:
                c = {e1 + e2: a1 * a2 for e1, a1 in p.items()}
        elif not p or not r:
            return self if not p else other
        else:
            c = {}
            get = c.get
            r = r.items()
            for e1, a1 in p.items():
                for e2, a2 in r:
                    e = e1 + e2
                    c[e] = get(e, 0) + a1 * a2
            c = {e: a for e, a in c.items() if a}
        out = HalfLaurent.__new__(HalfLaurent)
        out._c = c
        return out

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if len(self._c) != 1:
                raise ValueError("only monomials are invertible in the Laurent ring")
            ((e, a),) = self._c.items()
            if a not in (1, -1):
                raise ValueError("only unit monomials are invertible")
            return HalfLaurent({e * n: 1 if (a == 1 or n % 2 == 0) else -1})
        out = ONE
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if type(other) is not HalfLaurent:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._c == other._c

    def __hash__(self):
        # equal values hash equally: zero and the constants hash as their integers
        c = self._c
        return hash(c.get(0, 0)) if c.keys() <= {0} else hash(frozenset(c.items()))

    def __bool__(self):
        return bool(self._c)

    # -- queries -----------------------------------------------------------

    def items(self):
        return self._c.items()

    def conjugate(self):
        """The bar conjugate: v -> v^-1."""
        return HalfLaurent({-e: a for e, a in self._c.items()})

    def specialize(self, v_value):
        """Evaluate at v = v_value; only the classical points +-1 make sense."""
        if v_value not in (1, -1):
            raise ValueError("specialization is only defined at v = 1 or v = -1")
        return sum(a if (v_value == 1 or e % 2 == 0) else -a for e, a in self._c.items())

    def __repr__(self):
        return format_qform(self)


def _coerce(x):
    if isinstance(x, HalfLaurent):
        return x
    if isinstance(x, int):
        return HalfLaurent({0: x})
    return NotImplemented


ZERO = HalfLaurent()
ONE = HalfLaurent({0: 1})


def half(k, coeff=1):
    """Shorthand used all over the test suite: coeff * v^k."""
    return HalfLaurent({k: coeff})


def q_power(m, coeff=1):
    return HalfLaurent({2 * m: coeff})


# ---------------------------------------------------------------------------
# quantum integers and binomials
# ---------------------------------------------------------------------------


def q_int(n):
    """The balanced quantum integer (q^(2n) - q^(-2n)) / (q^2 - q^-2).

    Expands to the symmetric sum q^(2(n-1)) + q^(2(n-3)) + ... + q^(-2(n-1)).
    Odd in n; q_int(0) == 0.
    """
    if n < 0:
        return -q_int(-n)
    return HalfLaurent({4 * (n - 1 - 2 * i): 1 for i in range(n)})


def q_factorial(n):
    out = ONE
    for i in range(1, n + 1):
        out = out * q_int(i)
    return out


def q_binom(n, i, e=2):
    """Gaussian binomial with parameter q^e (q^e = v^(2e)).

    prod_{j=n-i+1}^{n} (1 - q^(e j))  /  prod_{j=1}^{i} (1 - q^(e j)), built
    by the ratio [n, j] = [n, j-1] (1 - q^(e(n-j+1))) / (1 - q^(e j)): each
    step is one exact pass over a dense list in q^e (`one_minus_power`).
    Zero when i < 0 or i > n.
    """
    if i < 0 or i > n:
        return ZERO
    i = min(i, n - i)
    if i and not e:
        raise ZeroDivisionError("division by zero polynomial")
    cs = [1]
    for j in range(1, i + 1):
        cs = one_minus_power(one_minus_power(cs, n - j + 1), j, divide=True)
    return from_dense(0, cs, 2 * e)


def one_minus_power(cs, s, divide=False):
    """A dense ascending coefficient list in t times (1 - t^s), s >= 1, or divided by it.

    Either way one pass over the list: the quotient's entries are running
    sums of every s-th entry.  An inexact division raises ValueError.
    """
    if not divide:
        out = cs + [0] * s
        out[s:] = map(operator.sub, out[s:], cs)
        return out
    out = list(cs)
    for k in range(s):
        out[k::s] = itertools.accumulate(cs[k::s])
    cut = max(len(cs) - s, 0)
    if any(out[cut:]):
        raise ValueError("inexact polynomial division")
    return out[:cut]


def from_dense(shift, cs, step=1):
    """The Laurent polynomial sum_i cs[i] v^(shift + step i)."""
    out = HalfLaurent.__new__(HalfLaurent)
    out._c = {shift + step * i: a for i, a in enumerate(cs) if a}
    return out


# ---------------------------------------------------------------------------
# fractions of Laurent polynomials
# ---------------------------------------------------------------------------


class RatFunc:
    """A fraction of two HalfLaurent values, kept as it is given.

    Nothing is cancelled: equality is cross multiplication, a sum over one
    denominator keeps it, and any other sum or product multiplies the
    denominators.  With no canonical form no hash can agree with ==, so a
    fraction is unhashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        self.num = _coerce(num)
        self.den = _coerce(den)
        if not self.den:
            raise ZeroDivisionError("RatFunc with zero denominator")

    def __add__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __bool__(self):
        return bool(self.num)

    def __str__(self):
        if self.den == ONE:
            return str(self.num)
        return "(%s) / (%s)" % (self.num, self.den)

    __repr__ = __str__


def _coerce_rf(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, HalfLaurent):
        return RatFunc(x, ONE)
    if isinstance(x, int):
        return RatFunc(HalfLaurent({0: x}), ONE)
    return NotImplemented


# ---------------------------------------------------------------------------
# sparse linear combinations
# ---------------------------------------------------------------------------


def add_to(terms, key, coeff):
    """Add coeff into terms[key], dropping the key when the sum cancels."""
    old = terms.get(key)
    total = coeff if old is None else old + coeff
    if total:
        terms[key] = total
    elif old is not None:
        del terms[key]


def expand(terms, image):
    """The sum over {key: c} of c times image(key), an iterable of (key, coeff) pairs:
    a `sweep` of one step."""
    return sweep(terms, (image,), _apply)


def _apply(key, image):
    return image(key)


def sweep(terms, steps, image):
    """For each step in turn, the sum over {key: c} of c times image(key, step),
    an iterable of (key, coeff) pairs: the package's one fold, whose cost
    follows the live keys."""
    for step in steps:
        out = {}
        for key, c in terms.items():
            for new, d in image(key, step):
                add_to(out, new, c * d)
        terms = out
    return terms


class Combination:
    """A finite linear combination of basis keys over the ground ring.

    `terms` is a plain dict from key to coefficient that never stores a zero.
    Every key lives in the same `frame` (a leg count, a torus, a strand
    count, or None when there is nothing to fit); combining two different
    frames raises `frame_error`.  A subclass supplies its frame, its printing
    and, if two of its elements multiply with `*`, a `_times` that calls
    `product`, the one product rule; sums, scaling and equality live here.
    """

    __slots__ = ("frame", "terms")

    frame_name = "frame"
    frame_error = ValueError
    scalars = (HalfLaurent, int)

    def __init__(self, terms=None, frame=None):
        self.frame = frame
        self.terms = {}
        for key, c in (terms or {}).items():
            add_to(self.terms, self._key(key), c)

    def _key(self, key):
        """Check one basis key against the frame; returns it normalised."""
        return key

    def _check_frame(self, other):
        if self.frame != other.frame:
            raise self.frame_error(
                "%s mismatch: %r vs %r" % (self.frame_name, self.frame, other.frame)
            )

    def _with(self, terms):
        """A combination in this frame over `terms`, which hold no zero."""
        out = object.__new__(type(self))
        out.frame = self.frame
        out.terms = terms
        return out

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_frame(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            add_to(terms, key, c)
        return self._with(terms)

    def __neg__(self):
        return self._with({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, coeff):
        return self._with({key: c * coeff for key, c in self.terms.items()} if coeff else {})

    def product(self, other, times):
        """The bilinear extension of times(key, key'), an iterable of (key, coeff) pairs."""
        self._check_frame(other)
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                pair, c = times(k1, k2), c1 * c2  # times first: a budget refuses before c1 * c2
                for key, d in pair:
                    add_to(out, key, c * d)
        return self._with(out)

    def _times(self, other):
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, self.scalars):
            return self.scale(other)
        return self._times(other) if type(other) is type(self) else NotImplemented

    def __rmul__(self, other):
        return self.scale(other) if isinstance(other, self.scalars) else NotImplemented

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.frame == other.frame and self.terms == other.terms

    def __hash__(self):
        return hash((self.frame, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)


# ---------------------------------------------------------------------------
# text forms
# ---------------------------------------------------------------------------


def _terms(c, tail=""):
    """Each term of the Laurent dict c times the factor text `tail` ('' or '*x'),
    descending in v and behind its sign, e.g. ' + q^2*x - 2*v^-1*x': even powers
    of v are powers of q, and a unit coefficient is left out."""
    out = []
    for e in sorted(c, reverse=True):
        a = c[e]
        sign = " + "
        if a < 0:
            sign, a = " - ", -a
        if e & 1:
            head = "*v" if e == 1 else f"*v^{e}"
        else:
            head = "" if not e else "*q" if e == 2 else f"*q^{e >> 1}"
        head += tail
        out.append(sign + (head[1:] or "1") if a == 1 else f"{sign}{a}{head}")
    return "".join(out)


def _joined(text):
    """A sum of `_terms` texts with its first sign as a prefix; the empty sum is '0'."""
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def format_qform(p):
    """The one text of a scalar, e.g. 'q - q^-3' or '-v^5 + 1': descending in v,
    even powers as powers of q.  It is the repr of a HalfLaurent and what the
    command line prints, and parse_vform reads it back bit-exactly."""
    return _joined(_terms(p._c))


def format_sum(terms):
    """Text of a sum of (coefficient, factor text) pairs, in the given order.

    An empty factor stands for 1; a coefficient of more than one term is
    parenthesised and always added; the empty sum is '0'.
    """
    out = []
    for c, factor in terms:
        tail = "*" + factor if factor else ""
        out.append(_terms(c._c, tail) if len(c._c) == 1 else " + (%s)%s" % (format_qform(c), tail))
    return _joined("".join(out))


class ScalarParseError(ValueError):
    """A malformed text form; `pos` counts from the start of the parsed text."""

    def __init__(self, msg, pos):
        super().__init__("%s (at position %d)" % (msg, pos))
        self.pos = pos


_SCALAR_NAMES = {"q": q_power(1), "v": half(1)}
MAX_NESTING = 200  # parentheses open at once; deeper text is refused whoever calls


def _tokens(text, names):
    """(kind, value, position) tokens: ints, matches of `names`, operators."""
    tokens = []
    for found in re.finditer(r"([0-9]+)|(%s)|([-^*+()])|(\S)" % names, text):
        digits, name, op, other = found.groups()
        pos = found.start()
        if other:
            kind = "unknown identifier" if other.isalpha() else "unexpected character"
            raise ScalarParseError("%s %r" % (kind, other), pos)
        if digits:
            try:
                tokens.append(("int", int(digits), pos))
            except ValueError:  # past the interpreter's digit limit
                raise ScalarParseError("integer too long", pos) from None
        else:
            tokens.append(("name", name, pos) if name else (op, op, pos))
    tokens.append(("end", None, len(text)))
    return tokens


def parse_grammar(text, names, atom, product, power):
    """Read `text` in the one grammar of every text form of the package:

        expr   := ['-'] term (('+' | '-') term)*
        term   := factor ('*' factor)*
        factor := atom ['^' ['-'] int]
        atom   := int | name | '(' expr ')'

    A caller supplies what differs: the regular expression `names` of its
    names, `atom(x)` for the value of one (x is the scalar of an int, q or v,
    else the name's text), and `product(x, y, pos)` and `power(x, n, pos)`.
    Sums and negation are the values' own.  Errors are ScalarParseError; a
    '(' with MAX_NESTING others open around it is one.
    """
    tokens = _tokens(text, names)
    at = depth = 0

    def take(kind=None):
        nonlocal at
        token = tokens[at]
        if kind is not None and token[0] != kind:
            raise ScalarParseError("expected %s" % kind, token[2])
        at += 1
        return token

    def expr():
        negate = tokens[at][0] == "-" and take()
        x = term()
        if negate:
            x = -x
        while tokens[at][0] in ("+", "-"):
            op = take()[0]
            y = term()
            x = x + y if op == "+" else x - y
        return x

    def term():
        x = factor()
        while tokens[at][0] == "*":
            pos = take()[2]
            x = product(x, factor(), pos)
        return x

    def factor():
        x = primary()
        if tokens[at][0] == "^":
            pos = take()[2]
            sign = -1 if tokens[at][0] == "-" and take() else 1
            x = power(x, sign * take("int")[1], pos)
        return x

    def primary():
        nonlocal depth
        kind, value, pos = take()
        if kind == "int":
            return atom(HalfLaurent({0: value}))
        if kind == "name":
            return atom(_SCALAR_NAMES.get(value, value))
        if kind != "(":
            raise ScalarParseError("expected a value", pos)
        if depth == MAX_NESTING:
            raise ScalarParseError("expression nests too deeply", pos)
        depth += 1
        x = expr()
        take(")")
        depth -= 1
        return x

    try:
        x = expr()
    except RecursionError:
        # a caller already deep in the stack: each parenthesis costs a few frames
        raise ScalarParseError("expression nests too deeply", tokens[at][2]) from None
    if tokens[at][0] != "end":
        raise ScalarParseError("trailing input", tokens[at][2])
    return x


def _scalar_power(x, n, pos):
    try:
        return x**n
    except ValueError:
        raise ScalarParseError("negative power of a non-invertible factor", pos) from None


def parse_vform(text):
    """Parse a scalar written in the grammar over q and v, e.g. the text of `format_qform`."""
    return parse_grammar(text, "[qv]", lambda x: x, lambda x, y, pos: x * y, _scalar_power)
