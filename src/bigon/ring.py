"""Exact arithmetic over Z[v, v^-1], the ground ring of the whole package.

Everything downstream -- skein coefficients, quantum-torus weights, pairing
values -- lives over Laurent polynomials in a single variable ``v`` whose
square plays the role of the quantum parameter ``q``.  Storing the half power
directly keeps values like q^(5/2) exact integers of v-degree 5.

The module also provides the small field-of-fractions type used by the
Temperley-Lieb idempotents, quantum integers/binomials, the two canonical
text forms (an ascending v-form that round-trips bit-exactly, and a prettier
q-form used by the command line), and the sparse linear-combination core
(`add_to` and `Combination`) that every element type of the package uses.
"""

from __future__ import annotations

import math


class HalfLaurent:
    """A Laurent polynomial in v with integer coefficients.

    Immutable.  The internal representation is a dict mapping v-exponent to a
    nonzero integer coefficient; q is v^2 by convention throughout.
    """

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, a in coeffs.items():
                if a:
                    c[int(e)] = c.get(int(e), 0) + int(a)
                    if not c[int(e)]:
                        del c[int(e)]
        self._c = c
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def q_power(cls, m, coeff=1):
        """coeff * q^m, i.e. coeff * v^(2m)."""
        return cls({2 * m: coeff})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c = dict(self._c)
        for e, a in other._c.items():
            c[e] = c.get(e, 0) + a
            if not c[e]:
                del c[e]
        out = HalfLaurent.__new__(HalfLaurent)
        out._c = c
        out._hash = None
        return out

    __radd__ = __add__

    def __neg__(self):
        out = HalfLaurent.__new__(HalfLaurent)
        out._c = {e: -a for e, a in self._c.items()}
        out._hash = None
        return out

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c = {}
        for e1, a1 in self._c.items():
            for e2, a2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + a1 * a2
        out = HalfLaurent.__new__(HalfLaurent)
        out._c = {e: a for e, a in c.items() if a}
        out._hash = None
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
        out = HalfLaurent({0: 1})
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._c.items()))
        return self._hash

    def __bool__(self):
        return bool(self._c)

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self._c

    def items(self):
        return self._c.items()

    def coefficient(self, exp):
        return self._c.get(exp, 0)

    def min_exp(self):
        return min(self._c) if self._c else 0

    def max_exp(self):
        return max(self._c) if self._c else 0

    def conjugate(self):
        """The bar conjugate: v -> v^-1."""
        return HalfLaurent({-e: a for e, a in self._c.items()})

    def specialize(self, v_value):
        """Evaluate at v = v_value; only the classical points +-1 make sense."""
        if v_value not in (1, -1):
            raise ValueError("specialization is only defined at v = 1 or v = -1")
        return sum(a if (v_value == 1 or e % 2 == 0) else -a for e, a in self._c.items())

    # -- display -----------------------------------------------------------

    def __str__(self):
        return format_vform(self)

    def __repr__(self):
        return "HalfLaurent(%r)" % (dict(sorted(self._c.items())),)

    def qform(self):
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

    prod_{j=n-i+1}^{n} (1 - q^(e j))  /  prod_{j=1}^{i} (1 - q^(e j)),
    computed by exact polynomial division.  Zero when i < 0 or i > n.
    """
    if i < 0 or i > n:
        return ZERO
    num = ONE
    for j in range(n - i + 1, n + 1):
        num = num * (ONE - q_power(e * j))
    den = ONE
    for j in range(1, i + 1):
        den = den * (ONE - q_power(e * j))
    return divexact(num, den)


def divexact(num, den):
    """Exact division in Z[v, v^-1]; raises ValueError when inexact."""
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if num.is_zero():
        return ZERO
    nshift, ncs = _to_dense(num)
    dshift, dcs = _to_dense(den)
    q, r = _dense_divmod(ncs, dcs)
    if r is None or any(r):
        raise ValueError("inexact polynomial division")
    return _from_dense(nshift - dshift, q)


def _to_dense(p):
    lo = p.min_exp()
    hi = p.max_exp()
    cs = [0] * (hi - lo + 1)
    for e, a in p.items():
        cs[e - lo] = a
    return lo, cs


def _from_dense(shift, cs):
    return HalfLaurent({shift + i: a for i, a in enumerate(cs) if a})


def _dense_divmod(n, d):
    """Division of dense integer coefficient lists (ascending).

    Returns (quotient, remainder); quotient entries must come out integral or
    the division is reported inexact via remainder None.
    """
    n = list(n)
    q = [0] * (len(n) - len(d) + 1) if len(n) >= len(d) else []
    lead = d[-1]
    for k in range(len(n) - len(d), -1, -1):
        c = n[k + len(d) - 1]
        if c % lead:
            return q, None
        f = c // lead
        q[k] = f
        if f:
            for j, dj in enumerate(d):
                n[k + j] -= f * dj
    return q, n


# ---------------------------------------------------------------------------
# fractions of Laurent polynomials
# ---------------------------------------------------------------------------


def _dense_content(cs):
    g = 0
    for a in cs:
        g = math.gcd(g, abs(a))
    return g or 1


def _dense_primitive(cs):
    g = _dense_content(cs)
    return [a // g for a in cs], g


def _dense_trim(cs):
    while cs and not cs[-1]:
        cs.pop()
    lo = 0
    while lo < len(cs) and not cs[lo]:
        lo += 1
    return cs[lo:], lo


def _poly_gcd(a, b):
    """gcd of dense integer polynomials (ascending, nonzero), primitive PRS."""
    a, _ = _dense_trim(list(a))
    b, _ = _dense_trim(list(b))
    ca = _dense_content(a)
    cb = _dense_content(b)
    a = [x // ca for x in a]
    b = [x // cb for x in b]
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        # pseudo-remainder of a by b: scale by the lead so division stays in Z
        r = list(a)
        lead = b[-1]
        for k in range(len(a) - len(b), -1, -1):
            f = r[k + len(b) - 1]
            r = [x * lead for x in r]
            for j, bj in enumerate(b):
                r[k + j] -= f * bj
        r, _ = _dense_trim(r)
        if r:
            r, _ = _dense_primitive(r)
        a, b = b, r
    a, _ = _dense_primitive(a)
    if a and a[-1] < 0:
        a = [-x for x in a]
    g = math.gcd(ca, cb)
    return [x * g for x in a]


def laurent_gcd(p, q):
    """A gcd of two elements of Z[v, v^-1], normalised to lowest exponent 0."""
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    _, pc = _to_dense(p)
    _, qc = _to_dense(q)
    return _from_dense(0, _poly_gcd(pc, qc))


class RatFunc:
    """A fraction of two HalfLaurent values, kept in canonical form.

    Canonical means: common polynomial and content factors removed, the
    denominator has no negative v-powers, a nonzero constant term, and a
    positive leading coefficient.  Equality is then structural (and agrees
    with cross multiplication).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num = _coerce(num)
        den = _coerce(den)
        if den.is_zero():
            raise ZeroDivisionError("RatFunc with zero denominator")
        if num.is_zero():
            self.num, self.den = ZERO, ONE
            return
        g = laurent_gcd(num, den)
        num = divexact(num, g)
        den = divexact(den, g)
        # push all v-shifts into the numerator
        shift = den.min_exp()
        den = HalfLaurent({e - shift: a for e, a in den.items()})
        num = HalfLaurent({e - shift: a for e, a in num.items()})
        if den.coefficient(den.max_exp()) < 0:
            den = -den
            num = -num
        self.num, self.den = num, den

    def __add__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = RatFunc.__new__(RatFunc)
        out.num, out.den = -self.num, self.den
        return out

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

    def __truediv__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero fraction")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def as_half(self):
        if self.den != ONE:
            raise ValueError("fraction %s is not a Laurent polynomial" % self)
        return self.num

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


def specialize(p, v_value):
    """Integer value of p at v = +-1 (module-level spelling of the method)."""
    return p.specialize(v_value)


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


class Combination:
    """A finite linear combination of basis keys over the ground ring.

    `terms` is a plain dict from key to coefficient that never stores a zero.
    Every key lives in the same `frame` (a leg count, a torus, a strand
    count, or None when there is nothing to fit); combining two different
    frames raises `frame_error`.  A subclass supplies its frame, its product
    and its printing; sums, differences, scaling and equality live here.
    """

    __slots__ = ("frame", "terms")

    frame_name = "frame"
    frame_error = ValueError

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
        terms = {}
        for key, c in self.terms.items():
            add_to(terms, key, c * coeff)
        return self._with(terms)

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


def format_vform(p):
    """Canonical ascending text form in v; round-trips through parse_vform."""
    if p.is_zero():
        return "0"
    first = True
    out = []
    for e, a in sorted(p.items()):
        mag = abs(a)
        if e == 0:
            body = str(mag)
        else:
            head = "v" if e == 1 else "v^%d" % e
            body = head if mag == 1 else "%d*%s" % (mag, head)
        if first:
            out.append(("-" if a < 0 else "") + body)
            first = False
        else:
            out.append((" - " if a < 0 else " + ") + body)
    return "".join(out)


def format_qform(p):
    """Pretty descending text form: even v-powers shown as q-powers."""
    if p.is_zero():
        return "0"
    out = []
    first = True
    for e in sorted(p._c, reverse=True):
        a = p._c[e]
        mag = abs(a)
        if e == 0:
            body = str(mag)
        else:
            if e % 2 == 0:
                m = e // 2
                head = "q" if m == 1 else "q^%d" % m
            else:
                head = "v" if e == 1 else "v^%d" % e
            body = head if mag == 1 else "%d*%s" % (mag, head)
        if first:
            out.append(("-" if a < 0 else "") + body)
            first = False
        else:
            out.append((" - " if a < 0 else " + ") + body)
    return "".join(out)


class ScalarParseError(ValueError):
    def __init__(self, msg, pos):
        super().__init__("%s (at position %d)" % (msg, pos))
        self.pos = pos


def parse_vform(text):
    """Parse the scalar text forms emitted above (both v-form and q-form)."""
    s = text.strip()
    if s == "0":
        return ZERO
    i = 0
    total = ZERO
    sign = 1
    expect_term = True
    n = len(s)
    while i < n:
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-":
            if expect_term and ch == "-":
                sign = -sign
                i += 1
                continue
            if not expect_term:
                sign = 1 if ch == "+" else -1
                expect_term = True
                i += 1
                continue
            raise ScalarParseError("unexpected sign", i)
        if not expect_term:
            raise ScalarParseError("expected + or -", i)
        coeff = 1
        if ch.isdigit():
            j = i
            while j < n and s[j].isdigit():
                j += 1
            coeff = int(s[i:j])
            i = j
            if i < n and s[i] == "*":
                i += 1
            else:
                total = total + HalfLaurent({0: sign * coeff})
                sign, expect_term = 1, False
                continue
        if i >= n or s[i] not in "vq":
            raise ScalarParseError("expected v or q", i)
        unit = 2 if s[i] == "q" else 1
        i += 1
        exp = 1
        if i < n and s[i] == "^":
            i += 1
            esign = 1
            if i < n and s[i] == "-":
                esign = -1
                i += 1
            j = i
            while j < n and s[j].isdigit():
                j += 1
            if j == i:
                raise ScalarParseError("expected integer exponent", i)
            exp = esign * int(s[i:j])
            i = j
        total = total + HalfLaurent({unit * exp: sign * coeff})
        sign, expect_term = 1, False
    if expect_term:
        raise ScalarParseError("dangling operator", n)
    return total
