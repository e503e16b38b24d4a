"""Request kinds: the calls each one makes into the package, and its check.

Every entry of ``OPS`` is an ``Op``:

* ``run(tr, *args)`` is the request itself, the only part that is timed.  It
  turns the generated input data into package objects and calls the layer's
  public functions.  Calls that belong to a named sub-layer sit inside
  ``tr.span(name)``, and work counts go to ``tr.count``.
* ``check(answer, *args)`` recomputes the answer, or an identity it must
  satisfy, by another route through the package.  It runs after the timer
  has stopped and returns True when the answer passes.
* ``prepare(*args)``, when given, builds inputs that are themselves answers of
  the package (such as the traces a product multiplies).  It runs untimed
  before the request.

The layer of a request is the first dotted part of its op name.
"""

import contextlib
import io
from collections import namedtuple

from bigon import cli
from bigon.braided import BraidedElement, braided_product, transmutation_product
from bigon.classical import GroupoidRep, StatedPath, cut_check, splice_cuts, trace_arc, trace_loop
from bigon.hopf import (
    OqElement,
    antipode,
    co_r,
    co_r_mirror,
    coproduct,
    coproduct_word,
    counit,
    counit_word,
    element_to_string,
    hopf_pairing,
    reduce_bigon,
    rho_word,
    u_action,
    word_weight,
)
from bigon.qtorus import NormalCurve, Triangulation, check_balanced, qt_multiply, quantum_trace
from bigon.ring import ONE, ZERO, RatFunc, format_qform, q_power
from bigon.tangle import (
    Slice,
    SlicedTangle,
    TLDiagram,
    TLElement,
    jones_wenzl,
    kauffman_reduce,
    rt_evaluate,
    skein_element,
)

from workloads import PUNCTURED_TORUS_LOOPS, SQUARE_ARCS

Op = namedtuple("Op", "run check prepare", defaults=(None,))


def _accumulate(table, key, value):
    total = table.get(key, ZERO) + value
    if total:
        table[key] = total
    else:
        table.pop(key, None)


# ---------------------------------------------------------------------------
# hopf
# ---------------------------------------------------------------------------


def _product(tr, x, y):
    return OqElement.from_word(x) * OqElement.from_word(y)


def _laurent_product(p, r):
    """Product of two one-variable Laurent polynomials {power: coefficient}."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in r.items():
            _accumulate(out, e1 + e2, c1 * c2)
    return out


def _check_product(z, x, y):
    """reduce_bigon and the counit are algebra maps; the weight is additive."""
    ex, ey = OqElement.from_word(x), OqElement.from_word(y)
    wx, wy = word_weight(x), word_weight(y)
    weight = (wx[0] + wy[0], wx[1] + wy[1])
    return (
        all(word_weight(w) == weight for w in z.terms)
        and counit(z) == counit(ex) * counit(ey)
        and reduce_bigon(z) == _laurent_product(reduce_bigon(ex), reduce_bigon(ey))
    )


def _coproduct(tr, w):
    return coproduct(OqElement.from_word(w))


def _check_coproduct(t, w):
    """(eps x id) and (id x eps) of the coproduct give the element back."""
    left, right = {}, {}
    for (w1, w2), c in t.terms.items():
        _accumulate(left, w2, counit_word(w1) * c)
        _accumulate(right, w1, counit_word(w2) * c)
    x = OqElement.from_word(w).terms
    return left == x and right == x


def _pairing_form(tr, x, y, kind):
    ex, ey = OqElement.from_word(x), OqElement.from_word(y)
    if kind == "mirror":
        return co_r_mirror(ex, ey)
    return co_r(ex, ey, inverse=kind == "bar")


def _exchange_holds(x, y, kind):
    """The pairing-exchange identity of `bigon selftest`, for one word pair.

    The standard and mirror forms satisfy y'x' f(x'',y'') = x''y'' f(x',y');
    the inverse form satisfies it with both products reversed.
    """
    lhs, rhs = OqElement(), OqElement()
    flip = kind == "bar"
    for (x1, x2), cx in coproduct_word(x):
        for (y1, y2), cy in coproduct_word(y):
            c = cx * cy
            a, b = (OqElement.from_word(x1), OqElement.from_word(y1))
            s, t = (OqElement.from_word(x2), OqElement.from_word(y2))
            lhs = lhs + (a * b if flip else b * a).scale(c * rho_word(x2, y2, kind))
            rhs = rhs + (t * s if flip else s * t).scale(c * rho_word(x1, y1, kind))
    return lhs == rhs


def _check_pairing_form(value, x, y, kind):
    """Split x = uv at its middle: f(uv, y) = f(u, y') f(v, y'').

    The form's own recursion splits off the first letter, so the middle split
    is a second route; the inverse form pairs the halves the other way round.
    Small pairs also get the exchange identity.
    """
    if len(x) >= 2:
        u, v = x[: len(x) // 2], x[len(x) // 2 :]
        if kind == "bar":
            u, v = v, u
        total = ZERO
        for (y1, y2), c in coproduct_word(y):
            total = total + c * rho_word(u, y1, kind) * rho_word(v, y2, kind)
        if total != value:
            return False
    return len(x) + len(y) > 6 or _exchange_holds(x, y, kind)


def _antipode(tr, w):
    return antipode(OqElement.from_word(w))


def _check_antipode(s, w):
    """S maps weight (r, s) to (-s, -r); S^2 scales a basis word by q^(4(#b - #c))."""
    r, t = word_weight(w)
    twist = q_power(4 * (w.count("b") - w.count("c")))
    return all(word_weight(v) == (-t, -r) for v in s.terms) and antipode(s) == OqElement.from_word(w, twist)


def _uword(u):
    return tuple((letter, n) for letter, n in u)


def _u_action(tr, u, w):
    return u_action(_uword(u), OqElement.from_word(w))


def _check_u_action(y, u, w):
    """eps(u.x) = <u, x>, since u.x = x' <u, x''>."""
    return counit(y) == hopf_pairing(_uword(u), OqElement.from_word(w))


def _pairing(tr, u, w):
    return hopf_pairing(_uword(u), OqElement.from_word(w))


def _check_pairing(value, u, w):
    return value == counit(u_action(_uword(u), OqElement.from_word(w)))


# ---------------------------------------------------------------------------
# braided
# ---------------------------------------------------------------------------


def _braided(tr, x, y, variant, z):
    return braided_product(BraidedElement.from_legs(x), BraidedElement.from_legs(y), variant)


def _check_braided(p, x, y, variant, z):
    """Associativity z (x y) = (z x) y against a one-generator z.

    z goes on the left: multiplying by it from the right makes the product
    slide its whole tail block past z, which costs seconds at arity 3.
    """
    ex, ey, ez = (BraidedElement.from_legs(legs) for legs in (x, y, z))
    return braided_product(ez, p, variant) == braided_product(braided_product(ez, ex, variant), ey, variant)


def _transmutation(tr, x, y, z):
    return transmutation_product(OqElement.from_word(x), OqElement.from_word(y))


def _check_transmutation(p, x, y, z):
    """Associativity (x y) z = x (y z) against a generator z."""
    ex, ey, ez = (OqElement.from_word(w) for w in (x, y, z))
    return transmutation_product(p, ez) == transmutation_product(ex, transmutation_product(ey, ez))


# ---------------------------------------------------------------------------
# cli: argv in, captured stdout out; checked against the library's answer
# ---------------------------------------------------------------------------


def _power_text(word):
    """A word in the CLI grammar, runs written as powers: 'aab' -> 'a^2*b'."""
    runs = []
    for ch in word:
        if runs and runs[-1][0] == ch:
            runs[-1][1] += 1
        else:
            runs.append([ch, 1])
    return "*".join(ch if n == 1 else "%s^%d" % (ch, n) for ch, n in runs) or "1"


def _cli_argv(kind, args):
    if kind == "normal_form":
        return ["normal-form", _power_text(args[0]) + "*" + _power_text(args[1])]
    if kind == "coproduct":
        return ["hopf", "coproduct", "--expr", _power_text(args[0])]
    if kind == "rho":
        x, y, form = args
        return ["hopf", "rho", "--left", _power_text(x), "--right", _power_text(y), "--kind", form]
    x, y = args
    return ["braided", "--x", "(%s)" % "|".join(x), "--y", "(%s)" % "|".join(y)]


def _cli_answer(kind, args):
    """The text the CLI should print, computed by calling the library directly."""
    if kind == "normal_form":
        return element_to_string(OqElement.from_word(args[0] + args[1]))
    if kind == "coproduct":
        return cli.format_leg_terms(coproduct(OqElement.from_word(args[0])).terms)
    if kind == "rho":
        x, y, form = args
        return format_qform(_pairing_form(None, x, y, form))
    x, y = args
    product = braided_product(BraidedElement.from_legs(x), BraidedElement.from_legs(y))
    return cli.format_leg_terms(product.terms)


def _cli_op(kind):
    def run(tr, *args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(_cli_argv(kind, args))
        return code, out.getvalue()

    def check(answer, *args):
        return answer == (0, _cli_answer(kind, args) + "\n")

    return Op(run, check)


# ---------------------------------------------------------------------------
# tangle
# ---------------------------------------------------------------------------


def _tangle(slices, left, right):
    return SlicedTangle([Slice(kind, p, n) for kind, p, n in slices], tuple(left), tuple(right))


def _statesum(tr, slices, left, right):
    t = _tangle(slices, left, right)
    with tr.span("tangle.state_sum"):
        value = rt_evaluate(t)
        element = skein_element(t)
    crossings = sum(kind in ("x+", "x-") for kind, _, _ in slices)
    tr.count("tangle.resolutions", 2**crossings)
    with tr.span("tangle.oracle"):
        oracle = kauffman_reduce(t)
    return value, element, oracle


def _check_statesum(answer, slices, left, right):
    """The lift equals the bracket oracle, and its counit is the scalar sum."""
    value, element, oracle = answer
    return element == oracle and counit(element) == value


def _jones_wenzl(tr, n):
    return jones_wenzl(n)


def _is_zero(x):
    return not x.terms


def _check_jones_wenzl(p, n):
    """Identity coefficient 1, and every hook is killed from both sides."""
    hooks = [TLElement.hook(n, i) for i in range(n - 1)]
    return p.identity_coefficient() == RatFunc(ONE) and all(
        _is_zero(p * e) and _is_zero(e * p) for e in hooks
    )


def _square(tr, n):
    p = jones_wenzl(n)
    return p * p


def _check_square(p2, n):
    return p2 == jones_wenzl(n)


def _diagram(n, pairs):
    return TLElement(n, {TLDiagram(n, [tuple(map(tuple, p)) for p in pairs]): RatFunc(ONE)})


def _projector(m, n):
    p = jones_wenzl(m)
    return p if m == n else p.embed(n)


def _tl_product(tr, m, n, pairs, right):
    p, d = _projector(m, n), _diagram(n, pairs)
    return d * p if right else p * d


def _check_tl_product(x, m, n, pairs, right):
    """JW(n) kills every non-identity diagram; a smaller projector is absorbed."""
    p = _projector(m, n)
    if m == n:
        identity = _diagram(n, pairs) == TLElement.identity(n)
        return x == p if identity else _is_zero(x)
    return (x * p if right else p * x) == x


def _hook(tr, n, i, right):
    p, e = jones_wenzl(n), TLElement.hook(n, i)
    return e * p if right else p * e


def _check_hook(x, n, i, right):
    return _is_zero(x)


# ---------------------------------------------------------------------------
# qtorus
# ---------------------------------------------------------------------------

SQUARE = Triangulation([("F0", (0, 1, 2)), ("F1", (0, 1, 2))], [("F0", 2, "F1", 2)])
PUNCTURED_TORUS = Triangulation(
    [("F0", (0, 1, 2)), ("F1", (0, 1, 2))],
    [("F0", 0, "F1", 0), ("F0", 1, "F1", 1), ("F0", 2, "F1", 2)],
)


def _strip(enters, turns):
    """The strip triangulation and the slots (enter, leave, free side) per face."""
    slots = [(e, (e + t) % 3, (e + 2 * t) % 3) for e, t in zip(enters, turns)]
    faces = [("F%d" % i, (0, 1, 2)) for i in range(len(slots))]
    gluings = [("F%d" % i, slots[i][1], "F%d" % (i + 1), slots[i + 1][0]) for i in range(len(slots) - 1)]
    return Triangulation(faces, gluings), slots


def _strip_trace(tr, faces, enters, turns, states, other):
    tri, slots = _strip(enters, turns)
    curve = NormalCurve([("F%d" % i, e, l) for i, (e, l, _) in enumerate(slots)], end_states=states)
    tr.count("qtorus.junctions", faces - 1)
    return quantum_trace(tri, curve)


def _commutes(x, y):
    return qt_multiply(x, y) == qt_multiply(y, x)


def _check_strip_trace(x, faces, enters, turns, states, other):
    """Balanced, and commutes with the trace of an arc that misses it.

    Faces 1 and 2 turn the same way, so the arc from the free side of face 1
    to the free side of face 2 lies on one side of the long arc.
    """
    tri, slots = _strip(enters, turns)
    (_, l1, f1), (e2, _, f2) = slots[1], slots[2]
    short = quantum_trace(tri, NormalCurve([("F1", f1, l1), ("F2", e2, f2)], end_states=other))
    return check_balanced(tri, x) and _commutes(x, short)


def _loop(i, times):
    return NormalCurve(list(PUNCTURED_TORUS_LOOPS[i]) * times, closed=True)


def _loop_trace(tr, i, times):
    tr.count("qtorus.junctions", len(PUNCTURED_TORUS_LOOPS[i]) * times)
    return quantum_trace(PUNCTURED_TORUS, _loop(i, times))


def _check_loop_trace(x, i, times):
    return bool(x.terms) and check_balanced(PUNCTURED_TORUS, x)


def _square_curve(i, states):
    return NormalCurve(list(SQUARE_ARCS[i]), end_states=states)


def _square_trace(tr, i, states):
    tr.count("qtorus.junctions", len(SQUARE_ARCS[i]) - 1)
    return quantum_trace(SQUARE, _square_curve(i, states))


def _check_square_trace(x, i, states):
    """Balanced; a corner arc in one face commutes with one in the other face."""
    if not check_balanced(SQUARE, x):
        return False
    if len(SQUARE_ARCS[i]) > 1:
        return True
    face = SQUARE_ARCS[i][0][0]
    other = quantum_trace(SQUARE, NormalCurve([("F1" if face == "F0" else "F0", 0, 1)], end_states=states))
    return _commutes(x, other)


def _prepare_multiply(a, b):
    return quantum_trace(PUNCTURED_TORUS, _loop(a, 1)), quantum_trace(PUNCTURED_TORUS, _loop(b, 1))


def _multiply(tr, x, y):
    return qt_multiply(x, y)


def _at_one(x):
    """Every variable and v set to 1: an algebra map once q = 1."""
    return sum(c.specialize(1) for c in x.terms.values())


def _check_multiply(p, x, y):
    return check_balanced(PUNCTURED_TORUS, p) and _at_one(p) == _at_one(x) * _at_one(y)


# ---------------------------------------------------------------------------
# classical
# ---------------------------------------------------------------------------


def _rep(gens):
    return GroupoidRep.from_dict({"generators": gens})


def _trace_arc(tr, gens, word, states):
    return trace_arc(_rep(gens), StatedPath(word, states=states))


def _reversed(word):
    return [w[1:] if w.startswith("~") else "~" + w for w in reversed(word)]


def _check_trace_arc(value, gens, word, states):
    """Running the arc backwards gives (-1)^(n+1) times the value."""
    back = trace_arc(_rep(gens), StatedPath(_reversed(word), states=states[::-1]))
    return back == (-1) ** (len(word) + 1) * value


def _trace_loop(tr, gens, word):
    return trace_loop(_rep(gens), StatedPath(word, closed=True))


def _check_trace_loop(value, gens, word):
    """The trace does not depend on where the loop starts."""
    k = len(word) // 2
    return trace_loop(_rep(gens), StatedPath(word[k:] + word[:k], closed=True)) == value


def _cut_check(tr, gens, word, states):
    return cut_check(_rep(gens), StatedPath(word, states=states))


def _check_cut_check(value, gens, word, states):
    return value == trace_arc(_rep(gens), splice_cuts(StatedPath(word, states=states)))


OPS = {
    "hopf.product": Op(_product, _check_product),
    "hopf.coproduct": Op(_coproduct, _check_coproduct),
    "hopf.pairing_form": Op(_pairing_form, _check_pairing_form),
    "hopf.antipode": Op(_antipode, _check_antipode),
    "hopf.u_action": Op(_u_action, _check_u_action),
    "hopf.pairing": Op(_pairing, _check_pairing),
    "braided.product": Op(_braided, _check_braided),
    "braided.transmutation": Op(_transmutation, _check_transmutation),
    "cli.normal_form": _cli_op("normal_form"),
    "cli.coproduct": _cli_op("coproduct"),
    "cli.rho": _cli_op("rho"),
    "cli.braided": _cli_op("braided"),
    "tangle.statesum": Op(_statesum, _check_statesum),
    "tangle.tl.jones_wenzl": Op(_jones_wenzl, _check_jones_wenzl),
    "tangle.tl.square": Op(_square, _check_square),
    "tangle.tl.product": Op(_tl_product, _check_tl_product),
    "tangle.tl.hook": Op(_hook, _check_hook),
    "qtorus.strip_trace": Op(_strip_trace, _check_strip_trace),
    "qtorus.loop_trace": Op(_loop_trace, _check_loop_trace),
    "qtorus.square_trace": Op(_square_trace, _check_square_trace),
    "qtorus.multiply": Op(_multiply, _check_multiply, _prepare_multiply),
    "classical.trace_arc": Op(_trace_arc, _check_trace_arc),
    "classical.trace_loop": Op(_trace_loop, _check_trace_loop),
    "classical.cut_check": Op(_cut_check, _check_cut_check),
}
