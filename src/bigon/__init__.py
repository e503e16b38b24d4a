"""Quantum traces for surfaces cut into bigons and triangles.

The package is organised in layers:

* ``ring`` -- exact Laurent-polynomial arithmetic in v (v^2 = q).
* ``hopf`` -- the quantised coordinate algebra on 2x2 matrices: normal forms,
  coproduct/counit/antipode, the dual pairing, and the co-R-matrix forms.
* ``tangle`` -- sliced tangle diagrams in the square, their state-sum values,
  boundary expansions, and Temperley-Lieb / Jones-Wenzl machinery.
* ``braided`` -- braided tensor powers, the twisted multiplication rule, and
  the self-braided (transmutation-style) product.
* ``qtorus`` -- quantum tori, triangulated surfaces, and the state-sum trace
  of a curve, valued in the per-face torus (three corner generators per
  face, ``ambient_torus``); the edge torus is ``chekhov_fock``.
* ``classical`` -- the v = 1 shadow: SL(2) holonomies with sign twists, and
  the comparison dictionary against the quantum side.
* ``cli`` -- the ``bigon`` console script wrapping all of the above.
"""

from .ring import HalfLaurent, RatFunc, ZERO, ONE, half, q_power, q_int, q_factorial, q_binom

__all__ = [
    "HalfLaurent",
    "RatFunc",
    "ZERO",
    "ONE",
    "half",
    "q_power",
    "q_int",
    "q_factorial",
    "q_binom",
]

__version__ = "0.1.0"
