"""Level-wise adaptive Simpson quadrature with an a-posteriori error estimate.

Contract for the integrand: ``f`` takes a 1-D float ndarray of abscissae and
returns an array of the integrand at each of them.  All unaccepted panels are
refined together, one level at a time (Gander & Gautschi, "Adaptive
quadrature — revisited", BIT 2000), so ``f`` is called once for the five
initial points and then once per refinement level, with the quarter points
of every new half-panel of that level.

The absolute tolerance is anchored on the refined integral, not on the first
coarse Simpson value, and is re-derived after every level; a panel accepted
under a looser anchor is split again if the refined value drops.  For
integrands that converge the returned estimate therefore satisfies
``estimate <= rel_tol * |value|``.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

DEFAULT_REL_TOL = 1e-10
DEFAULT_MAX_INTERVALS = 1_000_000

# Rows of the panel table, one column per panel: left edge, width, f at the
# five equispaced points of the panel, its value and the tolerance it needs.
X0, H, F0, F1, F2, F3, F4, VALUE, NEED = range(9)
# On a panel of unit width, Simpson's rule on both halves plus the Richardson
# correction (delta / 15) is Boole's rule, and the error estimate |delta| / 15
# is the fourth difference of the five values over 180.
_WEIGHTS = np.array([[7.0, 32.0, 12.0, 32.0, 7.0], [-0.5, 2.0, -3.0, 2.0, -0.5]]) / 90.0
_QUARTERS = np.array([[0.25], [0.75]])


def integrate(f, a, b, rel_tol: float = DEFAULT_REL_TOL,
              max_intervals: int = DEFAULT_MAX_INTERVALS) -> tuple[float, float]:
    """Integrate the vectorised ``f`` from ``a`` to ``b`` by adaptive Simpson panels.

    Returns ``(value, error_estimate)`` where the estimate sums the
    Richardson residual ``|delta| / 15`` of every final panel; for smooth
    integrands it bounds the true error.  A panel of width ``h`` is final
    once ``|delta| / 15 <= rel_tol * |value| * h / (b - a)``, or once it is
    too narrow to split.  Raises :class:`QuadratureError`, carrying the
    partial result, once more than ``max_intervals`` panels would be evaluated.
    """
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0, 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    span = b - a
    min_width = 16.0 * 2.220446049250313e-16 * span

    def weigh(panels):
        boole, residual = _WEIGHTS @ panels[F0:F4 + 1]
        panels[VALUE] = panels[H] * boole
        panels[NEED] = span * np.abs(residual)

    panels = np.empty((9, 1))
    panels[X0], panels[H] = a, span
    panels[F0:F4 + 1, 0] = f(a + span * np.linspace(0.0, 1.0, 5))
    weigh(panels)
    used = 1
    while True:
        # Anchor on the refined value of this level.  Every panel is checked
        # again, so one accepted under a looser anchor is split if it drops.
        value = float(panels[VALUE].sum())
        tol = rel_tol * max(abs(value), 1e-300)
        split = (panels[NEED] > tol) & (panels[H] > min_width)
        n = int(np.count_nonzero(split))
        if n == 0:
            return sign * value, float(panels[H] @ panels[NEED]) / span
        used += 2 * n
        if used > max_intervals:
            raise QuadratureError(
                f"quadrature did not converge within {max_intervals} intervals",
                partial=sign * value,
                error_estimate=float(panels[H] @ panels[NEED]) / span,
            )
        # Halve every split panel; the halves share three of its points and
        # need f at their own quarter points, all in one call.
        parents = panels[:, split]
        half = 0.5 * parents[H]
        kids = np.empty((9, 2 * n))
        kids[X0, :n] = parents[X0]
        kids[X0, n:] = parents[X0] + half
        kids[H, :n] = kids[H, n:] = half
        kids[F0:F4 + 1:2, :n] = parents[F0:F2 + 1]
        kids[F0:F4 + 1:2, n:] = parents[F2:F4 + 1]
        kids[F1:F3 + 1:2] = np.reshape(f((kids[X0] + _QUARTERS * kids[H]).ravel()), (2, -1))
        weigh(kids)
        panels = np.concatenate((panels[:, ~split], kids), axis=1)
