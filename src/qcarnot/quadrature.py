"""Level-wise adaptive Simpson quadrature over keyed intervals, with
a-posteriori error estimates.

One call integrates over K intervals ``[a[k], b[k]]``, the keys.  The panels
of every key sit in one table, one column per panel, and all unaccepted
panels are refined together, one level at a time (Gander & Gautschi,
"Adaptive quadrature — revisited", BIT 2000).  ``f`` therefore
runs once for the five initial points of every key and then once per
refinement level, with the quarter points of every new half-panel of that
level, whichever keys they belong to.

Contract for the integrand: ``f`` takes one argument, the pair ``(key, x)``
of equal-length 1-D arrays, an int key per abscissa and the float abscissae,
and returns an array of the integrand at each of them.  Each key starts on a
single panel; a caller who wants a finer start grid passes its sub-intervals
as keys of their own.

Each key has its own absolute tolerance, anchored on its refined integral,
not on the first coarse Simpson value, and re-derived after every level; a
panel accepted under a looser anchor is split again if the refined value
drops.  For integrands that converge the returned estimates therefore
satisfy ``estimate[k] <= rel_tol * |value[k]|``.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

DEFAULT_REL_TOL = 1e-10
# Most panels one integrate call evaluates before it raises QuadratureError.
MAX_INTERVALS = 1_000_000

# Rows of the panel table, one column per panel: left edge, width, f at the
# five equispaced points of the panel, its value and its residual.  The
# panels' keys sit in an int array of their own, in the same order.
X0, H, F0, F1, F2, F3, F4, VALUE, RESIDUAL = range(9)
# On a panel of unit width, Simpson's rule on both halves plus the Richardson
# correction (delta / 15) is Boole's rule, (7 f0 + 32 f1 + 12 f2 + 32 f3 +
# 7 f4) / 90, and the error estimate |delta| / 15 is the fourth difference of
# the five values over 180: explicit sums, with no BLAS call to round them.
_FIFTHS = np.linspace(0.0, 1.0, 5)[:, None]
_QUARTERS = np.array([[0.25], [0.75]])


def integrate(f, a, b, rel_tol: float = DEFAULT_REL_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Integrate ``f`` from ``a[k]`` to ``b[k]`` for every key ``k`` by adaptive Simpson panels.

    ``a`` and ``b`` are equal-length 1-D sequences; a key with ``b[k] < a[k]``
    gets the negated integral, and one with ``a[k] == b[k]`` gets ``(0, 0)``
    without evaluating ``f``.  Returns the arrays ``(values, error_estimates)``
    where each estimate sums the Richardson residual ``|delta| / 15`` of every
    final panel of its key; for smooth integrands it bounds the true error.
    A panel of width ``h`` on key ``k`` is final once ``|delta| / 15 <=
    rel_tol * |value[k]| * h / |b[k] - a[k]|``, or once it is too narrow to
    split.  Raises :class:`QuadratureError` once more than ``MAX_INTERVALS``
    panels would be evaluated.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"a and b must be 1-D of equal length, got shapes {a.shape} and {b.shape}")
    sign = np.where(b < a, -1.0, 1.0)
    lo = np.minimum(a, b)
    span = np.abs(b - a)
    min_width = 16.0 * 2.220446049250313e-16 * span
    live = np.flatnonzero(span > 0.0)
    count = a.size
    if not live.size:
        return np.zeros(count), np.zeros(count)

    def weigh(panels):
        f0, f1, f2, f3, f4 = panels[F0:F4 + 1]
        ends, inner = f0 + f4, f1 + f3
        panels[VALUE] = panels[H] * ((7.0 * ends + 32.0 * inner + 12.0 * f2) / 90.0)
        panels[RESIDUAL] = np.abs(ends - 4.0 * inner + 6.0 * f2) / 180.0

    keys = live
    x0, h = lo[live], span[live]
    panels = np.empty((9, live.size))
    panels[X0], panels[H] = x0, h
    # f takes the abscissae point by point: the first point of every panel,
    # then the second, as the five rows of the panel table.
    x = (x0 + _FIFTHS * h).ravel()
    panels[F0:F4 + 1] = np.reshape(f((np.tile(keys, 5), x)), (5, -1))
    weigh(panels)
    used = live.size
    while True:
        # Anchor each key on its refined value of this level.  Every panel is
        # checked again, so one accepted under a looser anchor is split if it drops.
        value = np.bincount(keys, panels[VALUE], count)
        tol = rel_tol * np.maximum(np.abs(value), 1e-300)
        split = (span[keys] * panels[RESIDUAL] > tol[keys]) & (panels[H] > min_width[keys])
        n = int(np.count_nonzero(split))
        if n == 0:
            return sign * value, np.bincount(keys, panels[H] * panels[RESIDUAL], count)
        if used + 2 * n > MAX_INTERVALS:
            raise QuadratureError(f"quadrature did not converge within {MAX_INTERVALS} intervals")
        used += 2 * n
        # Halve every split panel; the halves share three of its points and
        # need f at their own quarter points, all in one call.
        parents = panels[:, split]
        half = 0.5 * parents[H]
        kids = np.empty((9, 2 * n))
        kid_keys = np.tile(keys[split], 2)
        kids[X0, :n] = parents[X0]
        kids[X0, n:] = parents[X0] + half
        kids[H, :n] = kids[H, n:] = half
        kids[F0:F4 + 1:2, :n] = parents[F0:F2 + 1]
        kids[F0:F4 + 1:2, n:] = parents[F2:F4 + 1]
        x = (kids[X0] + _QUARTERS * kids[H]).ravel()
        kids[F1:F3 + 1:2] = np.reshape(f((np.tile(kid_keys, 2), x)), (2, -1))
        weigh(kids)
        panels = np.concatenate((panels[:, ~split], kids), axis=1)
        keys = np.concatenate((keys[~split], kid_keys))
