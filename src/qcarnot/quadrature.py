"""Boole's rule over a fixed grid of panels.

One call integrates over K panels ``[a[k], b[k]]``, the keys, each by
Boole's rule on five equispaced points.  The caller lays the panels out
before the integrand runs, sums them and judges their error; none is
refined, so ``f`` runs once per chunk of at most ``_CHUNK`` panels.

Contract for the integrand: ``f`` takes one argument, the pair ``(key, x)``
of equal-length 1-D arrays, an int key per abscissa and the float abscissae,
and returns an array of the integrand at each of them.
"""

from __future__ import annotations

import numpy as np

# Most panels, five points each, that one integrand call evaluates.
_CHUNK = 2 ** 14

# On a panel of unit width Boole's rule is (7 f0 + 32 f1 + 12 f2 + 32 f3 +
# 7 f4) / 90, taken as explicit sums, with no BLAS call to round them.
_FIFTHS = np.linspace(0.0, 1.0, 5)[:, None]


def integrate(f, a, b) -> np.ndarray:
    """Integrate ``f`` from ``a[k]`` to ``b[k]`` for every key ``k`` by Boole's rule.

    ``a`` and ``b`` are equal-length 1-D sequences; a key with ``b[k] < a[k]``
    gets the negated integral, and one with ``a[k] == b[k]`` gets 0 without
    evaluating ``f``.  Returns the array of values, one per key.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"a and b must be 1-D of equal length, got shapes {a.shape} and {b.shape}")
    values = np.zeros(a.size)
    live = np.flatnonzero(a != b)
    for start in range(0, live.size, _CHUNK):
        keys = live[start:start + _CHUNK]
        values[keys] = _boole(f, keys, np.minimum(a[keys], b[keys]), np.abs(b[keys] - a[keys]))
    return np.where(b < a, -values, values)


def _boole(f, keys, lo, h):
    """Boole's rule on the panels ``[lo, lo + h]`` of ``keys`` from one call
    of ``f``, which takes the first point of every panel, then the second,
    and so on; its arrays are freed on return."""
    x = (lo + _FIFTHS * h).ravel()
    f0, f1, f2, f3, f4 = np.reshape(f((np.tile(keys, 5), x)), (5, -1))
    return h * ((7.0 * (f0 + f4) + 32.0 * (f1 + f3) + 12.0 * f2) / 90.0)
