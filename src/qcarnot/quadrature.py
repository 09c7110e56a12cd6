"""The 9-point Gauss–Lobatto rule over a fixed grid of panels.

One call integrates over K panels ``[a[k], b[k]]``, the keys, each by the
rule, which takes both ends and is exact up to degree 15.  The caller lays
the panels out before the integrand runs and sums them; none is refined, so
``f`` runs once per chunk of at most ``_CHUNK`` panels.

Contract for the integrand: ``f`` takes one argument, the pair ``(key, x)``
of equal-length 1-D arrays, an int key per abscissa and the float abscissae,
and returns an array of the integrand at each of them.
"""

from __future__ import annotations

import numpy as np

# Most panels, nine points each, that one integrand call evaluates.
_CHUNK = 2 ** 14

# The rule on [0, 1]: the ends, the roots of P_8' mapped from [-1, 1], and
# weights summing to 1, each correctly rounded.  It is symmetric about 1/2,
# so node i and node 8 - i share weight i.
_NODES = np.array([0.0, 0.05012100229426992, 0.16140686024463113, 0.3184412680869109, 0.5,
                   0.6815587319130891, 0.8385931397553689, 0.94987899770573, 1.0])[:, None]
_WEIGHTS = (1 / 72, 0.08274768078040276, 0.13726935625008085, 0.17321425548652317, 2048 / 11025)


def integrate(f, a, b) -> np.ndarray:
    """Integrate ``f`` from ``a[k]`` to ``b[k]`` for every key ``k`` by the rule.

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
        values[keys] = _lobatto(f, keys, np.minimum(a[keys], b[keys]), np.abs(b[keys] - a[keys]))
    return np.where(b < a, -values, values)


def _lobatto(f, keys, lo, h):
    """The rule on the panels ``[lo, lo + h]`` of ``keys`` from one call of
    ``f``, which takes the first node of every panel, then the second, and so
    on; its arrays are freed on return.  The weighted sum is explicit
    products and adds from the middle out, with no BLAS call to round it."""
    v = np.reshape(f((np.tile(keys, 9), (lo + _NODES * h).ravel())), (9, -1))
    return h * sum((_WEIGHTS[i] * (v[i] + v[8 - i]) for i in (3, 2, 1, 0)), _WEIGHTS[4] * v[4])
