"""Eigensystem and mixed-state observables for a particle in a rigid 1-D box.

A particle of mass ``m`` confined to ``[0, L]`` by impenetrable walls has
normalized modes ``sqrt(2/L) sin(n pi x / L)`` with energies
``pi^2 hbar^2 n^2 / (2 m L^2)``.  An ensemble over these levels is described
here purely by its populations ``w_n``; every observable this package
computes is phase-independent, so amplitudes are never stored.  Letting the
wall at ``x = L`` move defines the force on it as ``-dE/dL`` at frozen
populations, which evaluates level by level to ``pi^2 hbar^2 n^2 / (m L^3)``.

Default units are natural (``hbar = m = 1``); both constants are overridable
through :class:`WellParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ScaleError, StateError

# Tolerance on |sum(weights) - 1| accepted at construction.
NORMALIZATION_TOL = 1e-12

# Largest level index: levels are stored as int64.
_MAX_LEVEL = 2 ** 63 - 1

# Decimal exponent range that energies, forces and their intermediates must
# keep; the margin to binary64's limits covers the sums and ratios formed
# from them downstream.
_SCALE_EXPONENT_LIMIT = 300.0


def _bound_text(n: int) -> str:
    """``n`` as ``2**k`` or ``2**k - d`` (``d <= 1024``) when it lies that
    close below a power of two beyond ``2**16``, else in digits."""
    k = (n + 1024).bit_length() - 1
    if k <= 16 or n > 2 ** k:
        return str(n)
    return f"2**{k}" if n == 2 ** k else f"2**{k} - {2 ** k - n}"


def _check_int(value, name: str, lo: int = 1, hi: int = _MAX_LEVEL) -> int:
    """``value`` as an int, if it is a Python or numpy integer, or an integral
    float, in ``[lo, hi]``.  Bools, strings and other objects are rejected.

    The default range is that of a level index, which fits the int64 arrays
    of :class:`MixedState`.
    """
    integral = isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating))
        and math.isfinite(value)
        and float(value).is_integer()
    )
    # int() first: numpy compares its scalars with large ints in binary64.
    if isinstance(value, bool) or not integral or not lo <= int(value) <= hi:
        raise DomainError(
            f"{name} must be an integer in [{_bound_text(lo)}, {_bound_text(hi)}], got {value!r}"
        )
    return int(value)


def _check_real(value, name: str, lo: float = 0.0, hi: float = math.inf) -> float:
    """``value`` as a float, if it is a finite Python or numpy real with
    ``lo < value <= hi``.

    The type is checked: bools, strings and other objects that merely
    convert to a float are rejected.
    """
    x = math.nan
    if not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating)):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
    if not (math.isfinite(x) and lo < x <= hi):
        if (lo, hi) == (0.0, math.inf):
            rule = "be positive and finite"
        elif (lo, hi) == (-math.inf, math.inf):
            rule = "be finite"
        else:
            rule = f"lie in ({lo:g}, {hi:g}]"
        raise DomainError(f"{name} must {rule}, got {value!r}")
    return x


def _check_widths(L) -> np.ndarray:
    """Array form of :func:`_check_real`: a float64 array of positive
    finite widths from real (not bool or string) input."""
    L = np.asarray(L)
    if L.dtype.kind not in "iuf":
        raise DomainError(f"L must be real, got {L!r}")
    L = L.astype(np.float64, copy=False)
    if not (np.isfinite(L) & (L > 0.0)).all():
        raise DomainError(f"L must be positive and finite, got {L!r}")
    return L


@dataclass(frozen=True)
class WellParams:
    """Physical constants fixing the energy scale hbar^2 / (mass * length^2).

    Both are stored as Python floats, whichever real type they are given as.
    """

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass"):
            object.__setattr__(self, name, _check_real(getattr(self, name), name))


DEFAULT_PARAMS = WellParams()


def check_energy_scale(params: WellParams, top_level, L_min, L_max) -> None:
    """Raise :class:`ScaleError` unless levels ``1..top_level`` at widths in
    ``[L_min, L_max]`` keep energies, forces and their intermediate products
    within ``1e-300 .. 1e300``.

    Every such quantity is a monomial in ``hbar, mass, n, L``, so checking
    its decimal exponent at the corners of the range covers the interior.
    """
    lg_m = math.log10(params.mass)
    lg_num = [2.0 * math.log10(math.pi * params.hbar * n) for n in (1, top_level)]
    # (pi hbar n)^2, and the adiabatic invariant E * L^2 = (pi hbar n)^2 / (2 m).
    exponents = [lg_m, *lg_num, *(math.log10(0.5) + lg - lg_m for lg in lg_num)]
    for L in (L_min, L_max):
        lg_L = math.log10(L)
        lg_mL2 = lg_m + 2.0 * lg_L
        lg_mL3 = lg_m + 3.0 * lg_L
        exponents += [3.0 * lg_L, lg_mL2, lg_mL3]
        for lg in lg_num:
            exponents += [math.log10(0.5) + lg - lg_mL2, lg - lg_mL3]
    if max(abs(e) for e in exponents) > _SCALE_EXPONENT_LIMIT:
        raise ScaleError(
            f"energy scale out of range: hbar={params.hbar!r}, mass={params.mass!r}, "
            f"levels 1..{top_level}, widths {L_min!r}..{L_max!r} give magnitudes beyond "
            f"1e{-_SCALE_EXPONENT_LIMIT:g}..1e{_SCALE_EXPONENT_LIMIT:g}"
        )


def _frozen_or_copy(values, dtype) -> np.ndarray:
    """``values`` itself if it is a read-only ndarray of ``dtype`` that owns
    its data, else a new array of ``dtype``."""
    if (type(values) is np.ndarray and values.dtype == dtype
            and values.flags.owndata and not values.flags.writeable):
        return values
    return np.array(values, dtype=dtype)


@dataclass(frozen=True, eq=False)
class MixedState:
    """Finite population vector over box levels.

    ``levels`` are distinct positive integers in ascending order; ``weights``
    are the matching populations, nonnegative and summing to one within
    ``NORMALIZATION_TOL``.  Instances are immutable (arrays are marked
    read-only) and safe to share between threads.

    Each input is copied unless it is a read-only ``numpy.ndarray`` of the
    stored dtype (int64 levels, float64 weights) that owns its data.  Such an
    array is kept as is and the state shares its memory, so a writable view
    of it taken before it was made read-only still writes into the state.
    """

    levels: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        levels = _frozen_or_copy(self.levels, np.int64)
        weights = _frozen_or_copy(self.weights, np.float64)
        if levels.ndim != 1 or weights.ndim != 1 or levels.shape != weights.shape:
            raise StateError("levels and weights must be 1-D sequences of equal length")
        if levels.size == 0:
            raise StateError("a state needs at least one populated level")
        if levels.min() < 1:
            raise StateError("levels must be positive integers")
        if (levels[1:] <= levels[:-1]).any():
            raise StateError("levels must be distinct and sorted ascending")
        # A finite sum has finite terms, so only a sum that is not finite
        # (nan, inf, or an overflow, rejected below) needs the elementwise scan.
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(weights.sum())
        if not math.isfinite(total) and not np.isfinite(weights).all():
            raise StateError("weights must be finite")
        if weights.min() < 0.0:
            raise StateError("weights must be nonnegative")
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise StateError(
                f"populations must sum to 1 within {NORMALIZATION_TOL:g}, got {total!r}"
            )
        levels.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def pure(cls, n) -> "MixedState":
        """State fully concentrated on level ``n``."""
        return cls(np.array([_check_int(n, "n")]), np.array([1.0]))

    @classmethod
    def from_pairs(cls, pairs) -> "MixedState":
        """Build from ``{level: weight}`` or an iterable of ``(level, weight)`` pairs."""
        if isinstance(pairs, dict):
            pairs = pairs.items()
        items = sorted((_check_int(n, "level"), _check_real(w, "weight", -math.inf))
                       for n, w in pairs)
        levels = np.array([n for n, _ in items], dtype=np.int64)
        weights = np.array([w for _, w in items], dtype=np.float64)
        if levels.size > 1 and np.any(np.diff(levels) == 0):
            raise StateError("duplicate level in population pairs")
        return cls(levels, weights)

    @property
    def populations(self) -> tuple[tuple[int, float], ...]:
        return tuple((int(n), float(w)) for n, w in zip(self.levels, self.weights))

    @property
    def support_size(self) -> int:
        return int(self.levels.size)

    def __repr__(self):
        body = ", ".join(f"{n}: {w:.6g}" for n, w in self.populations)
        return f"MixedState({{{body}}})"


def eigenenergy(n, L, params: WellParams = DEFAULT_PARAMS) -> float:
    """Energy of level ``n`` in a box of width ``L``: pi^2 hbar^2 n^2 / (2 m L^2)."""
    n = _check_int(n, "n")
    L = _check_real(L, "L")
    return 0.5 * (math.pi * params.hbar * n) ** 2 / (params.mass * L * L)


def eigenfunction_value(n, L, x) -> float:
    """Value of the normalized mode ``n`` at position ``x`` in ``[0, L]``."""
    n = _check_int(n, "n")
    L = _check_real(L, "L")
    x = _check_real(x, "x", -math.inf)
    if not 0.0 <= x <= L:
        raise DomainError(f"x must lie in [0, {L}], got {x!r}")
    return math.sqrt(2.0 / L) * math.sin(n * math.pi * x / L)


def _level_square_sum(state: MixedState) -> float:
    n = state.levels.astype(np.float64)
    return float(np.dot(state.weights, n * n))


def expectation_energy(state: MixedState, L, params: WellParams = DEFAULT_PARAMS) -> float:
    """Population-weighted mean energy of ``state`` at width ``L``."""
    L = _check_real(L, "L")
    return _energy_from_square_sum(_level_square_sum(state), L, params)


def _energy_from_square_sum(square_sum, L, params: WellParams = DEFAULT_PARAMS):
    """Mean energy ``pi^2 hbar^2 s / (2 m L^2)`` for the weighted level-square
    sum ``s = sum(w_n n^2)``; elementwise on arrays, unvalidated."""
    return 0.5 * (math.pi * params.hbar) ** 2 * square_sum / (params.mass * L * L)


def _force_from_square_sum(square_sum, L_cubed, params: WellParams = DEFAULT_PARAMS):
    """Wall force ``pi^2 hbar^2 s / (m L^3)`` from ``s`` as above and ``L_cubed
    = L^3``; elementwise on arrays, unvalidated.  The caller takes the cube, as
    Python's float ``**`` and numpy's array ``**`` can round it differently."""
    return (math.pi * params.hbar) ** 2 * square_sum / (params.mass * L_cubed)


def wall_force(state: MixedState, L, params: WellParams = DEFAULT_PARAMS) -> float:
    """Force on the moving wall at frozen populations, ``-dE/dL``.

    Satisfies ``wall_force(s, L) * L == 2 * expectation_energy(s, L)`` up to
    rounding, since both are the same weighted sum of ``n^2``.
    """
    L = _check_real(L, "L")
    return _force_from_square_sum(_level_square_sum(state), L ** 3, params)


def entropy(state: MixedState) -> float:
    """Population entropy ``-sum(w ln w)`` with ``0 ln 0 := 0`` (dimensionless)."""
    w = state.weights[state.weights > 0.0]
    return float(-(w * np.log(w)).sum()) + 0.0
