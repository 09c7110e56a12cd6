"""Reversible strokes: adiabatic and isothermal wall motion.

An adiabatic stroke freezes the populations, so the mean energy follows
``E(L) = E(L0) * L0^2 / L^2`` and the wall obeys ``F * L^3 = const``.  An
isothermal stroke instead holds the mean energy fixed while the populations
redistribute; any population path satisfying the constraint yields the same
equation of state ``F(L) = 2 E / L``, i.e. ``L * F = const``.

The concrete isothermal population path used here is the staircase through
adjacent level pairs: on ``L in [k*L_base, (k+1)*L_base]`` only levels ``k``
and ``k+1`` are populated, with

    w_{k+1} = ((L/L_base)^2 - k^2) / (2k + 1),    w_k = 1 - w_{k+1},

where ``L_base`` is the width at which the ground state alone carries the
fixed energy.  At exact integer multiples of ``L_base`` the state is pure, so
the path is continuous; work, heat and efficiency are path-independent.

:func:`stroke_work_quadrature` checks the closed-form works of
:func:`stroke_work` against the sampled force, integrated over ``u = ln L``
(``dW = L F du``), where both equations of state give smooth integrands at
any width ratio.  All strokes passed together share one keyed
:func:`quadrature.integrate` call, each starting on 64 equal panels.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import quadrature
from .boxmodel import (
    DEFAULT_PARAMS,
    MixedState,
    WellParams,
    _check_int,
    _check_real,
    _check_widths,
    _energy_from_square_sum,
    _force_from_square_sum,
    _level_square_sum,
    eigenenergy,
    entropy,
    expectation_energy,
)
from .errors import DomainError, IsothermRangeError, QuadratureError, ScaleError

# Relative mismatch tolerated between a declared fixed energy and the
# ground-state energy at the declared base width.
_ENERGY_MATCH_RTOL = 1e-9

# Largest sample count per stroke: four strokes of 2**20 rows already make a
# samples.csv of several hundred MB.
MAX_SAMPLES_PER_STROKE = 2 ** 20

# Equal panels in u = ln L that every stroke's work quadrature starts on.
_START_PANELS = 64


class StrokeKind(Enum):
    ISOTHERMAL = "isothermal"
    ADIABATIC = "adiabatic"


@dataclass(frozen=True)
class ProcessSample:
    """One (width, force, energy, entropy, populations) record along a stroke."""

    stroke_index: int
    stroke_kind: str
    L: float
    force: float
    energy: float
    entropy: float
    populations: tuple[tuple[int, float], ...]


@dataclass(frozen=True, eq=False)
class SampleTable(Sequence):
    """Samples as columns: one array per :class:`ProcessSample` field.

    Row ``i`` holds the populations ``levels[i, j]: weights[i, j]``,
    left-aligned and padded with level 0.  Indexing, iteration and
    ``reversed`` give :class:`ProcessSample` rows.  The arrays are marked
    read-only.
    """

    stroke_index: np.ndarray
    stroke_kind: np.ndarray
    L: np.ndarray
    force: np.ndarray
    energy: np.ndarray
    entropy: np.ndarray
    levels: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for column in vars(self).values():
            column.setflags(write=False)

    def __len__(self) -> int:
        return self.L.size

    def __getitem__(self, i) -> ProcessSample:
        i = range(len(self))[operator.index(i)]
        return ProcessSample(
            stroke_index=int(self.stroke_index[i]),
            stroke_kind=str(self.stroke_kind[i]),
            L=float(self.L[i]),
            force=float(self.force[i]),
            energy=float(self.energy[i]),
            entropy=float(self.entropy[i]),
            populations=tuple(
                (n, w) for n, w in zip(self.levels[i].tolist(), self.weights[i].tolist()) if n
            ),
        )

    @classmethod
    def concatenate(cls, tables) -> "SampleTable":
        """Rows of ``tables`` in order, population columns padded to the widest."""
        width = max(t.levels.shape[1] for t in tables)

        def padded(a):
            return np.hstack([a, np.zeros((len(a), width - a.shape[1]), a.dtype)])

        return cls(
            *(np.concatenate([getattr(t, name) for t in tables])
              for name in ("stroke_index", "stroke_kind", "L", "force", "energy", "entropy")),
            levels=np.concatenate([padded(t.levels) for t in tables]),
            weights=np.concatenate([padded(t.weights) for t in tables]),
        )


@dataclass(frozen=True)
class Stroke:
    """One reversible process segment.

    ``conserved`` is the fixed mean energy for an isothermal stroke and the
    constant ``E * L^2`` coefficient for an adiabatic one.  ``state_start`` is
    the adiabat's frozen state (``None`` on isotherms), ``base_scale`` the
    isotherm's ground-state width (``None`` on adiabats); an isotherm's state
    at width ``L`` is ``isothermal_state_at(conserved, L, base_scale,
    params)``.  Zero-length strokes (``L_start == L_end``) are permitted and
    carry zero work.
    """

    kind: StrokeKind
    L_start: float
    L_end: float
    state_start: MixedState | None
    conserved: float
    params: WellParams
    base_scale: float | None = None

    def force_at(self, L):
        """Population-weighted wall force at width ``L``, elementwise on arrays.

        Builds no :class:`MixedState`: the adiabat's level-square sum is fixed,
        and the isotherm's comes from :func:`isothermal_populations`.  Returns
        a float for scalar ``L`` and an ndarray otherwise.
        """
        if self.kind is StrokeKind.ADIABATIC:
            x = _check_widths(L)
            square_sum = _level_square_sum(self.state_start)
        else:
            k, w_upper = isothermal_populations(self.conserved, L, self.base_scale, self.params)
            x = np.asarray(L, dtype=np.float64)
            square_sum = (1.0 - w_upper) * (k * k) + w_upper * ((k + 1.0) * (k + 1.0))
        force = _force_from_square_sum(square_sum, x ** 3, self.params)
        if force.size and not (force.min() > 0.0 and force.max() < math.inf):
            raise ScaleError(f"wall force over- or underflows binary64 at widths {L!r}")
        return float(force) if force.ndim == 0 else force


def adiabatic_stroke(state: MixedState, L_from, L_to,
                     params: WellParams = DEFAULT_PARAMS) -> Stroke:
    """Stroke at frozen populations from width ``L_from`` to ``L_to``."""
    L_from = _check_real(L_from, "L_from")
    L_to = _check_real(L_to, "L_to")
    e_start = expectation_energy(state, L_from, params)
    return Stroke(
        kind=StrokeKind.ADIABATIC,
        L_start=L_from,
        L_end=L_to,
        state_start=state,
        conserved=e_start * L_from * L_from,
        params=params,
    )


def isothermal_populations(e_fixed, L, base_scale, params: WellParams = DEFAULT_PARAMS):
    """Staircase populations holding mean energy ``e_fixed`` at widths ``L``.

    Returns ``(k, w_upper)``, float arrays shaped like ``L``: only levels
    ``k`` and ``k + 1`` are populated, with ``w_upper`` on ``k + 1``.
    ``e_fixed`` must equal the ground-state energy at ``base_scale``.  Raises
    :class:`IsothermRangeError` if any width lies below ``base_scale``, where
    the required populations would turn negative, or at ``2**63 *
    base_scale`` or beyond, where level ``k`` leaves the int64 range.
    """
    L = _check_widths(L)
    base_scale = _check_real(base_scale, "base_scale")
    e_fixed = _check_real(e_fixed, "e_fixed")
    ground = eigenenergy(1, base_scale, params)
    if abs(e_fixed - ground) > _ENERGY_MATCH_RTOL * ground:
        raise DomainError(
            f"fixed energy {e_fixed!r} does not match the ground-state energy "
            f"{ground!r} at base width {base_scale!r}"
        )
    ratio = L / base_scale
    if not ((ratio >= 1.0 - 1e-12) & (ratio < 2.0 ** 63)).all():
        raise IsothermRangeError(
            f"width {L!r} lies outside the isotherm validity window "
            f"[{base_scale!r}, 2**63 * {base_scale!r})"
        )
    ratio = np.maximum(ratio, 1.0)
    k = np.floor(ratio)
    return k, (ratio * ratio - k * k) / (2.0 * k + 1.0)


def isothermal_state_at(e_fixed, L, base_scale, params: WellParams = DEFAULT_PARAMS) -> MixedState:
    """Staircase state holding mean energy ``e_fixed`` at width ``L``.

    The populations come from :func:`isothermal_populations`, whose checks
    and errors apply.
    """
    k, w_upper = isothermal_populations(e_fixed, _check_real(L, "L"), base_scale, params)
    k, w_upper = int(k), float(w_upper)
    if w_upper == 0.0:
        return MixedState.pure(k)
    return MixedState.from_pairs([(k, 1.0 - w_upper), (k + 1, w_upper)])


def isothermal_stroke(e_fixed, L_from, L_to, base_scale,
                      params: WellParams = DEFAULT_PARAMS) -> Stroke:
    """Constant-energy stroke between two widths on the same isotherm.

    The wall force along the stroke is ``2 * e_fixed / L`` regardless of the
    population path.
    """
    L_from, L_to = _check_real(L_from, "L_from"), _check_real(L_to, "L_to")
    # Both ends in the window; the stroke itself keeps no state.
    isothermal_populations(e_fixed, np.array([L_from, L_to]), base_scale, params)
    return Stroke(
        kind=StrokeKind.ISOTHERMAL,
        L_start=L_from,
        L_end=L_to,
        state_start=None,
        conserved=float(e_fixed),
        params=params,
        base_scale=float(base_scale),
    )


def stroke_work(stroke: Stroke) -> float:
    """Closed-form work done by the system along the stroke.

    Expansion is positive; zero-length strokes give exactly 0.  Isothermal:
    ``2 E ln(L_end/L_start)``.  Adiabatic: ``E(L_start) - E(L_end)``.
    """
    if stroke.kind is StrokeKind.ISOTHERMAL:
        return 2.0 * stroke.conserved * math.log(stroke.L_end / stroke.L_start)
    start, end = (expectation_energy(stroke.state_start, L, stroke.params)
                  for L in (stroke.L_start, stroke.L_end))
    return start - end


def stroke_work_quadrature(strokes: Stroke | Sequence[Stroke],
                           rel_tol: float = 1e-10) -> float | list[float]:
    """Work by adaptive quadrature of the sampled wall force.

    Independent of the closed forms in :func:`stroke_work`: the integrand is
    the population-weighted force at each sampled width.  ``strokes`` is one
    :class:`Stroke`, which gives a float, or a sequence of them, which gives
    a list with one work per stroke from a single :func:`quadrature.integrate`
    call.  Each stroke integrates ``g(u) = L * force_at(L)`` over
    ``L = L_start * e^u``, ``u`` from 0 to ``ln(L_end / L_start)``: ``g`` is
    constant on an isotherm and ``e^(-2u)`` times a constant on an adiabat,
    smooth at every width ratio.  Each stroke starts on ``_START_PANELS``
    equal panels, passed as keys of their own, so even an isotherm, which
    Boole's rule would accept from five points, has its force probed at
    ``4 * _START_PANELS + 1`` widths across the population staircase.  Every
    stroke's a-posteriori estimate must come out below ``rel_tol`` times its
    integral, else a :class:`QuadratureError` is raised.
    """
    rel_tol = _check_real(rel_tol, "rel_tol", 0.0, 1e-4)
    single = isinstance(strokes, Stroke)
    strokes = (strokes,) if single else tuple(strokes)
    # Each u-span from the width ratio, not as a difference of two logs.
    spans = np.array([math.log(s.L_end / s.L_start) for s in strokes])
    edges = spans[:, None] * (np.arange(_START_PANELS + 1) / _START_PANELS)

    def g(key_u):
        key, u = key_u
        owner = key // _START_PANELS
        out = np.empty_like(u)
        for i, stroke in enumerate(strokes):
            mine = owner == i
            if mine.any():
                L = stroke.L_start * np.exp(u[mine])
                out[mine] = L * stroke.force_at(L)
        return out

    # Integrate at a quarter of the requested tolerance, which each key's
    # estimate meets relative to its refined value.  g has one sign along a
    # stroke, so the bounds of its keys add up to one on its work, and the
    # gate below holds with margin.
    values, estimates = quadrature.integrate(
        g, edges[:, :-1].ravel(), edges[:, 1:].ravel(), rel_tol=rel_tol / 4.0
    )
    works = values.reshape(len(strokes), _START_PANELS).sum(axis=1).tolist()
    errors = estimates.reshape(len(strokes), _START_PANELS).sum(axis=1).tolist()
    for work, error in zip(works, errors):
        if error > rel_tol * abs(work):
            raise QuadratureError(
                f"quadrature error estimate {error!r} exceeds {rel_tol!r} * |{work!r}|",
                partial=work,
                error_estimate=error,
            )
    return works[0] if single else works


def sample_stroke(stroke: Stroke, count: int, stroke_index: int = 1) -> SampleTable:
    """Column table of ``count`` samples at uniformly spaced widths, endpoints included.

    Builds no :class:`MixedState`.  An adiabat's fixed state is broadcast over
    all rows; an isotherm's populations come from one
    :func:`isothermal_populations` call, as levels ``k, k + 1`` (``k`` alone
    where the state is pure).  Every value equals, bit for bit, what
    ``wall_force``, ``expectation_energy``, ``entropy`` and ``.populations``
    give for the state at ``L``: ``stroke.state_start`` on an adiabat,
    :func:`isothermal_state_at` on an isotherm.
    """
    count = _check_int(count, "count", 2, MAX_SAMPLES_PER_STROKE)
    widths = np.linspace(stroke.L_start, stroke.L_end, count)
    if stroke.kind is StrokeKind.ADIABATIC:
        state = stroke.state_start
        levels = np.broadcast_to(state.levels, (widths.size, state.support_size))
        weights = np.broadcast_to(state.weights, levels.shape)
        square_sum = _level_square_sum(state)
        row_entropy = np.full(widths.size, entropy(state))
    else:
        k, w_upper = isothermal_populations(
            stroke.conserved, widths, stroke.base_scale, stroke.params
        )
        levels = np.stack([k, np.where(w_upper == 0.0, 0.0, k + 1.0)], axis=1).astype(np.int64)
        weights = np.stack([1.0 - w_upper, w_upper], axis=1)
        n = levels.astype(np.float64)
        # A stacked matmul takes each row's dot product through the same BLAS
        # call as np.dot in _level_square_sum; elementwise sums can round apart.
        square_sum = (weights[:, None, :] @ (n * n)[:, :, None])[:, 0, 0]
        row_entropy = -(weights * np.log(np.where(weights > 0.0, weights, 1.0))).sum(axis=1) + 0.0
    cubes = np.array([L ** 3 for L in widths.tolist()])  # Python's pow, as in wall_force
    return SampleTable(
        stroke_index=np.full(widths.size, stroke_index),
        stroke_kind=np.full(widths.size, stroke.kind.value),
        L=widths,
        force=_force_from_square_sum(square_sum, cubes, stroke.params),
        energy=_energy_from_square_sum(square_sum, widths, stroke.params),
        entropy=row_entropy,
        levels=levels,
        weights=weights,
    )
