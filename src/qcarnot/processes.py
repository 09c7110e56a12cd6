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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import quadrature
from .boxmodel import (
    DEFAULT_PARAMS,
    MixedState,
    WellParams,
    _check_width,
    _check_widths,
    _level_square_sum,
    eigenenergy,
    entropy,
    expectation_energy,
    _force_from_square_sum,
    wall_force,
)
from .errors import DomainError, IsothermRangeError, QuadratureError, ScaleError

# Relative mismatch tolerated between a declared fixed energy and the
# ground-state energy at the declared base width.
_ENERGY_MATCH_RTOL = 1e-9


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


@dataclass(frozen=True)
class Stroke:
    """One reversible process segment.

    ``conserved`` is the fixed mean energy for an isothermal stroke and the
    constant ``E * L^2`` coefficient for an adiabatic one.  ``base_scale`` is
    the isotherm's ground-state width (``None`` on adiabats).  Zero-length
    strokes (``L_start == L_end``) are permitted and carry zero work.
    """

    kind: StrokeKind
    L_start: float
    L_end: float
    state_start: MixedState
    conserved: float
    params: WellParams
    base_scale: float | None = None

    def state_at(self, L) -> MixedState:
        if self.kind is StrokeKind.ADIABATIC:
            _check_width(L)
            return self.state_start
        return isothermal_state_at(self.conserved, L, self.base_scale, self.params)

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
        force = _force_from_square_sum(square_sum, x, self.params)
        if force.size and not (force.min() > 0.0 and force.max() < math.inf):
            raise ScaleError(f"wall force over- or underflows binary64 at widths {L!r}")
        return float(force) if force.ndim == 0 else force

    def energy_at(self, L) -> float:
        return expectation_energy(self.state_at(L), L, self.params)


def adiabatic_stroke(state: MixedState, L_from, L_to,
                     params: WellParams = DEFAULT_PARAMS) -> Stroke:
    """Stroke at frozen populations from width ``L_from`` to ``L_to``."""
    L_from = _check_width(L_from, "L_from")
    L_to = _check_width(L_to, "L_to")
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
    the required populations would turn negative.
    """
    L = _check_widths(L)
    base_scale = _check_width(base_scale, "base_scale")
    e_fixed = float(e_fixed)
    ground = eigenenergy(1, base_scale, params)
    if not math.isfinite(e_fixed) or abs(e_fixed - ground) > _ENERGY_MATCH_RTOL * ground:
        raise DomainError(
            f"fixed energy {e_fixed!r} does not match the ground-state energy "
            f"{ground!r} at base width {base_scale!r}"
        )
    ratio = L / base_scale
    if (ratio < 1.0 - 1e-12).any():
        raise IsothermRangeError(
            f"width {L!r} lies below the isotherm validity window starting at {base_scale!r}"
        )
    ratio = np.maximum(ratio, 1.0)
    k = np.floor(ratio)
    return k, (ratio * ratio - k * k) / (2.0 * k + 1.0)


def isothermal_state_at(e_fixed, L, base_scale, params: WellParams = DEFAULT_PARAMS) -> MixedState:
    """Staircase state holding mean energy ``e_fixed`` at width ``L``.

    The populations come from :func:`isothermal_populations`, whose checks
    and errors apply.
    """
    return _staircase_state(*isothermal_populations(e_fixed, _check_width(L), base_scale, params))


def _staircase_state(k, w_upper) -> MixedState:
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
    state_from = isothermal_state_at(e_fixed, L_from, base_scale, params)
    isothermal_populations(e_fixed, L_to, base_scale, params)  # L_to in the window
    return Stroke(
        kind=StrokeKind.ISOTHERMAL,
        L_start=float(L_from),
        L_end=float(L_to),
        state_start=state_from,
        conserved=float(e_fixed),
        params=params,
        base_scale=float(base_scale),
    )


def stroke_work(stroke: Stroke) -> float:
    """Closed-form work done by the system along the stroke.

    Expansion is positive; zero-length strokes return 0.  Isothermal:
    ``2 E ln(L_end/L_start)``.  Adiabatic: ``E(L_start) - E(L_end)``.
    """
    if stroke.L_start == stroke.L_end:
        return 0.0
    if stroke.kind is StrokeKind.ISOTHERMAL:
        return 2.0 * stroke.conserved * math.log(stroke.L_end / stroke.L_start)
    return stroke.energy_at(stroke.L_start) - stroke.energy_at(stroke.L_end)


def stroke_work_quadrature(stroke: Stroke, rel_tol: float = 1e-10) -> float:
    """Work by adaptive quadrature of the sampled wall force.

    Independent of the closed forms in :func:`stroke_work`: the integrand is
    the population-weighted force at each sampled width.  The a-posteriori
    estimate must come out below ``rel_tol`` times the integral, else a
    :class:`QuadratureError` is raised.
    """
    if not (0.0 < rel_tol <= 1e-4):
        raise DomainError(f"rel_tol must lie in (0, 1e-4], got {rel_tol!r}")
    if stroke.L_start == stroke.L_end:
        return 0.0
    # Integrate at a quarter of the requested tolerance, which the estimate
    # meets relative to the refined value, so the gate below holds with margin.
    value, estimate = quadrature.integrate(
        stroke.force_at, stroke.L_start, stroke.L_end, rel_tol=rel_tol / 4.0
    )
    if estimate > rel_tol * abs(value):
        raise QuadratureError(
            f"quadrature error estimate {estimate!r} exceeds {rel_tol!r} * |{value!r}|",
            partial=value,
            error_estimate=estimate,
        )
    return value


def sample_stroke(stroke: Stroke, count: int, stroke_index: int = 1) -> list[ProcessSample]:
    """``count`` records at uniformly spaced widths, endpoints included."""
    if isinstance(count, bool) or int(count) != count or count < 2:
        raise DomainError(f"count must be an integer >= 2, got {count!r}")
    widths = np.linspace(stroke.L_start, stroke.L_end, int(count))
    if stroke.kind is StrokeKind.ADIABATIC:
        states = [stroke.state_start] * widths.size
    else:
        populations = isothermal_populations(
            stroke.conserved, widths, stroke.base_scale, stroke.params
        )
        states = [_staircase_state(k, w) for k, w in zip(*populations)]
    samples = []
    for L, state in zip(widths.tolist(), states):
        samples.append(
            ProcessSample(
                stroke_index=stroke_index,
                stroke_kind=stroke.kind.value,
                L=L,
                force=wall_force(state, L, stroke.params),
                energy=expectation_energy(state, L, stroke.params),
                entropy=entropy(state),
                populations=state.populations,
            )
        )
    return samples
