"""Four-stroke reversible cycle composer and evaluator.

The cycle runs a single confined particle through an isothermal expansion
(level 1 up to ``top_level``), an adiabatic expansion in the pure top level,
an isothermal compression back to the ground level, and an adiabatic
compression to the starting width.  With ``E_hot`` the fixed energy of the
hot isotherm and ``E_cold`` that of the cold one, the net work is
``W = 2 (E_hot - E_cold) ln(top_level)`` and the efficiency equals the
reversible bound ``1 - E_cold / E_hot``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxmodel import DEFAULT_PARAMS, MixedState, WellParams, check_energy_scale, eigenenergy
from .errors import CycleGeometryError, DomainError, EngineError
from .processes import (
    ProcessSample,
    Stroke,
    adiabatic_stroke,
    isothermal_stroke,
    sample_stroke,
    stroke_work,
    stroke_work_quadrature,
)


@dataclass(frozen=True)
class CarnotSpec:
    """Geometry of one cycle: level reached on the hot isotherm and the two
    extreme widths.  ``L3 == top_level * L1`` is the degenerate zero-work
    boundary; anything smaller is rejected."""

    top_level: int
    L1: float
    L3: float
    params: WellParams = DEFAULT_PARAMS
    samples_per_stroke: int = 256

    def __post_init__(self):
        if isinstance(self.top_level, bool) or int(self.top_level) != self.top_level or self.top_level < 2:
            raise DomainError(f"top_level must be an integer >= 2, got {self.top_level!r}")
        for name in ("L1", "L3"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be positive and finite, got {value!r}")
        if int(self.samples_per_stroke) != self.samples_per_stroke or self.samples_per_stroke < 2:
            raise DomainError(
                f"samples_per_stroke must be an integer >= 2, got {self.samples_per_stroke!r}"
            )
        if self.L3 < self.top_level * self.L1:
            raise CycleGeometryError(
                f"L3 must exceed top_level*L1: got L3={self.L3!r}, "
                f"top_level*L1={self.top_level * self.L1!r}"
            )


@dataclass(frozen=True)
class Cycle:
    """Closed four-stroke sequence with its derived geometry."""

    strokes: tuple[Stroke, Stroke, Stroke, Stroke]
    e_hot: float
    e_cold: float
    L2: float
    L4: float
    spec: CarnotSpec


@dataclass(frozen=True)
class CycleReport:
    """Work, heat, and efficiency of one cycle.

    ``eta`` is ``W / Q_H``; ``eta_closed_form`` is ``1 - e_cold / e_hot``;
    ``quadrature_discrepancy`` is the summed per-stroke disagreement between
    closed-form and quadrature work, relative to ``Q_H``.
    """

    W: float
    Q_H: float
    Q_C: float
    eta: float
    eta_closed_form: float
    quadrature_discrepancy: float


def build_carnot_cycle(spec: CarnotSpec) -> Cycle:
    """Assemble and close-check the four strokes for ``spec``.

    Raises :class:`ScaleError` first if the spec's energies or forces would
    leave binary64 range anywhere on the cycle.
    """
    n = spec.top_level
    L1, L3, p = spec.L1, spec.L3, spec.params
    check_energy_scale(p, n, L1, L3)
    L2 = n * L1
    L4 = L3 / n
    e_hot = eigenenergy(1, L1, p)
    e_cold = eigenenergy(n, L3, p)
    strokes = (
        isothermal_stroke(e_hot, L1, L2, L1, p),
        adiabatic_stroke(MixedState.pure(n), L2, L3, p),
        isothermal_stroke(e_cold, L3, L4, L4, p),
        adiabatic_stroke(MixedState.pure(1), L4, L1, p),
    )
    closing_state = strokes[3].state_at(L1)
    if closing_state.populations != strokes[0].state_start.populations or strokes[3].L_end != L1:
        raise EngineError("cycle failed to close onto its initial state")
    return Cycle(strokes=strokes, e_hot=e_hot, e_cold=e_cold, L2=L2, L4=L4, spec=spec)


def evaluate_cycle(cycle: Cycle, rel_tol: float = 1e-10) -> CycleReport:
    """Closed-form work and heat for the cycle, cross-checked by quadrature."""
    works = [stroke_work(s) for s in cycle.strokes]
    quads = [stroke_work_quadrature(s, rel_tol) for s in cycle.strokes]
    W = sum(works)
    Q_H = works[0]
    Q_C = -works[2]
    discrepancy = sum(abs(q - w) for q, w in zip(quads, works)) / Q_H
    return CycleReport(
        W=W,
        Q_H=Q_H,
        Q_C=Q_C,
        eta=W / Q_H,
        eta_closed_form=1.0 - cycle.e_cold / cycle.e_hot,
        quadrature_discrepancy=discrepancy,
    )


def sample_cycle(cycle: Cycle, samples_per_stroke: int | None = None) -> list[ProcessSample]:
    """Concatenated per-stroke samples tracing the closed force-width loop."""
    count = cycle.spec.samples_per_stroke if samples_per_stroke is None else samples_per_stroke
    samples: list[ProcessSample] = []
    for index, stroke in enumerate(cycle.strokes, start=1):
        samples.extend(sample_stroke(stroke, count, stroke_index=index))
    return samples


def polyline_work(samples: list[ProcessSample]) -> float:
    """Signed area enclosed by the sampled force-width polyline.

    Trapezoid rule around the closed loop; equals the shoelace area of the
    polygon and converges to the cycle work at second order in the sample
    count.  Reversed traversal flips the sign.
    """
    L = np.array([s.L for s in samples])
    F = np.array([s.force for s in samples])
    L_next = np.roll(L, -1)
    F_next = np.roll(F, -1)
    return 0.5 * float(np.sum((F + F_next) * (L_next - L)))
