"""Reversible strokes: adiabatic and isothermal wall motion.

Every force comes from the one equation of state ``F = 2 E / L``.  An
adiabatic stroke freezes the populations, so ``E(L) = E(L0) * L0^2 / L^2``
and ``F * L^3 = const``.  An isothermal stroke holds ``E`` fixed while the
populations redistribute, so any population path gives ``L * F = const``.

The concrete isothermal population path used here is the staircase through
adjacent level pairs: on ``L in [k*L_base, (k+1)*L_base]`` only levels ``k``
and ``k+1`` are populated, with

    w_{k+1} = ((L/L_base)^2 - k^2) / (2k + 1),    w_k = 1 - w_{k+1},

where ``L_base`` is the width at which the ground state alone carries the
fixed energy.  At exact integer multiples of ``L_base`` the state is pure, so
the path is continuous; work, heat and efficiency are path-independent.

:func:`stroke_work_quadrature` computes the works of :func:`stroke_work`
again from the force, integrated over ``u = ln L`` (``dW = L F du``), where
both equations of state give smooth integrands at any width ratio.  All
strokes passed together share one keyed :func:`quadrature.integrate` call
over equal pieces of unit width or less, at least 16 per stroke, laid out
before the integrand runs.

The stroke table is the one evaluator of energy and force.  It has one row
per stroke: start width, base width (``inf`` on an adiabat), ``(pi hbar)^2``
times the adiabat's level-square sum (1 on an isotherm) and mass.  A
:class:`Stroke` checks itself once, at construction, so the table just reads
its fields; :func:`_table_forces`, one array expression over the widths of
every key with no branch on the stroke kind, checks only that each force
lies in (0, inf).  :meth:`Stroke.force_at` and :func:`sample_stroke` take
the one-row table of their stroke.  :func:`_check_window` holds an
isotherm's window.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
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
    _check_type,
    _check_widths,
    _energy_from_square_sum,
    eigenenergy,
    entropy,
    expectation_energy,
)
from .errors import DomainError, IsothermRangeError, ScaleError

# Relative mismatch tolerated between a declared fixed energy and the
# ground-state energy at the declared base width.
_ENERGY_MATCH_RTOL = 1e-9

# Largest sample count per stroke: four strokes of 2**20 rows already make a
# samples.csv of several hundred MB.
MAX_SAMPLES_PER_STROKE = 2 ** 20

# Fewest equal pieces in u = ln L of one stroke's work quadrature.
_MIN_PIECES = 16


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
    """One reversible process segment, checked once, at construction.

    An isotherm holds its fixed mean energy in ``conserved`` and its
    ground-state width in ``base_scale``; its state at width ``L`` is
    ``isothermal_state_at(conserved, L, base_scale, params)``.  An adiabat
    holds its frozen state in ``state_start``.  The fields a kind does not
    use (an isotherm's ``state_start``, an adiabat's ``conserved`` and
    ``base_scale``) are never read; :func:`isothermal_stroke` and
    :func:`adiabatic_stroke` set them to ``None``.
    Zero-length strokes (``L_start == L_end``) are permitted and carry zero
    work.  Construction checks the types of ``kind``, ``params`` and an
    adiabat's ``state_start``, the end widths with :func:`_check_real` and, on
    an isotherm, ``conserved`` against ``base_scale`` and both ends against
    its window; widths and an isotherm's ``conserved`` and ``base_scale`` are
    stored as floats.  So no code that reads a stroke checks it again.
    """

    kind: StrokeKind
    L_start: float
    L_end: float
    state_start: MixedState | None
    conserved: float | None
    params: WellParams
    base_scale: float | None = None

    def __post_init__(self):
        _check_type(self.kind, StrokeKind, "kind")
        _check_type(self.params, WellParams, "params")
        if self.kind is StrokeKind.ADIABATIC:
            _check_type(self.state_start, MixedState, "state_start", " on an adiabat")
        for name in ("L_start", "L_end"):
            object.__setattr__(self, name, _check_real(getattr(self, name), name))
        if self.kind is StrokeKind.ADIABATIC:
            return
        base_scale = _isotherm_base(self.conserved, self.base_scale, self.params)
        object.__setattr__(self, "conserved", float(self.conserved))
        object.__setattr__(self, "base_scale", base_scale)
        _check_window(base_scale, self.L_start, self.L_end)

    def force_at(self, L):
        """Population-weighted wall force at width ``L``, elementwise on arrays.

        The one-row case of the stroke table that
        :func:`stroke_work_quadrature` builds, with no :class:`MixedState`.
        Only the caller's ``L`` is checked, since the stroke was checked when
        it was built: with :func:`_check_widths`, then, on an isotherm,
        against its window.  Returns a float for scalar ``L`` and an ndarray
        otherwise.
        """
        L = _check_widths(L)
        if self.kind is StrokeKind.ISOTHERMAL:
            _check_window(self.base_scale, L)
        _, force = _table_forces(_stroke_table((self,)), L)
        return float(force) if force.ndim == 0 else force


def _isotherm_base(e_fixed, base_scale, params: WellParams) -> float:
    """``base_scale`` as a float, once it and ``e_fixed`` are positive finite
    reals and ``e_fixed`` is the ground-state energy at ``base_scale``."""
    base_scale = _check_real(base_scale, "base_scale")
    e_fixed = _check_real(e_fixed, "e_fixed")
    ground = eigenenergy(1, base_scale, params)
    if abs(e_fixed - ground) > _ENERGY_MATCH_RTOL * ground:
        raise DomainError(
            f"fixed energy {e_fixed!r} does not match the ground-state energy "
            f"{ground!r} at base width {base_scale!r}"
        )
    return base_scale


def _check_window(base_scale, *widths) -> None:
    """Raise :class:`IsothermRangeError` naming the first of ``widths``
    whose ratio to ``base_scale`` leaves an isotherm's window ``[1 - 1e-12,
    2**63)``.  A float is compared as a float, an ndarray elementwise."""
    for L in widths:
        ratio = L / base_scale
        inside = (ratio >= 1.0 - 1e-12) & (ratio < 2.0 ** 63)
        if not (inside if isinstance(inside, bool) else inside.all()):
            raise IsothermRangeError(
                f"width {L!r} lies outside the isotherm validity window "
                f"[{base_scale!r}, 2**63 * {base_scale!r})"
            )


def _staircase(ratio):
    """Staircase level ``k = floor(r)`` and upper weight ``w = (r^2 - k^2) /
    (2k + 1)`` at width ratios ``r`` in the window, ``r`` below 1 taken as 1.
    ``w`` is computed as ``(r - k)(r + k) / (2k + 1)``: ``r - k`` is exact by
    Sterbenz's lemma (``k <= r < 2k``), so ``w`` is within 1.5 ulps of 1 at
    every level, where ``r^2 - k^2`` would cancel (5e-9 off at ``k`` = 1e8)."""
    ratio = np.maximum(ratio, 1.0)
    k = np.floor(ratio)
    return k, (ratio - k) * (ratio + k) / (2.0 * k + 1.0)


# Fields of a stroke-table row: start width, base width (inf on an adiabat,
# so that its width ratios are 0 and its staircase sum exactly 1), (pi hbar)^2
# times the adiabat's level-square sum s (1 on an isotherm), and mass, which
# give 2 E = (pi hbar)^2 s / (mass L^2) and the force 2 E / L.
L_START, BASE, COEFF, MASS = range(4)


def _stroke_table(strokes) -> np.ndarray:
    """The stroke table of ``strokes``, one row per stroke."""
    rows = []
    for s in strokes:
        isotherm = s.kind is StrokeKind.ISOTHERMAL
        base, squares = (s.base_scale, 1.0) if isotherm else (math.inf, s.state_start._square_sum)
        rows.append((s.L_start, base, (math.pi * s.params.hbar) ** 2 * squares, s.params.mass))
    return np.array(rows)


def _table_forces(table, L, owner=0):
    """``2 E`` and the force ``2 E / L`` at widths ``L``, width ``i`` on row
    ``owner[i]`` of the stroke ``table`` (all on row ``owner`` for an int).
    Raises :class:`ScaleError` unless every force lies in (0, inf), naming
    the first failing stroke, in table order, by its start width.  The
    staircase's level-square sum ``(1 - w) k^2 + w (k + 1)^2`` is bit for bit
    ``MixedState._square_sum`` of the isotherm's state, and exactly 1 on an
    adiabat, whose ``COEFF`` holds its own sum: ``(c s) * 1`` rounds as
    ``c * s``."""
    rows = table.take(owner, axis=0)
    with np.errstate(all="ignore"):
        k, w_upper = _staircase(L / rows[..., BASE])
        staircase = (1.0 - w_upper) * (k * k) + w_upper * ((k + 1.0) * (k + 1.0))
        twice_energy = _energy_from_square_sum(staircase, L, rows[..., COEFF], rows[..., MASS])
        force = twice_energy / L
    ok = (force > 0.0) & (force < math.inf)
    if not ok.all():
        start = float(table[np.where(ok, len(table), owner).min(), L_START])
        raise ScaleError(f"wall force over- or underflows binary64 on the stroke from width {start!r}")
    return twice_energy, force


def adiabatic_stroke(state: MixedState, L_from, L_to,
                     params: WellParams = DEFAULT_PARAMS) -> Stroke:
    """Stroke at frozen populations from width ``L_from`` to ``L_to``.

    Computes no energy: a width at which the mean energy leaves binary64
    builds, and :func:`stroke_work`, the work integrand and sampling raise
    its :class:`ScaleError`.
    """
    return Stroke(
        kind=StrokeKind.ADIABATIC,
        L_start=_check_real(L_from, "L_from"),
        L_end=_check_real(L_to, "L_to"),
        state_start=state,
        conserved=None,
        params=params,
    )


def isothermal_state_at(e_fixed, L, base_scale, params: WellParams = DEFAULT_PARAMS) -> MixedState:
    """Staircase state holding mean energy ``e_fixed`` at width ``L``.

    Only levels ``k = floor(L / base_scale)`` and ``k + 1`` are populated.
    ``e_fixed`` must equal the ground-state energy at ``base_scale``.  Raises
    :class:`IsothermRangeError` if ``L`` lies below ``base_scale``, where the
    required populations would turn negative, or at ``2**63 * base_scale`` or
    beyond, where level ``k`` leaves the int64 range.
    """
    L = _check_real(L, "L")
    base_scale = _isotherm_base(e_fixed, base_scale, params)
    _check_window(base_scale, L)
    k, w_upper = _staircase(L / base_scale)
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
    return Stroke(
        kind=StrokeKind.ISOTHERMAL,
        L_start=_check_real(L_from, "L_from"),
        L_end=_check_real(L_to, "L_to"),
        state_start=None,
        conserved=e_fixed,
        params=params,
        base_scale=base_scale,
    )


def stroke_work(stroke: Stroke) -> float:
    """Closed-form work done by the system along the stroke.

    Expansion is positive; zero-length strokes give exactly 0.  Isothermal:
    ``2 E ln(L_end/L_start)``.  Adiabatic: ``E(L_start) - E(L_end)``.
    """
    _check_type(stroke, Stroke, "stroke")
    if stroke.kind is StrokeKind.ISOTHERMAL:
        return 2.0 * stroke.conserved * math.log(stroke.L_end / stroke.L_start)
    start, end = (expectation_energy(stroke.state_start, L, stroke.params)
                  for L in (stroke.L_start, stroke.L_end))
    return start - end


def stroke_work_quadrature(strokes: Stroke | Sequence[Stroke]) -> float | list[float]:
    """Work by quadrature over the populations, independent of the closed
    forms in :func:`stroke_work`.  ``strokes`` is one :class:`Stroke`,
    which gives a float, or a sequence of them, which gives a list with one
    work per stroke from a single :func:`quadrature.integrate` call.  Each
    stroke integrates ``g(u) = L F = 2 E``, with ``E`` from the populations at
    ``L = L_start * e^u``, over ``u`` from 0 to ``span = ln(L_end /
    L_start)``: ``g`` is constant on an isotherm and ``c e^(-2u)`` on an
    adiabat, smooth at every width ratio.  Each stroke takes ``n = max(16,
    ceil(|span|))`` equal pieces, with edges ``span * (i / n)``, and its work
    is the sum of their Gauss–Lobatto values.

    The rule is exact on an isotherm in exact arithmetic.  On an adiabat's
    piece of width ``h <= 1`` its remainder (Abramowitz & Stegun 25.4.32) is
    at most ``1.25e-18 h^16 e^(2h)``, 9.3e-18 of the piece's integral, below
    rounding; :func:`cycle.evaluate_cycle` checks the works against the
    closed forms.  The 16 pieces are for the population staircase, whose
    errors only the cross-check sees, with ``w_upper`` off by 1e-6 on one
    level.  With fewer, more steps of the staircase fall between probes: on
    ``CarnotSpec(30, 1, 90)`` the 1e-10 gate misses 4 of the 30 levels at 8
    pieces and 2 at 16.  With more, the end piece, through whose end weight
    1/72 an error on the isotherm's top level shows, is narrower: on
    ``CarnotSpec(6, 1, 18)``, level 6 gives a discrepancy of 3.5e-10 at 16
    pieces, 1.7e-10 at 32 and 8.7e-11 at 64, which the gate misses.  The
    integrand runs once per ``quadrature._CHUNK`` pieces: once for a Carnot
    cycle, and once for the ``1 + 3 k`` strokes of a chunk of ``k = 256``
    ``qcarnot sweep`` steps whose adiabats take 16 pieces each.

    Each stroke was checked when it was built (an item that is not a
    :class:`Stroke` raises :class:`DomainError` naming it as ``strokes[i]``),
    and every probed width lies between its checked ends, so no width is
    checked again.  A force ``2 E / L`` outside (0, inf) raises
    :class:`ScaleError` naming the start width of the first stroke, in order,
    that has one.
    """
    single = isinstance(strokes, Stroke)
    strokes = (strokes,) if single else tuple(_check_type(strokes, Iterable, "strokes"))
    for i, stroke in enumerate(strokes):
        _check_type(stroke, Stroke, f"strokes[{i}]")
    if not strokes:
        return []
    # Each u-span from the width ratio, not as a difference of two logs.
    spans = [math.log(s.L_end / s.L_start) for s in strokes]
    pieces = np.array([max(_MIN_PIECES, math.ceil(abs(span))) for span in spans])
    table = _stroke_table(strokes)
    # Key k lies on stroke owner[k], which starts at width start[k]; the i-th
    # of a stroke's n pieces spans span * (i / n) to span * ((i + 1) / n).
    owner = np.repeat(np.arange(len(strokes)), pieces)
    start = table[owner, L_START]
    span = np.array(spans)[owner]
    n = pieces[owner]
    i = np.arange(owner.size) - (np.cumsum(pieces) - pieces)[owner]

    def g(key_u):
        key, u = key_u
        return _table_forces(table, start[key] * np.exp(u), owner[key])[0]

    values = quadrature.integrate(g, span * (i / n), span * ((i + 1) / n))
    works = np.bincount(owner, values, len(strokes)).tolist()
    return works[0] if single else works


def sample_stroke(stroke: Stroke, count: int, stroke_index: int = 1) -> SampleTable:
    """Column table of ``count`` samples at uniformly spaced widths, endpoints included.

    Force and ``2 E`` come from the stroke's one-row stroke table, as in
    :meth:`Stroke.force_at`, and the energy is half of ``2 E``.  Builds no
    :class:`MixedState` and checks only ``count``, ``stroke_index`` and the
    forces, in :func:`_table_forces`: the stroke was checked when it was
    built, and every width lies between its ends.  An adiabat's fixed state
    is broadcast over all rows; an isotherm's populations come from one
    population staircase over all widths, as levels ``k, k + 1`` (``k``
    alone where the state is pure).  Every value equals, bit for bit, what ``wall_force``,
    ``expectation_energy``, ``entropy`` and ``.populations`` give for the
    state at ``L``: ``stroke.state_start`` on an adiabat,
    :func:`isothermal_state_at` on an isotherm.
    """
    _check_type(stroke, Stroke, "stroke")
    count = _check_int(count, "count", 2, MAX_SAMPLES_PER_STROKE)
    stroke_index = _check_int(stroke_index, "stroke_index")
    widths = np.linspace(stroke.L_start, stroke.L_end, count)
    twice_energy, force = _table_forces(_stroke_table((stroke,)), widths)
    if stroke.kind is StrokeKind.ADIABATIC:
        state = stroke.state_start
        levels = np.broadcast_to(state.levels, (widths.size, state.support_size))
        weights = np.broadcast_to(state.weights, levels.shape)
        row_entropy = np.full(widths.size, entropy(state))
    else:
        k, w_upper = _staircase(widths / stroke.base_scale)
        levels = np.stack([k, np.where(w_upper == 0.0, 0.0, k + 1.0)], axis=1).astype(np.int64)
        weights = np.stack([1.0 - w_upper, w_upper], axis=1)
        row_entropy = -(weights * np.log(np.where(weights > 0.0, weights, 1.0))).sum(axis=1) + 0.0
    return SampleTable(
        stroke_index=np.full(widths.size, stroke_index),
        stroke_kind=np.full(widths.size, stroke.kind.value),
        L=widths,
        force=force,
        energy=0.5 * twice_energy,
        entropy=row_entropy,
        levels=levels,
        weights=weights,
    )
