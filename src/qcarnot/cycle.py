"""Four-stroke reversible cycle composer and evaluator.

The cycle runs a single confined particle through an isothermal expansion
(level 1 up to ``top_level``), an adiabatic expansion in the pure top level,
an isothermal compression back to the ground level, and an adiabatic
compression to the starting width.  With ``E_hot`` the fixed energy of the
hot isotherm and ``E_cold`` that of the cold one, the net work is
``W = 2 (E_hot - E_cold) ln(top_level)`` and the efficiency equals the
reversible bound ``1 - E_cold / E_hot``.

Spec file grammar: lines are ``[section]`` headers or ``key = value``; ``#``
starts a comment; sections are ``well`` (``hbar``, ``mass``) and ``cycle``
(``type``, ``top_level``, ``L1``, ``L3``, ``samples_per_stroke``).  Values are
decimal numbers or bare integers, except ``type`` which takes the identifier
``carnot``.  :func:`parse_spec` returns the :class:`CarnotSpec`; duplicate keys
or sections, unknown keys, and values that :class:`WellParams` or
:class:`CarnotSpec` reject are reported with line-numbered diagnostics.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .boxmodel import (
    DEFAULT_PARAMS,
    MixedState,
    WellParams,
    _check_int,
    _check_real,
    _check_type,
    check_energy_scale,
    eigenenergy,
)
from .errors import CycleGeometryError, DomainError, QuadratureError, SpecFormatError
from .processes import (
    MAX_SAMPLES_PER_STROKE,
    SampleTable,
    Stroke,
    adiabatic_stroke,
    isothermal_stroke,
    sample_stroke,
    stroke_work,
    stroke_work_quadrature,
)

# Largest top_level.  The width ratios L2/L1 and L3/L4 that the isotherms
# turn into levels round to float(top_level) or one binary64 step away, and
# the level must fit an int64.  float(top_level) is 2**63 from 2**63 - 512
# on; the step below, 2**63 - 1024 = 2**63 (1 - 2**-53), never rounds up
# when divided into a width and back, or multiplied and divided out again.
MAX_TOP_LEVEL = 2 ** 63 - 513
# The most quadrature_discrepancy accepted.
QUADRATURE_REL_TOL = 1e-10


@dataclass(frozen=True)
class CarnotSpec:
    """Geometry of one cycle: level reached on the hot isotherm and the two
    extreme widths.  ``L3 == top_level * L1`` is the degenerate zero-work
    boundary; anything smaller is rejected.  The widths are stored as Python
    floats and the integers as Python ints, whichever real type they are
    given as."""

    top_level: int
    L1: float
    L3: float
    params: WellParams = DEFAULT_PARAMS
    samples_per_stroke: int = 256

    def __post_init__(self):
        checks = {"top_level": (_check_int, 2, MAX_TOP_LEVEL), "L1": (_check_real,), "L3": (_check_real,),
                  "samples_per_stroke": (_check_int, 2, MAX_SAMPLES_PER_STROKE)}
        for name, (check, *bounds) in checks.items():
            object.__setattr__(self, name, check(getattr(self, name), name, *bounds))
        _check_type(self.params, WellParams, "params")
        if self.L3 < self.top_level * self.L1:
            raise CycleGeometryError(
                f"L3 must exceed top_level*L1: got L3={self.L3!r}, "
                f"top_level*L1={self.top_level * self.L1!r}"
            )


_INT_RE = re.compile(r"[+-]?\d+$")

# Keys of each section; no key belongs to two sections.
_SECTION_KEYS = {
    "well": ("hbar", "mass"),
    "cycle": ("type", "top_level", "L1", "L3", "samples_per_stroke"),
}
_INT_KEYS = {"top_level", "samples_per_stroke"}


def _scan(text: str) -> tuple[dict[str, int], dict[str, tuple[int, str]]]:
    """Tokenize the spec text into the line of each section header and
    ``{key: (line, raw value)}``."""
    sections: dict[str, int] = {}
    entries: dict[str, tuple[int, str]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise SpecFormatError(f"malformed section header {line!r}", lineno)
            name = line[1:-1].strip()
            if name not in _SECTION_KEYS:
                raise SpecFormatError(
                    f"unknown section '[{name}]' (expected one of: {', '.join(_SECTION_KEYS)})",
                    lineno,
                )
            if name in sections:
                raise SpecFormatError(
                    f"duplicate section '[{name}]' (first at line {sections[name]})", lineno
                )
            sections[name] = lineno
            section = name
            continue
        if "=" not in line:
            raise SpecFormatError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section is None:
            raise SpecFormatError(f"key {key!r} appears before any section header", lineno)
        if key not in _SECTION_KEYS[section]:
            raise SpecFormatError(f"unknown key {key!r} in [{section}]", lineno)
        if key in entries:
            first = entries[key][0]
            raise SpecFormatError(f"duplicate key {key!r} (first at line {first})", lineno)
        if not value:
            raise SpecFormatError(f"missing value for key {key!r}", lineno)
        entries[key] = (lineno, value)
    return sections, entries


def _number(key: str, raw: str, lineno: int) -> int | float:
    """``raw`` as the value of ``key``: a bare integer for the integer keys,
    else a decimal number."""
    plain = raw.isascii() and "_" not in raw  # float() and \d take "1_0" and full-width digits
    try:
        if plain and key not in _INT_KEYS:
            return float(raw)
        if plain and _INT_RE.fullmatch(raw):
            return int(raw)
    except ValueError:  # not a number, or an integer of more than 4300 digits
        pass
    kind = "a bare integer" if key in _INT_KEYS else "a decimal number"
    raise SpecFormatError(f"{key} must be {kind}, got {raw!r}", lineno)


def parse_spec(text: str) -> CarnotSpec:
    """The cycle a spec document describes; raises :class:`SpecFormatError`.

    The parser checks only the syntax.  :class:`WellParams` and
    :class:`CarnotSpec` check the values; each of their errors starts with
    the name of a field and is reported at the line of that key.
    """
    sections, entries = _scan(text)
    if "cycle" not in sections:
        raise SpecFormatError("missing required section '[cycle]'")
    type_line, type_raw = entries.pop("type", (None, "carnot"))
    if type_raw != "carnot":
        raise SpecFormatError(f"type must be 'carnot', got {type_raw!r}", type_line)
    for key in ("top_level", "L1", "L3"):
        if key not in entries:
            raise SpecFormatError(f"missing required key {key!r} in [cycle]", sections["cycle"])
    values = {key: _number(key, raw, lineno) for key, (lineno, raw) in entries.items()}
    try:
        well = {key: values.pop(key) for key in _SECTION_KEYS["well"] if key in values}
        return CarnotSpec(params=WellParams(**well), **values)
    except DomainError as exc:
        field = str(exc).split(" ", 1)[0]
        raise SpecFormatError(str(exc), entries[field][0] if field in entries else None) from exc


@dataclass(frozen=True)
class Cycle:
    """Closed four-stroke sequence and the spec it was built from.  The fixed
    energies of the hot and cold isotherms are the ``conserved`` of strokes 1
    and 3."""

    strokes: tuple[Stroke, Stroke, Stroke, Stroke]
    spec: CarnotSpec


@dataclass(frozen=True)
class CycleReport:
    """Work, heat, and efficiency of one cycle.

    ``eta`` is ``W / Q_H``; ``eta_closed_form`` is ``1 - e_cold / e_hot``,
    with ``e_hot`` and ``e_cold`` the fixed energies of the two isotherms;
    ``quadrature_discrepancy``, at most ``QUADRATURE_REL_TOL``, sums the
    per-stroke gaps between closed-form and quadrature work, over ``Q_H``.
    """

    W: float
    Q_H: float
    Q_C: float
    eta: float
    eta_closed_form: float
    quadrature_discrepancy: float


def build_carnot_cycle(spec: CarnotSpec) -> Cycle:
    """Assemble the four strokes for ``spec``.

    The cycle closes by construction: the last adiabat ends at ``L1`` in
    ``pure(1)``, the first isotherm's state there.  Raises
    :class:`ScaleError` first if the spec's energies or forces would leave
    binary64 range anywhere on the cycle.
    """
    _check_type(spec, CarnotSpec, "spec")
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
    return Cycle(strokes=strokes, spec=spec)


def evaluate_cycle(cycle: Cycle, quadrature: Sequence[float] | None = None) -> CycleReport:
    """Closed-form work and heat for the cycle, cross-checked by quadrature:
    a ``quadrature_discrepancy`` past ``QUADRATURE_REL_TOL`` raises
    :class:`QuadratureError` naming the stroke whose two works differ most.
    In exact arithmetic it is at most ``3.44 * 9.3e-18 ~ 3.2e-17``: each
    stroke's Gauss–Lobatto remainder is at most ``9.3e-18 |w_i|``, and ``sum
    |w_i| <= Q_H + Q_C + 2 (e_hot - e_cold) <= 3.44 Q_H``, as ``Q_H = 2 e_hot
    ln(top_level) >= 1.386 e_hot``.

    The quadrature works are :func:`stroke_work_quadrature` of the four
    strokes, or ``quadrature`` if given: a sequence of four finite reals that
    the caller computed the same way, as ``qcarnot sweep`` does for a chunk
    of cycles in one call.  They pass the same gate; a ``quadrature`` of
    another type or length raises :class:`DomainError`."""
    _check_type(cycle, Cycle, "cycle")
    if quadrature is not None:
        _check_type(quadrature, Sequence, "quadrature")
        if len(quadrature) != 4:
            raise DomainError(f"quadrature must hold 4 works, got {len(quadrature)}")
        quadrature = [_check_real(q, f"quadrature[{i}]", -math.inf) for i, q in enumerate(quadrature)]
    works = [stroke_work(s) for s in cycle.strokes]
    quads = stroke_work_quadrature(cycle.strokes) if quadrature is None else quadrature
    gaps = [abs(q - w) for q, w in zip(quads, works)]
    W, Q_H = sum(works), works[0]
    discrepancy = sum(gaps) / Q_H
    if not discrepancy <= QUADRATURE_REL_TOL:  # a nan fails too
        i = gaps.index(max(gaps))
        raise QuadratureError(f"quadrature_discrepancy {discrepancy!r} exceeds {QUADRATURE_REL_TOL!r}: "
                              f"stroke {i + 1} works {works[i]!r} closed form, {quads[i]!r} quadrature")
    return CycleReport(
        W=W,
        Q_H=Q_H,
        Q_C=-works[2],
        eta=W / Q_H,
        eta_closed_form=1.0 - cycle.strokes[2].conserved / cycle.strokes[0].conserved,
        quadrature_discrepancy=discrepancy,
    )


def sample_cycle(cycle: Cycle, samples_per_stroke: int | None = None) -> SampleTable:
    """One :class:`SampleTable` tracing the closed force-width loop, strokes
    in order and told apart by the ``stroke_index``/``stroke_kind`` columns."""
    _check_type(cycle, Cycle, "cycle")
    count = cycle.spec.samples_per_stroke if samples_per_stroke is None else samples_per_stroke
    return SampleTable.concatenate([
        sample_stroke(stroke, count, stroke_index=index)
        for index, stroke in enumerate(cycle.strokes, start=1)
    ])


def polyline_work(samples: SampleTable) -> float:
    """Signed area enclosed by the force-width polyline of a :class:`SampleTable`.

    Trapezoid rule around the closed loop; equals the shoelace area of the
    polygon and converges to the cycle work at second order in the sample
    count.  Reversed traversal flips the sign.
    """
    _check_type(samples, SampleTable, "samples")
    L, F = samples.L, samples.force
    L_next = np.roll(L, -1)
    F_next = np.roll(F, -1)
    return 0.5 * float(np.sum((F + F_next) * (L_next - L)))
