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

import re
from dataclasses import dataclass

import numpy as np

from .boxmodel import (
    DEFAULT_PARAMS,
    MixedState,
    WellParams,
    _check_int,
    _check_real,
    check_energy_scale,
    eigenenergy,
)
from .errors import CycleGeometryError, DomainError, SpecFormatError
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


@dataclass(frozen=True)
class CarnotSpec:
    """Geometry of one cycle: level reached on the hot isotherm and the two
    extreme widths.  ``L3 == top_level * L1`` is the degenerate zero-work
    boundary; anything smaller is rejected.  The widths are stored as Python
    floats, whichever real type they are given as."""

    top_level: int
    L1: float
    L3: float
    params: WellParams = DEFAULT_PARAMS
    samples_per_stroke: int = 256

    def __post_init__(self):
        _check_int(self.top_level, "top_level", 2, MAX_TOP_LEVEL)
        for name in ("L1", "L3"):
            object.__setattr__(self, name, _check_real(getattr(self, name), name))
        _check_int(self.samples_per_stroke, "samples_per_stroke", 2, MAX_SAMPLES_PER_STROKE)
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


def format_float(x: float) -> str:
    return format(float(x), ".17g")


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
    try:
        if key not in _INT_KEYS:
            return float(raw)
        if _INT_RE.fullmatch(raw):
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


def render_spec(spec: CarnotSpec) -> str:
    """Canonical text for ``spec``; ``parse_spec(render_spec(s)) == s``."""
    lines = [
        "[well]",
        f"hbar = {format_float(spec.params.hbar)}",
        f"mass = {format_float(spec.params.mass)}",
        "",
        "[cycle]",
        "type = carnot",
        f"top_level = {spec.top_level}",
        f"L1 = {format_float(spec.L1)}",
        f"L3 = {format_float(spec.L3)}",
        f"samples_per_stroke = {spec.samples_per_stroke}",
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Cycle:
    """Closed four-stroke sequence and the fixed energies of its two isotherms."""

    strokes: tuple[Stroke, Stroke, Stroke, Stroke]
    e_hot: float
    e_cold: float
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
    """Assemble the four strokes for ``spec``.

    The cycle closes by construction: the last adiabat ends at ``L1`` in
    ``pure(1)``, the first isotherm's state there.  Raises
    :class:`ScaleError` first if the spec's energies or forces would leave
    binary64 range anywhere on the cycle.
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
    return Cycle(strokes=strokes, e_hot=e_hot, e_cold=e_cold, spec=spec)


def evaluate_cycle(cycle: Cycle) -> CycleReport:
    """Closed-form work and heat for the cycle, cross-checked by quadrature."""
    works = [stroke_work(s) for s in cycle.strokes]
    quads = stroke_work_quadrature(cycle.strokes)
    W, Q_H = sum(works), works[0]
    return CycleReport(
        W=W,
        Q_H=Q_H,
        Q_C=-works[2],
        eta=W / Q_H,
        eta_closed_form=1.0 - cycle.e_cold / cycle.e_hot,
        quadrature_discrepancy=sum(abs(q - w) for q, w in zip(quads, works)) / Q_H,
    )


def sample_cycle(cycle: Cycle, samples_per_stroke: int | None = None) -> SampleTable:
    """One :class:`SampleTable` tracing the closed force-width loop, strokes
    in order and told apart by the ``stroke_index``/``stroke_kind`` columns."""
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
    L, F = samples.L, samples.force
    L_next = np.roll(L, -1)
    F_next = np.roll(F, -1)
    return 0.5 * float(np.sum((F + F_next) * (L_next - L)))
