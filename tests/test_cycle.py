import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qcarnot import processes
from qcarnot import (
    CarnotSpec,
    Cycle,
    CycleGeometryError,
    DomainError,
    MixedState,
    ProcessSample,
    QuadratureError,
    SampleTable,
    ScaleError,
    WellParams,
    adiabatic_stroke,
    build_carnot_cycle,
    eigenenergy,
    evaluate_cycle,
    isothermal_state_at,
    polyline_work,
    sample_cycle,
    sample_stroke,
    stroke_work,
    stroke_work_quadrature,
)
from qcarnot.cycle import MAX_SAMPLES_PER_STROKE, MAX_TOP_LEVEL

FLAGSHIP = CarnotSpec(top_level=2, L1=1.0, L3=4.0)


def start_state(stroke):
    """State at an isotherm's start width, as ``isothermal_state_at`` gives it."""
    return isothermal_state_at(stroke.conserved, stroke.L_start, stroke.base_scale, stroke.params)


def reversed_table(table):
    """``table`` with the rows of every column in reverse order."""
    return SampleTable(**{name: column[::-1] for name, column in vars(table).items()})


class TestBuild:
    def test_two_level_geometry(self):
        c = build_carnot_cycle(FLAGSHIP)
        assert (c.strokes[0].L_end, c.strokes[2].L_end) == (2.0, 2.0)
        assert c.strokes[0].conserved == pytest.approx(math.pi ** 2 / 2, rel=1e-15)
        assert c.strokes[2].conserved == pytest.approx(math.pi ** 2 / 8, rel=1e-15)
        kinds = [s.kind.value for s in c.strokes]
        assert kinds == ["isothermal", "adiabatic", "isothermal", "adiabatic"]

    def test_degenerate_boundary(self):
        spec = CarnotSpec(top_level=2, L1=1.0, L3=2.0)
        report = evaluate_cycle(build_carnot_cycle(spec))
        assert report.W == pytest.approx(0.0, abs=1e-12)
        assert report.eta == pytest.approx(0.0, abs=1e-12)

    def test_three_level_efficiency(self):
        report = evaluate_cycle(build_carnot_cycle(CarnotSpec(3, 1.0, 6.0)))
        assert report.eta == pytest.approx(0.75, rel=1e-12)
        assert report.eta_closed_form == pytest.approx(1 - 9.0 / 36.0, rel=1e-12)

    def test_geometry_rejection(self):
        with pytest.raises(CycleGeometryError):
            CarnotSpec(top_level=2, L1=1.0, L3=1.0)

    def test_energy_scale_is_checked_when_built_after_the_other_rules(self):
        with pytest.raises(ScaleError, match=r"^energy scale out of range: .* widths 1\.0\.\.1e\+200 "):
            CarnotSpec(2, 1.0, 1e200)
        with pytest.raises(CycleGeometryError):
            CarnotSpec(2, 1e-170, 1e-171)
        with pytest.raises(DomainError, match="^samples_per_stroke"):
            CarnotSpec(2, 1.0, 1e200, samples_per_stroke=1)

    def test_spec_validation(self):
        with pytest.raises(Exception):
            CarnotSpec(top_level=1, L1=1.0, L3=4.0)
        with pytest.raises(Exception):
            CarnotSpec(top_level=2, L1=-1.0, L3=4.0)
        with pytest.raises(Exception):
            CarnotSpec(top_level=2, L1=1.0, L3=4.0, samples_per_stroke=1)

    @pytest.mark.parametrize("L1", [np.float32(1.0), np.float64(1.0), np.int64(1), 1])
    def test_numpy_and_int_widths_accepted(self, L1):
        spec = CarnotSpec(2, L1, 4.0)
        assert type(spec.L1) is float and spec.L1 == 1.0
        assert evaluate_cycle(build_carnot_cycle(spec)) == evaluate_cycle(build_carnot_cycle(FLAGSHIP))

    @pytest.mark.parametrize("top_level, samples", [
        (2.0, 256), (np.int64(2), np.int64(8)), (np.float64(2.0), 8.0), (np.int32(2), np.uint16(8)),
    ])
    def test_integers_stored_as_python_ints(self, top_level, samples):
        spec = CarnotSpec(top_level, 1.0, 4.0, samples_per_stroke=samples)
        assert type(spec.top_level) is int and spec.top_level == 2
        assert type(spec.samples_per_stroke) is int and spec.samples_per_stroke == samples

    def test_geometry_message_uses_the_stored_level(self):
        with pytest.raises(CycleGeometryError) as info:
            CarnotSpec(np.int64(2), 1.0, 1.5)
        assert str(info.value) == "L3 must exceed top_level*L1: got L3=1.5, top_level*L1=2.0"

    @pytest.mark.parametrize("bad", [
        True, np.bool_(True), math.nan, np.float32("nan"), math.inf, np.float64(-np.inf),
        0.0, -1.0, np.float32(-2.0), "1.0", None,
    ])
    @pytest.mark.parametrize("name", ["L1", "L3"])
    def test_width_rejections(self, name, bad):
        widths = {"L1": 1.0, "L3": 4.0, name: bad}
        with pytest.raises(DomainError, match=name):
            CarnotSpec(2, **widths)

    @pytest.mark.parametrize("top_level, samples", [
        (2 ** 63, 256), pytest.param(10 ** 400, 256, id="10**400-256"), (True, 256),
        ("2", 256), (2.5, 256), (2, True), (2, "256"), (2, 10.5),
        (1, 256), (np.bool_(True), 256), (math.nan, 256), (2, 1), (2, math.inf),
        (2, MAX_SAMPLES_PER_STROKE + 1),
    ])
    def test_count_rejections(self, top_level, samples):
        with pytest.raises(DomainError):
            CarnotSpec(top_level, 1.0, 1e300, samples_per_stroke=samples)

    @pytest.mark.parametrize("params", [None, "x", {"hbar": 1.0, "mass": 1.0}])
    def test_params_rejection(self, params):
        with pytest.raises(DomainError, match=r"^params must be a WellParams, got "):
            CarnotSpec(2, 1.0, 4.0, params=params)

    def test_largest_top_level_builds(self):
        # float(MAX_TOP_LEVEL) is 2**63 - 1024, the largest binary64 value
        # below 2**63; the width ratio that picks the cold isotherm's top level
        # rounds to it or one step below, never up to 2**63.
        assert MAX_TOP_LEVEL == 2 ** 63 - 513
        assert float(MAX_TOP_LEVEL) == 2.0 ** 63 - 1024 and float(MAX_TOP_LEVEL + 1) == 2.0 ** 63
        rng = np.random.default_rng(11)
        for L1, ratio in zip(10.0 ** rng.uniform(-3, 3, 200), rng.uniform(1.0, 4.0, 200)):
            c = build_carnot_cycle(CarnotSpec(MAX_TOP_LEVEL, L1, MAX_TOP_LEVEL * L1 * ratio))
            (level, _), = start_state(c.strokes[2]).populations
            assert level in (2 ** 63 - 2048, 2 ** 63 - 1024)

    @pytest.mark.parametrize("top_level", [MAX_TOP_LEVEL + 1, 2 ** 63 - 1])
    def test_top_level_beyond_largest_rejected(self, top_level):
        with pytest.raises(DomainError, match=r"top_level must be an integer in \[2, 2\*\*63 - 513\]"):
            CarnotSpec(top_level, 1.0, 1e300)

    @pytest.mark.parametrize("count", [MAX_SAMPLES_PER_STROKE + 1, 2 ** 40])
    def test_sample_cycle_count_cap(self, count):
        # The cap holds for a count passed past the spec, before any allocation.
        with pytest.raises(DomainError, match=r"count must be an integer in \[2, 2\*\*20\]"):
            sample_cycle(build_carnot_cycle(FLAGSHIP), count)

    def test_samples_per_stroke_cap(self):
        # Both specs are built and rejected without sampling a stroke.
        assert MAX_SAMPLES_PER_STROKE == 2 ** 20
        assert CarnotSpec(2, 1.0, 4.0, samples_per_stroke=MAX_SAMPLES_PER_STROKE)
        message = r"samples_per_stroke must be an integer in \[2, 2\*\*20\]"
        with pytest.raises(DomainError, match=message):
            CarnotSpec(2, 1.0, 4.0, samples_per_stroke=MAX_SAMPLES_PER_STROKE + 1)

    def test_closure(self):
        c = build_carnot_cycle(CarnotSpec(4, 0.7, 5.3))
        # The last adiabat ends at L1 in its frozen state, the first
        # isotherm's state there; isotherms carry no state of their own.
        assert c.strokes[3].state_start.populations == ((1, 1.0),)
        assert c.strokes[3].L_end == c.spec.L1
        assert start_state(c.strokes[0]).populations == ((1, 1.0),)
        assert c.strokes[0].state_start is None and c.strokes[2].state_start is None


class TestEvaluate:
    def test_flagship_work_and_heat(self):
        report = evaluate_cycle(build_carnot_cycle(FLAGSHIP))
        assert report.W == pytest.approx(0.75 * math.pi ** 2 * math.log(2), rel=1e-12)
        assert report.Q_H == pytest.approx(math.pi ** 2 * math.log(2), rel=1e-12)
        assert report.Q_C == pytest.approx(report.Q_H - report.W, rel=1e-12)

    def test_eta_closed_form_reads_the_isotherm_energies(self):
        report = evaluate_cycle(build_carnot_cycle(CarnotSpec(3, 0.9, 4.1)))
        assert report.eta_closed_form == 1.0 - eigenenergy(3, 4.1) / eigenenergy(1, 0.9)

    def test_flagship_efficiency_three_ways(self):
        report = evaluate_cycle(build_carnot_cycle(FLAGSHIP))
        assert report.eta == pytest.approx(0.75, rel=1e-12)
        assert report.eta_closed_form == pytest.approx(0.75, rel=1e-12)
        assert report.eta == pytest.approx(1 - 4 * (1.0 / 4.0) ** 2, rel=1e-12)

    def test_quadrature_discrepancy_small(self):
        report = evaluate_cycle(build_carnot_cycle(FLAGSHIP))
        assert report.quadrature_discrepancy <= 1e-9

    def test_adiabatic_pair_cancels(self):
        c = build_carnot_cycle(CarnotSpec(3, 0.9, 4.1))
        w2 = stroke_work(c.strokes[1])
        w4 = stroke_work(c.strokes[3])
        assert w2 + w4 == pytest.approx(0.0, abs=1e-12 * abs(w2))
        assert w2 == pytest.approx(c.strokes[0].conserved - c.strokes[2].conserved, rel=1e-12)

    @given(
        n=st.integers(2, 5),
        L1=st.floats(0.4, 2.0),
        ratio=st.floats(1.05, 4.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_conservation_randomized(self, n, L1, ratio):
        report = evaluate_cycle(build_carnot_cycle(CarnotSpec(n, L1, n * L1 * ratio)))
        assert report.W == pytest.approx(report.Q_H - report.Q_C, rel=1e-10)
        assert report.eta == pytest.approx(report.eta_closed_form, rel=1e-10)

    @pytest.mark.parametrize("L3", [3000.0, 6000.0])
    def test_high_top_level_meets_gate(self, L3):
        # An isotherm's integrand is constant, so its 16 pieces clear the
        # 1e-10 gate however long it is (ln 1000 ~ 7 here).
        report = evaluate_cycle(build_carnot_cycle(CarnotSpec(1000, 1.0, L3)))
        assert report.quadrature_discrepancy <= 1e-8
        assert report.eta == pytest.approx(1 - (1000.0 / L3) ** 2, rel=1e-12)

    @pytest.mark.parametrize("ratio", [1.0, 1.2, 3.0, 4.5])
    @pytest.mark.parametrize("top_level", [10 ** 9, 10 ** 11, 10 ** 13, 10 ** 15, 2 ** 62,
                                           MAX_TOP_LEVEL])
    def test_cross_check_over_the_top_level_domain(self, top_level, ratio):
        # L3 / (top_level L1) = ratio; the well and L1 are drawn per case.
        rng = np.random.default_rng([top_level, int(10 * ratio)])
        hbar, mass, L1 = (10.0 ** rng.uniform(-1.0, 1.0, 3)).tolist()
        spec = CarnotSpec(top_level, L1, ratio * top_level * L1, WellParams(hbar, mass))
        report = evaluate_cycle(build_carnot_cycle(spec))
        assert report.quadrature_discrepancy <= 1e-12
        assert report.eta == pytest.approx(report.eta_closed_form, rel=1e-12, abs=1e-12)

    def test_gate_holds_with_room_over_the_documented_domain(self):
        # 300 seeded cycles: top_level log-uniform in [2, 1e15], then 2**62
        # and MAX_TOP_LEVEL; L1, hbar and mass log-uniform in [1e-3, 1e3];
        # L3 / (top_level L1) cycling through the zero-work boundary, 1 +
        # 1e-15, 1 + 1e-9, 10^U(0, 3) and 10^U(0, 100).  Draws whose energies
        # leave binary64, a few of the widest ratios, lie outside the domain.
        # The discrepancy stays far under the 1e-10 gate: 3.4e-15 measured.
        rng = np.random.default_rng(20001)
        top_levels = [max(2, int(10.0 ** rng.uniform(0.0, 15.0))) for _ in range(290)]
        evaluated = 0
        for i, top_level in enumerate(top_levels + [2 ** 62] * 5 + [MAX_TOP_LEVEL] * 5):
            hbar, mass, L1 = (10.0 ** rng.uniform(-3.0, 3.0, 3)).tolist()
            ratio = (1.0, 1.0 + 1e-15, 1.0 + 1e-9, 10.0 ** rng.uniform(0.0, 3.0),
                     10.0 ** rng.uniform(0.0, 100.0))[i % 5]
            try:
                spec = CarnotSpec(top_level, L1, ratio * (top_level * L1), WellParams(hbar, mass))
            except ScaleError:
                continue
            cycle = build_carnot_cycle(spec)
            assert evaluate_cycle(cycle).quadrature_discrepancy <= 1e-13, spec
            evaluated += 1
        assert evaluated >= 290

    @pytest.mark.parametrize("k", range(1, 7))
    def test_cross_check_sees_a_population_error(self, monkeypatch, k):
        # 1e-6 on w_upper over the level interval [k, k+1) of both isotherms
        # leaves the closed forms alone and must show in the quadrature as a
        # discrepancy past the 1e-10 gate under the Gauss–Lobatto rule:
        # 2.19e-6 at k = 1, where the adiabats, whose width ratios the
        # staircase takes as 1, move too, and down to 3.5e-10 at k = 6, where
        # only the isotherms' end points at L2 and L3 lie on level 6.
        cycle = build_carnot_cycle(CarnotSpec(6, 1.0, 18.0))
        exact = processes._staircase

        def shifted(*args):
            level, w_upper = exact(*args)
            return level, w_upper + 1e-6 * (level == k)

        monkeypatch.setattr(processes, "_staircase", shifted)
        with pytest.raises(QuadratureError, match=r"^quadrature_discrepancy \S+ exceeds 1e-10: stroke "):
            evaluate_cycle(cycle)

    def test_efficiency_monotone_in_l3(self):
        etas = [
            evaluate_cycle(build_carnot_cycle(CarnotSpec(2, 1.0, L3))).eta
            for L3 in np.linspace(2.5, 9.0, 12)
        ]
        assert all(a < b for a, b in zip(etas, etas[1:]))


class TestSampleCycle:
    def test_row_count_and_indices(self):
        c = build_carnot_cycle(FLAGSHIP)
        samples = sample_cycle(c, 16)
        assert len(samples) == 64
        assert sorted({s.stroke_index for s in samples}) == [1, 2, 3, 4]

    def test_force_continuous_at_junctions(self):
        c = build_carnot_cycle(CarnotSpec(3, 1.0, 6.0))
        samples = sample_cycle(c, 8)
        for i in range(3):
            end = samples[8 * (i + 1) - 1]
            start = samples[8 * (i + 1)]
            assert start.force == pytest.approx(end.force, rel=1e-12)
            assert start.L == pytest.approx(end.L, rel=1e-15)

    def test_entropy_returns_to_zero(self):
        samples = sample_cycle(build_carnot_cycle(FLAGSHIP), 32)
        assert samples[0].entropy == 0.0
        assert samples[-1].entropy == 0.0

    def test_polyline_area_approaches_work(self):
        c = build_carnot_cycle(FLAGSHIP)
        W = evaluate_cycle(c).W
        area = polyline_work(sample_cycle(c, 4096))
        assert area == pytest.approx(W, rel=1e-4)

    def test_polyline_matches_shoelace_oracle(self):
        c = build_carnot_cycle(FLAGSHIP)
        samples = sample_cycle(c, 512)
        L = [s.L for s in samples]
        F = [s.force for s in samples]
        assert polyline_work(samples) == pytest.approx(
            -oracles.shoelace_area(L, F), rel=1e-12
        )

    def test_reversed_orientation_flips_sign(self):
        c = build_carnot_cycle(FLAGSHIP)
        samples = sample_cycle(c, 64)
        assert polyline_work(reversed_table(samples)) == pytest.approx(
            -polyline_work(samples), rel=1e-12
        )

    def test_refrigerator_orientation_on_degenerate_is_zero(self):
        c = build_carnot_cycle(CarnotSpec(2, 1.0, 2.0))
        assert polyline_work(sample_cycle(c, 64)) == pytest.approx(0.0, abs=1e-12)


class TestSampleTableProtocol:
    def test_sequence_of_rows(self):
        table = sample_cycle(build_carnot_cycle(CarnotSpec(3, 1.0, 6.0)), 16)
        assert isinstance(table, SampleTable)
        assert len(table) == 64
        rows = list(table)
        assert len(rows) == 64 and all(isinstance(r, ProcessSample) for r in rows)
        assert table[-1] == rows[-1] and table[-64] == rows[0]
        for i in range(7):
            assert table[8 * (i + 1)] == rows[8 * (i + 1)]
        assert [r.stroke_index for r in rows] == [i for i in (1, 2, 3, 4) for _ in range(16)]
        assert [r.stroke_kind for r in rows[::16]] == [
            "isothermal", "adiabatic", "isothermal", "adiabatic"
        ]
        assert list(reversed(table)) == rows[::-1]
        for bad in (64, -65):
            with pytest.raises(IndexError):
                table[bad]

    def test_reversed_table_flips_area_sign(self):
        table = sample_cycle(build_carnot_cycle(FLAGSHIP), 64)
        reverse = reversed_table(table)
        assert list(reverse) == list(reversed(table))
        assert polyline_work(reverse) == pytest.approx(-polyline_work(table), rel=1e-12)


@pytest.mark.parametrize("call, name", [
    (lambda: stroke_work("x"), "stroke"),
    (lambda: stroke_work_quadrature("x"), r"strokes\[0\]"),
    (lambda: stroke_work_quadrature([build_carnot_cycle(FLAGSHIP).strokes[0], "x"]), r"strokes\[1\]"),
    (lambda: stroke_work_quadrature(3), "strokes"),
    (lambda: sample_stroke("x", 3), "stroke"),
    (lambda: build_carnot_cycle("x"), "spec"),
    (lambda: evaluate_cycle("x"), "cycle"),
    (lambda: sample_cycle("x"), "cycle"),
    (lambda: polyline_work("x"), "samples"),
    (lambda: MixedState.from_pairs(3), "pairs"),
], ids=["stroke_work", "stroke_work_quadrature", "stroke_work_quadrature-item",
        "stroke_work_quadrature-int", "sample_stroke", "build_carnot_cycle", "evaluate_cycle",
        "sample_cycle", "polyline_work", "from_pairs"])
def test_wrong_type_argument_raises_domain_error_naming_it(call, name):
    with pytest.raises(DomainError, match=f"^{name} must be an? [A-Z]\\w+, got "):
        call()


_FLAGSHIP_STROKES = build_carnot_cycle(FLAGSHIP).strokes


@pytest.mark.parametrize("run", [evaluate_cycle, sample_cycle])
@pytest.mark.parametrize("strokes, spec, text", [
    (_FLAGSHIP_STROKES[:3], FLAGSHIP, "strokes must hold 4 strokes, got 3"),
    (_FLAGSHIP_STROKES + _FLAGSHIP_STROKES[:1], FLAGSHIP, "strokes must hold 4 strokes, got 5"),
    (_FLAGSHIP_STROKES[1::-1] + _FLAGSHIP_STROKES[2:], FLAGSHIP,
     "stroke 1 must be isothermal, got adiabatic"),
    (_FLAGSHIP_STROKES, "x", "spec must be a CarnotSpec, got 'x'"),
    (_FLAGSHIP_STROKES[:3] + (adiabatic_stroke(MixedState.pure(1), 1.0, 1.0),), FLAGSHIP,
     "stroke 4 must start at width 2.0, where stroke 3 ends, got 1.0"),
    (_FLAGSHIP_STROKES[:3] + (adiabatic_stroke(MixedState.pure(1), 2.0, 1.5),), FLAGSHIP,
     "stroke 1 must start at width 1.5, where stroke 4 ends, got 1.0"),
], ids=["three-strokes", "five-strokes", "strokes-1-and-2-swapped", "spec-not-a-CarnotSpec",
        "stroke-4-not-after-stroke-3", "stroke-1-not-after-stroke-4"])
def test_a_malformed_cycle_raises_domain_error(run, strokes, spec, text):
    # Before Cycle checked itself, three strokes gave eta 1.29 and five 1.75,
    # past the Carnot bound of 0.75; the swap and the spec raised raw
    # TypeError and AttributeError.
    with pytest.raises(DomainError, match="^" + re.escape(text) + "$"):
        run(Cycle(strokes, spec))
