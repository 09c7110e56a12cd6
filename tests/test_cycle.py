import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qcarnot import processes
from qcarnot import (
    CarnotSpec,
    CycleGeometryError,
    DomainError,
    ProcessSample,
    SampleTable,
    WellParams,
    build_carnot_cycle,
    evaluate_cycle,
    isothermal_state_at,
    polyline_work,
    sample_cycle,
    stroke_work,
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
        assert c.e_hot == pytest.approx(math.pi ** 2 / 2, rel=1e-15)
        assert c.e_cold == pytest.approx(math.pi ** 2 / 8, rel=1e-15)
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
        assert w2 == pytest.approx(c.e_hot - c.e_cold, rel=1e-12)

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
        # The quadrature tolerance is anchored on the refined integral, so
        # long isotherms (ln 1000 ~ 7) still clear the 1e-10 gate.
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

    @pytest.mark.parametrize("k", range(1, 6))
    def test_cross_check_sees_a_population_error(self, monkeypatch, k):
        # 1e-6 on w_upper over the level interval [k, k+1) of both isotherms
        # leaves the closed forms alone and must show in the quadrature.
        cycle = build_carnot_cycle(CarnotSpec(6, 1.0, 18.0))
        exact = processes.isothermal_populations

        def shifted(*args):
            level, w_upper = exact(*args)
            return level, w_upper + 1e-6 * (level == k)

        monkeypatch.setattr(processes, "isothermal_populations", shifted)
        assert evaluate_cycle(cycle).quadrature_discrepancy > 1e-8

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
