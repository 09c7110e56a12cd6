import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qcarnot import (
    CarnotSpec,
    CycleGeometryError,
    build_carnot_cycle,
    evaluate_cycle,
    polyline_work,
    sample_cycle,
    stroke_work,
)

FLAGSHIP = CarnotSpec(top_level=2, L1=1.0, L3=4.0)


class TestBuild:
    def test_two_level_geometry(self):
        c = build_carnot_cycle(FLAGSHIP)
        assert (c.L2, c.L4) == (2.0, 2.0)
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

    def test_closure(self):
        c = build_carnot_cycle(CarnotSpec(4, 0.7, 5.3))
        final = c.strokes[3].state_at(c.spec.L1)
        assert final.populations == ((1, 1.0),)
        assert c.strokes[3].L_end == c.spec.L1
        assert c.strokes[0].state_start.populations == ((1, 1.0),)


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
        assert polyline_work(list(reversed(samples))) == pytest.approx(
            -polyline_work(samples), rel=1e-12
        )

    def test_refrigerator_orientation_on_degenerate_is_zero(self):
        c = build_carnot_cycle(CarnotSpec(2, 1.0, 2.0))
        assert polyline_work(sample_cycle(c, 64)) == pytest.approx(0.0, abs=1e-12)
