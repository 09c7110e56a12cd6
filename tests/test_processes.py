import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcarnot import (
    DomainError,
    IsothermRangeError,
    MixedState,
    ScaleError,
    adiabatic_stroke,
    eigenenergy,
    entropy,
    expectation_energy,
    isothermal_state_at,
    isothermal_stroke,
    sample_stroke,
    stroke_work,
    stroke_work_quadrature,
    wall_force,
)
from strategies import mixed_states

E_GROUND = math.pi ** 2 / 2


def random_stroke(rng):
    """One randomized stroke of either kind, in natural units."""
    if rng.random() < 0.5:
        k = int(rng.integers(1, 6))
        levels = np.sort(rng.choice(np.arange(1, 13), size=k, replace=False))
        weights = rng.random(k) + 0.01
        state = MixedState(levels, weights / weights.sum())
        a, b = sorted(rng.uniform(0.3, 5.0, size=2))
        if rng.random() < 0.5:
            a, b = b, a
        return adiabatic_stroke(state, a, b)
    base = rng.uniform(0.5, 2.0)
    a, b = sorted(rng.uniform(base, 6.0 * base, size=2))
    if rng.random() < 0.5:
        a, b = b, a
    return isothermal_stroke(eigenenergy(1, base), a, b, base)


class TestIsothermalState:
    def test_base_width_is_pure_ground(self):
        assert isothermal_state_at(E_GROUND, 1.0, 1.0).populations == ((1, 1.0),)

    def test_window_top_is_pure_second(self):
        assert isothermal_state_at(E_GROUND, 2.0, 1.0).populations == ((2, 1.0),)

    def test_midpoint_weights(self):
        s = isothermal_state_at(E_GROUND, 1.5, 1.0)
        assert dict(s.populations)[2] == pytest.approx(1.25 / 3.0, rel=1e-14)
        assert dict(s.populations)[1] == pytest.approx(1.0 - 1.25 / 3.0, rel=1e-14)

    def test_second_window(self):
        s = isothermal_state_at(E_GROUND, 2.5, 1.0)
        assert set(dict(s.populations)) == {2, 3}
        assert dict(s.populations)[3] == pytest.approx(0.45, rel=1e-14)

    def test_below_window_rejected(self):
        with pytest.raises(IsothermRangeError):
            isothermal_state_at(E_GROUND, 0.9, 1.0)

    def test_energy_width_mismatch_rejected(self):
        with pytest.raises(DomainError):
            isothermal_state_at(1.1 * E_GROUND, 1.5, 1.0)

    @given(ratio=st.floats(1.0, 12.0))
    def test_holds_energy_fixed_everywhere(self, ratio):
        base = 0.7
        e_fixed = eigenenergy(1, base)
        s = isothermal_state_at(e_fixed, ratio * base, base)
        assert expectation_energy(s, ratio * base) == pytest.approx(e_fixed, rel=1e-12)

    @given(k=st.integers(2, 9), eps=st.floats(1e-12, 1e-7))
    def test_continuous_through_integer_widths(self, k, eps):
        below = isothermal_state_at(E_GROUND, k - eps, 1.0)
        at = isothermal_state_at(E_GROUND, float(k), 1.0)
        above = isothermal_state_at(E_GROUND, k + eps, 1.0)
        assert at.populations == ((k, 1.0),)
        assert dict(below.populations)[k] == pytest.approx(1.0, abs=1e-6)
        assert dict(above.populations)[k] == pytest.approx(1.0, abs=1e-6)


class TestAdiabaticStroke:
    def test_pure_second_level_expansion(self):
        # Second level out of a doubled box: force 4 pi^2 / L^3, energy
        # 2 pi^2 / L^2 at every width along the way.
        L3 = 5.0
        stroke = adiabatic_stroke(MixedState.pure(2), 2.0, L3)
        for L in (2.0, 3.0, L3):
            assert stroke.force_at(L) == pytest.approx(4 * math.pi ** 2 / L ** 3, rel=1e-13)
        assert stroke.energy_at(L3) == pytest.approx(2 * math.pi ** 2 / L3 ** 2, rel=1e-13)

    def test_ground_level_compression_force_law(self):
        stroke = adiabatic_stroke(MixedState.pure(1), 2.5, 1.0)
        for L in (2.5, 1.7, 1.0):
            assert stroke.force_at(L) == pytest.approx(math.pi ** 2 / L ** 3, rel=1e-13)

    def test_zero_length_work(self):
        stroke = adiabatic_stroke(MixedState.pure(1), 1.3, 1.3)
        assert stroke_work(stroke) == 0.0
        assert stroke_work_quadrature(stroke) == 0.0

    @given(s=mixed_states(), data=st.data())
    @settings(max_examples=50)
    def test_invariants_along_stroke(self, s, data):
        a = data.draw(st.floats(0.4, 4.0))
        b = data.draw(st.floats(0.4, 4.0))
        stroke = adiabatic_stroke(s, a, b)
        for L in np.linspace(min(a, b), max(a, b), 5):
            L = float(L)
            assert stroke.force_at(L) * L ** 3 == pytest.approx(
                stroke.force_at(a) * a ** 3, rel=1e-12
            )
            assert stroke.energy_at(L) * L ** 2 == pytest.approx(stroke.conserved, rel=1e-12)
            assert entropy(stroke.state_at(L)) == entropy(s)


class TestIsothermalStroke:
    def test_hot_window_endpoint_forces(self):
        stroke = isothermal_stroke(E_GROUND, 1.0, 2.0, 1.0)
        assert stroke.force_at(1.0) == pytest.approx(math.pi ** 2, rel=1e-13)
        assert stroke.force_at(2.0) == pytest.approx(math.pi ** 2 / 2, rel=1e-13)

    def test_cold_compression_force_law(self):
        L3 = 3.0
        e_cold = 2 * math.pi ** 2 / L3 ** 2
        stroke = isothermal_stroke(e_cold, L3, L3 / 2, L3 / 2)
        for L in (L3, 2.1, L3 / 2):
            assert stroke.force_at(L) == pytest.approx(
                4 * math.pi ** 2 / (L3 ** 2 * L), rel=1e-13
            )

    def test_zero_length_work(self):
        stroke = isothermal_stroke(E_GROUND, 1.5, 1.5, 1.0)
        assert stroke_work(stroke) == 0.0


class TestForceArrayPath:
    STROKES = (
        isothermal_stroke(E_GROUND, 1.0, 5.0, 1.0),
        isothermal_stroke(eigenenergy(1, 0.7), 3.1, 0.7, 0.7),
        adiabatic_stroke(MixedState.from_pairs({1: 0.25, 3: 0.5, 7: 0.25}), 0.8, 4.0),
        adiabatic_stroke(MixedState.pure(4), 2.0, 0.5),
    )

    @pytest.mark.parametrize("stroke", STROKES, ids=lambda s: s.kind.value)
    def test_array_matches_scalar_calls(self, stroke):
        lo, hi = sorted((stroke.L_start, stroke.L_end))
        base = stroke.base_scale or lo
        # Exact integer multiples of the base width are pure staircase states.
        widths = np.concatenate((np.linspace(lo, hi, 37), base * np.arange(1.0, 5.0)))
        widths = widths[(widths >= lo) & (widths <= hi)]
        forces = stroke.force_at(widths)
        assert isinstance(forces, np.ndarray) and forces.shape == widths.shape
        for L, F in zip(widths.tolist(), forces.tolist()):
            scalar = stroke.force_at(L)
            assert isinstance(scalar, float)
            assert F == pytest.approx(scalar, rel=1e-15)
            assert F == pytest.approx(wall_force(stroke.state_at(L), L), rel=1e-15)

    def test_window_edge(self):
        stroke = isothermal_stroke(E_GROUND, 1.0, 3.0, 1.0)
        inside = np.array([1.0 - 5e-13, 2.0])
        assert stroke.force_at(inside).tolist() == pytest.approx(
            [math.pi ** 2, math.pi ** 2 / 2], rel=1e-11
        )
        with pytest.raises(IsothermRangeError):
            stroke.force_at(np.array([1.5, 1.0 - 1e-11]))
        with pytest.raises(IsothermRangeError):
            stroke.force_at(1.0 - 1e-11)

    def test_invalid_widths_rejected(self):
        stroke = adiabatic_stroke(MixedState.pure(1), 1.0, 2.0)
        for bad in (np.array([1.0, 0.0]), np.array([np.nan]), -1.0, math.inf):
            with pytest.raises(DomainError):
                stroke.force_at(bad)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_raises_instead_of_inf(self):
        stroke = adiabatic_stroke(MixedState.pure(1), 1e-103, 2e-103)
        with pytest.raises(ScaleError):
            stroke.force_at(np.array([1e-103, 2e-103]))
        with pytest.raises(ScaleError):
            stroke.force_at(1e-103)


class TestStrokeWork:
    def test_isothermal_closed_form(self):
        stroke = isothermal_stroke(E_GROUND, 1.0, 2.0, 1.0)
        assert stroke_work(stroke) == pytest.approx(math.pi ** 2 * math.log(2), rel=1e-14)

    def test_adiabatic_closed_form_is_energy_drop(self):
        L3 = 5.0
        stroke = adiabatic_stroke(MixedState.pure(2), 2.0, L3)
        e_hot = eigenenergy(2, 2.0)
        e_cold = eigenenergy(2, L3)
        assert stroke_work(stroke) == pytest.approx(e_hot - e_cold, rel=1e-14)

    def test_quadrature_matches_isothermal(self):
        stroke = isothermal_stroke(E_GROUND, 1.0, 2.0, 1.0)
        assert stroke_work_quadrature(stroke, 1e-10) == pytest.approx(
            math.pi ** 2 * math.log(2), rel=1e-10
        )

    def test_quadrature_matches_adiabatic(self):
        stroke = adiabatic_stroke(MixedState.pure(1), 1.0, 2.0)
        assert stroke_work_quadrature(stroke, 1e-10) == pytest.approx(
            3 * math.pi ** 2 / 8, rel=1e-10
        )

    def test_quadrature_tolerance_domain(self):
        stroke = isothermal_stroke(E_GROUND, 1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            stroke_work_quadrature(stroke, 1e-3)
        with pytest.raises(DomainError):
            stroke_work_quadrature(stroke, 0.0)

    def test_closed_form_vs_quadrature_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            stroke = random_stroke(rng)
            w = stroke_work(stroke)
            q = stroke_work_quadrature(stroke, 1e-10)
            assert q == pytest.approx(w, rel=1e-9, abs=1e-12)

    def test_reversed_endpoints_negate_work(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            stroke = random_stroke(rng)
            if stroke.kind.value == "isothermal":
                back = isothermal_stroke(
                    stroke.conserved, stroke.L_end, stroke.L_start,
                    stroke.base_scale, stroke.params,
                )
            else:
                back = adiabatic_stroke(
                    stroke.state_at(stroke.L_end), stroke.L_end, stroke.L_start,
                    stroke.params,
                )
            assert stroke_work(back) == pytest.approx(-stroke_work(stroke), rel=1e-12, abs=1e-12)
            returned = back.state_at(stroke.L_start)
            assert returned.populations == stroke.state_start.populations


class TestSampleStroke:
    def test_two_samples_are_endpoints(self):
        stroke = adiabatic_stroke(MixedState.pure(1), 1.0, 2.0)
        samples = sample_stroke(stroke, 2)
        assert [s.L for s in samples] == [1.0, 2.0]

    def test_midpoint_populations(self):
        stroke = isothermal_stroke(E_GROUND, 1.0, 2.0, 1.0)
        samples = sample_stroke(stroke, 3)
        assert samples[1].L == 1.5
        assert dict(samples[1].populations)[2] == pytest.approx(1.25 / 3.0, rel=1e-13)

    def test_isothermal_equation_of_state_across_samples(self):
        stroke = isothermal_stroke(E_GROUND, 1.0, 3.7, 1.0)
        for s in sample_stroke(stroke, 33):
            assert s.L * s.force == pytest.approx(2 * stroke.conserved, rel=1e-12)
            weights = [w for _, w in s.populations]
            assert all(0.0 <= w <= 1.0 for w in weights)
            assert sum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_along_direction(self):
        stroke = isothermal_stroke(E_GROUND, 2.0, 1.0, 1.0)
        L = [s.L for s in sample_stroke(stroke, 9)]
        assert L == sorted(L, reverse=True)

    def test_count_validation(self):
        stroke = adiabatic_stroke(MixedState.pure(1), 1.0, 2.0)
        with pytest.raises(DomainError):
            sample_stroke(stroke, 1)
