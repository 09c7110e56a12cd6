import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcarnot import (
    DomainError,
    IsothermRangeError,
    MixedState,
    SampleTable,
    ScaleError,
    Stroke,
    WellParams,
    adiabatic_stroke,
    eigenenergy,
    entropy,
    expectation_energy,
    isothermal_populations,
    isothermal_state_at,
    isothermal_stroke,
    sample_stroke,
    stroke_work,
    stroke_work_quadrature,
    wall_force,
)
from qcarnot.cli import write_samples_csv
from qcarnot.processes import MAX_SAMPLES_PER_STROKE
from strategies import mixed_states

E_GROUND = math.pi ** 2 / 2


def state_at(stroke, L):
    """The state at width ``L`` along ``stroke``: an adiabat's frozen state,
    an isotherm's staircase state from ``isothermal_state_at``."""
    if stroke.kind.value == "adiabatic":
        return stroke.state_start
    return isothermal_state_at(stroke.conserved, L, stroke.base_scale, stroke.params)


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

    @pytest.mark.parametrize("e_fixed", [str(E_GROUND), True, None])
    def test_rejects_energy_that_is_not_a_real(self, e_fixed):
        with pytest.raises(DomainError, match="e_fixed must be positive and finite"):
            isothermal_populations(e_fixed, 1.5, 1.0)

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
        assert expectation_energy(stroke.state_start, L3) == pytest.approx(
            2 * math.pi ** 2 / L3 ** 2, rel=1e-13
        )

    def test_ground_level_compression_force_law(self):
        stroke = adiabatic_stroke(MixedState.pure(1), 2.5, 1.0)
        for L in (2.5, 1.7, 1.0):
            assert stroke.force_at(L) == pytest.approx(math.pi ** 2 / L ** 3, rel=1e-13)

    @pytest.mark.parametrize("L_from, L_to", [("2", True), (True, 2.0), (2.0, "1"), (None, 1.0)])
    def test_rejects_bad_width_types(self, L_from, L_to):
        with pytest.raises(DomainError):
            adiabatic_stroke(MixedState.pure(1), L_from, L_to)

    def test_zero_length_work(self):
        for state in (MixedState.pure(1), MixedState.from_pairs({2: 0.3, 5: 0.7})):
            for L in (1.3, 0.1, 7.0):
                stroke = adiabatic_stroke(state, L, L)
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
            assert expectation_energy(stroke.state_start, L) * L ** 2 == pytest.approx(
                stroke.conserved, rel=1e-12
            )
            assert entropy(stroke.state_start) == entropy(s)


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
        for L in (1.0, 1.5, 2.0, 3.7):
            stroke = isothermal_stroke(E_GROUND, L, L, 1.0)
            assert stroke_work(stroke) == 0.0
            assert stroke_work_quadrature(stroke) == 0.0

    @pytest.mark.parametrize("L_from, L_to", [
        ("2", True), (True, 2.0), (2.0, "1"), (None, 1.0),
        (1.0, np.array([1.5, 1.8])), (1.0, np.array([1.5])),
    ])
    def test_rejects_bad_width_types(self, L_from, L_to):
        with pytest.raises(DomainError):
            isothermal_stroke(E_GROUND, L_from, L_to, 1.0)

    @pytest.mark.parametrize("L_from, L_to, name", [(-1.0, 2.0, "L_from"), (1.0, math.nan, "L_to")])
    def test_names_the_bad_width(self, L_from, L_to, name):
        with pytest.raises(DomainError, match=f"{name} must be positive and finite"):
            isothermal_stroke(E_GROUND, L_from, L_to, 1.0)

    def test_widths_from_2_pow_63_bases_rejected(self):
        # Level floor(L / base) must fit an int64: the window ends at the
        # largest binary64 ratio below 2**63, and every entry point rejects
        # 2**63 * base instead of casting the level to -2**63.
        e, base = eigenenergy(1, 0.5), 0.5
        edge, beyond = (2.0 ** 63 - 1024) * base, 2.0 ** 63 * base
        stroke = isothermal_stroke(e, base, edge, base)
        assert sample_stroke(stroke, 3).levels[-1].tolist() == [2 ** 63 - 1024, 0]
        assert stroke.force_at(edge) > 0.0
        for call in (
            lambda: isothermal_stroke(e, base, beyond, base),
            lambda: isothermal_stroke(eigenenergy(1, 1.0), 1.0, 1e20, 1.0),
            lambda: stroke.force_at(beyond),
            lambda: stroke.force_at(np.array([edge, beyond])),
            lambda: sample_stroke(dataclasses.replace(stroke, L_end=beyond), 3),
            lambda: isothermal_state_at(e, beyond, base),
        ):
            with pytest.raises(IsothermRangeError, match="validity window"):
                call()


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
            assert F == pytest.approx(wall_force(state_at(stroke, L), L), rel=1e-15)

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
        for bad in (np.array([1.0, 0.0]), np.array([np.nan]), -1.0, math.inf, True, "2",
                    np.array(["2"]), np.array([True])):
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
        for bad in ("x", True, math.nan):
            with pytest.raises(DomainError, match=r"rel_tol must lie in \(0, 0.0001\]"):
                stroke_work_quadrature(stroke, bad)

    def test_closed_form_vs_quadrature_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            stroke = random_stroke(rng)
            w = stroke_work(stroke)
            q = stroke_work_quadrature(stroke, 1e-10)
            assert q == pytest.approx(w, rel=1e-9, abs=1e-12)

    def test_sequence_of_strokes_matches_one_at_a_time(self):
        # Every stroke's panels refine on their own keys and anchors, so one
        # call for all of them gives each stroke's work bit for bit.
        rng = np.random.default_rng(5)
        strokes = [random_stroke(rng) for _ in range(6)]
        strokes.insert(2, isothermal_stroke(E_GROUND, 1.5, 1.5, 1.0))
        works = stroke_work_quadrature(strokes, 1e-10)
        assert works == [stroke_work_quadrature(s, 1e-10) for s in strokes]
        assert all(type(w) is float for w in works) and works[2] == 0.0

    def test_integrand_probes_every_stroke_at_257_widths(self, monkeypatch):
        widths = []
        force_at = Stroke.force_at

        def spy(stroke, L):
            widths.append(np.unique(L).size)
            return force_at(stroke, L)

        monkeypatch.setattr(Stroke, "force_at", spy)
        stroke_work_quadrature([isothermal_stroke(E_GROUND, 1.0, 6.0, 1.0),
                                adiabatic_stroke(MixedState.pure(1), 1.0, 1.0 + 1e-9)])
        assert widths[:2] == [257, 257]

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
                    stroke.state_start, stroke.L_end, stroke.L_start, stroke.params,
                )
            assert stroke_work(back) == pytest.approx(-stroke_work(stroke), rel=1e-12, abs=1e-12)
            returned = state_at(back, stroke.L_start)
            assert returned.populations == state_at(stroke, stroke.L_start).populations


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

    @pytest.mark.parametrize("count", [
        math.nan, math.inf, "3", True, 2.5, MAX_SAMPLES_PER_STROKE + 1, 2 ** 40,
    ])
    def test_count_rejections(self, count):
        # Rejected before np.linspace allocates anything.
        stroke = isothermal_stroke(E_GROUND, 1.0, 2.0, 1.0)
        with pytest.raises(DomainError, match=r"count must be an integer in \[2, 2\*\*20\]"):
            sample_stroke(stroke, count)


def random_params(rng):
    return WellParams(hbar=10 ** rng.uniform(-0.5, 0.5), mass=10 ** rng.uniform(-0.5, 0.5))


def per_row_samples(stroke, count):
    """The per-row reference: a validated state at each width, then the scalar observables."""
    rows = []
    for L in np.linspace(stroke.L_start, stroke.L_end, count).tolist():
        state = state_at(stroke, L)
        rows.append((
            L,
            wall_force(state, L, stroke.params),
            expectation_energy(state, L, stroke.params),
            entropy(state),
            state.populations,
        ))
    return rows


def assert_rows_bitwise(stroke, count):
    table = sample_stroke(stroke, count, stroke_index=3)
    assert isinstance(table, SampleTable) and len(table) == count
    for row, expected in zip(table, per_row_samples(stroke, count), strict=True):
        assert (row.stroke_index, row.stroke_kind) == (3, stroke.kind.value)
        assert (row.L, row.force, row.energy, row.entropy, row.populations) == expected


class TestSampleTableBitwise:
    def test_random_isotherms(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            params = random_params(rng)
            base = rng.uniform(0.3, 3.0)
            a, b = rng.uniform(base, 7.0 * base, size=2)
            stroke = isothermal_stroke(eigenenergy(1, base, params), a, b, base, params)
            assert_rows_bitwise(stroke, int(rng.integers(2, 400)))

    def test_random_adiabats_over_one_to_six_levels(self):
        rng = np.random.default_rng(32)
        for support in [1, 2, 3, 4, 5, 6] * 6:
            levels = np.sort(rng.choice(np.arange(1, 13), size=support, replace=False))
            weights = rng.random(support) + 0.01
            state = MixedState(levels, weights / weights.sum())
            a, b = rng.uniform(0.3, 5.0, size=2)
            stroke = adiabatic_stroke(state, a, b, random_params(rng))
            assert_rows_bitwise(stroke, int(rng.integers(2, 400)))

    @pytest.mark.parametrize("L_from, L_to", [(0.5, 3.0), (3.0, 0.5)])
    def test_exact_multiples_of_base_are_pure(self, L_from, L_to, tmp_path):
        # Steps of base/2 from base = 0.5 hit every multiple k*base exactly.
        stroke = isothermal_stroke(eigenenergy(1, 0.5), L_from, L_to, 0.5)
        assert_rows_bitwise(stroke, 11)
        table = sample_stroke(stroke, 11)
        write_samples_csv(tmp_path / "s.csv", table)
        lines = (tmp_path / "s.csv").read_text().splitlines()[1:]
        for row, line in zip(table, lines, strict=True):
            k, fraction = divmod(row.L, 0.5)
            if fraction == 0.0:
                assert row.populations == ((int(k), 1.0),)
                assert line.split(",")[-1] == f"{int(k)}:1"
            else:
                assert len(row.populations) == 2
