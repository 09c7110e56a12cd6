import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcarnot import (
    DomainError,
    IsothermRangeError,
    MixedState,
    SampleTable,
    ScaleError,
    Stroke,
    StrokeKind,
    WellParams,
    adiabatic_stroke,
    eigenenergy,
    entropy,
    expectation_energy,
    isothermal_state_at,
    isothermal_stroke,
    quadrature,
    sample_stroke,
    stroke_work,
    stroke_work_quadrature,
    wall_force,
)
from qcarnot.cli import write_samples_csv
from qcarnot.cycle import MAX_TOP_LEVEL, CarnotSpec, build_carnot_cycle
from qcarnot.processes import MAX_SAMPLES_PER_STROKE, _staircase
from oracles import (
    checked_twice_energy,
    masked_work_integrand,
    staircase_force,
    staircase_twice_energy,
)
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


@st.composite
def work_strokes(draw):
    """A valid stroke of either kind with its own well, from a zero-length
    one to a width ratio of ``MAX_TOP_LEVEL``, ends on the isotherm window's
    lower edge ``(1 - 1e-12) * base`` included."""
    hbar, mass = (10.0 ** draw(st.floats(-1.0, 1.0)) for _ in range(2))
    params = WellParams(hbar, mass)
    top_level = draw(st.one_of(st.integers(2, 64), st.integers(2, MAX_TOP_LEVEL),
                               st.just(MAX_TOP_LEVEL)))
    base = draw(st.floats(0.25, 4.0))
    edge = base * (1.0 - 1e-12)
    while edge / base < 1.0 - 1e-12:
        edge = math.nextafter(edge, math.inf)
    top = top_level * base
    ends = st.one_of(st.sampled_from([edge, base, top]), st.floats(edge, top))
    L_from = draw(ends)
    L_to = L_from if draw(st.integers(0, 4)) == 0 else draw(ends)
    if draw(st.booleans()):
        return isothermal_stroke(eigenenergy(1, base, params), L_from, L_to, base, params)
    state = draw(st.one_of(st.just(MixedState.pure(top_level)), mixed_states()))
    return adiabatic_stroke(state, L_from, L_to, params)


@st.composite
def failing_strokes(draw):
    """An adiabat that ``adiabatic_stroke`` accepts but whose work cannot be
    integrated: its force ``2 E / L`` over- or underflows at some widths."""
    scale = draw(st.sampled_from([1e-110, 1e110]))
    L_from, L_to = (scale * draw(st.floats(0.5, 8.0)) for _ in range(2))
    return adiabatic_stroke(draw(mixed_states()), L_from, L_to)


def pieces(stroke):
    """The pieces of ``stroke`` in ``stroke_work_quadrature``: ``max(16,
    ceil(|ln(L_end / L_start)|))``, whatever its kind."""
    return max(16, math.ceil(abs(math.log(stroke.L_end / stroke.L_start))))


def key_owner(strokes):
    """The stroke of each key of ``stroke_work_quadrature(strokes)``, one
    key per piece."""
    return np.repeat(np.arange(len(strokes)), [pieces(s) for s in strokes])


def integrand_calls(strokes, sizes=None):
    """``stroke_work_quadrature(strokes)`` and the ``(a, b)`` of its
    one ``quadrature.integrate`` call with the count of integrand calls;
    ``sizes`` collects the size of each integrand input."""
    integrate = quadrature.integrate
    seen = []

    def spy(f, a, b, **kwargs):
        calls = [0]

        def counted(key_u):
            calls[0] += 1
            if sizes is not None:
                sizes.append(key_u[1].size)
            return f(key_u)

        seen.append((a, b, calls))
        return integrate(counted, a, b, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "integrate", spy)
        works = stroke_work_quadrature(strokes)
    (a, b, calls), = seen
    return works, a, b, calls[0]


def stroke_scale(stroke):
    """The largest mean energy along ``stroke``: the closed-form work of an
    adiabat is a difference of two energies and rounds on this scale."""
    if stroke.kind is StrokeKind.ISOTHERMAL:
        return stroke.conserved
    L = stroke.L_start
    return expectation_energy(stroke.state_start, L, stroke.params) * L * L / min(L, stroke.L_end) ** 2


@st.composite
def carnot_cycles(draw):
    """A cycle with ``top_level`` log-uniform up to ``MAX_TOP_LEVEL``, ``L1``
    in ``10^U(-3, 3)``, ``L3 / (top_level L1)`` in ``e^U(0, 64)`` or
    ``e^U(0, 400)``, and ``hbar`` and ``mass`` in ``10^U(-20, 20)``, within
    the energy-scale limits.  Those limits, not the draw, cap the spans of
    the adiabats: about 260 at most for these ranges."""
    top_level = int(min(2.0 ** draw(st.floats(1.0, 63.0)), MAX_TOP_LEVEL))
    L1 = 10.0 ** draw(st.floats(-3.0, 3.0))
    L3 = top_level * L1 * math.exp(draw(st.one_of(st.floats(0.0, 64.0), st.floats(0.0, 400.0))))
    hbar, mass = (10.0 ** draw(st.floats(-20.0, 20.0)) for _ in range(2))
    try:
        return build_carnot_cycle(CarnotSpec(top_level, L1, L3, WellParams(hbar, mass)))
    except ScaleError:
        assume(False)


def seeded_sweep(seed):
    """``(top_level, L1, l3_from, l3_to, steps)`` of a sweep: ``top_level``
    log-uniform up to ``MAX_TOP_LEVEL``, ``L1`` in ``10^U(-95, 0)``, the ends
    at ``top_level L1 e^U(0, 200)`` in either order, 2 to 64 steps."""
    rng = np.random.default_rng(seed)
    top_level = int(min(2.0 ** rng.uniform(1.0, 63.0), MAX_TOP_LEVEL))
    L1 = 10.0 ** rng.uniform(-95.0, 0.0)
    l3_from, l3_to = (top_level * L1 * math.exp(rng.uniform(0.0, 200.0)) for _ in range(2))
    return top_level, L1, l3_from, l3_to, int(rng.integers(2, 65))


def work_outcome(strokes, integrand=None, calls=None):
    """``stroke_work_quadrature(strokes)`` as its bytes, or the type and text
    of its error.  ``integrand(strokes)`` replaces the integrand if given;
    ``calls`` collects each integrand input and output."""
    integrate = quadrature.integrate

    def spy(f, a, b, **kwargs):
        g = f if integrand is None else integrand(strokes)

        def recorded(key_u):
            values = g(key_u)
            if calls is not None:
                calls.append((key_u, values))
            return values

        return integrate(recorded, a, b, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "integrate", spy)
        try:
            return np.array(stroke_work_quadrature(strokes)).tobytes()
        except Exception as exc:
            return type(exc), str(exc)


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
            isothermal_state_at(e_fixed, 1.5, 1.0)

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


def exact_upper_weight(ratio):
    """The staircase's upper weight ``(r^2 - k^2) / (2k + 1)``, ``k = floor(r)``,
    at the binary64 width ratio ``r`` (taken as 1 below 1), in 50-digit ``mpmath``."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        r = max(mpmath.mpf(ratio), 1)
        k = mpmath.floor(r)
        return (r * r - k * k) / (2 * k + 1)


class TestStaircaseWeights:
    """The upper weight at levels from 1 to 2**62, against :func:`exact_upper_weight`.
    ``(r - k)(r + k) / (2k + 1)`` rounds three times, each by at most u
    relative, on a weight below 1, and ``r - k`` is exact by Sterbenz's lemma;
    so the weights, and ``1 - w``, lie within 3 ulps of 1 of the exact values.
    ``(r^2 - k^2) / (2k + 1)`` cancels: 3.7e-13 off at ``k`` = 1e4, 5.0e-9 at 1e8.
    Past ``k`` = 2**52 every ratio in ``[k, k + 1)`` is ``k`` itself."""

    TOL = 3 * 2.0 ** -52
    LEVELS = [1, 2, 3, 10, 10 ** 4, 10 ** 6, 10 ** 8, 10 ** 10, 10 ** 12, 10 ** 15, 2 ** 52, 2 ** 62]

    @pytest.mark.parametrize("k", LEVELS)
    def test_staircase_against_mpmath(self, k):
        rng = np.random.default_rng(k % 2 ** 32)
        ratios = np.concatenate([[k, math.nextafter(k + 1.0, 0.0)], k + rng.random(500)])
        levels, weights = _staircase(ratios)
        for ratio, level, w in zip(ratios.tolist(), levels.tolist(), weights.tolist()):
            assert level == math.floor(ratio)
            assert abs(w - exact_upper_weight(ratio)) <= self.TOL, ratio

    @pytest.mark.parametrize("k", LEVELS)
    def test_samples_and_states_against_mpmath(self, k):
        base = 0.7
        e_fixed = eigenenergy(1, base)
        table = sample_stroke(isothermal_stroke(e_fixed, k * base, (k + 1) * base, base), 100)
        for row in table:
            exact = exact_upper_weight(row.L / base)
            weights = dict(row.populations)
            assert weights == dict(isothermal_state_at(e_fixed, row.L, base).populations)
            level = math.floor(max(row.L / base, 1.0))
            assert abs(weights[level] - (1 - exact)) <= self.TOL, row
            assert abs(weights.get(level + 1, 0.0) - exact) <= self.TOL, row


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
                expectation_energy(s, a) * a ** 2, rel=1e-12
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
        # The window's lower edge is the ratio 1 - 1e-12, which absorbs
        # rounding; the message states it, and the largest width below it
        # is rejected too.
        e, base = eigenenergy(1, 0.5), 0.5
        edge, beyond = (2.0 ** 63 - 1024) * base, 2.0 ** 63 * base
        below = base * (1.0 - 1e-12)
        while below / base >= 1.0 - 1e-12:
            below = math.nextafter(below, 0.0)
        assert isothermal_state_at(e, math.nextafter(below, 1.0), base).populations == ((1, 1.0),)
        stroke = isothermal_stroke(e, base, edge, base)
        assert sample_stroke(stroke, 3).levels[-1].tolist() == [2 ** 63 - 1024, 0]
        assert stroke.force_at(edge) > 0.0
        for call in (
            lambda: isothermal_stroke(e, base, beyond, base),
            lambda: isothermal_stroke(eigenenergy(1, 1.0), 1.0, 1e20, 1.0),
            lambda: stroke.force_at(beyond),
            lambda: stroke.force_at(np.array([edge, beyond])),
            lambda: dataclasses.replace(stroke, L_end=beyond),
            lambda: isothermal_state_at(e, beyond, base),
            lambda: isothermal_state_at(e, below, base),
        ):
            with pytest.raises(IsothermRangeError, match="validity window"):
                call()
        with pytest.raises(IsothermRangeError) as caught:
            isothermal_stroke(e, base, below, base)
        assert str(caught.value) == (f"width {below!r} lies outside the isotherm validity window "
                                     "[(1 - 1e-12) * 0.5, 2**63 * 0.5)")


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

    @pytest.mark.parametrize("stroke", STROKES, ids=lambda s: s.kind.value)
    def test_shape_follows_the_widths(self, stroke):
        lo, hi = sorted((stroke.L_start, stroke.L_end))
        grid = np.linspace(lo, hi, 6).reshape(2, 3)
        forces = stroke.force_at(grid)
        assert forces.shape == (2, 3)
        assert forces.tolist() == [stroke.force_at(row).tolist() for row in grid]
        empty = stroke.force_at(np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)

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
        assert stroke_work_quadrature(stroke) == pytest.approx(
            math.pi ** 2 * math.log(2), rel=1e-10
        )

    def test_quadrature_matches_adiabatic(self):
        stroke = adiabatic_stroke(MixedState.pure(1), 1.0, 2.0)
        assert stroke_work_quadrature(stroke) == pytest.approx(
            3 * math.pi ** 2 / 8, rel=1e-10
        )

    def test_closed_form_vs_quadrature_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            stroke = random_stroke(rng)
            w = stroke_work(stroke)
            q = stroke_work_quadrature(stroke)
            assert q == pytest.approx(w, rel=1e-9, abs=1e-12)

    def test_sequence_of_strokes_matches_one_at_a_time(self):
        # Every stroke's panels are keys of their own, laid out from its span
        # alone, so one call for all of them gives each stroke's work bit for bit.
        rng = np.random.default_rng(5)
        strokes = [random_stroke(rng) for _ in range(6)]
        strokes.insert(2, isothermal_stroke(E_GROUND, 1.5, 1.5, 1.0))
        works = stroke_work_quadrature(strokes)
        assert works == [stroke_work_quadrature(s) for s in strokes]
        assert all(type(w) is float for w in works) and works[2] == 0.0

    def test_integrand_probes_every_stroke_at_129_widths(self, monkeypatch):
        # The first call of the integrand that quadrature.integrate receives
        # probes each stroke at the widths L_start * e^u of its keys'
        # abscissae: 16 pieces of 9 nodes, neighbours sharing an edge.
        strokes = [isothermal_stroke(E_GROUND, 1.0, 6.0, 1.0),
                   adiabatic_stroke(MixedState.pure(1), 1.0, 1.0 + 1e-9)]
        widths = []
        integrate = quadrature.integrate

        def spy(f, a, b, **kwargs):
            def probed(key_u):
                key, u = key_u
                owner = key_owner(strokes)[key]
                for i, stroke in enumerate(strokes):
                    mine = owner == i
                    widths.append(np.unique(stroke.L_start * np.exp(u[mine])).size)
                return f(key_u)
            return integrate(probed, a, b, **kwargs)

        monkeypatch.setattr(quadrature, "integrate", spy)
        stroke_work_quadrature(strokes)
        assert widths[:2] == [129, 129]

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


class TestPieces:
    @pytest.mark.parametrize("ratio, n", [
        (1.0, 16), (math.exp(0.5), 16), (math.e, 16), (math.exp(1.0 + 1e-9), 16), (1e3, 16),
        (math.exp(16.0), 16), (math.exp(16.5), 17), (math.exp(-20.5), 21), (math.exp(64.0), 64),
        (math.exp(64.5), 65), (math.exp(-200.0), 200), (math.exp(230.0), 230),
    ])
    def test_an_adiabat_takes_max_16_ceil_span_equal_pieces(self, ratio, n):
        # No piece wider than 1, and the edges are span * (i / n); a
        # zero-length stroke calls no integrand.
        stroke = adiabatic_stroke(MixedState.pure(3), 2.0, 2.0 * ratio)
        _, a, b, calls = integrand_calls([stroke])
        span = math.log(stroke.L_end / stroke.L_start)
        edges = span * (np.arange(n + 1) / n)
        assert (a.size, calls) == (n, int(span != 0.0))
        assert a.tobytes() == edges[:-1].tobytes() and b.tobytes() == edges[1:].tobytes()
        assert (np.abs(b - a) <= 1.0 + 1e-13).all()

    @pytest.mark.parametrize("L_to, n", [(1.0, 16), (6.0, 16), (1e7, 17), (1e18, 42)])
    def test_an_isotherm_takes_the_same_pieces(self, L_to, n):
        stroke = isothermal_stroke(E_GROUND, 1.0, L_to, 1.0)
        _, a, b, calls = integrand_calls([stroke])
        span = math.log(L_to)
        edges = span * (np.arange(n + 1) / n)
        assert (a.size, calls) == (n, int(span != 0.0))
        assert a.tobytes() == edges[:-1].tobytes() and b.tobytes() == edges[1:].tobytes()

    def test_no_strokes_give_no_works(self):
        assert stroke_work_quadrature([]) == [] and stroke_work_quadrature(()) == []

    @settings(max_examples=60, deadline=None)
    @given(carnot_cycles())
    def test_a_cycle_takes_one_integrand_call(self, cycle):
        works, a, _, calls = integrand_calls(cycle.strokes)
        assert calls == 1 and a.size == sum(pieces(s) for s in cycle.strokes)
        for stroke, work in zip(cycle.strokes, works):
            assert work == pytest.approx(stroke_work(stroke), rel=1e-10, abs=1e-14 * stroke_scale(stroke))

    @pytest.mark.parametrize("level, L_from, L_to", [
        (3, 1.0, math.exp(1e-9)),
        (3, 1.0, math.e),
        (3, 1.0, math.exp(8.0)),
        (7, 5.0, 5.0 * math.exp(-64.0)),
        (2, 1.0, math.exp(64.5)),
        (5, 3.0, 3.0 * math.exp(100.0)),
        (2, 2e-95, 1e95),
        (2, 1e95, 2e-95),
    ])
    def test_adiabats_take_one_call_and_match_the_closed_form(self, level, L_from, L_to):
        stroke = adiabatic_stroke(MixedState.pure(level), L_from, L_to)
        sizes = []
        (work,), a, _, calls = integrand_calls([stroke], sizes)
        assert a.size == pieces(stroke) and calls == 1 and sizes == [9 * a.size]
        assert work == pytest.approx(stroke_work(stroke), rel=1e-13, abs=1e-14 * stroke_scale(stroke))

    def test_strokes_past_one_chunk_take_one_call_per_chunk(self):
        # 40 strokes of 437 pieces each, past the 2**14 pieces of one call;
        # every stroke keeps the bits of its work alone.
        stroke = adiabatic_stroke(MixedState.pure(2), 2e-95, 1e95)
        sizes = []
        works, a, _, calls = integrand_calls([stroke] * 40, sizes)
        assert a.size == 40 * 437 and calls == 2
        assert sizes == [9 * quadrature._CHUNK, 9 * (a.size - quadrature._CHUNK)]
        assert works == [stroke_work_quadrature(stroke)] * 40

    @pytest.mark.parametrize("top_level, L1, l3_from, l3_to, steps", [
        (2, 1.0, 2.0, 8.0, 40),
        (MAX_TOP_LEVEL, 1.0, float(MAX_TOP_LEVEL), 1e95, 40),
        (30, 1e-95, 1e95, 3e-94, 33),
        (7, 3.0, 300.0, 21.0, 256),
    ] + [pytest.param(*seeded_sweep(seed), id=f"seed{seed}") for seed in range(8)])
    def test_a_sweep_chunk_in_one_call_matches_its_cycles_bit_for_bit(self, top_level, L1, l3_from,
                                                                      l3_to, steps):
        # qcarnot sweep integrates stroke 1 of a chunk's first step and
        # strokes 2-4 of every step in one call; each stroke's pieces are
        # laid out from its span alone, so each work keeps its bits.
        cycles = [build_carnot_cycle(CarnotSpec(top_level, L1, L3))
                  for L3 in np.linspace(l3_from, l3_to, steps).tolist()]
        hot = cycles[0].strokes[0]
        assert all(cycle.strokes[0] == hot for cycle in cycles)
        first, *rest = stroke_work_quadrature([hot] + [s for cycle in cycles for s in cycle.strokes[1:]])
        chunked = [[first, *rest[3 * j:3 * j + 3]] for j in range(steps)]
        alone = [stroke_work_quadrature(cycle.strokes) for cycle in cycles]
        assert np.array(chunked).tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("span", [0.01, 0.5, 1.0, 1.0 - 1e-9, 1.0 + 1e-9, 3.0, 8.0,
                                      64.0, -64.0, 100.0, 200.0, -200.0])
    @pytest.mark.parametrize("level", [1, 3])
    def test_adiabats_match_mpmath(self, span, level):
        # The exact work between the binary64 ends, in 40-digit mpmath.  The
        # start is a power of two, so the width ratio that sets the span is
        # exact.  The rule's remainder is below 1e-17; what is left is
        # rounding, up to 9.5e-16 for |span| <= 100.  At span -200 it reaches
        # 2.6e-15: the abscissae u near -200 round by up to 1.4e-14, which
        # moves e^(-2u) at a node by up to 2.8e-14.
        mpmath = pytest.importorskip("mpmath")
        stroke = adiabatic_stroke(MixedState.pure(level), 2.0, 2.0 * math.exp(span))
        work = stroke_work_quadrature(stroke)
        with mpmath.workdps(40):
            c = (mpmath.pi * level) ** 2 / 2
            exact = c * (1 / mpmath.mpf(stroke.L_start) ** 2 - 1 / mpmath.mpf(stroke.L_end) ** 2)
            assert abs(work - exact) <= 1e-14 * abs(exact)


class TestStrokeTable:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(work_strokes(), min_size=1, max_size=5))
    def test_integrand_and_works_match_masked_oracle_bit_for_bit(self, strokes):
        calls = []
        works = work_outcome(strokes, calls=calls)
        oracle = masked_work_integrand(strokes, staircase_twice_energy, key_owner(strokes))
        assert works == work_outcome(strokes, lambda s: oracle)
        assert isinstance(works, bytes)
        for key_u, values in calls:
            assert values.tobytes() == oracle(key_u).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(work_strokes(), st.data())
    def test_force_at_matches_unchecked_staircase_force_bit_for_bit(self, stroke, data):
        lo, hi = sorted((stroke.L_start, stroke.L_end))
        widths = np.array(data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=8)))
        assert stroke.force_at(widths).tobytes() == staircase_force(stroke, widths).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(work_strokes(), failing_strokes()), min_size=1, max_size=5))
    def test_errors_name_the_first_failing_stroke_as_the_masked_oracle(self, strokes):
        assert work_outcome(strokes) == work_outcome(
            strokes, lambda s: masked_work_integrand(s, checked_twice_energy, key_owner(s))
        )

    def test_the_first_of_two_strokes_out_of_scale_is_reported(self):
        # 2 E / L underflows to 0 on the wide adiabat and overflows on the narrow one.
        wide = adiabatic_stroke(MixedState.pure(1), 1e110, 2e110)
        narrow = adiabatic_stroke(MixedState.pure(1), 1e-110, 2e-110)
        text = "wall force over- or underflows binary64 on the stroke from width "
        for strokes, start in [((wide, narrow), "1e+110"), ((narrow, wide), "1e-110")]:
            with pytest.raises(ScaleError) as caught:
                stroke_work_quadrature(strokes)
            assert str(caught.value) == text + start

    def test_sample_stroke_and_the_integrand_share_one_scale_check(self):
        stroke = adiabatic_stroke(MixedState.pure(1), 1e-110, 1e-100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: sample_stroke(stroke, 3), lambda: stroke_work_quadrature(stroke),
                         lambda: stroke.force_at(1e-110)):
                with pytest.raises(ScaleError) as caught:
                    call()
                assert str(caught.value) == (
                    "wall force over- or underflows binary64 on the stroke from width 1e-110"
                )

    @settings(max_examples=40, deadline=None)
    @given(base=st.floats(0.25, 4.0), start=st.floats(1.0, 6.0), end=st.floats(0.3, 0.99))
    def test_an_isotherm_end_below_the_window_is_rejected_when_built(self, base, start, end):
        stroke = isothermal_stroke(eigenenergy(1, base), base * start, base, base)
        with pytest.raises(IsothermRangeError, match="validity window"):
            dataclasses.replace(stroke, L_end=base * end)
        # The message names the end that leaves the window.
        with pytest.raises(IsothermRangeError) as caught:
            dataclasses.replace(stroke, L_start=base * end)
        assert str(caught.value).startswith(f"width {base * end!r} lies outside")

    def test_isotherms_onto_the_window_edge_integrate(self):
        # The last probe L_start * exp(ln(L_end / L_start)) can round below
        # an end on the window's lower edge; no probe is checked against the
        # window, so the work matches the closed form.
        rng = np.random.default_rng(2024)
        strokes = []
        for _ in range(500):
            base = rng.uniform(0.25, 4.0)
            edge = base * (1.0 - 1e-12)
            while edge / base < 1.0 - 1e-12:
                edge = math.nextafter(edge, math.inf)
            while math.nextafter(edge, 0.0) / base >= 1.0 - 1e-12:
                edge = math.nextafter(edge, 0.0)
            strokes.append(isothermal_stroke(eigenenergy(1, base), base * rng.uniform(1.5, 50.0),
                                             edge, base))
        for stroke, work in zip(strokes, stroke_work_quadrature(strokes), strict=True):
            assert work == pytest.approx(stroke_work(stroke), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("change, text", [
        ({"conserved": 5.0}, "fixed energy 5.0 does not match the ground-state energy "
                             "4.934802200544679 at base width 1.0"),
        ({"base_scale": None}, "base_scale must be positive and finite, got None"),
    ])
    def test_isotherm_errors_keep_their_type_and_text(self, change, text):
        stroke = isothermal_stroke(E_GROUND, 1.0, 2.0, 1.0)
        with pytest.raises(DomainError) as caught:
            dataclasses.replace(stroke, **change)
        assert type(caught.value) is DomainError and str(caught.value) == text

    @pytest.mark.parametrize("widths, text", [
        ({"L_start": -1.0}, "L_start must be positive and finite, got -1.0"),
        ({"L_start": 0.0}, "L_start must be positive and finite, got 0.0"),
        ({"L_end": math.inf}, "L_end must be positive and finite, got inf"),
        ({"L_end": math.nan}, "L_end must be positive and finite, got nan"),
    ])
    def test_hand_built_stroke_with_a_bad_width_raises_domain_error(self, widths, text):
        state = MixedState.pure(1)
        ends = {"L_start": 1.0, "L_end": 2.0, **widths}
        with pytest.raises(DomainError) as caught:
            Stroke(kind=StrokeKind.ADIABATIC, state_start=state,
                   conserved=expectation_energy(state, 1.0), params=WellParams(), **ends)
        assert str(caught.value) == text

    @pytest.mark.parametrize("change, field", [
        ({"state_start": None}, "state_start"),
        ({"state_start": "x"}, "state_start"),
        ({"kind": "isothermal"}, "kind"),
        ({"params": None}, "params"),
    ])
    def test_hand_built_stroke_with_a_bad_field_raises_domain_error(self, change, field):
        state = MixedState.pure(1)
        fields = dict(kind=StrokeKind.ADIABATIC, L_start=1.0, L_end=2.0, state_start=state,
                      conserved=expectation_energy(state, 1.0), params=WellParams())
        with pytest.raises(DomainError, match=f"^{field} must be a "):
            Stroke(**{**fields, **change})

    def test_adiabat_past_the_energy_scale_builds_and_its_work_raises(self):
        stroke = adiabatic_stroke(MixedState.pure(1), 1e-170, 2.0)
        assert stroke.conserved is None
        with pytest.raises(ScaleError) as caught:
            stroke_work(stroke)
        assert str(caught.value) == "mean energy at width 1e-170 over- or underflows binary64"
        for call in (lambda: stroke_work_quadrature(stroke), lambda: sample_stroke(stroke, 3)):
            with pytest.raises(ScaleError) as caught:
                call()
            assert str(caught.value) == (
                "wall force over- or underflows binary64 on the stroke from width 1e-170"
            )

    def test_an_adiabat_reads_no_conserved(self):
        stroke = adiabatic_stroke(MixedState.from_pairs({1: 0.25, 3: 0.75}), 1.7, 3.1)
        contradicting = dataclasses.replace(stroke, conserved=123.0)
        assert stroke_work(contradicting) == stroke_work(stroke)
        assert stroke_work_quadrature(contradicting) == stroke_work_quadrature(stroke)
        assert sample_stroke(contradicting, 5).force.tolist() == sample_stroke(stroke, 5).force.tolist()

    @pytest.mark.parametrize("build, field", [
        (lambda: adiabatic_stroke(None, 1, 2), "state_start"),
        (lambda: adiabatic_stroke("x", 1, 2), "state_start"),
        (lambda: adiabatic_stroke(MixedState.pure(1), 1, 2, None), "params"),
        (lambda: isothermal_state_at(E_GROUND, 1.5, 1.0, None), "params"),
    ], ids=["adiabat-state-None", "adiabat-state-str", "adiabat-params-None", "isotherm-params-None"])
    def test_builders_check_types_before_any_energy(self, build, field):
        with pytest.raises(DomainError, match=f"^{field} must be a "):
            build()


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

    @pytest.mark.parametrize("stroke_index", ["x", 2 ** 70, 0, True, 1.5, None])
    def test_stroke_index_rejections(self, stroke_index):
        stroke = isothermal_stroke(E_GROUND, 1.0, 2.0, 1.0)
        with pytest.raises(DomainError, match=r"^stroke_index must be an integer in \[1, 2\*\*63 - 1\]"):
            sample_stroke(stroke, 3, stroke_index)

    def test_stroke_index_is_stored_as_an_int(self):
        stroke = isothermal_stroke(E_GROUND, 1.0, 2.0, 1.0)
        for index in (2.0, np.int8(2), 2):
            table = sample_stroke(stroke, 3, index)
            assert table.stroke_index.dtype == np.int64 and table[0].stroke_index == 2


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


def exact_energy_and_force(state, L, params):
    """``E = (pi hbar)^2 s / (2 m L^2)`` and ``(pi hbar)^2 s / (m L^3)``, with
    ``s = sum(w_n n^2)`` of the binary64 inputs, in 50-digit ``mpmath``."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        s = mpmath.fsum(mpmath.mpf(w) * n * n for n, w in state.populations)
        c = (mpmath.pi * params.hbar) ** 2
        L, mass = mpmath.mpf(L), mpmath.mpf(params.mass)
        return c * s / (2 * mass * L * L), c * s / (mass * L ** 3)


def ulps_off(value, exact):
    return float(abs(value - exact) / math.ulp(float(exact)))


class TestForceAccuracy:
    """Every force is ``2 E / L`` from the mean energy: within 5 ulps of the
    exact ``(pi hbar)^2 s / (m L^3)`` of its state, as the energy is of ``E``."""

    def test_forces_and_energies_against_mpmath(self):
        rng = np.random.default_rng(2000)
        worst = {"wall_force": 0.0, "force_at": 0.0, "force": 0.0, "energy": 0.0}
        for trial in range(60):
            params = random_params(rng)
            if trial % 2:
                support = int(rng.integers(1, 7))
                levels = np.sort(rng.choice(np.arange(1, 40), size=support, replace=False))
                weights = rng.random(support) + 0.01
                stroke = adiabatic_stroke(MixedState(levels, weights / weights.sum()),
                                          *rng.uniform(0.2, 5.0, size=2), params)
            else:
                base = rng.uniform(0.3, 3.0)
                stroke = isothermal_stroke(eigenenergy(1, base, params),
                                           *rng.uniform(base, 9.0 * base, size=2), base, params)
            for row in sample_stroke(stroke, 50):
                state = state_at(stroke, row.L)
                energy, force = exact_energy_and_force(state, row.L, params)
                for name, value, exact in [
                    ("wall_force", wall_force(state, row.L, params), force),
                    ("force_at", stroke.force_at(row.L), force),
                    ("force", row.force, force),
                    ("energy", row.energy, energy),
                ]:
                    worst[name] = max(worst[name], ulps_off(value, exact))
        assert max(worst.values()) <= 5.0, worst
