import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from qcarnot import (
    DomainError,
    MixedState,
    StateError,
    WellParams,
    eigenenergy,
    eigenfunction_value,
    entropy,
    expectation_energy,
    wall_force,
)
from qcarnot.boxmodel import _check_int, _check_real
from strategies import mixed_states, widths

INF = math.inf


class TestCheckers:
    """The two type-and-range checkers behind every public entry point."""

    @pytest.mark.parametrize("value, lo, hi, expected", [
        # Rejected: not an integer, or outside the closed range.
        (True, 1, 10, None), (np.bool_(True), 1, 10, None), ("2", 1, 10, None),
        (None, 1, 10, None), (math.nan, 1, 10, None), (INF, 1, 10, None), (-INF, 1, 10, None),
        (2.5, 1, 10, None), (np.float32(2.5), 1, 10, None), (0, 1, 10, None), (11, 1, 10, None),
        (1, 2, 2 ** 20, None), (2 ** 20 + 1, 2, 2 ** 20, None), (2 ** 63, 1, 2 ** 63 - 1, None),
        (np.float64(2.0 ** 63), 1, 2 ** 63 - 1, None), (10 ** 400, 1, 2 ** 63 - 1, None),
        # Accepted: Python and numpy integers and integral floats, lo and hi.
        (1, 1, 10, 1), (10, 1, 10, 10), (np.int64(10), 1, 10, 10), (np.uint8(2), 2, 2 ** 20, 2),
        (4.0, 1, 10, 4), (np.float32(4.0), 1, 10, 4), (2 ** 20, 2, 2 ** 20, 2 ** 20),
        (np.int64(2 ** 63 - 1), 1, 2 ** 63 - 1, 2 ** 63 - 1),
    ])
    def test_check_int(self, value, lo, hi, expected):
        if expected is None:
            with pytest.raises(DomainError, match=r"^k must be an integer in \["):
                _check_int(value, "k", lo, hi)
        else:
            result = _check_int(value, "k", lo, hi)
            assert type(result) is int and result == expected

    @pytest.mark.parametrize("value, lo, hi, expected", [
        # Rejected: not a finite real, or outside (lo, hi]; expected is the rule.
        (True, 0.0, INF, "be positive and finite"), (np.bool_(True), 0.0, INF, "be positive"),
        ("1.0", 0.0, INF, "be positive"), (None, 0.0, INF, "be positive"),
        (math.nan, 0.0, INF, "be positive"), (np.float32("nan"), 0.0, INF, "be positive"),
        (INF, 0.0, INF, "be positive"), (-INF, 0.0, INF, "be positive"),
        (10 ** 400, 0.0, INF, "be positive"), (0.0, 0.0, INF, "be positive"),
        (-1.0, 0.0, 1e-4, r"lie in \(0, 0.0001\]"), (1.0001, 0.0, 1e-4, r"lie in \(0, 0.0001\]"),
        (0.0, 0.0, 1e-4, r"lie in \(0, 0.0001\]"), ("0.5", -INF, INF, "be finite"),
        (INF, -INF, INF, "be finite"), (True, -INF, INF, "be finite"),
        # Accepted: Python and numpy reals above lo, up to and including hi.
        (1e-4, 0.0, 1e-4, 1e-4), (5e-324, 0.0, INF, 5e-324), (np.float32(0.5), 0.0, INF, 0.5),
        (np.int64(3), 0.0, INF, 3.0), (np.float64(1e-4), 0.0, 1e-4, 1e-4), (2, 0.0, INF, 2.0),
        (-1e308, -INF, INF, -1e308), (0.0, -INF, INF, 0.0),
    ])
    def test_check_real(self, value, lo, hi, expected):
        if isinstance(expected, str):
            with pytest.raises(DomainError, match=rf"^v must {expected}"):
                _check_real(value, "v", lo, hi)
        else:
            result = _check_real(value, "v", lo, hi)
            assert type(result) is float and result == expected


class TestEigenenergy:
    def test_ground_state_unit_box(self):
        assert eigenenergy(1, 1.0) == pytest.approx(math.pi ** 2 / 2, rel=1e-15)

    def test_n_over_l_scaling_symmetry(self):
        assert eigenenergy(2, 2.0) == pytest.approx(eigenenergy(1, 1.0), rel=1e-15)

    def test_third_level(self):
        assert eigenenergy(3, 1.0) == pytest.approx(9 * math.pi ** 2 / 2, rel=1e-15)

    def test_units_enter_quadratically_in_hbar(self):
        p = WellParams(hbar=2.0, mass=1.0)
        assert eigenenergy(1, 1.0, p) == pytest.approx(4 * eigenenergy(1, 1.0), rel=1e-15)

    def test_monotone_in_n_and_decreasing_in_l(self):
        assert eigenenergy(4, 1.0) > eigenenergy(3, 1.0)
        assert eigenenergy(1, 2.0) < eigenenergy(1, 1.0)

    @pytest.mark.parametrize("n,L", [(0, 1.0), (-1, 1.0), (1, 0.0), (1, -2.0), (1.5, 1.0)])
    def test_domain_errors(self, n, L):
        with pytest.raises(DomainError):
            eigenenergy(n, L)

    @pytest.mark.parametrize("n,L", [(1, True), (1, "2"), (True, 1.0), ("1", 1.0), (1, None)])
    def test_rejects_bad_types(self, n, L):
        with pytest.raises(DomainError):
            eigenenergy(n, L)

    def test_accepts_numpy_scalars(self):
        assert eigenenergy(np.int64(2), np.float64(2.0)) == eigenenergy(2, 2.0)
        assert eigenenergy(2, np.float32(0.5)) == eigenenergy(2, 0.5)

    @given(n=st.integers(1, 20), L=widths(), lam=st.floats(0.1, 10.0))
    def test_width_scaling(self, n, L, lam):
        assert eigenenergy(n, lam * L) == pytest.approx(eigenenergy(n, L) / lam ** 2, rel=1e-12)


class TestEigenfunction:
    def test_vanishes_at_walls(self):
        assert eigenfunction_value(1, 1.0, 0.0) == 0.0
        assert abs(eigenfunction_value(1, 1.0, 1.0)) < 1e-15

    def test_peak_of_ground_mode(self):
        assert eigenfunction_value(1, 1.0, 0.5) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_node_of_second_mode(self):
        assert abs(eigenfunction_value(2, 1.0, 0.5)) < 1e-15

    @pytest.mark.parametrize("x", ["0.5", True, None])
    def test_rejects_bad_position_types(self, x):
        with pytest.raises(DomainError, match="x must be finite"):
            eigenfunction_value(1, 1.0, x)

    def test_outside_box_rejected(self):
        with pytest.raises(DomainError):
            eigenfunction_value(1, 1.0, 1.5)
        with pytest.raises(DomainError):
            eigenfunction_value(1, 1.0, -0.1)

    @given(n=st.integers(1, 8), L=widths(0.5, 4.0))
    def test_unit_norm(self, n, L):
        norm = oracles.gauss_integral(
            lambda x: oracles.box_mode(n, L, x) ** 2, 0.0, L, 4 * n + 4
        )
        assert norm == pytest.approx(1.0, abs=1e-12)


class TestMixedState:
    def test_pure_state(self):
        s = MixedState.pure(3)
        assert s.populations == ((3, 1.0),)
        assert np.count_nonzero(s.weights) == 1

    def test_from_dict_sorts_levels(self):
        s = MixedState.from_pairs({5: 0.25, 2: 0.75})
        assert s.populations == ((2, 0.75), (5, 0.25))

    def test_rejects_unnormalized(self):
        with pytest.raises(StateError):
            MixedState.from_pairs({1: 0.5, 2: 0.4})

    def test_normalization_tolerance_boundary(self):
        MixedState.from_pairs({1: 0.5, 2: 0.5 + 0.9e-12})
        with pytest.raises(StateError):
            MixedState.from_pairs({1: 0.5, 2: 0.5 + 1.1e-11})

    def test_rejects_negative_weight(self):
        with pytest.raises(StateError):
            MixedState.from_pairs({1: 1.5, 2: -0.5})

    def test_rejects_duplicate_level(self):
        with pytest.raises(StateError):
            MixedState.from_pairs([(1, 0.5), (1, 0.5)])

    def test_rejects_bad_level(self):
        with pytest.raises((StateError, DomainError)):
            MixedState.from_pairs({0: 1.0})

    @pytest.mark.parametrize("pairs", [
        {1: "x"}, {1: "1.0"}, {1: True}, {1: np.bool_(True)}, {1: None}, {1: 0.5, 2: "0.5"},
    ])
    def test_from_pairs_rejects_non_real_weight(self, pairs):
        with pytest.raises(DomainError, match="weight must be finite"):
            MixedState.from_pairs(pairs)

    def test_from_pairs_accepts_numpy_weights(self):
        s = MixedState.from_pairs({1: np.float32(0.25), 2: np.float64(0.75)})
        assert s.populations == ((1, 0.25), (2, 0.75))

    def test_immutable_arrays(self):
        s = MixedState.pure(1)
        with pytest.raises(ValueError):
            s.weights[0] = 0.5

    def test_constructor_copies_its_arrays(self):
        levels, weights = np.array([1, 2]), np.array([0.25, 0.75])
        s = MixedState(levels, weights)
        levels[0], weights[0] = 7, 0.5
        assert s.populations == ((1, 0.25), (2, 0.75))

    @staticmethod
    def _frozen(values, dtype):
        """A read-only array of ``dtype`` that owns its data."""
        array = np.array(values, dtype=dtype)
        array.setflags(write=False)
        return array

    def test_constructor_copies_lists_and_other_dtypes(self):
        levels, weights = [1, 2], [0.25, 0.75]
        s = MixedState(levels, weights)
        levels[0], weights[0] = 7, 0.5
        assert s.populations == ((1, 0.25), (2, 0.75))
        narrow = np.array([1, 2], dtype=np.int32)
        s = MixedState(narrow, np.array([0.25, 0.75], dtype=np.float32))
        narrow[0] = 7
        assert (s.levels.dtype, s.weights.dtype) == (np.int64, np.float64)
        assert s.levels.tolist() == [1, 2]

    def test_read_only_input_is_kept_only_if_it_owns_stored_dtype_data(self):
        levels = self._frozen([1, 2], np.int64)
        weights = self._frozen([0.25, 0.75], np.float64)
        s = MixedState(levels, weights)
        assert s.levels is levels and s.weights is weights
        # Read-only views of writable arrays, subclasses, other byte orders
        # and other dtypes are copied, so writes through the caller's arrays
        # do not reach the state.
        base_levels, base_weights = np.array([1, 2]), np.array([0.25, 0.75])
        views = base_levels[:], base_weights[:]
        for view in views:
            view.setflags(write=False)
        subclass = type("Subclass", (np.ndarray,), {})
        owned = subclass(shape=(2,), dtype=np.int64), subclass(shape=(2,), dtype=np.float64)
        for array, values in zip(owned, ([1, 2], [0.25, 0.75])):
            array[:] = values
            array.setflags(write=False)
        for levels, weights in (views, owned,
                                (self._frozen([1, 2], ">i8"), self._frozen([0.25, 0.75], ">f8")),
                                (self._frozen([1, 2], np.int32), self._frozen([0.25, 0.75], np.float32))):
            s = MixedState(levels, weights)
            assert type(s.levels) is np.ndarray and type(s.weights) is np.ndarray
            assert not np.shares_memory(s.levels, levels)
            assert not np.shares_memory(s.weights, weights)
        base_levels[0], base_weights[0] = 7, 0.5
        assert s.populations == ((1, 0.25), (2, 0.75))

    @pytest.mark.parametrize("levels, weights, message", [
        ([1, 2, 3], [0.25, math.nan, 0.75], "finite"),
        ([1, 2, 3], [1.25, -0.25, 0.0], "nonnegative"),
        ([1, 2, 3], [0.25, 0.25, 0.25], "sum to 1"),
        ([2, 1, 3], [0.5, 0.25, 0.25], "sorted ascending"),
    ])
    def test_kept_input_is_still_checked(self, levels, weights, message):
        with pytest.raises(StateError, match=message):
            MixedState(self._frozen(levels, np.int64), self._frozen(weights, np.float64))

    @pytest.mark.parametrize("levels, weights, message", [
        ([], [], "at least one"),
        ([0, 1], [0.5, 0.5], "positive integers"),
        ([2, 1], [0.5, 0.5], "sorted ascending"),
        ([1, 1], [0.5, 0.5], "distinct"),
        ([1, 2], [math.nan, 1.0], "finite"),
        ([1, 2], [-1.0, math.nan], "finite"),
        ([1, 2], [math.inf, -math.inf], "finite"),
        ([1, 2, 3], [1e308, 1e308, -1.0], "nonnegative"),
        ([1, 2], [-0.5, 1.5], "nonnegative"),
        ([1, 2], [0.5, 0.4], "sum to 1"),
        ([1, 2, 3], [1e308, 1e308, 1.0], "sum to 1"),
    ])
    def test_constructor_checks_in_order(self, levels, weights, message):
        with pytest.raises(StateError, match=message):
            MixedState(np.array(levels, dtype=np.int64), np.array(weights))

    @pytest.mark.parametrize("weights, message", [
        ([math.nan, 0.5, 0.5], "weights must be finite"),
        ([math.inf, 0.0, 0.0], "weights must be finite"),
        ([-math.inf, 0.5, 0.5], "weights must be finite"),
        ([math.inf, -math.inf, 1.0], "weights must be finite"),
        ([-1.0, math.nan, 2.0], "weights must be finite"),
        ([1e308, 1e308, 0.0], "populations must sum to 1 within 1e-12, got inf"),
        ([1e308, 1e308, -1.0], "weights must be nonnegative"),
    ])
    def test_weights_scan_runs_only_for_a_sum_that_is_not_finite(self, weights, message):
        # Only a sum that is not finite sends the weights through the
        # elementwise finiteness scan; each input still gets the message of
        # the first check it fails, and raises no RuntimeWarning.
        with pytest.raises(StateError) as info:
            MixedState(np.array([1, 2, 3]), np.array(weights))
        assert str(info.value) == message


class TestExpectationEnergy:
    def test_pure_reduces_to_eigenenergy(self):
        assert expectation_energy(MixedState.pure(1), 1.0) == pytest.approx(
            eigenenergy(1, 1.0), rel=1e-15
        )

    def test_even_two_level_mixture(self):
        s = MixedState.from_pairs({1: 0.5, 2: 0.5})
        assert expectation_energy(s, 1.0) == pytest.approx(5 * math.pi ** 2 / 4, rel=1e-14)

    def test_hot_energy_recovered_at_matched_width(self):
        # A (0.25, 0.75) mixture carries the pure-ground energy of width L1
        # exactly when L^2 = L1^2 * (4 - 3*0.25).
        s = MixedState.from_pairs({1: 0.25, 2: 0.75})
        L1 = 1.0
        L = L1 * math.sqrt(4 - 3 * 0.25)
        assert expectation_energy(s, L) == pytest.approx(eigenenergy(1, L1), rel=1e-13)


class TestWallForce:
    def test_pure_ground_unit_box(self):
        assert wall_force(MixedState.pure(1), 1.0) == pytest.approx(math.pi ** 2, rel=1e-15)

    def test_even_mixture_against_finite_difference(self):
        s = MixedState.from_pairs({1: 0.5, 2: 0.5})
        force = wall_force(s, 1.0)
        assert force == pytest.approx(2.5 * math.pi ** 2, rel=1e-14)
        fd = -oracles.central_difference(lambda L: expectation_energy(s, L), 1.0, 1e-6)
        assert force == pytest.approx(fd, rel=1e-6)

    def test_pure_second_level_at_doubled_width(self):
        assert wall_force(MixedState.pure(2), 2.0) == pytest.approx(
            math.pi ** 2 / 2, rel=1e-14
        )

    @given(s=mixed_states(), L=widths())
    def test_virial_identity(self, s, L):
        assert wall_force(s, L) * L == pytest.approx(
            2 * expectation_energy(s, L), rel=1e-14
        )

    @given(s=mixed_states(), L=widths(0.5, 5.0))
    def test_finite_difference_consistency(self, s, L):
        h = 1e-6 * L
        fd = -oracles.central_difference(lambda w: expectation_energy(s, w), L, h)
        assert wall_force(s, L) == pytest.approx(fd, rel=1e-6)


class TestEntropy:
    def test_pure_state_is_zero(self):
        assert entropy(MixedState.pure(4)) == 0.0

    def test_even_mixture_is_ln2(self):
        assert entropy(MixedState.from_pairs({1: 0.5, 2: 0.5})) == pytest.approx(
            math.log(2), rel=1e-15
        )

    def test_quarter_mixture(self):
        s = MixedState.from_pairs({1: 0.25, 2: 0.75})
        assert entropy(s) == pytest.approx(0.5623351446188083, rel=1e-12)

    @given(s=mixed_states())
    def test_permutation_invariant_and_zero_iff_pure(self, s):
        relabeled = MixedState.from_pairs(
            {n + 20: w for n, w in s.populations}
        )
        assert entropy(relabeled) == pytest.approx(entropy(s), abs=1e-15)
        if np.count_nonzero(s.weights) == 1:
            assert entropy(s) == 0.0
        else:
            assert entropy(s) > 0.0

    @given(s=mixed_states())
    def test_bounded_by_log_support(self, s):
        assert -1e-15 <= entropy(s) <= math.log(s.support_size) + 1e-12


class TestWellParams:
    @pytest.mark.parametrize("kwargs", [{"hbar": 0.0}, {"mass": -1.0}, {"hbar": math.inf}])
    def test_rejects_nonpositive_constants(self, kwargs):
        with pytest.raises(DomainError):
            WellParams(**kwargs)

    @pytest.mark.parametrize("value", [np.float32(1.5), np.float64(1.5), np.int64(2), 2, 1.5])
    def test_accepts_python_and_numpy_reals(self, value):
        p = WellParams(hbar=value, mass=value)
        assert type(p.hbar) is float and type(p.mass) is float
        assert p == WellParams(float(value), float(value))

    @pytest.mark.parametrize("bad", [
        True, np.bool_(True), math.nan, np.float32("nan"), math.inf, np.float64(-np.inf),
        0, -1.0, np.float32(-2.0), "1.0", None,
    ])
    @pytest.mark.parametrize("name", ["hbar", "mass"])
    def test_rejects_bools_nonfinite_nonpositive_and_non_numbers(self, name, bad):
        with pytest.raises(DomainError, match=name):
            WellParams(**{name: bad})
