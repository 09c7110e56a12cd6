import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qcarnot import (
    DomainError,
    MixedState,
    ScaleError,
    StateError,
    WellParams,
    eigenenergy,
    entropy,
    expectation_energy,
    wall_force,
)
from qcarnot.boxmodel import _check_int, _check_real
from strategies import mixed_states, widths

INF = math.inf


class TestCheckers:
    """The type-and-range checkers behind every public entry point."""

    @pytest.mark.parametrize("call, text", [
        (lambda: expectation_energy("x", 1.0), "state must be a MixedState, got 'x'"),
        (lambda: wall_force("x", 1.0), "state must be a MixedState, got 'x'"),
        (lambda: entropy("x"), "state must be a MixedState, got 'x'"),
        (lambda: expectation_energy(MixedState.pure(1), 1.0, None),
         "params must be a WellParams, got None"),
        (lambda: eigenenergy(1, 1.0, None), "params must be a WellParams, got None"),
        (lambda: MixedState.from_pairs([3]), "pairs[0] must be a (level, weight) pair, got 3"),
        (lambda: MixedState.from_pairs([None]),
         "pairs[0] must be a (level, weight) pair, got None"),
        (lambda: MixedState.from_pairs("ab"), "pairs[0] must be a (level, weight) pair, got 'a'"),
        (lambda: MixedState.from_pairs([(1,)]),
         "pairs[0] must be a (level, weight) pair, got (1,)"),
        (lambda: MixedState.from_pairs([(2, 0.5), (1, 0.5, 2)]),
         "pairs[1] must be a (level, weight) pair, got (1, 0.5, 2)"),
    ], ids=["energy-state", "force-state", "entropy-state", "energy-params", "eigenenergy-params",
            "pairs-int", "pairs-none", "pairs-str", "pairs-single", "pairs-triple"])
    def test_state_and_params_types(self, call, text):
        with pytest.raises(DomainError) as caught:
            call()
        assert str(caught.value) == text

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


class TestBoxModeOracle:
    """The tests' normalized mode ``sqrt(2/L) sin(n pi x / L)``."""

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

    def test_cached_pure_state_is_shared_and_read_only(self):
        s = MixedState.pure(3)
        assert MixedState.pure(np.int64(3)) is s
        assert MixedState.pure(4) is not s
        for array in (s.levels, s.weights):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 2
        assert s.populations == ((3, 1.0),)

    def test_pure_rejects_a_bad_level_every_time(self):
        for _ in range(2):
            with pytest.raises(DomainError, match=r"^n must be an integer"):
                MixedState.pure(0)

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

    @pytest.mark.parametrize("pairs", [[(2, 0.5), (2, 0.5)], [(2, 0.25), (1, 0.5), (2, 0.25)]])
    def test_duplicate_level_is_rejected_by_the_constructor(self, pairs):
        with pytest.raises(StateError, match="^levels must be distinct and sorted ascending$"):
            MixedState.from_pairs(pairs)

    def test_rejects_bad_level(self):
        with pytest.raises((StateError, DomainError)):
            MixedState.from_pairs({0: 1.0})

    @pytest.mark.parametrize("pairs", [
        {1: "x"}, {1: "1.0"}, {1: True}, {1: np.bool_(True)}, {1: None}, {1: 0.5, 2: "0.5"},
    ])
    def test_from_pairs_rejects_non_real_weight(self, pairs):
        with pytest.raises(DomainError, match="weight must be finite"):
            MixedState.from_pairs(pairs)

    @pytest.mark.parametrize("levels, weights", [([[1]], [[1.0]]), ([1, 2], [1.0])])
    def test_levels_and_weights_must_be_one_dimensional_and_equal_in_length(self, levels, weights):
        with pytest.raises(StateError) as caught:
            MixedState(levels, weights)
        assert str(caught.value) == "levels and weights must be 1-D sequences of equal length"

    def test_repr_lists_the_populations(self):
        assert repr(MixedState.from_pairs({1: 0.25, 3: 0.75})) == "MixedState({1: 0.25, 3: 0.75})"

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
        s = MixedState([1.0, np.float32(2.0), 2 ** 63 - 1], [np.int64(0), 0.5, np.float32(0.5)])
        assert s.populations == ((1, 0.0), (2, 0.5), (2 ** 63 - 1, 0.5))
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

    @pytest.mark.parametrize("levels, weights, field", [
        ([1.5], [1.0], "levels"),
        ([2.7, 3.2], [0.5, 0.5], "levels"),
        (np.array([2.7, 3.2]), np.array([0.5, 0.5]), "levels"),
        ([math.inf], [1.0], "levels"),
        ([True], [1.0], "levels"),
        (np.array([True]), [1.0], "levels"),
        ([2 ** 64], [1.0], "levels"),
        (["a"], [1.0], "levels"),
        (["1"], [1.0], "levels"),
        ([1], ["1.0"], "weights"),
        ([1], [True], "weights"),
        ([1], np.array([True]), "weights"),
        ([1], np.array(["1.0"]), "weights"),
    ])
    def test_copied_entries_follow_the_rules_of_from_pairs(self, levels, weights, field):
        # No level is truncated or cast from a bool, string or an int past
        # int64, and no weight is cast from a bool or a string.
        with pytest.raises(StateError, match=f"^{field} must be "):
            MixedState(levels, weights)

    @pytest.mark.parametrize("weights", [[math.nan, 0.5, 0.5], np.array([math.nan, 0.5, 0.5])])
    def test_list_and_array_weights_break_one_rule(self, weights):
        with pytest.raises(StateError, match=r"^weights must be finite(, got nan)?$"):
            MixedState([1, 2, 3], weights)

    @settings(max_examples=60, deadline=None)
    @given(mixed_states(max_support=8, max_level=2 ** 40))
    def test_level_square_sum_is_computed_once_bit_for_bit(self, state):
        assert "_square_sum" not in vars(state)
        n = state.levels.astype(np.float64)
        expected = float((state.weights * (n * n)).sum())
        assert state._square_sum == expected
        assert vars(state)["_square_sum"] == expected
        assert state._square_sum == expected

    def test_level_square_sum_of_two_levels_has_no_fma(self):
        s = MixedState(np.array([3, 4]), np.array([0.1, 0.9]))
        assert s._square_sum == 0.1 * 9.0 + 0.9 * 16.0

    @pytest.mark.parametrize("levels, message", [
        ([0, 1, 2], "positive integers"),
        ([2, 0, 1], "positive integers"),
        ([3, 1, 2], "sorted ascending"),
        ([1, 2, 2], "distinct"),
    ])
    def test_positivity_is_reported_before_order(self, levels, message):
        with pytest.raises(StateError, match=message):
            MixedState(np.array(levels), np.full(3, 1.0 / 3.0))

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


class TestScaleErrors:
    @pytest.mark.parametrize("call, text", [
        (lambda: eigenenergy(1, 1.0, WellParams(hbar=1e160)), "energy of level 1 at width 1.0"),
        (lambda: eigenenergy(1, 1e-170), "energy of level 1 at width 1e-170"),
        (lambda: expectation_energy(MixedState.pure(1), 1e-170), "mean energy at width 1e-170"),
        (lambda: wall_force(MixedState.pure(1), 1e-110), "wall force at width 1e-110"),
    ], ids=["hbar-overflow", "eigenenergy-width", "mean-energy-width", "force-width"])
    def test_results_outside_binary64_raise_one_line_scale_error(self, call, text):
        # Python's float ** raises OverflowError and / by zero ZeroDivisionError
        # here; 2 E / L at 1e-110 would be inf.
        with pytest.raises(ScaleError) as caught:
            call()
        assert str(caught.value) == text + " over- or underflows binary64"


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
