import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qcarnot import sudden
from qcarnot import (
    DomainError,
    MixedState,
    TruncationError,
    cosine_series,
    expectation_energy,
    level_overlap_squares,
    overlap_coefficient,
    post_expansion_distribution,
    verify_energy_identity,
)
from strategies import mixed_states

_BLOCK = sudden._BLOCK


def _overlap_mpmath(n, m, alpha):
    """``b(m, n)`` in the original closed form, at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        return float(2 * n * a ** 1.5 * (-1) ** n * mpmath.sin(m * mpmath.pi / a)
                     / (mpmath.pi * (m * m - a * a * n * n)))


class TestOverlapCoefficient:
    def test_ground_to_ground_doubling(self):
        assert overlap_coefficient(1, 1, 2.0) == pytest.approx(
            4 * math.sqrt(2) / (3 * math.pi), rel=1e-14
        )

    def test_resonant_limit(self):
        assert overlap_coefficient(1, 2, 2.0) == pytest.approx(1 / math.sqrt(2), rel=1e-14)
        assert overlap_coefficient(3, 6, 2.0) == pytest.approx(1 / math.sqrt(2), rel=1e-14)

    def test_identity_ratio_is_kronecker_delta(self):
        assert overlap_coefficient(3, 3, 1.0) == 1.0
        assert overlap_coefficient(3, 5, 1.0) == 0.0

    def test_identity_ratio_squares_are_a_delta_row(self):
        assert level_overlap_squares(2, 1.0, 3).tolist() == [0.0, 1.0, 0.0]
        assert level_overlap_squares(1, 1.0, 1).tolist() == [1.0]
        # Level n lies past the row's end, so every entry is 0.
        assert level_overlap_squares(5, 1.0, 3).tolist() == [0.0, 0.0, 0.0]

    def test_near_resonance_is_stable(self):
        # A hair off resonance must stay close to the resonant limit, not blow
        # up through cancellation in the raw quotient form.
        alpha = 2.0 + 1e-11
        assert overlap_coefficient(1, 2, alpha) == pytest.approx(
            1 / math.sqrt(2.0), rel=1e-9
        )

    @pytest.mark.parametrize("n, m, ratio", [(1, 4, 2), (1, 7, 3), (2, 13, 5), (3, 40, 4), (5, 9, 1)])
    @pytest.mark.parametrize("offset", [1e-6, -1e-6, 1e-9, -1e-9, 1e-11, -1e-11])
    def test_near_integer_ratio_matches_mpmath(self, n, m, ratio, offset):
        # m / alpha lies within |offset| of an integer other than n, where
        # sin(m pi / alpha) is small and must keep its relative accuracy.
        alpha = m / (ratio + offset)
        assert abs(m - alpha * n) >= 1.0
        assert overlap_coefficient(n, m, alpha) == pytest.approx(
            _overlap_mpmath(n, m, alpha), rel=1e-12, abs=0
        )

    @pytest.mark.parametrize("n, m, alpha",
                             [(3, 5, 1e200), (1, 2, 1e160), (2, 7, 3e5), (2, 1, 1e308)])
    def test_large_ratio_matches_mpmath(self, n, m, alpha):
        # alpha^2 n^2 overflows binary64 in the first two cases; in the last,
        # alpha n does too and the value underflows to 0.
        assert overlap_coefficient(n, m, alpha) == pytest.approx(
            _overlap_mpmath(n, m, alpha), rel=1e-12, abs=0
        )

    def test_matches_integration_small_grid(self):
        for alpha in (1.3, 2.0, 2.5):
            for n in (1, 2, 5):
                for m in (1, 2, 3, 8):
                    assert overlap_coefficient(n, m, alpha) == pytest.approx(
                        oracles.overlap_by_integration(n, m, alpha), abs=1e-10
                    )

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            overlap_coefficient(0, 1, 2.0)
        with pytest.raises(DomainError):
            overlap_coefficient(1, 1, 0.5)

    @given(n=st.integers(1, 6), alpha=st.floats(1.05, 3.5))
    @settings(max_examples=30)
    def test_completeness(self, n, alpha):
        squares = level_overlap_squares(n, alpha, 6000)
        assert float(squares.sum()) == pytest.approx(1.0, abs=1e-7)


class TestSquareKernel:
    """The block kernel behind every series of squared overlaps."""

    @pytest.mark.parametrize("alpha", [1.3, 2.0, 2.5, 3.7, 2.0 + 1e-11])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_scalar_overlap(self, alpha, n):
        # The grid holds exact resonances (alpha = 2, m = 2n, e.g. n = 3,
        # m = 6) and near ones (alpha = 2 + 1e-11).  Where m / alpha lies
        # within 1e-6 of an integer away from the resonance, sin(m pi / alpha)
        # is at rounding level in the kernel, which is accurate in absolute
        # terms only, so only its smallness is compared.
        row = level_overlap_squares(n, alpha, 40)
        for m in range(1, 41):
            reference = overlap_coefficient(n, m, alpha) ** 2
            if abs(m / alpha - round(m / alpha)) < 1e-6 and abs(m - alpha * n) >= 1.0:
                assert row[m - 1] <= 1e-20 and reference <= 1e-20
            else:
                assert row[m - 1] == pytest.approx(reference, rel=1e-9)

    def test_exact_resonance(self):
        assert level_overlap_squares(3, 2.0, 6)[5] == pytest.approx(0.5, rel=1e-15)

    @staticmethod
    def _squares_mpmath(n, alpha, m_count):
        """``b(m, n)^2`` for ``m = 1 .. m_count`` in the original closed form, at 50 digits."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            return [float(4 * n * n * a ** 3 * mpmath.sin(m * mpmath.pi / a) ** 2
                          / (mpmath.pi ** 2 * (m * m - a * a * n * n) ** 2))
                    for m in range(1, m_count + 1)]

    @pytest.mark.parametrize("n, alpha", [(1, 1e308), (2, 1e308), (1, 2.0 ** 520)])
    def test_huge_ratio_underflows_to_zero(self, n, alpha):
        # alpha, alpha n or (m - alpha n)(m + alpha n) overflows binary64,
        # while every square underflows.
        exact = self._squares_mpmath(n, alpha, 4)
        assert exact == [0.0] * 4
        assert level_overlap_squares(n, alpha, 4).tolist() == exact

    def test_subnormal_squares_are_kept(self):
        # Each square is subnormal, and so is the rational factor times the
        # squared sine before the 4 alpha / pi^2 scale multiplies it.
        exact = self._squares_mpmath(1, 1e105, 3)
        assert exact == [4e-315, 1.6e-314, 3.6e-314]
        assert level_overlap_squares(1, 1e105, 3).tolist() == exact
        assert [overlap_coefficient(1, m, 1e105) ** 2 for m in (1, 2, 3)] == exact

    @pytest.mark.parametrize("m_count", [0, True, "3", 2.5, math.nan, 2 ** 53 + 1, 2 ** 60])
    def test_rejects_bad_count(self, m_count):
        with pytest.raises(DomainError, match=r"m_count must be an integer in \[1, 100000000\]"):
            level_overlap_squares(1, 2.0, m_count)

    def test_count_past_the_cap_allocates_nothing(self):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="m_count"):
                level_overlap_squares(1, 2.0, sudden.IDENTITY_TERM_BUDGET + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_resonance_at_block_edges(self):
        # A resonance on the last index of a block, and one whose two
        # near-resonant indices straddle two blocks.
        edge = sudden._BLOCK
        for n, alpha in ((edge // 2, 2.0), (edge // 2, (edge + 0.5) / (edge // 2))):
            row = level_overlap_squares(n, alpha, edge + 3)
            for m in range(edge - 2, edge + 4):
                assert row[m - 1] == pytest.approx(
                    overlap_coefficient(n, m, alpha) ** 2, rel=1e-9, abs=1e-20
                )

    @pytest.mark.parametrize(
        "pairs, alpha",
        [({1: 0.25, 4: 0.75}, 1.8), ({1: 0.5, 3: 0.5}, 2.0), ({2: 0.1, 3: 0.2, 9: 0.7}, 3.7)],
    )
    def test_mixture_matches_weighted_levels(self, pairs, alpha):
        out, report = post_expansion_distribution(MixedState.from_pairs(pairs), alpha, 1e-5)
        terms = report.terms_used
        assert terms > sudden._BLOCK
        expected = sum(w * level_overlap_squares(n, alpha, terms) for n, w in pairs.items())
        raw = np.zeros(terms)
        raw[out.levels - 1] = out.weights * report.achieved_sum
        np.testing.assert_allclose(raw, expected, rtol=0, atol=1e-15)

    KERNEL_ALPHAS = [1.05, 1.3, 2.03, 2.6 + 1e-9, 3.7, 10.0]

    @pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
    @pytest.mark.parametrize("levels, weights", [([2], None), ([1, 3, 4], [0.2, 0.5, 0.3])])
    def test_terms_match_original_form(self, alpha, levels, weights):
        # Three whole blocks and five indices of a fourth, with every block
        # edge; the m within one of a resonance take the sinc form and are
        # compared elsewhere.
        terms = 3 * sudden._BLOCK + 5
        row = np.empty(terms)
        sudden._square_series(alpha, terms, levels, weights, out=row)
        m = np.arange(1, terms + 1)
        far = (np.abs(m[:, None] - alpha * np.array(levels)) >= 1.0).all(axis=1)
        expected = oracles.overlap_square_terms(alpha, m[far].tolist(), levels, weights)
        np.testing.assert_allclose(row[far], expected, rtol=0, atol=1e-15)

    def test_nine_level_state_matches_original_form(self):
        # Nine weighted levels in 1..12 at alpha near 3, the heaviest
        # expansion the benchmark runs, where each index's nine denominators
        # m^2 - (alpha n)^2 share one m^2.
        self.test_terms_match_original_form(
            3.04, [1, 2, 3, 5, 6, 8, 9, 11, 12],
            [0.04, 0.21, 0.06, 0.13, 0.02, 0.17, 0.09, 0.11, 0.17])

    @pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
    def test_terms_near_four_million_match_original_form(self, alpha):
        # Indices around the block edge at 245 * _BLOCK = 4014080.
        edge = 245 * sudden._BLOCK
        levels, weights = [1, 3, 4], [0.2, 0.5, 0.3]
        row = np.empty(edge + 6)
        sudden._square_series(alpha, edge + 6, levels, weights, out=row)
        m = list(range(edge - 6, edge + 7))
        expected = oracles.overlap_square_terms(alpha, m, levels, weights)
        np.testing.assert_allclose(row[edge - 7:], expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("alpha, levels, weights, m_values", [
        (1.05, [1], None, [1, 2, 3, _BLOCK, _BLOCK + 1, 3 * _BLOCK, 245 * _BLOCK + 1]),
        (1.3, [2, 5], [0.4, 0.6], [2, 3, 6, 7, _BLOCK - 1, 2 * _BLOCK + 1, 245 * _BLOCK]),
        (2.6 + 1e-9, [3], [1.0], [7, 8, 9, _BLOCK - 1, 2 * _BLOCK + 1, 245 * _BLOCK]),
        (3.7, [2], None, [1, 7, 8, _BLOCK, 3 * _BLOCK + 2, 245 * _BLOCK - 1]),
        (10.0, [1, 3], [0.5, 0.5], [9, 11, 29, 30, 31, _BLOCK + 1, 245 * _BLOCK + 3]),
    ])
    def test_terms_match_mpmath(self, alpha, levels, weights, m_values):
        # 50-digit values of the original form, resonant indices included.
        mpmath = pytest.importorskip("mpmath")
        row = np.empty(max(m_values))
        sudden._square_series(alpha, row.size, levels, weights, out=row)
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            for m in m_values:
                exact = 0
                for j, n in enumerate(levels):
                    factor = m * m / (a * n) ** 2 if weights is None else weights[j]
                    if m == alpha * n:
                        exact += factor / a
                    else:
                        exact += factor * (4 * n * n * a ** 3 * mpmath.sin(m * mpmath.pi / a) ** 2
                                           / (mpmath.pi ** 2 * (m * m - a * a * n * n) ** 2))
                assert row[m - 1] == pytest.approx(float(exact), rel=1e-14, abs=0), m

    @pytest.mark.parametrize("alpha, n", [(3.04, 328947), (1.3 + 1e-9, 769230)])
    @pytest.mark.parametrize("weights", [None, [1.0]])
    def test_denominator_error_near_a_distant_resonance(self, alpha, n, weights):
        # a = alpha n is about 1e6.  The denominator m^2 - a^2 rounds alpha n
        # and its square, so relative to the exact a it is off by up to
        # 0.75 eps a / |m - a|, and the squared term by twice that.  The
        # 1e-14 covers the sine's absolute error, as in the test above.
        mpmath = pytest.importorskip("mpmath")
        a = alpha * n
        m_values = [1, 2, 1000, 500_000, math.floor(a) - 2, math.floor(a) - 1,
                    math.ceil(a) + 1, math.ceil(a) + 2, 1_500_000, 2_000_000]
        row = np.empty(max(m_values))
        sudden._square_series(alpha, row.size, [n], weights, out=row)
        eps = 2.0 ** -52
        with mpmath.workdps(50):
            a_exact = mpmath.mpf(alpha) * n
            for m in m_values:
                assert 1.0 <= abs(m - a) < 3.0 or abs(m - a) > 4e5
                sine = mpmath.sin(m * mpmath.pi / mpmath.mpf(alpha))
                exact = (4 * mpmath.mpf(alpha) * a_exact ** 2 * sine ** 2
                         / (mpmath.pi ** 2 * (m * m - a_exact ** 2) ** 2))
                if weights is None:
                    exact *= m * m / a_exact ** 2
                allowed = 1.5 * eps * a / abs(m - a) + 1e-14
                assert abs(row[m - 1] - float(exact)) <= allowed * float(exact), m

    @pytest.mark.parametrize("alpha", [2.0, 2.5, 2.6, 3.0, 1.05, 3.03, 10 / 3, 2.6 + 1e-9, 3.7])
    def test_exact_zeros_follow_rounding_rule(self, alpha):
        # A term is exactly 0 where alpha * k rounds to m for an integer k:
        # every m = 2j at alpha = 2, every 13j at 2.6 (5 * 2.6 rounds to 13),
        # some of the 303j at 3.03, none at 3.7 in this range.
        terms = 3 * sudden._BLOCK + 5
        row = level_overlap_squares(1, alpha, terms)
        m = np.arange(1.0, terms + 1.0)
        rule = (alpha * np.rint(m / alpha) == m) & (np.abs(m - alpha) >= 1.0)
        np.testing.assert_array_equal(row == 0.0, rule)
        if alpha == 3.03:
            assert 0 < rule.sum() < terms // 303

    @pytest.mark.parametrize(
        "n, alpha",
        [(1, 2.3), (2, 1.37), (3, 3.71), (5, 1.05), (4, 2.61), (7, 1.45)],
    )
    def test_identity_sum_matches_original_form(self, n, alpha):
        assert abs(alpha * n - round(alpha * n)) >= 0.1
        assert sudden._square_series(alpha, 100_000, [n]) == pytest.approx(
            oracles.identity_partial_sum(n, alpha, 100_000), abs=1e-13
        )


class TestFarFieldSeries:
    """The weighted kernel's series in ``t = a_max^2 / m^2`` above the largest pole."""

    # The benchmark's nine-level cell; three levels; a largest pole so far
    # out that the first blocks above it keep the per-level passes; and
    # twelve levels.  The last two carry most weight on the top level, where
    # P_k stays close to P_0 and the truncation bound is nearly reached.
    NINE = (3.04, [1, 2, 3, 5, 6, 8, 9, 11, 12],
            [0.04, 0.21, 0.06, 0.13, 0.02, 0.17, 0.09, 0.11, 0.17])
    FAR_POLE = (1.3, [1000, 2000, 3000], [0.01, 0.01, 0.98])
    CASES = [NINE, (3.7, [1, 3, 4], [0.2, 0.5, 0.3]), FAR_POLE,
             (1.05, list(range(1, 13)), [0.01] * 11 + [0.89])]

    @staticmethod
    def _first_series_block(alpha, levels):
        """Start of the first block that takes the series."""
        top = alpha * max(levels)
        cap = min(2 * len(levels) - 2, sudden._SERIES_MAX_ORDER)
        start = 1
        while start <= top + 1.0 or sudden._series_order((top / start) ** 2, cap) is None:
            start += _BLOCK
        return start

    @staticmethod
    def _terms_mpmath(alpha, levels, weights, m_values):
        """Weighted terms in the original closed form, at 50 digits."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            return [float(sum(w * 4 * n * n * a ** 3 * mpmath.sin(m * mpmath.pi / a) ** 2
                              / (mpmath.pi ** 2 * (m * m - a * a * n * n) ** 2)
                              for n, w in zip(levels, weights)))
                    for m in m_values]

    def test_switch_points(self):
        # The cases above switch where their tests below assume they do.
        assert [self._first_series_block(alpha, levels) // _BLOCK
                for alpha, levels, _ in self.CASES] == [1, 1, 14, 1]

    @pytest.mark.parametrize("alpha, levels, weights", CASES)
    def test_matches_mpmath_across_the_switch(self, alpha, levels, weights):
        # The last indices of the per-level passes, the first of the series,
        # the first of the next block (one order lower) and those around
        # 245 * _BLOCK, where the terms are near 1e-27.
        start = self._first_series_block(alpha, levels)
        edge = 245 * _BLOCK
        m_values = [start - 2, start - 1, start, start + 1, start + _BLOCK,
                    start + 2 * _BLOCK + 7, edge - 1, edge, edge + 1]
        row = np.empty(edge + 1)
        sudden._square_series(alpha, row.size, levels, weights, out=row)
        expected = self._terms_mpmath(alpha, levels, weights, m_values)
        for m, value in zip(m_values, expected):
            assert row[m - 1] == pytest.approx(value, rel=1e-14, abs=0), m

    @pytest.mark.parametrize("levels, weights", [
        ([1, 2, 4, 7, 9], [1e-300, 1e-200, 1e-100, 1e-20, 1.0]),
        ([1, 2, 4, 7, 9], [1.0, 1e-20, 1e-100, 1e-200, 1e-300]),
    ])
    def test_weights_across_three_hundred_decades(self, levels, weights):
        # The lightest level's share of a term is subnormal, on both paths
        # and in the series' P_k.
        alpha = 2.3
        start = self._first_series_block(alpha, levels)
        m_values = [1, 5, 16, 21, start - 1, start, start + 3 * _BLOCK + 11]
        row = np.empty(max(m_values))
        sudden._square_series(alpha, row.size, levels, weights, out=row)
        expected = self._terms_mpmath(alpha, levels, weights, m_values)
        for m, value in zip(m_values, expected):
            assert row[m - 1] == pytest.approx(value, rel=1e-14, abs=0), m

    @pytest.mark.parametrize("alpha, levels, weights", CASES)
    def test_truncation_within_bound(self, alpha, levels, weights):
        # At each block's first index, where t is largest, the neglected
        # powers of t are at most 2**-56 of the whole series, which sums to
        # sum_n w_n u_n / (1 - u_n t)^2 with u_n = (a_n / a_max)^2, on the
        # binary64 poles the kernel takes.
        mpmath = pytest.importorskip("mpmath")
        poles = [alpha * n for n in levels]
        top = max(poles)
        cap = min(2 * len(levels) - 2, sudden._SERIES_MAX_ORDER)
        first = self._first_series_block(alpha, levels)
        orders = set()
        with mpmath.workdps(50):
            u = [(mpmath.mpf(a) / mpmath.mpf(top)) ** 2 for a in poles]
            for start in range(first, first + 400 * _BLOCK, _BLOCK):
                order = sudden._series_order((top / start) ** 2, cap)
                orders.add(order)
                t = (mpmath.mpf(top) / start) ** 2
                whole = sum(w * un / (1 - un * t) ** 2 for w, un in zip(weights, u))
                kept = sum((k + 1) * t ** k * sum(w * un ** (k + 1) for w, un in zip(weights, u))
                           for k in range(order + 1))
                assert (whole - kept) / whole <= mpmath.mpf(2) ** -56, start
        assert len(orders) >= 2

    def test_matches_per_level_passes(self, monkeypatch):
        # Seeded 3-12-level mixtures: the series and the per-level passes it
        # replaces agree term by term within 2e-15 relative.
        rng = np.random.default_rng(7)
        max_order = sudden._SERIES_MAX_ORDER
        for _ in range(8):
            size = int(rng.integers(3, 13))
            levels = sorted(rng.choice(np.arange(1, 25), size, replace=False).tolist())
            weights = rng.dirichlet(np.ones(size)).tolist()
            alpha = float(rng.uniform(1.05, 4.0))
            monkeypatch.setattr(sudden, "_SERIES_MAX_ORDER", max_order)
            terms = self._first_series_block(alpha, levels) + 2 * _BLOCK
            series, passes = np.empty(terms), np.empty(terms)
            sudden._square_series(alpha, terms, levels, weights, out=series)
            # No order is admitted, so every block takes the per-level passes.
            monkeypatch.setattr(sudden, "_SERIES_MAX_ORDER", -1)
            sudden._square_series(alpha, terms, levels, weights, out=passes)
            np.testing.assert_array_equal(series == 0.0, passes == 0.0)
            np.testing.assert_allclose(series, passes, rtol=2e-15, atol=0)


class TestPostExpansionDistribution:
    def test_pure_ground_doubling(self):
        out, report = post_expansion_distribution(MixedState.pure(1), 2.0, 1e-6)
        raw = dict(zip(out.levels.tolist(), (out.weights * report.achieved_sum).tolist()))
        assert raw[1] == pytest.approx(32 / (9 * math.pi ** 2), rel=1e-13)
        assert raw[2] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("alpha, support, terms, tail", [
        (2.0, 202644, 405286, 9.999993450745245e-07),
        (2.5, 405286, 506607, 9.999999401424408e-07),
        (2.6, 486344, 526872, 9.99998527993597e-07),
        (3.0, 405287, 607929, 9.99998777089151e-07),
    ])
    def test_exact_zeros_pinned(self, alpha, support, terms, tail):
        # Levels whose sine factor is exactly 0 are dropped: every second at
        # alpha = 2 (the resonant m = 2 stays), every fifth at 2.5, every
        # thirteenth at 2.6, every third at 3.  Each tail is the bound's
        # formula at the given cutoff evaluated with 50 digits.
        out, report = post_expansion_distribution(MixedState.pure(1), alpha, 1e-6)
        assert out.levels.size == support
        assert report.terms_used == terms
        assert report.tail_bound == pytest.approx(tail, rel=1e-14, abs=0)

    def test_result_arrays_are_read_only(self):
        # At alpha = 2 the exact zeros are dropped; at 2.6 + 1e-9 there are none.
        for alpha in (2.0, 2.6 + 1e-9):
            out, report = post_expansion_distribution(MixedState.from_pairs({1: 0.3, 2: 0.7}), alpha, 1e-4)
            assert (out.levels.size < report.terms_used) == (alpha == 2.0)
            for array in (out.levels, out.weights):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0

    def test_dropping_zeros_allocates_no_terms_sized_temporary(self):
        # At alpha = 2 every second level is dropped.  Past the kernel's
        # output (8 bytes a term) and the kept levels (8 bytes each), the
        # peak leaves less room than one terms-sized bool array.
        state = MixedState(np.array([1, 2, 3, 5, 6, 8, 9, 11, 12]),
                           np.array([0.04, 0.21, 0.06, 0.13, 0.02, 0.17, 0.09, 0.11, 0.17]))
        tracemalloc.start()
        try:
            out, report = post_expansion_distribution(state, 2.0, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        terms, kept = report.terms_used, out.levels.size
        assert kept < terms
        assert peak < 8 * (terms + kept) + terms

    def test_identity_ratio_returns_input(self):
        s = MixedState.from_pairs({1: 0.5, 3: 0.5})
        out, report = post_expansion_distribution(s, 1.0, 1e-6)
        assert out.populations == s.populations
        assert report.tail_bound == 0.0

    def test_energy_conserved_for_pure_ground(self):
        s = MixedState.pure(1)
        out, report = post_expansion_distribution(s, 2.0, 1e-6)
        e_pre = expectation_energy(s, 1.0)
        e_post = expectation_energy(out, 2.0)
        assert abs(e_post - e_pre) / e_pre <= report.tail_bound
        assert e_post == pytest.approx(math.pi ** 2 / 2, rel=1e-5)

    def test_deficit_within_reported_bound(self):
        s = MixedState.from_pairs({2: 0.3, 7: 0.7})
        out, report = post_expansion_distribution(s, 1.7, 1e-5)
        assert 0.0 <= 1.0 - report.achieved_sum <= report.tail_bound <= 1e-5

    def test_output_is_renormalized(self):
        out, _ = post_expansion_distribution(MixedState.pure(2), 1.5, 1e-4)
        assert float(out.weights.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_mixture_linearity_at_matched_cutoff(self):
        terms = 4000
        rows = {n: level_overlap_squares(n, 1.8, terms) for n in (1, 4)}
        mixed = 0.25 * rows[1] + 0.75 * rows[4]
        s = MixedState.from_pairs({1: 0.25, 4: 0.75})
        out, report = post_expansion_distribution(s, 1.8, 1e-4)
        m = min(terms, report.terms_used)
        raw = np.zeros(m)
        raw[out.levels[out.levels <= m] - 1] = (
            out.weights[out.levels <= m] * report.achieved_sum
        )
        np.testing.assert_allclose(raw, mixed[:m], rtol=0, atol=1e-15)

    def test_tail_tol_domain(self):
        with pytest.raises(DomainError):
            post_expansion_distribution(MixedState.pure(1), 2.0, 0.0)
        with pytest.raises(DomainError):
            post_expansion_distribution(MixedState.pure(1), 2.0, 1e-2)

    def test_budget_exhaustion(self):
        with pytest.raises(TruncationError):
            post_expansion_distribution(MixedState.pure(1), 2.0, 1e-6, term_budget=500)

    @pytest.mark.parametrize(
        "alpha, tail_tol, term_budget",
        [
            (True, 1e-6, 10_000_000),
            ("2", 1e-6, 10_000_000),
            (2.0, "1e-6", 10_000_000),
            (2.0, True, 10_000_000),
            (2.0, 1e-6, True),
            (2.0, 1e-6, "10000000"),
            (2.0, 1e-6, 1e6 + 0.5),
            (2.0, 1e-6, 2 ** 60),
            (2.0, math.nan, 10_000_000),
            (2.0, 2e-3, 10_000_000),
            (2.0, 1e-6, 0),
            (2.0, 1e-6, np.bool_(True)),
        ],
    )
    def test_rejects_bad_argument_types(self, alpha, tail_tol, term_budget):
        with pytest.raises(DomainError):
            post_expansion_distribution(MixedState.pure(1), alpha, tail_tol, term_budget)

    def test_accepts_numpy_scalars(self):
        out, report = post_expansion_distribution(
            MixedState.pure(1), np.float64(2.0), np.float32(1e-4), np.int64(10_000)
        )
        expected, _ = post_expansion_distribution(MixedState.pure(1), 2.0, float(np.float32(1e-4)))
        assert out.populations == expected.populations

    @given(s=mixed_states(max_support=4, max_level=8), alpha=st.floats(1.2, 2.6))
    @settings(max_examples=15, deadline=None)
    def test_energy_conservation_property(self, s, alpha):
        out, report = post_expansion_distribution(s, alpha, 1e-4)
        e_pre = expectation_energy(s, 1.0)
        e_post = expectation_energy(out, alpha)
        assert abs(e_post - e_pre) / e_pre <= report.tail_bound <= 1e-4


class TestTailEnclosure:
    @staticmethod
    def _enclosure_mpmath(mpmath, n, alpha, terms):
        """``_energy_tail_enclosure``'s formula at 50 digits."""
        with mpmath.workdps(50):
            alpha = mpmath.mpf(alpha)
            a, M = alpha * n, mpmath.mpf(terms)
            scale = 4 * alpha / mpmath.pi ** 2

            def tail_integral(x0):
                return scale * (x0 / (2 * (x0 * x0 - a * a))
                                + mpmath.log((x0 + a) / (x0 - a)) / (4 * a))

            osc = scale * (M + 1) ** 2 / ((M + 1) ** 2 - a * a) ** 2 / (2 * mpmath.sin(mpmath.pi / alpha))
            return float(max(0, tail_integral(M + 1) / 2 - osc)), float(tail_integral(M) / 2 + osc)

    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("alpha", [1.05, 1.5, 2.0, 2.6, 10.0, 1e3])
    def test_matches_mpmath_up_to_the_largest_cutoff(self, n, alpha):
        # (x0 + a) / (x0 - a) is within 2 a / M of 1, where the log of the
        # ratio is off by 1e-9 relative at M = 1e8 and by 0.2 at 2**53 - 1.
        mpmath = pytest.importorskip("mpmath")
        floor = sudden._floor_terms(alpha, n, 2 ** 53)
        for terms in (floor, 1000, 10 ** 5, 10 ** 8, 2 ** 40, 2 ** 53 - 1):
            if terms < floor:
                continue
            lo, hi = sudden._energy_tail_enclosure(n, alpha, terms)
            exact_lo, exact_hi = self._enclosure_mpmath(mpmath, n, alpha, terms)
            assert hi == pytest.approx(exact_hi, rel=2e-15, abs=0), terms
            assert abs(lo - exact_lo) <= 2e-15 * exact_hi, terms


class TestVerifyEnergyIdentity:
    def test_doubling_from_ground(self):
        report = verify_energy_identity(1, 2.0, 1e-6)
        assert abs(report.achieved_sum - 1.0) <= 1e-6
        assert report.tail_bound <= 1e-6

    def test_second_level_fractional_ratio(self):
        report = verify_energy_identity(2, 1.5, 1e-6)
        assert abs(report.achieved_sum - 1.0) <= 1e-6

    def test_tight_tolerance_irrational_ratio(self):
        report = verify_energy_identity(1, 3.7, 1e-8)
        assert abs(report.achieved_sum - 1.0) <= 1e-8
        assert report.tail_bound <= 1e-8

    def test_alpha_must_exceed_one(self):
        with pytest.raises(DomainError, match="alpha must exceed 1"):
            verify_energy_identity(1, 1.0, 1e-6)

    def test_tol_domain(self):
        with pytest.raises(DomainError):
            verify_energy_identity(1, 2.0, 1e-3)

    def test_budget_exhaustion(self):
        with pytest.raises(TruncationError):
            verify_energy_identity(1, 2.0, 1e-6, max_terms=1000)

    @pytest.mark.parametrize(
        "n, alpha, tol, max_terms",
        [
            (1, "2", "1e-6", 100_000_000),
            (1, True, 1e-6, 100_000_000),
            (1, 2.0, "1e-6", 100_000_000),
            (1, 2.0, True, 100_000_000),
            (True, 2.0, 1e-6, 100_000_000),
            ("1", 2.0, 1e-6, 100_000_000),
            (2 ** 63, 2.0, 1e-6, 100_000_000),
            (1, 2.0, 1e-6, True),
            (1, 2.0, 1e-6, "1000000"),
            (1, 2.0, 1e-6, 2 ** 53 + 1),
            (1, float("nan"), 1e-6, 100_000_000),
            (0, 2.0, 1e-6, 100_000_000),
            (1, 2.0, math.inf, 100_000_000),
            (1, 2.0, 1e-6, 0),
            (1, 2.0, 1e-6, 1e6 + 0.5),
        ],
    )
    def test_rejects_bad_argument_types(self, n, alpha, tol, max_terms):
        with pytest.raises(DomainError):
            verify_energy_identity(n, alpha, tol, max_terms=max_terms)

    @pytest.mark.parametrize("n, alpha", [(1, 1e308), (2 ** 62, 2.0)])
    def test_cutoff_beyond_budget_is_a_truncation_error(self, n, alpha):
        with pytest.raises(TruncationError, match="minimum cutoff"):
            verify_energy_identity(n, alpha, 1e-6)

    def test_report_fields(self):
        report = verify_energy_identity(3, 1.25, 1e-5)
        assert report.terms_used >= 64
        assert 0.0 < report.tail_bound <= 1e-5
        assert report.achieved_sum == pytest.approx(1.0, abs=1e-5)

    def test_near_unity_ratio_still_certifies(self):
        # The oscillation bound grows like 1/sin(pi/alpha) as alpha -> 1, so
        # this is the hard corner of the certification.
        report = verify_energy_identity(1, 1.01, 1e-4, max_terms=3_000_000)
        assert abs(report.achieved_sum - 1.0) <= 1e-4


class TestCosineSeries:
    def test_value_at_pi_half_integer(self):
        assert cosine_series(math.pi, 0.5) == pytest.approx(2.0 - math.pi, rel=1e-14)

    def test_matches_partial_sums(self):
        value = cosine_series(math.pi / 2, 0.25)
        reference, bound = oracles.cosine_partial_sum(math.pi / 2, 0.25, 5e-9)
        assert value == pytest.approx(reference, abs=1e-8)
        assert bound <= 5e-9

    def test_symmetric_about_pi(self):
        for u in (0.3, 1.7, 4.4):
            for x in (0.5, 1.2, 2.9):
                assert cosine_series(x, u) == pytest.approx(
                    cosine_series(2 * math.pi - x, u), rel=1e-12
                )

    def test_pole_rejection(self):
        with pytest.raises(DomainError):
            cosine_series(1.0, 2.0)
        with pytest.raises(DomainError):
            cosine_series(1.0, 3.0 + 5e-10)
        with pytest.raises(DomainError):
            cosine_series(1.0, 0.0)

    @pytest.mark.parametrize("x, u", [("1", 0.5), (True, 0.5), (1.0, "0.5"), (1.0, None)])
    def test_rejects_bad_argument_types(self, x, u):
        with pytest.raises(DomainError, match="must be finite"):
            cosine_series(x, u)

    def test_x_domain(self):
        with pytest.raises(DomainError):
            cosine_series(0.0, 0.5)
        with pytest.raises(DomainError):
            cosine_series(2 * math.pi, 0.5)

    @given(x=st.floats(0.3, 2 * math.pi - 0.3), u=st.floats(0.05, 5.95))
    @settings(max_examples=40, deadline=None)
    def test_partial_sum_agreement_randomized(self, x, u):
        if abs(u - round(u)) < 1e-3:
            return
        reference, bound = oracles.cosine_partial_sum(x, u, 1e-9)
        assert cosine_series(x, u) == pytest.approx(reference, abs=1e-8 + bound)
