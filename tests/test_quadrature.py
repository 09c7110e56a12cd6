import math

import numpy as np
import pytest

from qcarnot import QuadratureError
from qcarnot.quadrature import integrate


def test_polynomial_is_exact():
    value, estimate = integrate(lambda x: x ** 3, 0.0, 2.0)
    assert value == pytest.approx(4.0, rel=1e-14)
    assert estimate <= 1e-12


def test_inverse_width_matches_log():
    value, _ = integrate(lambda x: 1.0 / x, 1.0, 2.0, rel_tol=1e-12)
    assert value == pytest.approx(math.log(2), rel=1e-12)


def test_reversed_limits_negate():
    forward, _ = integrate(lambda x: 1.0 / x ** 3, 1.0, 3.0)
    backward, _ = integrate(lambda x: 1.0 / x ** 3, 3.0, 1.0)
    assert backward == pytest.approx(-forward, rel=1e-14)


def test_zero_length_interval():
    assert integrate(lambda x: x, 2.0, 2.0) == (0.0, 0.0)


def test_budget_exhaustion_carries_partial():
    with pytest.raises(QuadratureError) as excinfo:
        integrate(lambda x: np.sin(50 * x) ** 2 / (x + 0.01), 0.0, 10.0,
                  rel_tol=1e-14, max_intervals=8)
    assert excinfo.value.partial is not None
    assert math.isfinite(excinfo.value.partial)


def test_estimate_bounds_true_error():
    value, estimate = integrate(lambda x: np.exp(-x) * np.cos(3 * x), 0.0, 4.0,
                                rel_tol=1e-10)
    exact = (3 * math.sin(12.0) - math.cos(12.0)) * math.exp(-4.0) / 10.0 + 0.1
    assert abs(value - exact) <= max(estimate, 1e-13)


@pytest.mark.parametrize("R", [10.0, 300.0, 1000.0, 1e4])
def test_tolerance_anchored_on_refined_value(R):
    # The first coarse Simpson value overestimates ln R by up to ~24x on
    # these ranges; the estimate must still meet rel_tol against the result.
    rel_tol = 1e-10
    value, estimate = integrate(lambda x: 1.0 / x, 1.0, R, rel_tol=rel_tol)
    assert estimate <= rel_tol * abs(value)
    assert abs(value - math.log(R)) <= rel_tol * math.log(R)


def test_one_vectorised_call_per_level():
    calls = []

    def f(x):
        calls.append(x)
        return np.exp(-x) * np.cos(3 * x)

    integrate(f, 0.0, 4.0, rel_tol=1e-10)
    assert all(isinstance(x, np.ndarray) and x.ndim == 1 for x in calls)
    assert calls[0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    # Every level evaluates only new abscissae, four per split panel, in one call.
    points = np.concatenate(calls)
    assert np.unique(points).size == points.size
    assert all(x.size % 4 == 0 for x in calls[1:])
    assert len(calls) < 20
    assert points.size > 50 * len(calls)



def test_exact_integrand_needs_one_level():
    calls = []

    def cubic(x):
        calls.append(x.size)
        return x ** 3

    integrate(cubic, 0.0, 2.0)
    assert calls == [5]
