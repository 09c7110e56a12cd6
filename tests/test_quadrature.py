import math

import numpy as np
import pytest

from qcarnot import QuadratureError, quadrature
from qcarnot.quadrature import integrate


def keyed(*gs):
    """The integrand in the ``(key, x)`` form that applies ``gs[k]`` to the
    abscissae of key ``k``."""
    def f(key_x):
        key, x = key_x
        out = np.empty_like(x)
        for k, g in enumerate(gs):
            out[key == k] = g(x[key == k])
        return out
    return f


def test_polynomial_is_exact():
    (value,), (estimate,) = integrate(keyed(lambda x: x ** 3), [0.0], [2.0])
    assert value == pytest.approx(4.0, rel=1e-14)
    assert estimate <= 1e-12


def test_inverse_width_matches_log():
    (value,), _ = integrate(keyed(lambda x: 1.0 / x), [1.0], [2.0], rel_tol=1e-12)
    assert value == pytest.approx(math.log(2), rel=1e-12)


def test_reversed_limits_negate():
    (forward,), _ = integrate(keyed(lambda x: 1.0 / x ** 3), [1.0], [3.0])
    (backward,), _ = integrate(keyed(lambda x: 1.0 / x ** 3), [3.0], [1.0])
    assert backward == pytest.approx(-forward, rel=1e-14)


def test_zero_length_interval():
    values, estimates = integrate(keyed(lambda x: x), [2.0], [2.0])
    assert (values.tolist(), estimates.tolist()) == ([0.0], [0.0])


def test_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 8)
    with pytest.raises(QuadratureError, match=r"^quadrature did not converge within 8 intervals$"):
        integrate(keyed(lambda x: np.sin(50 * x) ** 2 / (x + 0.01)), [0.0], [10.0], rel_tol=1e-14)


def test_estimate_bounds_true_error():
    (value,), (estimate,) = integrate(keyed(lambda x: np.exp(-x) * np.cos(3 * x)), [0.0], [4.0],
                                      rel_tol=1e-10)
    exact = (3 * math.sin(12.0) - math.cos(12.0)) * math.exp(-4.0) / 10.0 + 0.1
    assert abs(value - exact) <= max(estimate, 1e-13)


@pytest.mark.parametrize("R", [10.0, 300.0, 1000.0, 1e4])
def test_tolerance_anchored_on_refined_value(R):
    # The first coarse Simpson value overestimates ln R by up to ~24x on
    # these ranges; the estimate must still meet rel_tol against the result.
    rel_tol = 1e-10
    (value,), (estimate,) = integrate(keyed(lambda x: 1.0 / x), [1.0], [R], rel_tol=rel_tol)
    assert estimate <= rel_tol * abs(value)
    assert abs(value - math.log(R)) <= rel_tol * math.log(R)


def test_one_vectorised_call_per_level():
    calls = []

    def f(key_x):
        _, x = key_x
        calls.append(x)
        return np.exp(-x) * np.cos(3 * x)

    integrate(f, [0.0], [4.0], rel_tol=1e-10)
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

    def cubic(key_x):
        _, x = key_x
        calls.append(x.size)
        return x ** 3

    integrate(cubic, [0.0], [2.0])
    assert calls == [5]


def _wave(x):
    return np.exp(-x) * np.cos(3 * x)


def _inverse(x):
    return 1.0 / x


def test_keys_meet_their_own_tolerance():
    # Values 1e12 apart: under one shared anchor the small key would be
    # left unrefined.
    rel_tol = 1e-10
    values, estimates = integrate(keyed(_inverse, lambda x: 1e12 / x), [1.0, 1.0], [1e4, 1e4],
                                  rel_tol=rel_tol)
    exact = np.array([1.0, 1e12]) * math.log(1e4)
    assert (estimates <= rel_tol * np.abs(values)).all()
    assert (np.abs(values - exact) <= rel_tol * exact).all()


def test_zero_length_key_beside_live_keys():
    seen = []
    f = keyed(_wave, _inverse, _inverse)

    def spy(key_x):
        seen.append(key_x[0])
        return f(key_x)

    values, estimates = integrate(spy, [0.0, 3.0, 1.0], [4.0, 3.0, 2.0])
    assert (values[1], estimates[1]) == (0.0, 0.0)
    assert 1 not in np.concatenate(seen)
    assert values[0] == integrate(keyed(_wave), [0.0], [4.0])[0][0]
    assert values[2] == pytest.approx(math.log(2), rel=1e-10)


def test_reversed_keys_negate():
    cube = keyed(lambda x: 1.0 / x ** 3, lambda x: 1.0 / x ** 3)
    values, estimates = integrate(cube, [1.0, 3.0], [3.0, 1.0])
    assert values[1] == pytest.approx(-values[0], rel=1e-14)
    assert estimates[1] == estimates[0]


def test_one_call_per_level_across_keys():
    def levels(gs, a, b):
        calls = []
        f = keyed(*gs)

        def counted(key_x):
            calls.append(sorted(set(key_x[0].tolist())))
            return f(key_x)

        integrate(counted, a, b)
        return calls

    cases = [(_wave, 0.0, 4.0), (_inverse, 1.0, 1e4), (_inverse, 1.0, 2.0)]
    alone = [len(levels([g], [a], [b])) for g, a, b in cases]
    together = levels(*zip(*cases))
    assert len(together) == max(alone) > min(alone)
    assert together[0] == [0, 1, 2]


@pytest.mark.parametrize("a, b", [(0.0, 1.0), ([0.0, 1.0], [1.0]), ([[0.0]], [[1.0]])])
def test_limits_must_be_equal_length_vectors(a, b):
    with pytest.raises(ValueError, match="1-D of equal length"):
        integrate(keyed(_wave), a, b)
