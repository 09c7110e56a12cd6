import math

import numpy as np
import pytest

from qcarnot import quadrature
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


def panels(lo, hi, n):
    """The left and right edges of ``n`` equal panels of ``[lo, hi]``."""
    edges = np.linspace(lo, hi, n + 1)
    return edges[:-1], edges[1:]


def _wave(x):
    return np.exp(-x) * np.cos(3 * x)


def _inverse(x):
    return 1.0 / x


def test_polynomial_is_exact():
    (value,) = integrate(keyed(lambda x: x ** 3), [0.0], [2.0])
    assert value == pytest.approx(4.0, rel=1e-14)


def test_inverse_width_matches_log():
    values = integrate(keyed(*[_inverse] * 64), *panels(1.0, 2.0, 64))
    assert values.sum() == pytest.approx(math.log(2), rel=1e-12)


def test_reversed_limits_negate():
    (forward,) = integrate(keyed(lambda x: 1.0 / x ** 3), [1.0], [3.0])
    (backward,) = integrate(keyed(lambda x: 1.0 / x ** 3), [3.0], [1.0])
    assert backward == pytest.approx(-forward, rel=1e-14)


def test_zero_length_interval():
    values = integrate(keyed(lambda x: x), [2.0], [2.0])
    assert values.tolist() == [0.0]


@pytest.mark.parametrize("n", [1, 5, quadrature._CHUNK, quadrature._CHUNK + 1,
                               2 * quadrature._CHUNK + 3])
def test_one_call_per_chunk_evaluates_each_panel_once(n):
    # Key k lies on [k, k + 1], reversed for every third k.
    k = np.arange(n)
    reversed_ = k % 3 == 0
    a, b = np.where(reversed_, k + 1.0, k), np.where(reversed_, k, k + 1.0)
    calls = []

    def f(key_x):
        key, x = key_x
        calls.append(key)
        return (1.0 + key) * np.exp(-0.001 * x)

    values = integrate(f, a, b)
    chunk = quadrature._CHUNK
    assert [c.size for c in calls] == [5 * min(chunk, n - i) for i in range(0, n, chunk)]
    assert (np.bincount(np.concatenate(calls), minlength=n) == 5).all()
    # Every panel keeps the bits of its forward integral alone, negated if reversed.
    for i in sorted({0, min(1, n - 1), n // 2, n - 1}):
        alone = integrate(lambda key_x: f((key_x[0] + i, key_x[1])), [float(i)], [i + 1.0])
        assert values[i] == (-1.0 if reversed_[i] else 1.0) * alone[0]


def test_one_panel_takes_one_call_of_its_five_points():
    calls = []

    def cubic(key_x):
        _, x = key_x
        calls.append(x.tolist())
        return x ** 3

    integrate(cubic, [0.0], [2.0])
    assert calls == [[0.0, 0.5, 1.0, 1.5, 2.0]]


def test_zero_length_key_beside_live_keys():
    seen = []
    f = keyed(_wave, _inverse, _inverse)

    def spy(key_x):
        seen.append(key_x[0])
        return f(key_x)

    values = integrate(spy, [0.0, 3.0, 1.0], [4.0, 3.0, 2.0])
    assert values[1] == 0.0
    assert 1 not in np.concatenate(seen)
    assert values[0] == integrate(keyed(_wave), [0.0], [4.0])[0]
    assert values[2] == integrate(keyed(_inverse), [1.0], [2.0])[0]
    assert values[2] == pytest.approx(math.log(2), rel=1e-3)


def test_reversed_keys_negate():
    cube = keyed(lambda x: 1.0 / x ** 3, lambda x: 1.0 / x ** 3)
    values = integrate(cube, [1.0, 3.0], [3.0, 1.0])
    assert values[1] == pytest.approx(-values[0], rel=1e-14)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), ([0.0, 1.0], [1.0]), ([[0.0]], [[1.0]])])
def test_limits_must_be_equal_length_vectors(a, b):
    with pytest.raises(ValueError, match="1-D of equal length"):
        integrate(keyed(_wave), a, b)
