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


def lobatto_rule():
    """The 9-point Gauss–Lobatto nodes and weights on ``[0, 1]`` in 50-digit
    ``mpmath``: the ends and the roots of ``128 P_8'(t) = 51480 t^7 - 72072
    t^5 + 27720 t^3 - 2520 t`` mapped from ``[-1, 1]``, with weights ``1 /
    (72 P_8(t)^2)``."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        roots = mpmath.polyroots([51480, 0, -72072, 0, 27720, 0, -2520, 0], maxsteps=200, extraprec=200)
        ts = [mpmath.mpf(-1), *sorted(mpmath.re(t) for t in roots), mpmath.mpf(1)]
        return ([(1 + t) / 2 for t in ts], [1 / (72 * mpmath.legendre(8, t) ** 2) for t in ts])


def correctly_rounded(x, exact):
    """Whether the float ``x`` is a nearest binary64 value to ``exact``."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        return all(abs(mpmath.mpf(x) - exact) <= abs(mpmath.mpf(math.nextafter(x, side)) - exact)
                   for side in (-math.inf, math.inf))


def test_nodes_and_weights_are_correctly_rounded():
    mpmath = pytest.importorskip("mpmath")
    nodes, weights = lobatto_rule()
    assert quadrature._NODES.shape == (9, 1)
    assert all(correctly_rounded(x, exact) for x, exact in zip(quadrature._NODES.ravel().tolist(), nodes))
    assert all(correctly_rounded(w, exact) for w, exact in zip(quadrature._WEIGHTS, weights))
    with mpmath.workdps(50):
        assert abs(mpmath.fsum(weights) - 1) < mpmath.mpf(10) ** -45


def test_the_rule_is_symmetric_about_the_midpoint():
    mpmath = pytest.importorskip("mpmath")
    nodes, weights = lobatto_rule()
    x = quadrature._NODES.ravel().tolist()
    with mpmath.workdps(50):
        for i in range(9):
            assert abs(nodes[i] + nodes[8 - i] - 1) < mpmath.mpf(10) ** -45
            assert abs(weights[i] - weights[8 - i]) < mpmath.mpf(10) ** -45
            assert abs(mpmath.mpf(x[i]) + mpmath.mpf(x[8 - i]) - 1) <= mpmath.mpf(2) ** -53
    # (x - 1/2)^15 is odd about the midpoint: its integral is 0 to rounding.
    (value,) = integrate(keyed(lambda x: (x - 0.5) ** 15), [0.0], [1.0])
    assert abs(value) <= 1e-20


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 2.0), (3.0, 3.5)])
def test_degree_15_polynomials_are_exact_to_rounding(seed, a, b):
    mpmath = pytest.importorskip("mpmath")
    coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, 16).tolist()

    def poly(x):
        out = np.zeros_like(x)
        for c in reversed(coeffs):
            out = out * x + c
        return out

    with mpmath.workdps(50):
        exact = mpmath.fsum(c * (mpmath.mpf(b) ** (j + 1) - mpmath.mpf(a) ** (j + 1)) / (j + 1)
                            for j, c in enumerate(coeffs))
        scale = mpmath.quad(lambda x: abs(mpmath.polyval(coeffs[::-1], x)), [a, b])
        (value,) = integrate(keyed(poly), [a], [b])
        assert abs(value - exact) <= 1e-15 * scale


def test_degree_16_is_not_exact():
    # The rule's remainder on x^16 over [0, 1] is 16! 2.5e-18 / 2^17, about 4e-10.
    (value,) = integrate(keyed(lambda x: x ** 16), [0.0], [1.0])
    assert abs(value - 1 / 17) > 1e-10


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
    assert [c.size for c in calls] == [9 * min(chunk, n - i) for i in range(0, n, chunk)]
    assert (np.bincount(np.concatenate(calls), minlength=n) == 9).all()
    # Every panel keeps the bits of its forward integral alone, negated if reversed.
    for i in sorted({0, min(1, n - 1), n // 2, n - 1}):
        alone = integrate(lambda key_x: f((key_x[0] + i, key_x[1])), [float(i)], [i + 1.0])
        assert values[i] == (-1.0 if reversed_[i] else 1.0) * alone[0]


def test_one_panel_takes_one_call_of_its_nine_points():
    calls = []

    def cubic(key_x):
        _, x = key_x
        calls.append(x.tolist())
        return x ** 3

    integrate(cubic, [0.0], [2.0])
    assert calls == [(2.0 * quadrature._NODES.ravel()).tolist()]


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
