"""Sudden (free) expansion: overlap coefficients and certified series sums.

When the wall jumps instantly from ``L`` to ``alpha * L`` the old modes
re-expand in the new basis.  The overlap of old level ``n`` with new level
``m`` has the closed form

    b(m, n) = 2 n alpha^(3/2) (-1)^n sin(m pi / alpha) / (pi (m^2 - alpha^2 n^2)),

which :func:`overlap_coefficient` evaluates, for ``m`` within one of the
resonance ``m = alpha n``, through the equivalent cancellation-free rewrite

    b(m, n) = 2 n sqrt(alpha) * sinc((m - alpha n) / alpha) / (m + alpha n),

using ``sinc(x) = sin(pi x)/(pi x)``.  The rewrite is exact for every
``m, n`` and continuous through the resonance, where it yields the limit
``1 / sqrt(alpha)``.  Farther out it uses the closed form with
``sin(m pi / alpha) = (-1)^k sin(pi r / alpha)`` on the exactly reduced
``m = k alpha + r``, ``|r| <= alpha / 2``.  That keeps full relative
accuracy where ``m / alpha`` is close to an integer; the sinc of an
argument close to a nonzero integer does not, because ``pi x`` is rounded
first.

Mean energy is conserved by the jump: for every level ``n`` and ratio
``alpha > 1`` the energy-weighted squares satisfy

    sum_m 4 alpha m^2 sin^2(m pi / alpha) / (pi^2 (m^2 - alpha^2 n^2)^2) = 1.

Whole series of squares go through one block kernel.  With ``a = alpha n``
and ``c = sqrt(4 alpha / pi^2)``,

    b(m, n)^2 = (c sin(pi m / alpha))^2 * (a / (m^2 - a^2))^2,

and the energy-weighted term is ``(c sin(pi m / alpha) m / (m^2 - a^2))^2``.
Neither the scaled sine nor ``m^2`` depends on ``n``, so the kernel computes
both once per index ``m``, and each level adds only its rational factor: a
subtract, a divide, a square and an add per index.  It calls no
transcendental function per index: with ``theta = pi / alpha``, each call
tabulates ``c sin(theta i)`` and ``c cos(theta i)`` for the offsets ``i``
within a block, each block starting at ``s`` takes ``sin(theta s)`` and
``cos(theta s)`` once, and

    sin(theta (s + i)) = sin(theta s) cos(theta i) + cos(theta s) sin(theta i)

costs two multiplies and an add.  Both arguments are reduced modulo
``alpha``, the period of ``sin^2(theta m)``: the block start exactly, with
:func:`math.fmod`, the offsets to within an ulp.  Each reduction by ``k
alpha`` flips the sign of its sine and cosine by ``(-1)^k``, which the
square removes.  Each sine is then off by less than about 1e-15 in absolute
terms for every ``m``, and the error does not grow from block to block; a
sine of ``m - alpha * rint(m / alpha)`` reduced in binary64 is off by up to
about ``m * 1e-16``.  The error is absolute, not relative, so where ``sin(pi
m / alpha)`` is itself small only its smallness counts.  The sine is exactly
0 where ``m / alpha`` is an integer: with the binary64 ``alpha = p / q`` in
lowest terms (:meth:`float.as_integer_ratio`), where ``p`` divides ``m``.
The kernel writes exact zeros there and nowhere else, so the 1e-15 holds
for every ``m``, those zeros included.  Only a short fraction, such as 2.5
or ``1 + 2**-20``, has ``p`` within reach; the binary64 value of 1.3 has
``p`` near ``1.3 * 2**52``, and its sine at ``m = 13``, about 1.1e-15, is
computed like any other.

The denominator ``m^2 - a^2`` takes ``a`` and ``a^2`` rounded, so near ``m =
a`` it cancels: against the exact ``alpha n`` it is off by up to ``0.75 eps
a / |m - a|`` relative (``eps = 2**-52``), and the term by twice that.
Rounding ``alpha n`` alone already puts ``eps a / |m - a|`` on the term;
both are a few ulps unless ``m`` is within a small fraction of ``a`` of the
resonance.  The one or two ``m`` within one of ``a`` (the exact resonance
among them, where the quotient is 0/0) take the sinc form above instead.
Indices run in blocks that fit a per-core L2 cache, with preallocated
buffers, and block sums are added with :func:`math.fsum`.

With weights ``w_n``, the rational factor of an index above the largest
pole ``a_max`` is also a series of positive terms in ``t = a_max^2 / m^2``:

    sum_n w_n a_n^2 / (m^2 - a_n^2)^2 = (t^2 / a_max^2) sum_k (k + 1) P_k t^k,

    P_k = sum_n w_n (a_n / a_max)^(2k + 2),

with the ``P_k`` taken once per call by :func:`math.fsum`.  A block whose
first index ``s`` lies above ``a_max``, and which holds no index within one
of a pole, is cut after the least power ``t^K`` with ``(K + 2) y^(K + 1) /
(1 - y)^2 <= 2**-56``, ``y = (a_max / s)^2 >= t``.  As ``P_k <= P_0``, the
neglected terms are then at most ``2**-56`` of the sum.  Horner's rule takes
``2K + 3`` passes per index where the levels take four each, and a block
takes the series only where that is fewer (``K <= 2 * levels - 2``, and ``K
<= 64``).  The energy-weighted terms, and weights on one or two levels, keep
the per-level passes.

In binary64 the series is evaluated on the same rounded poles ``a_n`` as
the per-level passes.  ``t`` takes three roundings, so ``t^(k + 2)`` carries
``3k + 6``; the coefficient ``(k + 1) P_k / a_max^2`` takes ``4k + 8``; and
Horner's rule, forward stable with positive coefficients at ``t > 0``
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., sec.
5.1), adds ``2k + 3`` to that term.  As every term is positive, the computed
series is within ``gamma_(9K + 17)`` relative of the exact one, with
``gamma_j = j u / (1 - j u)`` and ``u = 2**-53``: 4.9e-15 at ``K = 3``, the
order of the benchmark's nine-level expansion.  Its truncation adds at most
``2**-56``.

The identity's single-level energy series takes a moment path past the head
``H = max(2**14, ceil(4 a))``, so that ``a / m <= 1/4`` there; the head keeps
the per-index path, with its resonances and exact zeros.  Past ``H`` the
indices run in blocks ``m = s + i``, ``i < w``, up to the cutoff ``M``: a
block at ``s`` takes the largest power of two ``w`` with ``64 w <= s`` and
``s + w - 1 <= M`` (:func:`_moment_schedule`).  So ``w / s <= 1/64`` in
every block, the width doubles every 64 blocks, and the end of the range
steps down through smaller widths, to 1 if need be.  The block count grows
with ``log M``, not ``M``: 525 blocks at ``M = 4.6e6``, 2,541 at ``M = 2**53
- 1``.  With ``x = i / w``, ``rho = w / s``, ``eps = (a / s)^2`` and ``u = m
/ s = 1 + rho x``, expanding ``u^2 / (u^2 - eps)^2 = sum_j (j + 1) eps^j
u^(-2j - 2)`` in ``rho x`` gives

    m^2 / (m^2 - a^2)^2 = s^-2 sum_k (-rho x)^k A_k(eps),

    A_k(eps) = sum_j (j + 1) C(2j + 1 + k, k) eps^j,

and ``sin^2(theta m) = (1 - cos(phi_s) cos(2 theta i) + sin(phi_s) sin(2
theta i)) / 2`` with ``phi_s = 2 theta s`` on ``s`` reduced exactly modulo
``alpha``.  So a block sums to

    (c^2 / (2 s^2)) sum_k (-rho)^k A_k(eps) (P_k - cos(phi_s) C_k + sin(phi_s) S_k),

where ``P_k``, ``C_k`` and ``S_k`` sum ``x^k``, ``cos(2 theta i) x^k`` and
``sin(2 theta i) x^k`` over ``i < w``.  The tables start at width 1, where
``x = 0`` alone, and each width ``2w`` comes from width ``w`` by one
doubling (:func:`_moment_tables`): with ``T_k = C_k + i S_k``,

    T_k(2w) = 2^-k [T_k(w) + e^(2i theta w) sum_l C(k, l) T_l(w)],

and ``P_k`` alike without the rotation, whose ``w`` is reduced exactly
modulo ``alpha`` with :func:`math.fmod`.  A doubling is a few elementwise
numpy passes over ``(K + 1)^2`` entries, with no BLAS call, and a block
costs a few hundred flops whatever its width, where the per-index path
takes about ten passes over each index.  Every block is summed at the one
order pair below, all of them as arrays in one call, and all block sums,
the head's and the moment path's, are added by one :func:`math.fsum`.

*Truncation.*  With ``b = a / s <= 1/4``, the partial fractions of
``u^2 / (u^2 - b^2)^2`` give ``A_k <= (k + 1) (1 - b)^-(k + 2)``, and ``s^2
m^2 / (m^2 - a^2)^2 >= (1 + rho)^-2`` in the block.  So cutting the sum over
``k`` after ``rho^K`` errs per index by at most ``((1 + rho) / (1 - b))^2 (K
+ 2) q^(K + 1) / (1 - q)^2`` relative, ``q = rho / (1 - b)``.  As ``sum_k
C(2j + 1 + k, k) rho^k = (1 - rho)^-(2j + 2)``, cutting every ``A_k`` after
``eps^J`` errs by at most ``((1 + rho) / (1 - rho))^2 (J + 2) y^(J + 1) / (1
- y)^2``, ``y = eps / (1 - rho)^2``.  :func:`_moment_orders` takes the least
``K`` and ``J`` that keep each at most ``2**-57`` at ``rho = 1/64`` and ``b =
1/4``, the largest any block has: ``K = 11``, ``J = 15``.  As ``sin^2 >=
0``, the truncated blocks are within ``2**-56`` relative of the exact sum
they replace.

*Rounding.*  Let ``delta = (4 pi + 2) u`` and ``f(m) = m^2 / (m^2 -
a^2)^2``.  Then:

- the tables: the cosine and sine of the rotation ``2 theta w`` and of
  ``phi_s`` are each off by at most ``delta`` absolute (the rounded ``2 pi
  / alpha``, the product, the function, on an exactly reduced argument).
  As ``|C_l|, |S_l| <= P_l``, a doubling's binomial sums, rotation and add
  put at most about ``1.5 gamma_(K + 4) + 2 delta`` of the ``P``-scaled
  tables on each entry, and carry the errors of width ``w`` over unchanged
  relative to ``P_k``.  Width ``2**D`` takes ``D`` doublings, ``D <= 47``
  for ``M <= 2**53``, so every entry is within ``tau P_k``, ``tau = D (1.5
  gamma_(K + 4) + 2 delta)``;
- the Horner steps in ``eps``: ``eps`` takes two roundings and the
  coefficients are exact integers, so with positive terms ``A_k`` is within
  ``gamma_(4J + 1)`` relative;
- the block combination: the bracket is within ``(3 tau + 3 gamma_4 + 2
  delta) P_k``, and its product with ``A_k``, the Horner steps in ``-rho``
  and the scale ``c^2 / (2 s^2)`` add ``gamma_(3K + 8)``.

As ``sum_k rho^k A_k x^k = s^2 f(s (1 - rho x)) <= 1.08 s^2 f(m)``, a block
errs by at most ``1.62 (gamma_N + 3 tau + 2 delta) c^2 sum_m f(m)`` over its
indices, ``N = 4J + 3K + 21``.  Past ``H >= 4 alpha n``, ``c^2 sum_m f(m) <=
(16/15)^2 c^2 / H <= 0.116 / n``, so the moment path errs by at most ``0.19
(gamma_N + 3 tau + 2 delta) / n`` absolute, with ``D`` that of the widest
block: about ``4.2e-14 / n`` at ``K = 11``, ``J = 15`` and ``D = 12`` (``w
= 4096``), and ``1.6e-13 / n`` at ``D = 47``; the final :func:`math.fsum`
adds half an ulp.  That is a worst case.  The tables' entries stay within
a few ulps of their own size at every width, as each rotation is by an
exactly reduced ``w``; by the unreduced ``2 theta w`` a rotation would err
by about ``w`` ulps.  On the tests' grid of ratios and levels the two paths differ by at most ``1.2e-16``, and
its blocks of width ``2**12`` and ``2**14`` at starts near ``2**45`` and
``2**52`` match 50-digit sums to within an ulp.

:func:`verify_energy_identity` certifies the identity numerically: it sums
the series up to ``M`` terms, as above, and bounds the neglected tail above
by splitting ``sin^2 = 1/2 - cos/2``.  The monotone half is bounded by the
integral of its envelope from ``M``, in closed form, and the oscillatory
half by summation by parts against the Dirichlet-kernel bound
``1 / sin(pi / alpha)``.  The same bound certifies the truncation of
:func:`post_expansion_distribution`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxmodel import MixedState, _check_int, _check_real, _check_type
from .errors import DomainError, TruncationError, VerificationError

# Indices per block of the series kernel: its four float64 buffers (m, m^2,
# sine, and the denominator or the far-field series' t), a fifth for the
# terms when the caller passes no output array, and the scaled sine and cosine
# tables of this length (768 to 896 KiB) stay in a per-core L2 cache.  The
# table's argument reduction needs _BLOCK <= 2**14.
_BLOCK = 1 << 14

# Relative truncation error of the far-field series of the weighted kernel,
# and its largest order: the (K + 1) coefficient sums over the levels then
# cost less than one block of the per-level passes they replace.
_SERIES_TOL = 2.0 ** -56
_SERIES_MAX_ORDER = 64

# The identity's series takes its indices past the head max(_MOMENT_HEAD,
# ceil(4 alpha n)) in blocks of power-of-two widths at most 1/_MOMENT_SPAN of
# their start, and cuts each of the block moment path's two power series at
# _MOMENT_TOL relative (see the module docstring).
_MOMENT_HEAD = 1 << 14
_MOMENT_SPAN = 64
_MOMENT_TOL = 2.0 ** -57

# Largest term budget: series indices are float64, exact up to 2**53.
_MAX_BUDGET = 1 << 53
# Default term budget of verify_energy_identity and of `qcarnot verify-identity`,
# and the largest m_count of level_overlap_squares.
IDENTITY_TERM_BUDGET = 100_000_000


@dataclass(frozen=True)
class TruncationReport:
    """Outcome of a certified series truncation.

    ``terms_used`` is the cutoff ``M``; ``tail_bound`` is a rigorous upper
    bound on what the truncation neglects; ``achieved_sum`` is the partial
    sum over the ``M`` kept terms (for the energy identity, its terms past
    the head are summed from block moments, not one by one).
    """

    terms_used: int
    tail_bound: float
    achieved_sum: float


def _check_alpha(alpha, strict: bool = False) -> float:
    alpha = _check_real(alpha, "alpha")
    if alpha < 1.0 or (strict and alpha == 1.0):
        requirement = "exceed 1" if strict else "be at least 1"
        raise DomainError(f"alpha must {requirement}, got {alpha!r}")
    return alpha


def overlap_coefficient(n, m, alpha) -> float:
    """Overlap of old level ``n`` with new level ``m`` after widening by ``alpha``.

    ``alpha = 1`` gives the Kronecker delta; ``m = alpha n`` gives the
    resonant limit ``1/sqrt(alpha)``.
    """
    n = _check_int(n, "n")
    m = _check_int(m, "m")
    alpha = _check_alpha(alpha)
    if alpha == 1.0:
        return 1.0 if m == n else 0.0
    a = alpha * n
    if a == math.inf:  # |b| <= 2 m sqrt(n) / a^(3/2) underflows to 0
        return 0.0
    if abs(m - a) < 1.0:
        return 2.0 * n * math.sqrt(alpha) * float(np.sinc((m - a) / alpha)) / (m + a)
    # Away from resonance, the closed form on the exactly reduced argument:
    # m = k alpha + r with |r| <= alpha / 2, sin(pi m / alpha) = (-1)^k sin(pi r / alpha).
    # With alpha = p / q, k and r q are the integer quotient and remainder of
    # m q by p: k is exact for every m, and r = rest / q is rounded once.
    p, q = alpha.as_integer_ratio()
    k, rest = divmod(m * q, p)
    r = rest / q
    if r > 0.5 * alpha:
        r -= alpha
        k += 1
    sign = -1.0 if (n + k) % 2 else 1.0
    # Dividing twice keeps (m - a) (m + a) from overflowing for huge alpha.
    return sign * 2.0 * math.sqrt(alpha) / math.pi * math.sin(math.pi * r / alpha) * (
        a / (m - a) / (m + a)
    )


def _series_order(y: float, cap: int, tol: float = _SERIES_TOL) -> int | None:
    """Least ``K <= cap`` with ``(K + 2) y^(K + 1) / (1 - y)^2 <= tol``, or
    ``None``; ``0 <= y < 1``.  The far-field series cut after the power
    ``t^K``, ``t <= y``, then errs by at most ``tol`` relative."""
    bound = tol * (1.0 - y) ** 2
    power = y
    for order in range(cap + 1):
        if (order + 2) * power <= bound:
            return order
        power *= y
    return None


def _series_coefficients(poles, weights, top: float, order: int) -> list[float]:
    """The far-field coefficients ``c_k = (k + 1) P_k / a_max^2``,
    ``P_k = sum_n w_n (a_n / a_max)^(2k + 2)``, for ``k = 0 .. order``."""
    ratio = (np.array(poles) / top) ** 2
    power = np.array(weights, dtype=np.float64)
    coefficients = []
    for k in range(order + 1):
        power *= ratio
        coefficients.append((k + 1) * math.fsum(power.tolist()) / (top * top))
    return coefficients


def _reduced_offsets(alpha: float, count: int) -> np.ndarray:
    """The offsets ``i = 0 .. count - 1`` reduced to ``r = i - alpha k`` in
    ``[-alpha/2, alpha/2]``, ``k = rint(i / alpha)``, ``count <= 2**14``.

    With ``alpha`` split into a 39-bit head and a tail, ``k < 2**14`` times
    the head and its difference from ``i`` are exact, so ``r`` is off by an
    ulp at most.
    """
    unit = math.ldexp(1.0, math.frexp(alpha)[1] - 39)
    head = math.floor(alpha / unit) * unit
    offsets = np.arange(count, dtype=np.float64)
    turns = np.rint(offsets / alpha)
    offsets -= turns * head
    offsets -= turns * (alpha - head)
    return offsets


def _square_block_sums(alpha: float, terms: int, levels, weights=None, out=None,
                       first: int = 1) -> list[float]:
    """Block sums of a series of squared overlaps over ``m = first .. terms``.

    With ``weights``, term ``m`` is ``sum_n w_n b(m, n)^2``; without, it is
    ``sum_n (m / (alpha n))^2 b(m, n)^2``, the energy-weighted terms of the
    identity.  ``alpha > 1``.  Terms are computed one block of indices at a
    time; ``out``, if given, receives term ``m`` at index ``m - first``.
    """
    energy = weights is None
    if energy:
        weights = [1.0] * len(levels)
    poles = [alpha * int(n) for n in levels]
    numerators = [a * math.sqrt(float(w)) for a, w in zip(poles, weights)]
    # (m, level index, exact term): the m within one of a resonance.
    near = []
    for j, (n, w, a) in enumerate(zip(levels, weights, poles)):
        for m in (math.floor(a), math.floor(a) + 1):
            if first <= m <= terms and abs(m - a) < 1.0:
                factor = (m / a) ** 2 if energy else float(w)
                sinc = float(np.sinc((m - a) / alpha))
                near.append((m, j, factor * 4.0 * n * n * alpha * sinc * sinc / (m + a) ** 2))
    # alpha = p / q in lowest terms, so sin(pi m / alpha) = sin(pi m q / p) is
    # exactly 0 where p divides m, and only there.
    period = alpha.as_integer_ratio()[0]
    # Weighted blocks above the largest pole may take the far-field series.
    top = max(poles)
    far_field = not energy and len(poles) >= 3
    order_cap = min(2 * len(poles) - 2, _SERIES_MAX_ORDER)
    coefficients = []

    # sin(theta i) and cos(theta i) for the offsets i in a block, on reduced
    # arguments, both times sqrt(4 alpha / pi^2).
    theta = math.pi / alpha
    width = min(_BLOCK, terms + 1 - first)
    phase = _reduced_offsets(alpha, width)
    phase *= theta
    root_scale = math.sqrt(4.0 * alpha / math.pi ** 2)
    sin_tab, cos_tab = np.sin(phase), np.cos(phase)
    sin_tab *= root_scale
    cos_tab *= root_scale
    del phase
    m_buf = np.arange(first, first + width, dtype=np.float64)
    square_buf, sine_buf, d_buf = (np.empty(width) for _ in range(3))
    acc_buf = np.empty(width) if out is None else None
    block_sums = []
    for start in range(first, terms + 1, _BLOCK):
        size = min(_BLOCK, terms + 1 - start)
        m, m2, sine, d = (b[:size] for b in (m_buf, square_buf, sine_buf, d_buf))
        values = acc_buf[:size] if out is None else out[start - first:start - first + size]
        if start > first:
            m += _BLOCK
        np.multiply(m, m, out=m2)
        # sin(theta (start + i)) = sin(theta s) cos(theta i) + cos(theta s) sin(theta i)
        # up to sign, with start reduced exactly to s like the table's offsets.
        s = math.fmod(start, alpha)
        if s > 0.5 * alpha:
            s -= alpha
        np.multiply(cos_tab[:size], math.sin(theta * s), out=sine)
        np.multiply(sin_tab[:size], math.cos(theta * s), out=d)
        np.add(sine, d, out=sine)
        if period <= terms:
            sine[-start % period::period] = 0.0
        # The energy-weighted terms square (sine m / d) whole; the weighted
        # ones add up (q / d)^2 and then take the squared sine.
        if energy:
            np.multiply(sine, m, out=sine)
        else:
            np.square(sine, out=sine)
        hits = [(m_near - start, j, term) for m_near, j, term in near
                if start <= m_near < start + size]
        order = None
        if far_field and start > top and not hits:
            order = _series_order((top / start) ** 2, order_cap)
        if order is not None:
            # Horner's rule on sum_k c_k t^(k + 1), t = a_max^2 / m^2 in d,
            # then one more factor t.
            if len(coefficients) <= order:
                coefficients = _series_coefficients(poles, weights, top, order)
            np.divide(top * top, m2, out=d)
            np.multiply(d, coefficients[order], out=values)
            for c in reversed(coefficients[:order]):
                np.add(values, c, out=values)
                np.multiply(values, d, out=values)
            np.multiply(values, d, out=values)
        else:
            for j, (a, q) in enumerate(zip(poles, numerators)):
                np.subtract(m2, a * a, out=d)
                # Near this level's resonance the sinc-form term replaces the quotient.
                for i, level, _ in hits:
                    if level == j:
                        d[i] = math.inf
                np.divide(sine if energy else q, d, out=d)
                if j == 0:
                    np.square(d, out=values)
                else:
                    np.square(d, out=d)
                    np.add(values, d, out=values)
        # The squared sines carry the 4 alpha / pi^2 scale already: scaling
        # after this product would find subnormal terms flushed to 0.
        if not energy:
            np.multiply(values, sine, out=values)
        for i, _, term in hits:
            values[i] += term
        block_sums.append(float(values.sum()))
    return block_sums


def _moment_orders(rho: float, b: float) -> tuple[int, int]:
    """Orders ``(K, J)`` of the moment path's series in ``rho`` and ``eps``
    for blocks with ``w / s <= rho <= 1/64`` and ``a / s <= b <= 1/4``: each
    series cut there errs by at most ``_MOMENT_TOL`` of the block's terms."""
    order = _series_order(
        rho / (1.0 - b), _SERIES_MAX_ORDER, _MOMENT_TOL * ((1.0 - b) / (1.0 + rho)) ** 2
    )
    depth = _series_order(
        (b / (1.0 - rho)) ** 2, _SERIES_MAX_ORDER, _MOMENT_TOL * ((1.0 - rho) / (1.0 + rho)) ** 2
    )
    return order, depth


# The one order pair of every block of the moment path, (11, 15), and the
# read-only tables of that size: C(k, l) for k, l <= K, and the coefficients
# (j + 1) C(2 j + 1 + k, k) of A_k(eps) for k <= K, j <= J.  Lower orders
# take their leading corner.
_MOMENT_ORDERS = _moment_orders(1.0 / _MOMENT_SPAN, 0.25)
_BINOMIALS = np.array([[math.comb(k, l) for l in range(_MOMENT_ORDERS[0] + 1)]
                       for k in range(_MOMENT_ORDERS[0] + 1)], dtype=np.float64)
_MOMENT_COEFFICIENTS = np.array([[(j + 1) * math.comb(2 * j + 1 + k, k)
                                  for j in range(_MOMENT_ORDERS[1] + 1)]
                                 for k in range(_MOMENT_ORDERS[0] + 1)], dtype=np.float64)
_BINOMIALS.setflags(write=False)
_MOMENT_COEFFICIENTS.setflags(write=False)


def _moment_schedule(head: int, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Starts and widths, as int64 arrays, of the blocks that tile ``m =
    head + 1 .. terms``, ``head >= 63``: a block at ``s`` takes the largest
    power of two ``w`` with ``64 w <= s`` and ``s + w - 1 <= terms``.

    Equal widths come in runs, one ``np.arange`` each: width ``w`` from ``s``
    holds while the start stays below ``128 w`` and ``w`` terms remain, so
    there are about two runs per power of two up to ``terms / 64``."""
    runs = [np.empty(0, np.int64)]
    start = head + 1
    while start <= terms:
        left = terms + 1 - start
        width = 1 << (min(start // _MOMENT_SPAN, left).bit_length() - 1)
        # At least one block: past 128 w only the terms left narrow it.
        count = max(1, min(left // width, -((start - 2 * _MOMENT_SPAN * width) // width)))
        runs.append(np.arange(start, start + count * width, width, dtype=np.int64))
        start += count * width
    starts = np.concatenate(runs)
    # The blocks tile the range, so a width is the step to the next start.
    return starts, np.diff(starts, append=terms + 1)


def _moment_tables(alpha: float, levels: int, order: int) -> np.ndarray:
    """Rows ``(P_k, C_k, S_k)``, ``k = 0 .. order``, for the widths ``w =
    2**0 .. 2**levels``: the sums over the offsets ``i < w`` of ``x^k``,
    ``cos(2 theta i) x^k`` and ``sin(2 theta i) x^k``, with ``x = i / w`` and
    ``theta = pi / alpha``; ``order`` is at most ``_MOMENT_ORDERS[0]``.

    Width 1 holds ``x = 0`` alone.  Width ``2w`` holds the offsets of ``w``
    at ``x / 2`` and, shifted by ``w``, at ``(1 + x) / 2``, which gives the
    doubling of the module docstring."""
    binomials = _BINOMIALS[:order + 1, :order + 1]
    halves = 0.5 ** np.arange(order + 1)
    tables = np.zeros((levels + 1, 3, order + 1))
    tables[0, :2, 0] = 1.0
    for level in range(levels):
        phase = math.fmod(2.0 ** level, alpha) * (2.0 * math.pi / alpha)
        cos, sin = math.cos(phase), math.sin(phase)
        p, c, s = (binomials * tables[level][:, None, :]).sum(axis=2)
        tables[level + 1] = (tables[level] + (p, cos * c - sin * s, sin * c + cos * s)) * halves
    return tables


def _moment_block_sums(alpha: float, a: float, starts, widths, order: int,
                       depth: int) -> np.ndarray:
    """Sums of the identity's terms over the blocks ``m = s .. s + w - 1``,
    ``(s, w)`` in ``zip(starts, widths)`` (integer sequences), ``w`` a power
    of two, each from the moment tables: the series in ``rho = w / s`` cut
    after ``rho^order``, each ``A_k`` after ``eps^depth``, at most the
    orders of ``_MOMENT_ORDERS``."""
    widths = np.asarray(widths, dtype=np.float64)
    # Exact: a power of two 2**r has the binary exponent r + 1.
    rows = np.frexp(widths)[1] - 1
    tables = _moment_tables(alpha, int(rows.max()), order)[rows].transpose(1, 2, 0)
    starts = np.asarray(starts, dtype=np.float64)
    coefficients = _MOMENT_COEFFICIENTS[:order + 1, :depth + 1]
    eps = (a / starts) ** 2
    # A_k(eps) by Horner's rule, for every k and block at once.
    moments = np.zeros((order + 1, starts.size))
    for j in reversed(range(depth + 1)):
        moments *= eps
        moments += coefficients[:, j, None]
    # Times the block's sin^2 moments 2 W_k = P_k - cos(phi) C_k + sin(phi) S_k.
    # cos(2 theta s) and sin(2 theta s) on s reduced exactly modulo alpha.
    phase = np.fmod(starts, alpha) * (2.0 * math.pi / alpha)
    moments *= tables[0] - tables[1] * np.cos(phase) + tables[2] * np.sin(phase)
    # Horner's rule in -rho on the sum over k.
    rho = -widths / starts
    sums = np.zeros(starts.size)
    for k in reversed(range(order + 1)):
        sums *= rho
        sums += moments[k]
    sums *= (2.0 * alpha / math.pi ** 2) / (starts * starts)
    return sums


def _energy_series(alpha: float, n: int, terms: int) -> float:
    """The identity's partial sum over ``m = 1 .. terms``: per index up to
    the head ``max(2**14, ceil(4 alpha n))``, then from block moments over
    the blocks of :func:`_moment_schedule`."""
    a = alpha * n
    head = max(_MOMENT_HEAD, math.ceil(4.0 * a))
    sums = _square_block_sums(alpha, min(terms, head), [n])
    if terms > head:
        # Every block has w / s <= 1/64 and, past the head, a / s < 1/4.
        sums += _moment_block_sums(alpha, a, *_moment_schedule(head, terms), *_MOMENT_ORDERS).tolist()
    return math.fsum(sums)


def level_overlap_squares(n, alpha, m_count: int) -> np.ndarray:
    """Squared overlaps ``b(m, n)^2`` for ``m = 1 .. m_count`` as an array.

    ``m_count`` is at most ``IDENTITY_TERM_BUDGET``, which bounds the row
    allocated (800 MB), not just the series index.
    """
    n = _check_int(n, "n")
    alpha = _check_alpha(alpha)
    m_count = _check_int(m_count, "m_count", 1, IDENTITY_TERM_BUDGET)
    row = np.zeros(m_count)
    if alpha == 1.0:
        if n <= m_count:
            row[n - 1] = 1.0
    # From a = alpha n = 2**512 on, b(m, n)^2 <= 16 m^2 n / a^3 underflows to 0
    # for every m < 2**53, and the kernel's a^2 would overflow.
    elif alpha * n < 2.0 ** 512:
        _square_block_sums(alpha, m_count, [n], [1.0], out=row)
    return row


def _energy_tail_bound(n: int, alpha: float, terms: int) -> float:
    """Certified upper bound on the energy-weighted overlap tail beyond ``terms``.

    Requires ``terms >= 2 * alpha * n`` so the envelope is decreasing past the
    cutoff and no resonance sits in the tail.
    """
    a = alpha * n
    M = float(terms)
    scale = 4.0 * alpha / math.pi ** 2
    # The monotone half's integral from M: log1p keeps full relative accuracy
    # where (M + a) / (M - a) is close to 1; the log of that ratio loses up to
    # about M / a ulps.
    integral = scale * (M / (2.0 * (M * M - a * a)) + math.log1p(2.0 * a / (M - a)) / (4.0 * a))
    # The oscillatory half: the envelope at M + 1 times the Dirichlet-kernel bound.
    x = M + 1.0
    envelope = scale * x * x / (x * x - a * a) ** 2
    return 0.5 * integral + 0.5 * envelope * (1.0 / math.sin(math.pi / alpha))


def _certified_cutoff(alpha: float, pairs, budget: int, target: float) -> tuple[int, float]:
    """Least cutoff ``M`` in ``[floor, budget]``, and its bound, with
    ``sum(share * hi_n(M)) <= target`` over the ``(level n, energy share)``
    ``pairs``; ``hi_n`` is :func:`_energy_tail_bound`, which must be
    non-increasing in ``M``.  The floor ``max(64, ceil(2 alpha n_max) + 2)``
    is the least cutoff the bound admits for levels up to ``n_max``.  The
    floor is probed first, then the budget, then the cutoffs of a bisection,
    and the bound returned is the accepted probe's: no cutoff is bounded
    twice.  Raises :class:`TruncationError` when the floor exceeds
    ``budget`` (a floor beyond ``_MAX_BUDGET`` is named in ``%.17g`` form, not
    with all its digits) or when even ``budget`` terms cannot certify the
    target."""
    try:
        floor_terms = max(64, math.ceil(2.0 * alpha * max(n for n, _ in pairs)) + 2)
    except OverflowError:
        floor_terms = math.inf
    if floor_terms > budget:
        shown = floor_terms if floor_terms <= _MAX_BUDGET else "%.17g" % floor_terms
        raise TruncationError(f"budget {budget} is below the minimum cutoff {shown}")

    def bound_at(terms: int) -> float:
        return sum(share * _energy_tail_bound(n, alpha, terms) for n, share in pairs)

    bound = bound_at(floor_terms)
    if bound <= target:
        return floor_terms, bound
    bound = bound_at(budget) if budget > floor_terms else bound
    if bound > target:
        raise TruncationError(
            f"cannot certify tail <= {target!r} within {budget} terms "
            f"(bound at budget: {bound!r})"
        )
    # bound is the bound at hi throughout.
    lo, hi = floor_terms, budget
    while lo < hi:
        mid = (lo + hi) // 2
        probe = bound_at(mid)
        if probe <= target:
            hi, bound = mid, probe
        else:
            lo = mid + 1
    return hi, bound


def verify_energy_identity(n, alpha, tol, max_terms: int = IDENTITY_TERM_BUDGET) -> TruncationReport:
    """Certify that the energy-weighted squared overlaps for level ``n`` sum to 1.

    Sums the series until the certified tail bound drops below ``tol``,
    past its head from block moments (see the module docstring), then
    checks ``|achieved_sum - 1| <= tol``.  Raises
    :class:`TruncationError` if the budget cannot certify the tolerance and
    :class:`VerificationError` (carrying the report) if the residual exceeds
    ``tol``.
    """
    n = _check_int(n, "n")
    alpha = _check_alpha(alpha, strict=True)
    tol = _check_real(tol, "tol", 0.0, 1e-4)
    max_terms = _check_int(max_terms, "max_terms", 1, _MAX_BUDGET)

    terms, bound = _certified_cutoff(alpha, [(n, 1.0)], max_terms, 0.95 * tol)
    achieved = _energy_series(alpha, n, terms)
    report = TruncationReport(terms_used=terms, tail_bound=bound, achieved_sum=achieved)
    if abs(achieved - 1.0) > tol:
        raise VerificationError(
            f"partial sum {achieved!r} misses 1 by more than {tol!r} "
            f"(residual {achieved - 1.0!r}, tail bound {bound!r})",
            report=report,
        )
    return report


def post_expansion_distribution(state: MixedState, alpha, tail_tol,
                                term_budget: int = 10_000_000) -> tuple[MixedState, TruncationReport]:
    """Populations after a sudden widening by ``alpha``, with certified truncation.

    The new population of level ``m`` is ``sum_n w_n b(m, n)^2``.  The cutoff
    ``M`` is chosen so the certified bound on the *relative energy* carried by
    the neglected levels is at most ``tail_tol``; every neglected level lies
    above the initial mean energy, so the neglected probability mass obeys the
    same bound.  The returned state is explicitly renormalized; the raw
    captured mass is reported as ``achieved_sum`` (raw weights are
    ``weights * achieved_sum``) and the certified bound as ``tail_bound``.
    """
    _check_type(state, MixedState, "state")
    alpha = _check_alpha(alpha)
    tail_tol = _check_real(tail_tol, "tail_tol", 0.0, 1e-3)
    term_budget = _check_int(term_budget, "term_budget", 1, _MAX_BUDGET)
    if alpha == 1.0:
        return state, TruncationReport(
            terms_used=int(state.levels[-1]), tail_bound=0.0, achieved_sum=1.0
        )

    levels = state.levels.astype(np.float64)
    weights = state.weights
    energy_share = weights * levels * levels
    energy_share = energy_share / energy_share.sum()
    pairs = [(int(n), float(es)) for n, es in zip(state.levels, energy_share)]
    terms, bound = _certified_cutoff(alpha, pairs, term_budget, tail_tol)

    new_weights = np.empty(terms, dtype=np.float64)
    achieved = math.fsum(_square_block_sums(alpha, terms, state.levels.tolist(),
                                            weights.tolist(), out=new_weights))
    np.divide(new_weights, achieved, out=new_weights)
    # Levels of weight exactly 0 carry no population and are dropped: with
    # alpha = p / q in lowest terms, the multiples of p, whose sine factor is
    # exactly 0 (every second level at alpha = 2).  The weights are compacted
    # in place, one block at a time, and then shrunk, which is safe as no
    # view of them is left.  A positive minimum rules out zeros without a
    # count; a NaN fails it and counts as kept, so it reaches MixedState.
    kept = terms if new_weights.min() > 0.0 else np.count_nonzero(new_weights)
    if kept == terms:
        new_levels = np.arange(1, terms + 1, dtype=np.int64)
    else:
        new_levels = np.empty(kept, dtype=np.int64)
        mask_buf = np.empty(min(_BLOCK, terms), dtype=bool)
        filled = 0
        for start in range(0, terms, _BLOCK):
            block = new_weights[start:start + _BLOCK]
            mask = np.greater(block, 0.0, out=mask_buf[:block.size])
            index = np.flatnonzero(mask)
            np.add(index, start + 1, out=new_levels[filled:filled + index.size])
            new_weights[filled:filled + index.size] = block[mask]
            filled += index.size
        del block
        new_weights.resize(kept, refcheck=False)
    # Read-only arrays that own their data pass into the state uncopied.
    new_levels.setflags(write=False)
    new_weights.setflags(write=False)
    out = MixedState(new_levels, new_weights)
    return out, TruncationReport(terms_used=terms, tail_bound=bound, achieved_sum=achieved)


def cosine_series(x, u) -> float:
    """Closed form of ``sum_{m>=1} cos(m x) / (m^2 - u^2)`` for ``x in (0, 2 pi)``.

    Equals ``1/(2u^2) - pi cos((pi - x) u) / (2 u sin(pi u))``.  ``u`` within
    1e-9 of an integer is rejected as a pole.
    """
    x = _check_real(x, "x", -math.inf)
    u = _check_real(u, "u", -math.inf)
    if not 0.0 < x < 2.0 * math.pi:
        raise DomainError(f"x must lie in (0, 2*pi), got {x!r}")
    if abs(u - round(u)) <= 1e-9:
        raise DomainError(f"u must stay at least 1e-9 away from integer poles, got {u!r}")
    return 0.5 / (u * u) - math.pi * math.cos((math.pi - x) * u) / (2.0 * u * math.sin(math.pi * u))
