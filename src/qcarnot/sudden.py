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
about ``m * 1e-16``.  The error is
absolute, not relative, so where ``sin(pi m / alpha)`` is itself at
rounding level only its smallness counts; at the ``m`` that ``alpha * k``
rounds to for an integer ``k`` the factor is set to exactly 0
(:func:`_exact_zero_step`).  The denominator ``m^2 - a^2`` takes ``a`` and
``a^2`` rounded, so near ``m = a`` it cancels: against the exact
``alpha n`` it is off by up to ``0.75 eps a / |m - a|`` relative (``eps =
2**-52``), and the term by twice that.  Rounding ``alpha n`` alone already
puts ``eps a / |m - a|`` on the term; both are a few ulps unless ``m`` is
within a small fraction of ``a`` of the resonance.  The one or two ``m``
within one of ``a`` (the exact resonance among them, where the quotient is
0/0) take the sinc form above instead.  Indices run in blocks that fit a
per-core L2 cache, with preallocated buffers, and block sums are added with
:func:`math.fsum`.

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

:func:`verify_energy_identity` certifies the identity numerically: it sums
the series directly up to ``M`` terms and bounds the neglected tail
rigorously by splitting ``sin^2 = 1/2 - cos/2``, bracketing the monotone
half between integrals of its closed-form antiderivative and bounding the
oscillatory half by summation by parts against the Dirichlet-kernel bound
``1 / sin(pi / alpha)``.  The same tail machinery certifies the truncation
of :func:`post_expansion_distribution`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxmodel import MixedState, _check_int, _check_real
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

# Largest term budget: series indices are float64, exact up to 2**53.
_MAX_BUDGET = 1 << 53
# Default term budget of verify_energy_identity and of `qcarnot verify-identity`,
# and the largest m_count of level_overlap_squares.
IDENTITY_TERM_BUDGET = 100_000_000


@dataclass(frozen=True)
class TruncationReport:
    """Outcome of a certified series truncation.

    ``terms_used`` is the direct-summation cutoff ``M``; ``tail_bound`` is a
    rigorous upper bound on what the truncation neglects; ``achieved_sum`` is
    the directly summed mass.
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
    r = math.fmod(m, alpha)
    if r > 0.5 * alpha:
        r -= alpha
    k = round((m - r) / alpha)
    sign = -1.0 if (n + k) % 2 else 1.0
    # Dividing twice keeps (m - a) (m + a) from overflowing for huge alpha.
    return sign * 2.0 * math.sqrt(alpha) / math.pi * math.sin(math.pi * r / alpha) * (
        a / (m - a) / (m + a)
    )


def _exact_zero_step(alpha: float, terms: int) -> tuple[int, int, bool] | None:
    """The indices ``m <= terms`` whose sine factor is set to exactly 0.

    They are the ``m`` that ``alpha * k`` rounds to in binary64 for an
    integer ``k``, where the reduced argument ``m - alpha k`` rounds to 0 and
    ``sin(pi m / alpha)`` is 0 or at rounding level (every second ``m`` at
    ``alpha = 2``, every thirteenth at ``alpha = 2.6``).  With ``p / q`` the
    first continued-fraction convergent of ``alpha`` with ``|alpha q - p| <=
    p 2**-53``, they are multiples ``m = j p`` with ``k = j q``; by
    Legendre's theorem no other ``m`` qualifies while ``terms**2 < 2**52
    alpha``.  Returns ``(p, q, every)``, where ``every`` tells that all
    multiples qualify (``|alpha q - p| < p 2**-54``), or ``None``.
    """
    num, den = alpha.as_integer_ratio()
    p0, q0, p, q = 1, 0, num // den, 1
    x, y = den, num % den
    while p <= terms:
        gap = abs(num * q - p * den)
        if gap * 2 ** 53 <= p * den:  # always once p / q is alpha itself
            return p, q, gap * 2 ** 54 < p * den
        a, (x, y) = x // y, (y, x % y)
        p0, q0, p, q = p, q, a * p + p0, a * q + q0
    return None


def _series_order(y: float, cap: int) -> int | None:
    """Least ``K <= cap`` with ``(K + 2) y^(K + 1) / (1 - y)^2 <= 2**-56``,
    or ``None``; ``0 < y < 1``.  The far-field series cut after the power
    ``t^K``, ``t <= y``, then errs by at most ``2**-56`` relative."""
    bound = _SERIES_TOL * (1.0 - y) ** 2
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


def _square_series(alpha: float, terms: int, levels, weights=None, out=None) -> float:
    """Sum of a series of squared overlaps over ``m = 1 .. terms``.

    With ``weights``, term ``m`` is ``sum_n w_n b(m, n)^2``; without, it is
    ``sum_n (m / (alpha n))^2 b(m, n)^2``, the energy-weighted terms of the
    identity.  ``alpha > 1``.  Terms are computed one block of indices at a
    time and the block sums added with :func:`math.fsum`; ``out``, if given,
    receives term ``m`` at index ``m - 1``.
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
            if 1 <= m <= terms and abs(m - a) < 1.0:
                factor = (m / a) ** 2 if energy else float(w)
                sinc = float(np.sinc((m - a) / alpha))
                near.append((m, j, factor * 4.0 * n * n * alpha * sinc * sinc / (m + a) ** 2))
    zeros = _exact_zero_step(alpha, terms)
    # Weighted blocks above the largest pole may take the far-field series.
    top = max(poles)
    far_field = not energy and len(poles) >= 3
    order_cap = min(2 * len(poles) - 2, _SERIES_MAX_ORDER)
    coefficients = []

    # sin(theta i) and cos(theta i) for the offsets i in a block, on arguments
    # reduced to r = i - alpha k in [-alpha/2, alpha/2] with k = rint(i / alpha),
    # both times sqrt(4 alpha / pi^2).  With alpha split into a 39-bit head and
    # a tail, k < 2**14 times the head and its difference from i are exact, so
    # r is off by an ulp at most.
    theta = math.pi / alpha
    unit = math.ldexp(1.0, math.frexp(alpha)[1] - 39)
    head = math.floor(alpha / unit) * unit
    width = min(_BLOCK, terms)
    m_buf = np.arange(width, dtype=np.float64)
    turns = np.rint(m_buf / alpha)
    phase = m_buf - turns * head
    phase -= turns * (alpha - head)
    phase *= theta
    root_scale = math.sqrt(4.0 * alpha / math.pi ** 2)
    sin_tab, cos_tab = np.sin(phase), np.cos(phase)
    sin_tab *= root_scale
    cos_tab *= root_scale
    del turns, phase
    m_buf += 1.0
    square_buf, sine_buf, d_buf = (np.empty(width) for _ in range(3))
    acc_buf = np.empty(width) if out is None else None
    block_sums = []
    for start in range(1, terms + 1, _BLOCK):
        size = min(_BLOCK, terms + 1 - start)
        m, m2, sine, d = (b[:size] for b in (m_buf, square_buf, sine_buf, d_buf))
        values = acc_buf[:size] if out is None else out[start - 1:start - 1 + size]
        if start > 1:
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
        if zeros is not None:
            p, turns, every = zeros
            first = -start % p
            if every:
                sine[first::p] = 0.0
            else:  # only the multiples j p that alpha * j q rounds to
                candidates = m[first::p]
                sine[first::p][alpha * (candidates / p * turns) == candidates] = 0.0
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
    return math.fsum(block_sums)


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
        _square_series(alpha, m_count, [n], [1.0], out=row)
    return row


def _energy_tail_enclosure(n: int, alpha: float, terms: int) -> tuple[float, float]:
    """Certified bracket on the energy-weighted overlap tail beyond ``terms``.

    Requires ``terms >= 2 * alpha * n`` so the envelope is decreasing past the
    cutoff and no resonance sits in the tail.
    """
    a = alpha * n
    M = float(terms)
    scale = 4.0 * alpha / math.pi ** 2

    def envelope(x):
        return scale * x * x / (x * x - a * a) ** 2

    def tail_integral(x0):
        # log1p keeps full relative accuracy where (x0 + a) / (x0 - a) is
        # close to 1; the log of that ratio loses up to about x0 / a ulps.
        return scale * (
            x0 / (2.0 * (x0 * x0 - a * a))
            + math.log1p(2.0 * a / (x0 - a)) / (4.0 * a)
        )

    swing = 1.0 / math.sin(math.pi / alpha)
    osc = 0.5 * envelope(M + 1.0) * swing
    lo = max(0.0, 0.5 * tail_integral(M + 1.0) - osc)
    hi = 0.5 * tail_integral(M) + osc
    return lo, hi


def _floor_terms(alpha: float, n_max: int, budget: int) -> int:
    """Least cutoff :func:`_energy_tail_enclosure` admits for levels up to
    ``n_max``, ``max(64, ceil(2 alpha n_max) + 2)``.  Raises
    :class:`TruncationError` when it exceeds ``budget``."""
    try:
        floor_terms = max(64, math.ceil(2.0 * alpha * n_max) + 2)
    except OverflowError:
        floor_terms = math.inf
    if floor_terms > budget:
        raise TruncationError(
            f"budget {budget} is below the minimum cutoff {floor_terms}",
            terms_used=budget,
            tail_bound=math.inf,
        )
    return floor_terms


def _smallest_terms(bound_at, floor_terms: int, budget: int, target: float) -> int:
    """Least term count in [floor_terms, budget] with ``bound_at(terms) <= target``.

    ``bound_at`` must be non-increasing.  Raises :class:`TruncationError` when
    even ``budget`` terms cannot certify the target.
    """
    if bound_at(floor_terms) <= target:
        return floor_terms
    worst = bound_at(budget)
    if worst > target:
        raise TruncationError(
            f"cannot certify tail <= {target!r} within {budget} terms "
            f"(bound at budget: {worst!r})",
            terms_used=budget,
            tail_bound=worst,
        )
    lo, hi = floor_terms, budget
    while lo < hi:
        mid = (lo + hi) // 2
        if bound_at(mid) <= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def verify_energy_identity(n, alpha, tol, max_terms: int = IDENTITY_TERM_BUDGET) -> TruncationReport:
    """Certify that the energy-weighted squared overlaps for level ``n`` sum to 1.

    Sums the series directly until the certified tail bound drops below
    ``tol``, then checks ``|achieved_sum - 1| <= tol``.  Raises
    :class:`TruncationError` if the budget cannot certify the tolerance and
    :class:`VerificationError` (carrying the report) if the residual exceeds
    ``tol``.
    """
    n = _check_int(n, "n")
    alpha = _check_alpha(alpha, strict=True)
    tol = _check_real(tol, "tol", 0.0, 1e-4)
    max_terms = _check_int(max_terms, "max_terms", 1, _MAX_BUDGET)

    terms = _smallest_terms(
        lambda M: _energy_tail_enclosure(n, alpha, M)[1],
        _floor_terms(alpha, n, max_terms),
        max_terms,
        0.95 * tol,
    )
    achieved = _square_series(alpha, terms, [n])
    bound = _energy_tail_enclosure(n, alpha, terms)[1]
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
    floor_terms = _floor_terms(alpha, int(state.levels[-1]), term_budget)
    pairs = [(int(n), float(es)) for n, es in zip(state.levels, energy_share)]

    def bound_at(terms: int) -> float:
        return sum(es * _energy_tail_enclosure(n, alpha, terms)[1] for n, es in pairs)

    terms = _smallest_terms(bound_at, floor_terms, term_budget, tail_tol)

    new_weights = np.empty(terms, dtype=np.float64)
    achieved = _square_series(
        alpha, terms, state.levels.tolist(), weights.tolist(), out=new_weights
    )
    np.divide(new_weights, achieved, out=new_weights)
    # Levels whose sine factor is exactly 0 carry no population and are
    # dropped: the weights are compacted in place, one block at a time, and
    # then shrunk, which is safe as no view of them is left.
    kept = np.count_nonzero(new_weights)
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
    return out, TruncationReport(
        terms_used=terms, tail_bound=bound_at(terms), achieved_sum=achieved
    )


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
