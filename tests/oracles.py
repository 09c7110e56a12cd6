"""Independent numerical oracles used only by the test suite.

Everything here deliberately avoids the library code paths it is used to
check: overlaps come from composite Gauss-Legendre integration of the raw
sine modes, series values from direct partial sums (in the original
``sin(m pi / alpha)`` form, not the library's sinc kernel) with
summation-by-parts tail bounds, forces from central differences, loop
areas from the cross-product shoelace formula, and the work integrand as one
masked call per stroke, the form it had before the stroke table.
"""

import math

import numpy as np

from qcarnot.errors import ScaleError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def gauss_integral(f, a, b, panels):
    """Composite 24-point Gauss-Legendre integral of a vectorized ``f``."""
    edges = np.linspace(a, b, panels + 1)
    lo = edges[:-1, None]
    hi = edges[1:, None]
    x = 0.5 * (hi - lo) * _GL_NODES[None, :] + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * _GL_WEIGHTS[None, :]
    return float(np.sum(w * f(x)))


def box_mode(n, width, x):
    return np.sqrt(2.0 / width) * np.sin(n * np.pi * x / width)


def overlap_by_integration(n, m, alpha, width=1.0):
    """Overlap of old mode ``n`` with post-widening mode ``m`` by quadrature.

    The old mode vanishes outside [0, width], so the integral stops there.
    Panel count tracks the fastest oscillation in the product.
    """
    panels = 4 * int(math.ceil(max(n, m / alpha))) + 8

    def integrand(x):
        return box_mode(n, width, x) * box_mode(m, alpha * width, x)

    return gauss_integral(integrand, 0.0, width, panels)


def cosine_partial_sum(x, u, tol, max_terms=4_000_000):
    """Direct partial sum of ``sum cos(m x)/(m^2 - u^2)`` with a certified tail.

    The tail beyond ``M`` terms is bounded by summation by parts:
    ``|tail| <= 1 / (sin(x/2) * ((M+1)^2 - u^2))``.  Returns
    ``(value, tail_bound)`` with ``tail_bound <= tol``.
    """
    swing = 1.0 / math.sin(0.5 * x)
    terms = max(64, int(math.ceil(abs(u))) + 2)
    while swing / ((terms + 1.0) ** 2 - u * u) > tol:
        terms *= 2
        if terms > max_terms:
            raise RuntimeError("cosine oracle could not certify the tolerance")
    m = np.arange(1, terms + 1, dtype=np.float64)
    value = float(np.sum(np.cos(m * x) / (m * m - u * u)))
    return value, swing / ((terms + 1.0) ** 2 - u * u)


def identity_partial_sum(n, alpha, terms):
    """``sum_{m <= terms} 4 alpha m^2 sin^2(m pi/alpha) / (pi^2 (m^2 - alpha^2 n^2)^2)``.

    The original form of the energy-identity series, every term added with
    ``math.fsum``.  It loses accuracy next to the resonance ``m = alpha n``,
    so callers keep ``alpha n`` away from integers.
    """
    m = np.arange(1, terms + 1, dtype=np.float64)
    s = np.sin(m * (math.pi / alpha))
    d = m * m - (alpha * n) ** 2
    return math.fsum((4.0 * alpha * m * m * s * s / (math.pi ** 2 * d * d)).tolist())


def overlap_square_terms(alpha, m_values, levels, weights=None):
    """Series terms at the indices ``m_values`` in the original form.

    With ``weights``, term ``m`` is ``sum_n w_n 4 alpha^3 n^2 sin^2(m pi/alpha)
    / (pi^2 (m^2 - alpha^2 n^2)^2)``; without, the energy-weighted identity
    term ``sum_n 4 alpha m^2 sin^2(m pi/alpha) / (pi^2 (m^2 - alpha^2 n^2)^2)``.
    One ``math.sin(m * pi / alpha)`` per index, terms added with
    ``math.fsum``.  Exact resonances ``m = alpha n`` give 0/0, so callers
    leave out the ``m`` within one of ``alpha n``.
    """
    out = []
    for m in m_values:
        s = math.sin(m * math.pi / alpha)
        parts = []
        for j, n in enumerate(levels):
            d = m * m - (alpha * n) ** 2
            numerator = m * m / alpha ** 2 if weights is None else weights[j] * n * n
            parts.append(4.0 * alpha ** 3 * numerator * s * s / (math.pi ** 2 * d * d))
        out.append(math.fsum(parts))
    return np.array(out)


def central_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def shoelace_area(L, F):
    """Signed polygon area via the cross-product shoelace formula.

    Positive for counterclockwise traversal in the (L, F) plane; the work
    enclosed by a force-width loop is the negative of this.
    """
    L = np.asarray(L)
    F = np.asarray(F)
    return 0.5 * float(np.sum(L * np.roll(F, -1) - np.roll(L, -1) * F))


def masked_work_integrand(strokes, twice_energy, owner):
    """The work integrand ``g((key, u)) = twice_energy(stroke, L)``, ``L =
    L_start * e^u``, where key ``k`` lies on ``strokes[owner[k]]``, one
    boolean mask and one ``twice_energy`` call per stroke: the form it had
    before the stroke table.  Twice the mean energy is ``L F`` by the
    equation of state."""

    def g(key_u):
        key, u = key_u
        owner_of = owner[key]
        out = np.empty_like(u)
        for i, stroke in enumerate(strokes):
            mine = owner_of == i
            if mine.any():
                out[mine] = twice_energy(stroke, stroke.L_start * np.exp(u[mine]))
        return out

    return g


def staircase_twice_energy(stroke, L):
    """Twice the mean energy along ``stroke`` at the float64 widths ``L``, unchecked.

    The frozen state's ``sum w n^2`` on an adiabat, the staircase through
    levels ``k = floor(L / base_scale)`` and ``k + 1`` on an isotherm, and
    ``(pi hbar)^2 sum / (mass L^2)``, in the order of the library's roundings.
    """
    if stroke.kind.value == "adiabatic":
        n = stroke.state_start.levels.astype(np.float64)
        square_sum = float((stroke.state_start.weights * (n * n)).sum())
    else:
        ratio = np.maximum(L / stroke.base_scale, 1.0)
        k = np.floor(ratio)
        w = (ratio - k) * (ratio + k) / (2.0 * k + 1.0)
        square_sum = (1.0 - w) * (k * k) + w * ((k + 1.0) * (k + 1.0))
    return (math.pi * stroke.params.hbar) ** 2 * square_sum / (stroke.params.mass * L * L)


def staircase_force(stroke, L):
    """The wall force ``2 E / L`` along ``stroke`` at the float64 widths
    ``L``, from :func:`staircase_twice_energy`, unchecked."""
    return staircase_twice_energy(stroke, L) / L


def checked_twice_energy(stroke, L):
    """:func:`staircase_twice_energy`, raising :class:`ScaleError` with the
    text of the work integrand if a force ``2 E / L`` lies outside (0, inf).
    The widths are not checked: those of the integrand lie between a built
    stroke's checked ends."""
    with np.errstate(all="ignore"):
        twice_energy = staircase_twice_energy(stroke, L)
        force = twice_energy / L
    if not ((force > 0.0) & (force < math.inf)).all():
        raise ScaleError(
            f"wall force over- or underflows binary64 on the stroke from width {stroke.L_start!r}"
        )
    return twice_energy
