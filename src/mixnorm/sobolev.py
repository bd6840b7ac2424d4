"""Derivative-based norms of dominating mixed smoothness.

The full norm sums L_p norms of every mixed derivative D^alpha with
|alpha|_inf <= m ((m+1)^d terms); the reduced norm keeps only the corner
multi-indices alpha in {0, m}^d (2^d terms).  The norms differentiate
spectrally, every derivative of one call from one forward transform;
derivative(u, alpha, "central") gives an order-2 central-difference
stencil as a cross-check.  Non-smooth samples (ramps, indicators) should route
through the difference-based Besov norms instead of spectral derivatives of
order >= 2.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .grid import GridError, GridFunction, _check_p, lp_norm, lp_norm_values
from .fourier import _angular_freqs, _check_order, _check_sobolev_params, _derivative_symbol, _derivatives, spectral_derivative
from .differences import _as_axis_vector


def _central_first(values: np.ndarray, axis: int, dx: float) -> np.ndarray:
    # order-2 central stencil, one-sided order-1 at the two boundary nodes
    out = np.empty_like(values)
    sl = [slice(None)] * values.ndim

    def at(s):
        t = list(sl)
        t[axis] = s
        return tuple(t)

    out[at(slice(1, -1))] = (values[at(slice(2, None))] - values[at(slice(0, -2))]) / (2 * dx)
    out[at(0)] = (values[at(1)] - values[at(0)]) / dx
    out[at(-1)] = (values[at(-1)] - values[at(-2)]) / dx
    return out


def derivative(
    u: GridFunction, alpha: Sequence[int] | int, realization: str = "spectral"
) -> GridFunction:
    """Mixed derivative D^alpha by the selected realization."""
    av = tuple(int(a) for a in _as_axis_vector(alpha, u.d, "alpha"))
    if realization == "spectral":
        return spectral_derivative(u, av)
    if realization != "central":
        raise GridError(f"realization must be 'spectral' or 'central', got {realization!r}")
    for axis, a in enumerate(av):
        if a > 0 and u.n[axis] < 7:
            raise GridError(f"central stencils need >= 5 interior cells on axis {axis}")
    values = u.values
    for axis, a in enumerate(av):
        for _ in range(a):
            values = _central_first(values, axis, u.dx[axis])
    return u.with_values(values)


def _derivative_norm_sum(u: GridFunction, m: int, p: float, alphas) -> float:
    # p = 2: every ||D^alpha u||_2 from one power spectrum (Parseval)
    if p == 2.0:
        weights = [np.array([np.abs(_derivative_symbol(xi, a)) ** 2 for a in range(m + 1)])
                   for xi in _angular_freqs(u)]
        norms = u._power_table([weights], u.cell_volume)[0]
        return sum(float(norms[alpha]) for alpha in alphas)
    return sum(lp_norm(dv, p) for dv in _derivatives(u, alphas))


def sobolev_norm_full(u: GridFunction, m: int, p: float) -> float:
    """Sum of L_p norms of all D^alpha u with |alpha|_inf <= m."""
    _check_sobolev_params(m, p)
    return _derivative_norm_sum(u, m, p, itertools.product(range(m + 1), repeat=u.d))


def sobolev_norm_reduced(u: GridFunction, m: int, p: float) -> float:
    """Corner-index norm: sum over alpha in {0, m}^d only."""
    _check_sobolev_params(m, p)
    corners = {tuple(c) for c in itertools.product((0, m), repeat=u.d)}
    return _derivative_norm_sum(u, m, p, sorted(corners))


def cmix_norm(u: GridFunction, m: int) -> float:
    """Sup-norm analogue: sum of sup |D^alpha u| over |alpha|_inf <= m."""
    _check_order(m)
    return _derivative_norm_sum(u, m, math.inf, itertools.product(range(m + 1), repeat=u.d))


def _check_split(n_split: int, d: int) -> None:
    if not 1 <= n_split <= d:
        raise GridError(f"split index must lie in 1..{d}, got {n_split}")


def mixed_sup_lp(u: GridFunction, beta: Sequence[int], n_split: int, p: float) -> float:
    """Mixed sup/L_p trace functional of a derivative.

    Takes D^beta u, the pointwise sup over the trailing d - n_split axes, and
    the L_p quadrature over the leading n_split axes.  n_split = d reduces to
    the plain L_p norm of the derivative, bit for bit.
    """
    _check_split(n_split, u.d)
    _check_p(p)
    dv = spectral_derivative(u, tuple(int(b) for b in beta))
    reduced = np.max(np.abs(dv.values), axis=tuple(range(n_split, u.d)))
    return lp_norm_values(reduced, p, float(np.prod(dv.dx[:n_split])))

