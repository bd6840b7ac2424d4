"""Derivative-based norms of dominating mixed smoothness.

The full norm sums L_p norms of every mixed derivative D^alpha with
|alpha|_inf <= m ((m+1)^d terms); the reduced norm keeps only the corner
multi-indices alpha in {0, m}^d (2^d terms).  Spectral differentiation is the
default realization; an order-2 central-difference stencil is available as a
cross-check.  Non-smooth samples (ramps, indicators) should route through the
difference-based Besov norms instead of spectral derivatives of order >= 2.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .grid import GridError, GridFunction, lp_norm, power_table
from .fourier import MAX_SPECTRAL_ORDER, _angular_freqs, _derivative_symbol, spectral_derivative
from .differences import _as_axis_vector
from .spaces import SpaceSpec, space_norm, sup_norm

_REALIZATIONS = ("spectral", "central")


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
        raise GridError(f"realization must be one of {_REALIZATIONS}")
    for axis, a in enumerate(av):
        if a > 0 and u.n[axis] < 7:
            raise GridError(f"central stencils need >= 5 interior cells on axis {axis}")
    values = u.values
    for axis, a in enumerate(av):
        for _ in range(a):
            values = _central_first(values, axis, u.dx[axis])
    return u.with_values(values)


def _check_sobolev_params(m: int, p: float) -> None:
    if m < 0 or m != int(m):
        raise GridError(f"m must be a nonnegative integer, got {m}")
    if not 1.0 < p < math.inf:
        raise GridError(f"sobolev norms require 1 < p < inf, got {p}")


def _derivative_norm_sum(u: GridFunction, m: int, p: float, realization: str, alphas) -> float:
    # spectral at p = 2: every ||D^alpha u||_2^2 from one power spectrum (Parseval)
    if p == 2.0 and realization == "spectral":
        if m > MAX_SPECTRAL_ORDER:
            raise GridError(f"order {m} exceeds configured maximum {MAX_SPECTRAL_ORDER}")
        weights = [np.array([np.abs(_derivative_symbol(xi, a)) ** 2 for a in range(m + 1)])
                   for xi in _angular_freqs(u)]
        energy = power_table(u.values, [weights], u.cell_volume)[0]
        return sum(math.sqrt(energy[alpha]) for alpha in alphas)
    return sum(lp_norm(derivative(u, alpha, realization), p) for alpha in alphas)


def sobolev_norm_full(
    u: GridFunction, m: int, p: float, realization: str = "spectral"
) -> float:
    """Sum of L_p norms of all D^alpha u with |alpha|_inf <= m."""
    _check_sobolev_params(m, p)
    return _derivative_norm_sum(u, m, p, realization, itertools.product(range(m + 1), repeat=u.d))


def sobolev_norm_reduced(
    u: GridFunction, m: int, p: float, realization: str = "spectral"
) -> float:
    """Corner-index norm: sum over alpha in {0, m}^d only."""
    _check_sobolev_params(m, p)
    corners = {tuple(c) for c in itertools.product((0, m), repeat=u.d)}
    return _derivative_norm_sum(u, m, p, realization, sorted(corners))


def cmix_norm(u: GridFunction, m: int, realization: str = "spectral") -> float:
    """Sup-norm analogue: sum of sup |D^alpha u| over |alpha|_inf <= m."""
    if m < 0:
        raise GridError(f"m must be a nonnegative integer, got {m}")
    total = 0.0
    for alpha in itertools.product(range(m + 1), repeat=u.d):
        total += float(np.max(np.abs(derivative(u, alpha, realization).values)))
    return total


def mixed_sup_lp(
    u: GridFunction,
    beta: Sequence[int],
    n_split: int,
    p: float,
    realization: str = "spectral",
) -> float:
    """Mixed sup/L_p trace functional of a derivative.

    Takes D^beta u, the pointwise sup over the trailing d - n_split axes, and
    the L_p quadrature over the leading n_split axes.  n_split = d reduces to
    the plain L_p norm of the derivative (bit-identical code path).
    """
    if not 1 <= n_split <= u.d:
        raise GridError(f"split index must lie in 1..{u.d}, got {n_split}")
    if not p >= 1.0:
        raise GridError(f"p must lie in [1, inf], got {p}")
    dv = derivative(u, tuple(int(b) for b in beta), realization)
    if n_split == u.d:
        return lp_norm(dv, p)
    a = np.abs(dv.values)
    sup_axes = tuple(range(n_split, u.d))
    reduced = np.max(a, axis=sup_axes)
    if math.isinf(p):
        return float(np.max(reduced))
    vol = float(np.prod(dv.dx[:n_split]))
    return float(np.sum(reduced**p) * vol) ** (1.0 / p)


def embedding_ratio(u: GridFunction, space: SpaceSpec) -> float:
    """sup-norm over space-norm; growth along a dilated family locates the
    continuous-embedding threshold."""
    denom = space_norm(u, space)
    if denom == 0.0:
        raise GridError("embedding ratio undefined for the zero function")
    return sup_norm(u) / denom
