"""Smooth compactly supported profile functions shared across the library.

All cutoffs are built from the classical mollifier exp(-1/(1-t^2)): its
integral gives a C-infinity ramp whose derivatives of every order vanish at
both ends, so plateau windows glue to constants without smoothness loss.
"""

from __future__ import annotations

import numpy as np

from .grid import GridError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def mollifier(t: np.ndarray | float) -> np.ndarray:
    """exp(-1/(1-t^2)) on (-1, 1), identically 0 outside."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


_BLOCK_ROWS = 256  # quadrature rows per block: its work arrays stay in cache


def _mollifier_integral(tau: np.ndarray) -> np.ndarray:
    # integral of the mollifier over [-1, tau], Gauss-Legendre per element;
    # every node lies in [-1, tau] within [-1, 1), so the mollifier's formula
    # needs no mask: at -1 it reads exp(-inf) = 0.  Each block of rows runs the
    # same elementwise steps in place, so blocking moves no bit
    half = (np.asarray(tau, dtype=float) + 1.0) / 2.0
    out = np.empty(half.shape)
    flat_half, flat_out = half.reshape(-1), out.reshape(-1)
    work = np.empty((min(flat_half.size, _BLOCK_ROWS), _GL_NODES.size))
    for lo in range(0, flat_half.size, _BLOCK_ROWS):
        h = flat_half[lo : lo + _BLOCK_ROWS]
        nodes = work[: h.size]
        np.multiply(h[:, None], _GL_NODES + 1.0, out=nodes)
        nodes -= 1.0
        np.multiply(nodes, nodes, out=nodes)
        np.subtract(1.0, nodes, out=nodes)
        with np.errstate(divide="ignore"):
            np.divide(-1.0, nodes, out=nodes)
        np.exp(nodes, out=nodes)
        nodes *= _GL_WEIGHTS
        np.multiply(h, nodes.sum(axis=-1), out=flat_out[lo : lo + _BLOCK_ROWS])
    return out


# twice the half mass: the 64-node rule on [-1, 0] is accurate to 3e-15, on [-1, 1] to 2e-12
_MOLLIFIER_MASS = 2.0 * float(_mollifier_integral(np.asarray([0.0]))[0])


def smoothstep(s: np.ndarray | float) -> np.ndarray:
    """C-infinity ramp: 0 for s <= 0, 1 for s >= 1, non-decreasing between.

    The upper half s > 1/2 is 1 - smoothstep(1 - s), by the mollifier's
    symmetry, so each half integrates from its own end and the ramp never
    leaves [0, 1].  The mass is twice the half integral, so smoothstep(1/2) is
    exactly 1/2 and the halves meet without a step.
    """
    c = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    upper = c > 0.5
    out = _mollifier_integral(2.0 * np.where(upper, 1.0 - c, c) - 1.0) / _MOLLIFIER_MASS
    return np.where(upper, 1.0 - out, out)


def _check_plateau(plateau: float, support: float) -> None:
    if not 0.0 <= plateau < support:
        raise GridError(f"need 0 <= plateau < support, got {plateau}, {support}")


def plateau_bump(x: np.ndarray | float, plateau: float, support: float) -> np.ndarray:
    """Even bump: exactly 1 on [-plateau, plateau], 0 outside (-support, support).

    The transition on [plateau, support] is the reversed smoothstep, so the
    profile is C-infinity with sup value exactly 1.
    """
    _check_plateau(plateau, support)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    a = np.abs(x)
    out = np.zeros(a.shape)
    out[a <= plateau] = 1.0
    trans = (a > plateau) & (a < support)
    if np.any(trans):
        s = (a[trans] - plateau) / (support - plateau)
        out[trans] = 1.0 - smoothstep(s)
    return out


def smooth_partition_base(x: np.ndarray, width: float) -> np.ndarray:
    """Mollifier bump with support (-width, width), peak value 1."""
    return mollifier(np.asarray(x, dtype=float) / width) * np.e
