"""Mixed difference calculus and difference-based Besov norms.

Differences act along coordinate axes with steps snapped to whole grid cells.
The modulus of smoothness replaces the supremum over continuous steps by a
maximum over a small log-spaced probe set per dyadic scale; identical probe
sampling on both sides of every compared ratio cancels the induced bias.

The direction-set sum runs exactly over all 2^d subsets of the axes (d <= 3).

Difference norms read a zero-extended field as extended by zero to all of
Z^d and a periodic one on the torus; under both, the steps +s and -s give
equal norms, so the norm tables run over positive step magnitudes only.
"""

from __future__ import annotations

import itertools
import math
import warnings
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .grid import (
    GridError,
    GridFunction,
    NumericalAnomalyError,
    lp_norm,
    lp_norm_pow,
    pointwise_multiply,
    power_table,
    require_same_grid,
    shift_values,
)


class DegenerateStepWarning(UserWarning):
    """A difference step or modulus scale snapped below one grid cell."""


def all_direction_sets(d: int) -> list[tuple[int, ...]]:
    """Every subset of the axes {0, .., d-1}, the empty set first."""
    axes = range(d)
    out: list[tuple[int, ...]] = []
    for size in range(d + 1):
        out.extend(itertools.combinations(axes, size))
    return out


def snap_step(h: float, dx: float) -> int:
    """Nearest whole-cell count for a real step (ties to even)."""
    return int(np.rint(h / dx))


def _as_axis_vector(value, d: int, name: str) -> tuple:
    if np.isscalar(value):
        return (value,) * d
    value = tuple(value)
    if len(value) != d:
        raise GridError(f"{name} has length {len(value)}, expected {d}")
    return value


def _diff_values(values: np.ndarray, axis: int, m: int, cells: int, extension: str) -> np.ndarray:
    # m-th forward difference with step `cells` grid cells along `axis`
    out = np.zeros_like(values)
    for ell in range(m + 1):
        w = (-1.0) ** (m - ell) * comb(m, ell)
        out += w * shift_values(values, axis, ell * cells, extension)
    return out


def directional_difference(u: GridFunction, axis: int, m: int, h: float) -> GridFunction:
    """m-th order difference of u in one direction, step h.

    h is snapped to the nearest whole number of grid cells; a step that snaps
    to zero cells yields the zero function and a DegenerateStepWarning.
    """
    if not 0 <= axis < u.d:
        raise GridError(f"axis {axis} out of range for d={u.d}")
    if m < 1:
        raise GridError(f"difference order must be >= 1, got {m}")
    cells = snap_step(h, u.dx[axis])
    if cells == 0:
        warnings.warn(
            f"step h={h} snapped to zero cells (dx={u.dx[axis]}); returning zero",
            DegenerateStepWarning,
            stacklevel=2,
        )
        return u.with_values(np.zeros_like(u.values))
    return u.with_values(_diff_values(u.values, axis, m, cells, u.extension))


def mixed_difference(
    u: GridFunction,
    e: Iterable[int],
    m: int | Sequence[int],
    h: float | Sequence[float],
) -> GridFunction:
    """Composition of directional differences over the axes in e.

    e is treated as a set: axes are applied in sorted order regardless of the
    order given, so both orderings produce bit-identical results.  The empty
    set is the identity.
    """
    axes = sorted(set(int(a) for a in e))
    if axes and not (0 <= axes[0] and axes[-1] < u.d):
        raise GridError(f"direction set {axes} out of range for d={u.d}")
    if not axes:
        return u
    mv = _as_axis_vector(m, u.d, "m")
    hv = _as_axis_vector(h, u.d, "h")
    out = u
    for axis in axes:
        out = directional_difference(out, axis, int(mv[axis]), float(hv[axis]))
    return out


def admissible_cells(t: float, dx: float) -> list[int]:
    """Whole-cell step magnitudes probing the modulus at scale t.

    Probes c*t for c in {1/4, 1/2, 3/4, 1}, snapped to cells, clipped to the
    strict constraint s*dx < t, plus the largest admissible cell shift.
    """
    s_max = int(math.ceil(t / dx - 1e-12)) - 1
    if s_max < 1:
        return []
    probes = {int(np.rint(c * t / dx)) for c in (0.25, 0.5, 0.75, 1.0)}
    probes.add(s_max)
    return sorted(s for s in probes if 1 <= s <= s_max)


def ladder_cells(t: float, dx: float) -> list[int]:
    """Probe magnitudes below t drawn from the absolute dyadic ladder.

    The ladder is the union of per-scale probe sets anchored at t = 2^-k,
    k >= 0; filtering it by s * dx < t gives step sets that are nested in t,
    so the discrete modulus is monotone in the scale vector.
    """
    out: set[int] = set()
    scale = 1.0
    while scale > dx:
        out.update(s for s in admissible_cells(scale, dx) if s * dx < t)
        scale /= 2.0
    return sorted(out)


def _parseval_tables(values, sets, orders, magnitudes, pad, cell_volume):
    # one power spectrum of the values, zero-padded so that circular
    # differences equal the zero-extended ones, contracted per axis with the
    # difference symbol |e^{i theta s} - 1|^{2m} = (4 sin^2(theta s / 2))^m
    shape = [n + q for n, q in zip(values.shape, pad)]
    weights = []
    for axis, (n, m, mags) in enumerate(zip(shape, orders, magnitudes)):
        k = np.arange(n // 2 + 1 if axis == len(shape) - 1 else n)  # the bins power_table reads
        sin2 = np.sin(np.pi / n * np.arange(n)) ** 2
        weights.append(np.array([(4.0 * sin2[k * s % n]) ** m for s in mags]))
    weight_sets = [[w if a in e else None for a, w in enumerate(weights)] for e in sets]
    return dict(zip(sets, power_table(values, weight_sets, cell_volume, shape)))


def difference_table(
    u: GridFunction,
    direction_sets: Iterable[Iterable[int]],
    orders: int | Sequence[int],
    magnitudes: Sequence[Sequence[int]],
    p: float,
) -> dict[tuple[int, ...], np.ndarray]:
    """Powered L_p norms of mixed differences over positive step magnitudes.

    For each direction set e (keyed as a sorted tuple), entry [i_a for a in e]
    is sum |Delta^{m, e}_s u|^p * cell volume (max |.| when p = inf) with step
    s_a = magnitudes[a][i_a] cells and order orders[a].  Zero extension reads
    u extended by zero to all of Z^d, periodic reads it on the torus.  A
    zero-extended field is cropped to the bounding box of its nonzero values
    and padded by the difference reach; p = 2 then goes through one power
    spectrum for every direction set (Parseval), other p difference directly.
    """
    sets = [tuple(sorted(set(int(a) for a in e))) for e in direction_sets]
    orders = [int(m) for m in _as_axis_vector(orders, u.d, "orders")]
    values, pad, vol = u.values, [0] * u.d, u.cell_volume
    if u.extension == "zero":
        nz = np.nonzero(values)
        if not nz[0].size:
            return {e: np.zeros([len(magnitudes[a]) for a in e]) for e in sets}
        values = values[tuple(slice(i.min(), i.max() + 1) for i in nz)]
        pad = [m * max(mags, default=0) for m, mags in zip(orders, magnitudes)]
    if p == 2.0:
        return _parseval_tables(values, sets, orders, magnitudes, pad, vol)
    out = {}
    for e in sets:
        out[e] = np.empty([len(magnitudes[a]) for a in e])
        # forward differences reach m * s cells below the support: pad there
        arr = np.pad(values, [(pad[a] if a in e else 0, 0) for a in range(u.d)])
        _fill_direct(out[e], arr, e, orders, magnitudes, p, vol, u.extension, ())
    return out


def _fill_direct(table, arr, e, orders, magnitudes, p, vol, extension, index) -> None:
    # depth first over the axes of e, so each partial difference is made once
    if len(index) == len(e):
        table[index] = lp_norm_pow(arr, p, vol)
        return
    axis = e[len(index)]
    for i, s in enumerate(magnitudes[axis]):
        diff = _diff_values(arr, axis, orders[axis], s, extension)
        _fill_direct(table, diff, e, orders, magnitudes, p, vol, extension, index + (i,))


def modulus(
    u: GridFunction,
    e: Iterable[int],
    m: int | Sequence[int],
    t: float | Sequence[float],
    p: float,
    interior: bool = False,
) -> float:
    """Mixed modulus of smoothness at scale vector t.

    Maximum over the sampled step set of the L_p norm of the mixed difference;
    the empty direction set returns the plain L_p norm.  With interior=True
    the norm is restricted to nodes whose difference stencil stays inside the
    box, over steps of both signs (boundary handled by the support margin in
    normal use).
    """
    axes = sorted(set(int(a) for a in e))
    if not axes:
        return lp_norm(u, p)
    orders = [int(v) for v in _as_axis_vector(m, u.d, "m")]
    tv = _as_axis_vector(t, u.d, "t")
    mags: list[list[int]] = [[] for _ in range(u.d)]
    for axis in axes:
        if not 0 < tv[axis] <= 1.0:
            raise GridError(f"scale t must lie in (0, 1], got {tv[axis]} on axis {axis}")
    for axis in axes:
        mags[axis] = ladder_cells(float(tv[axis]), u.dx[axis])
        if not mags[axis]:
            warnings.warn(
                f"scale t={tv[axis]} is below one grid cell on axis {axis}; modulus degenerates to 0",
                DegenerateStepWarning,
                stacklevel=2,
            )
            return 0.0
    if not interior:
        best = float(np.max(difference_table(u, [axes], orders, mags, p)[tuple(axes)]))
    else:
        best = 0.0
        signed = [[s for mag in mags[a] for s in (mag, -mag)] for a in axes]
        for combo in itertools.product(*signed):
            # nodes whose whole difference stencil stays inside the box
            if any(orders[a] * abs(s) >= u.n[a] for a, s in zip(axes, combo)):
                continue
            arr, sl = u.values, [slice(None)] * u.d
            for a, s in zip(axes, combo):
                arr = _diff_values(arr, a, orders[a], s, u.extension)
                sl[a] = slice(-orders[a] * s, None) if s < 0 else slice(0, u.n[a] - orders[a] * s)
            best = max(best, lp_norm_pow(arr[tuple(sl)], p, u.cell_volume))
    if math.isinf(p):
        return best
    return best ** (1.0 / p)


def dyadic_level_count(u: GridFunction) -> tuple[int, ...]:
    """Retained dyadic scales per axis: floor(log2(1/dx)) - 1, so the finest
    scale spans at least two grid cells."""
    return tuple(int(math.floor(math.log2(1.0 / d))) - 1 for d in u.dx)


def _check_norm_args(u: GridFunction, r: float, p: float, m_diff: int) -> tuple[int, ...]:
    # preconditions shared by the difference norms; returns the level counts
    if not r > 0:
        raise GridError(f"r must be positive, got {r}")
    if not m_diff > r:
        raise GridError(f"difference order m_diff={m_diff} must exceed r={r}")
    if not p >= 1.0:
        raise GridError(f"p must lie in [1, inf], got {p}")
    ks = dyadic_level_count(u)
    if min(ks) < 2:
        raise GridError(
            f"grid too coarse for dyadic analysis: levels {ks} per axis, need >= 2"
        )
    return ks


def besov_norm_diff(u: GridFunction, r: float, p: float, m_diff: int) -> float:
    """Difference-based Besov norm of dominating mixed smoothness.

    Sum over all direction sets e of the dyadically weighted l_p aggregate of
    moduli at scales 2^-k, k in N_0^d(e), truncated at the per-axis level
    count; the l_p sum over k becomes a sup when p = inf.  Requires the
    difference order to exceed the smoothness r.
    """
    ks = _check_norm_args(u, r, p, m_diff)
    scale_sets = [[admissible_cells(2.0**-k, dx) for k in range(kmax + 1)] for dx, kmax in zip(u.dx, ks)]
    mags = [sorted(set().union(*levels)) for levels in scale_sets]
    sets = all_direction_sets(u.d)[1:]
    tables = difference_table(u, sets, m_diff, mags, p)
    total = lp_norm(u, p)
    for e in sets:
        # per axis of e and level k: the table positions of the level's steps
        where = [[[mags[a].index(s) for s in cells] for cells in scale_sets[a]] for a in e]
        shape_k = tuple(ks[a] + 1 for a in e)
        omega = np.empty(shape_k)
        for kvec in np.ndindex(*shape_k):
            omega[kvec] = np.max(tables[e][np.ix_(*(w[k] for w, k in zip(where, kvec)))])
        # steps admissible at finer scales stay admissible: the modulus at
        # level k is the max over the upper orthant of exact-level maxima,
        # which keeps the discrete modulus monotone across scales
        for pos in range(len(e)):
            omega = np.flip(np.maximum.accumulate(np.flip(omega, axis=pos), axis=pos), axis=pos)
        ksum = np.indices(shape_k).sum(axis=0)
        if math.isinf(p):
            total += float(np.max(2.0 ** (r * ksum) * omega))
        else:
            total += float(np.sum(2.0 ** (r * ksum * p) * omega)) ** (1.0 / p)
    if not math.isfinite(total):  # the p-th power sums are not scale-safe
        raise NumericalAnomalyError(f"difference norm at p={p:g} overflows a float")
    return total


def isotropic_besov_norm(u: GridFunction, r: float, p: float, m_diff: int) -> float:
    """One-dimensional Besov norm; coincides with besov_norm_diff for d = 1."""
    if u.d != 1:
        raise GridError(f"isotropic norm needs a 1-d function, got d={u.d}")
    return besov_norm_diff(u, r, p, m_diff)


def besov_norm_integral(u: GridFunction, r: float, p: float, m_diff: int) -> float:
    """Integral-form Besov norm: L_p norm plus, for each nonempty direction
    set, the weighted step integral of pure mixed differences.

    The step integral over [-1, 1]^|e| with weight prod |h_i|^(-rp) dh_i/|h_i|
    is evaluated per axis by a midpoint rule on dyadic panels
    [2^-k-1, 2^-k], matching the scale set of the discrete norm; the panel
    mass of the singular weight is used exactly.
    """
    ks = _check_norm_args(u, r, p, m_diff)
    # per axis: panel list of (cells, weight mass, or |h|^-r at p = inf)
    panels: list[list[tuple[int, float]]] = []
    for axis in range(u.d):
        dxv = u.dx[axis]
        entries = []
        for k in range(ks[axis]):
            t_hi, t_lo = 2.0**-k, 2.0 ** -(k + 1)
            s_lo = int(math.floor(t_lo / dxv + 1e-12)) + 1
            s_hi = int(math.floor(t_hi / dxv + 1e-12))
            if s_hi < s_lo:
                continue
            s = min(max(int(np.rint(0.75 * t_hi / dxv)), s_lo), s_hi)
            if math.isinf(p):
                entries.append((s, (s * dxv) ** (-r)))
            else:
                entries.append((s, (2.0 ** (r * p * (k + 1)) - 2.0 ** (r * p * k)) / (r * p)))
        panels.append(entries)

    sets = all_direction_sets(u.d)[1:]
    tables = difference_table(u, sets, m_diff, [[s for s, _ in entries] for entries in panels], p)
    total = lp_norm(u, p)
    for e in sets:
        weight = np.ones(())
        for a in e:
            weight = np.multiply.outer(weight, [w for _, w in panels[a]])
        if math.isinf(p):
            total += float(np.max(weight * tables[e]))
        else:
            # +s and -s contribute equally: 2^|e| sign choices per step vector
            total += float(2 ** len(e) * np.sum(weight * tables[e])) ** (1.0 / p)
    if not math.isfinite(total):  # the p-th power sums are not scale-safe
        raise NumericalAnomalyError(f"difference norm at p={p:g} overflows a float")
    return total


def leibniz_difference(
    psi: GridFunction, phi: GridFunction, m: int, h: float, axis: int = 0
) -> GridFunction:
    """Product-rule expansion of the m-th difference of psi * phi.

    Returns sum_j C(m, j) (D^{m-j} psi)(. + j h) * (D^j phi)(.), which equals
    the direct difference of the product identically on the lattice.
    """
    require_same_grid(psi, phi)
    if m < 1:
        raise GridError(f"order must be >= 1, got {m}")
    cells = snap_step(h, psi.dx[axis])
    ext = psi.extension
    out = np.zeros_like(psi.values)
    for j in range(m + 1):
        left = psi.values
        if m - j > 0:
            left = _diff_values(left, axis, m - j, cells, ext)
        left = shift_values(left, axis, j * cells, ext)
        right = phi.values
        if j > 0:
            right = _diff_values(right, axis, j, cells, ext)
        out += comb(m, j) * left * right
    return psi.with_values(out)


def mixed_leibniz_terms(
    f: GridFunction,
    g: GridFunction,
    e: Iterable[int],
    m: int,
    h: float | Sequence[float],
) -> list[tuple[tuple[int, ...], GridFunction]]:
    """Terms of the mixed product rule for the order-2m difference of f * g.

    Each term is C(2m, u) * (D^{2m-u, e} f)(. + u <> h) * (D^{u, e} g)(.) for a
    multi-index u supported on e with entries at most 2m (<> is the
    componentwise product); the terms sum to the mixed difference of f * g.
    The empty direction set yields the single term f * g.
    """
    require_same_grid(f, g)
    axes = sorted(set(int(a) for a in e))
    if not axes:
        return [(tuple([0] * f.d), pointwise_multiply(f, g))]
    if m < 1:
        raise GridError(f"order must be >= 1, got {m}")
    hv = _as_axis_vector(h, f.d, "h")
    cells = {a: snap_step(float(hv[a]), f.dx[a]) for a in axes}
    ext = f.extension
    out = []
    for u_e in itertools.product(range(2 * m + 1), repeat=len(axes)):
        u_full = [0] * f.d
        for a, ui in zip(axes, u_e):
            u_full[a] = ui
        coeff = 1.0
        for ui in u_e:
            coeff *= comb(2 * m, ui)
        left = f.values
        for a, ui in zip(axes, u_e):
            if 2 * m - ui > 0:
                left = _diff_values(left, a, 2 * m - ui, cells[a], ext)
        for a, ui in zip(axes, u_e):
            left = shift_values(left, a, ui * cells[a], ext)
        right = g.values
        for a, ui in zip(axes, u_e):
            if ui > 0:
                right = _diff_values(right, a, ui, cells[a], ext)
        out.append((tuple(u_full), f.with_values(coeff * left * right)))
    return out
