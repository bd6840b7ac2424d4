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

import functools
import itertools
import math
import warnings
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .grid import (
    GridError,
    GridFunction,
    _check_p,
    _dyadic_aggregate,
    lp_norm,
    lp_norm_values,
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


def _along(ndim: int, axis: int, sl: slice) -> tuple:
    return (slice(None),) * axis + (sl,) + (slice(None),) * (ndim - axis - 1)


def _diff_values(values: np.ndarray, axis: int, m: int, cells: int, extension: str) -> np.ndarray:
    # m-th forward difference with step `cells` grid cells along `axis`: the
    # terms l = 0..m, weight (-1)^(m-l) C(m, l), are added in that order onto
    # slices of one output.  Periodic output is the torus itself; zero-extended
    # output is the difference's whole support, n + m|cells| cells along the
    # axis, with box node j at index j + max(m * cells, 0)
    n, ndim = values.shape[axis], values.ndim
    reach = 0 if extension == "periodic" else m * abs(cells)
    out = np.zeros(values.shape[:axis] + (n + reach,) + values.shape[axis + 1:])
    for ell in range(m + 1):
        w = (-1.0) ** (m - ell) * comb(m, ell)
        if extension == "periodic":
            # out[j] += w values[j + c mod n]: two slice pairs
            c = ell * cells % n
            pieces = [(slice(0, n - c), slice(c, n)), (slice(n - c, n), slice(0, c))]
        else:
            lo = max(m * cells, 0) - ell * cells
            pieces = [(slice(lo, lo + n), slice(None))]
        for dst, src in pieces:
            dst, src = out[_along(ndim, axis, dst)], values[_along(ndim, axis, src)]
            if w == 1.0:
                dst += src
            elif w == -1.0:
                dst -= src
            else:
                dst += w * src
    return out


def _same_grid_diff(values: np.ndarray, axis: int, m: int, cells: int, extension: str) -> np.ndarray:
    # the difference at the box's own nodes, as a view of _diff_values
    out = _diff_values(values, axis, m, cells, extension)
    if extension == "periodic":
        return out
    lo = max(m * cells, 0)
    return out[_along(values.ndim, axis, slice(lo, lo + values.shape[axis]))]


def _check_difference_order(m: int) -> None:
    if m < 1:
        raise GridError(f"difference order must be >= 1, got {m}")


def directional_difference(u: GridFunction, axis: int, m: int, h: float) -> GridFunction:
    """m-th order difference of u in one direction, step h.

    h is snapped to the nearest whole number of grid cells; a step that snaps
    to zero cells yields the zero function and a DegenerateStepWarning.
    """
    if not 0 <= axis < u.d:
        raise GridError(f"axis {axis} out of range for d={u.d}")
    _check_difference_order(m)
    cells = snap_step(h, u.dx[axis])
    if cells == 0:
        warnings.warn(
            f"step h={h} snapped to zero cells (dx={u.dx[axis]}); returning zero",
            DegenerateStepWarning,
            stacklevel=2,
        )
        return u.with_values(np.zeros_like(u.values))
    return u.with_values(_same_grid_diff(u.values, axis, m, cells, u.extension))


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


def _fast_length(n: int) -> int:
    """The smallest 5-smooth length >= n: its prime factors are all 2, 3 or 5,
    the lengths a real transform runs fastest at."""
    best = 1 << (n - 1).bit_length()  # a power of two >= n
    p3 = 1
    while p3 < best:
        p35 = p3
        while p35 < best:
            # the smallest power-of-two multiple of p35 that is >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 5
        p3 *= 3
    return best


def _parseval_tables(values, sets, orders, magnitudes, shape, cell_volume):
    # one power spectrum of the values, zero-padded to shape, contracted per
    # axis with the difference symbol |e^{i theta s} - 1|^{2m} = (4 sin^2(theta s / 2))^m
    weights = []
    for axis, (n, m, mags) in enumerate(zip(shape, orders, magnitudes)):
        bins = n // 2 + 1 if axis == len(shape) - 1 else n  # the bins power_table reads
        symbol = (4.0 * np.sin(np.pi / n * np.arange(n)) ** 2) ** m
        # the symbol index s k mod n, formed in place; modulus leaves the axes
        # outside its direction set without steps
        idx = np.multiply.outer(np.asarray(mags, dtype=np.intp), np.arange(bins))
        weights.append(symbol.take(np.remainder(idx, n, out=idx)))
    weight_sets = [[w if a in e else None for a, w in enumerate(weights)] for e in sets]
    return dict(zip(sets, power_table(values, weight_sets, cell_volume, shape)))


def difference_table(
    u: GridFunction,
    direction_sets: Iterable[Iterable[int]],
    orders: int | Sequence[int],
    magnitudes: Sequence[Sequence[int]],
    p: float,
) -> dict[tuple[int, ...], np.ndarray]:
    """L_p norms of mixed differences over positive step magnitudes.

    For each direction set e (keyed as a sorted tuple), entry [i_a for a in e]
    is (sum |Delta^{m, e}_s u|^p * cell volume)^(1/p), max |.| when p = inf,
    with step s_a = magnitudes[a][i_a] cells and order orders[a]: a norm, not
    its p-th power, so it is finite whenever the norm fits a float
    (grid.lp_norm_values and grid.power_table rescale sums that leave it).
    Zero extension reads u extended by zero to all of Z^d, periodic reads it
    on the torus.  A zero-extended field is cropped to the bounding box of its
    nonzero values.
    p = 2 then goes through one power spectrum for every direction set
    (Parseval); a zero-extended field is zero-padded along each axis to the
    smallest 5-smooth length (the fastest transform lengths) of at least
    support + m * largest step, past which no circular difference wraps, so the
    padding moves only rounding.  Other p difference directly, each partial
    difference growing by its own reach, from the last axis of e to the first,
    so the most repeated one slices whole rows (axis 0).
    """
    sets = [tuple(sorted(set(int(a) for a in e))) for e in direction_sets]
    orders = [int(m) for m in _as_axis_vector(orders, u.d, "orders")]
    values, vol = u.values, u.cell_volume
    if u.extension == "zero":
        # per axis, the indices of the hyperplanes that hold a nonzero value
        nz = [np.flatnonzero(values.any(axis=tuple(b for b in range(u.d) if b != a))) for a in range(u.d)]
        if not nz[0].size:
            return {e: np.zeros([len(magnitudes[a]) for a in e]) for e in sets}
        values = values[tuple(slice(i[0], i[-1] + 1) for i in nz)]
    if p == 2.0:
        # circular differences on a zero-padded period equal the zero-extended
        # ones once it exceeds support + reach: padding further changes no value
        shape = values.shape
        if u.extension == "zero":
            shape = [_fast_length(n + m * max(mags, default=0))
                     for n, m, mags in zip(shape, orders, magnitudes)]
        return _parseval_tables(values, sets, orders, magnitudes, shape, vol)
    out = {}
    for e in sets:
        out[e] = np.empty([len(magnitudes[a]) for a in e])
        _fill_direct(out[e], values, e, orders, magnitudes, p, vol, u.extension, ())
    return out


def _fill_direct(table, arr, e, orders, magnitudes, p, vol, extension, index) -> None:
    # depth first from the last axis of e, so each partial difference is made once
    if len(index) == len(e):
        table[index[::-1]] = lp_norm_values(arr, p, vol)
        return
    axis = e[-1 - len(index)]
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
                arr = _same_grid_diff(arr, a, orders[a], s, u.extension)
                sl[a] = slice(-orders[a] * s, None) if s < 0 else slice(0, u.n[a] - orders[a] * s)
            best = max(best, lp_norm_values(arr[tuple(sl)], p, u.cell_volume))
    return best


def _dyadic_levels(dx: Sequence[float]) -> tuple[int, ...]:
    """Retained dyadic scales per axis of spacing dx, floor(log2(1/dx)) - 1 so that
    the finest spans two cells; difference norms need at least 2 on every axis."""
    ks = tuple(int(math.floor(math.log2(1.0 / d))) - 1 for d in dx)
    if min(ks) < 2:
        raise GridError(f"grid too coarse for dyadic analysis: levels {ks} per axis, need >= 2")
    return ks


@functools.lru_cache(maxsize=64)
def _level_plan(dx: tuple[float, ...]):
    """Per axis of spacing dx: the sorted steps of every retained level and the read-only
    (levels x steps) membership of admissible_cells(2^-k).  A too-coarse grid raises."""
    mags, members = [], []
    for step, kmax in zip(dx, _dyadic_levels(dx)):
        levels = [admissible_cells(2.0**-k, step) for k in range(kmax + 1)]
        mags.append(tuple(sorted(set().union(*levels))))
        member = np.array([[s in cells for s in mags[-1]] for cells in levels])
        member.flags.writeable = False
        members.append(member)
    return tuple(mags), tuple(members)


def _check_besov_params(r: float, p: float, m_diff: int | None = None) -> None:
    """Besov parameters: r > 0, p in [1, inf] and, when given, an integer
    difference order m_diff > r."""
    if not r > 0:
        raise GridError(f"r must be positive, got {r}")
    if m_diff is not None and not (float(m_diff).is_integer() and m_diff > r):
        raise GridError(f"difference order m_diff={m_diff} must be an integer exceeding r={r}")
    _check_p(p)


def besov_norm_diff(u: GridFunction, r: float, p: float, m_diff: int) -> float:
    """Difference-based Besov norm of dominating mixed smoothness.

    Sum over all direction sets e of the dyadically weighted l_p aggregate of
    moduli at scales 2^-k, k in N_0^d(e), truncated at the per-axis level
    count; the l_p sum over k becomes a sup when p = inf.  Requires the
    difference order to exceed the smoothness r.
    """
    _check_besov_params(r, p, m_diff)
    mags, members = _level_plan(u.dx)
    sets = all_direction_sets(u.d)[1:]
    tables = difference_table(u, sets, m_diff, mags, p)
    total = lp_norm(u, p)
    for e in sets:
        # the modulus at exact level k is the table's max over the level's
        # steps: one masked max per axis of e turns its steps into levels
        omega = tables[e]
        for pos, a in enumerate(e):
            member = members[a].reshape(members[a].shape + (1,) * (len(e) - pos - 1))
            omega = np.where(member, np.expand_dims(omega, pos), -np.inf).max(axis=pos + 1)
        # steps admissible at finer scales stay admissible: the modulus at
        # level k is the max over the upper orthant of exact-level maxima,
        # which keeps the discrete modulus monotone across scales
        for pos in range(len(e)):
            omega = np.flip(np.maximum.accumulate(np.flip(omega, axis=pos), axis=pos), axis=pos)
        total += _dyadic_aggregate(omega, r * np.indices(omega.shape).sum(axis=0), p)
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
    _check_besov_params(r, p, m_diff)
    ks = _dyadic_levels(u.dx)
    # per axis: panel list of (cells, log2 of the weight on the panel's L_p norm): |h|^-r at
    # p = inf, else the p-th root of twice (+s and -s) the panel mass 2^{rp(k+1)} (1 - 2^{-rp}) / (rp)
    offset = 0.0 if math.isinf(p) else (1.0 + math.log2(-math.expm1(-r * p * math.log(2.0)) / (r * p))) / p
    panels: list[list[tuple[int, float]]] = []
    for dxv, kmax in zip(u.dx, ks):
        entries = []
        for k in range(kmax):
            t_hi, t_lo = 2.0**-k, 2.0 ** -(k + 1)
            s_lo = int(math.floor(t_lo / dxv + 1e-12)) + 1
            s_hi = int(math.floor(t_hi / dxv + 1e-12))
            if s_hi < s_lo:
                continue
            s = min(max(int(np.rint(0.75 * t_hi / dxv)), s_lo), s_hi)
            entries.append((s, -r * math.log2(s * dxv) if math.isinf(p) else r * (k + 1) + offset))
        panels.append(entries)

    sets = all_direction_sets(u.d)[1:]
    tables = difference_table(u, sets, m_diff, [[s for s, _ in entries] for entries in panels], p)
    total = lp_norm(u, p)
    for e in sets:
        log2_weights = functools.reduce(np.add.outer, [[w for _, w in panels[a]] for a in e], 0.0)
        total += _dyadic_aggregate(tables[e], log2_weights, p)
    return total


def leibniz_difference(
    psi: GridFunction, phi: GridFunction, m: int, h: float, axis: int = 0
) -> GridFunction:
    """Product-rule expansion of the m-th difference of psi * phi.

    Returns sum_j C(m, j) (D^{m-j} psi)(. + j h) * (D^j phi)(.), which equals
    the direct difference of the product identically on the lattice.
    """
    require_same_grid(psi, phi)
    _check_difference_order(m)
    cells = snap_step(h, psi.dx[axis])
    ext = psi.extension
    out = np.zeros_like(psi.values)
    for j in range(m + 1):
        left = psi.values
        if m - j > 0:
            left = _same_grid_diff(left, axis, m - j, cells, ext)
        left = shift_values(left, axis, j * cells, ext)
        right = phi.values
        if j > 0:
            right = _same_grid_diff(right, axis, j, cells, ext)
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
    _check_difference_order(m)
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
                left = _same_grid_diff(left, a, 2 * m - ui, cells[a], ext)
        for a, ui in zip(axes, u_e):
            left = shift_values(left, a, ui * cells[a], ext)
        right = g.values
        for a, ui in zip(axes, u_e):
            if ui > 0:
                right = _same_grid_diff(right, a, ui, cells[a], ext)
        out.append((tuple(u_full), f.with_values(coeff * left * right)))
    return out
