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
    _dyadic_aggregates,
    _memo_get,
    _memoized,
    _nonzero_hyperplanes,
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


def _direction_set(e: Iterable[int], d: int) -> tuple[int, ...]:
    """e as a sorted tuple of distinct axes; an axis outside 0..d-1 raises GridError."""
    axes = sorted(set(int(a) for a in e))
    if axes and not (0 <= axes[0] and axes[-1] < d):
        raise GridError(f"direction set {axes} out of range for d={d}")
    return tuple(axes)


def _check_difference_order(m: int) -> None:
    if m < 1:
        raise GridError(f"difference order must be >= 1, got {m}")


def directional_difference(u: GridFunction, axis: int, m: int, h: float) -> GridFunction:
    """m-th order difference of u in one direction, step h.

    h is snapped to the nearest whole number of grid cells; a step that snaps
    to zero cells yields the zero function and a DegenerateStepWarning.
    """
    (axis,) = _direction_set((axis,), u.d)
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
    axes = _direction_set(e, u.d)
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


@functools.lru_cache(maxsize=256)
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


# the symbol index s k and its quotient by n are formed in blocks of about this many
# int64 entries each (at least one step), and the p = 2 transforms of same-shape crops
# are stacked up to about this many points (at least one field)
_INDEX_BLOCK = 2**15
_STACK_POINTS = 2**15


def _symbol_rows(n: int, bins: int, m: int, mags) -> np.ndarray:
    # (steps x bins): the difference symbol |e^{i theta s} - 1|^{2m} = (4 sin^2(theta s / 2))^m of a
    # length-n transform at theta = 2 pi k / n, k < bins, gathered at s k mod n block by block: floor
    # division by the scalar n beats np.remainder, and the index lies in [0, n), so clip gathers unbuffered
    symbol = (4.0 * np.sin(np.pi / n * np.arange(n)) ** 2) ** m
    mags, k = np.asarray(mags, dtype=np.intp), np.arange(bins)
    rows, block = np.empty((mags.size, bins)), max(1, _INDEX_BLOCK // bins)
    for at in range(0, mags.size, block):
        idx = np.multiply.outer(mags[at : at + block], k)
        idx -= n * (idx // n)
        symbol.take(idx, out=rows[at : at + idx.shape[0]], mode="clip")
    return rows


def _parseval_tables(crops, sets, orders, magnitudes, shape, cell_volume) -> list[dict]:
    # the tables of same-shape values (crops), each zero-padded to shape: one power spectrum per
    # stack of at most _STACK_POINTS transform points (at least one field), contracted per axis
    # with the symbol rows, which are built once.  modulus leaves the axes outside its direction
    # set without steps
    weights = [_symbol_rows(n, n // 2 + 1 if axis == len(shape) - 1 else n, m, mags)
               for axis, (n, m, mags) in enumerate(zip(shape, orders, magnitudes))]
    weight_sets = [[w if a in e else None for a, w in enumerate(weights)] for e in sets]
    per, out = max(1, _STACK_POINTS // math.prod(shape)), []
    for lo in range(0, len(crops), per):
        chunk = crops[lo : lo + per]
        # a lone field is transformed as a view, without the copy np.stack makes
        tables = power_table(chunk[0][None] if len(chunk) == 1 else np.stack(chunk), weight_sets, cell_volume, shape)
        out.extend({e: t[i] for e, t in zip(sets, tables)} for i in range(len(chunk)))
    return out


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
    nonzero values, L_a cells along axis a.  A far step s_a >= L_a moves the
    m_a + 1 translates of the difference apart, as s_a = L_a does, so every
    far step is taken at s_a = L_a, for every p.  p = 2 goes through one power
    spectrum for every direction set (Parseval); a zero-extended field is
    zero-padded along each axis to the smallest 5-smooth length (the fastest
    transform lengths) of at least L_a + m_a * largest step, past which no
    circular difference wraps, so the padding moves only rounding.  Other p
    difference every step directly, each partial difference
    growing by its own reach, from the last axis of e to the first, so the
    most repeated one slices whole rows (axis 0).  A step below one cell
    raises GridError.
    """
    low = min((s for steps in magnitudes for s in steps), default=1)
    if low < 1:
        raise GridError(f"step magnitudes must be at least one cell, got {low}")
    return _difference_tables([u], direction_sets, orders, magnitudes, p)[0]


def _difference_tables(fields, direction_sets, orders, magnitudes, p) -> list[dict]:
    # difference_table of each of fields, which share their spacing and extension: the crops of
    # one extent share one padded shape, and at p = 2 one set of symbol rows and stacked transforms
    u = fields[0]
    sets = [_direction_set(e, u.d) for e in direction_sets]
    orders = [int(m) for m in _as_axis_vector(orders, u.d, "orders")]
    # Python ints: a numpy integer step has no bit_length for _fast_length
    magnitudes = [[int(s) for s in steps] for steps in magnitudes]
    out, groups = [None] * len(fields), {}
    for i, f in enumerate(fields):
        values = f.values
        if u.extension == "zero":
            nz = _nonzero_hyperplanes(values)
            if not nz[0].size:
                out[i] = {e: np.zeros([len(magnitudes[a]) for a in e]) for e in sets}
                continue
            values = values[tuple(slice(j[0], j[-1] + 1) for j in nz)]
        groups.setdefault(values.shape, []).append((i, values))
    for shape, members in groups.items():
        where, crops = zip(*members)
        mags = magnitudes
        if u.extension == "zero":
            # a step s >= L moves the m + 1 translates of the difference apart, as s = L does:
            # the norm is the same, so every far step is taken at the support's extent L
            mags = [[min(s, n) for s in steps] for n, steps in zip(shape, magnitudes)]
        if p == 2.0:
            # circular differences on a zero-padded period equal the zero-extended
            # ones once it exceeds support + reach: padding further changes no value
            if u.extension == "zero":
                shape = [_fast_length(n + m * max(steps, default=0)) for n, m, steps in zip(shape, orders, mags)]
            tables = _parseval_tables(crops, sets, orders, mags, shape, u.cell_volume)
        else:
            tables = [_direct_tables(v, sets, orders, mags, p, u.cell_volume, u.extension) for v in crops]
        for i, t in zip(where, tables):
            out[i] = t
    return out


def _direct_tables(values, sets, orders, magnitudes, p, vol, extension) -> dict:
    # every entry differenced at its own steps, each set's table filled depth first
    out = {e: np.empty([len(magnitudes[a]) for a in e]) for e in sets}
    for e, table in out.items():
        _fill_direct(table, values, e, orders, magnitudes, p, vol, extension, ())
    return out


def _fill_direct(table, arr, e, orders, magnitudes, p, vol, extension, index) -> None:
    # depth first from the last axis of e, so each partial difference is made once per
    # prefix of steps
    if len(index) == len(e):
        table[index[::-1]] = lp_norm_values(arr, p, vol)
        return
    axis = e[-1 - len(index)]
    for i, s in enumerate(magnitudes[axis]):
        _fill_direct(table, _diff_values(arr, axis, orders[axis], s, extension), e, orders, magnitudes, p, vol,
                     extension, index + (i,))


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
    axes = _direction_set(e, u.d)
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
        best = float(np.max(difference_table(u, [axes], orders, mags, p)[axes]))
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
    """Per axis of spacing dx: the sorted steps, per retained level k the index of the last
    step admissible at level k or finer, and the panels of the integral form as (k, index
    into the steps).  The steps of admissible_cells(2^-j) over the levels j >= k are always
    a prefix of the sorted steps (on every grid swept: 8 to 4,099 cells on widths 1 to 12,
    and 2^13 to 2^16 cells on 12), so the modulus at level k is a maximum over that prefix;
    a grid where they are not raises.  Panel k is [2^-k-1, 2^-k], probed at the whole-cell
    step nearest 3/4 of 2^-k, clipped into it: admissible_cells' 3/4 probe at level k on
    every grid swept, so the steps, the union of every level's and every panel's, are the
    ladder itself and both Besov forms read one difference table.  A too-coarse grid raises."""
    mags, ends, panels = [], [], []
    for step, kmax in zip(dx, _dyadic_levels(dx)):
        levels = [admissible_cells(2.0**-k, step) for k in range(kmax + 1)]
        probes = []
        for k in range(kmax):
            s_lo = int(math.floor(2.0 ** -(k + 1) / step + 1e-12)) + 1
            s_hi = int(math.floor(2.0**-k / step + 1e-12))
            if s_lo <= s_hi:
                probes.append((k, min(max(int(np.rint(0.75 * 2.0**-k / step)), s_lo), s_hi)))
        mags.append(tuple(sorted(set().union(*levels, (s for _, s in probes)))))
        finer = [set().union(*levels[k:]) for k in range(kmax + 1)]
        if any(set(mags[-1][: len(cells)]) != cells for cells in finer):
            raise GridError(f"spacing {step}: the steps of the finer levels are not a prefix of the sorted steps")
        ends.append(tuple(len(cells) - 1 for cells in finer))
        panels.append(tuple((k, mags[-1].index(s)) for k, s in probes))
    return tuple(mags), tuple(ends), tuple(panels)


def _check_besov_params(r: float, p: float, m_diff: int | None = None) -> None:
    """Besov parameters: r > 0, p in [1, inf] and, when given, an integer
    difference order m_diff > r."""
    if not r > 0:
        raise GridError(f"r must be positive, got {r}")
    if m_diff is not None and not (float(m_diff).is_integer() and m_diff > r):
        raise GridError(f"difference order m_diff={m_diff} must be an integer exceeding r={r}")
    _check_p(p)


def _level_maxima(stack, e, dx, r, p):
    # the difference form's levels: per axis of e, a cumulative max along the steps read at each
    # level's prefix end (max is exact, so every bit is the per-field one), weighted 2^{r|k|}
    ends = _level_plan(dx)[1]
    for pos, a in enumerate(e, 1):
        stack = np.maximum.accumulate(stack, axis=pos).take(ends[a], axis=pos)
    return stack, r * np.indices(stack.shape[1:]).sum(axis=0)


def _panel_norms(stack, e, dx, r, p):
    # the integral form's levels: per axis of e, the rows of its panels, weighted |h|^-r at p = inf,
    # else by the p-th root of twice (+s and -s) the panel mass 2^{rp(k+1)} (1 - 2^{-rp}) / (rp)
    mags, _, panels = _level_plan(dx)
    offset = 0.0 if math.isinf(p) else (1.0 + math.log2(-math.expm1(-r * p * math.log(2.0)) / (r * p))) / p
    for pos, a in enumerate(e, 1):
        stack = np.take(stack, [i for _, i in panels[a]], axis=pos)
    log2_weights = [[-r * math.log2(mags[a][i] * dx[a]) if math.isinf(p) else r * (k + 1) + offset
                     for k, i in panels[a]] for a in e]
    return stack, functools.reduce(np.add.outer, log2_weights, 0.0)


def _besov_norms_diff(fields, r: float, p: float, m_diff: int, levels=_level_maxima) -> list[float]:
    # a difference Besov norm of each field, a GridFunction or a grid._Crop, read as it is (a
    # localized piece on its window): besov_norm_diff, or besov_norm_integral with
    # levels=_panel_norms.  Fields of one spacing and extension form their difference tables at
    # the level plan's steps together (_difference_tables), once per field, order and p (a
    # grid._Crop keeps none).  Per nonempty direction set, levels(stack, e, dx, r, p) reads the
    # level norms and their log2 weights off the stacked tables; each total is ||u||_p plus the
    # sets' aggregates, added in order
    _check_besov_params(r, p, m_diff)
    totals, groups, key = [lp_norm(u, p) for u in fields], {}, ("tables", m_diff, p)
    for i, u in enumerate(fields):
        groups.setdefault((u.dx, u.extension), []).append(i)
    for (dx, _), where in groups.items():
        group, sets = [fields[i] for i in where], all_direction_sets(len(dx))[1:]
        tables = [_memo_get(u, key) for u in group]
        missing = [j for j, t in enumerate(tables) if t is None]
        if missing:
            made = _difference_tables([group[j] for j in missing], sets, m_diff, _level_plan(dx)[0], p)
            for j, t in zip(missing, made):
                tables[j] = _memoized(group[j], key, lambda t=t: t)
        for e in sets:
            omega, log2_weights = levels(np.stack([t[e] for t in tables]), e, dx, r, p)
            for i, aggregate in zip(where, _dyadic_aggregates(omega, log2_weights, p)):
                totals[i] += aggregate
    return totals


def besov_norm_diff(u: GridFunction, r: float, p: float, m_diff: int) -> float:
    """Difference-based Besov norm of dominating mixed smoothness.

    Sum over all direction sets e of the dyadically weighted l_p aggregate of
    moduli at scales 2^-k, k in N_0^d(e), truncated at the per-axis level
    count; the l_p sum over k becomes a sup when p = inf.  Requires the
    difference order to exceed the smoothness r.  The modulus at level k is
    the maximum of the field's difference table over the steps admissible at
    level k or finer on every axis of e, a prefix of each axis's sorted steps
    (_level_plan), which keeps the discrete modulus monotone across scales.
    The batch of one of _besov_norms_diff, the driver of both difference forms.
    """
    return _besov_norms_diff([u], r, p, m_diff)[0]


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
    mass of the singular weight is used exactly.  Each panel's step is a step
    of the level plan, so the norms are rows of the difference table that
    besov_norm_diff reads, formed once per field, m_diff and p by whichever
    of the two forms comes first (_besov_norms_diff, their one driver).
    """
    return _besov_norms_diff([u], r, p, m_diff, _panel_norms)[0]


def _leibniz_terms(f: GridFunction, g: GridFunction, axes: tuple[int, ...], order: int, h):
    # (u, C(order, u) * (D^{order-u, axes} f)(. + u <> h) * (D^{u, axes} g)(.)) for every u in
    # {0..order}^axes, lexicographically, u full length: f is differenced on each axis of axes,
    # then shifted, and g differenced
    hv, ext = _as_axis_vector(h, f.d, "h"), f.extension
    cells = {a: snap_step(float(hv[a]), f.dx[a]) for a in axes}
    for u_e in itertools.product(range(order + 1), repeat=len(axes)):
        left, right = f.values, g.values
        for a, ui in zip(axes, u_e):
            if order - ui > 0:
                left = _same_grid_diff(left, a, order - ui, cells[a], ext)
        for a, ui in zip(axes, u_e):
            left = shift_values(left, a, ui * cells[a], ext)
            if ui > 0:
                right = _same_grid_diff(right, a, ui, cells[a], ext)
        coeff = math.prod((comb(order, ui) for ui in u_e), start=1.0)
        yield tuple(dict(zip(axes, u_e)).get(a, 0) for a in range(f.d)), coeff * left * right


def leibniz_difference(
    psi: GridFunction, phi: GridFunction, m: int, h: float, axis: int = 0
) -> GridFunction:
    """Product-rule expansion of the m-th difference of psi * phi.

    Returns sum_j C(m, j) (D^{m-j} psi)(. + j h) * (D^j phi)(.), which equals
    the direct difference of the product identically on the lattice.
    """
    require_same_grid(psi, phi)
    axes = _direction_set((axis,), psi.d)
    _check_difference_order(m)
    out = np.zeros_like(psi.values)
    for _, term in _leibniz_terms(psi, phi, axes, m, h):
        out += term
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
    axes = _direction_set(e, f.d)
    if not axes:
        return [(tuple([0] * f.d), pointwise_multiply(f, g))]
    _check_difference_order(m)
    return [(u, f.with_values(term)) for u, term in _leibniz_terms(f, g, axes, 2 * m, h)]
