"""Lattice partitions of unity and pointwise-multiplication experiments.

The base bump is a mollifier of support width two lattice cells, divided by
its own periodized translate sum, so the integer translates sum to 1 by
construction (minimal overlap: two bumps per axis cover every point).  The
d-dimensional bump is the tensor power of the 1-d base.

Besov norms of localized pieces psi_mu * u are evaluated on a cell-aligned
crop of the grid to the translate's support; difference norms read a
zero-extended field as extended by zero to all of Z^d, so this is exact, not
an approximation.

The five terms of the algebra and Moser ratios are formed here only: of a
materialized pair by pair_terms, of a tensor pair from 1-d factors by
tensor_pair_terms.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .grid import (Box, GridError, GridFunction, _as_shape, _Crop, _nonzero_hyperplanes, lp_norm_values,
                   pointwise_multiply)
from .differences import _besov_norms_diff, besov_norm_diff
from .families import _check_tensor_d, companion_bump
from .profiles import smooth_partition_base
from .spaces import SpaceSpec, space_norm, sup_norm


@dataclass(frozen=True)
class PartitionOfUnity:
    """Normalized bump translates on the unit lattice of a box.

    profiles[i] holds the 1-d nodal bump on axis i at cell offsets
    -(width_cells - 1) .. (width_cells - 1) relative to a lattice point;
    centers lists the integer lattice translates whose support meets the box.
    """

    box: Box
    shape: tuple[int, ...]
    base_width: float
    cells_per_unit: tuple[int, ...]
    width_cells: tuple[int, ...]
    profiles: tuple[np.ndarray, ...] = field(repr=False)
    axis_centers: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def d(self) -> int:
        return self.box.d

    def centers(self) -> list[tuple[int, ...]]:
        """All active lattice translates (integer coordinates)."""
        return [tuple(c) for c in itertools.product(*self.axis_centers)]

    def inner_ranges(self) -> tuple[tuple[int, int], ...]:
        """Node index ranges of the inner box, where the translate sum is 1."""
        return tuple(
            (wc, n - wc) for wc, n in zip(self.width_cells, self.shape)
        )


def build_partition(
    base_width: float, box: Box, resolution: Sequence[int] | int
) -> PartitionOfUnity:
    """Partition of unity from a normalized mollifier bump on the unit lattice.

    Requires the grid to resolve the lattice exactly: one unit must be a whole
    number of cells per axis and the box corners must sit on the lattice grid.
    """
    if not base_width > 0:
        raise GridError(f"base width must be positive, got {base_width}")
    resolution = _as_shape(resolution, box.d)
    dx = [w / n for w, n in zip(box.widths, resolution)]
    cells_per_unit = []
    for axis, d_ in enumerate(dx):
        cpu = 1.0 / d_
        if abs(cpu - round(cpu)) > 1e-9:
            raise GridError(f"axis {axis}: one lattice unit is not a whole number of cells")
        if abs(box.lower[axis] * round(cpu) - round(box.lower[axis] * round(cpu))) > 1e-9:
            raise GridError(f"axis {axis}: box corner does not sit on the cell grid")
        cells_per_unit.append(int(round(cpu)))
    width_cells = []
    for axis, cpu in enumerate(cells_per_unit):
        wc = base_width * cpu
        if abs(wc - round(wc)) > 1e-9:
            raise GridError(f"axis {axis}: base width is not a whole number of cells")
        width_cells.append(int(round(wc)))

    profiles, reach = [], int(math.ceil(base_width)) + 1
    for axis, (cpu, wc) in enumerate(zip(cells_per_unit, width_cells)):
        cells = np.arange(-(wc - 1), wc)
        raw = smooth_partition_base(cells * dx[axis], base_width)
        # periodized translate sum over one lattice period, indexed by residue: row res sums the
        # bumps of the translates mu at res * dx - mu
        shifts = (np.arange(cpu) * dx[axis])[:, None] - np.arange(-reach, reach + 1)
        period = smooth_partition_base(shifts, base_width).sum(axis=1)
        if np.any(period <= 0.0):
            raise GridError("translate sum of the base bump vanishes; widen the bump")
        profiles.append(raw / period[cells % cpu])

    # the integer translates whose support (mu - base_width, mu + base_width) meets the box
    axis_centers = [tuple(range(int(math.floor(lo - base_width)) + 1, int(math.ceil(hi + base_width))))
                    for lo, hi in zip(box.lower, box.upper)]
    return PartitionOfUnity(
        box=box,
        shape=resolution,
        base_width=base_width,
        cells_per_unit=tuple(cells_per_unit),
        width_cells=tuple(width_cells),
        profiles=tuple(profiles),
        axis_centers=tuple(axis_centers),
    )


def _axis_support(pou: PartitionOfUnity, axis: int, m: int):
    # (grid slice, profile slice) on the axis of the support of the translates centred at
    # lattice coordinate m, or None when it misses the grid
    c = int(round((m - pou.box.lower[axis]) * pou.cells_per_unit[axis]))
    wc = pou.width_cells[axis]
    g0, g1 = max(0, c - wc + 1), min(pou.shape[axis], c + wc)
    if g0 >= g1:
        return None
    p0 = g0 - (c - wc + 1)
    return slice(g0, g1), slice(p0, p0 + (g1 - g0))


def _profile_block(pou: PartitionOfUnity, sl) -> np.ndarray:
    # psi_mu on its support: the tensor product of the per-axis profile slices
    block = pou.profiles[0][sl[0][1]]
    for i in range(1, pou.d):
        block = np.multiply.outer(block, pou.profiles[i][sl[i][1]])
    return block


def _translate_values(pou: PartitionOfUnity, mu: Sequence[int], u: GridFunction | None = None) -> np.ndarray:
    # psi_mu on the full grid, times the values of u when it is given
    values = np.zeros(pou.shape)
    sl = [_axis_support(pou, i, m) for i, m in enumerate(mu)]
    if None not in sl:
        block = _profile_block(pou, sl)
        grid_sl = tuple(gs for gs, _ in sl)
        values[grid_sl] = block if u is None else u.values[grid_sl] * block
    return values


def translate_function(pou: PartitionOfUnity, mu: Sequence[int]) -> GridFunction:
    """Materialize the bump translate psi_mu on the full grid."""
    return GridFunction(pou.box, _translate_values(pou, mu), "zero")


def _check_partition_grid(pou: PartitionOfUnity, u: GridFunction) -> None:
    if tuple(u.n) != pou.shape or u.box != pou.box:
        raise GridError("function grid does not match the partition grid")


def apply_translate(pou: PartitionOfUnity, u: GridFunction, mu: Sequence[int]) -> GridFunction:
    """psi_mu * u on the full grid."""
    _check_partition_grid(pou, u)
    return GridFunction(pou.box, _translate_values(pou, mu, u), u.extension)


def partition_deviation(pou: PartitionOfUnity) -> float:
    """max |sum_mu psi_mu - 1| over the inner box nodes."""
    total = np.zeros(pou.shape)
    for mu in pou.centers():
        total += translate_function(pou, mu).values
    inner = tuple(slice(a, b) for a, b in pou.inner_ranges())
    return float(np.max(np.abs(total[inner] - 1.0)))


def _meeting_translates(pou: PartitionOfUnity, u: GridFunction) -> list[tuple]:
    # (mu, per axis the _axis_support of mu) of every translate whose support meets the support of
    # u, in the order of pou.centers(); each axis's supports are formed once per centre, and those
    # that miss the nonzero hyperplanes' range on their axis are dropped before any window is read.
    # Every localized norm starts here, so here u must be zero-extended: a piece is read on its crop
    _check_partition_grid(pou, u)
    if u.extension != "zero":
        raise GridError("localized norms require zero extension")
    nz = _nonzero_hyperplanes(u.values)
    if not nz[0].size:
        return []
    axes = [[(m, sl) for m in centers if (sl := _axis_support(pou, a, m)) is not None
             and sl[0].start <= hit[-1] and hit[0] < sl[0].stop]
            for a, (centers, hit) in enumerate(zip(pou.axis_centers, nz))]
    translates = (tuple(zip(*combo)) for combo in itertools.product(*axes))
    return [(mu, sl) for mu, sl in translates if u.values[tuple(gs for gs, _ in sl)].any()]


def _pieces(pou: PartitionOfUnity, u: GridFunction) -> list[tuple[tuple[int, ...], tuple[int, ...], _Crop]]:
    # (mu, crop origin, psi_mu * u on its crop) of every translate that meets the support of u, in
    # the order of pou.centers(): the products go straight into one stack per crop extent, each
    # row with the spacing grid.crop gives its window, which on a grid whose spacing is not a
    # dyadic fraction differs from u's in the last bit
    meeting, lower, dx = _meeting_translates(pou, u), pou.box.lower, u.dx
    extents = {}
    for j, (_, sl) in enumerate(meeting):
        extents.setdefault(tuple(gs.stop - gs.start for gs, _ in sl), []).append(j)
    out = [None] * len(meeting)
    for extent, members in extents.items():
        blocks = {}  # psi_mu on its support, by the start of each axis's profile slice
        for j, row in zip(members, np.empty((len(members),) + extent)):
            mu, sl = meeting[j]
            key = tuple(ps.start for _, ps in sl)
            if key not in blocks:
                blocks[key] = _profile_block(pou, sl)
            np.multiply(u.values[tuple(gs for gs, _ in sl)], blocks[key], out=row)
            spacing = tuple((lower[a] + gs.stop * dx[a] - (lower[a] + gs.start * dx[a])) / (gs.stop - gs.start)
                            for a, (gs, _) in enumerate(sl))
            out[j] = (mu, tuple(gs.start for gs, _ in sl), _Crop(row, spacing))
    return out


def uniform_norm(u: GridFunction, space: SpaceSpec, pou: PartitionOfUnity) -> float:
    """max over lattice translates of the space norm of psi_mu * u.

    Difference norms read each piece on its crop exactly, and the Besov
    pieces form their tables as one batch (differences._besov_norms_diff);
    Fourier norms need each piece on the full grid, formed only for the
    translates that meet the support of u.
    """
    if space.kind == "besov":
        norms = _besov_norms_diff([piece for _, _, piece in _pieces(pou, u)], space.r, space.p, space.m_diff)
    else:
        norms = [space_norm(apply_translate(pou, u, mu), space) for mu, _ in _meeting_translates(pou, u)]
    return max([0.0, *norms])


def localization_ratio(
    u: GridFunction, r: float, p: float, m_diff: int, pou: PartitionOfUnity
) -> float:
    """Whole-domain Besov norm over the l_p aggregate of localized norms.

    The input should be compactly supported in the inner box, where the
    translates sum to 1.  The whole field and its pieces, each on its crop,
    go through besov_norm_diff as one batch (differences._besov_norms_diff):
    the pieces of one crop extent share their p = 2 transforms.
    """
    pieces = [piece for _, _, piece in _pieces(pou, u)]
    numer, *norms = _besov_norms_diff([u, *pieces], r, p, m_diff)
    if numer == 0.0:
        raise GridError("localization ratio undefined for the zero function")
    if not norms:
        raise GridError("no translate overlaps the support of u")
    return numer / lp_norm_values(np.asarray(norms), p, 1.0)


def pair_terms(f: GridFunction, g: GridFunction, space: SpaceSpec) -> dict:
    """norm_f, norm_g, norm_fg, sup_f and sup_g of the pair (f, g): the terms
    of the algebra and Moser ratios."""
    return {"norm_f": space_norm(f, space), "norm_g": space_norm(g, space),
            "norm_fg": space_norm(pointwise_multiply(f, g), space), "sup_f": sup_norm(f), "sup_g": sup_norm(g)}


def _check_tensor_space(kind: str) -> None:
    # the factorization is exact for difference norms, the canonical Besov norm
    if kind != "besov":
        raise GridError(f"tensor pair terms are Besov difference norms; got space kind {kind!r}")


@functools.lru_cache(maxsize=4)
def _companion_terms(box: Box, resolution: int, plateau: float, support: float, space: SpaceSpec, d: int):
    # the companion factor does not depend on the member: once per process
    g = companion_bump(box, resolution, plateau, support)
    bgg = besov_norm_diff(pointwise_multiply(g, g), space.r, space.p, space.m_diff) if d == 3 else 1.0
    return g, besov_norm_diff(g, space.r, space.p, space.m_diff), bgg, sup_norm(g)


def tensor_pair_terms(f: GridFunction, plateau: float, support: float, space: SpaceSpec, d: int) -> dict:
    """pair_terms of the member (F, G) of tensor_pair_family(_, d, g) whose
    base member is f, with g = companion_bump(plateau, support) on the grid of f.

    Exact cross-norm factorization: the difference norms of the tensor
    members equal products of 1-d factor norms in this discretization, so no
    d-dimensional array is formed.  Needs a Besov space and d in {2, 3}.
    """
    _check_tensor_space(space.kind)
    _check_tensor_d(d)
    g, bg, bgg, sup_g = _companion_terms(f.box, f.n[0], plateau, support, space, d)
    fg = pointwise_multiply(f, g)
    bf = besov_norm_diff(f, space.r, space.p, space.m_diff)
    # where g is 1 on the support of f the product is f itself, and so is its norm
    bfg = bf if np.array_equal(fg.values, f.values) else besov_norm_diff(fg, space.r, space.p, space.m_diff)
    norm_big = bf * bg ** (d - 1)
    sup_big = sup_norm(f) * sup_g ** (d - 1)
    return {"norm_f": norm_big, "norm_g": norm_big, "norm_fg": bfg * bfg * bgg, "sup_f": sup_big, "sup_g": sup_big}


def _algebra_denominator(t: dict) -> float:
    # norm(f) * norm(g), of pair terms t
    if t["norm_f"] == 0.0 or t["norm_g"] == 0.0:
        raise GridError("algebra ratio undefined for zero-norm inputs")
    return t["norm_f"] * t["norm_g"]


def _moser_denominator(t: dict) -> float:
    # norm(f) sup|g| + sup|f| norm(g), of pair terms t
    denom = t["norm_f"] * t["sup_g"] + t["sup_f"] * t["norm_g"]
    if denom == 0.0:
        raise GridError("moser ratio undefined: zero denominator")
    return denom


def algebra_ratio(f: GridFunction, g: GridFunction, space: SpaceSpec) -> float:
    """norm(f * g) / (norm(f) * norm(g)); bounded families exhibit the
    multiplication-algebra property."""
    t = pair_terms(f, g, space)
    return t["norm_fg"] / _algebra_denominator(t)


def moser_ratio(f: GridFunction, g: GridFunction, space: SpaceSpec) -> float:
    """norm(f * g) / (norm(f) sup|g| + sup|f| norm(g)).

    Unbounded growth along a test family disproves the product inequality
    with mixed L_infinity terms for the given space.
    """
    t = pair_terms(f, g, space)
    return t["norm_fg"] / _moser_denominator(t)
