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

from .grid import Box, GridError, GridFunction, _as_shape, crop, lp_norm_values, pointwise_multiply
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

    profiles = []
    for axis, (cpu, wc) in enumerate(zip(cells_per_unit, width_cells)):
        offsets = np.arange(-(wc - 1), wc) * dx[axis]
        raw = smooth_partition_base(offsets, base_width)
        # periodized translate sum over one lattice period, indexed by residue
        period = np.zeros(cpu)
        for res in range(cpu):
            x = res * dx[axis]
            mus = range(-int(math.ceil(base_width)) - 1, int(math.ceil(base_width)) + 2)
            period[res] = float(np.sum(smooth_partition_base(
                np.asarray([x - mu for mu in mus]), base_width)))
        if np.any(period <= 0.0):
            raise GridError("translate sum of the base bump vanishes; widen the bump")
        residues = (np.arange(-(wc - 1), wc)) % cpu
        profiles.append(raw / period[residues])

    axis_centers = []
    for axis in range(box.d):
        lo = int(math.floor(box.lower[axis] - base_width)) + 1
        hi = int(math.ceil(box.upper[axis] + base_width)) - 1
        axis_centers.append(tuple(range(lo, hi + 1)))
    return PartitionOfUnity(
        box=box,
        shape=resolution,
        base_width=base_width,
        cells_per_unit=tuple(cells_per_unit),
        width_cells=tuple(width_cells),
        profiles=tuple(profiles),
        axis_centers=tuple(axis_centers),
    )


def _center_index(pou: PartitionOfUnity, mu: Sequence[int]) -> list[int]:
    return [
        int(round((mu[i] - pou.box.lower[i]) * pou.cells_per_unit[i]))
        for i in range(pou.d)
    ]


def _support_slices(pou: PartitionOfUnity, mu: Sequence[int]):
    # per axis: (grid slice, profile slice) of the translate's support
    out = []
    for i in range(pou.d):
        c = _center_index(pou, mu)[i]
        wc = pou.width_cells[i]
        g0, g1 = max(0, c - wc + 1), min(pou.shape[i], c + wc)
        if g0 >= g1:
            return None
        p0 = g0 - (c - wc + 1)
        out.append((slice(g0, g1), slice(p0, p0 + (g1 - g0))))
    return out


def _profile_block(pou: PartitionOfUnity, sl) -> np.ndarray:
    # psi_mu on its support: the tensor product of the per-axis profile slices
    block = pou.profiles[0][sl[0][1]]
    for i in range(1, pou.d):
        block = np.multiply.outer(block, pou.profiles[i][sl[i][1]])
    return block


def _translate_values(pou: PartitionOfUnity, mu: Sequence[int], u: GridFunction | None = None) -> np.ndarray:
    # psi_mu on the full grid, times the values of u when it is given
    values = np.zeros(pou.shape)
    sl = _support_slices(pou, mu)
    if sl is not None:
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


def _cropped_translate_product(
    pou: PartitionOfUnity, u: GridFunction, mu: Sequence[int]
) -> GridFunction | None:
    # psi_mu * u formed on the translate's support only: crop(apply_translate(...))
    _check_partition_grid(pou, u)
    sl = _support_slices(pou, mu)
    if sl is None:
        return None
    sub = u.values[tuple(gs for gs, _ in sl)]
    if not np.any(sub):
        return None
    return crop(u, [(gs.start, gs.stop) for gs, _ in sl]).with_values(sub * _profile_block(pou, sl))


def _pieces(pou: PartitionOfUnity, u: GridFunction) -> list[tuple[tuple[int, ...], GridFunction]]:
    # (mu, psi_mu * u on the translate's support) for every translate that meets the support of u
    pieces = ((mu, _cropped_translate_product(pou, u, mu)) for mu in pou.centers())
    return [(mu, piece) for mu, piece in pieces if piece is not None]


def uniform_norm(u: GridFunction, space: SpaceSpec, pou: PartitionOfUnity) -> float:
    """max over lattice translates of the space norm of psi_mu * u.

    Difference norms read each piece on its crop exactly, and the Besov
    pieces form their tables as one batch (differences._besov_norms_diff);
    Fourier norms need each piece on the full grid.
    """
    if u.extension != "zero":
        raise GridError("uniform norms require zero extension")
    pieces = _pieces(pou, u)
    if space.kind == "besov":
        norms = _besov_norms_diff([piece for _, piece in pieces], space.r, space.p, space.m_diff)
    else:
        norms = [space_norm(apply_translate(pou, u, mu), space) for mu, _ in pieces]
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
    if u.extension != "zero":
        raise GridError("localization requires zero extension")
    pieces = [piece for _, piece in _pieces(pou, u)]
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
