"""Sampled scalar fields on d-dimensional boxes (d <= 3).

Values live on a uniform cell-left grid: node j along axis i sits at
lower[i] + j * dx[i] with dx[i] = (upper[i] - lower[i]) / n[i].  Quadrature is
the left-endpoint Riemann sum, which commutes exactly with whole-cell shifts
and with tensor products.  Grid functions are immutable; every operation is a
pure function of its inputs and reduces with numpy's deterministic pairwise
summation, so results are bit-reproducible regardless of worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

MAX_DIM = 3

Extension = str  # "zero" | "periodic"
_EXTENSIONS = ("zero", "periodic")


class GridError(ValueError):
    """Invalid grid construction or operation."""


class GridMismatchError(GridError):
    """Two grid functions do not share a compatible grid."""


class NumericalAnomalyError(ArithmeticError):
    """A computation produced values outside its asserted numerical envelope."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned box: product of intervals [lower[i], upper[i])."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lower = tuple(float(v) for v in self.lower)
        upper = tuple(float(v) for v in self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if len(lower) != len(upper):
            raise GridError("lower and upper must have the same length")
        if not 1 <= len(lower) <= MAX_DIM:
            raise GridError(f"dimension must be in 1..{MAX_DIM}, got {len(lower)}")
        for i, (a, b) in enumerate(zip(lower, upper)):
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise GridError(f"axis {i}: need finite lower < upper, got [{a}, {b}]")

    @property
    def d(self) -> int:
        return len(self.lower)

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.lower, self.upper))

    @property
    def volume(self) -> float:
        return float(np.prod(self.widths))


@dataclass(frozen=True)
class NormParams:
    """Norm parameterization: integrability p plus a smoothness parameter.

    p may be math.inf; r is fractional smoothness (Besov), m an integer
    derivative order (Sobolev).  m_diff is the difference order used for
    moduli of smoothness and must exceed r.
    """

    p: float
    r: float | None = None
    m: int | None = None
    m_diff: int | None = None

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise GridError(f"p must lie in [1, inf], got {self.p}")
        if self.r is not None and not self.r > 0:
            raise GridError(f"r must be positive, got {self.r}")
        if self.m is not None and (self.m < 0 or self.m != int(self.m)):
            raise GridError(f"m must be a nonnegative integer, got {self.m}")
        if self.m_diff is not None:
            if self.m_diff < 1 or self.m_diff != int(self.m_diff):
                raise GridError(f"m_diff must be a positive integer, got {self.m_diff}")
            if self.r is not None and not self.m_diff > self.r:
                raise GridError(
                    f"difference order m_diff={self.m_diff} must exceed r={self.r}"
                )


class GridFunction:
    """Real scalar field sampled on a uniform grid over a box.

    extension fixes how values outside the box are read: "zero" (the field
    vanishes there) or "periodic" (indices wrap).
    """

    __slots__ = ("box", "values", "extension")

    def __init__(self, box: Box, values: np.ndarray, extension: Extension = "zero"):
        values = np.asarray(values, dtype=float)
        if values.ndim != box.d:
            raise GridError(f"values have ndim {values.ndim}, box has d={box.d}")
        if any(s < 1 for s in values.shape):
            raise GridError("each axis needs at least one sample")
        if extension not in _EXTENSIONS:
            raise GridError(f"extension must be one of {_EXTENSIONS}, got {extension!r}")
        if not np.all(np.isfinite(values)):
            bad = np.argwhere(~np.isfinite(values))[0]
            raise GridError(f"non-finite value at node index {tuple(int(i) for i in bad)}")
        values = np.ascontiguousarray(values)
        values.flags.writeable = False
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "extension", extension)

    def __setattr__(self, name, value):
        raise AttributeError("GridFunction is immutable")

    @property
    def d(self) -> int:
        return self.box.d

    @property
    def n(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def dx(self) -> tuple[float, ...]:
        return tuple(w / s for w, s in zip(self.box.widths, self.values.shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.dx))

    def nodes(self, axis: int) -> np.ndarray:
        """Cell-left node coordinates along one axis."""
        n = self.values.shape[axis]
        return self.box.lower[axis] + self.dx[axis] * np.arange(n)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.box, values, self.extension)

    def __repr__(self) -> str:
        return f"GridFunction(d={self.d}, n={self.n}, box=[{self.box.lower}, {self.box.upper}], extension={self.extension!r})"


def require_same_grid(u: GridFunction, v: GridFunction) -> None:
    """Raise GridMismatchError naming the first mismatched field."""
    if u.box != v.box:
        raise GridMismatchError(f"box mismatch: {u.box} vs {v.box}")
    if u.n != v.n:
        raise GridMismatchError(f"resolution mismatch: {u.n} vs {v.n}")
    if u.extension != v.extension:
        raise GridMismatchError(f"extension mismatch: {u.extension} vs {v.extension}")


def sample(
    expr: Callable[..., np.ndarray],
    box: Box,
    n: Sequence[int] | int,
    extension: Extension = "zero",
) -> GridFunction:
    """Evaluate a scalar field at the cell-left nodes of a box.

    expr receives one broadcastable coordinate array per axis.  A non-finite
    sample is rejected with the offending node coordinates.
    """
    if isinstance(n, int):
        n = (n,) * box.d
    n = tuple(int(k) for k in n)
    if len(n) != box.d:
        raise GridError(f"resolution has length {len(n)}, box has d={box.d}")
    if any(k < 1 for k in n):
        raise GridError(f"resolution must be positive, got {n}")
    axes = [
        box.lower[i] + (box.upper[i] - box.lower[i]) / n[i] * np.arange(n[i])
        for i in range(box.d)
    ]
    coords = np.meshgrid(*axes, indexing="ij")
    values = np.asarray(expr(*coords), dtype=float)
    values = np.broadcast_to(values, n).copy()
    if not np.all(np.isfinite(values)):
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
        where = tuple(float(axes[k][idx[k]]) for k in range(box.d))
        raise GridError(f"expression is non-finite at node {where}")
    return GridFunction(box, values, extension)


def lp_norm(u: GridFunction, p: float) -> float:
    """Discrete L_p norm: (sum |u|^p * prod dx)^(1/p); max |u| when p = inf."""
    if not p >= 1.0:
        raise GridError(f"p must lie in [1, inf], got {p}")
    a = np.abs(u.values)
    if math.isinf(p):
        return float(np.max(a))
    return float(np.sum(a**p) * u.cell_volume) ** (1.0 / p)


def lp_norm_pow(values: np.ndarray, p: float, cell_volume: float) -> float:
    """sum |values|^p * cell_volume, or max |values| for p = inf.

    Powered form used by dyadic-scale accumulations to avoid repeated roots.
    """
    a = np.abs(values)
    if math.isinf(p):
        return float(np.max(a))
    return float(np.sum(a**p) * cell_volume)


def power_table(values: np.ndarray, weight_sets: Sequence[Sequence[np.ndarray | None]],
                cell_volume: float, shape: Sequence[int] | None = None) -> list[np.ndarray]:
    """Weighted L_2 energies of real values from one power spectrum (Parseval).

    values are zero-padded to shape and transformed once.  Each entry of weight_sets gives per
    axis a matrix of rows over the frequency indices 0..shape[a]-1, or None to sum the axis; its
    table is cell_volume / N * sum_xi |F(xi)|^2 prod_a w_a[i_a, xi_a] over the N transform points.
    Only the bins 0..n//2 of the last axis are transformed and read (its rows may stop there),
    with the mirrored bins counted twice; so every row must be mirror-symmetric, w[k] = w[-k mod n].
    """
    shape = tuple(values.shape if shape is None else shape)
    spec = np.fft.rfftn(values, s=shape, axes=range(len(shape)))
    power = spec.real**2 + spec.imag**2
    # count the mirrored bins of the last axis twice
    power[..., 1 : (shape[-1] + 1) // 2] *= 2.0
    tables = []
    for weights in weight_sets:
        t = power
        for axis, w in enumerate(weights):
            # the leading axis of t is always the next original axis
            if w is None:
                t = t.sum(axis=0)
            else:
                t = np.tensordot(t, np.ascontiguousarray(w[:, : power.shape[axis]]), axes=(0, 1))
        tables.append(cell_volume / math.prod(shape) * t)
    return tables


def pointwise_multiply(u: GridFunction, v: GridFunction) -> GridFunction:
    """Node-wise product of two fields on the same grid."""
    require_same_grid(u, v)
    return u.with_values(u.values * v.values)


def tensor_product(u: GridFunction, v: GridFunction) -> GridFunction:
    """(u x v)(x, y) = u(x) v(y) on the Cartesian product box."""
    if u.d + v.d > MAX_DIM:
        raise GridError(f"tensor product would have dimension {u.d + v.d} > {MAX_DIM}")
    if u.extension != v.extension:
        raise GridMismatchError(f"extension mismatch: {u.extension} vs {v.extension}")
    box = Box(u.box.lower + v.box.lower, u.box.upper + v.box.upper)
    values = np.multiply.outer(u.values, v.values)
    return GridFunction(box, values, u.extension)


def shift(u: GridFunction, cells: Sequence[int] | int) -> GridFunction:
    """Translate by a whole number of grid cells per axis.

    Node j receives the value previously held at j + cells (i.e. the field
    moves by -cells * dx).  Vacated cells fill per the extension rule; with
    zero extension, mass shifted past the edge is dropped.
    """
    if isinstance(cells, (int, np.integer)):
        cells = (int(cells),) * u.d
    cells = tuple(cells)
    if len(cells) != u.d:
        raise GridError(f"shift vector has length {len(cells)}, expected {u.d}")
    for c in cells:
        if c != int(c):
            raise GridError(f"shift must be whole cells, got {c}")
    out = u.values
    for axis, c in enumerate(cells):
        out = shift_values(out, axis, int(c), u.extension)
    return u.with_values(out)


def shift_values(values: np.ndarray, axis: int, cells: int, extension: Extension) -> np.ndarray:
    """Array core of `shift` along one axis: out[j] = values[j + cells]."""
    if cells == 0:
        return values
    if extension == "periodic":
        return np.roll(values, -cells, axis=axis)
    n = values.shape[axis]
    out = np.zeros_like(values)
    if abs(cells) >= n:
        return out
    src = [slice(None)] * values.ndim
    dst = [slice(None)] * values.ndim
    if cells > 0:
        dst[axis] = slice(0, n - cells)
        src[axis] = slice(cells, n)
    else:
        dst[axis] = slice(-cells, n)
        src[axis] = slice(0, n + cells)
    out[tuple(dst)] = values[tuple(src)]
    return out


def dyadic_dilate(u: GridFunction, nlevels: int) -> GridFunction:
    """t -> u(2^nlevels * t) on the same 1-d box with zero extension.

    Node positions 2^nlevels * x_j must land exactly on the original grid
    (true for symmetric dyadic boxes with even resolution); otherwise the
    dilation is rejected rather than silently resampled.
    """
    if u.d != 1:
        raise GridError("dyadic_dilate is defined for one-dimensional functions")
    if nlevels < 0:
        raise GridError(f"nlevels must be >= 0, got {nlevels}")
    if nlevels == 0:
        return u
    n = u.n[0]
    factor = 2**nlevels
    nz = np.nonzero(u.values)[0]
    if nz.size:
        support_cells = int(nz[-1] - nz[0] + 1)
        if support_cells // factor < 8:
            raise GridError(
                f"resolution too coarse: dilated support would span "
                f"{support_cells // factor} < 8 samples"
            )
    a, dxv = u.box.lower[0], u.dx[0]
    # index of 2^k * x_j in the source grid: s0 + j * 2^k with s0 = (2^k - 1) a / dx
    s0 = (factor - 1) * a / dxv
    if abs(s0 - round(s0)) > 1e-9:
        raise GridError(
            "dilated nodes do not align with the source grid; "
            "use a box whose lower bound is an exact multiple of dx"
        )
    idx = int(round(s0)) + factor * np.arange(n)
    valid = (idx >= 0) & (idx < n)
    out = np.zeros(n)
    out[valid] = u.values[idx[valid]]
    return GridFunction(u.box, out, "zero")


def coarsen(u: GridFunction, factor: int) -> GridFunction:
    """Keep every factor-th sample per axis (matched-grid companion to dilation)."""
    if factor < 1:
        raise GridError(f"factor must be >= 1, got {factor}")
    if any(s % factor for s in u.n):
        raise GridError(f"resolution {u.n} not divisible by {factor}")
    sl = tuple(slice(None, None, factor) for _ in range(u.d))
    return GridFunction(u.box, u.values[sl], u.extension)


def crop(u: GridFunction, index_ranges: Sequence[tuple[int, int]]) -> GridFunction:
    """Restrict to a cell-aligned sub-box; node alignment and dx are preserved.

    With zero extension a window that holds the whole support keeps every
    difference norm: those read the field extended by zero to all of Z^d.
    """
    if len(index_ranges) != u.d:
        raise GridError(f"need {u.d} index ranges, got {len(index_ranges)}")
    lo, hi, slices = [], [], []
    for axis, (j0, j1) in enumerate(index_ranges):
        if not (0 <= j0 < j1 <= u.n[axis]):
            raise GridError(f"axis {axis}: invalid index range ({j0}, {j1})")
        d = u.dx[axis]
        lo.append(u.box.lower[axis] + j0 * d)
        hi.append(u.box.lower[axis] + j1 * d)
        slices.append(slice(j0, j1))
    return GridFunction(Box(tuple(lo), tuple(hi)), u.values[tuple(slices)], u.extension)
