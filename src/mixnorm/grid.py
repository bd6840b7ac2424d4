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


class GridFunction:
    """Real scalar field sampled on a uniform grid over a box.

    extension fixes how values outside the box are read: "zero" (the field
    vanishes there) or "periodic" (indices wrap).
    """

    __slots__ = ("box", "values", "extension", "_spectrum")

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
        object.__setattr__(self, "_spectrum", None)

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

    def _power_table(self, weight_sets, cell_volume: float) -> list[np.ndarray]:
        # power_table(values, weight_sets, cell_volume) off one own-shape power spectrum, formed
        # on first use and kept read-only (a field is immutable, with_values makes a new one)
        if self._spectrum is None:
            e, power = _power_spectrum(self.values, self.n)
            power.flags.writeable = False
            object.__setattr__(self, "_spectrum", (e, power))
        return _contract_power(self._spectrum, weight_sets, cell_volume, self.n)

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


def _as_shape(n: Sequence[int] | int, d: int) -> tuple[int, ...]:
    """Positive sample counts of the d axes, from one count or one per axis."""
    n = tuple(int(k) for k in ((n,) * d if isinstance(n, int) else n))
    if len(n) != d:
        raise GridError(f"resolution has length {len(n)}, box has d={d}")
    if any(k < 1 for k in n):
        raise GridError(f"resolution must be positive, got {n}")
    return n


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
    n = _as_shape(n, box.d)
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


def _check_p(p: float) -> None:
    if not p >= 1.0:
        raise GridError(f"p must lie in [1, inf], got {p}")


def lp_norm(u: GridFunction, p: float) -> float:
    """Discrete L_p norm: (sum |u|^p * prod dx)^(1/p); max |u| when p = inf."""
    _check_p(p)
    return lp_norm_values(u.values, p, u.cell_volume)


_MAX_CHAIN_POWER = 64


def _peak(values: np.ndarray) -> float:
    # max |values|, by max and min (np.abs would allocate)
    return max(float(values.max()), -float(values.min()))


def _binary_exponent(values: np.ndarray) -> int:
    # e with 2^(e-1) <= max |values| < 2^e
    return math.frexp(_peak(values))[1]


def lp_norm_values(values: np.ndarray, p: float, cell_volume: float) -> float:
    """(sum |values|^p * cell_volume)^(1/p), or max |values| for p = inf.

    The one place a powered sum is formed and its p-th root taken: tables and
    aggregates carry norms.  The plain sum comes first; only outside [2^-900,
    inf), where a term that moves the root may be subnormal, is it formed again
    from values / max |values|, whose largest term is 1 at every p, with the
    root multiplied back by max |values|.  An integer p up to 64 forms
    |values|^p by square-and-multiply, whose relative error grows like p rounding errors
    (exact at p = 1, and a*a at p = 2 as `**` gives); other p use `**`.  A norm
    outside the float range raises NumericalAnomalyError.
    """
    if math.isinf(p):
        norm = float(np.abs(values).max())
    else:
        with np.errstate(over="ignore"):
            top, total = 1.0, _powered_sum(values, p, cell_volume)
            # (an infinite or all-zero values array keeps its plain sum)
            if not 2.0**-900 <= total < math.inf and 0.0 < (peak := _peak(values)) < math.inf:
                top, total = peak, _powered_sum(values / peak, p, cell_volume)
            norm = total ** (1.0 / p) * top
    if not math.isfinite(norm):
        raise NumericalAnomalyError(f"L_{p:g} norm overflows a float")
    return norm


def _powered_sum(values: np.ndarray, p: float, cell_volume: float) -> float:
    a = np.abs(values)
    if 1 <= p <= _MAX_CHAIN_POWER and p == int(p):
        a = _integer_power(a, int(p))
    else:
        np.power(a, p, out=a)
    return float(a.sum() * cell_volume)


def _integer_power(a: np.ndarray, k: int) -> np.ndarray:
    # left-to-right binary powering; a is overwritten when k is a power of two,
    # since no multiply by a then follows the first square
    acc = a if k & (k - 1) == 0 else a.copy()
    for bit in bin(k)[3:]:
        acc *= acc
        if bit == "1":
            acc *= a
    return acc


def _dyadic_aggregate(norms: np.ndarray, log2_weights: np.ndarray, p: float) -> float:
    # l_p norm (max at p = inf) of 2^log2_weights * norms, each term formed as one
    # exp2: a dyadic weight and a norm may leave the float range, their product not
    with np.errstate(divide="ignore", over="ignore"):
        terms = np.exp2(log2_weights + np.log2(norms))
    return lp_norm_values(terms, p, 1.0)


def power_table(values: np.ndarray, weight_sets: Sequence[Sequence[np.ndarray | None]],
                cell_volume: float, shape: Sequence[int] | None = None) -> list[np.ndarray]:
    """Weighted L_2 norms of real values from one power spectrum (Parseval).

    values are zero-padded to shape and transformed once.  Each entry of weight_sets gives per
    axis a matrix of rows over the frequency indices 0..shape[a]-1, or None to sum the axis; its
    table is (cell_volume / N * sum_xi |F(xi)|^2 prod_a w_a[i_a, xi_a])^(1/2) over the N transform
    points, squared from F / 2^e (e the binary exponent of max |values|) and multiplied back by 2^e:
    exact steps, which keep every square in the float range.  Only the bins 0..n//2 of the last axis
    are transformed and read (its rows may stop there), with the mirrored bins counted twice; so
    every row must be mirror-symmetric, w[k] = w[-k mod n].  The spectrum and the contraction are
    two steps, so a field keeps its own-shape spectrum for later tables (GridFunction._power_table).
    """
    shape = tuple(values.shape if shape is None else shape)
    return _contract_power(_power_spectrum(values, shape), weight_sets, cell_volume, shape)


def _power_spectrum(values: np.ndarray, shape: tuple[int, ...]) -> tuple[int, np.ndarray]:
    # (e, |rfftn(values, shape) / 2^e|^2), the mirrored bins of the last axis counted twice
    e = _binary_exponent(values)
    spec = np.fft.rfftn(values, s=shape, axes=range(len(shape)))
    # in place and exact for every e (F * 2.0**-e overflows for e < -1023, and values / 2^e costs a copy)
    parts = spec.view(np.float64)  # the (re, im) pairs of the C-ordered transform
    np.ldexp(parts, -e, out=parts)
    power = spec.real**2 + spec.imag**2
    power[..., 1 : (shape[-1] + 1) // 2] *= 2.0
    return e, power


def _contract_power(spectrum: tuple[int, np.ndarray], weight_sets, cell_volume: float,
                    shape: tuple[int, ...]) -> list[np.ndarray]:
    # the tables of power_table from a _power_spectrum; reads power without writing it
    e, power = spectrum
    tables = []
    for weights in weight_sets:
        t = power
        for axis, w in enumerate(weights):
            # the leading axis of t is always the next original axis
            if w is None:
                t = t.sum(axis=0)
            else:
                t = np.tensordot(t, np.ascontiguousarray(w[:, : power.shape[axis]]), axes=(0, 1))
        tables.append(np.ldexp(np.sqrt(cell_volume / math.prod(shape) * t), e))
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
