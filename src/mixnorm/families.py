"""Explicit test-function families with known norm-growth rates, and the
slope fitting that turns a measured series into an empirical rate.

Boxes default to dyadic-friendly bounds so sampled node coordinates and all
dyadic dilations are exact in floating point.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .grid import Box, GridError, GridFunction, _as_shape, sample, tensor_product
from .profiles import plateau_bump

DILATED_BOX = (-6.0, 6.0)
OSCILLATORY_BOX = (-2.25, 3.75)


@dataclass(frozen=True)
class TestFamily:
    """Indexed sequence of grid functions, or of (F_n, G_n) pairs for a
    tensor pair family; all members share one grid."""

    indices: tuple[int, ...]
    members: tuple = field(repr=False)


def rate_model(family: str) -> str:
    """How ratios along the named family scale: "power" (~ n^c) along the
    chirp families, "geometric" (~ 2^(c n)) along the dilates."""
    return "power" if family.endswith("oscillatory") else "geometric"


def base_bump(grid_box: Box, resolution: int) -> GridFunction:
    """Smooth bump with plateau [-1, 1], support [-2, 2], sup exactly 1."""
    return dilated_member(grid_box, resolution, 0)


def companion_bump(
    grid_box: Box, resolution: int, plateau: float = 2.0, support: float = 3.0
) -> GridFunction:
    """Wide plateau bump used as the inert tensor factor."""
    return sample(lambda t: plateau_bump(t, plateau, support), grid_box, resolution)


def _check_members(n_min: int, n_max: int, first: int) -> None:
    if n_min < first or n_max < n_min:
        raise GridError(f"invalid index range [{n_min}, {n_max}]; members start at n = {first}")


def _check_dilation(dx: float, n: int) -> None:
    # the support [-2, 2] of member n spans 4 * 2^-n / dx cells
    cells = 4.0 * 2.0**-n / dx
    if cells < 16:
        raise GridError(f"grid spacing {dx:g} leaves {cells:.1f} < 16 cells across the support of member n={n}")


@functools.lru_cache(maxsize=4)
def _base_sample(grid_box: Box, resolution: int) -> GridFunction:
    # the base bump on one grid, shared read-only by every dilate on it
    return sample(lambda t: plateau_bump(t, 1.0, 2.0), grid_box, resolution)


@functools.lru_cache(maxsize=4)
def _base_nodes(grid_box: Box, resolution: int) -> np.ndarray:
    # the base sample's nodes, shared read-only by every dilate on the grid
    x = _base_sample(grid_box, resolution).nodes(0)
    x.flags.writeable = False
    return x


def dilated_member(grid_box: Box, resolution: int, n: int) -> GridFunction:
    """Dyadic dilate f(2^n t) of the base bump, bit-identical to sampling its
    closed form at the grid nodes.

    Scaling by 2^n is exact, so where 2^n x_j is itself a node coordinate the
    value is the base sample's there, gathered from one cached read-only sample
    per grid; every other node inside the support |2^n t| < 2 is evaluated
    from the closed form, and the nodes outside it are 0.
    """
    base, x = _base_sample(grid_box, resolution), _base_nodes(grid_box, resolution)
    values = np.zeros(resolution)
    # |2^n x| < 2 exactly where |x| < 2^(1-n): the nodes where f(2^n t) can be nonzero
    lim = 2.0 ** (1 - n)
    support = slice(np.searchsorted(x, -lim, "right"), np.searchsorted(x, lim))
    y = 2.0**n * x[support]
    # the node nearest each scaled node: a hit only where the two are equal
    k = np.clip(np.rint((y - x[0]) / base.dx[0]), 0, resolution - 1).astype(np.intp)
    hit = x[k] == y
    out = values[support]
    out[hit] = base.values[k[hit]]
    miss = ~hit
    out[miss] = plateau_bump(y[miss], 1.0, 2.0)
    return GridFunction(grid_box, values, "zero")


def dilated_family(
    n_max: int,
    resolution: int,
    box: tuple[float, float] = DILATED_BOX,
    n_min: int = 0,
) -> TestFamily:
    """Dyadic dilates f_n(t) = f(2^n t) of the base bump.

    Members are sampled from the closed form at exact dyadic node positions,
    so f_{n+1} coincides bit-for-bit with the one-level dyadic dilation of
    f_n.  The finest member must keep at least 16 cells across its support.
    """
    _check_members(n_min, n_max, 0)
    _check_dilation((box[1] - box[0]) / resolution, n_max)
    grid_box = Box((box[0],), (box[1],))
    indices = tuple(range(n_min, n_max + 1))
    return TestFamily(indices, tuple(dilated_member(grid_box, resolution, n) for n in indices))


def _ramp_linear(t: np.ndarray, n: int) -> np.ndarray:
    lo, knee = 1.0 / (2 * n), 1.0 / n
    out = np.zeros(t.shape)
    up = (t > lo) & (t < knee)
    out[up] = 2.0 * n * (t[up] - lo)
    out[(t >= knee) & (t <= 1.0)] = 1.0
    down = (t > 1.0) & (t < 1.5)
    out[down] = 2.0 * (1.5 - t[down])
    return out


def _ramp_smooth(t: np.ndarray, n: int) -> np.ndarray:
    # cubic Hermite joins: the ramp derivative is Lipschitz
    lo, knee = 1.0 / (2 * n), 1.0 / n
    out = np.zeros(t.shape)
    up = (t > lo) & (t < knee)
    s = (t[up] - lo) / (knee - lo)
    out[up] = s * s * (3.0 - 2.0 * s)
    out[(t >= knee) & (t <= 1.0)] = 1.0
    down = (t > 1.0) & (t < 1.5)
    s = (t[down] - 1.0) / 0.5
    out[down] = 1.0 - s * s * (3.0 - 2.0 * s)
    return out


def oscillatory_profile(t: np.ndarray, n: int, epsilon: float, ramp: str) -> np.ndarray:
    """phi_n(t) * t * sin(t^-epsilon), zero for t <= 1/(2n) and t >= 3/2."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    pos = t > 1.0 / (2 * n)
    tp = t[pos]
    phi = _ramp_linear(tp, n) if ramp == "linear" else _ramp_smooth(tp, n)
    out[pos] = phi * tp * np.sin(tp ** (-epsilon))
    return out


def _resolves_oscillation(dx: float, n: int, epsilon: float) -> bool:
    return dx <= (1.0 / (2 * n)) ** (1.0 + epsilon) / 8.0


def _check_chirp(dx: float, n: int, epsilon: float, ramp: str) -> None:
    # member n of the chirp family with these parameters, on grid spacing dx
    if not epsilon > 0:
        raise GridError(f"epsilon must be positive, got {epsilon}")
    if ramp not in ("linear", "smooth"):
        raise GridError(f"ramp must be 'linear' or 'smooth', got {ramp!r}")
    if not _resolves_oscillation(dx, n, epsilon):
        raise GridError(f"grid spacing {dx:g} cannot resolve the oscillation at n={n}")


def oscillatory_member(grid_box: Box, resolution: int, n: int, epsilon: float, ramp: str) -> GridFunction:
    """Member f_n of the chirp family, sampled from oscillatory_profile; the
    grid must resolve its oscillation."""
    _check_chirp(grid_box.widths[0] / resolution, n, epsilon, ramp)
    return sample(lambda t: oscillatory_profile(t, n, epsilon, ramp), grid_box, resolution)


def oscillatory_family(
    n_max: int,
    epsilon: float = 1.6,
    ramp: str = "linear",
    resolution: int = 2**15,
    box: tuple[float, float] = OSCILLATORY_BOX,
    n_min: int = 1,
    p: float | None = None,
) -> TestFamily:
    """Chirp family f_n with a ramped cutoff moving toward the singularity.

    The grid must resolve the oscillation at the support edge:
    dx <= (1/(2 n))^(1+epsilon) / 8; if violated, n_max is reduced with a
    warning.  When p is given, epsilon > 1/p and epsilon != 1 + 1/p are
    checked as warnings only.
    """
    _check_members(n_min, n_max, 1)
    if p is not None:
        if epsilon <= 1.0 / p:
            warnings.warn(f"epsilon={epsilon} <= 1/p={1.0 / p}: growth rates degenerate")
        if abs(epsilon - (1.0 + 1.0 / p)) < 1e-12:
            warnings.warn(f"epsilon={epsilon} equals 1 + 1/p: excluded parameter")
    grid_box = Box((box[0],), (box[1],))
    dx = (box[1] - box[0]) / resolution
    _check_chirp(dx, n_min, epsilon, ramp)
    # the bound tightens with n, so the loop stops at n_min or above
    n_ok = n_max
    while not _resolves_oscillation(dx, n_ok, epsilon):
        n_ok -= 1
    if n_ok < n_max:
        warnings.warn(
            f"resolution {resolution} resolves oscillations only up to n={n_ok}; "
            f"reducing n_max from {n_max}"
        )
        n_max = n_ok
    indices = tuple(range(n_min, n_max + 1))
    return TestFamily(indices, tuple(oscillatory_member(grid_box, resolution, n, epsilon, ramp) for n in indices))


MATERIALIZE_LIMIT = 2**24  # grid nodes per tensor member
_ONE_THREAD_PRODUCT = 2**18  # multiply-adds that OpenBLAS keeps on one thread (65536 x its threshold 4)


def _check_tensor_d(d: int) -> None:
    if d not in (2, 3):
        raise GridError(f"tensor pairs need d in {{2, 3}}, got {d}")


def tensor_pair_family(base: TestFamily, d: int, companion: GridFunction) -> TestFamily:
    """Pairs (F_n, G_n): F_n carries f_n on axis 1, G_n on axis 2, the wide
    companion bump everywhere else.

    The companion plateau must cover the support of every base member (so the
    product F_n * G_n carries f_n on both leading axes exactly).  The members
    are materialized d-dimensional grids, the oracle of
    multipliers.tensor_pair_terms, which forms their norms from 1-d factors.
    """
    _check_tensor_d(d)
    if companion.d != 1:
        raise GridError("companion must be one-dimensional")
    for f in base.members:
        if f.d != 1:
            raise GridError("base members must be one-dimensional")
        if f.box != companion.box or f.n != companion.n:
            raise GridError("companion grid must match the base family grid")
        covered = companion.values[f.values != 0.0]
        if covered.size and not np.all(covered == 1.0):
            raise GridError("companion plateau too narrow for the base support")
    nodes = base.members[0].n[0] ** d
    if nodes > MATERIALIZE_LIMIT:
        raise GridError(
            f"materializing {d}-d members at this resolution needs {nodes} nodes "
            f"(> {MATERIALIZE_LIMIT}); use multipliers.tensor_pair_terms for their norms"
        )
    pairs = []
    for f in base.members:
        fn_first = tensor_product(f, companion)
        gn_first = tensor_product(companion, f)
        for _ in range(d - 2):
            fn_first = tensor_product(fn_first, companion)
            gn_first = tensor_product(gn_first, companion)
        pairs.append((fn_first, gn_first))
    return TestFamily(base.indices, tuple(pairs))


def rate_fit(
    series: dict[int, float] | Sequence[tuple[int, float]],
    model: str,
) -> tuple[float, float]:
    """Least-squares exponent of a positive series against an index.

    model "geometric" fits log2(value) against n (value ~ 2^(c n)); model
    "power" fits log(value) against log(n) (value ~ n^c).  Returns the slope
    and the maximum absolute log-domain deviation of the fit.
    """
    if isinstance(series, dict):
        items = sorted(series.items())
    else:
        items = sorted(series)
    if len(items) < 4:
        raise GridError(f"rate fit needs >= 4 points, got {len(items)}")
    ns = np.asarray([k for k, _ in items], dtype=float)
    vals = np.asarray([v for _, v in items], dtype=float)
    if np.any(vals <= 0.0):
        raise GridError("rate fit needs positive values")
    if model == "geometric":
        x, y = ns, np.log2(vals)
    elif model == "power":
        if np.any(ns <= 0.0):
            raise GridError("power model needs positive indices")
        x, y = np.log(ns), np.log(vals)
    else:
        raise GridError(f"model must be 'geometric' or 'power', got {model!r}")
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.max(np.abs(y - (slope * x + intercept))))
    return float(slope), residual


def _check_band(band_cells: int, n: int) -> None:
    if band_cells < 1:
        raise GridError(f"band_cells must be >= 1, got {band_cells}")
    if 2 * band_cells >= n:
        raise GridError(f"band {band_cells} exceeds the Nyquist range of {n} samples")


def _check_window(box: Box, shape: Sequence[int], window: tuple[float, float] | None) -> None:
    # a window must leave some node of every axis inside its support |x| < support
    if window is None:
        return
    for a, n in enumerate(shape):
        if not np.any(np.abs(_axis_nodes(box.lower[a], box.widths[a], n)) < window[1]):
            raise GridError(f"window support {window[1]:g} holds no node of axis {a} on "
                            f"[{box.lower[a]:g}, {box.upper[a]:g}) at {n} samples")


def _axis_nodes(lower: float, width: float, n: int) -> np.ndarray:
    # the nodes of one axis as GridFunction.nodes forms them
    return lower + width / n * np.arange(n)


@functools.lru_cache(maxsize=8)
def _axis_window(lower: float, width: float, n: int, window) -> tuple[int, np.ndarray]:
    # (first, w): the window factor w(x_j) on the rows j = first, first + 1, .. inside its support
    # (every row, w = 1, without a window), read-only; the support is one run of rows
    x, first, stop = _axis_nodes(lower, width, n), 0, n
    if window is not None:
        inside = np.flatnonzero(np.abs(x) < window[1])
        first, stop = int(inside[0]), int(inside[-1]) + 1
    w = np.ones(n) if window is None else plateau_bump(x[first:stop], *window)
    w.flags.writeable = False
    return first, w


@functools.lru_cache(maxsize=8)
def _unit_roots(n: int) -> np.ndarray:
    # e^{2 pi i t / n}, t = 0..n-1, read-only
    angle = 2.0 * np.pi / n * np.arange(n)
    roots = np.cos(angle) + 1j * np.sin(angle)
    roots.flags.writeable = False
    return roots


def _axis_factor(first: int, w: np.ndarray, n: int, kappa: np.ndarray) -> np.ndarray:
    # E[j, kappa] = w(x_j) e^{2 pi i kappa j / n} on rows j = first.., the phase read off the unit
    # roots at (j kappa) mod n
    return w[:, None] * _unit_roots(n)[np.multiply.outer(np.arange(first, first + len(w)), kappa) % n]


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a @ b of two matrices, in tiles of at most _ONE_THREAD_PRODUCT multiply-adds: OpenBLAS runs
    # a product that small on one thread, so the bits do not depend on the BLAS thread count
    (m, k), n = a.shape, b.shape[1]
    cols = min(n, max(1, _ONE_THREAD_PRODUCT // k))
    rows = max(1, _ONE_THREAD_PRODUCT // (k * cols))
    out = np.empty((m, n), np.result_type(a, b))
    for i in range(0, m, rows):
        for j in range(0, n, cols):
            np.matmul(a[i : i + rows], b[:, j : j + cols], out=out[i : i + rows, j : j + cols])
    return out


def random_smooth_field(
    seed_key,
    box: Box,
    shape: Sequence[int] | int,
    band_fraction: float | None = None,
    band_cells: int = 16,
    window: tuple[float, float] | None = (1.5, 2.0),
) -> GridFunction:
    """Seeded band-limited field, optionally windowed to compact support.

    Coefficients are planted at the integer frequency vectors |kappa|_inf <=
    band_cells in a fixed order, so the same seed denotes the same continuum
    function at every resolution (refining the grid only refines the
    sampling).  band_fraction, when given, converts to cells against the
    smallest axis.  The field is normalized by its spectral L2 mass and, if
    window is given, multiplied by the plateau bump prod_i plateau_bump(x_i),
    which confines the support with margin; some node of every axis must lie
    inside the window's support.

    The values are the real part of the inverse DFT of the coefficients,
    evaluated as a separable sum on the window's support only (every node
    without a window): with E_a[j, kappa] = w_a(x_j) e^{2 pi i kappa j / n_a},
    w_a the window factor sampled at the nodes as GridFunction.nodes forms
    them, the support block is Re(E_0 (sym / mass) E_1^T), and likewise in
    d = 1 and 3.  The last axes are contracted in complex, axis 0 in real
    over kappa_0 >= 0 (the block is hermitian along it), and no FFT runs.
    Nodes outside the support are exactly 0, and the rest agree with ifftn
    of the full coefficient array to about 1e-15 of max |u|.  Every matrix
    product is cut small enough for OpenBLAS to run it on one thread, so the
    bits do not depend on the BLAS thread count.
    """
    shape = _as_shape(shape, box.d)
    if band_fraction is not None:
        band_cells = int(band_fraction * min(shape) / 2.0)
    _check_band(band_cells, min(shape))
    _check_window(box, shape, window)
    rng = np.random.default_rng(seed_key)
    d = box.d
    side = 2 * band_cells + 1
    draw = rng.standard_normal((side,) * d) + 1j * rng.standard_normal((side,) * d)
    # hermitian part of the draw: real field, resolution-independent content
    flip = tuple(slice(None, None, -1) for _ in range(d))
    sym = 0.5 * (draw + np.conj(draw[flip]))
    mass = float(np.sqrt(np.sum(np.abs(sym) ** 2)))
    window = None if window is None else tuple(window)  # a cache key
    windows = [_axis_window(box.lower[a], box.widths[a], n, window) for a, n in enumerate(shape)]
    kappa = np.arange(-band_cells, band_cells + 1)
    block = sym / mass
    for a in reversed(range(1, d)):
        factor = _axis_factor(*windows[a], shape[a], kappa)
        moved = np.moveaxis(block, a, -1)
        block = np.moveaxis(_product(moved.reshape(-1, side), factor.T).reshape(moved.shape[:-1] + (-1,)), -1, a)
    # axis 0 in real.  The block is hermitian along it (kappa_0 -> -kappa_0 conjugates it, up to
    # rounding), so Re(E_0 block) reads kappa_0 >= 0 only, each kappa_0 > 0 twice.  It is the
    # (Re, Im) pairs of E_0's float view against the interleaved (Re, -Im) of that half block,
    # formed in slabs of rows that each make one small product
    half = 2.0 * block[band_cells:]
    half[0] = block[band_cells]
    pairs = np.stack([half.real, -half.imag], axis=1).reshape(2 * (band_cells + 1), -1)
    values = np.zeros(shape)
    first, w = windows[0]
    rest = tuple(slice(f, f + len(v)) for f, v in windows[1:])
    step = max(1, _ONE_THREAD_PRODUCT // pairs.size)
    for lo in range(first, first + len(w), step):
        factor = _axis_factor(lo, w[lo - first : lo - first + step], shape[0], kappa[band_cells:])
        slab = (slice(lo, lo + len(factor)),) + rest
        values[slab] = _product(factor.view(np.float64), pairs).reshape(values[slab].shape)
    return GridFunction(box, values, "zero")


def random_trig_field(
    seed_key,
    box: Box,
    shape: Sequence[int] | int,
    kmax: int = 4,
    modes: int = 8,
    octave: int = 0,
) -> tuple[GridFunction, tuple[float, ...]]:
    """Seeded trigonometric sum, exactly band-limited, scalable by octaves.

    Returns (u, b): u(x) = sum_j a_j cos(2^octave w <kappa_j, x> + theta_j)
    with integer modes |kappa|_inf <= kmax and w = 2 pi / box width per axis;
    b is the exact per-axis angular band bound 2^octave * w * kmax.
    """
    shape = _as_shape(shape, box.d)
    rng = np.random.default_rng(seed_key)
    d = box.d
    kappas = rng.integers(-kmax, kmax + 1, size=(modes, d))
    for row in range(modes):  # no constant modes
        if not np.any(kappas[row]):
            kappas[row, 0] = 1
    amps = rng.standard_normal(modes)
    phases = rng.uniform(0.0, 2.0 * np.pi, modes)
    base = [2.0 * np.pi / w for w in box.widths]
    scale = 2.0**octave
    # u = Re sum_j a_j e^{i theta_j} prod_axis e^{i w kappa_j x_axis}: one
    # (modes x n) factor per axis, contracted over the modes at once
    factors = []
    for axis, n in enumerate(shape):
        nodes = _axis_nodes(box.lower[axis], box.widths[axis], n)
        factors.append(np.exp(1j * np.multiply.outer(scale * base[axis] * kappas[:, axis], nodes)))
    axes = "abc"[:d]
    spec = "j," + ",".join("j" + a for a in axes) + "->" + axes
    values = np.einsum(spec, amps * np.exp(1j * phases), *factors, optimize=True).real
    # the modes are exactly box-periodic, so differences may wrap
    u = GridFunction(box, values, "periodic")
    b = tuple(scale * base[axis] * kmax * (1.0 + 1e-9) for axis in range(d))
    return u, b
