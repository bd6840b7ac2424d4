"""Dyadic frequency decompositions and Fourier-side norms.

The discrete transform uses the unitary FFT convention (norm="ortho"), so
Parseval identities hold exactly on the grid; the continuous-transform
normalization constant (2 pi)^(-d/2) per axis is absorbed into the recorded
convention and cancels in every ratio this library reports.

Frequencies are angular: xi = 2 pi * fftfreq(n, dx).  The top dyadic level
per axis is chosen as ceil(log2(max |xi|)), which makes the last window agree
with the generating formula at every retained frequency while the level sums
telescope to exactly 1, so block reconstruction is exact for all inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .grid import (GridError, GridFunction, NumericalAnomalyError, lp_norm, lp_norm_pow,
                   power_table, shift_values)
from .differences import mixed_difference, snap_step, _as_axis_vector
from .profiles import smoothstep


def _angular_freqs(u: GridFunction) -> list[np.ndarray]:
    return [2.0 * np.pi * np.fft.fftfreq(n, d=dxv) for n, dxv in zip(u.n, u.dx)]


def _derivative_symbol(xi: np.ndarray, a: int) -> np.ndarray:
    # (i xi)^a; odd orders zero the unpaired Nyquist mode of an even grid
    mult = (1j * xi) ** a
    n = xi.shape[0]
    if a % 2 == 1 and n % 2 == 0:
        mult[n // 2] = 0.0
    return mult


@dataclass(frozen=True)
class Spectrum:
    """Discrete Fourier data of a grid function (unitary convention)."""

    coefficients: np.ndarray
    freqs: tuple[np.ndarray, ...]
    convention: str = "ortho"


def spectrum(u: GridFunction) -> Spectrum:
    coeffs = np.fft.fftn(u.values, norm="ortho")
    return Spectrum(coeffs, tuple(_angular_freqs(u)))


def smooth_cutoff(xi: np.ndarray) -> np.ndarray:
    """Low-pass window: 1 on [-1, 1], 0 outside (-3/2, 3/2), C-infinity.

    The transition is the integrated-mollifier ramp from profiles.
    """
    a = np.abs(np.asarray(xi, dtype=float))
    out = np.zeros(a.shape)
    out[a <= 1.0] = 1.0
    trans = (a > 1.0) & (a < 1.5)
    if np.any(trans):
        out[trans] = 1.0 - smoothstep((a[trans] - 1.0) / 0.5)
    return out


@dataclass(frozen=True)
class DyadicSystem:
    """Family of 1-d frequency windows per axis, indexed by dyadic level.

    kind "smooth": level 0 is the low-pass cutoff, level j >= 1 is the
    difference of two dilates of it (supported where 2^(j-1) <= |xi| <=
    3 * 2^(j-1)).  kind "sharp": level 0 is the indicator of [-1, 1], level j
    the indicator of the dyadic annulus (2^(j-1), 2^j].  Windows sum to 1 at
    every retained frequency; sharp windows partition the grid exactly.
    """

    kind: str
    shape: tuple[int, ...]
    j_max: tuple[int, ...]
    axis_windows: tuple[tuple[np.ndarray, ...], ...] = field(repr=False)
    freqs: tuple[np.ndarray, ...] = field(repr=False)

    def window(self, k: Sequence[int]) -> list[np.ndarray]:
        """Per-axis 1-d masks of the block at multi-level k."""
        return [self.axis_windows[i][ki] for i, ki in enumerate(k)]

    def levels(self) -> itertools.product:
        return itertools.product(*(range(j + 1) for j in self.j_max))


def _axis_windows(xi: np.ndarray, kind: str) -> list[np.ndarray]:
    xi_max = float(np.max(np.abs(xi)))
    j_top = max(1, int(math.ceil(math.log2(xi_max))))
    a = np.abs(xi)
    wins: list[np.ndarray] = []
    if kind == "smooth":
        prev = smooth_cutoff(xi)  # level 0
        wins.append(prev)
        for j in range(1, j_top + 1):
            cur = smooth_cutoff(xi / 2.0**j)
            wins.append(cur - prev)
            prev = cur
        # grid frequencies satisfy |xi| <= 2^j_top, so the top window already
        # equals 1 - cutoff(xi / 2^(j_top - 1)) there; force the telescoping
        # closure exactly:
        wins[-1] = 1.0 - smooth_cutoff(xi / 2.0 ** (j_top - 1))
    elif kind == "sharp":
        wins.append((a <= 1.0).astype(float))
        for j in range(1, j_top):
            wins.append(((a > 2.0 ** (j - 1)) & (a <= 2.0**j)).astype(float))
        wins.append((a > 2.0 ** (j_top - 1)).astype(float))
    else:
        raise GridError(f"kind must be 'smooth' or 'sharp', got {kind!r}")
    return wins


def build_system(kind: str, box, resolution: Sequence[int] | int) -> DyadicSystem:
    """Dyadic decomposition of unity on the frequency grid of a box.

    Resolution must be a power of two, at least 16 per axis.
    """
    if isinstance(resolution, int):
        resolution = (resolution,) * box.d
    resolution = tuple(int(n) for n in resolution)
    if len(resolution) != box.d:
        raise GridError(f"resolution has length {len(resolution)}, box has d={box.d}")
    for n in resolution:
        if n < 16:
            raise GridError(f"resolution must be >= 16 per axis, got {n}")
        if n & (n - 1):
            raise GridError(f"resolution must be a power of two, got {n}")
    dx = [w / n for w, n in zip(box.widths, resolution)]
    freqs = tuple(2.0 * np.pi * np.fft.fftfreq(n, d=d_) for n, d_ in zip(resolution, dx))
    axis_windows = tuple(tuple(_axis_windows(xi, kind)) for xi in freqs)
    j_max = tuple(len(w) - 1 for w in axis_windows)
    return DyadicSystem(kind, resolution, j_max, axis_windows, freqs)


def system_for(u: GridFunction, kind: str = "smooth") -> DyadicSystem:
    return build_system(kind, u.box, u.n)


def _apply_mask(coeffs: np.ndarray, axis_masks: Sequence[np.ndarray]) -> np.ndarray:
    out = coeffs
    for axis, mask in enumerate(axis_masks):
        shape = [1] * coeffs.ndim
        shape[axis] = mask.shape[0]
        out = out * mask.reshape(shape)
    return out


def _real_part_checked(block: np.ndarray, scale: float) -> np.ndarray:
    resid = float(np.max(np.abs(block.imag))) if block.size else 0.0
    if resid > 1e-10 * max(scale, 1e-300):
        raise NumericalAnomalyError(
            f"imaginary residue {resid:.3e} exceeds 1e-10 relative tolerance"
        )
    return np.ascontiguousarray(block.real)


def lp_block(u: GridFunction, k: Sequence[int], sys: DyadicSystem) -> GridFunction:
    """Frequency-localized block: inverse transform of the windowed spectrum."""
    if tuple(u.n) != sys.shape:
        raise GridError(f"system built for shape {sys.shape}, function has {u.n}")
    k = tuple(int(v) for v in k)
    for i, ki in enumerate(k):
        if not 0 <= ki <= sys.j_max[i]:
            raise GridError(f"level {ki} out of range 0..{sys.j_max[i]} on axis {i}")
    coeffs = np.fft.fftn(u.values, norm="ortho")
    block = np.fft.ifftn(_apply_mask(coeffs, sys.window(k)), norm="ortho")
    scale = float(np.max(np.abs(u.values))) if u.values.size else 0.0
    return u.with_values(_real_part_checked(block, scale))


def _blocks(u: GridFunction, sys: DyadicSystem):
    coeffs = np.fft.fftn(u.values, norm="ortho")
    scale = float(np.max(np.abs(u.values))) if u.values.size else 0.0
    for k in sys.levels():
        block = np.fft.ifftn(_apply_mask(coeffs, sys.window(k)), norm="ortho")
        yield k, _real_part_checked(block, scale)


def _block_energies(u: GridFunction, sys: DyadicSystem) -> np.ndarray:
    # squared L_2 norm of every block, indexed by level, from one spectrum; the
    # blocks of a real field are real exactly when the windows are mirror-symmetric
    windows = [np.array(w) for w in sys.axis_windows]
    for axis, w in enumerate(windows):
        if np.max(np.abs(w - w[:, -np.arange(w.shape[1]) % w.shape[1]])) > 1e-10:
            raise NumericalAnomalyError(f"axis {axis}: a window is not mirror-symmetric, so blocks are complex")
    return power_table(u.values, [[w**2 for w in windows]], u.cell_volume)[0]


def besov_norm_fourier(
    u: GridFunction, r: float, p: float, sys: DyadicSystem | None = None
) -> float:
    """Littlewood-Paley Besov norm: dyadically weighted l_p aggregate of block
    L_p norms, with the max modification at p = inf; p = 2 forms no block."""
    if not r > 0:
        raise GridError(f"r must be positive, got {r}")
    if not p >= 1.0:
        raise GridError(f"p must lie in [1, inf], got {p}")
    if sys is None:
        sys = system_for(u, "smooth")
    vol = u.cell_volume
    if math.isinf(p):
        best = 0.0
        for k, block in _blocks(u, sys):
            best = max(best, 2.0 ** (r * sum(k)) * float(np.max(np.abs(block))))
        return best
    if p == 2.0:
        energy = _block_energies(u, sys)
        terms = ((k, energy[k]) for k in sys.levels())
    else:
        terms = ((k, lp_norm_pow(block, p, vol)) for k, block in _blocks(u, sys))
    acc = 0.0
    for k, term in terms:
        try:
            weight = 2.0 ** (r * sum(k) * p)
        except OverflowError:
            raise NumericalAnomalyError(f"dyadic weight 2^{r * sum(k) * p:g} overflows a float") from None
        acc += weight * term
    return acc ** (1.0 / p)


def sobolev_norm_fourier(
    u: GridFunction, m: int, p: float, sys: DyadicSystem | None = None
) -> float:
    """Square-function Sobolev norm: L_p norm of the weighted block square sum.

    The square-function characterization needs 1 < p < infinity; p = 2 forms no block.
    """
    if m < 0:
        raise GridError(f"m must be >= 0, got {m}")
    if not 1.0 < p < math.inf:
        raise GridError(f"square-function norm requires 1 < p < inf, got {p}")
    if sys is None:
        sys = system_for(u, "smooth")
    if p == 2.0:
        energy = _block_energies(u, sys)
        return math.sqrt(sum(4.0 ** (sum(k) * m) * energy[k] for k in sys.levels()))
    acc = np.zeros(u.n)
    for k, block in _blocks(u, sys):
        acc += 4.0 ** (sum(k) * m) * block * block
    return float(np.sum(np.sqrt(acc) ** p) * u.cell_volume) ** (1.0 / p)


def bandlimit(u: GridFunction, b: Sequence[float] | float) -> GridFunction:
    """Zero all spectral content outside the box prod [-b_i, b_i] (angular)."""
    bv = _as_axis_vector(b, u.d, "b")
    for bi in bv:
        if not bi > 0:
            raise GridError(f"band bounds must be positive, got {bv}")
    coeffs = np.fft.fftn(u.values, norm="ortho")
    masks = [(np.abs(xi) <= bi).astype(float) for xi, bi in zip(_angular_freqs(u), bv)]
    block = np.fft.ifftn(_apply_mask(coeffs, masks), norm="ortho")
    scale = float(np.max(np.abs(u.values))) if u.values.size else 0.0
    return u.with_values(_real_part_checked(block, scale))


def band_energy_fraction(u: GridFunction, b: Sequence[float] | float) -> float:
    """Fraction of spectral energy outside the band (0 for band-limited input)."""
    bv = _as_axis_vector(b, u.d, "b")
    masks = [(np.abs(xi[None]) <= bi).astype(float) for xi, bi in zip(_angular_freqs(u), bv)]
    inside, total = (float(t.sum()) for t in power_table(u.values, [masks, [None] * u.d], 1.0))
    return 0.0 if total == 0.0 else max(0.0, 1.0 - inside / total)


MAX_SPECTRAL_ORDER = 4


def spectral_derivative(
    u: GridFunction, alpha: Sequence[int] | int, max_order: int = MAX_SPECTRAL_ORDER
) -> GridFunction:
    """Mixed derivative D^alpha via Fourier multipliers (i xi)^alpha.

    The input is treated as periodized over its box; smooth compactly
    supported samples with margin make this exact to spectral accuracy.  The
    unpaired Nyquist mode is zeroed for odd orders.
    """
    av = tuple(int(a) for a in _as_axis_vector(alpha, u.d, "alpha"))
    for a in av:
        if a < 0:
            raise GridError(f"derivative orders must be >= 0, got {av}")
        if a > max_order:
            raise GridError(f"order {a} exceeds configured maximum {max_order}")
    if all(a == 0 for a in av):
        return u
    coeffs = np.fft.fftn(u.values, norm="ortho")
    for axis, (a, xi) in enumerate(zip(av, _angular_freqs(u))):
        if a == 0:
            continue
        coeffs = coeffs * _derivative_symbol(xi, a).reshape([-1 if i == axis else 1 for i in range(u.d)])
    out = np.fft.ifftn(coeffs, norm="ortho")
    scale = float(np.max(np.abs(out))) if out.size else 0.0
    return u.with_values(_real_part_checked(out, scale))


def nikolskij_ratio(
    u: GridFunction,
    alpha: Sequence[int] | int,
    p0: float,
    p: float,
    b: Sequence[float] | float,
) -> float:
    """Measured constant of the band-limited derivative inequality.

    ||D^alpha u||_p divided by prod b_i^(alpha_i + 1/p0 - 1/p) * ||u||_p0;
    finiteness across a band sweep exhibits the inequality with a uniform
    constant.  Requires p0 <= p and u band-limited to b.
    """
    if not (p0 >= 1.0 and p >= 1.0 and p0 <= p):
        raise GridError(f"need 1 <= p0 <= p, got p0={p0}, p={p}")
    bv = _as_axis_vector(b, u.d, "b")
    av = tuple(int(a) for a in _as_axis_vector(alpha, u.d, "alpha"))
    if band_energy_fraction(u, bv) > 1e-8:
        raise GridError("input is not band-limited to b (relative out-of-band energy > 1e-8)")
    denom_norm = lp_norm(u, p0)
    if denom_norm == 0.0:
        raise GridError("nikolskij ratio undefined for the zero function")
    inv_p0 = 0.0 if math.isinf(p0) else 1.0 / p0
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    scale = 1.0
    for bi, ai in zip(bv, av):
        scale *= bi ** (ai + inv_p0 - inv_p)
    num = lp_norm(spectral_derivative(u, av), p)
    return num / (scale * denom_norm)


def peetre_maximal(u: GridFunction, b: Sequence[float] | float, a: float) -> GridFunction:
    """Weighted sliding supremum sup_z |u(x - z)| / prod (1 + |b_i z_i|)^a.

    The offset search runs over all grid offsets within the box span (the
    field vanishes outside, so exterior offsets cannot win).  The separable
    weight makes the joint maximum a sequence of per-axis max-convolutions.
    """
    if not a > 0:
        raise GridError(f"decay exponent a must be positive, got {a}")
    bv = _as_axis_vector(b, u.d, "b")
    acc = np.abs(u.values)
    for axis in range(u.d):
        n = u.n[axis]
        dxv = u.dx[axis]
        if u.extension == "periodic":
            # wrapped twins repeat the same values at larger |z|, so the
            # nearest representative per residue suffices
            offsets = range(-(n // 2), n // 2 + 1)
        else:
            offsets = range(-(n - 1), n)
        out = np.zeros_like(acc)
        for si in offsets:
            w = (1.0 + abs(bv[axis] * dxv * si)) ** (-a)
            # z = si * dx, candidate value |u|(x - z): index j - si
            cand = shift_values(acc, axis, -si, u.extension)
            np.maximum(out, w * cand, out=out)
        acc = out
    return u.with_values(acc)


def difference_maximal_check(
    u: GridFunction,
    e: Sequence[int],
    m: int | Sequence[int],
    h: float | Sequence[float],
    b: Sequence[float] | float,
    a: float,
) -> float:
    """Worst-case ratio of a mixed difference against its maximal-function bound.

    max over nodes of |D_h^{m,e} u| / (prod_i max(1,|b_i h_i|^a) *
    min(1,|b_i h_i|^{m_i}) * P_{b,a} u); uniform boundedness over step and
    band sweeps exhibits the difference-maximal inequality.
    """
    axes = sorted(set(int(x) for x in e))
    mv = _as_axis_vector(m, u.d, "m")
    hv = _as_axis_vector(h, u.d, "h")
    bv = _as_axis_vector(b, u.d, "b")
    if band_energy_fraction(u, bv) > 1e-8:
        raise GridError("input is not band-limited to b (relative out-of-band energy > 1e-8)")
    # the difference snaps each step to whole cells; the bound factor must use
    # the same snapped step to stay consistent with the numerator
    h_act = list(hv)
    factor = 1.0
    for axis in axes:
        h_act[axis] = snap_step(float(hv[axis]), u.dx[axis]) * u.dx[axis]
        bh = abs(bv[axis] * h_act[axis])
        factor *= max(1.0, bh**a) * min(1.0, bh ** mv[axis])
    if factor == 0.0:
        return 0.0
    num = np.abs(mixed_difference(u, axes, mv, h_act).values)
    pmax = peetre_maximal(u, bv, a).values
    dead = (pmax <= 0.0) & (num > 1e-13 * max(float(np.max(num)), 1e-300))
    if np.any(dead):
        raise NumericalAnomalyError(
            "maximal function vanishes where the difference does not"
        )
    safe = pmax > 0.0
    if not np.any(safe):
        return 0.0
    return float(np.max(num[safe] / (factor * pmax[safe])))
