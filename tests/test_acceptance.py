"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 7's rate clause is implemented faithfully and is expected to fail:
the oscillatory family's norm saturates at the configured parameters.  The
spectral cross-check test_criterion_07c_spectral_saturation measures that
saturation independently, and the README's "Install and test" section
explains it.  Every other criterion passes at its stated tolerance.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mixnorm as mx
from mixnorm.cli import ExperimentConfig, emit, run
from mixnorm.families import random_smooth_field, random_trig_field

BOX1 = mx.Box((-4.0,), (4.0,))
BOX2 = mx.Box((-4.0, -4.0), (4.0, 4.0))
SRC = Path(__file__).resolve().parents[1] / "src"  # the checkout's package


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def test_criterion_01_difference_leibniz_identities():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    rng = np.random.default_rng(1001)
    for m in (1, 2, 3):
        for i in range(17):
            psi = random_smooth_field((1001, m, i, 0), BOX1, 256, band_fraction=0.2)
            phi = random_smooth_field((1001, m, i, 1), BOX1, 256, band_fraction=0.2)
            h = float(rng.uniform(0.1, 0.8))
            lhs = mx.leibniz_difference(psi, phi, m, h)
            rhs = mx.directional_difference(mx.pointwise_multiply(psi, phi), 0, m, h)
            worst = max(worst, rel_err(lhs.values, rhs.values))
            count += 1
    for m in (1, 2, 3):
        for i in range(17):
            f = random_smooth_field((1002, m, i, 0), BOX2, 64, band_fraction=0.3)
            g = random_smooth_field((1002, m, i, 1), BOX2, 64, band_fraction=0.3)
            h = (float(rng.uniform(0.25, 0.8)), float(rng.uniform(0.25, 0.8)))
            total = np.zeros(f.n)
            for _, term in mx.mixed_leibniz_terms(f, g, (0, 1), m, h):
                total += term.values
            direct = mx.mixed_difference(
                mx.pointwise_multiply(f, g), (0, 1), 2 * m, h
            )
            worst = max(worst, rel_err(total, direct.values))
            count += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-12 and elapsed < 10.0,
        f"{count} samples, worst relative error {worst:.3e} (<= 1e-12), {elapsed:.1f}s (< 10s)",
    )


def _axiswise_polynomial(box, shape, degrees, seed):
    rng = np.random.default_rng(seed)
    d = box.d
    axes = [
        box.lower[i] + (box.upper[i] - box.lower[i]) / shape[i] * np.arange(shape[i])
        for i in range(d)
    ]
    values = np.zeros(shape)
    for _ in range(2):
        term = np.ones(shape)
        for i in range(d):
            coeffs = rng.uniform(-1.0, 1.0, degrees[i] + 1)
            axis_vals = np.polynomial.polynomial.polyval(axes[i], coeffs)
            sl = [1] * d
            sl[i] = shape[i]
            term = term * axis_vals.reshape(sl)
        values += term
    peak = np.max(np.abs(values))
    # peak 0.5 keeps the iterated-difference cancellation noise (a few
    # hundred ulps of the value scale for m = 3, |e| = 3) below 1e-14
    return mx.GridFunction(box, 0.5 * values / peak if peak > 0 else values)


def test_criterion_02_polynomial_annihilation():
    worst = 0.0
    cases = 0
    resolutions = {1: (256,), 2: (64, 64), 3: (16, 16, 16)}
    for d in (1, 2, 3):
        box = mx.Box((0.0,) * d, (1.0,) * d)
        shape = resolutions[d]
        ts = (1.0, 0.5, 0.25) if d < 3 else (0.25,)
        for m in (1, 2, 3):
            u = _axiswise_polynomial(box, shape, (m - 1,) * d, seed=(2000 + 10 * d + m))
            for e in mx.all_direction_sets(d):
                if not e:
                    continue
                for t in ts:
                    for p in (2.0, math.inf):
                        val = mx.modulus(u, e, m, t, p, interior=True)
                        worst = max(worst, val)
                        cases += 1
    report(2, worst <= 1e-14, f"{cases} cases, worst modulus {worst:.3e} (<= 1e-14)")


def test_criterion_03_cross_norm():
    worst_besov = 0.0
    worst_sobolev = 0.0
    for i in range(10):
        f = random_smooth_field((3000, i, 0), BOX1, 256, band_fraction=0.2)
        g = random_smooth_field((3000, i, 1), BOX1, 256, band_fraction=0.2)
        T = mx.tensor_product(f, g)
        lhs = mx.besov_norm_diff(T, 1.0, 2.0, 2)
        rhs = mx.isotropic_besov_norm(f, 1.0, 2.0, 2) * mx.isotropic_besov_norm(g, 1.0, 2.0, 2)
        worst_besov = max(worst_besov, abs(lhs - rhs) / rhs)
        lhs_s = mx.sobolev_norm_full(T, 2, 2.0)
        rhs_s = mx.sobolev_norm_full(f, 2, 2.0) * mx.sobolev_norm_full(g, 2, 2.0)
        worst_sobolev = max(worst_sobolev, abs(lhs_s - rhs_s) / rhs_s)
    report(
        3,
        worst_besov <= 1e-10 and worst_sobolev <= 1e-8,
        f"10 pairs: besov factorization {worst_besov:.3e} (<= 1e-10), "
        f"sobolev {worst_sobolev:.3e} (<= 1e-8)",
    )


def test_criterion_04_littlewood_paley_reconstruction_and_parseval():
    u = random_smooth_field((4000, 0), BOX2, 128)
    worst_rec = 0.0
    for kind in ("smooth", "sharp"):
        sysk = mx.system_for(u, kind)
        rec = np.zeros(u.n)
        for k in sysk.levels():
            rec += mx.lp_block(u, k, sysk).values
        worst_rec = max(worst_rec, rel_err(rec, u.values))
    sharp = mx.system_for(u, "sharp")
    s0 = mx.sobolev_norm_fourier(u, 0, 2.0, sharp)
    l2 = mx.lp_norm(u, 2.0)
    parseval = abs(s0 - l2) / l2
    report(
        4,
        worst_rec <= 1e-10 and parseval <= 1e-10,
        f"reconstruction {worst_rec:.3e} (<= 1e-10), parseval {parseval:.3e} (<= 1e-10)",
    )


def test_criterion_05_dilated_besov_rate():
    t0 = time.perf_counter()
    fam = mx.dilated_family(8, 2**16)
    series = {
        n: mx.isotropic_besov_norm(f, 1.0, 2.0, 2)
        for n, f in zip(fam.indices, fam.members)
    }
    slope, _ = mx.rate_fit(series, "geometric")
    elapsed = time.perf_counter() - t0
    report(
        5,
        abs(slope - 0.5) <= 0.075 and elapsed < 60.0,
        f"slope {slope:.4f} (0.5 +/- 0.075), {elapsed:.1f}s (< 60s) at resolution 2^16",
    )


def test_criterion_06_moser_blowup_above_threshold():
    cfg = ExperimentConfig(
        experiment="moser", family="tensor_dilated", d=2, resolution=2**16,
        box_lo=-6.0, box_hi=6.0, r=1.0, p=2.0, m_diff=2, n_min=0, n_max=8,
    )
    rows = run(cfg)
    ratios = [row.values["ratio"] for row in rows if row.member != "fit"]
    slope = rows[-1].values["fit_exponent"]
    monotone = all(b > a for a, b in zip(ratios[2:], ratios[3:]))
    report(
        6,
        abs(slope - 0.5) <= 0.1 and monotone,
        f"moser slope {slope:.4f} (0.5 +/- 0.1), monotone for n >= 2: {monotone}",
    )


def test_criterion_07_oscillatory_rate():
    # Faithful implementation of the stated criterion.  The honest measurement
    # contradicts the asserted growth: the family's limiting chirp has critical
    # L2 regularity 1.5 / (1 + epsilon) = 0.577 > r = 0.4, so its Besov norm
    # saturates (measured independently through the spectral H^0.4 norm in
    # test_criterion_07c_spectral_saturation); the asserted exponent
    # (epsilon - 1/p) * r would require epsilon > 2.75 here.
    # Expected outcome: FAIL.  The README's "Install and test" section has
    # the analysis.
    fam = mx.oscillatory_family(6, epsilon=1.6, ramp="linear", resolution=2**15, n_min=2, p=2.0)
    series = {
        n: mx.isotropic_besov_norm(f, 0.4, 2.0, 1)
        for n, f in zip(fam.indices, fam.members)
    }
    slope, _ = mx.rate_fit(series, "power")
    report(
        7,
        abs(slope - 0.44) <= 0.11,
        f"oscillatory besov slope {slope:.4f} vs asserted 0.44 +/- 0.11 "
        f"(norm saturates: growth claim unattainable at p=2, eps=1.6, r=0.4)",
    )


def test_criterion_07b_oscillatory_moser_monotone():
    cfg = ExperimentConfig(
        experiment="moser", family="tensor_oscillatory", d=2, resolution=2**15,
        box_lo=-3.0, box_hi=3.0, r=0.4, p=2.0, m_diff=1, n_min=2, n_max=6,
        epsilon=1.6, ramp="linear", companion_plateau=1.5, companion_support=2.0,
    )
    rows = run(cfg)
    ratios = [row.values["ratio"] for row in rows if row.member != "fit"]
    monotone = all(b > a for a, b in zip(ratios, ratios[1:]))
    report(
        7,
        monotone,
        f"moser ratio of oscillatory tensor pairs increasing in n: {monotone} "
        f"({', '.join(f'{v:.4f}' for v in ratios)})",
    )


def sobolev_norm_rfft(u: mx.GridFunction, s: float) -> float:
    """H^s norm of a 1-d function supported inside its box, straight from
    the real FFT: sqrt(dx/N * sum_k (1 + xi_k^2)^s |F_k|^2), with the bins
    that stand for a +/- xi pair counted twice."""
    n, dx = u.values.size, u.dx[0]
    spectrum = np.abs(np.fft.rfft(u.values)) ** 2
    xi = 2.0 * np.pi * np.fft.rfftfreq(n, d=dx)
    weight = np.full(spectrum.size, 2.0)
    weight[0] = 1.0
    if n % 2 == 0:
        weight[-1] = 1.0
    return math.sqrt(dx / n * float(np.sum(weight * (1.0 + xi**2) ** s * spectrum)))


def test_criterion_07c_spectral_saturation():
    # Independent check of criterion 7's diagnosis: along the same family the
    # H^0.4 norm, computed with no difference calculus at all, flattens out at
    # the rate the difference norm does.
    fam = mx.oscillatory_family(6, 1.6, "linear", 2**15, n_min=2)
    logn = np.log(np.asarray(fam.indices, dtype=float))
    spectral = np.array([sobolev_norm_rfft(f, 0.4) for f in fam.members])
    besov = np.array([mx.isotropic_besov_norm(f, 0.4, 2.0, 1) for f in fam.members])
    slopes_spectral = np.diff(np.log(spectral)) / np.diff(logn)
    slopes_besov = np.diff(np.log(besov)) / np.diff(logn)
    decreasing = bool(np.all(np.diff(slopes_spectral) < 0.0))
    gap = float(np.max(np.abs(slopes_spectral - slopes_besov)))
    report(
        7,
        decreasing and gap <= 0.03,
        f"local slopes spectral H^0.4 ({', '.join(f'{v:.3f}' for v in slopes_spectral)}) "
        f"vs besov ({', '.join(f'{v:.3f}' for v in slopes_besov)}): decreasing "
        f"{decreasing}, max gap {gap:.4f} (<= 0.03)",
    )


def test_criterion_08_algebra_boundedness():
    """Algebra ratios stay bounded along the tensor family and over random pairs.

    The tensor clause is an identity: along `tensor_dilated` the companion is
    1 on the support of f_n, so F_n * G_n = f_n (x) f_n and the algebra ratio
    is the same for every n, r and p up to rounding (its slope is rounding
    noise).  The random-pair clause carries the criterion's content.
    """
    cfg = ExperimentConfig(
        experiment="algebra", family="tensor_dilated", d=2, resolution=2**14,
        box_lo=-6.0, box_hi=6.0, r=1.2, p=2.0, m_diff=2, n_min=0, n_max=8,
    )
    rows = run(cfg)
    slope = rows[-1].values["fit_exponent"]
    maxima = []
    for resolution in (128, 256):
        ratios = []
        spec = mx.SpaceSpec("besov", 2.0, r=1.2, m_diff=2)
        for i in range(50):
            f = random_smooth_field((8000, i, 0), BOX2, resolution)
            g = random_smooth_field((8000, i, 1), BOX2, resolution)
            ratios.append(mx.algebra_ratio(f, g, spec))
        maxima.append(max(ratios))
    stability = max(maxima) / min(maxima)
    report(
        8,
        abs(slope) <= 0.05 and stability <= 1.5,
        f"tensor-family slope {slope:.2e} (|.| <= 0.05); random-pair max ratio "
        f"{maxima[0]:.3f} -> {maxima[1]:.3f}, stability {stability:.3f} (<= 1.5)",
    )


def _equiv_brackets(resolution: int, p: float = 2.0) -> dict[str, float]:
    cfg = ExperimentConfig(
        experiment="equiv", d=2, resolution=resolution, count=30,
        r=1.0, p=p, m=2, m_diff=2, seed=900,
    )
    rows = run(cfg)
    bracket = rows[-1]
    assert bracket.member == "C"
    return {k: bracket.values[k] for k in
            ("ratio_diff_fourier", "ratio_diff_integral", "ratio_full_reduced")}


def test_criterion_09_norm_equivalence_brackets():
    base = _equiv_brackets(256)
    doubled = _equiv_brackets(512)
    ok = all(c <= 10.0 for c in base.values()) and all(
        doubled[k] <= 2.0 * base[k] for k in base
    )
    detail = ", ".join(
        f"{k.removeprefix('ratio_')}: C={base[k]:.2f}->{doubled[k]:.2f}" for k in base
    )
    report(9, ok, detail + " (C <= 10, doubling widens <= 2x)")


def test_equivalence_brackets_at_p3():
    # criterion 9's bound off p = 2, where the difference norms go through the
    # direct table and the Fourier norms through p-th powers of the blocks
    base = _equiv_brackets(128, p=3.0)
    assert all(c <= 10.0 for c in base.values()), base


def test_criterion_10_localization_bracket():
    cfg = ExperimentConfig(
        experiment="localize", d=2, resolution=256, count=30,
        r=1.0, p=2.0, m_diff=2, seed=901, base_width=1.0,
    )
    rows = run(cfg)
    c = rows[-1].values["ratio"]
    report(10, c <= 5.0, f"localization bracket C = {c:.3f} (<= 5)")


def test_criterion_11_nikolskij_and_peetre_uniformity():
    spreads = {}
    for exp in ("nikolskij", "peetre"):
        cfg = ExperimentConfig(
            experiment=exp, d=2, resolution=256, count=8, octaves=5,
            kmax_modes=4, modes=8, alpha=(1, 1), p0=2.0, p=2.0, a=1.0, seed=902,
        )
        rows = run(cfg)
        spreads[exp] = rows[-1].values["ratio"]
    ok = all(v <= 4.0 for v in spreads.values())
    report(
        11,
        ok,
        f"5-octave spread: nikolskij {spreads['nikolskij']:.3f}, "
        f"peetre {spreads['peetre']:.3f} (each <= 4)",
    )


def test_criterion_12_difference_maximal_stability():
    hbs = (1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0)
    per_resolution = {}
    for resolution in (256, 512):
        worst = {hb: 0.0 for hb in hbs}
        for i in range(6):
            u, b = random_trig_field((903, i), BOX2, resolution, kmax=2, modes=8)
            steps = [(hb / b[0], hb / b[0]) for hb in hbs]
            vals = mx.difference_maximal_check(u, (0, 1), 2, steps, b, 1.0)
            for hb, val in zip(hbs, vals):
                worst[hb] = max(worst[hb], val)
        per_resolution[resolution] = worst
    base = per_resolution[256]
    sweep_spread = max(base.values()) / min(base.values())
    family_constant = max(base.values())
    doubled_max = max(per_resolution[512].values())
    ok = sweep_spread <= 2.0 and doubled_max <= 2.0 * family_constant
    report(
        12,
        ok,
        f"h-sweep spread {sweep_spread:.3f} (<= 2), family constant "
        f"{family_constant:.3f}, doubled-resolution max {doubled_max:.3f} (<= 2x)",
    )


def test_criterion_13_embedding_dichotomy():
    cfg = ExperimentConfig(
        experiment="embed", family="dilated", d=1, resolution=2**14,
        box_lo=-4.0, box_hi=4.0, r=0.8, p=2.0, m_diff=1, n_min=2, n_max=5,
    )
    rows = run(cfg)
    ratios = [row.values["ratio"] for row in rows if row.member != "fit"]
    spread = max(ratios) / min(ratios)
    cfg = ExperimentConfig(
        experiment="embed", family="dilated", d=1, resolution=2**14,
        box_lo=-4.0, box_hi=4.0, r=0.3, p=2.0, m_diff=1, n_min=2, n_max=8,
    )
    rows = run(cfg)
    slope = rows[-1].values["fit_exponent"]
    ok = spread <= 2.0 and abs(slope - 0.2) <= 0.05
    report(
        13,
        ok,
        f"r=0.8: ratio spread {spread:.3f} over n=2..5 (<= 2); "
        f"r=0.3: slope {slope:.4f} (0.2 +/- 0.05)",
    )


def test_criterion_14_trace_inequality():
    maxima = []
    for resolution in (256, 512):
        cfg = ExperimentConfig(
            experiment="trace", d=2, resolution=resolution, count=15,
            m=1, p=2.0, beta=(1, 0), n_split=1, seed=904,
        )
        rows = run(cfg)
        maxima.append(rows[-1].values["ratio"])
    stability = max(maxima) / min(maxima)
    report(
        14,
        all(math.isfinite(v) and v > 0 for v in maxima) and stability <= 2.0,
        f"trace constants {maxima[0]:.3f} -> {maxima[1]:.3f}, stability "
        f"{stability:.3f} (<= 2)",
    )


def test_criterion_15_determinism_across_workers(tmp_path):
    outputs = {}
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC)}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:  # keep src/ free of bytecode when asked
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    for fmt in ("csv", "json"):
        payloads = []
        for workers in ("1", "3"):
            out = tmp_path / f"det_{fmt}_{workers}.{fmt}"
            proc = subprocess.run(
                [sys.executable, "-m", "mixnorm.cli", "equiv", "--count", "4",
                 "--resolution", "64", "--seed", "77", "--format", fmt,
                 "--output", str(out)],
                capture_output=True, text=True, cwd=tmp_path,
                env={**env, "MIXNORM_WORKERS": workers},
            )
            assert proc.returncode == 0, proc.stderr
            payloads.append(out.read_bytes())
        outputs[fmt] = payloads[0] == payloads[1]
    report(
        15,
        all(outputs.values()),
        f"bit-identical result bytes across worker counts: csv={outputs['csv']}, "
        f"json={outputs['json']} (timestamps live in the .meta.json sidecar)",
    )
