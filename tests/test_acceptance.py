"""Contractual acceptance checks, one test per check, ordered.

Each test enforces its stated tolerances and runtime budget.  Three of them
(test_05, test_07, test_09) drive the construction into parameter regions
where the out-of-band tap components of the predictor exceed 1/eps_machine
times the signal scale, so a double-precision convolution returns roundoff
rather than prediction.  The figures below were checked against the exact
spectral identity (error spectrum K * exp(E) * X) and 60- to 180-digit
recomputations.

- test_07, clean-band row: gamma(eps) = -97.87 drives the taps to 1.39e27 and
  the float64 roundoff floor u * ||khat||_1 * ||x||_inf to 4.6e10, against a
  bound of 2.93e-3.  noise_sweep detects the floor and scores the row in
  extended precision (three float64 words), which gives 3.6066e-4, the
  value of the spectral identity.  The test passes as written.
- test_09 at 0.99*pi: |Khat| reaches e^5406.9 (about 1e2348) at omega = -pi,
  so the largest of the 65536 grid taps is at least about 1e2343, far beyond
  DBL_MAX.  The check asks for the documented SaturationError there.
- test_05 still fails, on float64 roundoff only.  Its first clause compares
  the score at |gamma| = 256 with the exact prediction error of the input
  (5.091e-3 low band, 2.477e-3 high band): the paper proves convergence, not
  a rate, and the band-edge fringe where |gamma * psi| < 1 narrows only like
  1/|gamma|, so the exact error falls 9x and 21x over |gamma| = 1..256 rather
  than the 100x an earlier version of the clause asked for.  Its second
  clause, a strictly falling tail, holds in exact arithmetic.  gamma_sweep
  scores in float64, where the taps reach 4.3e60 (low) and 2.7e109 (high),
  so the last points are roundoff, about 7.1e-2, 1.9e14, 1.37e45 (low) and
  8.2e10, 5.0e38, 2.20e94 (high); these figures vary with the transfer's
  last bits, the convolution engine and the CPU's BLAS kernel.  Honest rows
  need about 80-130 digits at n = 32768, m = 4096, which gamma_sweep does not
  yet afford.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from artifact import (
    BandSignalSpec,
    FirstOrderKernel,
    NoisySpectrumSpec,
    PredictionRun,
    PredictorParams,
    Signal,
    SpectrumGrid,
    alpha,
    anticausal_kernel,
    anticausal_tail_len,
    band_spectrum,
    budget,
    causality_leak_ratio,
    corollary_split_experiment,
    dtft_on_grid,
    forecast,
    gamma_sweep,
    gen_band_signal,
    gen_noisy_spectrum,
    grid_omegas,
    ideal_filter_split,
    inverse_grid,
    k_transfer,
    khat_sup_norm,
    lq_grid_norm,
    noise_sweep,
    norm,
    nu_i3_closed_form,
    v_transfer,
)
from artifact.cli import main
from artifact.errors import SaturationError

PI = math.pi
GOLDEN_DIR = Path(__file__).parent / "goldens"
SWEEP_SEED = 20260819

SWEEP_LOW_ARGS = ["sweep-gamma", "--a", "2", "--omega", "pi/3", "--mode", "low",
                  "--n", "32768", "--m", "4096", "--length", "8192",
                  "--seed", str(SWEEP_SEED)]
SWEEP_HIGH_ARGS = ["sweep-gamma", "--a", "-2", "--omega", "pi/3", "--mode", "high",
                   "--n", "32768", "--m", "4096", "--length", "8192",
                   "--seed", str(SWEEP_SEED)]
SWEEP_NOISE_ARGS = ["sweep-noise", "--a", "2", "--omega", "pi/2", "--eps", "0.1",
                    "--nu", "0,0.001,0.01,0.1", "--n", "4096", "--m", "1024",
                    "--seed", str(SWEEP_SEED)]


def _finish(clauses, budget_s, elapsed):
    clauses.append((f"runtime < {budget_s:g}s", elapsed < budget_s, f"{elapsed:.2f}s"))
    lines = [f"  [{'PASS' if ok else 'FAIL'}] {label}: {detail}"
             for label, ok, detail in clauses]
    if all(ok for _, ok, _ in clauses):
        return
    pytest.fail("clause results:\n" + "\n".join(lines), pytrace=False)


@pytest.fixture(scope="session")
def damping_sweeps():
    t0 = time.perf_counter()
    gammas_low = [-(2.0 ** k) for k in range(9)]
    rows_low = gamma_sweep(
        FirstOrderKernel(2.0), PI / 3, "low",
        BandSignalSpec(omega=PI / 3, mode="low", length=8192, seed=SWEEP_SEED),
        gammas_low, 32768, 4096)
    rows_high = gamma_sweep(
        FirstOrderKernel(-2.0), PI / 3, "high",
        BandSignalSpec(omega=PI / 3, mode="high", length=8192, seed=SWEEP_SEED),
        [-g for g in gammas_low], 32768, 4096)
    return rows_low, rows_high, time.perf_counter() - t0


def test_01_mirror_parameter_bulk_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    count = 100_000
    a_draw = rng.uniform(1.05, 30.0, count) * rng.choice([-1.0, 1.0], count)
    om_draw = rng.uniform(0.02, PI - 0.02, count)
    vals = np.array([alpha(float(a), float(w)) for a, w in zip(a_draw, om_draw)])
    assert np.all((vals > -1.0) & (vals < 1.0))
    residual = np.abs(1.0 + vals * a_draw + (a_draw + vals) * np.cos(om_draw))
    assert np.max(residual / (1.0 + np.abs(a_draw))) <= 1e-9
    assert abs(alpha(2.0, PI / 2) + 0.5) < 1e-14
    assert abs(alpha(2.0, PI / 3) + 0.8) < 1e-14
    assert time.perf_counter() - t0 < 1.0


def test_02_damping_factor_uniform_bounds():
    t0 = time.perf_counter()
    n = 4096
    om = grid_omegas(n)
    edge = PI / 3
    al_low = alpha(2.0, edge)
    band = np.abs(om) <= edge
    for gamma in (-1.0, -8.0, -64.0):
        v = v_transfer(2.0, al_low, gamma, n).values
        assert np.max(np.abs(v[band])) <= 2.0 + 1e-12, f"gamma={gamma}"
    v = v_transfer(2.0, al_low, -256.0, n).values
    inner = np.abs(om) <= edge - edge / 10.0
    assert np.max(np.abs(v[inner] - 1.0)) <= 1e-6
    # mirrored: positive damping must be bounded outside the band and flat
    # away from the edge
    al_high = alpha(-2.0, edge)
    out = np.abs(om) >= edge
    for gamma in (1.0, 8.0, 64.0):
        v = v_transfer(-2.0, al_high, gamma, n).values
        assert np.max(np.abs(v[out])) <= 2.0 + 1e-12, f"gamma=+{gamma}"
    v = v_transfer(-2.0, al_high, 256.0, n).values
    shrunk = np.abs(om) >= edge + (PI - edge) / 10.0
    assert np.max(np.abs(v[shrunk] - 1.0)) <= 1e-6
    assert time.perf_counter() - t0 < 1.0


def test_03_anticausal_taps_match_transfer_inversion():
    t0 = time.perf_counter()
    n = 2048
    for a in (1.5, -1.5, 2.0, -2.0, 5.0, -5.0):
        kern = FirstOrderKernel(a)
        closed = anticausal_kernel(kern, -64)
        inverted = inverse_grid(k_transfer(kern, n), -64, 65)
        assert np.max(np.abs(closed.values - inverted.values)) <= 1e-10, f"a={a}"
        total = np.sum(anticausal_kernel(kern, -200).values)
        assert abs(total - 1.0 / (1.0 + a)) <= 1e-10, f"a={a}"
    assert time.perf_counter() - t0 < 1.0


def test_04_forecast_reads_only_the_past():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    kern = FirstOrderKernel(2.0)
    params = PredictorParams(omega=PI / 3, gamma=-4.0, n=1024, m=128, mode="low")
    base = rng.standard_normal(1024)
    x = Signal(0, base)
    t_a = 128
    t_b = 1023 - anticausal_tail_len(2.0)
    ref = forecast(PredictionRun(x, kern, params, t_a, t_b))
    for _ in range(100):
        probe = int(rng.integers(t_a, t_b))
        mutated = base.copy()
        tail = slice(probe + 1, 1024)
        mutated[tail] = base[tail] + rng.standard_normal(1024 - probe - 1)
        run = PredictionRun(Signal(0, mutated), kern, params, t_a, probe)
        again = forecast(run)
        assert np.array_equal(again.values, ref.values[: probe - t_a + 1])
    # negative-index leak of the inverted predictor on the stated grid
    for a, gammas, mode in ((2.0, (-1.0, -8.0, -64.0), "low"),
                            (-2.0, (1.0, 8.0, 64.0), "high")):
        for gamma in gammas:
            p = PredictorParams(omega=PI / 3, gamma=gamma, n=4096, m=512, mode=mode)
            leak = causality_leak_ratio(FirstOrderKernel(a), p)
            assert leak <= 1e-8, f"a={a} gamma={gamma}: leak {leak:.3e}"
    assert time.perf_counter() - t0 < 5.0


def _exact_sweep_rel_l2(a, mode, gamma):
    """rel l2 of the damping sweep in exact arithmetic, from the error spectrum.

    target - forecast has spectrum K * exp(E) * X, E the damping exponent;
    on the occupied bins |exp(E)| <= 1, so float64 evaluates it without
    amplification.  Same window and l2x denominator as gamma_sweep; only the
    tap truncation and the target's geometric tail are left out.
    """
    n, m, length, omega = 32768, 4096, 8192, PI / 3
    spec = BandSignalSpec(omega=omega, mode=mode, length=length, seed=SWEEP_SEED)
    X = band_spectrum(spec, n).values
    z = np.exp(1j * grid_omegas(n))
    al = alpha(a, omega)
    expo = gamma * (1.0 if a + al > 0 else -1.0) * (z + a) / (z + al)
    occ = X != 0
    err = np.zeros(n, dtype=complex)
    err[occ] = k_transfer(FirstOrderKernel(a), n).values[occ] * np.exp(expo[occ]) * X[occ]
    t_b = length - 1 - anticausal_tail_len(a)
    e = inverse_grid(SpectrumGrid(n, err), m, t_b - m + 1).values
    l2x = lq_grid_norm(dtft_on_grid(gen_band_signal(spec, n), n), 2.0)
    return float(np.linalg.norm(e)) / l2x


def test_05_damping_sweep_error_convergence(damping_sweeps):
    rows_low, rows_high, elapsed = damping_sweeps
    clauses = []
    for label, rows, a, mode in (("low band, gamma<0", rows_low, 2.0, "low"),
                                 ("high band, gamma>0", rows_high, -2.0, "high")):
        first, last = rows[0].rel_l2, rows[-1].rel_l2
        exact = _exact_sweep_rel_l2(a, mode, rows[-1].gamma)
        clauses.append((
            f"{label}: rel l2 at strongest damping reaches the exact prediction"
            " error (1e-3 relative) and lies below the weakest point",
            abs(last - exact) <= 1e-3 * exact and last < first,
            f"{last:.3e} vs exact {exact:.3e}, weakest {first:.3e}",
        ))
        tail = [r.rel_l2 for r in rows[-4:]]
        clauses.append((
            f"{label}: last four sweep points strictly decreasing",
            all(tail[i] > tail[i + 1] for i in range(3)),
            "last four rel l2 = " + ", ".join(f"{v:.3e}" for v in tail),
        ))
    # context for the failure: once |gamma| passes ~40 the out-of-band tap
    # components reach 1/eps_machine times the signal and the float64 score
    # is convolution roundoff, not prediction error; in exact arithmetic both
    # clauses hold
    _finish(clauses, 60.0, elapsed)


def test_06_error_ratio_stable_across_seeds(damping_sweeps):
    rows_low, _, _ = damping_sweeps
    t0 = time.perf_counter()
    best = min(rows_low, key=lambda r: r.rel_l2)
    ratios = []
    for seed in range(100, 120):
        rows = gamma_sweep(
            FirstOrderKernel(2.0), PI / 3, "low",
            BandSignalSpec(omega=PI / 3, mode="low", length=8192, seed=seed),
            [best.gamma], 32768, 4096)
        ratios.append(rows[0].rel_linf)
    spread = max(ratios) / min(ratios)
    assert spread <= 5.0, f"sup-error ratio spread {spread:.2f}x at gamma={best.gamma}"
    assert time.perf_counter() - t0 < 60.0


def test_07_noise_budget_soundness(damping_sweeps):
    t0 = time.perf_counter()
    a, omega, eps, n, m = 2.0, PI / 2, 0.1, 4096, 1024
    nus = [0.0, 0.001, 0.01, 0.1]
    b = budget(a, omega, eps, 0.0, n)
    rows = noise_sweep(a, omega, eps, nus, n, m, seed=SWEEP_SEED)
    clauses = [
        ("i1 <= eps/2", b.i1 <= eps / 2.0, f"{b.i1:.4e} vs {eps / 2.0:.4e}"),
        ("i2 <= eps/2 within one quadrature step",
         b.i2 <= eps / 2.0 + b.kappa * 2.0 * PI / n,
         f"{b.i2:.4e} vs {eps / 2.0:.4e} + {b.kappa * 2.0 * PI / n:.2e}"),
    ]
    for r in rows:
        x = gen_noisy_spectrum(
            NoisySpectrumSpec(omega=omega, nu=r.nu, seed=SWEEP_SEED, length=n), n)
        slack = 1e-12 * norm(x, "linf") + 1e-8 * norm(x, "l2")
        bound = (r.budget_i12 + r.budget_nu_i3) / (2.0 * PI) + slack
        clauses.append((
            f"nu={r.nu}: measured sup error within budget",
            r.measured_linf <= bound,
            f"{r.measured_linf:.3e} vs {bound:.3e}"
            + ("" if r.nu else " (clean-band case: damping gamma(eps) is deep"
                              " enough that tap roundoff dominates the score)"),
        ))
    unit = rows[-1].budget_nu_i3 / rows[-1].nu
    lin_dev = max(abs(r.budget_nu_i3 - r.nu * unit) for r in rows)
    clauses.append(("closed-form nu*i3 column exactly linear in nu",
                    lin_dev == 0.0, f"max deviation {lin_dev:.2e}"))
    eps_grid = np.array([0.05, 0.1, 0.2, 0.4])
    vals = [nu_i3_closed_form(b.kappa, 1.0, omega, e, b.mu, b.psi0) for e in eps_grid]
    L = np.log(1.0 / eps_grid)
    V = np.log(vals)
    coef = np.polyfit(L, V, 1)
    resid = float(np.max(np.abs(V - np.polyval(coef, L))))
    slope_err = abs(coef[0] - b.mu / b.psi0)
    clauses.append(("log nu*i3 affine in log(1/eps) with slope mu/psi0",
                    resid <= 1e-9 and slope_err <= 1e-9,
                    f"residual {resid:.2e}, slope deviation {slope_err:.2e}"))
    _finish(clauses, 120.0, time.perf_counter() - t0)


def test_08_split_prediction_triangle_and_degenerate():
    t0 = time.perf_counter()
    n = length = 4096
    m = 512
    omega = PI / 3
    kern = FirstOrderKernel(2.0)
    gamma_low, gamma_high = -8.0, 0.5
    low = gen_band_signal(BandSignalSpec(omega=omega, mode="low", length=length, seed=11), n)
    high = gen_band_signal(BandSignalSpec(omega=omega, mode="high", length=length, seed=12), n)
    mixed = Signal(0, (low.values + high.values) / math.sqrt(2.0))
    rep = corollary_split_experiment(mixed, omega, kern, gamma_low, gamma_high, n, m)
    assert rep.combined_rel_l2 <= rep.low_rel_l2 + rep.high_rel_l2 + 1e-10, (
        f"combined {rep.combined_rel_l2:.6e} vs parts "
        f"{rep.low_rel_l2:.6e} + {rep.high_rel_l2:.6e}")
    # degenerate case: a purely band-limited input must flow through the
    # split pipeline exactly as through the single-mode pipeline
    pure = gen_band_signal(BandSignalSpec(omega=omega, mode="low", length=length, seed=11), n)
    xl, xh = ideal_filter_split(pure, omega, n)
    p_low = PredictorParams(omega=omega, gamma=gamma_low, n=n, m=m, mode="low")
    p_high = PredictorParams(omega=omega, gamma=gamma_high, n=n, m=m, mode="high")
    t_a = m
    t_b = length - 1 - anticausal_tail_len(kern.a)
    split_forecast = (forecast(PredictionRun(xl, kern, p_low, t_a, t_b)).values
                      + forecast(PredictionRun(xh, kern, p_high, t_a, t_b)).values)
    single_forecast = forecast(PredictionRun(pure, kern, p_low, t_a, t_b)).values
    diff = float(np.max(np.abs(split_forecast - single_forecast)))
    assert diff <= 1e-12, f"degenerate split deviates by {diff:.3e}"
    rep2 = corollary_split_experiment(pure, omega, kern, gamma_low, gamma_high, n, m)
    assert rep2.high_rel_l2 <= 1e-12
    assert abs(rep2.combined_rel_l2 - rep2.low_rel_l2) <= 1e-12
    assert time.perf_counter() - t0 < 30.0


def test_09_tap_norm_grows_with_band_edge():
    t0 = time.perf_counter()
    n = 65536
    outcomes = []
    values = []
    for frac in (0.80, 0.90, 0.95):
        try:
            val = khat_sup_norm(2.0, frac * PI, -8.0, n)
            values.append(val)
            outcomes.append((f"omega = {frac:.2f}*pi", True, f"sup |khat| = {val:.4e}"))
        except SaturationError as exc:
            outcomes.append((f"omega = {frac:.2f}*pi", False, f"SaturationError: {exc}"))
    increasing = all(values[i] < values[i + 1] for i in range(len(values) - 1))
    clauses = outcomes + [
        ("0.80, 0.90, 0.95*pi constructible and strictly increasing",
         len(values) == 3 and increasing,
         f"{len(values)}/3 constructible, increasing among built: {increasing}"),
    ]
    # at 0.99*pi |Khat| = e^5406.9 at omega = -pi; the grid taps reproduce it,
    # so the largest of them is at least about 1e2343, beyond DBL_MAX, and
    # the construction must refuse rather than return
    try:
        val = khat_sup_norm(2.0, 0.99 * PI, -8.0, n)
        refused = (False, f"returned {val!r}")
    except SaturationError as exc:
        refused = (True, f"SaturationError: {exc}")
    clauses.append(("omega = 0.99*pi refused with SaturationError", *refused))
    _finish(clauses, 5.0, time.perf_counter() - t0)


def _run_cli(args, out_path):
    code = main([*args, "--out", str(out_path)])
    assert code == 0, f"CLI {args[0]} exited {code}"
    return out_path.read_bytes()


def _parse_cells(text):
    header = None
    rows = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line
            continue
        rows.append([float(c) for c in line.split(",")])
    return header, rows


def test_10_cli_determinism_and_goldens(tmp_path):
    t0 = time.perf_counter()
    fast_cases = {
        "kernel": ["kernel", "--a", "2", "--omega", "pi/3", "--gamma", "-6",
                   "--mode", "low", "--n", "1024", "--m", "64"],
        "gen": ["gen", "--omega", "pi/3", "--mode", "low", "--length", "512",
                "--seed", "3", "--n", "1024"],
        "gen-noisy": ["gen", "--omega", "pi/2", "--nu", "0.1", "--length", "512",
                      "--seed", "3", "--n", "1024"],
        "predict": ["predict", "--a", "2", "--omega", "pi/3", "--gamma", "-6",
                    "--mode", "low", "--n", "1024", "--m", "128",
                    "--length", "512", "--seed", "3"],
        "sweep-gamma": ["sweep-gamma", "--a", "2", "--omega", "pi/3", "--mode", "low",
                        "--gamma=-1,-4", "--n", "1024", "--m", "128",
                        "--length", "512", "--seed", "3"],
        "sweep-noise": ["sweep-noise", "--a", "2", "--omega", "pi/2", "--eps", "0.2",
                        "--nu", "0,0.01", "--n", "1024", "--m", "256"],
        "split": ["split", "--a", "2", "--omega", "pi/3", "--gamma-low", "-8",
                  "--gamma-high", "0.5", "--n", "2048", "--m", "256",
                  "--length", "2048", "--seed", "11"],
    }
    for name, args in fast_cases.items():
        first = _run_cli(args, tmp_path / f"{name}.1.csv")
        second = _run_cli(args, tmp_path / f"{name}.2.csv")
        assert first == second, f"{name} output is not byte-stable"
    # cross-process determinism spot check
    sub_args = fast_cases["sweep-gamma"]
    outs = []
    for tag in ("s1", "s2"):
        path = tmp_path / f"{tag}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "artifact.cli", *sub_args, "--out", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1], "sweep-gamma differs across processes"
    # committed reference sweeps, re-run and diffed cell by cell
    golden_runs = {
        "sweep_gamma_low.csv": SWEEP_LOW_ARGS,
        "sweep_gamma_high.csv": SWEEP_HIGH_ARGS,
        "sweep_noise.csv": SWEEP_NOISE_ARGS,
    }
    for fname, args in golden_runs.items():
        golden = (GOLDEN_DIR / fname).read_text()
        g_header, g_rows = _parse_cells(golden)
        fresh = _run_cli(args, tmp_path / fname).decode()
        f_header, f_rows = _parse_cells(fresh)
        assert f_header == g_header, fname
        assert len(f_rows) == len(g_rows), fname
        for i, (frow, grow) in enumerate(zip(f_rows, g_rows)):
            for j, (fv, gv) in enumerate(zip(frow, grow)):
                tol = 1e-9 * max(1.0, abs(gv))
                assert abs(fv - gv) <= tol, (
                    f"{fname} row {i} col {j}: {fv!r} vs golden {gv!r}")
    assert time.perf_counter() - t0 < 10.0
