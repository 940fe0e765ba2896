"""Error budgeting and experiment sweeps.

The budget bounds the worst-case flat prediction error of the damping-gamma
predictor applied to a bounded spectrum (|X| <= 1 on the closed band, <= nu
outside) by three rectangle-rule integrals of kappa * exp(gamma * psi):

    i1 over the open inner band (-omega1, omega1), omega1 = omega - eps/4,
    i2 over the closed band fringe  omega1 <= |w| <= omega,
    i3 over the open out-of-band region |w| > omega,

at the closed-form damping gamma(eps) = -log(2*kappa/eps)/psi0.  The factor
1/(2*pi) between spectral l1 error and time-domain sup error is applied
exactly once, in comparisons, never inside the budget terms themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .extended import forecast_from_spectrum, words_needed
from .kernels import FirstOrderKernel, PredictorParams, TransferGrid, causal_kernel, psi
from .predictor import (PredictionRun, error_report, forecast, forecast_stack, interior_window,
                        target)
from .signals import (BandSignalSpec, NoisySpectrumSpec, gen_band_signal, gen_noisy_spectrum,
                      ideal_filter_split, noisy_spectrum)
from .spectral import Signal, _checked_band_edge, grid_omegas, norm, spectrum_l2

# noise_sweep scores a row in extended precision when the float64 roundoff
# floor of its forecast would exceed this fraction of the row's budget
FLOOR_FRACTION = 1e-3


@dataclass(frozen=True)
class ErrorBudget:
    """Budget quantities for one (a, omega, eps, nu, n) configuration.

    i2_cap is the coarse fringe bound kappa * (band fringe measure); nu_i3 is
    the closed-form out-of-band bound, exactly linear in nu.  grid holds the
    transfer arrays kappa and alpha came from, for the predictor at gamma_eps.
    """

    a: float
    omega: float
    eps: float
    nu: float
    n: int
    kappa: float
    alpha: float
    omega1: float
    psi0: float
    mu: float
    gamma_eps: float
    i1: float
    i2: float
    i3: float
    i2_cap: float
    nu_i3: float
    grid: TransferGrid | None = field(default=None, compare=False, repr=False)


def nu_i3_closed_form(kappa: float, nu: float, omega: float, eps: float,
                      mu: float, psi0: float) -> float:
    """2 * kappa * nu * (pi - omega) * (2*kappa/eps)^(mu/psi0).

    Exactly linear in nu.  A narrow inner band makes the exponent huge; when
    the power alone exceeds double precision the bound is reported as inf
    rather than raising, since it still holds trivially.
    """
    if nu == 0.0:
        return 0.0
    if (mu / psi0) * math.log(2.0 * kappa / eps) > 700.0:
        return math.inf
    return 2.0 * kappa * nu * (math.pi - omega) * (2.0 * kappa / eps) ** (mu / psi0)


def budget(a: float, omega: float, eps: float, nu: float, n: int) -> ErrorBudget:
    """Compute the full error budget for the plain-pole kernel 1/(z+a)."""
    omega, eps, nu = _checked_band_edge(omega), float(eps), float(nu)
    if not (0.0 < eps < 4.0 * omega):
        raise ParameterError(f"eps must lie in (0, 4*omega), got {eps}")
    if not (0.0 <= nu < 1.0):
        raise ParameterError(f"nu must lie in [0, 1), got {nu}")
    grid = TransferGrid(FirstOrderKernel(a), omega, n)
    om = grid_omegas(n)
    kappa, al = float(np.max(np.abs(grid.k))), grid.alpha
    omega1 = omega - eps / 4.0
    psi_grid = psi(a, al, om)
    # psi is a Moebius function of cos w, so it is monotone on [0, pi]; it is
    # even and vanishes at omega, so its minimum over the inner band is at
    # omega1.  That minimum is positive in exact arithmetic, but an eps near
    # the rounding of omega leaves it at zero or below in float64
    psi0 = psi(a, al, omega1)
    if not psi0 > 0.0:
        raise ParameterError(
            f"eps={eps} is too small for double precision: at the inner band edge "
            f"omega1={omega1!r} (omega={omega!r}) psi0 rounds to {psi0:.3g}, not above 0"
        )
    gamma_eps = -math.log(2.0 * kappa / eps) / psi0
    step = 2.0 * np.pi / n
    # far out of band the integrand can pass DBL_MAX; inf is the honest value
    # for a bound that large, not an error
    with np.errstate(over="ignore"):
        integrand = kappa * np.exp(gamma_eps * psi_grid)
    absom = np.abs(om)
    i1 = float(np.sum(integrand[absom < omega1]) * step)
    i2 = float(np.sum(integrand[(absom >= omega1) & (absom <= omega)]) * step)
    i3 = float(np.sum(integrand[absom > omega]) * step)
    mu = 1.0 + abs(a - al) / (1.0 - al)
    return ErrorBudget(
        a=float(a), omega=omega, eps=eps, nu=nu, n=int(n),
        kappa=kappa, alpha=al, omega1=omega1, psi0=psi0, mu=mu,
        gamma_eps=gamma_eps, i1=i1, i2=i2, i3=i3,
        i2_cap=kappa * (eps / 2.0),
        nu_i3=nu_i3_closed_form(kappa, nu, omega, eps, mu, psi0), grid=grid,
    )


@dataclass(frozen=True)
class GammaSweepRow:
    gamma: float
    abs_l2: float
    abs_linf: float
    rel_l2: float
    rel_linf: float


@dataclass(frozen=True)
class NoiseSweepRow:
    """One noise level; words is the forecast's precision in float64 words (1: float64)."""

    nu: float
    measured_linf: float
    budget_i12: float
    budget_nu_i3: float
    words: int = 1


@dataclass(frozen=True)
class SplitReport:
    combined_rel_l2: float
    low_rel_l2: float
    high_rel_l2: float
    low_energy: float
    high_energy: float


def gamma_sweep(kernel: FirstOrderKernel, omega: float, mode: str,
                sigspec: BandSignalSpec, gammas, n: int, m: int) -> list[GammaSweepRow]:
    """Score the same signal against predictors along a damping sweep.

    Rows come back in input gamma order.  The target and the transfer grid
    do not depend on gamma, so each is computed once.  The params and taps
    of every gamma are built in input order, then one `forecast_stack` call
    scores them all.  The grid keeps exp(q*d) (see `kernels`), so a doubling
    ladder in any order costs one exp.  The first gamma that cannot be built
    raises its error, and no later gamma is built.
    """
    if sigspec.mode != mode:
        raise ParameterError(
            f"signal mode {sigspec.mode!r} does not match sweep mode {mode!r}"
        )
    x = gen_band_signal(sigspec, n)
    l2x = spectrum_l2(x, n)
    t_a, t_b = interior_window(x, m, kernel.a)
    grid = TransferGrid(kernel, omega, n)
    sweep, tapsets = [], []
    for gamma in gammas:
        sweep.append(PredictorParams(omega=omega, gamma=gamma, n=n, m=m, mode=mode))
        tapsets.append(causal_kernel(kernel, sweep[-1], grid))
    if not sweep:
        return []
    run = PredictionRun(x, kernel, sweep[0], t_a, t_b)
    y = target(run)
    rows = []
    for params, yhat in zip(sweep, forecast_stack(run, tapsets)):
        rep = error_report(y, yhat, l2x)
        rows.append(GammaSweepRow(params.gamma, rep.abs_l2, rep.abs_linf,
                                  rep.rel_l2_vs_l2x, rep.rel_linf_vs_l2x))
    return rows


def noise_sweep(a: float, omega: float, eps: float, nus, n: int, m: int,
                seed: int, length: int | None = None) -> list[NoiseSweepRow]:
    """Confront measured errors with the budget along an out-of-band noise sweep.

    One budget (at nu=0) fixes the predictor: gamma = gamma(eps), designed for
    a clean band.  Each row then generates a noisy-spectrum signal at its nu
    (same seed, so rows differ only in the out-of-band envelope), scores the
    predictor on it, and reports the measured sup error next to the raw
    budget sums i1+i2 and the closed-form nu*i3 bound.  Comparisons against
    the budget divide by 2*pi exactly once, outside this function.

    Precision rule: a float64 forecast carries a roundoff floor of about
    u * ||khat||_1 * ||x||_inf with u = 2**-53.  When that floor exceeds
    FLOOR_FRACTION of the bound the row is checked against,
    (i1 + i2 + nu*i3) / (2*pi), the row is scored in extended precision: the
    signal is synthesized again from the same spectrum draw, the taps come
    from their z-domain recurrence and the direct causal sum is evaluated
    exactly, with the number of float64 words chosen so that the floor falls
    below that fraction (see `extended`).  Otherwise the float64 path runs
    unchanged.  The row's words field records the choice.
    """
    return noise_sweep_for(budget(a, omega, eps, 0.0, n), nus, m, seed, length)


def noise_sweep_for(base: ErrorBudget, nus, m: int, seed: int,
                    length: int | None = None) -> list[NoiseSweepRow]:
    """`noise_sweep` for the predictor that the nu=0 budget `base` designs.

    A caller that also reports the budget passes the one it computed, so the
    budget is evaluated once.
    """
    a, omega, eps, n = base.a, base.omega, base.eps, base.n
    length = n if length is None else int(length)
    unit_nu_i3 = nu_i3_closed_form(base.kappa, 1.0, base.omega, eps, base.mu, base.psi0)
    kernel = FirstOrderKernel(a)
    params = PredictorParams(omega=omega, gamma=base.gamma_eps, n=n, m=m, mode="low")
    taps = causal_kernel(kernel, params, base.grid)
    tap_l1 = norm(taps, "l1")
    rows = []
    for nu in nus:
        spec = NoisySpectrumSpec(omega=omega, nu=nu, seed=seed, length=length)
        x = gen_noisy_spectrum(spec, n)
        t_a, t_b = interior_window(x, m, a)
        run = PredictionRun(x, kernel, params, t_a, t_b)
        l2x = spectrum_l2(x, n)
        nu_i3 = float(nu) * unit_nu_i3
        checked = (base.i1 + base.i2 + (nu_i3 if nu else 0.0)) / (2.0 * math.pi)
        words = words_needed(tap_l1 * norm(x, "linf"), FLOOR_FRACTION * checked)
        if words == 1:
            yhat = forecast(run, taps)
        else:
            xs, yh = forecast_from_spectrum(noisy_spectrum(spec, n).values, a, params,
                                            length, t_a, run.window_length, words)
            run = PredictionRun(Signal(0, xs), kernel, params, t_a, t_b)
            yhat = Signal(t_a, yh)
        rep = error_report(target(run), yhat, l2x)
        rows.append(NoiseSweepRow(float(nu), rep.abs_linf, base.i1 + base.i2, nu_i3, words))
    return rows


def corollary_split_experiment(x: Signal, omega: float, kernel: FirstOrderKernel,
                               gamma_low: float, gamma_high: float,
                               n: int, m: int) -> SplitReport:
    """Two-band prediction: split, forecast each part mode-matched, sum.

    The combined forecast is scored against the target computed on the full
    signal; the per-part errors are scored against the per-part targets.  All
    three relative columns share the full-signal spectrum norm as
    denominator, so the triangle inequality between them holds on the nose.
    The ideal split is a DFT over x's whole window, so the parts, and with
    them the combined forecast, read samples of x past each forecast time:
    the combined column is the paper's reference, not a causal forecast.
    """
    low, high = ideal_filter_split(x, omega, n)
    denom = spectrum_l2(x, n)
    t_a, t_b = interior_window(x, m, kernel.a)
    p_low = PredictorParams(omega=omega, gamma=gamma_low, n=n, m=m, mode="low")
    p_high = PredictorParams(omega=omega, gamma=gamma_high, n=n, m=m, mode="high")
    y_full = target(PredictionRun(x, kernel, p_low, t_a, t_b))
    run_low = PredictionRun(low, kernel, p_low, t_a, t_b)
    run_high = PredictionRun(high, kernel, p_high, t_a, t_b)
    grid = TransferGrid(kernel, omega, n)
    yhat_low = forecast(run_low, causal_kernel(kernel, p_low, grid))
    yhat_high = forecast(run_high, causal_kernel(kernel, p_high, grid))
    combined = Signal(t_a, yhat_low.values + yhat_high.values)
    return SplitReport(
        combined_rel_l2=error_report(y_full, combined, denom).rel_l2_vs_l2x,
        low_rel_l2=error_report(target(run_low), yhat_low, denom).rel_l2_vs_l2x,
        high_rel_l2=error_report(target(run_high), yhat_high, denom).rel_l2_vs_l2x,
        low_energy=norm(low, "l2") ** 2,
        high_energy=norm(high, "l2") ** 2,
    )


def khat_sup_norm(a: float, omega: float, gamma: float, n: int) -> float:
    """Sup norm of the full causal tap sequence (truncation at the grid half).

    Grows without bound as the band edge approaches pi at fixed damping,
    which is the quantitative sense in which wide-band prediction becomes
    infeasible; construction fails outright once the damping exponent
    overflows.
    """
    mode = "low" if gamma <= 0 else "high"
    params = PredictorParams(omega=omega, gamma=gamma, n=n, m=n // 2, mode=mode)
    taps = causal_kernel(FirstOrderKernel(a), params)
    return float(np.max(np.abs(taps.values)))
