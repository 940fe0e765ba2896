"""Budget arithmetic and experiment drivers."""

import math

import numpy as np
import pytest

from artifact import (
    BandSignalSpec,
    CausalityLeakError,
    FirstOrderKernel,
    InsufficientDataError,
    InternalConsistencyError,
    NoisySpectrumSpec,
    ParameterError,
    PredictionError,
    PredictionRun,
    PredictorParams,
    SaturationError,
    Signal,
    SpectrumGrid,
    TransferGrid,
    alpha,
    anticausal_tail_len,
    budget,
    causal_kernel,
    corollary_split_experiment,
    error_report,
    forecast,
    gamma_sweep,
    gen_band_signal,
    grid_omegas,
    interior_window,
    inverse_grid,
    k_transfer,
    khat_sup_norm,
    noise_sweep,
    noisy_spectrum,
    norm,
    nu_i3_closed_form,
    psi,
    spectrum_l2,
    target,
)

PI = math.pi


def test_budget_hand_quantities():
    b = budget(2.0, PI / 2, 0.2, 0.0, 4096)
    # max |1/(z+2)| on a grid containing omega = -pi is exactly 1
    assert b.kappa == 1.0
    assert abs(b.alpha + 0.5) < 1e-14
    assert abs(b.mu - 8.0 / 3.0) < 1e-14
    assert abs(b.omega1 - (PI / 2 - 0.05)) < 1e-15
    # psi decreases monotonically over the band here, so the inner minimum
    # sits at omega1
    assert abs(b.psi0 - psi(2.0, b.alpha, b.omega1)) < 1e-13
    assert abs(b.gamma_eps + math.log(2.0 / 0.2) / b.psi0) < 1e-12
    assert b.i2_cap == b.kappa * 0.1
    assert b.gamma_eps < 0.0
    assert b.i1 > 0.0 and b.i2 > 0.0 and b.i3 > 0.0


def test_budget_quadrature_caps():
    b = budget(2.0, PI / 2, 0.2, 0.0, 4096)
    step = 2.0 * PI / b.n
    assert b.i1 <= 0.1
    assert b.i2 <= b.i2_cap + b.kappa * step


def test_nu_i3_exact_linearity():
    b1 = budget(2.0, PI / 2, 0.2, 0.125, 4096)
    b2 = budget(2.0, PI / 2, 0.2, 0.25, 4096)
    # dyadic nu makes the scaling bit-exact
    assert b2.nu_i3 == 2.0 * b1.nu_i3
    assert b1.nu_i3 == nu_i3_closed_form(b1.kappa, 0.125, b1.omega, b1.eps, b1.mu, b1.psi0)
    b0 = budget(2.0, PI / 2, 0.2, 0.0, 4096)
    assert b0.nu_i3 == 0.0


def test_nu_i3_log_log_affine_with_frozen_constants():
    ref = budget(2.0, PI / 2, 0.1, 0.0, 4096)
    eps_grid = np.array([0.05, 0.1, 0.2, 0.4])
    vals = [nu_i3_closed_form(ref.kappa, 1.0, ref.omega, e, ref.mu, ref.psi0)
            for e in eps_grid]
    L = np.log(1.0 / eps_grid)
    V = np.log(vals)
    coef = np.polyfit(L, V, 1)
    assert abs(coef[0] - ref.mu / ref.psi0) < 1e-9
    assert np.max(np.abs(V - np.polyval(coef, L))) < 1e-9


def test_nu_i3_past_the_exp_guard_is_inf():
    # (mu / psi0) * log(2 * kappa / eps) = 1000 * log(2000) passes 700
    assert nu_i3_closed_form(1.0, 0.01, PI / 2, 1e-3, 1000.0, 1.0) == math.inf


def test_budget_validation():
    with pytest.raises(ParameterError):
        budget(2.0, PI / 2, 0.0, 0.0, 4096)
    with pytest.raises(ParameterError):
        budget(2.0, PI / 2, 4.0 * PI, 0.0, 4096)
    with pytest.raises(ParameterError):
        budget(2.0, PI / 2, 0.2, 1.0, 4096)
    with pytest.raises(ParameterError):
        budget(2.0, 0.0, 0.2, 0.0, 4096)


def test_gamma_sweep_errors_decrease_in_feasible_range():
    rows = gamma_sweep(FirstOrderKernel(2.0), PI / 3, "low",
                       BandSignalSpec(omega=PI / 3, mode="low", length=1024, seed=3),
                       [-1.0, -4.0, -16.0], 2048, 256)
    assert [r.gamma for r in rows] == [-1.0, -4.0, -16.0]
    assert rows[0].rel_l2 > rows[1].rel_l2 > rows[2].rel_l2
    assert rows[2].rel_l2 < 0.05
    assert all(r.abs_l2 > 0 and r.abs_linf > 0 for r in rows)


def test_gamma_sweep_preserves_input_order():
    rows = gamma_sweep(FirstOrderKernel(2.0), PI / 3, "low",
                       BandSignalSpec(omega=PI / 3, mode="low", length=512, seed=3),
                       [-4.0, -1.0, -2.0], 1024, 128)
    assert [r.gamma for r in rows] == [-4.0, -1.0, -2.0]


def test_gamma_sweep_matches_per_gamma_scoring():
    # one stacked engine call against one forecast per gamma; m = 1024 puts
    # 16 windows in a block, so the 2,943 outputs span many full blocks and
    # a padded last one.  Rows are compared where they are trusted: their
    # float64 roundoff floor 2**-53 * ||khat||_1 * ||x||_inf is below 1e-12
    # of the sup error (gamma = -1 .. -8 here, not -16)
    kernel, omega, n, m = FirstOrderKernel(2.0), PI / 3, 8192, 1024
    spec = BandSignalSpec(omega=omega, mode="low", length=4008, seed=13)
    gammas = [-1.0, -2.0, -4.0, -8.0, -16.0]
    rows = gamma_sweep(kernel, omega, "low", spec, gammas, n, m)
    x = gen_band_signal(spec, n)
    t_a, t_b = interior_window(x, m, kernel.a)
    grid = TransferGrid(kernel, omega, n)
    trusted = []
    for gamma, row in zip(gammas, rows):
        params = PredictorParams(omega=omega, gamma=gamma, n=n, m=m, mode="low")
        taps = causal_kernel(kernel, params, grid)
        run = PredictionRun(x, kernel, params, t_a, t_b)
        rep = error_report(target(run), forecast(run, taps), spectrum_l2(x, n))
        assert row.gamma == gamma
        if 2.0 ** -53 * norm(taps, "l1") * norm(x, "linf") > 1e-12 * rep.abs_linf:
            continue
        trusted.append(gamma)
        for got, want in ((row.abs_l2, rep.abs_l2), (row.abs_linf, rep.abs_linf),
                          (row.rel_l2, rep.rel_l2_vs_l2x), (row.rel_linf, rep.rel_linf_vs_l2x)):
            assert abs(got - want) <= 1e-12 * abs(want), (gamma, got, want)
    assert trusted == gammas[:4]


@pytest.mark.parametrize("gammas, error", [
    ([-1.0, -4.0, -2048.0, -128.0], SaturationError),
    ([-1.0, -4.0, -128.0, -2048.0], CausalityLeakError),
])
def test_gamma_sweep_raises_for_the_first_failing_gamma(gammas, error):
    # at n = 256 gamma = -128 leaks onto negative times and -2048 saturates;
    # the sweep reports the third gamma, with the message its taps raise
    kernel, omega, n, m = FirstOrderKernel(2.0), PI / 3, 256, 32
    params = PredictorParams(omega=omega, gamma=gammas[2], n=n, m=m, mode="low")
    with pytest.raises(error) as want:
        causal_kernel(kernel, params)
    with pytest.raises(error) as got:
        gamma_sweep(kernel, omega, "low", BandSignalSpec(omega=omega, mode="low", length=256,
                                                         seed=3), gammas, n, m)
    assert str(got.value) == str(want.value)


def _bits(rows):
    return np.array([(r.gamma, r.abs_l2, r.abs_linf, r.rel_l2, r.rel_linf) for r in rows]).tobytes()


@pytest.mark.parametrize("a, mode, sign", [(2.0, "low", -1.0), (-2.0, "high", 1.0)])
def test_descending_ladder_gives_the_ascending_rows(a, mode, sign):
    # the taps are built in ascending k whatever the input order, and a
    # tap's bits depend on its gamma alone
    kernel, omega, n, m = FirstOrderKernel(a), PI / 3, 8192, 1024
    spec = BandSignalSpec(omega=omega, mode=mode, length=4008, seed=13)
    ascending = [sign * 2.0 ** k for k in range(9)]
    up = gamma_sweep(kernel, omega, mode, spec, ascending, n, m)
    down = gamma_sweep(kernel, omega, mode, spec, ascending[::-1], n, m)
    assert [r.gamma for r in down] == ascending[::-1]
    assert _bits(down) == _bits(up[::-1])


def test_descending_ladder_evaluates_one_exp(monkeypatch):
    from artifact.spectral import unit_circle_half

    kernel, omega, n, m = FirstOrderKernel(2.0), PI / 3, 8192, 1024
    spec = BandSignalSpec(omega=omega, mode="low", length=4008, seed=13)
    unit_circle_half(n)  # the cached exp(i*omega), built before counting
    exp = np.exp
    sizes = []

    def counting_exp(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    gamma_sweep(kernel, omega, "low", spec, [-(2.0 ** k) for k in range(8, -1, -1)], n, m)
    assert sizes.count(n // 2 + 1) == 1


@pytest.mark.parametrize("gammas, first", [
    # -3072 = -3 * 2**10 is built before the q = -1 ladder and saturates; -128 leaks
    ([-1.0, -3072.0, -128.0], 1),
    ([-1.0, -128.0, -3072.0], 1),
    ([-1.0, -3072.0, 2.0], 1),
    ([-4.0, 2.0, -3072.0], 1),
])
def test_gamma_sweep_raises_for_the_first_failing_gamma_in_input_order(gammas, first):
    # gamma = 2 is refused in low mode before any tap is built; the error of
    # the failing gamma that comes first in the input is the one raised
    kernel, omega, n, m = FirstOrderKernel(2.0), PI / 3, 256, 32
    with pytest.raises(PredictionError) as want:
        params = PredictorParams(omega=omega, gamma=gammas[first], n=n, m=m, mode="low")
        causal_kernel(kernel, params)
    with pytest.raises(PredictionError) as got:
        gamma_sweep(kernel, omega, "low", BandSignalSpec(omega=omega, mode="low", length=256,
                                                         seed=3), gammas, n, m)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_gamma_sweep_builds_nothing_past_the_first_failing_gamma(monkeypatch):
    # -3072 saturates at n = 256; the gammas after it are never built
    import artifact.analysis

    kernel, omega, n, m = FirstOrderKernel(2.0), PI / 3, 256, 32
    calls = []

    def counting_causal_kernel(*args, **kwargs):
        calls.append(args[1].gamma)
        return causal_kernel(*args, **kwargs)

    monkeypatch.setattr(artifact.analysis, "causal_kernel", counting_causal_kernel)
    with pytest.raises(SaturationError):
        gamma_sweep(kernel, omega, "low", BandSignalSpec(omega=omega, mode="low", length=256,
                                                         seed=3), [-3072.0, -1.0, -2.0], n, m)
    assert calls == [-3072.0]


def test_shuffled_ladder_evaluates_one_exp_and_reorders_the_rows(monkeypatch):
    from artifact.spectral import unit_circle_half

    kernel, omega, n, m = FirstOrderKernel(2.0), PI / 3, 8192, 1024
    spec = BandSignalSpec(omega=omega, mode="low", length=4008, seed=13)
    ascending = [-(2.0 ** k) for k in range(9)]
    shuffled = [-4.0, -1.0, -16.0, -2.0, -256.0, -8.0, -64.0, -32.0, -128.0]
    up = gamma_sweep(kernel, omega, "low", spec, ascending, n, m)
    unit_circle_half(n)  # the cached exp(i*omega), built before counting
    exp = np.exp
    sizes = []

    def counting_exp(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    rows = gamma_sweep(kernel, omega, "low", spec, shuffled, n, m)
    assert sizes.count(n // 2 + 1) == 1
    assert [r.gamma for r in rows] == shuffled
    assert _bits(rows) == _bits([up[ascending.index(g)] for g in shuffled])


def test_gamma_sweep_of_no_gammas_is_empty():
    assert gamma_sweep(FirstOrderKernel(2.0), PI / 3, "low",
                       BandSignalSpec(omega=PI / 3, mode="low", length=512, seed=3),
                       [], 1024, 128) == []


def test_gamma_sweep_mode_mismatch():
    with pytest.raises(ParameterError):
        gamma_sweep(FirstOrderKernel(2.0), PI / 3, "low",
                    BandSignalSpec(omega=PI / 3, mode="high", length=512, seed=3),
                    [-1.0], 1024, 128)


def test_gamma_sweep_window_too_short():
    with pytest.raises(ParameterError):
        gamma_sweep(FirstOrderKernel(2.0), PI / 3, "low",
                    BandSignalSpec(omega=PI / 3, mode="low", length=100, seed=3),
                    [-1.0], 1024, 128)


def test_noise_sweep_structure():
    rows = noise_sweep(2.0, PI / 2, 0.2, [0.0, 0.125, 0.25], 1024, 256, seed=5)
    assert [r.nu for r in rows] == [0.0, 0.125, 0.25]
    # the i1+i2 part of the budget does not depend on nu
    assert rows[0].budget_i12 == rows[1].budget_i12 == rows[2].budget_i12
    assert rows[0].budget_nu_i3 == 0.0
    assert rows[2].budget_nu_i3 == 2.0 * rows[1].budget_nu_i3
    assert all(r.measured_linf > 0 for r in rows)


def test_noise_sweep_sound_in_feasible_regime():
    # at eps = 0.2 the damping stays inside the double-precision envelope and
    # the clean-band bound actually holds
    rows = noise_sweep(2.0, PI / 2, 0.2, [0.0], 1024, 256, seed=5)
    assert rows[0].measured_linf <= rows[0].budget_i12 / (2.0 * PI)


def test_noise_sweep_extended_precision_matches_spectral_identity():
    # gamma(eps) = -97.9 makes the taps reach 1.4e27; float64 scores this row
    # at 5.9e10, all of it roundoff
    a, omega, eps, n, m, seed = 2.0, PI / 2, 0.1, 1024, 256, 5
    (row,) = noise_sweep(a, omega, eps, [0.0], n, m, seed=seed)
    assert row.words > 1
    # exact error spectrum K * exp(E) * X on the occupied bins, where
    # |exp(E)| <= 1; the taps' truncation and the target's tail are negligible
    b = budget(a, omega, eps, 0.0, n)
    X = noisy_spectrum(NoisySpectrumSpec(omega=omega, nu=0.0, seed=seed, length=n), n).values
    z = np.exp(1j * grid_omegas(n))
    al = alpha(a, omega)
    expo = b.gamma_eps * (1.0 if a + al > 0 else -1.0) * (z + a) / (z + al)
    occ = X != 0
    err = np.zeros(n, dtype=complex)
    err[occ] = k_transfer(FirstOrderKernel(a), n).values[occ] * np.exp(expo[occ]) * X[occ]
    t_b = n - 1 - anticausal_tail_len(a)
    exact = float(np.max(np.abs(inverse_grid(SpectrumGrid(n, err), m, t_b - m + 1).values)))
    assert abs(row.measured_linf - exact) <= 1e-6 * exact
    assert row.measured_linf <= row.budget_i12 / (2.0 * PI)


def test_noise_sweep_keeps_float64_when_floor_is_small():
    rows = noise_sweep(2.0, PI / 2, 0.2, [0.0, 0.01], 1024, 256, seed=5)
    assert [r.words for r in rows] == [1, 1]


def test_split_triangle_and_parts():
    n = 2048
    low = gen_band_signal(BandSignalSpec(omega=PI / 3, mode="low", length=n, seed=11), n)
    high = gen_band_signal(BandSignalSpec(omega=PI / 3, mode="high", length=n, seed=12), n)
    x = Signal(0, (low.values + high.values) / math.sqrt(2.0))
    rep = corollary_split_experiment(x, PI / 3, FirstOrderKernel(2.0), -8.0, 0.5, n, 256)
    assert rep.combined_rel_l2 <= rep.low_rel_l2 + rep.high_rel_l2 + 1e-10
    assert rep.low_energy > 0.01 and rep.high_energy > 0.01
    assert 0 < rep.combined_rel_l2 < 1.0


def test_split_degenerate_pure_low():
    n = 2048
    x = gen_band_signal(BandSignalSpec(omega=PI / 3, mode="low", length=n, seed=11), n)
    rep = corollary_split_experiment(x, PI / 3, FirstOrderKernel(2.0), -8.0, 0.5, n, 256)
    assert rep.high_energy < 1e-25
    assert rep.high_rel_l2 < 1e-12
    assert abs(rep.combined_rel_l2 - rep.low_rel_l2) < 1e-12


def test_khat_sup_norm_grows_with_band_edge():
    lo = khat_sup_norm(2.0, PI / 3, -8.0, 4096)
    hi = khat_sup_norm(2.0, PI / 2, -8.0, 4096)
    assert 0 < lo < hi


def test_khat_sup_norm_mode_follows_gamma_sign():
    # gamma > 0 runs in high mode without raising
    val = khat_sup_norm(-2.0, PI / 3, 8.0, 4096)
    assert val > 0


def test_internal_consistency_guard_unreachable_in_valid_domain():
    # a spot check across poles and band edges: psi0 stays positive
    for a in (1.5, 2.0, -2.0, 5.0):
        for om in (PI / 4, PI / 2, 2.0):
            b = budget(a, om, 0.1, 0.0, 4096)
            assert b.psi0 > 0.0
    assert InternalConsistencyError is not None


def test_short_signal_is_insufficient_data_in_every_driver():
    # a=2 needs tail_len=40 samples of future, so m=128 needs 169 samples
    kern = FirstOrderKernel(2.0)
    named = r"length 140 is too short: m=128 .* tail_len=40 .* at least 169"
    with pytest.raises(InsufficientDataError, match=named):
        gamma_sweep(kern, PI / 3, "low",
                    BandSignalSpec(omega=PI / 3, mode="low", length=140, seed=3),
                    [-1.0], 1024, 128)
    with pytest.raises(InsufficientDataError, match=named):
        noise_sweep(2.0, PI / 2, 0.2, [0.0], 1024, 128, seed=5, length=140)
    x = gen_band_signal(BandSignalSpec(omega=PI / 3, mode="low", length=140, seed=3), 1024)
    with pytest.raises(InsufficientDataError, match=named):
        corollary_split_experiment(x, PI / 3, kern, -4.0, 1.0, 1024, 128)
    # one sample more is enough
    rows = gamma_sweep(kern, PI / 3, "low",
                       BandSignalSpec(omega=PI / 3, mode="low", length=169, seed=3),
                       [-1.0], 1024, 128)
    assert len(rows) == 1


@pytest.mark.parametrize("omega, eps", [(PI / 2, 4e-16), (PI / 2, 1e-16), (1.0, 1e-15)])
def test_budget_refuses_eps_below_double_precision(omega, eps):
    # omega - eps/4 rounds to omega, or so close to it that psi0 rounds to <= 0
    with pytest.raises(ParameterError, match=r"eps=.* too small for double precision"):
        budget(2.0, omega, eps, 0.0, 256)
    assert budget(2.0, omega, 1e-13, 0.0, 256).psi0 > 0.0
