"""Kernel layer: mirror parameter, damping factor, causal inversion."""

import math

import numpy as np
import pytest

from artifact import (
    CausalityLeakError,
    FirstOrderKernel,
    GridSizeError,
    ParameterError,
    PredictorParams,
    SaturationError,
    TransferGrid,
    alpha,
    anticausal_kernel,
    causal_kernel,
    causality_leak_ratio,
    grid_omegas,
    inverse_grid,
    k_transfer,
    predictor_transfer,
    psi,
    tap_l1_tail,
    v_transfer,
)
from artifact.extended import _cexp, _constants, _fixed
from artifact.kernels import EXP_GUARD, _Power, _power_split

PI = math.pi


# ------------------------------------------------------------------- alpha

def test_alpha_hand_values():
    assert abs(alpha(2.0, PI / 2) + 0.5) < 1e-14
    assert abs(alpha(2.0, PI / 3) + 0.8) < 1e-14
    assert abs(alpha(-2.0, PI / 3)) < 1e-15


def test_alpha_root_identity_random():
    rng = np.random.default_rng(123)
    for _ in range(2000):
        a = float(rng.uniform(1.05, 30.0) * rng.choice([-1.0, 1.0]))
        om = float(rng.uniform(0.02, PI - 0.02))
        al = alpha(a, om)
        assert -1.0 < al < 1.0
        assert abs(1.0 + al * a + (a + al) * math.cos(om)) <= 1e-9 * (1.0 + abs(a))


def test_alpha_rejects_bad_domain():
    with pytest.raises(ParameterError):
        alpha(0.5, PI / 3)
    with pytest.raises(ParameterError):
        alpha(2.0, 0.0)
    with pytest.raises(ParameterError):
        alpha(2.0, PI)


# --------------------------------------------------------------------- psi

def test_psi_hand_values():
    al = alpha(2.0, PI / 3)
    assert abs(psi(2.0, al, 0.0) - 15.0) < 1e-12
    assert abs(psi(2.0, al, PI) + 5.0 / 9.0) < 1e-13
    assert abs(psi(2.0, al, PI / 3)) < 1e-13
    al2 = alpha(2.0, PI / 2)
    assert abs(psi(2.0, al2, 0.0) - 6.0) < 1e-12
    assert abs(psi(2.0, al2, PI) + 2.0 / 3.0) < 1e-13
    al3 = alpha(-2.0, PI / 3)
    assert abs(psi(-2.0, al3, 0.0) - 1.0) < 1e-14
    assert abs(psi(-2.0, al3, PI) + 3.0) < 1e-13


def test_psi_sign_structure():
    # positive strictly inside the band, zero at the edge, negative outside
    for a in (1.7, 2.0, -2.0, 5.0, -3.0):
        om_edge = PI / 3
        al = alpha(a, om_edge)
        w = np.linspace(0.0, PI, 4001)
        vals = psi(a, al, w)
        assert np.all(vals[w < om_edge - 1e-6] > 0)
        assert np.all(vals[w > om_edge + 1e-6] < 0)
        assert abs(psi(a, al, om_edge)) < 1e-12


def test_psi_even():
    al = alpha(2.0, PI / 3)
    w = np.linspace(0.0, PI, 100)
    assert np.max(np.abs(psi(2.0, al, w) - psi(2.0, al, -w))) == 0.0


def test_psi_matches_exponent_real_part():
    a = 2.0
    al = alpha(a, PI / 3)
    w = np.linspace(-PI, PI, 257)
    z = np.exp(1j * w)
    s = 1.0 if a + al > 0 else -1.0
    direct = (s * (z + a) / (z + al)).real
    assert np.max(np.abs(psi(a, al, w) - direct)) < 1e-12


# ----------------------------------------------------------------- kernels

def test_anticausal_taps_hand_values():
    k = anticausal_kernel(FirstOrderKernel(2.0), -3)
    assert k.start_index == -3
    assert np.allclose(k.values, [-0.0625, 0.125, -0.25, 0.5], atol=1e-15)


def test_anticausal_matches_transfer_inversion():
    n = 2048
    for a in (1.5, -1.5, 2.0, -2.0, 5.0, -5.0):
        kern = FirstOrderKernel(a)
        closed = anticausal_kernel(kern, -64)
        inverted = inverse_grid(k_transfer(kern, n), -64, 65)
        assert np.max(np.abs(closed.values - inverted.values)) < 1e-12


def test_anticausal_dc_sum():
    for a in (1.5, -1.5, 2.0, -2.0, 5.0, -5.0):
        vals = anticausal_kernel(FirstOrderKernel(a), -200).values
        assert abs(np.sum(vals) - 1.0 / (1.0 + a)) < 1e-12


def test_anticausal_rejects_two_parameter_form():
    with pytest.raises(ParameterError):
        anticausal_kernel(FirstOrderKernel(2.0, 1.0), -4)
    with pytest.raises(ParameterError):
        anticausal_kernel(FirstOrderKernel(2.0), 1)


def test_two_parameter_transfer_factorization():
    n = 64
    kern = FirstOrderKernel(2.0, -0.7)
    from artifact import grid_omegas

    z = np.exp(1j * grid_omegas(n))
    direct = (z + kern.b) / (z + kern.a)
    grid = k_transfer(kern, n).values
    assert np.max(np.abs(direct - grid)) < 1e-12
    assert kern.c == kern.b - kern.a


def test_pole_validation():
    for bad in (1.0, -1.0, 0.3, 0.0):
        with pytest.raises(ParameterError):
            FirstOrderKernel(bad)
    with pytest.raises(ParameterError):
        FirstOrderKernel(2.0).c


def test_parameters_must_be_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="pole parameter must be finite"):
            FirstOrderKernel(bad)
        with pytest.raises(ParameterError, match="zero parameter b must be finite"):
            FirstOrderKernel(2.0, bad)
        for mode in ("low", "high"):
            with pytest.raises(ParameterError, match="damping gamma must be finite"):
                PredictorParams(omega=PI / 3, gamma=bad, n=64, m=8, mode=mode)


# ---------------------------------------------------------- damping factor

def test_v_hand_values():
    # exponent at omega=0 is 15*gamma, at omega=-pi it is -(5/9)*gamma
    n = 64
    al = alpha(2.0, PI / 3)
    v1 = v_transfer(2.0, al, -0.4, n).values
    assert abs(v1[n // 2] - (1.0 - math.exp(-6.0))) < 1e-12
    v2 = v_transfer(2.0, al, -1.2, n).values
    assert abs(v2[0] - (1.0 - math.exp(2.0 / 3.0))) < 1e-12


def test_v_gamma_zero_is_identity_zero():
    al = alpha(2.0, PI / 3)
    v = v_transfer(2.0, al, 0.0, 32).values
    assert np.max(np.abs(v)) == 0.0


def test_v_magnitude_matches_psi():
    n = 512
    a, gamma = 2.0, -7.0
    al = alpha(a, PI / 3)
    v = v_transfer(a, al, gamma, n).values
    om = np.linspace(-PI, PI, n, endpoint=False)
    assert np.max(np.abs(np.abs(v - 1.0) - np.exp(gamma * psi(a, al, om)))) < 1e-12


def test_v_in_band_bound():
    # |V| <= |1| + |V-1| <= 2 on the band for any gamma <= 0
    n = 4096
    om = np.linspace(-PI, PI, n, endpoint=False)
    for a, edge in ((2.0, PI / 3), (-2.0, PI / 3), (1.5, PI / 2)):
        al = alpha(a, edge)
        band = np.abs(om) <= edge
        for gamma in (-0.5, -3.0, -40.0):
            v = v_transfer(a, al, gamma, n).values
            assert np.max(np.abs(v[band])) <= 2.0 + 1e-12


def test_v_saturation_guard():
    al = alpha(2.0, PI / 3)
    with pytest.raises(SaturationError):
        v_transfer(2.0, al, -2000.0, 256)  # out-of-band exponent 2000*(5/9) > 700


def test_v_alpha_domain():
    with pytest.raises(ParameterError):
        v_transfer(2.0, 1.0, -1.0, 32)


def test_psi_alpha_domain():
    with pytest.raises(ParameterError, match=r"\|alpha\| must be < 1"):
        psi(2.0, 1.0, 0.5)


# ---------------------------------------------------------- causal kernel

def test_predictor_transfer_is_product():
    kern = FirstOrderKernel(2.0)
    params = PredictorParams(omega=PI / 3, gamma=-4.0, n=256, m=32, mode="low")
    al = alpha(2.0, PI / 3)
    lhs = predictor_transfer(kern, params).values
    rhs = v_transfer(2.0, al, -4.0, 256).values * k_transfer(kern, 256).values
    assert np.array_equal(lhs, rhs)


def test_causal_kernel_is_real_and_truncated():
    kern = FirstOrderKernel(2.0)
    params = PredictorParams(omega=PI / 3, gamma=-6.0, n=2048, m=64, mode="low")
    taps = causal_kernel(kern, params)
    assert taps.start_index == 0
    assert len(taps) == 64
    assert np.max(np.abs(taps.values.imag)) == 0.0


def test_causal_kernel_dc_consistency():
    # sum of all causal taps approximates Khat at omega=0
    kern = FirstOrderKernel(2.0)
    n = 4096
    params = PredictorParams(omega=PI / 3, gamma=-10.0, n=n, m=n // 2, mode="low")
    taps = causal_kernel(kern, params)
    dc = predictor_transfer(kern, params).values[n // 2]
    assert abs(np.sum(taps.values) - dc) < 1e-10


def test_causal_kernel_gamma_zero():
    kern = FirstOrderKernel(2.0)
    params = PredictorParams(omega=PI / 3, gamma=0.0, n=256, m=16, mode="low")
    assert causality_leak_ratio(kern, params) == 0.0
    assert np.max(np.abs(causal_kernel(kern, params).values)) == 0.0


def test_causal_kernel_leak_small_on_adequate_grid():
    kern = FirstOrderKernel(2.0)
    params = PredictorParams(omega=PI / 3, gamma=-8.0, n=4096, m=512, mode="low")
    assert causality_leak_ratio(kern, params) < 1e-12


def test_causal_kernel_leak_guard_fires_on_tiny_grid():
    kern = FirstOrderKernel(2.0)
    params = PredictorParams(omega=PI / 3, gamma=-8.0, n=64, m=16, mode="low")
    with pytest.raises(CausalityLeakError):
        causal_kernel(kern, params)


def test_causal_kernel_m_limit():
    kern = FirstOrderKernel(2.0)
    params = PredictorParams(omega=PI / 3, gamma=-1.0, n=256, m=200, mode="low")
    with pytest.raises(GridSizeError):
        causal_kernel(kern, params)


def test_tap_l1_tail_shrinks_with_m():
    kern = FirstOrderKernel(2.0)
    tails = [
        tap_l1_tail(kern, PredictorParams(omega=PI / 3, gamma=-6.0, n=2048, m=m, mode="low"))
        for m in (16, 64, 256)
    ]
    assert tails[0] > tails[1] > tails[2] >= 0.0


def test_mode_gamma_sign_contract():
    with pytest.raises(ParameterError):
        PredictorParams(omega=PI / 3, gamma=1.0, n=64, m=8, mode="low")
    with pytest.raises(ParameterError):
        PredictorParams(omega=PI / 3, gamma=-1.0, n=64, m=8, mode="high")
    with pytest.raises(ParameterError):
        PredictorParams(omega=PI / 3, gamma=-1.0, n=64, m=0, mode="low")
    with pytest.raises(GridSizeError):
        PredictorParams(omega=PI / 3, gamma=-1.0, n=60, m=8, mode="low")
    with pytest.raises(ParameterError):
        PredictorParams(omega=PI / 3, gamma=-1.0, n=64, m=8, mode="mid")


# ------------------------------------------- half-spectrum inversion

def _full_grid_reference(kern, params):
    """Period and leak ratio by the full complex grid, plus max Re(exponent).

    Khat = V*K on all n ascending bins, a complex ifft, and the l2 mass of
    the period at t < 0 (entries n/2 .. n-1) relative to all of it.
    """
    n = params.n
    z = np.exp(1j * (-PI + 2.0 * PI * np.arange(n) / n))
    al = alpha(kern.a, params.omega)
    s = 1.0 if kern.a + al > 0 else -1.0
    expo = params.gamma * s * (z + kern.a) / (z + al)
    k = 1.0 / (z + kern.a) if kern.b is None else (z + kern.b) / (z + kern.a)
    period = np.fft.ifft(np.fft.ifftshift((1.0 - np.exp(expo)) * k))
    sq = np.abs(period) ** 2
    return period, math.sqrt(np.sum(sq[n // 2:]) / np.sum(sq)), float(np.max(expo.real))


@pytest.mark.parametrize("a, b, omega, gamma, mode, n, m", [
    (2.0, None, PI / 3, -6.0, "low", 4096, 256),
    (2.0, None, PI / 3, -32.0, "low", 8192, 512),
    (-2.0, None, PI / 3, 8.0, "high", 4096, 256),
    (-2.0, None, PI / 3, 16.0, "high", 8192, 512),
    (2.0, -0.7, PI / 3, -10.0, "low", 4096, 256),
    (-3.0, 0.5, PI / 2, 12.0, "high", 4096, 256),
])
def test_half_spectrum_taps_match_full_grid(a, b, omega, gamma, mode, n, m):
    kern = FirstOrderKernel(a, b)
    params = PredictorParams(omega=omega, gamma=gamma, n=n, m=m, mode=mode)
    period, leak, worst = _full_grid_reference(kern, params)
    assert worst <= 20.0
    taps = causal_kernel(kern, params).values
    ref = period[:m].real
    assert np.max(np.abs(taps - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert abs(causality_leak_ratio(kern, params) - leak) <= 1e-9


@pytest.mark.parametrize("n", [64, 128])
def test_half_spectrum_leak_and_tail_match_full_grid(n):
    # small grids, where the leak and the discarded tail are real mass
    kern = FirstOrderKernel(2.0)
    params = PredictorParams(omega=PI / 3, gamma=-8.0, n=n, m=16, mode="low")
    period, leak, _ = _full_grid_reference(kern, params)
    assert leak > 1e-14
    assert abs(causality_leak_ratio(kern, params) - leak) <= 1e-9 * leak
    tail = float(np.sum(np.abs(period[16 : n // 2])))
    assert abs(tap_l1_tail(kern, params) - tail) <= 1e-12 * tail


def test_shared_grid_is_bit_identical():
    for kern, omega, gammas, mode in (
        (FirstOrderKernel(2.0), PI / 3, (-1.0, -6.0, -32.0), "low"),
        (FirstOrderKernel(-2.0, 0.4), PI / 4, (0.0, 3.0, 16.0), "high"),
    ):
        grid = TransferGrid(kern, omega, 4096)
        for gamma in gammas:
            params = PredictorParams(omega=omega, gamma=gamma, n=4096, m=300, mode=mode)
            shared = causal_kernel(kern, params, grid)
            assert np.array_equal(shared.values, causal_kernel(kern, params).values)


def test_grid_for_other_configuration_is_refused():
    kern = FirstOrderKernel(2.0, -0.7)
    params = PredictorParams(omega=PI / 3, gamma=-4.0, n=1024, m=64, mode="low")
    for other in (TransferGrid(kern, PI / 4, 1024), TransferGrid(kern, PI / 3, 2048),
                  TransferGrid(FirstOrderKernel(2.0), PI / 3, 1024),
                  TransferGrid(FirstOrderKernel(3.0, -0.7), PI / 3, 1024)):
        with pytest.raises(ParameterError, match="transfer grid was built for"):
            causal_kernel(kern, params, other)


def test_saturation_names_the_bin():
    # low band: the largest exponent sits at omega = -pi (bin 0), 2000 * 5/9
    low = PredictorParams(omega=PI / 3, gamma=-2000.0, n=256, m=16, mode="low")
    with pytest.raises(SaturationError, match=r"omega=-3\.141593 \(bin 0\)"):
        causal_kernel(FirstOrderKernel(2.0), low)
    # high band, a = -2: at omega = 0 (bin n/2), 2000 * psi(0) = 2000
    high = PredictorParams(omega=PI / 3, gamma=2000.0, n=256, m=16, mode="high")
    with pytest.raises(SaturationError, match=r"omega=0\.000000 \(bin 128\)"):
        tap_l1_tail(FirstOrderKernel(-2.0), high)


def test_leak_guard_survives_huge_taps():
    # taps near 1e226 on a grid far too small: the squares of the period
    # overflow, which must not turn the leak ratio into a silent nan
    kern = FirstOrderKernel(2.0)
    params = PredictorParams(omega=PI / 3, gamma=-1000.0, n=1024, m=64, mode="low")
    assert causality_leak_ratio(kern, params) > 0.5
    with pytest.raises(CausalityLeakError):
        causal_kernel(kern, params)


# ------------------------------------------- exact Hermitian symmetry

def _conj_mirrored(values):
    """F(-omega_j) == conj(F(omega_j)) bit for bit on every bin that has a mirror."""
    return np.array_equal(values[1:], np.conj(values[:0:-1]))


@pytest.mark.parametrize("n", [8, 1024, 32768, 65536])
def test_grid_and_transfers_are_exactly_hermitian(n):
    om = grid_omegas(n)
    assert np.array_equal(om[1:], -om[:0:-1])
    assert om[0] == -PI and om[n // 2] == 0.0
    for kern in (FirstOrderKernel(2.0), FirstOrderKernel(2.0, -0.7), FirstOrderKernel(-3.0, 0.5)):
        assert _conj_mirrored(k_transfer(kern, n).values)
    low_al, high_al = alpha(2.0, PI / 3), alpha(-2.0, PI / 3)
    assert _conj_mirrored(v_transfer(2.0, low_al, -6.0, n).values)
    assert _conj_mirrored(v_transfer(-2.0, high_al, 6.0, n).values)
    for kern, gamma, mode in ((FirstOrderKernel(2.0), -6.0, "low"),
                              (FirstOrderKernel(-2.0, 0.5), 6.0, "high")):
        params = PredictorParams(omega=PI / 3, gamma=gamma, n=n, m=4, mode=mode)
        assert _conj_mirrored(predictor_transfer(kern, params).values)
    for a, al in ((2.0, low_al), (-2.0, high_al)):
        p = psi(a, al, om)
        assert np.array_equal(p[1:], p[:0:-1])


def test_transfer_grid_reads_the_half_back():
    kern = FirstOrderKernel(2.0, -0.7)
    grid = TransferGrid(kern, PI / 3, 1024)
    k = k_transfer(kern, 1024).values
    assert grid.k.size == 513 and grid.alpha == alpha(2.0, PI / 3)
    assert np.array_equal(grid.k[:512], k[512:])
    assert np.array_equal(grid.k[512], np.conj(k[0]))


# ------------------------------------------- damping by the power rule

def test_power_split():
    assert _power_split(-256.0) == (-1.0, 8)
    assert _power_split(96.0) == (3.0, 5)
    assert _power_split(-6.0) == (-3.0, 1)
    assert _power_split(7.0) == (7.0, 0)
    assert _power_split(-12.5) == (-12.5, 0)
    assert _power_split(-0.0) == (-0.0, 0)


# fixed-point reference: 160 fractional bits, far below float64 rounding
_FRAC = 160


def _reference_exp(direction, gamma, shift):
    """exp(gamma * direction) * 2**-shift per bin in fixed point, direction read exactly."""
    consts = _constants(_FRAC)
    g = int(gamma)
    re = np.array([g * v - s * consts[1] for v, s in
                   zip(_fixed(direction.real, _FRAC).tolist(), shift.tolist())], dtype=object)
    im = np.array([g * v for v in _fixed(direction.imag, _FRAC).tolist()], dtype=object)
    er, ei = _cexp(re, im, _FRAC, consts)
    one = 1 << _FRAC
    return np.array([complex(u / one, w / one) for u, w in zip(er.tolist(), ei.tolist())])


@pytest.mark.parametrize("n", [1024, 32768])
@pytest.mark.parametrize("a", [2.0, -2.0, 1.05])
def test_power_rule_matches_fixed_point_exp(a, n):
    # E = exp(q d) squared k times carries a relative error of about
    # (2**k + |gamma d|) * 2**-53: 2**k from the squarings, |gamma d| from
    # rounding q * d; measured at most 1.81 times that on these bins
    d = TransferGrid(FirstOrderKernel(a), PI / 3, n).direction
    bins = np.unique(np.r_[np.arange(0, d.size, d.size // 128), d.size - 1,
                           np.argmax(d.real), np.argmin(d.real)])
    gammas = [s * 2.0 ** j for s in (1.0, -1.0) for j in range(9)] + [-6.0, -96.0, 3 * 2.0 ** 5]
    checked = 0
    for gamma in gammas:
        if np.max(gamma * d.real) > EXP_GUARD:
            continue
        _, k = _power_split(gamma)
        expo = gamma * d[bins]
        # compare at |E| ~ 1: scale by 2**-shift, exact in float64 above e**-700
        shift = np.round(expo.real / math.log(2.0)).astype(int)
        got = _Power(d).exp(gamma)[bins]
        got = np.ldexp(got.real, -shift) + 1j * np.ldexp(got.imag, -shift)
        ref = _reference_exp(d[bins], gamma, shift)
        live = expo.real >= -EXP_GUARD
        bound = 4.0 * (2.0 ** k + np.abs(expo)) * 2.0 ** -53 * np.abs(ref)
        assert np.all(np.abs(got - ref)[live] <= bound[live]), (a, n, gamma)
        checked += 1
    assert checked >= 12


@pytest.mark.parametrize("kern, mode", [(FirstOrderKernel(2.0), "low"),
                                        (FirstOrderKernel(-2.0, 0.5), "high")])
def test_ladder_order_does_not_change_the_taps(kern, mode):
    # ascending squares the kept power forward; descending and shuffled
    # ladders recompute it; every order gives a fresh grid's bits
    sign = -1.0 if mode == "low" else 1.0
    ladder = [sign * g for g in (1.0, 2.0, 4.0, 6.0, 8.0, 16.0, 5.5, 32.0, 64.0, 96.0, 128.0)]
    fresh = {g: TransferGrid(kern, PI / 3, 1024) for g in ladder}
    want = {g: fresh[g].invert(g) for g in ladder}
    for order in (sorted(ladder, key=abs), sorted(ladder, key=abs, reverse=True),
                  [ladder[i] for i in np.random.default_rng(7).permutation(len(ladder))]):
        grid = TransferGrid(kern, PI / 3, 1024)
        for gamma in order:
            assert np.array_equal(grid.damping(gamma), fresh[gamma].damping(gamma)), gamma
            period, leak = grid.invert(gamma)
            assert np.array_equal(period, want[gamma][0]) and leak == want[gamma][1], gamma


def test_negative_zero_gamma_gives_zero_v():
    al = alpha(2.0, PI / 3)
    assert np.max(np.abs(v_transfer(2.0, al, -0.0, 32).values)) == 0.0
    grid = TransferGrid(FirstOrderKernel(2.0), PI / 3, 32)
    grid.damping(-4.0)
    assert np.max(np.abs(grid.damping(-0.0))) == 0.0


def test_saturation_is_refused_before_any_squaring():
    grid = TransferGrid(FirstOrderKernel(2.0), PI / 3, 256)
    grid.damping(-1024.0)  # keeps exp(-d) squared 10 times, 1024 * 5/9 < 700
    kept = grid._power.values.copy()
    message = ("damping exponent real part 1137.8 exceeds 700 at omega=-3.141593 (bin 0); "
               "kernel magnitudes would overflow double precision")
    with pytest.raises(SaturationError) as err:
        grid.damping(-2048.0)
    assert str(err.value) == message
    assert (grid._power.q, grid._power.k) == (-1.0, 10)
    assert np.array_equal(grid._power.values, kept)
