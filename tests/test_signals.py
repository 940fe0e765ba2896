"""Test-signal generators and the ideal band split."""

import math

import numpy as np
import pytest

from artifact import (
    BandSignalSpec,
    DegenerateBandError,
    GridSizeError,
    NoisySpectrumSpec,
    ParameterError,
    Signal,
    band_spectrum,
    dtft_on_grid,
    gen_band_signal,
    gen_noisy_spectrum,
    grid_omegas,
    ideal_filter_split,
    low_band_mask,
    noisy_spectrum,
    norm,
)

PI = math.pi


def test_low_band_mask_closed_and_tied():
    n = 16
    mask = low_band_mask(n, PI / 2)
    om = grid_omegas(n)
    # pi/2 lands exactly on this grid; the tie belongs to the low band
    assert mask[np.argmin(np.abs(om - PI / 2))]
    assert mask[np.argmin(np.abs(om + PI / 2))]
    assert mask[n // 2]
    assert not mask[0]  # omega = -pi is out of band


def test_low_band_mask_matches_the_ascending_formula():
    # the grid's angles are centred; the band masks, and with them the
    # generated signals, are those of the angles -pi + 2*pi*j/n
    for e in range(8, 17):
        n = 2 ** e
        absom = np.abs(-np.pi + 2.0 * np.pi * np.arange(n) / n)
        for omega in (PI / 3, PI / 2, PI / 4, 1.0, 2 * PI / 3, 0.8 * PI, 0.9 * PI, 0.95 * PI):
            assert np.array_equal(low_band_mask(n, omega), absom <= omega), (n, omega)


def test_band_spectrum_exact_zeros():
    n = 256
    spec = BandSignalSpec(omega=PI / 3, mode="low", length=n, seed=1)
    X = band_spectrum(spec, n)
    mask = low_band_mask(n, PI / 3)
    assert np.all(X.values[~mask] == 0.0)
    assert np.any(X.values[mask] != 0.0)
    spec_h = BandSignalSpec(omega=PI / 3, mode="high", length=n, seed=1)
    Xh = band_spectrum(spec_h, n)
    inside = np.abs(grid_omegas(n)) < PI / 3 - 1e-12
    assert np.all(Xh.values[inside] == 0.0)


def test_band_signal_real_and_unit_l2():
    spec = BandSignalSpec(omega=PI / 3, mode="low", length=200, seed=5)
    x = gen_band_signal(spec, 256)
    assert np.max(np.abs(x.values.imag)) == 0.0
    assert abs(norm(x, "l2") - 1.0) < 1e-12
    assert x.start_index == 0 and len(x) == 200


def test_band_signal_spectrum_linf_normalization():
    spec = BandSignalSpec(omega=PI / 3, mode="low", length=256, seed=5,
                          normalization="unit_spectrum_linf")
    X = band_spectrum(spec, 256)
    assert abs(np.max(np.abs(X.values)) - 1.0) < 1e-12


def test_band_signal_determinism():
    spec = BandSignalSpec(omega=PI / 3, mode="low", length=100, seed=9)
    a = gen_band_signal(spec, 256)
    b = gen_band_signal(spec, 256)
    assert np.array_equal(a.values, b.values)
    c = gen_band_signal(BandSignalSpec(omega=PI / 3, mode="low", length=100, seed=10), 256)
    assert not np.array_equal(a.values, c.values)


def test_band_signal_full_period_is_band_limited():
    # at length == n the window's own grid spectrum reproduces the draw
    n = 256
    spec = BandSignalSpec(omega=PI / 3, mode="low", length=n, seed=4)
    x = gen_band_signal(spec, n)
    X = dtft_on_grid(x, n)
    out = ~low_band_mask(n, PI / 3)
    assert np.max(np.abs(X.values[out])) < 1e-12


def test_hermitian_self_paired_bins_real():
    n = 64
    X = band_spectrum(BandSignalSpec(omega=2.5, mode="low", length=n, seed=2), n)
    assert X.values[0].imag == 0.0
    assert X.values[n // 2].imag == 0.0
    mirrored = np.conj(X.values[(n - np.arange(n)) % n])
    assert np.max(np.abs(X.values - mirrored)) < 1e-15


def test_degenerate_band_raises():
    with pytest.raises(DegenerateBandError):
        band_spectrum(BandSignalSpec(omega=0.01, mode="low", length=8, seed=0), 8)


def test_length_exceeding_grid_raises():
    with pytest.raises(GridSizeError):
        gen_band_signal(BandSignalSpec(omega=PI / 3, mode="low", length=300, seed=0), 256)
    with pytest.raises(GridSizeError):
        gen_noisy_spectrum(NoisySpectrumSpec(omega=PI / 3, nu=0.1, seed=0, length=300), 256)


def test_spec_validation():
    with pytest.raises(ParameterError):
        BandSignalSpec(omega=0.0, mode="low", length=8, seed=0)
    with pytest.raises(ParameterError):
        BandSignalSpec(omega=1.0, mode="mid", length=8, seed=0)
    with pytest.raises(ParameterError):
        BandSignalSpec(omega=1.0, mode="low", length=0, seed=0)
    with pytest.raises(ParameterError):
        BandSignalSpec(omega=1.0, mode="low", length=8, seed=0, normalization="unit")
    with pytest.raises(ParameterError):
        NoisySpectrumSpec(omega=1.0, nu=1.0, seed=0, length=8)
    with pytest.raises(ParameterError):
        NoisySpectrumSpec(omega=1.0, nu=-0.1, seed=0, length=8)


def test_noisy_spectrum_spec_refuses_an_empty_signal():
    with pytest.raises(ParameterError, match="length must be >= 1"):
        NoisySpectrumSpec(omega=1.0, nu=0.1, seed=0, length=0)


def test_noisy_spectrum_envelope():
    n = 512
    spec = NoisySpectrumSpec(omega=PI / 2, nu=0.05, seed=8, length=n)
    X = noisy_spectrum(spec, n)
    mask = low_band_mask(n, PI / 2)
    mags = np.abs(X.values)
    assert np.all(mags[mask] <= 1.0 + 1e-12)
    assert np.all(mags[~mask] <= 0.05 + 1e-12)
    # hermitian, so the synthesized window is real
    x = gen_noisy_spectrum(spec, n)
    assert np.max(np.abs(x.values.imag)) == 0.0
    assert np.array_equal(x.values, gen_noisy_spectrum(spec, n).values)


def test_noisy_spectrum_nu_zero_is_band_limited():
    n = 256
    X = noisy_spectrum(NoisySpectrumSpec(omega=PI / 2, nu=0.0, seed=8, length=n), n)
    assert np.all(X.values[~low_band_mask(n, PI / 2)] == 0.0)


def test_split_additivity():
    rng = np.random.default_rng(21)
    for length, n in ((256, 256), (180, 256)):
        x = Signal(0, rng.standard_normal(length))
        low, high = ideal_filter_split(x, PI / 3, n)
        assert low.start_index == high.start_index == 0
        assert np.max(np.abs(low.values + high.values - x.values)) < 1e-12


def test_split_idempotent_at_full_period():
    n = 256
    x = gen_band_signal(BandSignalSpec(omega=PI / 3, mode="low", length=n, seed=3), n)
    low, high = ideal_filter_split(x, PI / 3, n)
    assert np.max(np.abs(high.values)) < 1e-14
    assert np.max(np.abs(low.values - x.values)) < 1e-13
    low2, high2 = ideal_filter_split(low, PI / 3, n)
    assert np.max(np.abs(low2.values - low.values)) < 1e-13


def test_split_energy_partition_at_full_period():
    n = 256
    rng = np.random.default_rng(33)
    x = Signal(0, rng.standard_normal(n))
    low, high = ideal_filter_split(x, PI / 3, n)
    lhs = norm(x, "l2") ** 2
    rhs = norm(low, "l2") ** 2 + norm(high, "l2") ** 2
    assert abs(lhs - rhs) < 1e-10 * (1.0 + lhs)


def test_split_impulse_bin_count_oracle():
    # impulse at 0: low part at t=0 equals (number of low bins)/n exactly
    n = 128
    x = Signal(0, np.r_[1.0, np.zeros(n - 1)])
    low, high = ideal_filter_split(x, PI / 3, n)
    count = int(np.sum(low_band_mask(n, PI / 3)))
    assert abs(low.values[0].real - count / n) < 1e-14
    assert abs(high.values[0].real - (n - count) / n) < 1e-14


def test_split_validation():
    x = Signal(0, np.ones(16))
    with pytest.raises(ParameterError):
        ideal_filter_split(x, 0.0, 32)
    with pytest.raises(ParameterError):
        ideal_filter_split(x, PI, 32)


# The full-grid construction the generators are checked against: the draw in
# grid order, symmetrized by a gathered mirror, masked by the full-grid band
# test and synthesized by ifft(ifftshift(.)).


def _reference_hermitize(vals):
    n = vals.size
    return 0.5 * (vals + np.conj(vals[(n - np.arange(n)) % n]))


def _reference_band(spec, n):
    rng = np.random.default_rng(spec.seed)
    sym = _reference_hermitize(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    absom = np.abs(grid_omegas(n))
    keep = absom <= spec.omega if spec.mode == "low" else absom >= spec.omega
    sym[~keep] = 0.0
    window = np.fft.ifft(np.fft.ifftshift(sym))[np.arange(spec.length) % n]
    if spec.normalization == "unit_l2":
        scale = float(np.linalg.norm(window))
    else:
        scale = float(np.max(np.abs(sym)))
    return sym / scale, Signal(0, np.real(window) / scale).values


def _reference_noisy(spec, n):
    rng = np.random.default_rng(spec.seed)
    mags = rng.uniform(0.0, 1.0, n)
    phases = rng.uniform(0.0, 2.0 * np.pi, n)
    env = np.where(np.abs(grid_omegas(n)) <= spec.omega, 1.0, spec.nu)
    sym = _reference_hermitize(env * mags * np.exp(1j * phases))
    window = np.fft.ifft(np.fft.ifftshift(sym))[np.arange(spec.length) % n]
    return sym, Signal(0, np.real(window)).values


@pytest.mark.parametrize("n", [8, 1024, 65536])
@pytest.mark.parametrize("mode", ["low", "high"])
@pytest.mark.parametrize("normalization", ["unit_l2", "unit_spectrum_linf"])
def test_band_draw_matches_the_full_grid_construction(n, mode, normalization):
    for omega in (PI / 3, PI / 2):
        spec = BandSignalSpec(omega=omega, mode=mode, length=min(n, 1024), seed=29,
                              normalization=normalization)
        spectrum, window = _reference_band(spec, n)
        assert band_spectrum(spec, n).values.tobytes() == spectrum.tobytes()
        assert gen_band_signal(spec, n).values.tobytes() == window.tobytes()


@pytest.mark.parametrize("n", [8, 1024, 65536])
@pytest.mark.parametrize("nu", [0.0, 0.1])
def test_noisy_draw_matches_the_full_grid_construction(n, nu):
    spec = NoisySpectrumSpec(omega=PI / 3, nu=nu, seed=29, length=min(n, 512))
    spectrum, window = _reference_noisy(spec, n)
    assert noisy_spectrum(spec, n).values.tobytes() == spectrum.tobytes()
    assert gen_noisy_spectrum(spec, n).values.tobytes() == window.tobytes()
