"""Grid transform pairs: tiny oracles first, then structural identities."""

import math

import numpy as np
import pytest

from artifact import (
    GridSizeError,
    ParameterError,
    Signal,
    SpectrumGrid,
    dtft_on_grid,
    grid_omegas,
    inverse_grid,
    lq_grid_norm,
    norm,
    spectrum_l2,
)


def test_grid_angles_ascending_half_open():
    om = grid_omegas(16)
    assert om[0] == -np.pi
    assert om[-1] < np.pi
    assert np.all(np.diff(om) > 0)
    assert om[8] == 0.0


def test_grid_size_must_be_power_of_two():
    for bad in (0, 4, 12, 1000):
        with pytest.raises(GridSizeError):
            grid_omegas(bad)


def test_impulse_at_zero_has_flat_spectrum():
    x = Signal(0, np.array([1.0]))
    X = dtft_on_grid(x, 32)
    assert np.allclose(X.values, 1.0, atol=0)


def test_shifted_impulse_picks_up_phase():
    t0 = 5
    x = Signal(t0, np.array([1.0]))
    X = dtft_on_grid(x, 64)
    expected = np.exp(-1j * grid_omegas(64) * t0)
    assert np.max(np.abs(X.values - expected)) < 1e-14


def test_negative_time_impulse_phase():
    x = Signal(-3, np.array([1.0]))
    X = dtft_on_grid(x, 32)
    expected = np.exp(1j * grid_omegas(32) * 3)
    assert np.max(np.abs(X.values - expected)) < 1e-14


def test_constant_window_concentrates_at_dc():
    n = 16
    x = Signal(0, np.ones(n))
    X = dtft_on_grid(x, n)
    # full-period constant: n at the omega=0 bin, zero elsewhere
    assert abs(X.values[n // 2] - n) < 1e-12
    off = np.delete(X.values, n // 2)
    assert np.max(np.abs(off)) < 1e-12


def test_direct_sum_oracle():
    # compare against the definition evaluated with an explicit double loop
    rng = np.random.default_rng(42)
    vals = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    x = Signal(-2, vals)
    n = 16
    X = dtft_on_grid(x, n)
    om = grid_omegas(n)
    for j in range(n):
        acc = 0.0 + 0.0j
        for i, t in enumerate(range(-2, 5)):
            acc += vals[i] * np.exp(-1j * om[j] * t)
        assert abs(X.values[j] - acc) < 1e-12


def test_linearity():
    rng = np.random.default_rng(0)
    a = Signal(0, rng.standard_normal(20))
    b = Signal(0, rng.standard_normal(20))
    n = 32
    lhs = dtft_on_grid(Signal(0, 2.0 * a.values - 3.0 * b.values), n).values
    rhs = 2.0 * dtft_on_grid(a, n).values - 3.0 * dtft_on_grid(b, n).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_real_signal_conjugate_symmetry():
    rng = np.random.default_rng(3)
    x = Signal(0, rng.standard_normal(24))
    X = dtft_on_grid(x, 32).values
    n = 32
    mirrored = np.conj(X[(n - np.arange(n)) % n])
    assert np.max(np.abs(X - mirrored)) < 1e-12


def test_round_trip_window():
    rng = np.random.default_rng(9)
    vals = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    x = Signal(-7, vals)
    X = dtft_on_grid(x, 128)
    back = inverse_grid(X, -7, 50)
    assert back.start_index == -7
    assert np.max(np.abs(back.values - vals)) < 1e-12


def test_round_trip_full_period():
    rng = np.random.default_rng(11)
    n = 64
    vals = rng.standard_normal(n)
    X = dtft_on_grid(Signal(0, vals), n)
    back = inverse_grid(X, 0, n)
    assert np.max(np.abs(back.values - vals)) < 1e-12


def test_inverse_is_n_periodic():
    rng = np.random.default_rng(13)
    n = 32
    X = SpectrumGrid(n, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    a = inverse_grid(X, 0, n).values
    b = inverse_grid(X, n, n).values
    assert np.array_equal(a, b)


def test_parseval_full_period_and_padded():
    rng = np.random.default_rng(17)
    n = 64
    for length in (n, 40):
        x = Signal(0, rng.standard_normal(length))
        X = dtft_on_grid(x, n)
        lhs = norm(x, "l2") ** 2
        rhs = lq_grid_norm(X, 2.0) ** 2 / (2.0 * np.pi)
        assert abs(lhs - rhs) < 1e-10 * (1.0 + lhs)


def test_norm_kinds():
    x = Signal(0, np.array([3.0, -4.0]))
    assert norm(x, "l1") == 7.0
    assert norm(x, "l2") == 5.0
    assert norm(x, "linf") == 4.0
    with pytest.raises(ParameterError):
        norm(x, "l3")


def test_lq_grid_norm_inf_and_validation():
    n = 16
    X = SpectrumGrid(n, np.arange(n, dtype=float))
    assert lq_grid_norm(X, math.inf) == 15.0
    with pytest.raises(ParameterError):
        lq_grid_norm(X, 0.5)


def test_lq_grid_norm_constant_spectrum():
    # |X| = c everywhere integrates to (2*pi*c^q)^(1/q)
    n = 32
    X = SpectrumGrid(n, np.full(n, 2.0))
    assert abs(lq_grid_norm(X, 2.0) - math.sqrt(2.0 * math.pi * 4.0)) < 1e-12
    assert abs(lq_grid_norm(X, 1.0) - 2.0 * 2.0 * math.pi) < 1e-12


def test_signal_validation():
    with pytest.raises(ParameterError):
        Signal(0, np.array([]))
    with pytest.raises(ParameterError):
        Signal(0, np.array([1.0, np.nan]))
    with pytest.raises(ParameterError):
        Signal(0, np.ones((2, 2)))


def test_signal_window_accessors():
    x = Signal(-3, np.arange(5.0))
    assert len(x) == 5
    assert x.end_index == 1
    assert np.array_equal(x.times(), np.arange(-3, 2))


def test_window_larger_than_grid_rejected():
    x = Signal(0, np.ones(40))
    with pytest.raises(GridSizeError):
        dtft_on_grid(x, 32)
    X = SpectrumGrid(32, np.ones(32))
    with pytest.raises(GridSizeError):
        inverse_grid(X, 0, 33)
    with pytest.raises(ParameterError):
        inverse_grid(X, 0, 0)


def test_spectrum_l2_matches_grid_norm():
    rng = np.random.default_rng(8)
    for start, size, n in ((0, 1024, 1024), (-7, 300, 512), (13, 1, 8)):
        x = Signal(start, rng.standard_normal(size) + 1j * rng.standard_normal(size))
        grid = lq_grid_norm(dtft_on_grid(x, n), 2.0)
        assert abs(spectrum_l2(x, n) - grid) <= 1e-14 * grid
    with pytest.raises(GridSizeError):
        spectrum_l2(Signal(0, np.ones(33)), 32)
    with pytest.raises(GridSizeError):
        spectrum_l2(Signal(0, np.ones(8)), 12)
