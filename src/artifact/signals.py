"""Test-process generation and band splitting.

Band-limited and high-frequency draws place independent complex Gaussian
values on the allowed grid bins and exact zeros elsewhere; the noisy-spectrum
model bounds bin magnitudes by 1 inside the band and by nu outside.  All
constructions are conjugate-symmetric so the synthesized time signals are
real, and all are deterministic functions of (spec, grid size).

The draws are built straight in numpy's FFT order (bin j at angle 2*pi*j/n,
wrapped to [-pi, pi)) and go to np.fft.ifft as they are.  Both orders pair
bin j with bin (n - j) % n, so symmetrizing is a sum of reversed slices, and
the bins outside a band are slices set by how many of the half angles
2*pi*k/n, k = 0 .. n/2, lie below its edge.  band_spectrum and noisy_spectrum
return the grid's ascending order through np.fft.fftshift, which moves
values and changes no bit.

PRNG discipline: one numpy default_rng(seed) per spec, consumed in a fixed
vectorized order (full-grid arrays, never loops), so the same spec always
reproduces the same draws regardless of platform word size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBandError, GridSizeError, ParameterError
from .spectral import (Signal, SpectrumGrid, _checked_band_edge, dtft_on_grid, grid_omegas,
                       half_omegas, inverse_grid)

NORMALIZATIONS = ("unit_l2", "unit_spectrum_linf")


def _checked_seed(seed) -> int:
    seed = int(seed)
    if seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")
    return seed


@dataclass(frozen=True)
class BandSignalSpec:
    """Recipe for one in-class test signal."""

    omega: float
    mode: str
    length: int
    seed: int
    normalization: str = "unit_l2"

    def __post_init__(self):
        object.__setattr__(self, "omega", _checked_band_edge(self.omega))
        if self.mode not in ("low", "high"):
            raise ParameterError(f"mode must be 'low' or 'high', got {self.mode!r}")
        if int(self.length) < 1:
            raise ParameterError(f"length must be >= 1, got {self.length}")
        object.__setattr__(self, "length", int(self.length))
        object.__setattr__(self, "seed", _checked_seed(self.seed))
        if self.normalization not in NORMALIZATIONS:
            raise ParameterError(f"normalization must be one of {NORMALIZATIONS}")


@dataclass(frozen=True)
class NoisySpectrumSpec:
    """Recipe for a bounded-magnitude spectrum with out-of-band level nu."""

    omega: float
    nu: float
    seed: int
    length: int

    def __post_init__(self):
        object.__setattr__(self, "omega", _checked_band_edge(self.omega))
        nu = float(self.nu)
        if not (0.0 <= nu < 1.0):
            raise ParameterError(f"out-of-band level must lie in [0, 1), got {nu}")
        object.__setattr__(self, "nu", nu)
        if int(self.length) < 1:
            raise ParameterError(f"length must be >= 1, got {self.length}")
        object.__setattr__(self, "length", int(self.length))
        object.__setattr__(self, "seed", _checked_seed(self.seed))


def _hermitize(vals: np.ndarray) -> np.ndarray:
    """0.5 * (v(w) + conj(v(-w))) for values v in grid order, laid out in FFT order.

    Grid bin c is FFT bin (c + n/2) % n, and both orders pair bin j with
    (n - j) % n, i.e. omega with -omega; the self-paired bins (omega = 0 and
    omega = -pi) come out exactly real.
    """
    h = vals.size // 2
    sym = np.empty_like(vals)
    # FFT bins 0 .. h-1 are grid bins h .. n-1, whose mirrors are h .. 1;
    # FFT bins h .. n-1 are grid bins 0 .. h-1, whose mirrors are 0, n-1 .. h+1
    np.conjugate(vals[h:0:-1], out=sym[:h])
    np.conjugate(vals[:1], out=sym[h:h + 1])
    np.conjugate(vals[:h:-1], out=sym[h + 1:])
    sym[:h] += vals[h:]
    sym[h:] += vals[:h]
    sym *= 0.5
    return sym


def _half_bins(n: int, omega: float, side: str) -> int:
    """How many half angles 2*pi*k/n, k = 0 .. n/2, lie below omega ("left") or at or below it.

    FFT bins k and n - k both sit at |omega_j| = 2*pi*k/n, so this count
    places a band's edges in the FFT-order array.
    """
    return int(np.searchsorted(half_omegas(n), omega, side=side))


def low_band_mask(n: int, omega: float) -> np.ndarray:
    """Indicator of the closed low band |omega_j| <= omega.

    Bins exactly at +-omega (they do occur: omega = pi/2 lands on the grid for
    every power-of-two n) belong to the low band.
    """
    return np.abs(grid_omegas(n)) <= omega


def _band_spectrum_draw(spec: BandSignalSpec, n: int) -> np.ndarray:
    """The unscaled band draw in FFT order."""
    if spec.mode == "low":
        # keep |omega_j| <= omega: FFT bins j < lo and j > n - lo
        lo = _half_bins(n, spec.omega, "right")
        oscillatory, cut = lo - 1, [slice(lo, n - lo + 1)]
    else:
        # keep |omega_j| >= omega: FFT bins hi <= j <= n - hi
        hi = _half_bins(n, spec.omega, "left")
        oscillatory, cut = n // 2 + 1 - hi, [slice(0, hi), slice(n - hi + 1, n)]
    if oscillatory < 1:
        raise DegenerateBandError(
            f"the {spec.mode} band at omega={spec.omega} holds no oscillatory bin on an n={n} grid"
        )
    rng = np.random.default_rng(spec.seed)
    sym = _hermitize(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    for part in cut:
        sym[part] = 0.0
    return sym


def _build_band(spec: BandSignalSpec, n: int):
    """The draw in FFT order, the real window it synthesizes, and their common scale."""
    if spec.length > n:
        raise GridSizeError(f"signal length {spec.length} exceeds grid size {n}")
    raw = _band_spectrum_draw(spec, n)
    window = np.fft.ifft(raw)[: spec.length]
    if spec.normalization == "unit_l2":
        scale = float(np.linalg.norm(window))
    else:
        scale = float(np.max(np.abs(raw)))
    if scale == 0.0:
        scale = 1.0
    # the construction is conjugate-symmetric, so the window is real up to
    # roundoff; drop the dust
    return raw, np.real(window), scale


def band_spectrum(spec: BandSignalSpec, n: int) -> SpectrumGrid:
    """The constructed spectrum: exact zeros outside the allowed band."""
    raw, _, scale = _build_band(spec, n)
    return SpectrumGrid(n, np.fft.fftshift(raw) / scale)


def gen_band_signal(spec: BandSignalSpec, n: int) -> Signal:
    """Real time-domain window [0, length) synthesized from band_spectrum."""
    _, window, scale = _build_band(spec, n)
    return Signal(0, window / scale)


def _noisy_spectrum_draw(spec: NoisySpectrumSpec, n: int) -> np.ndarray:
    """The noisy spectrum in FFT order."""
    lo = _half_bins(n, spec.omega, "right")
    rng = np.random.default_rng(spec.seed)
    mags = rng.uniform(0.0, 1.0, n)
    phases = rng.uniform(0.0, 2.0 * np.pi, n)
    # grid order: bins n/2 - lo < j < n/2 + lo hold |omega_j| <= omega
    env = np.full(n, spec.nu)
    env[n // 2 - lo + 1:n // 2 + lo] = 1.0
    # the envelope depends on |omega| only, so symmetrizing cannot raise any
    # magnitude above it
    return _hermitize(env * mags * np.exp(1j * phases))


def noisy_spectrum(spec: NoisySpectrumSpec, n: int) -> SpectrumGrid:
    """Spectrum with |X| <= 1 on the closed band and |X| <= nu outside."""
    return SpectrumGrid(n, np.fft.fftshift(_noisy_spectrum_draw(spec, n)))


def gen_noisy_spectrum(spec: NoisySpectrumSpec, n: int) -> Signal:
    """Real time-domain window [0, length) synthesized from noisy_spectrum."""
    if spec.length > n:
        raise GridSizeError(f"signal length {spec.length} exceeds grid size {n}")
    window = np.fft.ifft(_noisy_spectrum_draw(spec, n))[: spec.length]
    return Signal(0, np.real(window))


def ideal_filter_split(x: Signal, omega: float, n: int):
    """Split x into (low, high) parts by the closed low-band indicator.

    Bin-wise multiplication by the indicator and its complement, then inverse
    transform over x's own window.  The two indicators add to one bin-exactly,
    so low + high reproduces x to roundoff.  Ties at |omega_j| = omega go to
    the low part.  The transform spans the whole window, so every sample of
    each part depends on every sample of x, later ones included: the split
    is not causal.
    """
    omega = _checked_band_edge(omega)
    spectrum = dtft_on_grid(x, n)
    keep = low_band_mask(n, omega)
    low_vals = np.where(keep, spectrum.values, 0.0)
    high_vals = np.where(keep, 0.0, spectrum.values)
    low = inverse_grid(SpectrumGrid(n, low_vals), x.start_index, len(x))
    high = inverse_grid(SpectrumGrid(n, high_vals), x.start_index, len(x))
    return low, high
