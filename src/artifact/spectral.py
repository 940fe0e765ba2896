"""Time/frequency conversion on a uniform unit-circle grid, plus the norms
used by the prediction error criteria.

Grid convention used everywhere in this package: n equally spaced angles

    omega_j = 2*pi*(j - n/2)/n,   j = 0 .. n-1,

ascending, so the bin at -pi exists and the bin at +pi does not (half-open
interval).  Band membership tests and the rectangle quadrature rule both rely
on this layout.  omega_{n-j} = -omega_j exactly, so mirror_half gives the grid
values of a Hermitian F(-w) = conj(F(w)) from its values on half_omegas(n).
All floating-point work is double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridSizeError, ParameterError


def _as_complex_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError("signal values must be a non-empty 1-D sequence")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise ParameterError("signal values must be finite")
    return arr


def _checked_grid_size(n) -> int:
    n = int(n)
    if n < 8 or (n & (n - 1)) != 0:
        raise GridSizeError(f"grid size must be a power of two >= 8, got {n}")
    return n


def _checked_band_edge(omega) -> float:
    omega = float(omega)
    if not (0.0 < omega < math.pi):
        raise ParameterError(f"band edge must lie strictly inside (0, pi), got {omega}")
    return omega


@dataclass(frozen=True)
class Signal:
    """A finite contiguous window of a complex sequence.

    ``values[i]`` is the sample at time ``start_index + i``.  Values are
    stored as complex128; real-valued signals simply carry zero imaginary
    parts.
    """

    start_index: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "start_index", int(self.start_index))
        object.__setattr__(self, "values", _as_complex_vector(self.values))

    def __len__(self) -> int:
        return self.values.size

    @property
    def end_index(self) -> int:
        """Time of the last sample (inclusive)."""
        return self.start_index + self.values.size - 1

    def times(self) -> np.ndarray:
        return np.arange(self.start_index, self.start_index + self.values.size)


@dataclass(frozen=True)
class SpectrumGrid:
    """n uniform unit-circle samples X(e^{i*omega_j}), omega ascending on [-pi, pi)."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _checked_grid_size(self.n))
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.n,):
            raise ParameterError(f"expected {self.n} grid values, got shape {vals.shape}")
        object.__setattr__(self, "values", vals)


def grid_omegas(n: int) -> np.ndarray:
    """Ascending grid angles 2*pi*(j - n/2)/n for j = 0 .. n-1, from -pi."""
    n = _checked_grid_size(n)
    return 2.0 * np.pi * (np.arange(n) - n // 2) / n


def half_omegas(n: int) -> np.ndarray:
    """The angles 2*pi*k/n, k = 0 .. n/2: grid bins n/2 .. n-1, then +pi."""
    return 2.0 * np.pi * np.arange(_checked_grid_size(n) // 2 + 1) / n


@lru_cache(maxsize=4)
def unit_circle_half(n: int) -> np.ndarray:
    """exp(1j * half_omegas(n)), computed once per n and returned read-only.

    The values live in an anonymous memory map, not in the C heap.  The
    cache is filled in the middle of a process's first job, and a heap block
    kept from there took space that the job's transient arrays had used: at
    n = 65536 the second job then faulted in a fresh MiB for its FFT scratch
    or not, depending only on how much heap the imports had taken.
    """
    import mmap  # on first use, so importing the package loads nothing more

    w = half_omegas(n)
    try:
        z = np.frombuffer(mmap.mmap(-1, 2 * w.nbytes), np.complex128)
    except OSError as exc:  # no room for the map: the error numpy gives for an array
        raise MemoryError(f"Unable to map {2 * w.nbytes} bytes for the unit circle") from exc
    np.exp(1j * w, out=z)
    z.flags.writeable = False
    return z


def mirror_half(half: np.ndarray) -> np.ndarray:
    """Grid values of a Hermitian function from its values on half_omegas(n)."""
    return np.concatenate([np.conj(half[-1:0:-1]), half[:-1]])


def dtft_on_grid(x: Signal, n: int) -> SpectrumGrid:
    """Evaluate X(e^{i*omega_j}) = sum_t x(t) e^{-i*omega_j*t} over the window.

    The window's true time indices enter through a phase factor, so a shifted
    impulse produces the expected e^{-i*omega*t0} response.  Exact up to
    roundoff for any window that fits the grid.
    """
    n = _checked_grid_size(n)
    if len(x) > n:
        raise GridSizeError(f"grid size {n} is smaller than the {len(x)}-sample window")
    base = np.fft.fftshift(np.fft.fft(x.values, n))
    if x.start_index != 0:
        base = base * np.exp(-1j * grid_omegas(n) * x.start_index)
    return SpectrumGrid(n, base)


def inverse_grid(X: SpectrumGrid, start: int, length: int) -> Signal:
    """Synthesize x(t) = (1/n) sum_j X_j e^{i*omega_j*t} for t in the window.

    ``start`` may be negative; the synthesized sequence is n-periodic, and the
    window reads the period at t mod n.  Composing with ``dtft_on_grid``
    recovers any window that fits the grid to roundoff.
    """
    if length < 1:
        raise ParameterError(f"window length must be >= 1, got {length}")
    if length > X.n:
        raise GridSizeError(f"window length {length} exceeds grid size {X.n}")
    period = np.fft.ifft(np.fft.ifftshift(X.values))
    idx = np.mod(np.arange(start, start + length), X.n)
    return Signal(start, period[idx])


def norm(x: Signal, kind: str) -> float:
    """Window norm: kind is one of 'l1', 'l2', 'linf'."""
    if kind == "l1":
        return float(np.sum(np.abs(x.values)))
    if kind == "l2":
        return float(np.linalg.norm(x.values))
    if kind == "linf":
        return float(np.max(np.abs(x.values)))
    raise ParameterError(f"unknown norm kind {kind!r}")


def spectrum_l2(x: Signal, n: int) -> float:
    """lq_grid_norm(dtft_on_grid(x, n), 2) without the transform.

    By Parseval, sum_j |X_j|^2 = n * sum_t |x(t)|^2 for a window that fits
    the grid, so the rectangle-rule L2 norm is sqrt(2*pi * sum_t |x(t)|^2).
    """
    n = _checked_grid_size(n)
    if len(x) > n:
        raise GridSizeError(f"grid size {n} is smaller than the {len(x)}-sample window")
    v = x.values
    return math.sqrt(2.0 * math.pi * float(np.sum(v.real * v.real + v.imag * v.imag)))


def lq_grid_norm(X: SpectrumGrid, q) -> float:
    """Rectangle-rule L_q norm of X over [-pi, pi); q = math.inf gives the grid max.

    The rule is exact for trigonometric polynomials of degree below n, which
    covers every spectrum this package constructs.
    """
    if q == math.inf:
        return float(np.max(np.abs(X.values)))
    q = float(q)
    if q < 1.0:
        raise ParameterError(f"q must be >= 1 or inf, got {q}")
    step = 2.0 * np.pi / X.n
    return float((np.sum(np.abs(X.values) ** q) * step) ** (1.0 / q))
