"""Kernel construction.

The target of a prediction is the anticausal convolution by k, the impulse
response of 1/(z+a) (optionally (z+b)/(z+a), which factors as 1 + (b-a)/(z+a)
and is always handled through that factorization).  The causal predictor is
built in the frequency domain as

    Khat(z) = V(z) * K(z),
    V(z)    = 1 - exp(gamma * sign(a+alpha) * (z+a)/(z+alpha)),

where alpha = alpha(a, omega) places the only zero of the exponent's real
part exactly at the band edges +-omega.  For gamma -> -inf, V -> 1 uniformly
on compact subsets strictly inside the band (|omega'| < omega) while Khat
stays causal, which is what makes honest pathwise prediction of band-limited
sequences possible.  The mirrored statement holds for gamma -> +inf outside
the band.

A hard numerical boundary is worth stating up front: |V - 1| on the wrong
side of the band grows like exp(|gamma * psi|), so the time-domain taps of
Khat contain components of that size.  Once |gamma| * max|psi| exceeds about
36 log-units, those components are more than 1/eps_machine times larger than
the prediction target and double-precision convolution output is dominated
by roundoff.  Constructions beyond exp(700) are refused outright (see
EXP_GUARD).  Between exp(36) and exp(700) the taps are representable but a
float64 score is roundoff: its floor is about 2**-53 * ||khat||_1 * ||x||_inf.
analysis.noise_sweep detects that floor and scores such rows in extended
precision (see the extended module); analysis.gamma_sweep still scores in
float64, so its rows in that regime measure roundoff, not prediction.

Transfers are evaluated on the real half-spectrum only.  For real a, b and
alpha, K, V and Khat are Hermitian, so their values on omega_k = 2*pi*k/n,
k = 0 .. n/2, define them, np.fft.irfft gives the real period of Khat, and
k_transfer, v_transfer and predictor_transfer mirror them onto the grid.  A
TransferGrid holds alpha, K and the exponent direction s*(z+a)/(z+alpha) for
one (kernel, omega, n); a sweep builds it once, and each gamma then costs one
irfft and the damping factor by the power rule below.

Power rule.  exp(2*gamma*d) = exp(gamma*d)**2, so with gamma = q * 2**k, k
the largest k >= 0 for which gamma / 2**k is an integer, exp(gamma*d) is
E_q = exp(q*d) squared k times.  k is 0 for an odd, zero or non-integer
gamma, which keeps one direct complex exp.  The grid keeps E_q beside its
last power: the next gamma of the same q squares that power forward when
its k is at least as large, and a copy of E_q otherwise.  So a doubling
ladder in any order costs one exp, and the bits depend on gamma alone,
never on which other gammas share the grid or in what order they came.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CausalityLeakError, GridSizeError, ParameterError, SaturationError
from .spectral import (Signal, SpectrumGrid, _checked_band_edge, _checked_grid_size, mirror_half,
                       unit_circle_half)

# Relative l2 mass tolerated at negative time indices when inverting Khat on
# a finite grid; above this the grid is considered too small for the gamma.
CAUSALITY_TOL = 1e-8

# exp() of anything above this is refused: 700 is just under log(DBL_MAX).
EXP_GUARD = 700.0


def _check_pole(a: float) -> float:
    a = float(a)
    if not math.isfinite(a):
        raise ParameterError(f"pole parameter must be finite, got a={a}")
    if not abs(a) > 1.0:
        raise ParameterError(f"pole parameter must satisfy |a| > 1, got a={a}")
    return a


@dataclass(frozen=True)
class FirstOrderKernel:
    """Parameters of the kernel 1/(z+a), or (z+b)/(z+a) when b is given."""

    a: float
    b: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "a", _check_pole(self.a))
        if self.b is not None:
            b = float(self.b)
            if not math.isfinite(b):
                raise ParameterError(f"zero parameter b must be finite, got b={b}")
            object.__setattr__(self, "b", b)

    @property
    def c(self) -> float:
        """The residue b - a in the factorization (z+b)/(z+a) = 1 + c/(z+a)."""
        if self.b is None:
            raise ParameterError("c is defined only when the zero parameter b is present")
        return self.b - self.a


@dataclass(frozen=True)
class PredictorParams:
    """Predictor configuration: band edge, damping, grid, truncation, mode.

    Low mode (gamma <= 0) targets sequences with spectrum supported in
    |omega'| <= omega; high mode (gamma >= 0) targets the complement band.
    """

    omega: float
    gamma: float
    n: int
    m: int
    mode: str

    def __post_init__(self):
        object.__setattr__(self, "omega", _checked_band_edge(self.omega))
        gamma = float(self.gamma)
        if not math.isfinite(gamma):
            raise ParameterError(f"damping gamma must be finite, got gamma={gamma}")
        object.__setattr__(self, "gamma", gamma)
        if self.mode not in ("low", "high"):
            raise ParameterError(f"mode must be 'low' or 'high', got {self.mode!r}")
        if self.mode == "low" and self.gamma > 0:
            raise ParameterError("low mode requires gamma <= 0")
        if self.mode == "high" and self.gamma < 0:
            raise ParameterError("high mode requires gamma >= 0")
        object.__setattr__(self, "n", _checked_grid_size(self.n))
        m = int(self.m)
        if not 1 <= m <= self.n:
            raise ParameterError(f"truncation length must satisfy 1 <= m <= n, got {m}")
        object.__setattr__(self, "m", m)


def alpha(a: float, omega: float) -> float:
    """Mirror pole location -(1 + a*cos(omega)) / (a + cos(omega)).

    Lies strictly inside (-1, 1) for any |a| > 1 and is the root of
    1 + alpha*a + (a + alpha)*cos(omega) = 0, which pins the zero of the
    damping exponent's real part to the band edge.
    """
    a = _check_pole(a)
    omega = _checked_band_edge(omega)
    den = a + math.cos(omega)
    if abs(den) < 1e-12:
        raise ParameterError("degenerate denominator a + cos(omega)")
    val = -(1.0 + a * math.cos(omega)) / den
    if not (-1.0 < val < 1.0):
        raise ParameterError(
            f"mirror parameter {val} escaped (-1, 1); a={a} is too close to +-1 for omega={omega}"
        )
    return val


def k_transfer(kernel: FirstOrderKernel, n: int) -> SpectrumGrid:
    """Target transfer K on the grid; the two-parameter form uses 1 + c/(z+a)."""
    z = unit_circle_half(n)
    base = 1.0 / (z + kernel.a)
    half = base if kernel.b is None else 1.0 + kernel.c * base
    return SpectrumGrid(n, mirror_half(half))


def anticausal_kernel(kernel: FirstOrderKernel, t_min: int) -> Signal:
    """Closed-form impulse response of 1/(z+a) on t_min <= t <= 0.

    k(t) = (-1)^t * a^(t-1) for t <= 0 and k(t) = 0 for t > 0; evaluated as
    (1/a) * (-1/a)^(-t) so magnitudes only ever shrink.  Validated against
    grid inversion of the transfer in the test suite.
    """
    if kernel.b is not None:
        raise ParameterError(
            "closed form applies to the plain-pole kernel; "
            "use the 1 + c/(z+a) factorization for the two-parameter form"
        )
    t_min = int(t_min)
    if t_min > 0:
        raise ParameterError(f"t_min must be <= 0, got {t_min}")
    u = np.arange(-t_min, -1, -1)  # u = -t, descending so times ascend
    vals = (1.0 / kernel.a) * (-1.0 / kernel.a) ** u
    return Signal(t_min, vals)


def _direction(a: float, alpha_: float, n: int) -> np.ndarray:
    """Exponent direction s*(z+a)/(z+alpha), s = sign(a+alpha), on half_omegas(n)."""
    z = unit_circle_half(n)
    s = 1.0 if a + alpha_ > 0 else -1.0
    return s * (z + a) / (z + alpha_)


def _power_split(gamma: float) -> tuple[float, int]:
    """(q, k) with gamma = q * 2**k, k the largest k >= 0 for which gamma / 2**k is an integer.

    k is 0 for an odd or non-integer gamma and for gamma = +-0.
    """
    q, k = gamma, 0
    while q != 0.0 and q % 2.0 == 0.0:
        q, k = q / 2.0, k + 1
    return q, k


def _check_exponent(direction: np.ndarray, gamma: float) -> None:
    """Refuse gamma when gamma * Re(direction) passes EXP_GUARD on some bin."""
    expo = direction.real * gamma
    # expo is even, and reversed these are the grid's bins 0 .. n/2: j is its first maximum
    j = int(np.argmax(expo[::-1]))
    worst = expo[-1 - j]
    if worst > EXP_GUARD:
        raise SaturationError(
            f"damping exponent real part {worst:.1f} exceeds {EXP_GUARD:.0f} at omega="
            f"{2.0 * np.pi * (j + 1 - direction.size) / (2 * direction.size - 2):.6f} (bin {j}); "
            f"kernel magnitudes would overflow double precision"
        )


class _Power:
    """exp(gamma * direction) by the power rule (module docstring), keeping E_q and the last E.

    The guard runs before any exp.  On each bin the moduli of the squares run
    monotonically from |E_q| to the final |E| <= e**700, so none overflows.
    """

    def __init__(self, direction: np.ndarray):
        self.direction = direction
        self.base = np.empty_like(direction)
        self.values = np.empty_like(direction)
        self.q, self.k = None, 0

    def exp(self, gamma: float) -> np.ndarray:
        """exp(gamma * direction); the array is overwritten by the next call."""
        _check_exponent(self.direction, gamma)
        q, k = _power_split(gamma)
        e = self.values
        if q != self.q or k < self.k:
            if q != self.q:
                np.exp(np.multiply(self.direction, q, out=self.base), out=self.base)
                self.q = q
            np.copyto(e, self.base)
            self.k = 0
        for _ in range(k - self.k):
            np.multiply(e, e, out=e)
        self.k = k
        return e


def v_transfer(a: float, alpha_: float, gamma: float, n: int) -> SpectrumGrid:
    """Damping factor V = 1 - exp(gamma * sign(a+alpha) * (z+a)/(z+alpha)) bin-wise."""
    if not abs(alpha_) < 1.0:
        raise ParameterError(f"|alpha| must be < 1, got {alpha_}")
    e = _Power(_direction(float(a), alpha_, n)).exp(gamma)
    return SpectrumGrid(n, mirror_half(np.subtract(1.0, e, out=e)))


def psi(a: float, alpha_: float, omega):
    """Signed real part of the damping exponent direction, per unit gamma.

    psi(w) = sign(a+alpha) * (1 + a*alpha + (a+alpha)*cos w) / |e^{iw}+alpha|^2.

    Strictly positive inside the band whose edge defined alpha, zero at the
    edge, strictly negative outside.  Accepts a scalar or an array of angles.
    """
    a = float(a)
    if not abs(alpha_) < 1.0:
        raise ParameterError(f"|alpha| must be < 1, got {alpha_}")
    w = np.asarray(omega, dtype=float)
    s = 1.0 if a + alpha_ > 0 else -1.0
    c = np.cos(w)
    num = 1.0 + a * alpha_ + (a + alpha_) * c
    den = 1.0 + alpha_ * alpha_ + 2.0 * alpha_ * c
    out = s * num / den
    return float(out) if w.ndim == 0 else out


def predictor_transfer(kernel: FirstOrderKernel, params: PredictorParams) -> SpectrumGrid:
    """Causal predictor transfer Khat = V * K on the grid; one V for either kernel form."""
    grid = TransferGrid(kernel, params.omega, params.n)
    return SpectrumGrid(params.n, mirror_half(grid.damping(params.gamma) * grid.k))


class TransferGrid:
    """The gamma-independent arrays of Khat on the real half-spectrum.

    For one (kernel, omega, n): alpha, and K and the exponent direction
    s*(z+a)/(z+alpha) on the bins omega_k = 2*pi*k/n, k = 0 .. n/2
    (spectral.half_omegas).  K is read back from one k_transfer call: its
    grid bins n/2 .. n-1, then the conjugate of its bin at -pi.  The grid
    keeps E_q and its last power, so damping(gamma) and the invert(gamma)
    that follows share one exp, as do the gammas of a doubling ladder in any
    order.  They are its only state between calls: damping and invert return
    fresh arrays, and the CLI's heap policy (see `cli`) keeps freed ones resident.
    """

    def __init__(self, kernel: FirstOrderKernel, omega: float, n: int):
        self.kernel = kernel
        self.omega = _checked_band_edge(omega)
        self.n = int(n)
        k = k_transfer(kernel, self.n).values
        self.k = np.concatenate([k[self.n // 2:], np.conj(k[:1])])
        self.alpha = alpha(kernel.a, self.omega)
        self.direction = _direction(kernel.a, self.alpha, self.n)
        self._power = _Power(self.direction)

    def damping(self, gamma: float) -> np.ndarray:
        """V at gamma on the half-spectrum bins; refused past EXP_GUARD."""
        return 1.0 - self._power.exp(gamma)

    def invert(self, gamma: float):
        """Real period khat(0) .. khat(n-1) of Khat at gamma, and its leak ratio.

        Entries n/2 .. n-1 of the period stand for t - n < 0; the leak ratio
        is their l2 mass relative to the whole period.
        """
        period = np.fft.irfft(self.damping(gamma) * self.k, self.n)
        peak = max(float(period.max()), -float(period.min()))
        if peak == 0.0:  # gamma = 0 gives the zero kernel
            return period, 0.0
        # an exact power-of-two scale keeps the squares below overflow
        sq = np.ldexp(period, -math.frexp(peak)[1])
        sq *= sq
        neg = float(np.sum(sq[self.n // 2 :]))
        return period, math.sqrt(neg / (float(np.sum(sq[: self.n // 2])) + neg))


def causality_leak_ratio(kernel: FirstOrderKernel, params: PredictorParams) -> float:
    """Relative l2 mass the grid inversion of Khat leaks onto t < 0."""
    return TransferGrid(kernel, params.omega, params.n).invert(params.gamma)[1]


def causal_kernel(kernel: FirstOrderKernel, params: PredictorParams,
                  grid: TransferGrid | None = None) -> Signal:
    """Time-domain predictor taps khat(0) .. khat(M-1).

    The exact transfer is causal; a finite grid aliases a small amount of
    mass onto negative indices.  That mass is measured relative to the whole
    kernel and must stay below CAUSALITY_TOL, otherwise the grid is too small
    for the requested gamma and the construction is refused.  grid, when
    given, must be TransferGrid(kernel, params.omega, params.n), built once
    for several gammas.
    """
    if params.m > params.n // 2:
        raise GridSizeError(
            f"truncation length {params.m} exceeds the causal half of the grid ({params.n // 2})"
        )
    if grid is None:
        grid = TransferGrid(kernel, params.omega, params.n)
    elif (grid.kernel, grid.omega, grid.n) != (kernel, params.omega, params.n):
        raise ParameterError(f"transfer grid was built for {grid.kernel}, omega={grid.omega}, "
                             f"n={grid.n}, not {kernel}, omega={params.omega}, n={params.n}")
    period, leak = grid.invert(params.gamma)
    if not leak <= CAUSALITY_TOL:  # a period that overflowed gives nan
        raise CausalityLeakError(
            f"negative-index leak ratio {leak:.3e} exceeds {CAUSALITY_TOL:.0e}; "
            f"grid n={params.n} is too small for gamma={params.gamma}"
        )
    return Signal(0, period[: params.m])


def tap_l1_tail(kernel: FirstOrderKernel, params: PredictorParams) -> float:
    """l1 mass of the causal taps discarded beyond M, for truncation reporting."""
    period, _ = TransferGrid(kernel, params.omega, params.n).invert(params.gamma)
    return float(np.sum(np.abs(period[params.m : params.n // 2])))
