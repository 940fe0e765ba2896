"""Extended-precision scoring of the causal forecast.

Deep damping gives the predictor taps far larger than the prediction target:
at gamma(eps) = -97.9 (a = 2, omega = pi/2, eps = 0.1) they reach 1.4e27.
A float64 forecast then carries a roundoff floor of about
u * ||khat||_1 * ||x||_inf (u = 2**-53), which can exceed the true error by
fourteen orders of magnitude.  This module evaluates the same forecast for a
spectrally defined signal with that floor pushed below any chosen level.

The precision is counted in float64 words: w words stand for 53*w
significant bits, so the floor becomes u**w * ||khat||_1 * ||x||_inf, and
`words_needed` picks w from that estimate.  The arithmetic is fixed point on
Python integers with 53*w + GUARD_BITS fractional bits:

    synthesis   x(t) = (1/n) sum_j X_j e^{i omega_j t} from the float64
                spectrum draw, by a radix-2 transform;
    transfer    Khat = (1 - exp(E)) / (z + a), E = gamma*s*(z+a)/(z+alpha),
                with exp by argument reduction, Taylor series and squaring;
    inversion   the taps khat(0) .. khat(M-1) by the same transform;
    direct sum  the causal sum over the last M samples, exact.

The direct sum cuts each fixed-point operand into signed b-bit limbs at fixed
bit positions (integer-valued float64 arrays).  The tap limbs are stacked as
the rows of one real stack and sent through the float64 engine's
`real_rows`, once per signal limb.  Every product and partial sum of limbs
is an integer below M * (2**b - 1)**2 < 2**53 in magnitude, so each is
exact in any summation order (Ozaki, Ogita, Oishi, Rump, Numer. Algorithms
59, 2012), and the engine's blocked product gives the same integers as a
convolution per limb pair.  The limb levels are summed exactly in Python
integers and the sum is rounded once.  Each output therefore depends only on
the samples it reads, bit for bit.

pi and log 2 are summed from arctangent series on Python integers.
"""

from __future__ import annotations

import math

import numpy as np

from ._engine import check_window, real_rows
from .errors import ParameterError
from .kernels import PredictorParams, alpha

WORD_BITS = 53

# Fractional bits beyond the 53*w of w words.  They absorb the error growth of
# the transforms (log2 n roundings), of exp (a relative error |E| times the
# absolute error of E) and the scale of signals well below one.
GUARD_BITS = 64

# exp(w) is summed as a Taylor series of w / 2**SQUARINGS and squared back.
SQUARINGS = 16


def words_needed(scale: float, allowed: float) -> int:
    """Fewest float64 words w with (2**-53)**w * scale <= allowed.

    scale is ||khat||_1 * ||x||_inf, so w = 1 means plain float64 suffices.
    """
    if not allowed > 0.0:
        raise ParameterError(f"allowed floor must be positive, got {allowed}")
    if scale <= allowed:
        return 1
    return max(1, math.ceil(math.log2(scale / allowed) / WORD_BITS))


def _fixed(values, frac: int) -> np.ndarray:
    """float64 values -> Python integers floor(v * 2**frac), exact for |v| >= 2**(52-frac)."""
    out = []
    for v in np.asarray(values, dtype=np.float64).tolist():
        num, den = v.as_integer_ratio()
        out.append((num << frac) // den)
    return np.array(out, dtype=object)


def _round_shift(v, bits: int):
    return (v + (1 << (bits - 1))) >> bits


def _cmul(ar, ai, br, bi, frac: int):
    return (_round_shift(ar * br - ai * bi, frac), _round_shift(ar * bi + ai * br, frac))


def _arctan_series(x: int, bits: int, alternate: bool) -> int:
    """atan(1/x) (alternate) or atanh(1/x) times 2**bits, each term truncated."""
    power = (1 << bits) // x
    total, k = power, 1
    while power:
        power //= x * x
        term = power // (2 * k + 1)
        total += -term if alternate and k % 2 else term
        k += 1
    return total


def _constants(frac: int):
    """pi and log 2 as integers times 2**frac, rounded to nearest.

    pi = 16 atan(1/5) - 4 atan(1/239) (Machin) and log 2 = 2 atanh(1/3),
    summed with 32 guard bits that absorb the truncation of every term.
    """
    bits = frac + 32
    pi = 16 * _arctan_series(5, bits, True) - 4 * _arctan_series(239, bits, True)
    ln2 = 2 * _arctan_series(3, bits, False)
    return _round_shift(pi, 32), _round_shift(ln2, 32)


def _cexp(re, im, frac: int, consts):
    """exp(re + i*im), elementwise, all operands fixed point with frac bits."""
    pi, ln2 = consts
    half_pi = pi >> 1
    k = (re + (ln2 >> 1)) // ln2
    q = (im + (half_pi >> 1)) // half_pi
    # |r| <= log(2)/2 and |s| <= pi/4 up to one unit; read with g fractional
    # bits, the same integers are (r + i*s) / 2**SQUARINGS
    r = re - k * ln2
    s = im - q * half_pi
    g = frac + SQUARINGS
    term_r = np.full(re.shape, 1 << g, dtype=object)
    term_i = np.zeros(re.shape, dtype=object)
    sum_r, sum_i = term_r.copy(), term_i.copy()
    j = 1
    while np.any(term_r != 0) or np.any(term_i != 0):
        term_r, term_i = _cmul(term_r, term_i, r, s, g)
        term_r = (term_r + j // 2) // j
        term_i = (term_i + j // 2) // j
        sum_r += term_r
        sum_i += term_i
        j += 1
    for _ in range(SQUARINGS):
        sum_r, sum_i = _cmul(sum_r, sum_i, sum_r, sum_i, g)
    sum_r = _round_shift(sum_r, SQUARINGS)
    sum_i = _round_shift(sum_i, SQUARINGS)
    # times i**q, then times 2**k
    q4 = q % 4
    rot_r = np.select([q4 == 0, q4 == 1, q4 == 2], [sum_r, -sum_i, -sum_r], sum_i)
    rot_i = np.select([q4 == 0, q4 == 1, q4 == 2], [sum_i, sum_r, -sum_i], -sum_r)
    return _times_pow2(rot_r, k), _times_pow2(rot_i, k)


def _times_pow2(v, exps):
    return np.array([x << e if e >= 0 else x >> -e for x, e in zip(v.tolist(), exps.tolist())],
                    dtype=object)


def _unit_roots(n: int, frac: int, consts):
    """e^{2 pi i k/n} for k = 0 .. n-1."""
    pi = consts[0]
    half = np.arange(n // 2, dtype=object)
    wr, wi = _cexp(np.zeros(n // 2, dtype=object), (2 * pi * half) // n, frac, consts)
    return np.concatenate([wr, -wr]), np.concatenate([wi, -wi])


def _synthesize(re, im, roots, frac: int):
    """(1/n) sum_j X_j e^{i omega_j t} for t = 0 .. n-1, omega_j = -pi + 2 pi j/n.

    e^{i omega_j t} = (-1)^t e^{2 pi i j t/n}: a radix-2 inverse transform in
    natural bin order, then the alternating sign and the exact 1/n shift.
    """
    n = re.size
    log_n = n.bit_length() - 1
    rev = np.zeros(n, dtype=np.int64)
    for bit in range(log_n):
        rev |= ((np.arange(n) >> bit) & 1) << (log_n - 1 - bit)
    re, im = re[rev], im[rev]
    wr_all, wi_all = roots
    size = 2
    while size <= n:
        half = size // 2
        wr = wr_all[: n // 2 : n // size]
        wi = wi_all[: n // 2 : n // size]
        re = re.reshape(-1, size)
        im = im.reshape(-1, size)
        tr, ti = _cmul(re[:, half:], im[:, half:], wr, wi, frac)
        re = np.concatenate([re[:, :half] + tr, re[:, :half] - tr], axis=1).ravel()
        im = np.concatenate([im[:, :half] + ti, im[:, :half] - ti], axis=1).ravel()
        size *= 2
    sign = np.where(np.arange(n) % 2 == 0, 1, -1).astype(object)
    return _round_shift(re * sign, log_n), _round_shift(im * sign, log_n)


def _predictor_transfer(a: float, params: PredictorParams, roots, frac: int, consts):
    """Khat = (1 - exp(gamma*s*(z+a)/(z+alpha))) / (z+a) on the grid, z = e^{i omega_j}."""
    al = alpha(a, params.omega)
    sign = 1.0 if a + al > 0 else -1.0
    fa, fal, fg = _fixed([a, al, sign * params.gamma], frac)
    zr, zi = -roots[0], -roots[1]
    # (z+a)/(z+alpha) = ((zr+a)(zr+alpha) + zi^2 + i*zi*(alpha-a)) / |z+alpha|^2
    den = (zr + fal) * (zr + fal) + zi * zi
    ratio_r = (((zr + fa) * (zr + fal) + zi * zi) << frac) // den
    ratio_i = ((zi * (fal - fa)) << frac) // den
    er, ei = _cexp(_round_shift(fg * ratio_r, frac), _round_shift(fg * ratio_i, frac),
                   frac, consts)
    # 1/(z+a) = conj(z+a) / |z+a|^2
    mod2 = (zr + fa) * (zr + fa) + zi * zi
    kr = ((zr + fa) << (2 * frac)) // mod2
    ki = ((-zi) << (2 * frac)) // mod2
    return _cmul((1 << frac) - er, -ei, kr, ki, frac)


def _limbs(v: np.ndarray, bits: int) -> list:
    """Signed bits-wide limbs of integers, least significant first, as float64 arrays."""
    mag = np.abs(v)
    neg = v < 0
    top = max(int(x).bit_length() for x in mag.tolist()) if mag.size else 0
    mask = (1 << bits) - 1
    out = []
    for k in range(max(1, -(-top // bits))):
        limb = ((mag >> (bits * k)) & mask).astype(np.float64)
        out.append(np.where(neg, -limb, limb))
    return out


def exact_causal_sum(taps, x, start: int, count: int, frac: int) -> np.ndarray:
    """out[i] = sum_u taps[u] * x[start + i - u], exact, rounded once to float64.

    taps and x hold Python integers standing for value * 2**frac.  The
    window rules of the float64 engine apply.  Limbs sit at fixed bit
    positions, so each output is a function of the samples it reads only.
    """
    taps = np.asarray(taps, dtype=object)
    x = np.asarray(x, dtype=object)
    m = len(taps)
    lo, hi = check_window(m, len(x), start, count, +1)
    seg = x[lo : hi + 1]
    # m * (2**bits - 1)**2 < 2**53 keeps every limb sum exact in any order
    bits = (WORD_BITS - max(1, (m - 1).bit_length())) // 2
    tap_rows = np.stack(_limbs(taps, bits))
    seg_limbs = _limbs(seg, bits)
    levels = np.zeros((len(tap_rows) + len(seg_limbs) - 1, count), dtype=np.int64)
    for j, sl in enumerate(seg_limbs):
        # tap limb i times signal limb j lands on level i + j
        levels[j : j + len(tap_rows)] += real_rows(sl, tap_rows, count).astype(np.int64)
    total = np.zeros(count, dtype=object)
    for s in range(levels.shape[0]):
        total += levels[s].astype(object) << (bits * s)
    return (total / (1 << (2 * frac))).astype(np.float64)


def forecast_from_spectrum(spectrum, a: float, params: PredictorParams, length: int,
                           start: int, count: int, words: int):
    """Synthesize x on [0, length) and forecast it at start .. start+count-1.

    spectrum holds the n grid values X_j (omega ascending from -pi) that
    define x; the predictor is the plain-pole one for 1/(z+a).  Returns x
    and the forecast, each rounded once to float64.  Both the signal and the
    taps are real in exact arithmetic; their imaginary parts are dropped.
    """
    if words < 1:
        raise ParameterError(f"words must be >= 1, got {words}")
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    n = params.n
    if spectrum.shape != (n,):
        raise ParameterError(f"expected {n} spectrum values, got shape {spectrum.shape}")
    if not 1 <= length <= n:
        raise ParameterError(f"signal length must satisfy 1 <= length <= n, got {length}")
    frac = WORD_BITS * words + GUARD_BITS
    consts = _constants(frac)
    roots = _unit_roots(n, frac, consts)
    x_fx = _synthesize(_fixed(spectrum.real, frac), _fixed(spectrum.imag, frac),
                       roots, frac)[0][:length]
    kr, ki = _predictor_transfer(a, params, roots, frac, consts)
    taps_fx = _synthesize(kr, ki, roots, frac)[0][: params.m]
    yhat = exact_causal_sum(taps_fx, x_fx, start, count, frac)
    return (x_fx / (1 << frac)).astype(np.float64), yhat
