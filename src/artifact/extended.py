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
    taps        khat(0) .. khat(M-1) by a recurrence in the time domain;
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

# Fractional bits beyond the 53*w of w words, for the roundings of the synthesis
# (log2 n) and of the tap recurrence, and for signals well below one.
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
    pairs = (v.as_integer_ratio() for v in np.asarray(values, dtype=np.float64).tolist())
    return np.array([(num << frac) // den for num, den in pairs], dtype=object)


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
    """e^{2 pi i k/n} for k = 0 .. n/2-1."""
    angles = (2 * consts[0] * np.arange(n // 2, dtype=object)) // n
    return _cexp(np.zeros(n // 2, dtype=object), angles, frac, consts)


def _synthesize(re, im, frac: int):
    """(1/n) sum_j X_j e^{i omega_j t} for t = 0 .. n-1, omega_j = -pi + 2 pi j/n.

    e^{i omega_j t} = (-1)^t e^{2 pi i j t/n}: a radix-2 inverse transform in
    natural bin order, then the alternating sign and the exact 1/n shift.
    """
    n = re.size
    log_n = n.bit_length() - 1
    # reversing the axes of (2,) * log_n reverses the bits of each index
    rev = np.arange(n).reshape((2,) * log_n).T.ravel()
    re, im = re[rev], im[rev]
    wr_all, wi_all = _unit_roots(n, frac, _constants(frac))
    size = 2
    while size <= n:
        half = size // 2
        wr = wr_all[:: n // size]
        wi = wi_all[:: n // size]
        re = re.reshape(-1, size)
        im = im.reshape(-1, size)
        tr, ti = _cmul(re[:, half:], im[:, half:], wr, wi, frac)
        re = np.concatenate([re[:, :half] + tr, re[:, :half] - tr], axis=1).ravel()
        im = np.concatenate([im[:, :half] + ti, im[:, :half] - ti], axis=1).ravel()
        size *= 2
    sign = np.where(np.arange(n) % 2 == 0, 1, -1).astype(object)
    return _round_shift(re * sign, log_n), _round_shift(im * sign, log_n)


def _div(x: int, y: int) -> int:
    return (2 * x + y) // (2 * y)  # x / y to nearest


def _taps(a: float, params: PredictorParams, frac: int) -> list:
    """khat(0) .. khat(M-1) of Khat = V/(z+a), fixed point with frac bits.

    In w = 1/z, V = 1 - F with F = exp(g(1+aw)/(1+alpha w)), g = gamma*sign(a+alpha), and
    (1+alpha w)**2 F' = c F with c = g(a-alpha), so (k+1) f(k+1) = (c - 2 alpha k) f(k)
    - alpha**2 (k-1) f(k-1) from f(0) = e^g, held in ceil(max(0, -g)/log 2) extra bits.
    (1+aw) Khat = w V gives khat(t-1) = (v(t-1) - khat(t))/a, run back from khat(N) = 0
    (Miller; Gautschi, SIAM Review 9, 1967) to khat(0) = 0.  The zero start puts khat(N)
    (-a)**(t-N) into khat(t), and khat(N) = sum_j v(N+j) (-a)**-(j+1) is about f(N)/a once
    |f(k) a**-k| falls, past the taps' peak.  So N is the first index past M at which
    |f(N) a**-N| is 2**(frac+GUARD_BITS) below its largest value on M .. N, and below the
    largest kept |khat(t) a**(1-M)|, read from the run back from N; while that second test
    fails, the forward run goes on.  The guard bits absorb the sum over j.
    These are the exact truncated taps; the float64 grid period adds sum_{j>=1} khat(t+jn),
    which its leak check bounds and which is below 2**-frac at the tests' and goldens' sizes.
    """
    al = alpha(a, params.omega)
    g = params.gamma if a + al > 0 else -params.gamma
    bits = frac + math.ceil(max(0.0, -g) / math.log(2)) + GUARD_BITS
    step = math.log2(abs(a))
    (gn, gd), (an, ad), (ln, ld) = (v.as_integer_ratio() for v in (g, a, al))
    scale = gd * ad * ld * ld  # alpha = ln/ld; c, 2 alpha, alpha**2 times scale are integers
    cs, al1, al2 = gn * (an * ld - ln * ad) * ld, 2 * ln * gd * ad * ld, ln * ln * gd * ad
    f = [0, int(_cexp(_fixed([g], bits), np.zeros(1, dtype=object), bits, _constants(bits))[0][0])]
    k, top, kept = 0, -math.inf, math.inf
    while True:  # f[k+1] is f(k)
        weight = f[-1].bit_length() - k * step  # log2 |f(k) a**-k| + bits, to a bit
        if k >= params.m:
            top = max(top, weight)
            if weight <= min(top, kept) - frac - GUARD_BITS:
                h = [0]  # khat(N), khat(N-1), .. with N = k; v(t) = [t == 0] - f(t)
                for t in range(k - 1, -1, -1):
                    h.append(_div(((1 << bits if t == 0 else 0) - f[t + 1] - h[-1]) * ad, an))
                taps = h[: -params.m - 1 : -1]
                kept = max(map(abs, taps)).bit_length() - (params.m - 1) * step
                if weight <= kept - frac - GUARD_BITS:
                    return [_round_shift(v, bits - frac) for v in taps]
        f.append(_div((cs - k * al1) * f[-1] - (k - 1) * al2 * f[-2], (k + 1) * scale))
        k += 1


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
    total = sum(level.astype(object) << (bits * s) for s, level in enumerate(levels))
    return (total / (1 << (2 * frac))).astype(np.float64)


def forecast_from_spectrum(spectrum, a: float, params: PredictorParams, length: int,
                           start: int, count: int, words: int):
    """Synthesize x on [0, length) and forecast it at start .. start+count-1.

    spectrum holds the n grid values X_j (omega ascending from -pi) that
    define x; the predictor is the plain-pole one for 1/(z+a), with the
    taps of `_taps`.  Returns x and the forecast, each rounded once to
    float64.  x is real in exact arithmetic; its imaginary part is dropped.
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
    x_fx = _synthesize(_fixed(spectrum.real, frac), _fixed(spectrum.imag, frac), frac)[0][:length]
    yhat = exact_causal_sum(_taps(a, params, frac), x_fx, start, count, frac)
    return (x_fx / (1 << frac)).astype(np.float64), yhat
