"""Extended-precision scoring: tap recurrence, exact direct sum, causality, precision choice."""

import decimal
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from artifact import FirstOrderKernel, ParameterError, PredictorParams, alpha, causal_kernel
from artifact._engine import group_width
from artifact.cli import main
from artifact.extended import (WORD_BITS, GUARD_BITS, _cexp, _cmul, _constants, _fixed,
                               _round_shift, _synthesize, _taps, _unit_roots, exact_causal_sum,
                               forecast_from_spectrum, words_needed)

FRAC = 180


def _random_fixed(rng, size, bits):
    """Signed Python integers of up to `bits` bits, as an object array."""
    words = rng.integers(0, 2 ** 60, size=(size, -(-bits // 60)))
    vals = [int(sum(int(w) << (60 * k) for k, w in enumerate(row)) >> (60 * len(row) - bits))
            for row in words]
    signs = rng.choice([-1, 1], size)
    return np.array([s * v for s, v in zip(signs.tolist(), vals)], dtype=object)


def _cancelling(rng, m, size):
    """Taps of 290 bits that sum to zero, and a signal 2**200 + (60-bit noise).

    The constant cancels exactly, so each output is about 2**-90 of its
    largest products, as with deeply damped taps on a band-limited signal:
    dropping low-order bits of either operand shows in the rounded result.
    """
    taps = _random_fixed(rng, m, 290)
    taps[-1] = -sum(taps[:-1])
    return taps, (1 << 200) + _random_fixed(rng, size, 60)


def test_exact_causal_sum_matches_integer_sum():
    rng = np.random.default_rng(11)
    taps, x = _cancelling(rng, 24, 120)
    out = exact_causal_sum(taps, x, 30, 80, FRAC)
    for i in range(80):
        total = sum(int(taps[u]) * int(x[30 + i - u]) for u in range(24))
        assert out[i] == float(Fraction(total, 1 << (2 * FRAC))), i


def test_exact_causal_sum_reads_only_the_past():
    # as test_04 for the float64 forecast: a later sample may not move yhat(t)
    rng = np.random.default_rng(404)
    m, size = 64, 512
    taps, base = _cancelling(rng, m, size)
    t_a, t_b = m, size - 1
    count = t_b - t_a + 1
    ref = exact_causal_sum(taps, base, t_a, count, FRAC)
    for _ in range(100):
        probe = int(rng.integers(t_a, t_b))
        mutated = base.copy()
        # wider values change how many limbs the sum cuts the window into
        mutated[probe + 1:] = _random_fixed(rng, size - probe - 1, 260)
        again = exact_causal_sum(taps, mutated, t_a, count, FRAC)
        assert np.array_equal(again[: probe - t_a + 1], ref[: probe - t_a + 1])
        short = exact_causal_sum(taps, mutated, t_a, probe - t_a + 1, FRAC)
        assert np.array_equal(short, ref[: probe - t_a + 1])


def test_exact_causal_sum_splits_a_wide_limb_stack():
    # m = 4096 cuts limbs of 20 bits, so 531-bit taps give 27 tap limbs: more
    # rows than one product takes (group_width(4096) = 15), so every signal
    # limb meets the tap limbs in two groups
    rng = np.random.default_rng(4096)
    m, count = 4096, 40
    assert group_width(m) == 15
    taps = _random_fixed(rng, m, 531)
    taps[-1] = -sum(taps[:-1])
    x = (1 << 320) + _random_fixed(rng, m + count - 1, 60)
    assert -(-max(abs(int(t)) for t in taps).bit_length() // 20) == 27
    start = m - 1
    ref = exact_causal_sum(taps, x, start, count, FRAC)
    for i in range(count):
        total = sum(int(taps[u]) * int(x[start + i - u]) for u in range(m))
        assert ref[i] == float(Fraction(total, 1 << (2 * FRAC))), i
    for probe in (start, start + 15, start + 16, start + 31):
        mutated = x.copy()
        mutated[probe + 1:] = _random_fixed(rng, len(x) - probe - 1, 400)
        again = exact_causal_sum(taps, mutated, start, count, FRAC)
        assert np.array_equal(again[: probe - start + 1], ref[: probe - start + 1])
        short = exact_causal_sum(taps, mutated, start, probe - start + 1, FRAC)
        assert np.array_equal(short, ref[: probe - start + 1])


def test_exact_causal_sum_validates_window():
    taps = np.array([1, 2, 3], dtype=object)
    x = np.arange(10, dtype=object)
    with pytest.raises(ParameterError):
        exact_causal_sum(taps, x, 1, 4, FRAC)
    with pytest.raises(ParameterError):
        exact_causal_sum(taps, x, 5, 6, FRAC)


@pytest.mark.parametrize("size, length, words, named", [
    (64, 32, 0, "words must be >= 1"),
    (32, 32, 1, "expected 64 spectrum values"),
    (64, 0, 1, "signal length must satisfy"),
    (64, 65, 1, "signal length must satisfy"),
])
def test_forecast_from_spectrum_validates_its_inputs(size, length, words, named):
    params = PredictorParams(omega=math.pi / 2, gamma=-1.0, n=64, m=8, mode="low")
    with pytest.raises(ParameterError, match=named):
        forecast_from_spectrum(np.zeros(size), 2.0, params, length, 8, 4, words)


def test_words_needed():
    u = 2.0 ** -53
    assert words_needed(1.0, 1.0) == 1
    assert words_needed(1e-9 / u, 1e-9) == 1
    # the noise-sweep row at eps = 0.1, n = 4096: ||khat||_1 * ||x||_inf = 4.2e26
    # against 1e-3 of a budget of 2.93e-3; double-double leaves 5e-6
    assert words_needed(4.155e26, 2.926e-6) == 3
    assert words_needed(math.inf, math.inf) == 1
    with pytest.raises(ParameterError):
        words_needed(1.0, 0.0)


PI_DIGITS = ("314159265358979323846264338327950288419716939937510582097494459230781640628"
             "620899862803482534211706798214808651328230664709384460955058223172535940812")
LN2_DIGITS = ("693147180559945309417232121458176568075500134360255254120680009493393621969"
              "694715605863326996418687542001481020570685733685520235758130557032670751635")


def _nearest(digits: str, point: int, frac: int) -> int:
    """Nearest integer to d * 2**frac, d the decimal with `point` digits before its point."""
    q, r = divmod(int(digits) << frac, 10 ** (len(digits) - point))
    return q + (2 * r >= 10 ** (len(digits) - point))


def test_constants_match_published_digits():
    # 150 digits pin the constants to about 2**-498, so up to frac = 480
    for frac in [1, 2, 53, 64] + [WORD_BITS * w + GUARD_BITS for w in range(1, 8)] + [480]:
        pi, ln2 = _constants(frac)
        assert pi == _nearest(PI_DIGITS, 1, frac), frac
        assert ln2 == _nearest(LN2_DIGITS, 0, frac), frac


def test_noise_golden_row_scores_without_mpmath(tmp_path, monkeypatch):
    # the golden's nu = 0 row takes the extended path; the package must not
    # need mpmath there, and the cell must not move
    monkeypatch.setitem(sys.modules, "mpmath", None)
    out = tmp_path / "noise.csv"
    assert main(["sweep-noise", "--a", "2", "--omega", "pi/2", "--eps", "0.1", "--nu", "0",
                 "--n", "4096", "--m", "1024", "--seed", "20260819", "--out", str(out)]) == 0
    golden = Path(__file__).parent / "goldens" / "sweep_noise.csv"
    want = next(ln for ln in golden.read_text().splitlines() if ln.startswith("0,"))
    got = out.read_text().splitlines()[-1]
    assert got == want


def _grid_period(a, params, frac):
    """Grid taps in fixed point, the reference for `_taps`: all n of the period.

    Khat = (1 - exp(g(z+a)/(z+alpha))) / (z+a) on the grid z = e^{i omega_j},
    with the fixed-point complex exp, then the n-point inverse transform.
    """
    consts = _constants(frac)
    wr, wi = _unit_roots(params.n, frac, consts)
    zr, zi = -np.concatenate([wr, -wr]), -np.concatenate([wi, -wi])
    al = alpha(a, params.omega)
    sign = 1.0 if a + al > 0 else -1.0
    fa, fal, fg = _fixed([a, al, sign * params.gamma], frac)
    den = (zr + fal) * (zr + fal) + zi * zi
    ratio_r = (((zr + fa) * (zr + fal) + zi * zi) << frac) // den
    ratio_i = ((zi * (fal - fa)) << frac) // den
    er, ei = _cexp(_round_shift(fg * ratio_r, frac), _round_shift(fg * ratio_i, frac),
                   frac, consts)
    mod2 = (zr + fa) * (zr + fa) + zi * zi
    kr = ((zr + fa) << (2 * frac)) // mod2
    ki = ((-zi) << (2 * frac)) // mod2
    kr, ki = _cmul((1 << frac) - er, -ei, kr, ki, frac)
    return [int(v) for v in _synthesize(kr, ki, frac)[0]]


def _params(omega, gamma, n, m):
    return PredictorParams(omega, gamma, n, m, "low" if gamma < 0 else "high")


def _max_diff(u, v):
    return max(abs(int(x) - int(y)) for x, y in zip(u, v))


@pytest.mark.parametrize("a, omega, gamma, n, m, words", [
    (2.0, math.pi / 2, -97.89, 4096, 1024, 3),
    (2.0, math.pi / 3, -8.0, 4096, 512, 1),
    (-2.0, math.pi / 3, 8.0, 4096, 512, 1),
    (2.0, math.pi / 3, -64.0, 8192, 1024, 3),
])
def test_recurrence_taps_match_the_grid_taps(a, omega, gamma, n, m, words):
    # at these sizes the grid's wrap-around sum_{j>=1} khat(t + j*n) is below
    # 2**-frac, so the grid period is the truncated predictor too
    frac = WORD_BITS * words + GUARD_BITS
    params = _params(omega, gamma, n, m)
    taps = _taps(a, params, frac)
    grid = _grid_period(a, params, frac)[:m]
    peak = max(abs(v) for v in grid)
    assert len(taps) == m
    assert _max_diff(taps, grid) <= peak >> (frac - 8)
    assert abs(taps[0]) << frac <= peak


@pytest.mark.parametrize("a, omega, gamma, words, size", [
    # |a| = 1.05: the start sits about 4,100 terms past the last tap at 3 words
    (1.05, math.pi / 2, -8.0, 3, 4096),
    # band edges near 0 and pi put |alpha| = 0.996: the taps decay slowly
    (-2.0, 0.05, -8.0, 1, 32768),
    (2.0, math.pi - 0.05, 8.0, 1, 32768),
    # e^g = 2**-369 needs the 370 extra bits of the recurrence
    (2.0, math.pi / 3, -256.0, 5, 4096),
])
def test_recurrence_taps_at_the_edges_of_both_rules(a, omega, gamma, words, size):
    # size taps fold onto the n = 2048 grid period, sum_j khat(t + j*n); a
    # short run (M = 128) matches the first taps of the long one, so its
    # start lies far enough past M
    n, frac = 2048, WORD_BITS * words + GUARD_BITS
    long = _taps(a, _params(omega, gamma, size, size), frac)
    grid = _grid_period(a, _params(omega, gamma, n, 128), frac)
    peak = max(abs(v) for v in grid)
    assert _max_diff([sum(long[j::n]) for j in range(n)], grid) <= peak >> (frac - 8)
    short = _taps(a, _params(omega, gamma, n, 128), frac)
    assert _max_diff(short, long) <= max(abs(v) for v in short) >> (frac - 8)


def _alpha_zero_check(gamma, words, m):
    # -1/cos(pi/3) rounds so that alpha is exactly 0; then F = e^g e^{c w} with
    # g = -gamma and c = g*a, f(u) = e^g c^u / u!, and khat(t) = v(t-1) - a khat(t-1)
    # forward from khat(0) = 0, in digits enough to absorb the factor |a|**m
    a, omega = -1.0 / math.cos(math.pi / 3), math.pi / 3
    assert alpha(a, omega) == 0.0
    frac = WORD_BITS * words + GUARD_BITS
    with decimal.localcontext() as ctx:
        ctx.prec = 800
        da, g = decimal.Decimal(a), decimal.Decimal(-gamma)
        f, h = g.exp(), [decimal.Decimal(0)]
        for u in range(m - 1):
            h.append(int(u == 0) - f - da * h[-1])
            f = f * g * da / (u + 1)
        want = [int((v * 2 ** frac).to_integral_value()) for v in h]
    taps = _taps(a, _params(omega, gamma, 2048, m), frac)
    assert _max_diff(taps, want) <= max(abs(v) for v in want) >> (frac - 8)


@pytest.mark.parametrize("gamma, words", [(8.0, 1), (256.0, 5)])
def test_recurrence_taps_at_alpha_zero_follow_the_closed_form(gamma, words):
    _alpha_zero_check(gamma, words, 1024)


@pytest.mark.parametrize("words", [5, 9])
def test_recurrence_taps_start_past_a_peak_beyond_the_last_tap(words):
    # at gamma = 256, f(u) = e^g c^u / u! peaks near u = c = 512, far past M = 128; a start
    # a fixed distance past M was off by 2**99.9 (5 words) and 2**8.4 (9 words) units
    _alpha_zero_check(256.0, words, 128)


def test_short_run_past_the_peak_matches_the_long_run():
    # high gamma = 256 at a = -2 puts the taps' peak near u = 511; M = 128 must match
    # the first taps of an M = 4096 run, whose start lies past that peak
    frac = WORD_BITS * 9 + GUARD_BITS
    long = _taps(-2.0, _params(math.pi / 3, 256.0, 8192, 4096), frac)
    short = _taps(-2.0, _params(math.pi / 3, 256.0, 8192, 128), frac)
    assert _max_diff(short, long) <= max(abs(v) for v in short) >> (frac - 8)


@pytest.mark.parametrize("gamma", [-1.0, -8.0])
def test_recurrence_taps_agree_with_float64_taps(gamma):
    params = _params(math.pi / 3, gamma, 2048, 512)
    frac = WORD_BITS + GUARD_BITS
    taps = np.array([v / 2 ** frac for v in _taps(2.0, params, frac)])
    ref = causal_kernel(FirstOrderKernel(2.0), params).values
    assert np.max(np.abs(taps - ref)) <= 1e-14 * np.max(np.abs(taps))
