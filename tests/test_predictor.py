"""Prediction runs: window bookkeeping, oracles, causality, the convolution engine."""

import math
import tracemalloc

import numpy as np
import pytest

from artifact import (
    BandSignalSpec,
    ErrorReport,
    FirstOrderKernel,
    InsufficientDataError,
    ParameterError,
    PredictionRun,
    PredictorParams,
    Signal,
    WindowMismatchError,
    anticausal_kernel,
    anticausal_tail_len,
    causal_kernel,
    dtft_on_grid,
    error_report,
    forecast,
    forecast_stack,
    gen_band_signal,
    interior_window,
    lq_grid_norm,
    target,
)
from artifact._engine import block_rows, group_width, real_rows, windowed_dot

PI = math.pi


def _std_run(x, a=2.0, gamma=-6.0, n=1024, m=128, omega=PI / 3, mode="low", b=None):
    kern = FirstOrderKernel(a, b)
    params = PredictorParams(omega=omega, gamma=gamma, n=n, m=m, mode=mode)
    t_a = x.start_index + m
    t_b = x.end_index - anticausal_tail_len(kern.a)
    return PredictionRun(x, kern, params, t_a, t_b)


def test_tail_len_formula():
    # |a| = 2, tol 1e-12: tail of sum_{u>T} 2^{-u-1} below 1e-12 needs T = 40
    assert anticausal_tail_len(2.0) == 40
    assert anticausal_tail_len(-2.0) == 40
    assert anticausal_tail_len(5.0) < 40
    assert anticausal_tail_len(1.5) > 40
    with pytest.raises(ParameterError):
        anticausal_tail_len(0.9)
    with pytest.raises(ParameterError):
        anticausal_tail_len(2.0, tail_tol=0.0)


@pytest.mark.parametrize("a", [math.inf, -math.inf])
def test_tail_len_refuses_an_infinite_pole(a):
    with pytest.raises(ParameterError, match="pole parameter must be finite"):
        anticausal_tail_len(a)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12])
def test_tail_len_refuses_a_nonfinite_or_negative_tolerance(tol):
    with pytest.raises(ParameterError, match="tail_tol must be positive and finite"):
        anticausal_tail_len(2.0, tail_tol=tol)


def test_target_impulse_hand_values():
    # impulse at t=5: y(t) = k(t-5), so y(5)=1/2, y(4)=-1/4, y(6)=0
    vals = np.zeros(64)
    vals[5] = 1.0
    x = Signal(0, vals)
    kern = FirstOrderKernel(2.0)
    params = PredictorParams(omega=PI / 3, gamma=-1.0, n=128, m=2, mode="low")
    run = PredictionRun(x, kern, params, 2, 20)
    y = target(run)
    assert abs(y.values[5 - 2] - 0.5) < 1e-15
    assert abs(y.values[4 - 2] + 0.25) < 1e-15
    assert abs(y.values[6 - 2]) < 1e-15
    assert abs(y.values[3 - 2] - 0.125) < 1e-15


def test_target_two_parameter_impulse():
    # K = 1 + c/(z+a): y(t) = x(t) + c*k(t-5)
    vals = np.zeros(64)
    vals[5] = 1.0
    x = Signal(0, vals)
    kern = FirstOrderKernel(2.0, -1.0)  # c = -3
    params = PredictorParams(omega=PI / 3, gamma=-1.0, n=128, m=2, mode="low")
    run = PredictionRun(x, kern, params, 2, 20)
    y = target(run)
    assert abs(y.values[5 - 2] - (1.0 - 3.0 * 0.5)) < 1e-15
    assert abs(y.values[4 - 2] - (-3.0 * -0.25)) < 1e-15


def test_target_b_equal_a_is_identity():
    rng = np.random.default_rng(7)
    x = Signal(0, rng.standard_normal(128))
    run = _std_run(x, a=2.0, b=2.0, n=256, m=16)
    y = target(run)
    xwin = x.values[run.eval_start : run.eval_stop + 1]
    assert np.max(np.abs(y.values - xwin)) == 0.0


def test_target_naive_double_loop_oracle():
    rng = np.random.default_rng(17)
    x = Signal(-10, rng.standard_normal(160) + 1j * rng.standard_normal(160))
    run = _std_run(x, a=-2.0, n=512, m=32)
    y = target(run)
    k = anticausal_kernel(FirstOrderKernel(-2.0), -run.tail_len)
    for t in (run.eval_start, run.eval_start + 7, run.eval_stop):
        acc = 0.0 + 0.0j
        for u in range(run.tail_len + 1):
            acc += k.values[run.tail_len - u] * x.values[t + u - x.start_index]
        assert abs(y.values[t - run.eval_start] - acc) < 1e-12


def test_forecast_naive_double_loop_oracle():
    rng = np.random.default_rng(19)
    x = Signal(0, rng.standard_normal(300))
    run = _std_run(x, n=1024, m=64)
    yhat = forecast(run)
    taps = causal_kernel(run.kernel, run.params).values
    for t in (run.eval_start, run.eval_start + 11, run.eval_stop):
        acc = 0.0 + 0.0j
        for u in range(64):
            acc += taps[u] * x.values[t - u]
        assert abs(yhat.values[t - run.eval_start] - acc) < 1e-12


def test_forecast_reads_only_past():
    rng = np.random.default_rng(23)
    x = Signal(0, rng.standard_normal(400))
    run = _std_run(x, n=1024, m=64)
    ref = forecast(run)
    probe = run.eval_start + 100
    mutated = x.values.copy()
    mutated[probe + 1 :] += rng.standard_normal(len(mutated) - probe - 1)
    run2 = PredictionRun(Signal(0, mutated), run.kernel, run.params, run.eval_start, probe)
    again = forecast(run2)
    assert np.array_equal(again.values, ref.values[: probe - run.eval_start + 1])


def _assert_stack_reads_only_past(x, kern, sweep, offsets, rng):
    """Outputs up to each probe, t_a + offset or t_b - 1, keep their bits when
    every later sample changes, whether the window stops at the probe or not."""
    tapsets = [causal_kernel(kern, p) for p in sweep]
    t_a, t_b = interior_window(x, sweep[0].m, kern.a)
    ref = forecast_stack(PredictionRun(x, kern, sweep[0], t_a, t_b), tapsets)
    for probe in [t_a + offset for offset in offsets] + [t_b - 1]:
        mutated = x.values.copy()
        mutated[probe + 1 :] += rng.standard_normal(len(mutated) - probe - 1)
        for stop in (probe, t_b):
            run = PredictionRun(Signal(0, mutated), kern, sweep[0], t_a, stop)
            for again, want in zip(forecast_stack(run, tapsets), ref):
                assert np.array_equal(again.values[: probe - t_a + 1],
                                      want.values[: probe - t_a + 1]), (len(sweep), probe, stop)
    return ref


def test_forecast_stack_reads_only_past():
    # the stacked twin: m = 1024 makes blocks of 16 windows, and cutting the
    # window moves the last block's padding, so an output that depended on
    # the number of outputs computed (a block size taken from count) would
    # change its bits below
    rng = np.random.default_rng(29)
    kern = FirstOrderKernel(2.0)

    def ladder(m, n, gammas):
        return [PredictorParams(omega=PI / 3, gamma=g, n=n, m=m, mode="low") for g in gammas]

    x = Signal(0, rng.standard_normal(2100))
    ref = _assert_stack_reads_only_past(x, kern, ladder(1024, 4096, (-1.0, -4.0, -8.0)),
                                        (0, 5, 15, 16, 100, 517), rng)
    assert block_rows(1024) == 16 and len(ref) == 3 and len(ref[0]) > 16 * 60
    # stacks wider than one product: m = 4096 takes group_width = 15 tapsets
    # per matmul, so 16, 17 and 31 tapsets run in two and three groups
    assert group_width(4096) == 15
    x = Signal(0, rng.standard_normal(4096 + 300))
    for width in (16, 17, 31):
        _assert_stack_reads_only_past(
            x, kern, ladder(4096, 8192, [-1.0 - 0.5 * i for i in range(width)]),
            (0, 15, 16, 100), rng)
    # m = 256 reads its blocks from shifted rows filled once per 4096
    # outputs; the probes sit on both sides of that edge
    x = Signal(0, rng.standard_normal(4600))
    ref = _assert_stack_reads_only_past(x, kern, ladder(256, 4096, (-1.0, -4.0, -8.0)),
                                        (63, 4095, 4096, 4100), rng)
    assert _chunk(256) == 4096 and len(ref[0]) > 4096


def _chunk(m):
    """Outputs per fill of the shifted rows: the smallest multiple of b >= max(m, 4096)."""
    b = block_rows(m)
    return -(-max(m, 4096) // b) * b


def _block_copy_rows(seg, rows, count):
    """real_rows as one copied (b, m) block of windows per b outputs: the reference."""
    p, m = rows.shape
    b, width = block_rows(m), group_width(m)
    windows = np.lib.stride_tricks.sliding_window_view(seg, m)
    weights = np.ascontiguousarray(rows[:, ::-1]).T
    groups = [weights[:, c : c + width] for c in range(0, p, width)]
    outs = [np.empty((-(-count // b) * b, group.shape[1])) for group in groups]
    block = np.zeros((b, m))
    for i in range(0, count, b):
        filled = min(b, count - i)
        block[:filled] = windows[i : i + filled]
        if filled < b:
            block[filled:] = 0.0
        for group, out in zip(groups, outs):
            np.matmul(block, group, out=out[i : i + b])
    return (outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1))[:count].T


@pytest.mark.parametrize("m", [180, 181, 256, 1024, 4096])
def test_real_rows_matches_the_block_copy_bit_for_bit(m):
    # m = 180 copies its blocks (2b > m) and m >= 181 reads them in place from
    # shifted rows; counts sit at a block's and a chunk's edges and past two
    # chunks, and 16 and 31 rows at m = 4096 run in two and three groups
    rng = np.random.default_rng(m)
    b, chunk = block_rows(m), _chunk(m)
    assert (2 * b <= m) == (m >= 181)
    for g in (2, 9, 16, 31):
        rows = rng.standard_normal((g, m))
        for count in (1, b - 1, b, b + 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
            seg = rng.standard_normal(count + m - 1)
            got = real_rows(seg, rows, count)
            assert got.shape == (g, count)
            assert np.array_equal(got, _block_copy_rows(seg, rows, count)), (g, count)


def test_real_rows_memory_does_not_grow_with_the_output_count():
    # the shifted rows depend on m alone: 16 rows of 5,104 doubles at
    # m = 1024, where rows as long as the input would take 12.9 MB here
    m, count, g = 1024, 100_000, 9
    rng = np.random.default_rng(37)
    rows, seg = rng.standard_normal((g, m)), rng.standard_normal(count + m - 1)
    output = -(-count // block_rows(m)) * block_rows(m) * g * 8
    tracemalloc.start()
    try:
        out = real_rows(seg, rows, count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (g, count)
    assert peak < output + 2 * 2**20, (peak - output) / 2**20


def test_prediction_error_shrinks_with_damping():
    x = gen_band_signal(BandSignalSpec(omega=PI / 3, mode="low", length=1024, seed=3), 2048)
    errs = []
    for gamma in (-1.0, -8.0):
        run = _std_run(x, gamma=gamma, n=2048, m=256)
        rep = error_report(target(run), forecast(run),
                           lq_grid_norm(dtft_on_grid(x, 2048), 2.0))
        errs.append(rep.rel_l2_vs_l2x)
    assert errs[1] < errs[0] < 1.0


def test_gamma_zero_forecast_is_zero():
    rng = np.random.default_rng(29)
    x = Signal(0, rng.standard_normal(200))
    run = _std_run(x, gamma=0.0, n=512, m=32)
    assert np.max(np.abs(forecast(run).values)) == 0.0


def test_relative_errors_scale_invariant():
    x = gen_band_signal(BandSignalSpec(omega=PI / 3, mode="low", length=512, seed=31), 1024)
    reps = []
    for scale in (1.0, 137.0):
        xs = Signal(0, scale * x.values)
        run = _std_run(xs, n=1024, m=128)
        reps.append(error_report(target(run), forecast(run),
                                 lq_grid_norm(dtft_on_grid(xs, 1024), 2.0)))
    assert abs(reps[0].rel_l2_vs_l2x - reps[1].rel_l2_vs_l2x) < 1e-12
    assert abs(reps[0].rel_linf_vs_l2x - reps[1].rel_linf_vs_l2x) < 1e-12


def test_window_validation():
    rng = np.random.default_rng(37)
    x = Signal(0, rng.standard_normal(100))
    kern = FirstOrderKernel(2.0)
    params = PredictorParams(omega=PI / 3, gamma=-1.0, n=256, m=32, mode="low")
    with pytest.raises(InsufficientDataError):
        PredictionRun(x, kern, params, 10, 50)  # only 10 history samples, m=32
    with pytest.raises(InsufficientDataError):
        PredictionRun(x, kern, params, 32, 99)  # no future left for the tail
    with pytest.raises(ParameterError):
        PredictionRun(x, kern, params, 50, 40)  # empty window


def test_error_report_window_mismatch():
    y = Signal(0, np.ones(4))
    with pytest.raises(WindowMismatchError):
        error_report(y, Signal(1, np.ones(4)), 1.0)
    with pytest.raises(WindowMismatchError):
        error_report(y, Signal(0, np.ones(5)), 1.0)
    with pytest.raises(ParameterError):
        error_report(y, Signal(0, np.ones(4)), 0.0)
    rep = error_report(y, Signal(0, np.zeros(4)), 2.0, x_lq=4.0)
    assert isinstance(rep, ErrorReport)
    assert rep.abs_l2 == 2.0 and rep.rel_l2_vs_l2x == 1.0 and rep.rel_l2_vs_lqx == 0.5


def test_engine_wrapper_validates_bounds():
    taps = np.ones(4, dtype=complex)
    x = np.ones(10, dtype=complex)
    with pytest.raises(ParameterError):
        windowed_dot(taps, x, 2, 5, +1)  # reads x[-1]
    with pytest.raises(ParameterError):
        windowed_dot(taps, x, 5, 3, -1)  # reads x[10]
    with pytest.raises(ParameterError):
        windowed_dot(taps, x, 3, 2, 0)
    with pytest.raises(ParameterError):
        windowed_dot(taps, x, 3, 0, 1)
    with pytest.raises(ParameterError):
        windowed_dot(np.ones(0, dtype=complex), x, 3, 2, 1)
    stack = np.ones((3, 4), dtype=complex)
    for stride in (0, 2):
        with pytest.raises(ParameterError, match="stride"):
            windowed_dot(stack, x, 5, 3, stride)
    with pytest.raises(ParameterError):
        windowed_dot(stack, x, 2, 5, +1)  # reads x[-1]
    for shape in ((0, 4), (2, 2, 4), ()):
        with pytest.raises(ParameterError, match="tapset"):
            windowed_dot(np.ones(shape, dtype=complex), x, 5, 3, 1)


def _definition(taps, x, start, count, stride):
    out = []
    for i in range(count):
        acc = 0j
        for u in range(len(taps)):
            acc += complex(taps[u]) * complex(x[start + i - stride * u])
        out.append(acc)
    return np.array(out)


def test_windowed_dot_matches_definition():
    taps = np.array([2.0, 3.0], dtype=complex)
    x = np.arange(10, dtype=complex)
    out = windowed_dot(taps, x, 4, 3, +1)
    # out[i] = 2*x[4+i] + 3*x[3+i]
    assert np.array_equal(out, np.array([2 * 4 + 3 * 3, 2 * 5 + 3 * 4, 2 * 6 + 3 * 5],
                                        dtype=complex))
    out2 = windowed_dot(taps, x, 4, 2, -1)
    # out[i] = 2*x[4+i] + 3*x[5+i]
    assert np.array_equal(out2, np.array([2 * 4 + 3 * 5, 2 * 5 + 3 * 6], dtype=complex))

    rng = np.random.default_rng(41)

    def draw(size, complex_part):
        v = rng.standard_normal(size)
        return v + 1j * rng.standard_normal(size) if complex_part else v

    size = 60
    for taps_complex, x_complex in ((True, True), (False, False), (False, True)):
        for m, start, count, stride in (
            (7, 20, 25, 1), (7, 20, 25, -1),
            (1, 0, size, 1), (1, 0, size, -1),   # one tap, whole signal
            (9, 30, 1, 1), (9, 30, 1, -1),       # one output
            (9, 8, size - 8, 1),                 # reads x[0] .. x[size-1]
            (9, 0, size - 8, -1),                # reads x[0] .. x[size-1]
        ):
            taps = draw(m, taps_complex)
            x = draw(size, x_complex)
            got = windowed_dot(taps, x, start, count, stride)
            want = _definition(taps, x, start, count, stride)
            assert got.dtype == np.complex128 and got.shape == (count,)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, (
                taps_complex, x_complex, m, start, count, stride)
    # an imaginary part far below the real part's rounding is carried, not dropped
    taps = draw(5, False)
    x = draw(size, False) + 1e-17j * draw(size, False)
    for part in (np.real, np.imag):
        got = part(windowed_dot(taps, x, 10, 20, 1))
        want = part(_definition(taps, x, 10, 20, 1))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    # stacks of G tapsets: one row per tapset, count below, at and above the
    # block of b = 16 windows that m = 1024 gets, and past two blocks; every
    # G meets each pair of parts and both strides
    m = 1024
    b = block_rows(m)
    size = m + 2 * b + 8
    parts = ((True, True), (False, False), (False, True), (True, False))
    for g_count, g in enumerate((2, 3, 9)):
        for k, count in enumerate((b - 1, b, b + 1, 2 * b + 3)):
            taps_complex, x_complex = parts[(g_count + k) % 4]
            stride = 1 if k % 2 == 0 else -1
            start = m - 1 if stride == 1 else 0
            taps = np.stack([draw(m, taps_complex) for _ in range(g)])
            x = draw(size, x_complex)
            got = windowed_dot(taps, x, start, count, stride)
            assert got.dtype == np.complex128 and got.shape == (g, count)
            for row, tapset in zip(got, taps):
                want = _definition(tapset, x, start, count, stride)
                assert np.max(np.abs(row - want)) <= 1e-13 * np.max(np.abs(want)), (
                    g, count, taps_complex, x_complex, stride)
    # stacks wider than one product at m = 4096: group_width(4096) = 15
    # columns per matmul, so these take two to five groups
    m = 4096
    b = block_rows(m)
    assert group_width(m) == 15
    size = m + 2 * b + 8
    lags = np.arange(m)
    for g_count, g in enumerate((16, 17, 31)):
        for k, count in enumerate((b - 1, b, b + 1, 2 * b + 3)):
            taps_complex, x_complex = parts[(g_count + k) % 4]
            stride = 1 if k % 2 == 0 else -1
            start = m - 1 if stride == 1 else 0
            taps = np.stack([draw(m, taps_complex) for _ in range(g)])
            x = draw(size, x_complex)
            got = windowed_dot(taps, x, start, count, stride)
            assert got.dtype == np.complex128 and got.shape == (g, count)
            # the definition as one sum per output: x[start + i - stride*u] @ taps[u]
            window = x[start + np.arange(count)[:, None] - stride * lags]
            for row, tapset in zip(got, taps):
                want = window @ tapset
                assert np.max(np.abs(row - want)) <= 1e-13 * np.max(np.abs(want)), (
                    g, count, taps_complex, x_complex, stride)
    # a stack of one is the single tapset's row, bit for bit
    taps = draw(m, True)
    x = draw(size, True)
    assert np.array_equal(windowed_dot(taps[None, :], x, m - 1, b + 1, 1),
                          windowed_dot(taps, x, m - 1, b + 1, 1)[None, :])


def test_interior_window_bounds_and_shortfall():
    kern = FirstOrderKernel(2.0)
    tail = anticausal_tail_len(kern.a)
    x = Signal(1000, np.ones(32 + tail + 1))
    assert interior_window(x, 32, kern.a) == (1032, 1032)
    params = PredictorParams(omega=PI / 3, gamma=-1.0, n=256, m=32, mode="low")
    assert PredictionRun(x, kern, params, 1032, 1032).window_length == 1
    short = Signal(1000, np.ones(32 + tail))
    with pytest.raises(InsufficientDataError, match=f"length {32 + tail} is too short"):
        interior_window(short, 32, kern.a)
