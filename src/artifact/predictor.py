"""Honest time-domain prediction.

The target y(t) looks only forward (anticausal convolution, truncated at a
documented geometric tail) and the forecast yhat(t) looks only backward
(causal taps over the last M samples).  Every sum in this module is a direct
sum through `windowed_dot`; no transform shortcut touches the scoring path,
so causality can be audited sample by sample.  `forecast_stack` scores one
run against a stack of tapsets (a damping sweep) in a single engine call,
which reads each input window once for the whole stack; see `_engine` for
the block rule that keeps every output independent of the window's length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._engine import windowed_dot
from .errors import InsufficientDataError, ParameterError, WindowMismatchError
from .kernels import (FirstOrderKernel, PredictorParams, _check_pole, anticausal_kernel,
                      causal_kernel)
from .spectral import Signal

DEFAULT_TAIL_TOL = 1e-12


def anticausal_tail_len(a: float, tail_tol: float = DEFAULT_TAIL_TOL) -> int:
    """Samples of future needed before the anticausal tail drops below tail_tol.

    ceil(log(tail_tol * (|a|-1)) / log(1/|a|)), clamped to be nonnegative;
    the discarded geometric tail is then below tail_tol * ||x||_inf.
    """
    if not 0.0 < tail_tol < math.inf:
        raise ParameterError(f"tail_tol must be positive and finite, got {tail_tol}")
    mag = abs(_check_pole(a))
    val = math.ceil(math.log(tail_tol * (mag - 1.0)) / math.log(1.0 / mag))
    return max(val, 0)


def interior_window(x: Signal, m: int, a: float) -> tuple[int, int]:
    """The widest window [t_a, t_b] with m samples of history and the anticausal tail after it."""
    tail = anticausal_tail_len(a)
    t_a, t_b = x.start_index + m, x.end_index - tail
    if t_a > t_b:
        raise InsufficientDataError(
            f"signal of length {len(x)} is too short: m={m} samples of history and "
            f"tail_len={tail} samples of future need at least {m + tail + 1}"
        )
    return t_a, t_b


@dataclass(frozen=True)
class PredictionRun:
    """One scoring configuration: a signal, a kernel, and an interior window.

    The window [eval_start, eval_stop] (inclusive) must leave at least M
    samples of history before it and tail_len samples of future after it, so
    neither convolution ever reads outside the observed data.
    """

    x: Signal
    kernel: FirstOrderKernel
    params: PredictorParams
    eval_start: int
    eval_stop: int

    def __post_init__(self):
        if self.eval_start > self.eval_stop:
            raise ParameterError(
                f"empty evaluation window [{self.eval_start}, {self.eval_stop}]"
            )
        history = self.eval_start - self.x.start_index
        if history < self.params.m:
            raise InsufficientDataError(
                f"need {self.params.m} history samples before the window, have {history}"
            )
        future = self.x.end_index - self.eval_stop
        if future < self.tail_len:
            raise InsufficientDataError(
                f"need {self.tail_len} future samples after the window, have {future}"
            )

    @property
    def tail_len(self) -> int:
        return anticausal_tail_len(self.kernel.a)

    @property
    def window_length(self) -> int:
        return self.eval_stop - self.eval_start + 1


def target(run: PredictionRun) -> Signal:
    """Anticausal reference y(t) = sum_{u=0}^{tail_len} k(-u) x(t+u).

    For the two-parameter kernel the factorization K = 1 + c/(z+a) turns this
    into x + c * (plain-pole target), so one direct sum serves both forms.
    """
    plain = FirstOrderKernel(run.kernel.a)
    g = np.ascontiguousarray(anticausal_kernel(plain, -run.tail_len).values[::-1])
    start_pos = run.eval_start - run.x.start_index
    y = windowed_dot(g, run.x.values, start_pos, run.window_length, -1)
    if run.kernel.b is not None:
        xwin = run.x.values[start_pos : start_pos + run.window_length]
        y = xwin + run.kernel.c * y
    return Signal(run.eval_start, y)


def forecast(run: PredictionRun, taps: Signal | None = None) -> Signal:
    """Causal prediction yhat(t) = sum_{u=0}^{M-1} khat(u) x(t-u).

    Reads only samples at times <= t; changing the input at any later time
    cannot change yhat(t), bit for bit.  taps, when given, must be
    causal_kernel(run.kernel, run.params), computed once for several runs.
    This is `forecast_stack` for a stack of one.
    """
    if taps is None:
        taps = causal_kernel(run.kernel, run.params)
    return forecast_stack(run, [taps])[0]


def forecast_stack(run: PredictionRun, tapsets) -> list[Signal]:
    """`forecast` of one run for each of several tapsets, in one engine call.

    Every tapset holds M causal taps for run's signal and window (for
    instance causal_kernel at each gamma of a sweep).  The engine reads each
    input window once for the whole stack (a stack of one real tapset goes
    through `np.convolve`), and for any stack an output depends only on the samples
    at times <= t, bit for bit.
    """
    if not tapsets:
        return []
    stack = np.stack([taps.values for taps in tapsets])
    start_pos = run.eval_start - run.x.start_index
    rows = windowed_dot(stack, run.x.values, start_pos, run.window_length, +1)
    return [Signal(run.eval_start, vals) for vals in rows]


@dataclass(frozen=True)
class ErrorReport:
    """Error norms over a common window, absolute and relative to spectrum norms."""

    abs_l2: float
    abs_linf: float
    rel_l2_vs_l2x: float
    rel_linf_vs_l2x: float
    rel_l2_vs_lqx: float | None = None


def error_report(y: Signal, yhat: Signal, x_l2: float, x_lq: float | None = None) -> ErrorReport:
    """Compare target and forecast on matching windows.

    x_l2 (and optionally x_lq) are grid norms of the input spectrum; every
    relative column is the absolute error divided by the same fixed
    denominator, so ratios are homogeneous of degree zero in the input scale.
    """
    if y.start_index != yhat.start_index or len(y) != len(yhat):
        raise WindowMismatchError(
            f"windows differ: [{y.start_index}, {y.end_index}] vs "
            f"[{yhat.start_index}, {yhat.end_index}]"
        )
    if not x_l2 > 0:
        raise ParameterError(f"x_l2 must be positive, got {x_l2}")
    diff = y.values - yhat.values
    abs_l2 = float(np.linalg.norm(diff))
    abs_linf = float(np.max(np.abs(diff)))
    rel_lq = None
    if x_lq is not None:
        if not x_lq > 0:
            raise ParameterError(f"x_lq must be positive, got {x_lq}")
        rel_lq = abs_l2 / x_lq
    return ErrorReport(abs_l2, abs_linf, abs_l2 / x_l2, abs_linf / x_l2, rel_lq)
