"""The direct windowed convolution every scoring sum goes through.

`windowed_dot` slices exactly the input samples a window may read and
evaluates each output as its own dot product with `np.convolve` on real
float64 arrays, so no output can depend on a sample outside its own span.
Complex operands are split into real and imaginary parts; a part that is
identically zero is skipped, a tiny but nonzero one is kept.
"""

import numpy as np

from .errors import ParameterError

ENGINE = "numpy"


def check_window(m, size, start, count, stride):
    """Validate a direct sum of m taps over count outputs; return the input span [lo, hi]."""
    if stride not in (-1, 1):
        raise ParameterError(f"stride must be +1 or -1, got {stride}")
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    if m < 1:
        raise ParameterError("taps must be non-empty")
    if stride == 1:
        lo, hi = start - (m - 1), start + count - 1
    else:
        lo, hi = start, start + count - 1 + (m - 1)
    if lo < 0 or hi >= size:
        raise ParameterError(
            f"convolution window touches indices [{lo}, {hi}] outside the signal [0, {size - 1}]"
        )
    return lo, hi


def _real_parts(values):
    """Real part and, when it has a nonzero entry, imaginary part as float64 arrays."""
    values = np.asarray(values)
    if not np.iscomplexobj(values):
        return np.asarray(values, dtype=np.float64), None
    imag = np.ascontiguousarray(values.imag, dtype=np.float64)
    return np.ascontiguousarray(values.real, dtype=np.float64), imag if imag.any() else None


def windowed_dot(taps, x, start, count, stride):
    """Direct evaluation of out[i] = sum_u taps[u] * x[start + i - stride*u].

    stride +1 consumes present-and-past samples (causal direction), stride -1
    present-and-future samples (anticausal direction).  Returns complex128.
    """
    lo, hi = check_window(len(taps), len(x), start, count, stride)
    if stride == -1:
        taps = taps[::-1]
    t_re, t_im = _real_parts(taps)
    x_re, x_im = _real_parts(x[lo : hi + 1])
    out = np.convolve(x_re, t_re, "valid").astype(np.complex128)
    if t_im is not None:
        out.imag += np.convolve(x_re, t_im, "valid")
    if x_im is not None:
        out.imag += np.convolve(x_im, t_re, "valid")
        if t_im is not None:
            out.real -= np.convolve(x_im, t_im, "valid")
    return out
