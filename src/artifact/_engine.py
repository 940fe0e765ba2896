"""The direct windowed convolution every scoring sum goes through.

`windowed_dot` slices exactly the input samples a window may read and
evaluates each output as its own dot product on real float64 arrays, so no
output can depend on a sample outside its own span.  The taps are one
tapset of m taps or a stack of G tapsets, shape (G, m), all read against
the same input windows; one tapset is a stack of one.  Complex operands are
split once into real and imaginary parts, and a part that is identically
zero is skipped (a tiny but nonzero one is kept): the imaginary taps become
G more rows of one real stack, the product runs once per part of the input,
and the parts are recombined in one place.

`real_rows` is the one real product under every direct sum, this one and
`extended.exact_causal_sum`'s limb sum alike.  One row goes through
`np.convolve` over the exact window.  Several rows read each input window
once for all of them: fixed blocks of b consecutive windows are copied into
one reused (b, m) buffer, the last block padded with zero rows, and each
block is multiplied by the stack in one `np.matmul`.  b = block_rows(m)
depends on m only, never on the number of outputs, so every product has the
same shape and an output's bits do not depend on how many outputs the call
computes.  A product takes at most group_width(m) rows of the stack, so
b * rows * m stays near 10**6: past that, OpenBLAS 0.3.31 leaves its
small-matrix kernel.  On a 2-CPU x86-64 host, 16 tapsets at m = 4096 over
4056 outputs took 37-47 ms as one product and 29-36 ms in groups of 15 and 1.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def block_rows(m):
    """Input windows per block of a stacked product: max(16, 16384 // m)."""
    return max(16, 16384 // m)


def group_width(m):
    """Stack rows per product: max(1, 10**6 // (b * m)), b = block_rows(m)."""
    return max(1, 10**6 // (block_rows(m) * m))


def _real_parts(values):
    """Real part and, when it has a nonzero entry, imaginary part as float64 arrays."""
    values = np.asarray(values)
    if not np.iscomplexobj(values):
        return np.asarray(values, dtype=np.float64), None
    imag = np.ascontiguousarray(values.imag, dtype=np.float64)
    return np.ascontiguousarray(values.real, dtype=np.float64), imag if imag.any() else None


def real_rows(seg, rows, count):
    """out[p, i] = sum_u rows[p, u] * seg[i + m - 1 - u] for i < count, as a (P, count) array.

    seg holds count + m - 1 real samples and rows a (P, m) real stack.
    """
    p, m = rows.shape
    if p == 1:
        return np.convolve(seg, rows[0], "valid")[None, :]
    b, width = block_rows(m), group_width(m)
    windows = sliding_window_view(seg, m)
    # column p of weights is row p reversed, so a window times it is row p's sum
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


def windowed_dot(taps, x, start, count, stride):
    """Direct evaluation of out[i] = sum_u taps[u] * x[start + i - stride*u].

    stride +1 consumes present-and-past samples (causal direction), stride -1
    present-and-future samples (anticausal direction).  Returns complex128:
    shape (count,) for one tapset, (G, count) for a (G, m) stack, row g
    computed with taps[g].
    """
    taps = np.asarray(taps)
    if taps.ndim not in (1, 2) or taps.ndim == 2 and taps.shape[0] < 1:
        raise ParameterError(f"taps must be one tapset or a non-empty stack of them, "
                             f"got shape {taps.shape}")
    lo, hi = check_window(taps.shape[-1], len(x), start, count, stride)
    stack = np.atleast_2d(taps if stride == 1 else taps[..., ::-1])
    g = stack.shape[0]
    t_re, t_im = _real_parts(stack)
    # rows 0 .. g-1 hold the real taps, rows g .. 2g-1 the imaginary ones
    rows = t_re if t_im is None else np.concatenate([t_re, t_im])
    x_re, x_im = _real_parts(x[lo : hi + 1])
    re = real_rows(x_re, rows, count)
    out = re[:g].astype(np.complex128)
    if t_im is not None:
        out.imag += re[g:]
    if x_im is not None:
        im = real_rows(x_im, rows, count)
        out.imag += im[:g]
        if t_im is not None:
            out.real -= im[g:]
    return out if taps.ndim == 2 else out[0]
