"""Causal predicting kernels for band-limited discrete-time sequences.

The package builds explicit one-sided prediction filters on the unit
circle.  A first-order anticausal target kernel is multiplied by a damping
factor that is small on the occupied band and controlled off it; inverting
the product on a uniform frequency grid and truncating to nonnegative lags
yields causal taps whose output tracks the anticausal target on band-limited
inputs.  Submodules:

    spectral   grid DFT conventions, signals, norms
    kernels    transfer functions, damping factor, causal taps
    signals    random band-limited / noisy test inputs, ideal splits
    predictor  windowed prediction runs and error reports
    analysis   error budgets and experiment sweeps
    extended   extended-precision scoring where float64 roundoff swamps a score
    cli        command-line interface

`windowed_dot` is the one direct convolution every scoring sum goes
through; `ENGINE` names it ("numpy") in the CLI's output headers.
"""

from ._engine import ENGINE, windowed_dot
from .errors import (
    CausalityLeakError,
    DegenerateBandError,
    GridSizeError,
    InsufficientDataError,
    InternalConsistencyError,
    ParameterError,
    PredictionError,
    SaturationError,
    WindowMismatchError,
)
from .spectral import (
    Signal,
    SpectrumGrid,
    dtft_on_grid,
    grid_omegas,
    inverse_grid,
    lq_grid_norm,
    norm,
    spectrum_l2,
)
from .kernels import (
    CAUSALITY_TOL,
    EXP_GUARD,
    FirstOrderKernel,
    PredictorParams,
    TransferGrid,
    alpha,
    anticausal_kernel,
    causal_kernel,
    causality_leak_ratio,
    k_transfer,
    predictor_transfer,
    psi,
    tap_l1_tail,
    v_transfer,
)
from .signals import (
    BandSignalSpec,
    NoisySpectrumSpec,
    band_spectrum,
    gen_band_signal,
    gen_noisy_spectrum,
    ideal_filter_split,
    low_band_mask,
    noisy_spectrum,
)
from .predictor import (
    DEFAULT_TAIL_TOL,
    ErrorReport,
    PredictionRun,
    anticausal_tail_len,
    error_report,
    forecast,
    forecast_stack,
    interior_window,
    target,
)
from .analysis import (
    ErrorBudget,
    GammaSweepRow,
    NoiseSweepRow,
    SplitReport,
    budget,
    corollary_split_experiment,
    gamma_sweep,
    khat_sup_norm,
    noise_sweep,
    noise_sweep_for,
    nu_i3_closed_form,
)

__version__ = "0.1.0"
