"""Command-line front end.

Subcommands:
    kernel       dump transfer curves and causal taps for one configuration
    gen          generate a test signal (band-limited, high-frequency, or noisy)
    predict      run one prediction and report error norms
    sweep-gamma  error norms along a damping sweep
    sweep-noise  measured error vs budget along an out-of-band noise sweep
    split        two-band split prediction experiment

Every flag is declared once, in FLAGS; each subcommand in COMMANDS lists the
flags it takes.  `build_parser` declares them all once per process, on first
use, and every later call shares that parser; importing the module builds
nothing.  Output is CSV (default) or JSON.
CSV numbers carry 17 significant digits so parsing them recovers the exact
doubles; JSON numbers are the shortest repr that round-trips, as `json`
writes them.  '#' header lines echo the parsed flags in their declaration
order, then what the command computed, and identical flags always reproduce
identical bytes.  Tables are built from columns and formatted in bulk: one
%-format per CSV row, one C-encoder call per JSON table.
Exit codes come from the error classes (see `errors`): 0 ok, 2 parameter,
3 signal too short for the history and anticausal tail a window needs,
4 causality leak, 5 I/O, 6 saturation, 1 anything else, an allocation too
large for the machine included.

Heap policy.  `main` owns its process, so on glibc it keeps freed memory in
the process: once per process it sets mallopt's M_TRIM_THRESHOLD to 1 GiB
and M_MMAP_THRESHOLD to 32 MiB.  By default glibc serves a large array by a
fresh mmap and returns a freed heap top to the kernel, so every job faulted
its arrays in again: about 1,570 minor page faults per n = 65536 sweep, at
about 3 us each with the page zeroing, a quarter of the job or more (about
700 in synthesis, 600 in building the TransferGrid, 250 in inversion).
With the policy the second such job takes about 140 and later ones a
handful.  The policy is the package's one means of keeping arrays resident:
no layer keeps buffers between calls.  Where mallopt does not exist
(non-glibc C libraries) nothing is set.  Importing `artifact` never changes
the allocator of a library user's process.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import re
import sys
from dataclasses import replace

import numpy as np

from ._engine import ENGINE
from .analysis import budget, corollary_split_experiment, gamma_sweep, noise_sweep_for
from .errors import (
    CausalityLeakError,
    InsufficientDataError,
    ParameterError,
    PredictionError,
    SaturationError,
)
from .kernels import FirstOrderKernel, PredictorParams, TransferGrid, causal_kernel, psi
from .predictor import PredictionRun, error_report, forecast, interior_window, target
from .signals import BandSignalSpec, NoisySpectrumSpec, gen_band_signal, gen_noisy_spectrum
from .spectral import Signal, grid_omegas, mirror_half, norm, spectrum_l2

FORMAT_VERSION = "1"

EXIT_OK = 0
EXIT_OTHER = PredictionError.exit_code
EXIT_PARAMETER = ParameterError.exit_code
EXIT_INSUFFICIENT_DATA = InsufficientDataError.exit_code
EXIT_CAUSALITY_LEAK = CausalityLeakError.exit_code
EXIT_IO = 5
EXIT_SATURATION = SaturationError.exit_code

# "-" then a digit, ".digit", "inf" or "nan" is a value (-1e-3, -inf, -1,-4)
_NEGATIVE_VALUE = re.compile(r"^-(?:\.?\d|inf|nan)", re.IGNORECASE)
_PI_FORM = re.compile(r"^\s*(\d+(?:\.\d*)?|\.\d+)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d*)?|\.\d+))?\s*$")


def parse_omega(text: str) -> float:
    """Parse an angle given in radians or as a fraction of pi.

    Accepts plain floats ("1.0472"), "pi", "pi/3", "2pi/5", "0.5pi".
    """
    text = str(text).strip()
    try:
        return float(text)
    except ValueError:
        pass
    m = _PI_FORM.match(text)
    if not m:
        raise ParameterError(f"cannot parse angle {text!r}; use radians or forms like pi/3")
    coef = float(m.group(1)) if m.group(1) else 1.0
    den = float(m.group(2)) if m.group(2) else 1.0
    if den == 0.0:
        raise ParameterError(f"zero denominator in angle {text!r}")
    return coef * math.pi / den


def _omega_argument(text: str) -> float:
    try:
        return parse_omega(text)
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"list {text!r} holds no values")
    return values


# Every flag, by its destination name.  The option is "--" + name with "_"
# as "-" unless "flag" gives it.  A command takes a flag as optional, with
# the default here, unless it lists the name with a trailing "!".
FLAGS = {
    "a": dict(type=float, help="pole of the kernel 1/(z+a), |a| > 1"),
    "b": dict(type=float, default=None, help="zero of the kernel (z+b)/(z+a)"),
    "omega": dict(type=_omega_argument,
                  help="band edge in (0, pi): radians or forms like pi/3, 0.9pi, 2pi/5"),
    "gamma": dict(type=float, help="damping: <= 0 in low mode, >= 0 in high mode"),
    "gammas": dict(flag="--gamma", type=_float_list, default=None, metavar="GAMMA",
                   help="comma-separated list; default -1,-2,...,-256 (low) "
                        "or 1,2,...,256 (high)"),
    "gamma_low": dict(type=float, help="damping of the low-band part, <= 0"),
    "gamma_high": dict(type=float, help="damping of the high-band part, >= 0"),
    "mode": dict(choices=("low", "high"), default="low", help="occupied band"),
    "eps": dict(type=float, help="band fringe of the budget, in (0, 4*omega)"),
    "nu": dict(type=float, default=None,
               help="generate the bounded noisy spectrum instead of a band draw"),
    "nus": dict(flag="--nu", type=_float_list, default=[0.0, 0.001, 0.01, 0.1], metavar="NU",
                help="comma-separated list; default 0,0.001,0.01,0.1"),
    "n": dict(type=int, help="frequency grid size, a power of two >= 8"),
    "m": dict(type=int, help="number of causal taps, at most n/2"),
    "length": dict(type=int, default=None, help="signal length in samples"),
    "seed": dict(type=int, default=0, help="random seed, >= 0"),
    "normalization": dict(choices=("unit_l2", "unit_spectrum_linf"), default="unit_l2",
                          help="scale of a generated band signal"),
    "input": dict(default=None, help="time-series CSV from the gen command"),
    "out": dict(help="output file path"),
    "format": dict(choices=("csv", "json"), default="csv", help="output format"),
}

_KERNEL_FLAGS = ("a!", "b", "omega!", "gamma!", "mode!", "n!", "m!")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _header_value(value):
    """None as "", lists and floats through _fmt, ints and strings as is (JSON keeps ints)."""
    if value is None:
        return ""
    if isinstance(value, list):
        return ",".join(_fmt(v) for v in value)
    return _fmt(value) if isinstance(value, float) else value


def _config(args, names, **computed) -> list[tuple[str, object]]:
    """Header pairs: the parsed flags `names` in order, then the computed values."""
    pairs = [(name, getattr(args, name)) for name in names] + list(computed.items())
    return [(key, _header_value(value)) for key, value in pairs]


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def _columns(*columns) -> list[tuple]:
    """Table rows from equal-length columns, arrays through tolist(): cells are Python numbers."""
    return list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))


def _csv_document(command: str, config: list[tuple[str, object]],
                  columns: list[str], rows: list[tuple]) -> list[str]:
    lines = [f"# format-version: {FORMAT_VERSION}", f"# command: {command}"]
    for key, value in config:
        lines.append(f"# {key}={value}")
    lines.append(",".join(columns))
    if rows:
        # the text of _fmt, one %-format per row: %d for integer columns
        row_format = ",".join("%d" if isinstance(cell, (int, np.integer)) else "%.17g"
                              for cell in rows[0])
        lines += map(row_format.__mod__, rows)
    return lines


def _json_rows(rows: list[tuple], depth: int) -> str:
    """`rows` laid out as json.dumps(..., indent=2) lays out a list at nesting `depth`.

    indent= selects json's pure-Python encoder; the C encoder writes the same
    number tokens, so the rows are encoded once by it and re-indented.  Every
    cell is a number, so "], [" only separates rows and ", " only cells.
    """
    if not rows:
        return "[]"
    outer, row, cell = ("\n" + "  " * level for level in (depth, depth + 1, depth + 2))
    text = json.dumps(rows)[2:-2].replace("], [", f"{row}],{row}[{cell}").replace(", ", f",{cell}")
    return f"[{row}[{cell}{text}{row}]{outer}]"


def _json_document(command: str, config: list[tuple[str, object]], tables: dict) -> list[str]:
    """The text of json.dumps(doc, sort_keys=True, indent=2), the table rows encoded in bulk.

    `tables` maps a key of the document to a table's (columns, rows); the key
    None puts the table's columns and rows at the top level.  Each table's
    rows stand in the skeleton as a placeholder string that starts with NUL,
    which no column name or header value holds (a command line cannot carry
    one).
    """
    doc = {
        "format_version": FORMAT_VERSION,
        "command": command,
        "config": {key: value for key, value in config},
    }
    placed = []
    for key, (columns, rows) in tables.items():
        placeholder = f"\0{len(placed)}"
        table = {"columns": columns, "rows": placeholder}
        if key is None:
            doc.update(table)
        else:
            doc[key] = table
        placed.append((json.dumps(placeholder), _json_rows(rows, 1 if key is None else 2)))
    text = json.dumps(doc, sort_keys=True, indent=2)
    for placeholder, rows in placed:
        text = text.replace(placeholder, rows, 1)
    return [text]


def _emit(args, command: str, config: list[tuple[str, object]],
          columns: list[str], rows: list[tuple]) -> None:
    if args.format == "csv":
        _write_lines(args.out, _csv_document(command, config, columns, rows))
    else:
        _write_lines(args.out, _json_document(command, config, {None: (columns, rows)}))


def _taps_path(out: str) -> str:
    if out.endswith(".csv") or out.endswith(".json"):
        stem, dot, suffix = out.rpartition(".")
        return f"{stem}.taps.{suffix}"
    return out + ".taps"


# ---------------------------------------------------------------- commands

def _cmd_kernel(args) -> int:
    kernel = FirstOrderKernel(args.a, args.b)
    params = PredictorParams(omega=args.omega, gamma=args.gamma, n=args.n, m=args.m, mode=args.mode)
    # one grid gives the curves, mirrored, and the taps of the whole causal half
    # with the l1 mass beyond m; an m past the half is refused with its own value
    grid = TransferGrid(kernel, params.omega, params.n)
    al, v = grid.alpha, grid.damping(params.gamma)
    k, v, khat = (mirror_half(h) for h in (grid.k, v, v * grid.k))
    om = grid_omegas(params.n)
    psis = psi(kernel.a, al, om)
    half = causal_kernel(kernel, replace(params, m=max(params.m, params.n // 2)), grid).values.real
    residual = abs(1.0 + al * kernel.a + (kernel.a + al) * math.cos(params.omega))
    config = _config(args, args.flags, alpha=al, root_identity_residual=residual,
                     tap_l1_tail=float(np.sum(np.abs(half[params.m:]))), engine=ENGINE)
    grid_cols = ["omega", "k_re", "k_im", "v_re", "v_im", "khat_re", "khat_im", "psi"]
    curves = _columns(om, k.real, k.imag, v.real, v.imag, khat.real, khat.imag, psis)
    tap_cols = ["t", "khat"]
    taps = _columns(range(params.m), half[:params.m])
    if args.format == "csv":
        _write_lines(args.out, _csv_document("kernel", config, grid_cols, curves))
        _write_lines(_taps_path(args.out), _csv_document("kernel-taps", config, tap_cols, taps))
    else:
        _write_lines(args.out, _json_document("kernel", config, {"grid": (grid_cols, curves),
                                                                 "taps": (tap_cols, taps)}))
    return EXIT_OK


def _make_signal(args) -> tuple[Signal, list[tuple[str, object]]]:
    """The generated signal and its header pairs, which echo the flags it used."""
    if args.nu is not None:
        spec = NoisySpectrumSpec(omega=args.omega, nu=args.nu, seed=args.seed, length=args.length)
        x, kind = gen_noisy_spectrum(spec, args.n), "noisy"
        names = ("omega", "nu", "length", "seed")
    else:
        spec = BandSignalSpec(omega=args.omega, mode=args.mode, length=args.length,
                              seed=args.seed, normalization=args.normalization)
        x, kind = gen_band_signal(spec, args.n), "band"
        names = ("omega", "mode", "length", "seed", "normalization")
    return x, [("signal", kind), *_config(args, names)]


def _cmd_gen(args) -> int:
    x, config = _make_signal(args)
    columns = ["t", "x_re", "x_im"]
    rows = _columns(x.times(), x.values.real, x.values.imag)
    _emit(args, "gen", config + _config(args, ("n",)), columns, rows)
    return EXIT_OK


def _read_time_series(path: str) -> Signal:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path} is not UTF-8 text ({exc.reason})") from None
    times = []
    re_vals = []
    im_vals = []
    header_seen = False
    for row, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line.split(",") != ["t", "x_re", "x_im"]:
                raise ParameterError(f"{path} is not a time-series file (header {line!r})")
            header_seen = True
            continue
        cells = line.split(",")
        if len(cells) != 3:
            raise ParameterError(f"{path} line {row}: malformed time-series row {line!r}")
        try:
            t, x_re, x_im = int(cells[0]), float(cells[1]), float(cells[2])
        except ValueError:
            raise ParameterError(
                f"{path} line {row}: expected an integer t and numeric x_re, x_im, "
                f"got {line!r}"
            ) from None
        if not (math.isfinite(x_re) and math.isfinite(x_im)):
            raise ParameterError(f"{path} line {row}: sample values must be finite, got {line!r}")
        times.append(t)
        re_vals.append(x_re)
        im_vals.append(x_im)
    if not times:
        raise ParameterError(f"{path} holds no samples")
    start = times[0]
    if times != list(range(start, start + len(times))):
        raise ParameterError(f"{path} rows are not contiguous in t")
    return Signal(start, np.array(re_vals) + 1j * np.array(im_vals))


def _cmd_predict(args) -> int:
    if args.input is not None:
        x, sig_config = _read_time_series(args.input), [("input", "file")]
    elif args.length is None:
        raise ParameterError("predict needs a signal: pass --input FILE or --length N")
    else:
        x, sig_config = _make_signal(args)
    kernel = FirstOrderKernel(args.a, args.b)
    params = PredictorParams(omega=args.omega, gamma=args.gamma, n=args.n, m=args.m, mode=args.mode)
    run = PredictionRun(x, kernel, params, *interior_window(x, params.m, kernel.a))
    y = target(run)
    yhat = forecast(run)
    l2x = spectrum_l2(x, args.n)
    rep = error_report(y, yhat, l2x)
    config = _config(args, args.flags[:len(_KERNEL_FLAGS)]) + sig_config + _config(
        args, (), eval_start=run.eval_start, eval_stop=run.eval_stop, tail_len=run.tail_len,
        x_spectrum_l2=l2x, target_l2=norm(y, "l2"), engine=ENGINE)
    columns = ["abs_l2", "abs_linf", "rel_l2", "rel_linf"]
    rows = [(rep.abs_l2, rep.abs_linf, rep.rel_l2_vs_l2x, rep.rel_linf_vs_l2x)]
    _emit(args, "predict", config, columns, rows)
    return EXIT_OK


def _default_gammas(mode: str) -> list[float]:
    sign = -1.0 if mode == "low" else 1.0
    return [sign * 2.0 ** k for k in range(9)]


def _cmd_sweep_gamma(args) -> int:
    if args.gammas is None:
        args.gammas = _default_gammas(args.mode)
    kernel = FirstOrderKernel(args.a, args.b)
    spec = BandSignalSpec(omega=args.omega, mode=args.mode, length=args.length,
                          seed=args.seed, normalization=args.normalization)
    rows = gamma_sweep(kernel, args.omega, args.mode, spec, args.gammas, args.n, args.m)
    columns = ["gamma", "abs_l2", "abs_linf", "rel_l2", "rel_linf"]
    body = [(r.gamma, r.abs_l2, r.abs_linf, r.rel_l2, r.rel_linf) for r in rows]
    _emit(args, "sweep-gamma", _config(args, args.flags, engine=ENGINE), columns, body)
    return EXIT_OK


def _cmd_sweep_noise(args) -> int:
    if args.length is None:
        args.length = args.n
    b = budget(args.a, args.omega, args.eps, 0.0, args.n)
    rows = noise_sweep_for(b, args.nus, args.m, seed=args.seed, length=args.length)
    computed = ("kappa", "alpha", "omega1", "psi0", "mu", "gamma_eps", "i1", "i2", "i3", "i2_cap")
    config = _config(args, args.flags, **{key: getattr(b, key) for key in computed},
                     engine=ENGINE)
    columns = ["nu", "measured_linf", "budget_i12", "budget_nu_i3"]
    body = [(r.nu, r.measured_linf, r.budget_i12, r.budget_nu_i3) for r in rows]
    _emit(args, "sweep-noise", config, columns, body)
    return EXIT_OK


def _cmd_split(args) -> int:
    low_spec = BandSignalSpec(omega=args.omega, mode="low", length=args.length, seed=args.seed)
    high_spec = BandSignalSpec(omega=args.omega, mode="high", length=args.length, seed=args.seed + 1)
    low = gen_band_signal(low_spec, args.n)
    high = gen_band_signal(high_spec, args.n)
    x = Signal(0, (low.values + high.values) / math.sqrt(2.0))
    kernel = FirstOrderKernel(args.a, args.b)
    report = corollary_split_experiment(x, args.omega, kernel,
                                        args.gamma_low, args.gamma_high, args.n, args.m)
    columns = ["combined_rel_l2", "low_rel_l2", "high_rel_l2", "low_energy", "high_energy"]
    rows = [(report.combined_rel_l2, report.low_rel_l2, report.high_rel_l2,
             report.low_energy, report.high_energy)]
    _emit(args, "split", _config(args, args.flags, engine=ENGINE), columns, rows)
    return EXIT_OK


# ------------------------------------------------------------------ parser

# command -> (handler, help, the flags it takes in order; --out and --format
# are added to every command and not echoed)
COMMANDS = {
    "kernel": (_cmd_kernel, "dump transfer curves and causal taps", _KERNEL_FLAGS),
    "gen": (_cmd_gen, "generate a test signal",
            ("omega!", "mode", "nu", "length!", "seed", "n!", "normalization")),
    "predict": (_cmd_predict, "run one prediction",
                _KERNEL_FLAGS + ("input", "nu", "length", "seed", "normalization")),
    "sweep-gamma": (_cmd_sweep_gamma, "error norms along a damping sweep",
                    ("a!", "b", "omega!", "mode!", "gammas", "n!", "m!", "length!", "seed",
                     "normalization")),
    "sweep-noise": (_cmd_sweep_noise, "measured error vs budget along a noise sweep",
                    ("a!", "omega!", "eps!", "nus", "n!", "m!", "length", "seed")),
    "split": (_cmd_split, "two-band split prediction experiment",
              ("a!", "b", "omega!", "gamma_low!", "gamma_high!", "n!", "m!", "length!", "seed")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full parser, built on first use and shared by every later call in the process."""
    parser = argparse.ArgumentParser(
        prog="bandpredict",
        description="Causal predicting kernels for band-limited sequences: "
                    "design dumps, test signals, predictions, and experiment sweeps.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, flags) in COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        sub._negative_number_matcher = _NEGATIVE_VALUE
        for flag in (*flags, "out!", "format"):
            name = flag.rstrip("!")
            kwargs = dict(FLAGS[name])
            option = kwargs.pop("flag", "--" + name.replace("_", "-"))
            sub.add_argument(option, dest=name, required=flag.endswith("!"), **kwargs)
        sub.set_defaults(handler=handler, flags=tuple(flag.rstrip("!") for flag in flags))
    return parser


# mallopt parameter numbers from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_heap_resident() -> None:
    """The heap policy of the module docstring, set once per process; glibc only."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no mallopt in this C library
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 1 << 25)


def main(argv=None) -> int:
    _keep_heap_resident()
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (PredictionError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else getattr(exc, "exit_code", EXIT_OTHER)


if __name__ == "__main__":
    raise SystemExit(main())
