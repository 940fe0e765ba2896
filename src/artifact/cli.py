"""Command-line front end.

Subcommands:
    kernel       dump transfer curves and causal taps for one configuration
    gen          generate a test signal (band-limited, high-frequency, or noisy)
    predict      run one prediction and report error norms
    sweep-gamma  error norms along a damping sweep
    sweep-noise  measured error vs budget along an out-of-band noise sweep
    split        two-band split prediction experiment

Output is CSV (default) or JSON.  CSV numbers carry 17 significant digits so
parsing them recovers the exact doubles; '#' header lines echo the full
scientific configuration, and identical flags always reproduce identical
bytes.  Exit codes: 0 ok, 2 parameter, 3 insufficient data, 4 causality
leak, 5 I/O, 6 saturation, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from ._engine import ENGINE
from .analysis import budget, corollary_split_experiment, gamma_sweep, noise_sweep
from .errors import (
    CausalityLeakError,
    InsufficientDataError,
    ParameterError,
    PredictionError,
    SaturationError,
)
from .kernels import (
    FirstOrderKernel,
    PredictorParams,
    alpha,
    causal_kernel,
    k_transfer,
    predictor_transfer,
    psi,
    tap_l1_tail,
    v_transfer,
)
from .predictor import PredictionRun, anticausal_tail_len, error_report, forecast, target
from .signals import BandSignalSpec, NoisySpectrumSpec, gen_band_signal, gen_noisy_spectrum
from .spectral import Signal, grid_omegas, norm, spectrum_l2

FORMAT_VERSION = "1"

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_PARAMETER = 2
EXIT_INSUFFICIENT_DATA = 3
EXIT_CAUSALITY_LEAK = 4
EXIT_IO = 5
EXIT_SATURATION = 6

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


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def _csv_document(command: str, config: list[tuple[str, object]],
                  columns: list[str], rows: list[list]) -> list[str]:
    lines = [f"# format-version: {FORMAT_VERSION}", f"# command: {command}"]
    for key, value in config:
        lines.append(f"# {key}={value}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    return lines


def _json_document(command: str, config: list[tuple[str, object]], body: dict) -> list[str]:
    doc = {
        "format_version": FORMAT_VERSION,
        "command": command,
        "config": {key: value for key, value in config},
    }
    doc.update(body)
    return [json.dumps(doc, sort_keys=True, indent=2)]


def _emit(args, command: str, config: list[tuple[str, object]],
          columns: list[str], rows: list[list], path: str | None = None) -> None:
    out = path if path is not None else args.out
    if args.format == "csv":
        _write_lines(out, _csv_document(command, config, columns, rows))
    else:
        body = {"columns": columns, "rows": [[_cell_json(c) for c in row] for row in rows]}
        _write_lines(out, _json_document(command, config, body))


def _cell_json(cell):
    if isinstance(cell, (int, np.integer)):
        return int(cell)
    return float(cell)


def _taps_path(out: str) -> str:
    if out.endswith(".csv") or out.endswith(".json"):
        stem, dot, suffix = out.rpartition(".")
        return f"{stem}.taps.{suffix}"
    return out + ".taps"


# ---------------------------------------------------------------- commands

def _cmd_kernel(args) -> int:
    kernel = FirstOrderKernel(args.a, args.b)
    params = PredictorParams(omega=args.omega, gamma=args.gamma, n=args.n, m=args.m, mode=args.mode)
    al = alpha(kernel.a, params.omega)
    om = grid_omegas(params.n)
    k = k_transfer(kernel, params.n).values
    v = v_transfer(kernel.a, al, params.gamma, params.n).values
    khat = predictor_transfer(kernel, params).values
    psis = psi(kernel.a, al, om)
    taps = causal_kernel(kernel, params)
    residual = abs(1.0 + al * kernel.a + (kernel.a + al) * math.cos(params.omega))
    config = [
        ("a", _fmt(kernel.a)),
        ("b", "" if kernel.b is None else _fmt(kernel.b)),
        ("omega", _fmt(params.omega)),
        ("gamma", _fmt(params.gamma)),
        ("mode", params.mode),
        ("n", params.n),
        ("m", params.m),
        ("alpha", _fmt(al)),
        ("root_identity_residual", _fmt(residual)),
        ("tap_l1_tail", _fmt(tap_l1_tail(kernel, params))),
        ("engine", ENGINE),
    ]
    grid_cols = ["omega", "k_re", "k_im", "v_re", "v_im", "khat_re", "khat_im", "psi"]
    grid_rows = [
        [om[j], k[j].real, k[j].imag, v[j].real, v[j].imag, khat[j].real, khat[j].imag, psis[j]]
        for j in range(params.n)
    ]
    tap_cols = ["t", "khat"]
    tap_rows = [[t, taps.values[t].real] for t in range(params.m)]
    if args.format == "csv":
        _emit(args, "kernel", config, grid_cols, grid_rows)
        _emit(args, "kernel-taps", config, tap_cols, tap_rows, path=_taps_path(args.out))
    else:
        body = {
            "grid": {"columns": grid_cols, "rows": [[_cell_json(c) for c in r] for r in grid_rows]},
            "taps": {"columns": tap_cols, "rows": [[_cell_json(c) for c in r] for r in tap_rows]},
        }
        _write_lines(args.out, _json_document("kernel", config, body))
    return EXIT_OK


def _signal_config(spec) -> list[tuple[str, object]]:
    if isinstance(spec, BandSignalSpec):
        return [
            ("signal", "band"),
            ("omega", _fmt(spec.omega)),
            ("mode", spec.mode),
            ("length", spec.length),
            ("seed", spec.seed),
            ("normalization", spec.normalization),
        ]
    return [
        ("signal", "noisy"),
        ("omega", _fmt(spec.omega)),
        ("nu", _fmt(spec.nu)),
        ("length", spec.length),
        ("seed", spec.seed),
    ]


def _make_signal(args) -> tuple[Signal, list[tuple[str, object]]]:
    if args.nu is not None:
        spec = NoisySpectrumSpec(omega=args.omega, nu=args.nu, seed=args.seed, length=args.length)
        return gen_noisy_spectrum(spec, args.n), _signal_config(spec)
    spec = BandSignalSpec(omega=args.omega, mode=args.mode, length=args.length,
                          seed=args.seed, normalization=args.normalization)
    return gen_band_signal(spec, args.n), _signal_config(spec)


def _cmd_gen(args) -> int:
    x, config = _make_signal(args)
    config.append(("n", args.n))
    columns = ["t", "x_re", "x_im"]
    rows = [[int(t), x.values[i].real, x.values[i].imag] for i, t in enumerate(x.times())]
    _emit(args, "gen", config, columns, rows)
    return EXIT_OK


def _read_time_series(path: str) -> Signal:
    times = []
    re_vals = []
    im_vals = []
    with open(path, "r", encoding="utf-8") as handle:
        header_seen = False
        for row, line in enumerate(handle, start=1):
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
                times.append(int(cells[0]))
                re_vals.append(float(cells[1]))
                im_vals.append(float(cells[2]))
            except ValueError:
                raise ParameterError(
                    f"{path} line {row}: expected an integer t and numeric x_re, x_im, "
                    f"got {line!r}"
                ) from None
    if not times:
        raise ParameterError(f"{path} holds no samples")
    start = times[0]
    if times != list(range(start, start + len(times))):
        raise ParameterError(f"{path} rows are not contiguous in t")
    return Signal(start, np.array(re_vals) + 1j * np.array(im_vals))


def _cmd_predict(args) -> int:
    if args.input is not None:
        x = _read_time_series(args.input)
        sig_config: list[tuple[str, object]] = [("input", "file")]
    elif args.length is None:
        raise ParameterError("predict needs a signal: pass --input FILE or --length N")
    else:
        x, sig_config = _make_signal(args)
    kernel = FirstOrderKernel(args.a, args.b)
    params = PredictorParams(omega=args.omega, gamma=args.gamma, n=args.n, m=args.m, mode=args.mode)
    t_a = x.start_index + params.m
    t_b = x.end_index - anticausal_tail_len(kernel.a)
    run = PredictionRun(x, kernel, params, t_a, t_b)
    y = target(run)
    yhat = forecast(run)
    l2x = spectrum_l2(x, args.n)
    rep = error_report(y, yhat, l2x)
    config = [
        ("a", _fmt(kernel.a)),
        ("b", "" if kernel.b is None else _fmt(kernel.b)),
        ("omega", _fmt(params.omega)),
        ("gamma", _fmt(params.gamma)),
        ("mode", params.mode),
        ("n", params.n),
        ("m", params.m),
        *sig_config,
        ("eval_start", t_a),
        ("eval_stop", t_b),
        ("tail_len", run.tail_len),
        ("x_spectrum_l2", _fmt(l2x)),
        ("target_l2", _fmt(norm(y, "l2"))),
        ("engine", ENGINE),
    ]
    columns = ["abs_l2", "abs_linf", "rel_l2", "rel_linf"]
    rows = [[rep.abs_l2, rep.abs_linf, rep.rel_l2_vs_l2x, rep.rel_linf_vs_l2x]]
    _emit(args, "predict", config, columns, rows)
    return EXIT_OK


def _default_gammas(mode: str) -> list[float]:
    sign = -1.0 if mode == "low" else 1.0
    return [sign * 2.0 ** k for k in range(9)]


def _cmd_sweep_gamma(args) -> int:
    gammas = args.gamma if args.gamma is not None else _default_gammas(args.mode)
    kernel = FirstOrderKernel(args.a, args.b)
    spec = BandSignalSpec(omega=args.omega, mode=args.mode, length=args.length,
                          seed=args.seed, normalization=args.normalization)
    rows = gamma_sweep(kernel, args.omega, args.mode, spec, gammas, args.n, args.m)
    config = [
        ("a", _fmt(kernel.a)),
        ("b", "" if kernel.b is None else _fmt(kernel.b)),
        ("omega", _fmt(args.omega)),
        ("mode", args.mode),
        ("gammas", ",".join(_fmt(g) for g in gammas)),
        ("n", args.n),
        ("m", args.m),
        ("length", args.length),
        ("seed", args.seed),
        ("normalization", args.normalization),
        ("engine", ENGINE),
    ]
    columns = ["gamma", "abs_l2", "abs_linf", "rel_l2", "rel_linf"]
    body = [[r.gamma, r.abs_l2, r.abs_linf, r.rel_l2, r.rel_linf] for r in rows]
    _emit(args, "sweep-gamma", config, columns, body)
    return EXIT_OK


def _cmd_sweep_noise(args) -> int:
    nus = args.nu if args.nu is not None else [0.0, 0.001, 0.01, 0.1]
    rows = noise_sweep(args.a, args.omega, args.eps, nus, args.n, args.m,
                       seed=args.seed, length=args.length)
    b = budget(args.a, args.omega, args.eps, 0.0, args.n)
    config = [
        ("a", _fmt(args.a)),
        ("omega", _fmt(args.omega)),
        ("eps", _fmt(args.eps)),
        ("nus", ",".join(_fmt(v) for v in nus)),
        ("n", args.n),
        ("m", args.m),
        ("length", args.length if args.length is not None else args.n),
        ("seed", args.seed),
        ("kappa", _fmt(b.kappa)),
        ("alpha", _fmt(b.alpha)),
        ("omega1", _fmt(b.omega1)),
        ("psi0", _fmt(b.psi0)),
        ("mu", _fmt(b.mu)),
        ("gamma_eps", _fmt(b.gamma_eps)),
        ("i1", _fmt(b.i1)),
        ("i2", _fmt(b.i2)),
        ("i3", _fmt(b.i3)),
        ("i2_cap", _fmt(b.i2_cap)),
        ("engine", ENGINE),
    ]
    columns = ["nu", "measured_linf", "budget_i12", "budget_nu_i3"]
    body = [[r.nu, r.measured_linf, r.budget_i12, r.budget_nu_i3] for r in rows]
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
    config = [
        ("a", _fmt(kernel.a)),
        ("b", "" if kernel.b is None else _fmt(kernel.b)),
        ("omega", _fmt(args.omega)),
        ("gamma_low", _fmt(args.gamma_low)),
        ("gamma_high", _fmt(args.gamma_high)),
        ("n", args.n),
        ("m", args.m),
        ("length", args.length),
        ("seed", args.seed),
        ("engine", ENGINE),
    ]
    columns = ["combined_rel_l2", "low_rel_l2", "high_rel_l2", "low_energy", "high_energy"]
    rows = [[report.combined_rel_l2, report.low_rel_l2, report.high_rel_l2,
             report.low_energy, report.high_energy]]
    _emit(args, "split", config, columns, rows)
    return EXIT_OK


# ------------------------------------------------------------------ parser

def _add_common_output(sub) -> None:
    sub.add_argument("--out", required=True, help="output file path")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandpredict",
        description="Causal predicting kernels for band-limited sequences: "
                    "design dumps, test signals, predictions, and experiment sweeps.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    kernel = subs.add_parser("kernel", help="dump transfer curves and causal taps")
    kernel.add_argument("--a", type=float, required=True)
    kernel.add_argument("--b", type=float, default=None)
    kernel.add_argument("--omega", type=_omega_argument, required=True)
    kernel.add_argument("--gamma", type=float, required=True)
    kernel.add_argument("--mode", choices=("low", "high"), required=True)
    kernel.add_argument("--n", type=int, required=True)
    kernel.add_argument("--m", type=int, required=True)
    _add_common_output(kernel)
    kernel.set_defaults(handler=_cmd_kernel)

    gen = subs.add_parser("gen", help="generate a test signal")
    gen.add_argument("--omega", type=_omega_argument, required=True)
    gen.add_argument("--mode", choices=("low", "high"), default="low")
    gen.add_argument("--nu", type=float, default=None,
                     help="generate the bounded noisy spectrum instead of a band draw")
    gen.add_argument("--length", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--normalization", choices=("unit_l2", "unit_spectrum_linf"),
                     default="unit_l2")
    _add_common_output(gen)
    gen.set_defaults(handler=_cmd_gen)

    predict = subs.add_parser("predict", help="run one prediction")
    predict.add_argument("--a", type=float, required=True)
    predict.add_argument("--b", type=float, default=None)
    predict.add_argument("--omega", type=_omega_argument, required=True)
    predict.add_argument("--gamma", type=float, required=True)
    predict.add_argument("--mode", choices=("low", "high"), required=True)
    predict.add_argument("--n", type=int, required=True)
    predict.add_argument("--m", type=int, required=True)
    predict.add_argument("--input", default=None, help="time-series CSV from the gen command")
    predict.add_argument("--nu", type=float, default=None)
    predict.add_argument("--length", type=int, default=None)
    predict.add_argument("--seed", type=int, default=0)
    predict.add_argument("--normalization", choices=("unit_l2", "unit_spectrum_linf"),
                         default="unit_l2")
    _add_common_output(predict)
    predict.set_defaults(handler=_cmd_predict)

    sweep_gamma = subs.add_parser("sweep-gamma", help="error norms along a damping sweep")
    sweep_gamma.add_argument("--a", type=float, required=True)
    sweep_gamma.add_argument("--b", type=float, default=None)
    sweep_gamma.add_argument("--omega", type=_omega_argument, required=True)
    sweep_gamma.add_argument("--mode", choices=("low", "high"), required=True)
    sweep_gamma.add_argument("--gamma", type=_float_list, default=None,
                             help="comma-separated list; default -1,-2,...,-256 (low) "
                                  "or 1,2,...,256 (high)")
    sweep_gamma.add_argument("--n", type=int, required=True)
    sweep_gamma.add_argument("--m", type=int, required=True)
    sweep_gamma.add_argument("--length", type=int, required=True)
    sweep_gamma.add_argument("--seed", type=int, default=0)
    sweep_gamma.add_argument("--normalization", choices=("unit_l2", "unit_spectrum_linf"),
                             default="unit_l2")
    _add_common_output(sweep_gamma)
    sweep_gamma.set_defaults(handler=_cmd_sweep_gamma)

    sweep_noise = subs.add_parser("sweep-noise", help="measured error vs budget along a noise sweep")
    sweep_noise.add_argument("--a", type=float, required=True)
    sweep_noise.add_argument("--omega", type=_omega_argument, required=True)
    sweep_noise.add_argument("--eps", type=float, required=True)
    sweep_noise.add_argument("--nu", type=_float_list, default=None,
                             help="comma-separated list; default 0,0.001,0.01,0.1")
    sweep_noise.add_argument("--n", type=int, required=True)
    sweep_noise.add_argument("--m", type=int, required=True)
    sweep_noise.add_argument("--length", type=int, default=None)
    sweep_noise.add_argument("--seed", type=int, default=0)
    _add_common_output(sweep_noise)
    sweep_noise.set_defaults(handler=_cmd_sweep_noise)

    split = subs.add_parser("split", help="two-band split prediction experiment")
    split.add_argument("--a", type=float, required=True)
    split.add_argument("--b", type=float, default=None)
    split.add_argument("--omega", type=_omega_argument, required=True)
    split.add_argument("--gamma-low", type=float, required=True)
    split.add_argument("--gamma-high", type=float, required=True)
    split.add_argument("--n", type=int, required=True)
    split.add_argument("--m", type=int, required=True)
    split.add_argument("--length", type=int, required=True)
    split.add_argument("--seed", type=int, default=0)
    _add_common_output(split)
    split.set_defaults(handler=_cmd_split)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SaturationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SATURATION
    except CausalityLeakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAUSALITY_LEAK
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT_DATA
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PredictionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    raise SystemExit(main())
