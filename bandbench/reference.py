"""Plain-numpy reference for every output the benchmark's jobs write.

Nothing here imports `artifact`: each quantity is recomputed from its
definition, so a change inside the package cannot move the reference with it.

- Taps invert Khat = V*K on the grid, V = 1 - exp(E), E = gamma*s*(z+a)/(z+alpha).
- Target and forecast are direct sums through `np.convolve`.
- Norms follow `error_report`: the relative columns divide by the rectangle-rule
  L2 norm of the input spectrum, which by Parseval is sqrt(2*pi*sum|x|^2).

Cells are compared by column name, so columns added by a later file format do
not break the check.  Cells that depend on the predictor taps are compared
numerically only when the damping exponent max Re(E) over the grid is at most
TRUST_EXPONENT.  Past it, the taps carry components of size exp(max Re E) and
the convolution output is roundoff that a change of engine or precision may
legitimately alter, so only the shape of those rows is checked.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

TRUST_EXPONENT = 20.0

# |got - want| <= RTOL * max(1, |want|) per cell.  At the trust limit the taps
# reach exp(20) ~ 5e8; the worst gap measured against the package's numpy
# engine is 1.4e-10 (gamma=-32 on the low ladder), and the compiled and numpy
# engines agree to 1.4e-9 there, so 1e-8 admits a change of summation order.
RTOL = 1e-8

TAIL_TOL = 1e-12


# ------------------------------------------------------------ definitions

def grid(n: int) -> np.ndarray:
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


def alpha(a: float, omega: float) -> float:
    c = math.cos(omega)
    return -(1.0 + a * c) / (a + c)


def _exponent(a: float, omega: float, gamma: float, n: int) -> np.ndarray:
    al = alpha(a, omega)
    s = 1.0 if a + al > 0 else -1.0
    z = np.exp(1j * grid(n))
    return gamma * s * (z + a) / (z + al)


@lru_cache(maxsize=256)
def damping_exponent(a: float, omega: float, gamma: float, n: int) -> float:
    """max over the grid of Re(gamma * s * (z+a)/(z+alpha))."""
    return float(np.max(_exponent(a, omega, gamma, n).real))


def trusted(a: float, omega: float, gamma: float, n: int) -> bool:
    return damping_exponent(a, omega, gamma, n) <= TRUST_EXPONENT


def psi(a: float, omega: float, w) -> np.ndarray:
    al = alpha(a, omega)
    s = 1.0 if a + al > 0 else -1.0
    c = np.cos(w)
    return s * (1.0 + a * al + (a + al) * c) / (1.0 + al * al + 2.0 * al * c)


def transfers(a: float, omega: float, gamma: float, n: int):
    """(K, V, Khat) on the grid for the plain-pole kernel 1/(z+a)."""
    z = np.exp(1j * grid(n))
    k = 1.0 / (z + a)
    v = 1.0 - np.exp(_exponent(a, omega, gamma, n))
    return k, v, v * k


@lru_cache(maxsize=64)
def taps(a: float, omega: float, gamma: float, n: int, m: int) -> np.ndarray:
    """khat(0) .. khat(m-1): the grid inverse of Khat read at t mod n."""
    khat = transfers(a, omega, gamma, n)[2]
    out = np.fft.ifft(np.fft.ifftshift(khat))[:m].real.copy()
    out.flags.writeable = False
    return out


def tail_len(a: float) -> int:
    mag = abs(a)
    return max(math.ceil(math.log(TAIL_TOL * (mag - 1.0)) / math.log(1.0 / mag)), 0)


def _hermitize(vals: np.ndarray) -> np.ndarray:
    n = vals.size
    return 0.5 * (vals + np.conj(vals[(n - np.arange(n)) % n]))


def _window(spectrum: np.ndarray, length: int) -> np.ndarray:
    return np.fft.ifft(np.fft.ifftshift(spectrum))[:length]


def band_signal(omega: float, mode: str, length: int, seed: int, n: int) -> np.ndarray:
    """Seeded Gaussian draw on the band's bins, made real, unit l2 over the window."""
    rng = np.random.default_rng(seed)
    draw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    spec = _hermitize(draw)
    absom = np.abs(grid(n))
    spec[~(absom <= omega if mode == "low" else absom >= omega)] = 0.0
    win = _window(spec, length)
    return win.real / np.sqrt(np.sum(np.abs(win) ** 2))


def noisy_signal(omega: float, nu: float, length: int, seed: int, n: int) -> np.ndarray:
    """Uniform magnitudes and phases, envelope 1 on the closed band and nu off it."""
    rng = np.random.default_rng(seed)
    mags = rng.uniform(0.0, 1.0, n)
    phases = rng.uniform(0.0, 2.0 * np.pi, n)
    env = np.where(np.abs(grid(n)) <= omega, 1.0, nu)
    return _window(_hermitize(env * mags * np.exp(1j * phases)), length).real


def target(x: np.ndarray, start: int, count: int, a: float) -> np.ndarray:
    """y(t) = sum_{u=0}^{L} (1/a)(-1/a)^u x(t+u), t at positions start .. start+count-1."""
    g = (1.0 / a) * (-1.0 / a) ** np.arange(tail_len(a) + 1)
    return np.convolve(x[start : start + count + g.size - 1], g[::-1], "valid")


def forecast(x: np.ndarray, start: int, count: int, h: np.ndarray) -> np.ndarray:
    """yhat(t) = sum_{u=0}^{m-1} h(u) x(t-u)."""
    return np.convolve(x[start - h.size + 1 : start + count], h, "valid")


def spectrum_l2(x: np.ndarray) -> float:
    return math.sqrt(2.0 * math.pi * float(np.sum(np.abs(x) ** 2)))


def errors(y: np.ndarray, yhat: np.ndarray, l2x: float) -> dict:
    diff = y - yhat
    abs_l2 = math.sqrt(float(np.sum(np.abs(diff) ** 2)))
    abs_linf = float(np.max(np.abs(diff)))
    return {"abs_l2": abs_l2, "abs_linf": abs_linf,
            "rel_l2": abs_l2 / l2x, "rel_linf": abs_linf / l2x}


def _score(x: np.ndarray, a: float, h: np.ndarray) -> dict:
    start = h.size
    count = x.size - h.size - tail_len(a)
    return errors(target(x, start, count, a), forecast(x, start, count, h), spectrum_l2(x))


def budget(a: float, omega: float, eps: float, n: int) -> dict:
    """gamma(eps), the i1+i2 sum and the nu=1 closed-form out-of-band bound.

    psi is a Moebius function of cos w, monotone on [0, omega], so its minimum
    over the inner band is psi(omega1).
    """
    om = grid(n)
    kappa = float(np.max(np.abs(1.0 / (np.exp(1j * om) + a))))
    al = alpha(a, omega)
    omega1 = omega - eps / 4.0
    psi0 = float(psi(a, omega, omega1))
    gamma_eps = -math.log(2.0 * kappa / eps) / psi0
    with np.errstate(over="ignore"):
        integrand = kappa * np.exp(gamma_eps * psi(a, omega, om))
    absom = np.abs(om)
    i12 = float(np.sum(integrand[absom <= omega]) * 2.0 * np.pi / n)
    mu = 1.0 + abs(a - al) / (1.0 - al)
    if (mu / psi0) * math.log(2.0 * kappa / eps) > 700.0:
        unit_nu_i3 = math.inf
    else:
        unit_nu_i3 = 2.0 * kappa * (math.pi - omega) * (2.0 * kappa / eps) ** (mu / psi0)
    return {"gamma_eps": gamma_eps, "i12": i12, "unit_nu_i3": unit_nu_i3}


# ------------------------------------------------------------ file reading

def _parse_omega(text: str) -> float:
    """The angle forms the workloads use: plain radians or pi/k."""
    if text.startswith("pi"):
        return math.pi / float(text[3:]) if "/" in text else math.pi
    return float(text)


def parse_argv(argv: list[str]) -> tuple[str, dict]:
    opts = {}
    rest = iter(argv[1:])
    for item in rest:
        key, eq, val = item[2:].partition("=")
        opts[key] = val if eq else next(rest)
    return argv[0], opts


def taps_path(out: str) -> str:
    stem, _, suffix = out.rpartition(".")
    return f"{stem}.taps.{suffix}"


def _columns(names, rows) -> dict:
    cols = np.array(rows, dtype=float).reshape(len(rows), len(names)).T
    return dict(zip(names, cols))


def read_table(path: str, section: str | None = None) -> dict:
    """Column name -> float array, from a CSV or a JSON document."""
    with open(path, encoding="utf-8") as handle:
        if path.endswith(".json"):
            doc = json.load(handle)
            if section is not None:
                doc = doc[section]
            return _columns(doc["columns"], doc["rows"])
        lines = [ln for ln in handle.read().splitlines() if ln and not ln.startswith("#")]
    return _columns(lines[0].split(","), [[float(c) for c in ln.split(",")] for ln in lines[1:]])


# ------------------------------------------------------------ comparison

class Mismatch(Exception):
    """An output file differs from the reference."""


def _compare(table: dict, want: dict, rows=slice(None), label: str = "") -> None:
    for name, ref in want.items():
        if name not in table:
            raise Mismatch(f"{label}missing column {name!r}")
        got = np.atleast_1d(table[name][rows])
        ref = np.broadcast_to(np.asarray(ref, dtype=float), got.shape)
        bad = ~((np.abs(got - ref) <= RTOL * np.maximum(1.0, np.abs(ref))) | (got == ref))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise Mismatch(f"{label}{name}[{i}] = {got.flat[i]!r}, reference {ref.flat[i]!r}")


def _rows(table: dict, count: int, label: str = "") -> None:
    lengths = {v.size for v in table.values()}
    if lengths != {count}:
        raise Mismatch(f"{label}expected {count} rows, got {sorted(lengths)}")


def _check_kernel(opts: dict, out: str) -> None:
    a, omega, gamma = float(opts["a"]), _parse_omega(opts["omega"]), float(opts["gamma"])
    n, m = int(opts["n"]), int(opts["m"])
    json_doc = opts.get("format") == "json"
    grid_t = read_table(out, "grid" if json_doc else None)
    taps_t = read_table(out, "taps") if json_doc else read_table(taps_path(out))
    k, v, khat = transfers(a, omega, gamma, n)
    _rows(grid_t, n, "grid: ")
    _compare(grid_t, {"omega": grid(n), "k_re": k.real, "k_im": k.imag, "v_re": v.real,
                      "v_im": v.imag, "khat_re": khat.real, "khat_im": khat.imag,
                      "psi": psi(a, omega, grid(n))}, label="grid: ")
    _rows(taps_t, m, "taps: ")
    _compare(taps_t, {"t": np.arange(m)}, label="taps: ")
    if trusted(a, omega, gamma, n):
        _compare(taps_t, {"khat": taps(a, omega, gamma, n, m)}, label="taps: ")


def _signal(opts: dict) -> np.ndarray:
    omega, n = _parse_omega(opts["omega"]), int(opts["n"])
    length, seed = int(opts["length"]), int(opts.get("seed", 0))
    if "nu" in opts:
        return noisy_signal(omega, float(opts["nu"]), length, seed, n)
    return band_signal(omega, opts.get("mode", "low"), length, seed, n)


def _check_gen(opts: dict, out: str) -> None:
    x = _signal(opts)
    table = read_table(out)
    _rows(table, x.size)
    _compare(table, {"t": np.arange(x.size), "x_re": x, "x_im": 0.0})


def _check_predict(opts: dict, out: str) -> None:
    a, omega, gamma = float(opts["a"]), _parse_omega(opts["omega"]), float(opts["gamma"])
    n, m = int(opts["n"]), int(opts["m"])
    if "input" in opts:
        x = read_table(opts["input"])["x_re"]
    else:
        x = _signal(opts)
    table = read_table(out)
    _rows(table, 1)
    if trusted(a, omega, gamma, n):
        _compare(table, _score(x, a, taps(a, omega, gamma, n, m)))


def _check_sweep_gamma(opts: dict, out: str) -> None:
    a, omega, mode = float(opts["a"]), _parse_omega(opts["omega"]), opts["mode"]
    n, m = int(opts["n"]), int(opts["m"])
    gammas = [float(g) for g in opts["gamma"].split(",")]
    x = band_signal(omega, mode, int(opts["length"]), int(opts["seed"]), n)
    table = read_table(out)
    _rows(table, len(gammas))
    _compare(table, {"gamma": gammas})
    for i, gamma in enumerate(gammas):
        if trusted(a, omega, gamma, n):
            _compare(table, _score(x, a, taps(a, omega, gamma, n, m)), rows=i,
                     label=f"gamma={gamma:g}: ")


def _check_sweep_noise(opts: dict, out: str) -> None:
    a, omega, eps = float(opts["a"]), _parse_omega(opts["omega"]), float(opts["eps"])
    n, m, seed = int(opts["n"]), int(opts["m"]), int(opts.get("seed", 0))
    nus = [float(v) for v in opts["nu"].split(",")]
    b = budget(a, omega, eps, n)
    table = read_table(out)
    _rows(table, len(nus))
    _compare(table, {"nu": nus, "budget_i12": b["i12"],
                     "budget_nu_i3": [nu * b["unit_nu_i3"] if nu else 0.0 for nu in nus]})
    if trusted(a, omega, b["gamma_eps"], n):
        h = taps(a, omega, b["gamma_eps"], n, m)
        measured = [_score(noisy_signal(omega, nu, n, seed, n), a, h)["abs_linf"] for nu in nus]
        _compare(table, {"measured_linf": measured})


def _check_split(opts: dict, out: str) -> None:
    a, omega = float(opts["a"]), _parse_omega(opts["omega"])
    g_low, g_high = float(opts["gamma-low"]), float(opts["gamma-high"])
    n, m, length, seed = int(opts["n"]), int(opts["m"]), int(opts["length"]), int(opts["seed"])
    table = read_table(out)
    _rows(table, 1)
    if not (trusted(a, omega, g_low, n) and trusted(a, omega, g_high, n)):
        return
    x = (band_signal(omega, "low", length, seed, n)
         + band_signal(omega, "high", length, seed + 1, n)) / math.sqrt(2.0)
    spec = np.fft.fftshift(np.fft.fft(x, n))
    keep = np.abs(grid(n)) <= omega
    low = _window(np.where(keep, spec, 0.0), length)
    high = _window(np.where(keep, 0.0, spec), length)
    start, count = m, length - m - tail_len(a)
    h_low, h_high = taps(a, omega, g_low, n, m), taps(a, omega, g_high, n, m)
    yhat_low, yhat_high = forecast(low, start, count, h_low), forecast(high, start, count, h_high)
    l2x = spectrum_l2(x)
    _compare(table, {
        "combined_rel_l2": errors(target(x, start, count, a), yhat_low + yhat_high, l2x)["rel_l2"],
        "low_rel_l2": errors(target(low, start, count, a), yhat_low, l2x)["rel_l2"],
        "high_rel_l2": errors(target(high, start, count, a), yhat_high, l2x)["rel_l2"],
        "low_energy": float(np.sum(np.abs(low) ** 2)),
        "high_energy": float(np.sum(np.abs(high) ** 2)),
    })


_CHECKS = {
    "kernel": _check_kernel,
    "gen": _check_gen,
    "predict": _check_predict,
    "sweep-gamma": _check_sweep_gamma,
    "sweep-noise": _check_sweep_noise,
    "split": _check_split,
}


def check(argv: list[str]) -> str | None:
    """None when the job's output files match the reference, else the reason."""
    command, opts = parse_argv(argv)
    try:
        _CHECKS[command](opts, opts["out"])
    except Mismatch as exc:
        return f"{command}: {exc}"
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{command}: unreadable output ({type(exc).__name__}: {exc})"
    return None
