"""Per-layer spans and counters for the benchmark's traced run.

A layer is a module of `artifact`.  The tracer wraps each public function of a
layer module at every place it is looked up: modules bind each other's
functions at import (`from .predictor import forecast`), so `forecast` is
replaced as `artifact.predictor.forecast`, `artifact.analysis.forecast` and
`artifact.cli.forecast`.  The convolution is the sub-layer `predictor.conv`,
hooked by name as `artifact.predictor.windowed_dot`.  The package is not
edited, and `uninstall` puts every original back.

Spans are kept in memory and written out at the end.  Each job's root span is
the `cli` layer; a layer's self time is its spans' duration minus their child
spans, so the self times of one job add up to its traced duration.  A named
hook that no longer exists sets the metrics that need it to None.

Which end-to-end metric each layer metric should move, and on which workload:

    cli.self_ms, cli.bytes_out          job_p50_ms, jobs_per_s on interactive;
                                        nothing on sweep-long
    analysis.self_ms, analysis.calls    interactive; negligible elsewhere
    predictor.self_ms, predictor.conv.* job_p50_ms on sweep-long; no change
                                        on fine-grid
    kernels.*                           fine-grid most, sweep-long by about
                                        a fifth
    spectral.*                          fine-grid
    signals.*                           interactive
    import.*                            setup_s
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("analysis", "predictor", "kernels", "spectral", "signals")
CONV_HOOK = ("artifact.predictor", "windowed_dot")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_conv(tr, args, kwargs, result):
    tr.counts["mac"] += len(_arg(args, kwargs, 0, "taps")) * _arg(args, kwargs, 3, "count")


def _count_tapset(tr, args, kwargs, result):
    tr.counts["inversions"] += 1
    tr.counts["tapsets"] += 1


def _count_inversion(tr, args, kwargs, result):
    tr.counts["inversions"] += 1


def _count_k_transfer(tr, args, kwargs, result):
    kernel, n = _arg(args, kwargs, 0, "kernel"), _arg(args, kwargs, 1, "n")
    tr.counts["k_transfer"] += 1
    tr.counts["grid_points"] += n
    tr.transfer_keys.add((tr.job, kernel.a, kernel.b, n))


def _count_v_transfer(tr, args, kwargs, result):
    tr.counts["grid_points"] += _arg(args, kwargs, 3, "n")


def _count_dtft(tr, args, kwargs, result):
    tr.counts["fft_points"] += _arg(args, kwargs, 1, "n")


def _count_inverse(tr, args, kwargs, result):
    tr.counts["fft_points"] += _arg(args, kwargs, 0, "X").n


def _count_samples(tr, args, kwargs, result):
    for part in result if isinstance(result, tuple) else (result,):
        if type(part).__name__ == "Signal":
            tr.counts["samples"] += len(part)


def _count_call(tr, args, kwargs, result):
    tr.counts["analysis_calls"] += 1


COUNTERS = {
    "predictor.conv": _count_conv,
    "kernels.causal_kernel": _count_tapset,
    "kernels.tap_l1_tail": _count_inversion,
    "kernels.causality_leak_ratio": _count_inversion,
    "kernels.k_transfer": _count_k_transfer,
    "kernels.v_transfer": _count_v_transfer,
    "spectral.dtft_on_grid": _count_dtft,
    "spectral.inverse_grid": _count_inverse,
}
LAYER_COUNTERS = {"signals": _count_samples, "analysis": _count_call}

# metric -> hooks it needs; a missing hook makes the metric None
NEEDS = {
    "predictor.conv.self_ms": ("predictor.conv",),
    "predictor.conv.mac": ("predictor.conv",),
    "predictor.conv.gmac_per_s": ("predictor.conv",),
    "kernels.grid_points": ("kernels.k_transfer", "kernels.v_transfer"),
    "kernels.inversions_per_tapset": ("kernels.causal_kernel", "kernels.tap_l1_tail",
                                      "kernels.causality_leak_ratio"),
    "kernels.transfer_useful_ratio": ("kernels.k_transfer",),
    "spectral.fft_points": ("spectral.dtft_on_grid", "spectral.inverse_grid"),
}


class Tracer:
    """Spans (job, parent, layer, name, t0, t1) and counters for traced jobs."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.counts = Counter()
        self.transfer_keys = set()
        self.hooked = set()
        self._sites = None

    # -------------------------------------------------------------- hooks

    def _wrap(self, fn, layer, name, counter):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (self.job, parent, layer, name, t0, t1)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patches(self) -> list:
        """(module, attribute, original, wrapper) for every lookup site."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == "artifact" or key.startswith("artifact."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"artifact.{layer}")
            for attr, fn in vars(mod).items() if mod is not None else ():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                counter = COUNTERS.get(name, LAYER_COUNTERS.get(layer))
                wrappers[id(fn)] = (fn, self._wrap(fn, layer, name, counter))
                self.hooked.add(name)
        conv = getattr(sys.modules.get(CONV_HOOK[0]), CONV_HOOK[1], None)
        if conv is not None:
            wrappers[id(conv)] = (conv, self._wrap(conv, "predictor.conv", "predictor.conv",
                                                   _count_conv))
            self.hooked.add("predictor.conv")
        patches = []
        for mod in modules:
            for attr, val in vars(mod).items():
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    patches.append((mod, attr, val, hit[1]))
        return patches

    def install(self) -> None:
        """Swap the wrappers in; the lookup sites are found on the first call."""
        if self._sites is None:
            self._sites = self._patches()
        for mod, attr, _, wrapper in self._sites:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._sites or ():
            setattr(mod, attr, original)

    # -------------------------------------------------------------- jobs

    def begin_job(self, job: int) -> int:
        self.job = job
        sid = len(self.spans)
        self.spans.append(None)
        self.stack[:] = [sid]
        return sid

    def end_job(self, sid: int, t0: float, t1: float) -> None:
        self.spans[sid] = (self.job, None, "cli", "cli.main", t0, t1)
        self.stack.clear()

    # -------------------------------------------------------------- results

    def self_seconds(self) -> dict:
        """Layer -> summed self time over all spans."""
        child = defaultdict(float)
        for _, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for sid, (_, _, layer, _, t0, t1) in enumerate(self.spans):
            out[layer] += (t1 - t0) - child[sid]
        return out

    def metrics(self, jobs: int) -> dict:
        """Per-layer metrics, per traced job where they are amounts."""
        busy = self.self_seconds()
        c = self.counts
        present = {name.split(".")[0] for name in self.hooked} | {"cli"}
        out = {}
        for layer in ("cli",) + LAYERS:
            out[f"{layer}.self_ms"] = 1e3 * busy[layer] / jobs if layer in present else None
        out["analysis.calls"] = c["analysis_calls"] / jobs if "analysis" in present else None
        out["signals.samples"] = c["samples"] / jobs if "signals" in present else None
        out["predictor.conv.self_ms"] = 1e3 * busy["predictor.conv"] / jobs
        out["predictor.conv.mac"] = c["mac"] / jobs
        conv_s = busy["predictor.conv"]
        out["predictor.conv.gmac_per_s"] = c["mac"] / conv_s / 1e9 if conv_s > 0 else None
        out["kernels.grid_points"] = c["grid_points"] / jobs
        out["kernels.inversions_per_tapset"] = (c["inversions"] / c["tapsets"]
                                                if c["tapsets"] else None)
        out["kernels.transfer_useful_ratio"] = (len(self.transfer_keys) / c["k_transfer"]
                                                if c["k_transfer"] else None)
        out["spectral.fft_points"] = c["fft_points"] / jobs
        for metric, hooks in NEEDS.items():
            if not all(h in self.hooked for h in hooks):
                out[metric] = None
        return out

    def write_spans(self, path) -> None:
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("job,span,parent,layer,name,t0_us,t1_us\n")
            for sid, (job, parent, layer, name, t0, t1) in enumerate(self.spans):
                handle.write(f"{job},{sid},{'' if parent is None else parent},{layer},{name},"
                             f"{(t0 - origin) * 1e6:.1f},{(t1 - origin) * 1e6:.1f}\n")
