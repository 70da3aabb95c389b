"""Traced `infoflow` invocation: per-layer spans and counts.

Run as a child process, it imports `infoflow` from the checkout's `src/`,
replaces the names each calling module bound to a layer's public functions
with timed wrappers, and calls `infoflow.cli.cli_main` in process. The
report goes to stdout exactly as the untraced CLI writes it. Spans (name,
start, end, parent) stay in memory and are written to `--spans` once the
command has finished:

    python3 bench/tracer.py --spans spans.json -- rank --mode plugin ... net.json

With `--memory` it installs only a tracemalloc probe around `draw_samples`
and records its peak, so allocation tracing does not inflate the timings of
the timing run.
"""

from __future__ import annotations

import argparse
import json
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# (module, bound name, span name). Each module that calls a layer binds
# the function under its own name, so each binding is patched where it is
# looked up. `install` wraps four more bindings that also count work:
# simulation.stream, draw_samples, sweep_ineffective, report_to_json_bytes.
# A binding the program no longer has is left alone; its metrics read 0.
WRAPPED = (
    ("simulation", "summarize", "simulation.summarize"),
    ("simulation", "_compiled", "network.compile"),
    ("network", "_compiled", "network.compile"),
    ("network", "validate", "network.validate"),
    ("documents", "validate", "network.validate"),
    ("cli", "validate", "network.validate"),
    ("sensitivity", "plug_in_chain", "network.plug_in"),
    ("cli", "plug_in_chain", "network.plug_in"),
    ("network", "build_canonical", "markov.build"),
    ("sensitivity", "absorption_probabilities", "markov.absorb"),
    ("cli", "absorption_probabilities", "markov.absorb"),
    ("sensitivity", "rank_details", "sensitivity.rank"),
    ("sensitivity", "reallocate", "sensitivity.reallocate"),
    ("documents", "parse_network", "documents.parse"),
    ("documents", "input_digest", "documents.parse"),
    ("documents", "report_document", "documents.emit"),
    ("documents", "simulation_result", "documents.emit"),
    ("documents", "sweep_result", "documents.emit"),
    ("documents", "rank_result", "documents.emit"),
    ("documents", "evaluate_result", "documents.emit"),
    ("documents", "validation_result", "documents.emit"),
    ("documents", "report_to_csv_bytes", "documents.emit"),
)


class Tracer:
    """Spans and work counts of one traced invocation."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts = {"iterations": 0, "increments": 0, "report_bytes": 0}

    def call(self, name: str, fn, args, kwargs):
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced


class _Proxy:
    """Attribute access falls through to `target` except for `overrides`."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _rebind(module, attr: str, make) -> None:
    """Replace `module.attr` by `make(original)` if the module has it."""
    if hasattr(module, attr):
        setattr(module, attr, make(getattr(module, attr)))


def install(tracer: Tracer, modules: dict) -> None:
    for mod, attr, name in WRAPPED:
        _rebind(modules[mod], attr, lambda fn, name=name: tracer.wrap(name, fn))
    simulation, sensitivity, documents = (
        modules["simulation"], modules["sensitivity"], modules["documents"])

    def traced_stream(stream):
        def fn(*args):
            gen = tracer.call("rng.stream", stream, args, {})
            return _Proxy(gen, standard_gamma=tracer.wrap("rng.gamma", gen.standard_gamma))
        return fn

    # Only the solve under draw_samples belongs to this layer; markov's own
    # solve stays inside markov.absorb.
    def traced_numpy(np):
        solve = tracer.wrap("simulation.solve", np.linalg.solve)
        return _Proxy(np, linalg=_Proxy(np.linalg, solve=solve))

    def traced_draw(draw):
        def fn(spec, iterations, *args, **kwargs):
            tracer.counts["iterations"] += iterations
            return tracer.call("simulation.draw", draw, (spec, iterations, *args), kwargs)
        return fn

    def traced_sweep(sweep):
        def fn(*args, **kwargs):
            result = tracer.call("sensitivity.sweep", sweep, args, kwargs)
            tracer.counts["increments"] += len(result.n_di_values)
            return result
        return fn

    def traced_to_json(to_json):
        def fn(report):
            data = tracer.call("documents.emit", to_json, (report,), {})
            tracer.counts["report_bytes"] += len(data)
            return data
        return fn

    _rebind(simulation, "stream", traced_stream)
    _rebind(simulation, "np", traced_numpy)
    _rebind(simulation, "draw_samples", traced_draw)
    _rebind(sensitivity, "draw_samples", traced_draw)
    _rebind(sensitivity, "sweep_ineffective", traced_sweep)
    _rebind(documents, "report_to_json_bytes", traced_to_json)


def install_memory_probe(peak: list, modules: dict) -> None:
    def probed(draw):
        def fn(*args, **kwargs):
            tracemalloc.start()
            try:
                return draw(*args, **kwargs)
            finally:
                peak[0] = max(peak[0], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return fn

    _rebind(modules["simulation"], "draw_samples", probed)
    _rebind(modules["sensitivity"], "draw_samples", probed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="traced infoflow CLI invocation")
    ap.add_argument("--spans", type=Path, required=True)
    ap.add_argument("--memory", action="store_true")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, str(ROOT / "src"))
    from infoflow import cli, documents, network, sensitivity, simulation

    modules = {"cli": cli, "documents": documents, "network": network,
               "sensitivity": sensitivity, "simulation": simulation}
    if args.memory:
        peak = [0]
        install_memory_probe(peak, modules)
        rc = cli.cli_main(cli_args)
        sys.stdout.flush()
        args.spans.write_text(json.dumps({"draw_peak_bytes": peak[0]}))
        return rc

    compiled = getattr(network, "_compiled", None)  # the lru_cache, for hit/miss counts
    tracer = Tracer()
    install(tracer, modules)
    rc = cli.cli_main(cli_args)
    sys.stdout.flush()
    info = compiled.cache_info() if hasattr(compiled, "cache_info") else None
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    args.spans.write_text(json.dumps({
        "names": names,
        "name": [index[s[0]] for s in tracer.spans],
        "start": [s[1] for s in tracer.spans],
        "end": [s[2] for s in tracer.spans],
        "parent": [s[3] for s in tracer.spans],
        "counts": {**tracer.counts, "compile_hits": info.hits if info else 0,
                   "compile_misses": info.misses if info else 0},
    }))
    return rc


def _self_times(doc: dict) -> dict[str, tuple[int, float, float]]:
    """name -> (span count, total span time, total self time)."""
    name = np.asarray(doc["name"], dtype=np.intp)
    dur = np.asarray(doc["end"]) - np.asarray(doc["start"])
    parent = np.asarray(doc["parent"], dtype=np.intp)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    out = {}
    for i, n in enumerate(doc["names"]):
        sel = name == i
        out[n] = (int(sel.sum()), float(dur[sel].sum()), float((dur[sel] - child[sel]).sum()))
    return out


def layer_metrics(doc: dict, draw_peak_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from a timing trace and the peak
    traced allocation inside draw_samples from a memory trace."""
    spans = _self_times(doc)
    counts = doc["counts"]

    def calls(n):
        return spans.get(n, (0, 0.0, 0.0))[0]

    def self_s(*ns):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in ns)

    iterations = counts["iterations"]
    draw_total = spans.get("simulation.draw", (0, 0.0, 0.0))[1]
    lookups = counts["compile_hits"] + counts["compile_misses"]
    return {
        "rng.stream_calls": (calls("rng.stream"), "count"),
        "rng.stream_s": (self_s("rng.stream"), "s"),
        "rng.gamma_calls": (calls("rng.gamma"), "count"),
        "rng.gamma_s": (self_s("rng.gamma"), "s"),
        "simulation.draw_calls": (calls("simulation.draw"), "count"),
        "simulation.draw_self_s": (self_s("simulation.draw"), "s"),
        "simulation.iter_us": (draw_total / iterations * 1e6 if iterations else 0.0, "us"),
        "simulation.solve_calls": (calls("simulation.solve"), "count"),
        "simulation.solve_s": (self_s("simulation.solve"), "s"),
        "simulation.draw_peak_mb": (draw_peak_bytes / 2**20, "MB"),
        "simulation.summarize_s": (self_s("simulation.summarize"), "s"),
        "network.validate_calls": (calls("network.validate"), "count"),
        "network.validate_s": (self_s("network.validate"), "s"),
        "network.compile_misses": (counts["compile_misses"], "count"),
        "network.compile_hits": (counts["compile_hits"], "count"),
        "network.compile_hit_ratio": (counts["compile_hits"] / lookups if lookups else 0.0, "ratio"),
        "network.compile_s": (self_s("network.compile"), "s"),
        "network.plug_in_calls": (calls("network.plug_in"), "count"),
        "network.plug_in_s": (self_s("network.plug_in"), "s"),
        "markov.build_calls": (calls("markov.build"), "count"),
        "markov.build_s": (self_s("markov.build"), "s"),
        "markov.absorb_calls": (calls("markov.absorb"), "count"),
        "markov.absorb_s": (self_s("markov.absorb"), "s"),
        "sensitivity.sweep_calls": (calls("sensitivity.sweep"), "count"),
        "sensitivity.increments": (counts["increments"], "count"),
        "sensitivity.sweep_self_s": (self_s("sensitivity.sweep", "sensitivity.rank"), "s"),
        "sensitivity.reallocate_s": (self_s("sensitivity.reallocate"), "s"),
        "documents.parse_s": (self_s("documents.parse"), "s"),
        "documents.emit_s": (self_s("documents.emit"), "s"),
        "documents.report_bytes": (counts["report_bytes"], "bytes"),
    }


if __name__ == "__main__":
    sys.exit(main())
