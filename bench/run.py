"""Benchmark of the `infoflow` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: closed loop, one client. The benchmark launches one CLI
process at a time (`python3 -m infoflow` on the checkout's `src/`, with
INFOFLOW_WORKERS=1 and one BLAS thread) and waits for it to exit, for about
S seconds. Every report is checked (see checks.py); reports of one run must
also be byte-identical. Set-up time is the median wall time of a few
`infoflow validate` runs on the workload's network.

The machine this runs on may change speed by tens of percent over minutes
(other tenants share it). So before every CLI invocation the benchmark also
runs calibrate.py, a fixed task that does not use `infoflow`, and reports
times at a reference speed: CAL_NOMINAL_S times the median, over the run's
invocations, of each invocation's time over the time of the calibration run
just before it. The raw medians and the speed factor are printed too. A
change to `infoflow` moves the workload times and not the calibration, so
it shows in full.

--trace 0 reports the end-to-end metrics. --trace 1 also runs the command
once under tracer.py, asserts that its report bytes equal the untraced ones,
and reports the per-layer metrics plus the tracing overhead (traced wall
time minus the untraced median). Human-readable lines come first; the last
line of stdout is one JSON object with keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import tracer
import workloads
from workloads import ROOT, WORKLOADS

CALIBRATE = [sys.executable, str(Path(__file__).resolve().with_name("calibrate.py"))]
CAL_NOMINAL_S = 0.4  # calibration time that defines the reference speed
SETUP_REPEATS = 5
MIN_INVOCATIONS = 3
INVOCATION_TIMEOUT_S = 120.0
CHILD_ENV = {
    "PYTHONPATH": str(ROOT / "src"),
    "INFOFLOW_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: bytes


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, check) -> None:
        """Run `check()` on one invocation; an exception counts it as failed."""
        self.attempted += 1
        try:
            check()
        except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")


def invoke(argv: list[str], work: Path) -> Invocation:
    """Run one child to completion; wall time from launch to exit."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env={**os.environ, **CHILD_ENV})
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall, usage.ru_maxrss / 1024, proc.returncode, out_path.read_bytes())


def cli(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "infoflow", *args]


def _report(inv: Invocation) -> dict:
    checks.require(inv.returncode == 0, f"exit code {inv.returncode}")
    try:
        return json.loads(inv.stdout)
    except json.JSONDecodeError as exc:
        raise checks.CheckFailed(f"report is not JSON: {exc}") from None


def check_validate(inv: Invocation, net: checks.Network) -> None:
    report = _report(inv)
    checks.require(report["command"] == "validate" and report["result"]["ok"] is True,
                   "validate did not accept the network")
    checks.require(report["input_digest"] == net.digest, "input digest does not match")


@dataclass
class Result:
    tally: Tally
    chains: int  # per invocation
    walls: list[float]
    speed: float  # nominal over measured calibration time: measured / reference speed
    e2e: dict[str, tuple[float, str]]
    layers: dict[str, tuple[float, str]]


def measure(w: workloads.Workload, network: Path, seed: int, seconds: float,
            trace: bool, work: Path) -> Result:
    net = checks.Network(network.read_bytes())
    check = w.checker(net)
    tally = Tally()
    chains = w.chains(net)

    cal: list[float] = []

    def after_calibration(argv: list[str]) -> Invocation:
        """Run the calibration task, then `argv`; records the calibration time."""
        c = invoke(CALIBRATE, work)
        if c.returncode != 0:
            raise RuntimeError(f"calibration task exited with {c.returncode}")
        cal.append(c.wall_s)
        return invoke(argv, work)

    # The first children compile bytecode and warm the page cache; not timed.
    setup = []
    for i in range(1 + SETUP_REPEATS):
        inv = after_calibration(cli(["validate", str(network)]))
        tally.record(f"validate {i}", lambda: check_validate(inv, net))
        if i:
            setup.append(inv.wall_s / cal[-1])
    del cal[:]

    argv = w.argv(network, seed)
    runs: list[Invocation] = []
    start = perf_counter()
    while True:
        inv = after_calibration(cli(argv))
        runs.append(inv)

        def check_run():
            check(_report(inv), seed)
            checks.require(inv.stdout == runs[0].stdout, "report bytes differ between repeats")

        tally.record(f"invocation {len(runs)}", check_run)
        walls = [r.wall_s for r in runs]
        elapsed = perf_counter() - start
        next_pair = statistics.median(walls) + statistics.median(cal)
        if len(runs) >= MIN_INVOCATIONS and elapsed + next_pair > seconds:
            break

    wall = CAL_NOMINAL_S * statistics.median(x / c for x, c in zip(walls, cal))
    e2e = {
        "wall_s": (wall, "s"),
        "chains_per_s": (chains / wall, "1/s"),
        "setup_s": (CAL_NOMINAL_S * statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in runs), "MB"),
    }
    layers = {}
    if trace:
        layers, traced_wall = traced(w, argv, runs[0].stdout, net, tally, work)
        if layers:
            layers["trace.overhead_s"] = (traced_wall - statistics.median(walls), "s")
    return Result(tally, chains, walls, CAL_NOMINAL_S / statistics.median(cal), e2e, layers)


def check_counts(w: workloads.Workload, net: checks.Network, layers: dict) -> None:
    """Exact counts a traced run must show whatever the timings."""
    if w.command[0] == "rank":
        want, got = checks.total_increments(net), layers["sensitivity.increments"][0]
        checks.require(got == want, f"sensitivity.increments {got} != {want}")
    if w.command[0] == "rank" and w.monte_carlo:
        want, got = w.chains(net), layers["rng.stream_calls"][0]
        checks.require(got == want, f"rng.stream_calls {got} != {want}")
    if not w.monte_carlo:
        for name in ("rng.stream_calls", "rng.gamma_calls"):
            checks.require(layers[name][0] == 0, f"{name} is {layers[name][0]}, not 0")


def traced(w: workloads.Workload, argv: list[str], untraced: bytes, net: checks.Network,
           tally: Tally, work: Path) -> tuple[dict, float]:
    """Per-layer metrics from one memory-probed and one timed traced run,
    and the timed run's wall time."""
    spans_path = work / "spans.json"
    peak = [0]
    layers = {}
    for mode in ("memory", "timing"):
        flags = ["--memory"] if mode == "memory" else []
        inv = invoke([sys.executable, str(Path(tracer.__file__)), "--spans", str(spans_path),
                      *flags, "--", *argv], work)

        def check_traced():
            checks.require(inv.returncode == 0, f"traced exit code {inv.returncode}")
            checks.require(inv.stdout == untraced, "traced report bytes differ from untraced")
            doc = json.loads(spans_path.read_text())
            if mode == "memory":
                peak[0] = doc["draw_peak_bytes"]
            else:
                layers.update(tracer.layer_metrics(doc, peak[0]))
                check_counts(w, net, layers)

        tally.record(f"traced {mode} run", check_traced)
    return layers, inv.wall_s


def _fmt(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<28} {value:>14.6g} {unit:<6} {note}".rstrip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark the infoflow CLI on one workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="the CLI's Monte Carlo seed")
    ap.add_argument("--seconds", type=float, required=True, help="measurement time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--net-seed", type=int, default=None,
                    help="override the pinned generator seed of a synthetic network")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "infoflow" / "cli.py").is_file():
        print(f"bench: no infoflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        network = workloads.materialize(w, work, args.net_seed)
        res = measure(w, network, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    tally = res.tally
    failed = len(tally.failures)
    for msg in tally.failures[:10]:
        print(f"bench: FAILED {msg}", file=sys.stderr)
    walls = res.walls
    print(f"workload {w.name}  seed {args.seed}  chains/invocation {res.chains}  "
          f"closed loop, 1 client, INFOFLOW_WORKERS=1")
    notes = {
        "wall_s": f"median of {len(walls)} at reference speed; measured median "
                  f"{statistics.median(walls):.4f}, max {max(walls):.4f}",
        "setup_s": f"median of {SETUP_REPEATS} at reference speed",
    }
    for name, (value, unit) in res.e2e.items():
        print(_fmt(name, value, unit, notes.get(name, "")))
    print(_fmt("error_rate", failed / tally.attempted, "ratio",
               f"{failed} of {tally.attempted} invocations"))
    print(_fmt("speed_factor", res.speed, "ratio",
               f"measured / reference speed, calibration median {CAL_NOMINAL_S / res.speed:.4f} s"))
    metrics = res.e2e
    if args.trace:
        for name, (value, unit) in res.layers.items():
            print(_fmt(name, value, unit))
        metrics = res.layers
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
