"""The benchmark's workloads: inputs, CLI arguments, work accounting, checks.

Each workload runs one `infoflow` subcommand on one fixed network. The
synthetic networks come from `netgen` with the parameters pinned in
`baseline.json`, whose SHA-256 they must match, so every commit is measured
on the same bytes. `--seed` reaches the program only as the CLI's `--seed`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import checks
import netgen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BASELINE = BENCH / "baseline.json"
REFERENCE = "src/infoflow/data/reference_network.json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: tuple[str, ...]  # subcommand and its mode, before the common flags
    iterations: int
    synthetic: bool  # generated by netgen, else the bundled reference network

    @property
    def monte_carlo(self) -> bool:
        return "plugin" not in self.command

    def argv(self, network: Path, seed: int) -> list[str]:
        return [*self.command, "--iterations", str(self.iterations),
                "--seed", str(seed), str(network)]

    def chains(self, net: checks.Network) -> int:
        """Absorbing chains one invocation solves: one per Monte Carlo draw,
        and one per sweep increment in each draw (or once, in plug-in mode)."""
        increments = checks.total_increments(net) if self.command[0] == "rank" else 1
        return increments * (self.iterations if self.monte_carlo else 1)

    def checker(self, net: checks.Network):
        """check(report, seed) for this workload's reports on `net`."""
        n = self.iterations
        if self.command[0] == "simulate":
            plug_s = float(net.plug_in_start(posterior_mean=True)[1])
            return lambda report, seed: checks.check_simulate(report, net, seed, n, plug_s)
        if self.monte_carlo:
            sd = checks.reference_endpoint_sd(net)
            return lambda report, seed: checks.check_rank_mc(report, net, seed, n, sd)
        ends = checks.plugin_endpoints(net)
        return lambda report, seed: checks.check_rank_plugin(report, net, seed, n, ends)


WORKLOADS = {w.name: w for w in (
    Workload(
        "ref-rank-mc",
        "the paper's headline MC ranking on the 5-stakeholder reference network: "
        "per-increment respec, stream setup and gamma draws dominate; the solve is tiny",
        ("rank", "--mode", "mc"), 60, synthetic=False),
    Workload(
        "syn200-simulate",
        "one MC simulate on a 200-stakeholder cyclic network: 200 gamma draws and a "
        "200x200 solve per draw, one compile, and peak memory set by one draw block",
        ("simulate",), 400, synthetic=True),
    Workload(
        "syn50-rank-plugin",
        "deterministic plug-in ranking on a 50-stakeholder cyclic network: per-increment "
        "recompile and validation dominate and no random stream is used",
        ("rank", "--mode", "plugin"), 1, synthetic=True),
)}


def materialize(w: Workload, directory: Path, net_seed: int | None = None) -> Path:
    """Path of the workload's network; synthetic ones are generated into
    `directory` and must match their pinned SHA-256 unless `net_seed`
    overrides the pinned generator seed."""
    pin = json.loads(BASELINE.read_text())["inputs"][w.name]
    if not w.synthetic:
        return ROOT / REFERENCE
    params = dict(pin["generator"])
    if net_seed is not None:
        params["seed"] = net_seed
    data = netgen.to_bytes(netgen.generate(netgen.NetParams(
        **{k: tuple(v) if isinstance(v, list) else v for k, v in params.items()})))
    if net_seed is None and netgen.sha256(data) != pin["sha256"]:
        raise RuntimeError(f"{w.name}: generated network does not match its pinned SHA-256")
    path = directory / f"{w.name}.json"
    path.write_bytes(data)
    return path
