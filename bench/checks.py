"""Output checks and benchmark-side oracles.

Nothing here imports `infoflow`: every expected value is computed from the
network JSON with plain numpy, so the checks and the program check each
other. No check compares golden report bytes, so they keep holding when a
later change alters the random-stream contract; Monte Carlo checks use
tolerances derived from standard errors.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

ABSORBING = ("DI", "S", "US")
PROB_TOL = 1e-9
# Monte Carlo checks accept |estimate - expected| <= Z_SE standard errors.
# A proof of the benchmark makes about a hundred runs with four such checks
# each; at 5 SE a correct program fails one with probability about 1e-6.
Z_SE = 5.0
# The reference sweep-endpoint table, rounded to three decimals.
REF_ENDPOINTS = {"D": (0.507, 0.345), "E": (0.554, 0.154)}
REF_ROUNDING = 5e-4


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


class Network:
    """The parts of a network document the oracles need."""

    def __init__(self, data: bytes):
        doc = json.loads(data)
        self.digest = hashlib.sha256(data).hexdigest()
        self.ids = [s["id"] for s in doc["stakeholders"]]
        self.start = doc["start"]
        self.rows = {sid: {} for sid in self.ids}
        for f in doc["flows"]:
            self.rows[f["from"]][f["to"]] = float(f["frequency"])

    def total(self, sid: str) -> float:
        return sum(self.rows[sid].values())

    def swept(self) -> list[str]:
        return [sid for sid in self.ids if sid != self.start]

    def discarding(self, sid: str, di: float) -> dict:
        """Row `sid` with DI set to `di` and the rest of its total outflow
        spread over the other targets in their original proportions."""
        row = self.rows[sid]
        total = self.total(sid)
        scale = (total - di) / (total - row.get("DI", 0.0))
        new = {k: v * scale for k, v in row.items() if k != "DI"}
        new["DI"] = di
        return new

    def _start_row(self, rows: dict, theta, batch: tuple = ()) -> np.ndarray:
        """Absorption (P_DI, P_S, P_US) from the start when each row's
        transition probabilities are `theta(counts)`, of shape batch + (k,)."""
        n = len(self.ids)
        col = {label: i for i, label in enumerate(self.ids + list(ABSORBING))}
        p = np.zeros(batch + (n, n + len(ABSORBING)))
        for i, sid in enumerate(self.ids):
            labels = list(rows[sid])
            p[..., i, [col[k] for k in labels]] = theta(np.array([rows[sid][k] for k in labels]))
        b = np.linalg.solve(np.eye(n) - p[..., :n], p[..., n:])
        return b[..., self.ids.index(self.start), :]

    def plug_in_start(self, rows: dict | None = None, posterior_mean: bool = False) -> np.ndarray:
        """Start-state triple of the frequency chain, or of the flat-prior
        posterior-mean chain."""
        prior = 1.0 if posterior_mean else 0.0
        return self._start_row(self.rows if rows is None else rows,
                               lambda c: (c + prior) / (c + prior).sum())

    def posterior_draws_start(self, rows: dict, draws: int, seed: int) -> np.ndarray:
        """(draws, 3) start-state triples over flat-prior Dirichlet draws."""
        rng = np.random.default_rng(seed)
        return self._start_row(rows, lambda c: rng.dirichlet(c + 1.0, size=draws), (draws,))


def sweep_increments(total: float) -> int:
    """Grid points of a unit-step discard sweep over 0..total, ends included."""
    points = math.floor(total + 1e-9) + 1
    if points - 1 < total - 1e-9:
        points += 1
    return points


def total_increments(net: Network) -> int:
    return sum(sweep_increments(net.total(sid)) for sid in net.swept())


def _probability(x, what: str) -> None:
    require(isinstance(x, float) and 0.0 <= x <= 1.0, f"{what} = {x!r} is not in [0, 1]")


def _triple(t, what: str) -> None:
    require(isinstance(t, list) and len(t) == 3, f"{what} is not a triple: {t!r}")
    for x in t:
        _probability(x, what)
    require(abs(sum(t) - 1.0) <= PROB_TOL, f"{what} sums to {sum(t)!r}")


def _header(report: dict, command: str, net: Network, seed: int, iterations: int) -> None:
    require(report.get("command") == command, f"command is {report.get('command')!r}")
    require(report.get("input_digest") == net.digest, "input digest does not match the input")
    require(report.get("seed") == seed, f"seed echoed as {report.get('seed')!r}")
    require(report.get("iterations") == iterations, "iterations not echoed")


def check_simulate(report: dict, net: Network, seed: int, iterations: int,
                   posterior_mean_s: float) -> None:
    _header(report, "simulate", net, seed, iterations)
    res = report["result"]
    samples = res["samples"]
    require(len(samples) == iterations, f"{len(samples)} samples for {iterations} iterations")
    for i, t in enumerate(samples):
        _triple(t, f"sample {i}")
    _triple([res["mean_di"], res["mean_s"], res["mean_us"]], "mean triple")
    require(sum(res["histogram"]["counts"]) == iterations, "histogram counts != iterations")
    se = res["std_s"] / math.sqrt(iterations)
    gap = abs(res["mean_s"] - posterior_mean_s)
    require(gap <= Z_SE * se,
            f"mean P_S {res['mean_s']:.6f} is {gap / se:.2f} SE from the "
            f"posterior-mean plug-in {posterior_mean_s:.6f}")


def _ranking(report: dict, net: Network, seed: int, iterations: int, mode: str) -> dict:
    _header(report, "rank", net, seed, iterations)
    res = report["result"]
    require(res["mode"] == mode, f"mode is {res['mode']!r}")
    ranking = res["ranking"]
    names = [e["stakeholder"] for e in ranking]
    require(sorted(names) == sorted(net.swept()), f"ranked {names}")
    keys = [(-e["impact_ratio"], e["stakeholder"]) for e in ranking]
    require(keys == sorted(keys), "ranking is not ordered by impact ratio, then id")
    for e in ranking:
        sid = e["stakeholder"]
        _probability(e["p_s_max"], f"{sid} p_s_max")
        _probability(e["p_s_min"], f"{sid} p_s_min")
        require(e["n_di_min"] == 0.0, f"{sid} sweep starts at {e['n_di_min']}")
        require(abs(e["n_di_max"] - net.total(sid)) <= 1e-9, f"{sid} sweep ends at {e['n_di_max']}")
        ratio = (e["p_s_max"] - e["p_s_min"]) / (e["n_di_max"] - e["n_di_min"])
        require(abs(e["impact_ratio"] - ratio) <= 1e-12, f"{sid} impact ratio is inconsistent")
    return {e["stakeholder"]: e for e in ranking}


def plugin_endpoints(net: Network) -> dict[str, tuple[float, float]]:
    """Frequency-chain P_S from the start with each swept stakeholder
    discarding nothing and everything."""
    out = {}
    for sid in net.swept():
        ends = []
        for di in (0.0, net.total(sid)):
            rows = dict(net.rows)
            rows[sid] = net.discarding(sid, di)
            ends.append(float(net.plug_in_start(rows)[1]))
        out[sid] = tuple(ends)
    return out


def check_rank_plugin(report: dict, net: Network, seed: int, iterations: int,
                      expected: dict[str, tuple[float, float]]) -> None:
    entries = _ranking(report, net, seed, iterations, "plug-in")
    for sid, (hi, lo) in expected.items():
        e = entries[sid]
        ratio = (hi - lo) / net.total(sid)
        for field, want in (("p_s_max", hi), ("p_s_min", lo), ("impact_ratio", ratio)):
            require(abs(e[field] - want) <= PROB_TOL,
                    f"{sid} {field} {e[field]!r} != numpy solve {want!r}")


def reference_endpoint_sd(net: Network, draws: int = 4000, seed: int = 0) -> dict:
    """Per-draw standard deviation of P_S at each checked sweep endpoint."""
    out = {}
    for sid in REF_ENDPOINTS:
        sds = []
        for di in (0.0, net.total(sid)):
            rows = dict(net.rows)
            rows[sid] = net.discarding(sid, di)
            sds.append(float(net.posterior_draws_start(rows, draws, seed)[:, 1].std(ddof=1)))
        out[sid] = tuple(sds)
    return out


def check_rank_mc(report: dict, net: Network, seed: int, iterations: int,
                  endpoint_sd: dict) -> None:
    entries = _ranking(report, net, seed, iterations, "monte-carlo")
    for sid, targets in REF_ENDPOINTS.items():
        got = (entries[sid]["p_s_max"], entries[sid]["p_s_min"])
        for which, g, want, sd in zip(("p_s_max", "p_s_min"), got, targets, endpoint_sd[sid]):
            tol = Z_SE * sd / math.sqrt(iterations) + REF_ROUNDING
            require(abs(g - want) <= tol,
                    f"{sid} {which} {g:.4f} is off the table value {want} by more than {tol:.4f}")
