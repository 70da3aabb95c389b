"""Tests of the benchmark itself: inputs, names, accounting, and a tiny run
of every workload through the same checks the benchmark applies."""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

import checks
import netgen
import run
import tracer
import workloads
from workloads import ROOT, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "ref-rank-mc": dict(iterations=3),
    "syn200-simulate": dict(iterations=20, net=netgen.NetParams(12, 1)),
    "syn50-rank-plugin": dict(iterations=1, net=netgen.NetParams(12, 2, counts=(1, 3))),
}


def test_generator_is_deterministic_and_seeded():
    p = netgen.NetParams(30, 4)
    assert netgen.to_bytes(netgen.generate(p)) == netgen.to_bytes(netgen.generate(p))
    other = dataclasses.replace(p, seed=5)
    assert netgen.to_bytes(netgen.generate(other)) != netgen.to_bytes(netgen.generate(p))


@pytest.mark.parametrize("name", [n for n, w in WORKLOADS.items() if w.synthetic])
def test_pinned_networks_regenerate_and_validate(name, tmp_path):
    import infoflow

    path = workloads.materialize(WORKLOADS[name], tmp_path)  # checks the SHA-256 pin
    spec = infoflow.parse_network(path.read_bytes())
    assert infoflow.validate(spec).ok
    cyclic = any(
        spec.ids.index(f.target) < spec.ids.index(f.source)
        for f in spec.flows if f.target in spec.ids
    )
    assert cyclic


def test_names_follow_the_contract():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_per_layer_names_match_what_a_trace_reports():
    empty = {"names": [], "name": [], "start": [], "end": [], "parent": [],
             "counts": {"iterations": 0, "increments": 0, "report_bytes": 0,
                        "compile_hits": 0, "compile_misses": 0}}
    reported = set(tracer.layer_metrics(empty, 0)) | {"trace.overhead_s"}
    assert reported == {m["name"] for m in SPEC["per_layer"]}


def test_self_time_subtracts_direct_children():
    doc = {"names": ["a", "b"], "name": [0, 1, 1], "start": [0.0, 1.0, 3.0],
           "end": [10.0, 2.0, 5.0], "parent": [-1, 0, 0]}
    spans = tracer._self_times(doc)
    assert spans["a"] == (1, 10.0, 7.0)
    assert spans["b"] == (2, 3.0, 3.0)


@pytest.mark.parametrize("total", [0.5, 1.0, 30.0, 55.0, 7.25, 1e3])
def test_sweep_increments_match_the_program_grid(total):
    from infoflow.sensitivity import _di_grid

    assert checks.sweep_increments(total) == len(_di_grid(total, 1.0))


def test_chain_accounting():
    ref = checks.Network((ROOT / workloads.REFERENCE).read_bytes())
    assert checks.total_increments(ref) == 61 + 41 + 31 + 56
    w = WORKLOADS["ref-rank-mc"]
    assert w.chains(ref) == 189 * w.iterations
    assert dataclasses.replace(w, command=("rank", "--mode", "plugin")).chains(ref) == 189
    assert WORKLOADS["syn200-simulate"].chains(ref) == WORKLOADS["syn200-simulate"].iterations


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_every_check(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    tiny = TINY[name]
    w = dataclasses.replace(WORKLOADS[name], iterations=tiny["iterations"])
    if "net" in tiny:
        network = tmp_path / "net.json"
        network.write_bytes(netgen.to_bytes(netgen.generate(tiny["net"])))
    else:
        network = ROOT / workloads.REFERENCE
    res = run.measure(w, network, seed=3, seconds=0, trace=True, work=tmp_path)
    assert res.tally.failures == []
    assert len(res.walls) == run.MIN_INVOCATIONS
    assert set(res.layers) == {m["name"] for m in SPEC["per_layer"]}
    assert all(v > 0 for v, _ in res.e2e.values())
    assert res.e2e["chains_per_s"][0] * res.e2e["wall_s"][0] == pytest.approx(res.chains)


def test_a_wrong_report_fails_its_check():
    ref = checks.Network((ROOT / workloads.REFERENCE).read_bytes())
    check = WORKLOADS["ref-rank-mc"].checker(ref)
    report = {"command": "rank", "input_digest": ref.digest, "seed": 1,
              "iterations": WORKLOADS["ref-rank-mc"].iterations,
              "result": {"mode": "monte-carlo", "ranking": []}}
    with pytest.raises(checks.CheckFailed):
        check(report, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ref-rank-mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
