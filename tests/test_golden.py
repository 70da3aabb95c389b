"""Golden report digests: the SHA-256 of the CLI's stdout bytes for four
seeded commands.

The Monte Carlo rank on the reference network and the wide-row simulate
were recorded before the posterior-draw engine was batched (one
standard_gamma call per iteration, chunked solves); the plug-in rank on a
layered network and the wide-row Monte Carlo sweep were recorded before
sweeps were batched (all increments of a stakeholder in one stacked build
and solve). All were recorded with numpy 2.4.6 on OpenBLAS 0.3.31
(scipy-openblas, x86-64), and every later engine must reproduce them bit
for bit. The wide-row network has rows of 8 to 12 targets, where a change
in how a row is summed shows in the last bits. A different numpy or BLAS
may legitimately round differently; re-record only from a commit whose
draws are known to be right.
"""

import hashlib

import pytest
from helpers import document_bytes, layered_network, wide_row_network

import infoflow
from infoflow.cli import cli_main

GOLDEN = {
    "rank-mc-reference": "db2917b33833a8b73f98647cbb14ecd2586da4d93bb233c909838447267eef24",
    "simulate-wide-row": "1547742a7e2e8e5cd13983723962f81c7c45d234ca36804f1397d755a898efcc",
    "rank-plugin-layered": "fe172d31e8e3f2d82af28cc13ec131232f393a8a3c8af2387ee6518246fbb411",
    "sweep-mc-wide-row": "a207add13a0725325dae29cae47b299fbcf5bac44178a71b6f6c7510cb13d5e1",
}


@pytest.fixture()
def wide_row_path(tmp_path):
    path = tmp_path / "wide_row_network.json"
    path.write_bytes(document_bytes(wide_row_network()))
    return path


def stdout_digest(argv, capsys):
    assert cli_main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def test_rank_mc_on_reference_network(capsys):
    argv = ["rank", "--mode", "mc", "--iterations", "60", "--seed", "101",
            str(infoflow.reference_network_path())]
    assert stdout_digest(argv, capsys) == GOLDEN["rank-mc-reference"]


def test_simulate_on_wide_row_network(wide_row_path, capsys):
    argv = ["simulate", "--iterations", "50", "--seed", "101", str(wide_row_path)]
    assert stdout_digest(argv, capsys) == GOLDEN["simulate-wide-row"]


def test_rank_plugin_on_layered_network(tmp_path, capsys):
    path = tmp_path / "layered_network.json"
    path.write_bytes(document_bytes(layered_network(50, 7)))
    argv = ["rank", "--mode", "plugin", "--iterations", "1", "--seed", "101", str(path)]
    assert stdout_digest(argv, capsys) == GOLDEN["rank-plugin-layered"]


def test_sweep_mc_on_wide_row_network(wide_row_path, capsys):
    argv = ["sweep", "--mode", "mc", "--stakeholder", "W05", "--iterations", "30",
            "--seed", "101", str(wide_row_path)]
    assert stdout_digest(argv, capsys) == GOLDEN["sweep-mc-wide-row"]
