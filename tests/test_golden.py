"""Golden report digests: the SHA-256 of the CLI's stdout bytes for six
seeded commands and two deterministic ones.

The Monte Carlo rank on the reference network and the wide-row simulate
were recorded before the posterior-draw engine was batched (one
standard_gamma call per iteration, chunked solves); the plug-in rank on a
layered network and the wide-row Monte Carlo sweep were recorded before
sweeps were batched (all increments of a stakeholder in one stacked build
and solve); the plug-in sweep on a layered network was recorded before
plug-in sweeps left their interior points unsolved until the curve is
read; the posterior-mean evaluations on the reference and wide-row
networks were recorded before the posterior-mean row was computed from the
compiled row's alpha; the 200-iteration simulate on the reference network
was recorded before streams were derived 64 at a time. The two plug-in
digests on layered networks were re-recorded once, when plug-in chains
began to be solved as Monte Carlo draws are, over only the stakeholders
the start reaches (42 of 50 and 49 of 60 here): a smaller solve rounds
differently, so numbers moved by at most 1.1e-16, and the ranking order
did not change. All were recorded with numpy 2.4.6 on OpenBLAS 0.3.31
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
    "rank-plugin-layered": "c1f95329330937e87a0bbd68dcacefb77586d18613ca7a3afb6fa95e3b81d2a5",
    "sweep-mc-wide-row": "a207add13a0725325dae29cae47b299fbcf5bac44178a71b6f6c7510cb13d5e1",
    "sweep-plugin-layered": "2d3421c8213fdb4220d8e11b8d182d336a0da9634700864c31ad8a78100eb6de",
    "evaluate-posterior-mean-reference": "e6fc1a8992254be6f3f5fca3f862b2c7a7bcdffef4051c25fdb794b3c0dee11c",
    "evaluate-posterior-mean-wide-row": "e09582f2f198a094d15f011d8dffe2022d0aaae057f058d27912794a48c82216",
    "simulate-reference-200": "7c13707e404e3ad3c190fc4d78c170e92c11422ccc254044a8be2e23e43ae54e",
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


def test_simulate_across_stream_blocks_on_reference_network(capsys):
    # 200 iterations span four of rng's 64-stream blocks, the last partly
    # used, under the largest seed.
    argv = ["simulate", "--iterations", "200", "--seed", str(2**64 - 1),
            str(infoflow.reference_network_path())]
    assert stdout_digest(argv, capsys) == GOLDEN["simulate-reference-200"]


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


def test_sweep_plugin_on_layered_network(tmp_path, capsys):
    path = tmp_path / "layered_network.json"
    path.write_bytes(document_bytes(layered_network(60, 4)))
    argv = ["sweep", "--mode", "plugin", "--stakeholder", "N035", "--iterations", "1",
            "--seed", "101", str(path)]
    assert stdout_digest(argv, capsys) == GOLDEN["sweep-plugin-layered"]


def test_evaluate_posterior_mean_on_reference_network(capsys):
    argv = ["evaluate", "--mode", "posterior-mean", str(infoflow.reference_network_path())]
    assert stdout_digest(argv, capsys) == GOLDEN["evaluate-posterior-mean-reference"]


def test_evaluate_posterior_mean_on_wide_row_network(wide_row_path, capsys):
    argv = ["evaluate", "--mode", "posterior-mean", str(wide_row_path)]
    assert stdout_digest(argv, capsys) == GOLDEN["evaluate-posterior-mean-wide-row"]
