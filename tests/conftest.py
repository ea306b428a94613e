"""Shared fixtures: tiny topologies and networks that keep tests fast."""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import sweep
from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.topology.flattened_butterfly import FlattenedButterfly


@pytest.fixture
def tiny_topology() -> FlattenedButterfly:
    """2-ary 3-flat: 8 hosts, 4 switches, 2 inter-switch dimensions."""
    return FlattenedButterfly(k=2, n=3)


@pytest.fixture
def small_topology() -> FlattenedButterfly:
    """3-ary 3-flat: 27 hosts, 9 switches — enough for path diversity."""
    return FlattenedButterfly(k=3, n=3)


@pytest.fixture
def tiny_network(tiny_topology) -> FbflyNetwork:
    return FbflyNetwork(tiny_topology, NetworkConfig(seed=7))


@pytest.fixture
def small_network(small_topology) -> FbflyNetwork:
    return FbflyNetwork(small_topology, NetworkConfig(seed=7))


def drain(network: FbflyNetwork, slack_ns: float = 5_000_000.0):
    """Run a network until it has no more work (bounded by ``slack_ns``)."""
    network.sim.run()
    network.stats.finalize(network.sim.now)
    return network.stats


@dataclass(frozen=True)
class GoldenRefresh:
    """One ``golden-refresh`` CLI run: exit status, target, stdout."""

    status: int
    directory: Path
    stdout: str


@pytest.fixture(scope="session")
def golden_refresh(tmp_path_factory) -> GoldenRefresh:
    """Every golden payload, built once per session by the CLI.

    Building the eight payloads is most of the suite's run time, so the
    CLI test and the golden-value tests share this one no-cache run,
    which builds them on two worker processes.
    """
    directory = tmp_path_factory.mktemp("golden")
    stdout = io.StringIO()
    # main() reconfigures the process-wide sweep runner; undo it.
    saved = sweep._default_runner
    try:
        with contextlib.redirect_stdout(stdout):
            status = main(["golden-refresh", "--output", str(directory),
                           "--no-cache", "--jobs", "2"])
    finally:
        sweep._default_runner = saved
    return GoldenRefresh(status, directory, stdout.getvalue())
