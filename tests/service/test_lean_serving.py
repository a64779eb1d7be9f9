"""A serving process imports the serving stack, not the evaluation harness.

The daemon, the fleet router and its workers all boot through
``repro.cli``.  None of them loads the experiment registry, the
workloads, the figures or ``networkx`` (which only the gathering
extension's connectivity check uses) until something asks for them, so
a daemon's first gathering solve is where ``repro.gathering`` and
``networkx`` load.  Both tests start fresh interpreters: the test
process itself has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.api import GatheringMember, GatheringProblem, SolveResult, solve
from repro.service import ServiceClient

#: Modules that a serving process must not load at import time.
HARNESS_MODULES = (
    "networkx",
    "repro.gathering",
    "repro.experiments.registry",
    "repro.experiments.runall",
    "repro.viz",
    "repro.workloads",
)

SERVING_ENTRY_POINTS = (
    "repro.cli",
    "repro.service",
    "repro.cluster",
    "repro.experiments.manifest",
)

PAIR = GatheringProblem(
    members=(GatheringMember(0.0, 0.0), GatheringMember(1.0, 0.5, speed=0.8)),
    visibility=0.4,
)
TRIO = GatheringProblem(
    members=(
        GatheringMember(0.0, 0.0),
        GatheringMember(1.2, -0.3, speed=0.6),
        GatheringMember(-0.4, 0.9, time_unit=0.5),
    ),
    visibility=0.45,
)


def _environment() -> dict[str, str]:
    env = os.environ.copy()
    package_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def test_serving_entry_points_load_no_harness_module():
    script = (
        "import json, sys\n"
        + "".join(f"import {name}\n" for name in SERVING_ENTRY_POINTS)
        + f"print(json.dumps([name for name in {list(HARNESS_MODULES)!r} if name in sys.modules]))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=_environment(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert json.loads(completed.stdout.splitlines()[-1]) == []


@pytest.fixture
def lean_daemon(tmp_path):
    """A ``repro serve`` subprocess: nothing but the CLI has loaded it."""
    port_file = tmp_path / "serve.port"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--port-file", str(port_file)],
        env=_environment(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60.0
        while not (port_file.exists() and port_file.read_text().strip()):
            assert process.poll() is None, "serve exited before binding"
            assert time.monotonic() < deadline, "serve never published its port"
            time.sleep(0.02)
        host, _, port = port_file.read_text().strip().rpartition(":")
        yield host, int(port)
        with ServiceClient(host, int(port)) as client:
            assert client.request({"op": "shutdown"})["ok"]
        assert process.wait(timeout=30.0) == 0
    finally:
        if process.poll() is None:  # pragma: no cover - only on failure
            process.kill()
            process.wait(timeout=30.0)


def test_first_gathering_solves_match_in_process_fingerprints(lean_daemon):
    """The first solve over JSON and the first over binary frames both load
    the gathering engine lazily and answer with the in-process fingerprint."""
    host, port = lean_daemon
    for spec, binary in ((PAIR, False), (TRIO, True)):
        with ServiceClient(host, port, binary=binary) as client:
            assert client.format == ("binary" if binary else "json")
            response = client.request({"op": "solve", "spec": spec.to_dict(), "id": 1})
        assert response["ok"], response
        assert response["served_by"] == "solve"
        served = SolveResult.from_dict(response["result"])
        assert served.solved is True
        assert served.fingerprint() == solve(spec, backend="auto").fingerprint()
