"""Command-line interface.

Sub-commands::

    repro solve        --kind rendezvous --distance 1.5 --visibility 0.3 --speed 0.7 --json
    repro solve        --spec-file specs.json --backend analytic --processes 4
    repro solve        --spec-file specs.json --store .repro-store
    repro solve        --stdin-jsonl < requests.jsonl
    repro serve        --port 7767 --backend auto --store .repro-store [--workers 4]
    repro sweep        search-sweep-large [--connect HOST:PORT --subscribe] [--json]
    repro cluster      status --port 7767 [--json]
    repro feasibility  --speed 1.0 --time-unit 0.5 --orientation 0 --chirality 1
    repro search       --distance 1.5 --bearing 0.8 --visibility 0.3 [--json]
    repro rendezvous   --distance 1.5 --bearing 0.8 --visibility 0.3 --speed 0.7 ... [--json]
    repro experiments  --all [--quick] [--output results/] [--store DIR] [--expect-warm]
    repro store        stats|gc|export|import --store DIR [--file FILE] [--json]
    repro suites       [--json]
    repro schedule     --rounds 4 --tau 0.5
    repro gather       --robot X,Y,V,TAU,PHI,CHI ... --visibility 0.4

(also available as ``python -m repro ...``).

``solve`` is the facade entry point: it accepts a problem spec either as
flags or as a JSON file (one spec object or a list; ``-`` reads stdin),
dispatches it through the :mod:`repro.api` backend registry and prints
either a human summary or the JSON ``SolveResult`` envelope.  The older
``search`` / ``rendezvous`` sub-commands are kept as thin wrappers over
the same facade and grew a ``--json`` flag.

``--store DIR`` on ``solve`` and ``experiments`` enables the persistent
result store: envelopes solved in any earlier run answer from disk, and
fresh solves are recorded for the next one (the ``REPRO_STORE``
environment variable sets a default; ``--no-store`` overrides it).
``repro store`` inspects and maintains a store directory.

``serve`` runs the long-lived solver daemon on one asyncio event loop:
JSON-Lines over TCP, one request per line (``solve`` / ``health`` /
``metrics`` verbs), request coalescing and admission control via
:mod:`repro.service`, plus the streamed ``subscribe`` verb that ``repro
sweep SUITE --connect ... --subscribe`` drives: the whole suite goes
out on one connection and per-spec results stream back in completion
order, ending in an order-independent fingerprint digest.  ``serve
--workers N`` shards the same wire format over N supervised worker
processes behind a consistent-hash router (:mod:`repro.cluster`) that
also accepts the partitioned ``sweep`` verb that ``repro sweep SUITE
--connect ... --distributed`` drives -- each worker runs its spec
partition as one local batch plan, completions interleave back in
completion order, and ``--fold`` returns merged per-(kind, backend)
aggregate tables instead of per-spec envelopes.  ``--async`` is still
accepted and changes nothing: asyncio is the only transport.
``repro cluster status`` prints the per-shard health and metrics of a
running router.  SIGTERM and SIGINT both drain gracefully, so buffered
store segments are published before the process exits.  ``solve
--stdin-jsonl`` streams the same wire format through an in-process
service -- one response line per request line, no socket needed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence

from .api import (
    BatchRunner,
    GatheringMember,
    GatheringProblem,
    ProblemSpec,
    RendezvousProblem,
    ResultStore,
    SearchProblem,
    backend_names,
    spec_from_dict,
)
from .api import solve as api_solve
from .core import classify_feasibility
from .core.schedule import RoundSchedule
from .errors import InvalidParameterError, ReproError
from .geometry import Vec2
from .robots import RobotAttributes

#: Environment variable that provides a default ``--store`` directory.
STORE_ENV_VAR = "REPRO_STORE"

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Symmetry Breaking in the Plane: Rendezvous by Robots with "
            "Unknown Attributes' (PODC 2019)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser(
        "solve", help="solve problem specs through the repro.api facade"
    )
    solve.add_argument(
        "--spec-file",
        type=str,
        default=None,
        metavar="FILE",
        help="JSON file holding one spec object or a list of specs ('-' reads stdin)",
    )
    solve.add_argument(
        "--kind",
        choices=("search", "rendezvous", "gathering"),
        default=None,
        help="problem kind when building the spec from flags",
    )
    solve.add_argument("--distance", type=float, default=None, help="initial distance d")
    solve.add_argument("--bearing", type=float, default=0.0, help="bearing in radians")
    solve.add_argument("--visibility", type=float, default=None, help="visibility radius r")
    solve.add_argument(
        "--horizon", type=float, default=None, help="explicit simulation horizon"
    )
    solve.add_argument(
        "--allow-infeasible",
        action="store_true",
        help="simulate even when Theorem 4 says infeasible (needs --horizon)",
    )
    solve.add_argument(
        "--robot",
        action="append",
        default=None,
        metavar="X,Y,V,TAU,PHI,CHI",
        help="gathering swarm member (repeat per robot; only with --kind gathering)",
    )
    solve.add_argument(
        "--fault-model",
        default=None,
        metavar="JSON",
        help=(
            "attach a fault model to every spec, as a JSON object, e.g. "
            '\'{"kind": "crash-stop", "robot": "other", "crash_time": 2.0}\' '
            "(kinds: none, crash-stop, crash-recovery, byzantine)"
        ),
    )
    solve.add_argument(
        "--trials",
        type=int,
        default=None,
        help="Monte-Carlo trials per spec (overrides the fault model's trials)",
    )
    solve.add_argument(
        "--mc-seed",
        type=int,
        default=None,
        help="Monte-Carlo base seed (overrides the fault model's mc_seed)",
    )
    _add_attribute_arguments(solve)
    solve.add_argument(
        "--backend",
        default="auto",
        help=f"solver backend (registered: {', '.join(backend_names())})",
    )
    solve.add_argument(
        "--processes", type=int, default=None, help="worker processes for multi-spec files"
    )
    solve.add_argument(
        "--json", action="store_true", help="emit the SolveResult envelope(s) as JSON"
    )
    solve.add_argument(
        "--stdin-jsonl",
        action="store_true",
        help=(
            "stream JSON-Lines requests from stdin through an in-process solver "
            "service (one response line per request line; the serve wire format)"
        ),
    )
    solve.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="send the solve(s) to a running repro serve daemon instead of solving here",
    )
    solve.add_argument(
        "--binary",
        action="store_true",
        help="with --connect: negotiate binary wire frames (falls back to JSON)",
    )
    _add_store_arguments(solve)

    feasibility = subparsers.add_parser("feasibility", help="apply the Theorem 4 feasibility test")
    _add_attribute_arguments(feasibility)
    feasibility.add_argument(
        "--json", action="store_true", help="emit the verdict as JSON"
    )

    search = subparsers.add_parser("search", help="simulate the universal search (Algorithm 4)")
    search.add_argument("--distance", type=float, required=True, help="target distance d")
    search.add_argument("--bearing", type=float, default=0.0, help="target bearing in radians")
    search.add_argument("--visibility", type=float, required=True, help="visibility radius r")
    search.add_argument(
        "--json", action="store_true", help="emit the SolveResult envelope as JSON"
    )

    rendezvous = subparsers.add_parser("rendezvous", help="simulate a rendezvous instance")
    rendezvous.add_argument("--distance", type=float, required=True, help="initial distance d")
    rendezvous.add_argument("--bearing", type=float, default=0.0, help="separation bearing in radians")
    rendezvous.add_argument("--visibility", type=float, required=True, help="visibility radius r")
    rendezvous.add_argument(
        "--horizon", type=float, default=None, help="explicit simulation horizon (needed for infeasible instances)"
    )
    rendezvous.add_argument(
        "--allow-infeasible", action="store_true", help="simulate even when Theorem 4 says infeasible"
    )
    _add_attribute_arguments(rendezvous)
    rendezvous.add_argument(
        "--json", action="store_true", help="emit the SolveResult envelope as JSON"
    )

    experiments = subparsers.add_parser("experiments", help="run the evaluation harness")
    experiments.add_argument("ids", nargs="*", help="experiment identifiers (e.g. E01 F03)")
    experiments.add_argument("--all", action="store_true", help="run every registered experiment")
    experiments.add_argument("--list", action="store_true", help="list available experiments")
    experiments.add_argument("--quick", action="store_true", help="reduced workloads for smoke runs")
    experiments.add_argument("--output", type=Path, default=None, help="directory for artefacts")
    experiments.add_argument(
        "--processes", type=int, default=None, help="worker processes for the shared runner"
    )
    experiments.add_argument(
        "--progress",
        action="store_true",
        help="stream per-result progress to stderr while sweeps run",
    )
    experiments.add_argument(
        "--expect-warm",
        action="store_true",
        help=(
            "fail when any spec had to be solved fresh (not served by the store/cache) "
            "or a result fingerprint diverged from the recorded run -- the CI resume check"
        ),
    )
    _add_store_arguments(experiments)

    store = subparsers.add_parser(
        "store", help="inspect and maintain a persistent result store"
    )
    store.add_argument(
        "action",
        choices=("stats", "gc", "export", "import"),
        help="stats: counts + streaming aggregate; gc: compact segments; "
        "export/import: ship a warm cache as one JSONL file",
    )
    store.add_argument(
        "--file",
        type=Path,
        default=None,
        metavar="FILE",
        help="JSONL file to export to / import from",
    )
    store.add_argument("--json", action="store_true", help="emit the outcome as JSON")
    _add_store_arguments(store)

    suites = subparsers.add_parser(
        "suites", help="list the named workload suites (for solve/benchmark sweeps)"
    )
    suites.add_argument("--json", action="store_true", help="emit the listing as JSON")

    sweep = subparsers.add_parser(
        "sweep",
        help=(
            "solve a named spec suite end to end and print its "
            "order-independent fingerprint digest"
        ),
    )
    sweep.add_argument("suite", help="suite name (see `repro suites`)")
    sweep.add_argument(
        "--backend",
        default="auto",
        help=f"backend for the sweep (registered: {', '.join(backend_names())})",
    )
    sweep.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="run the sweep against a running daemon/router instead of solving here",
    )
    sweep.add_argument(
        "--subscribe",
        action="store_true",
        help=(
            "with --connect: submit the whole suite on one connection and "
            "stream per-spec results back in completion order"
        ),
    )
    sweep.add_argument(
        "--distributed",
        action="store_true",
        help=(
            "with --connect: ship the suite as one partitioned sweep -- the "
            "cluster front partitions the unique specs across shards and each "
            "worker runs its partition as one local batch plan, all execution "
            "tiers active"
        ),
    )
    sweep.add_argument(
        "--fold",
        action="store_true",
        help=(
            "with --distributed: fold completions into per-(kind, backend) "
            "aggregate tables on the workers and merge them at the router, "
            "instead of streaming every result envelope back"
        ),
    )
    sweep.add_argument(
        "--binary",
        action="store_true",
        help="with --connect: negotiate binary wire frames (falls back to JSON)",
    )
    sweep.add_argument(
        "--processes", type=int, default=None, help="worker processes for a local sweep"
    )
    sweep.add_argument(
        "--progress",
        action="store_true",
        help="stream per-result progress to stderr while the sweep runs",
    )
    sweep.add_argument("--json", action="store_true", help="emit the outcome as JSON")
    _add_store_arguments(sweep)

    serve = subparsers.add_parser(
        "serve", help="run the JSON-Lines solver daemon (TCP, one request per line)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=7767, help="bind port (0 picks an ephemeral port)"
    )
    serve.add_argument(
        "--backend",
        default="auto",
        help=f"default backend for requests (registered: {', '.join(backend_names())})",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="maximum concurrent solves (admission control)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=128,
        help="requests allowed to queue for a solve slot before being refused",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "shard over N supervised worker processes behind a consistent-hash "
            "router (1 = the single-process daemon)"
        ),
    )
    # Kept so existing command lines keep working: asyncio is the only
    # transport, so the flag changes nothing.
    serve.add_argument("--async", action="store_true", help=argparse.SUPPRESS)
    serve.add_argument(
        "--port-file",
        type=str,
        default=None,
        metavar="FILE",
        help="write the bound host:port to FILE once listening (for supervisors)",
    )
    serve.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "query a running daemon at --host/--port for its metrics document "
            "(frame-format counts, kernel cache stats) and print it as JSON"
        ),
    )
    _add_store_arguments(serve)

    cluster = subparsers.add_parser(
        "cluster", help="inspect a running sharded cluster (see serve --workers)"
    )
    cluster.add_argument(
        "action", choices=("status",), help="status: per-shard health and metrics"
    )
    cluster.add_argument("--host", default="127.0.0.1", help="router address")
    cluster.add_argument("--port", type=int, default=7767, help="router port")
    cluster.add_argument("--json", action="store_true", help="emit the raw documents as JSON")

    schedule = subparsers.add_parser("schedule", help="print the Algorithm 7 schedule and overlaps")
    schedule.add_argument("--rounds", type=int, default=4, help="number of rounds to display")
    schedule.add_argument("--tau", type=float, default=0.5, help="clock ratio of the second robot")

    gather = subparsers.add_parser(
        "gather", help="simulate multi-robot gathering (extension beyond the paper)"
    )
    gather.add_argument(
        "--robot",
        action="append",
        required=True,
        metavar="X,Y,V,TAU,PHI,CHI",
        help="one swarm member as comma-separated position and attributes; repeat per robot",
    )
    gather.add_argument("--visibility", type=float, required=True, help="common visibility radius")
    gather.add_argument("--horizon", type=float, default=20000.0, help="per-pair simulation horizon")

    lint = subparsers.add_parser(
        "lint",
        help="run the AST invariant checker (determinism, locking, wire schema)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="restrict reported findings to these files/directories (default: whole package)",
    )
    lint.add_argument("--json", action="store_true", help="emit the machine-readable report")
    lint.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on any finding not in the baseline",
    )
    lint.add_argument(
        "--baseline",
        type=str,
        default=None,
        metavar="FILE",
        help="baseline file of accepted findings (default: lint-baseline.json next to pyproject)",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline file to accept every current finding",
    )

    return parser


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        type=str,
        default=None,
        metavar="DIR",
        help=f"persistent result store directory (default: ${STORE_ENV_VAR} when set)",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help=f"disable the persistent store even when ${STORE_ENV_VAR} is set",
    )


def _store_path_from(namespace: argparse.Namespace) -> Optional[str]:
    """Resolve the effective store directory: flag, then env, then None."""
    if namespace.no_store:
        if namespace.store is not None:
            raise InvalidParameterError("--store and --no-store are mutually exclusive")
        return None
    if namespace.store is not None:
        return namespace.store
    return os.environ.get(STORE_ENV_VAR) or None


def _add_attribute_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--speed", type=float, default=1.0, help="speed v of robot R'")
    parser.add_argument("--time-unit", type=float, default=1.0, help="clock unit tau of robot R'")
    parser.add_argument("--orientation", type=float, default=0.0, help="orientation phi of robot R'")
    parser.add_argument("--chirality", type=int, default=1, choices=(-1, 1), help="chirality chi of robot R'")


def _attributes_from(namespace: argparse.Namespace) -> RobotAttributes:
    return RobotAttributes(
        speed=namespace.speed,
        time_unit=namespace.time_unit,
        orientation=namespace.orientation,
        chirality=namespace.chirality,
    )


# -- the facade sub-command ---------------------------------------------------------


def _specs_from_file(path: str) -> tuple[list[ProblemSpec], bool]:
    """Parse a spec file; the flag reports whether the file held a JSON list.

    List-ness is preserved in the ``--json`` output: a file containing a
    one-element list still prints a one-element array, so downstream
    consumers see a stable shape regardless of batch size.
    """
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise InvalidParameterError(f"invalid spec JSON in {path!r}: {error}") from error
    if isinstance(data, list):
        return [spec_from_dict(item) for item in data], True
    return [spec_from_dict(data)], False


def _spec_from_flags(namespace: argparse.Namespace) -> ProblemSpec:
    if namespace.kind is None:
        raise InvalidParameterError("pass --spec-file FILE or --kind with problem flags")
    if namespace.kind == "gathering":
        if not namespace.robot:
            raise InvalidParameterError("--kind gathering needs at least two --robot members")
        members = tuple(
            _gathering_member_from(specification) for specification in namespace.robot
        )
        if namespace.visibility is None:
            raise InvalidParameterError("--kind gathering needs --visibility")
        return GatheringProblem(
            members=members,
            visibility=namespace.visibility,
            horizon=namespace.horizon if namespace.horizon is not None else 20000.0,
        )
    if namespace.distance is None or namespace.visibility is None:
        raise InvalidParameterError(f"--kind {namespace.kind} needs --distance and --visibility")
    if namespace.kind == "search":
        return SearchProblem(
            distance=namespace.distance,
            visibility=namespace.visibility,
            bearing=namespace.bearing,
        )
    return RendezvousProblem(
        distance=namespace.distance,
        visibility=namespace.visibility,
        bearing=namespace.bearing,
        speed=namespace.speed,
        time_unit=namespace.time_unit,
        orientation=namespace.orientation,
        chirality=namespace.chirality,
        horizon=namespace.horizon,
        allow_infeasible=namespace.allow_infeasible,
    )


def _fault_overrides_from(namespace: argparse.Namespace) -> Optional[dict]:
    """The ``--fault-model`` / ``--trials`` / ``--mc-seed`` flags as one mapping."""
    overrides: dict = {}
    if namespace.fault_model is not None:
        try:
            parsed = json.loads(namespace.fault_model)
        except json.JSONDecodeError as error:
            raise InvalidParameterError(f"invalid --fault-model JSON: {error}") from error
        if not isinstance(parsed, dict):
            raise InvalidParameterError("--fault-model must be a JSON object")
        overrides.update(parsed)
    if namespace.trials is not None:
        overrides["trials"] = namespace.trials
    if namespace.mc_seed is not None:
        overrides["mc_seed"] = namespace.mc_seed
    return overrides or None


def _apply_fault_overrides(
    specs: list[ProblemSpec], namespace: argparse.Namespace
) -> list[ProblemSpec]:
    """Merge the fault flags into every spec (validated by the spec layer)."""
    overrides = _fault_overrides_from(namespace)
    if overrides is None:
        return specs
    from dataclasses import replace

    from .faults.model import FaultModel

    rebuilt: list[ProblemSpec] = []
    for spec in specs:
        if not hasattr(spec, "fault_model"):
            raise InvalidParameterError(
                f"spec kind {spec.kind!r} does not support a fault model"
            )
        merged = dict(spec.fault_model.to_dict()) if spec.fault_model is not None else {}
        merged.update(overrides)
        rebuilt.append(replace(spec, fault_model=FaultModel.from_dict(merged)))
    return rebuilt


def _command_solve(namespace: argparse.Namespace) -> int:
    if namespace.stdin_jsonl:
        if namespace.spec_file is not None:
            raise InvalidParameterError("--stdin-jsonl and --spec-file are mutually exclusive")
        return _solve_stdin_jsonl(namespace)
    if namespace.connect is not None:
        return _solve_connect(namespace)
    if namespace.binary:
        raise InvalidParameterError("--binary only applies with --connect")
    if namespace.spec_file is not None:
        specs, emit_list = _specs_from_file(namespace.spec_file)
    else:
        specs, emit_list = [_spec_from_flags(namespace)], False
    specs = _apply_fault_overrides(specs, namespace)
    runner = BatchRunner(
        backend=namespace.backend,
        processes=namespace.processes,
        store=_store_path_from(namespace),
    )
    results, stats = runner.run(specs)
    if namespace.json:
        if emit_list:
            print(json.dumps([result.to_dict() for result in results], indent=2, allow_nan=False))
        else:
            print(results[0].to_json(indent=2))
        # Cache effectiveness goes to stderr so stdout stays parseable.
        print(stats.describe(), file=sys.stderr)
    else:
        for result in results:
            print(result.summary())
            print()
        print(stats.describe())
    return 0


def _parse_address(text: str) -> tuple[str, int]:
    host, _, port_text = text.rpartition(":")
    if not host or not port_text.isdigit():
        raise InvalidParameterError(f"expected HOST:PORT, got {text!r}")
    return host, int(port_text)


def _solve_connect(namespace: argparse.Namespace) -> int:
    """Send the solve(s) to a running daemon/router over one connection."""
    from .api.result import SolveResult
    from .service import ServiceClient

    host, port = _parse_address(namespace.connect)
    if namespace.spec_file is not None:
        specs, emit_list = _specs_from_file(namespace.spec_file)
    else:
        specs, emit_list = [_spec_from_flags(namespace)], False
    specs = _apply_fault_overrides(specs, namespace)
    try:
        client = ServiceClient(host, port, binary=namespace.binary)
    except OSError as error:
        raise ReproError(f"cannot reach a daemon at {host}:{port}: {error}") from error
    envelopes: list[dict[str, Any]] = []
    with client:
        for spec in specs:
            response = client.request(
                {"op": "solve", "spec": spec.to_dict(), "backend": namespace.backend}
            )
            if not response.get("ok"):
                raise ReproError(
                    f"daemon refused the solve: {response.get('error')} "
                    f"({response.get('error_type')})"
                )
            envelopes.append(response["result"])
        wire = client.format
        sent, received = client.bytes_sent, client.bytes_received
    if namespace.json:
        if emit_list:
            print(json.dumps(envelopes, indent=2, allow_nan=False))
        else:
            print(json.dumps(envelopes[0], indent=2, allow_nan=False))
    else:
        for envelope in envelopes:
            print(SolveResult.from_dict(envelope).summary())
            print()
    print(
        f"connect {host}:{port} [{wire}]: {len(envelopes)} solve(s), "
        f"{sent} B sent, {received} B received",
        file=sys.stderr,
    )
    return 0


def _solve_stdin_jsonl(namespace: argparse.Namespace) -> int:
    """Stream the serve wire format through an in-process service.

    One request line in, one response line out, flushed immediately --
    identical requests coalesce through the service's runner exactly as
    they would against the daemon.  A metrics summary lands on stderr
    when the stream ends.
    """
    from .api import BatchRunner
    from .service import SolverService, encode_response, handle_line

    # An explicit runner so --processes keeps meaning what it does in
    # --spec-file mode; the store flushes once on drain, not per request.
    runner = BatchRunner(
        backend=namespace.backend,
        processes=namespace.processes,
        store=_store_path_from(namespace),
        flush_store=False,
    )
    service = SolverService(runner=runner, backend=namespace.backend)
    exit_code = 0
    try:
        for line in sys.stdin:
            if not line.strip():
                continue
            response = handle_line(service, line)
            if not response.get("ok"):
                exit_code = 1
            print(encode_response(response), flush=True)
    finally:
        service.drain()
    totals = service.metrics_snapshot()["totals"]
    print(
        f"stdin-jsonl: {totals['requests']} request(s), {totals['solves']} solved, "
        f"{totals['cache_hits']} cache hits, {totals['store_hits']} store hits, "
        f"{totals['coalesced']} coalesced, {totals['errors']} error(s)",
        file=sys.stderr,
    )
    return exit_code


@contextlib.contextmanager
def _graceful_signals(stop_async: Callable[[], None], name: str) -> Iterator[None]:
    """Route SIGTERM/SIGINT through a daemon's graceful stop.

    A supervisor stops a daemon with SIGTERM; without a handler the
    process dies without draining, losing buffered store segments.  The
    handler only *initiates* the stop (``stop_async`` spawns the real
    stop off the main thread): blocking inside a signal handler would
    deadlock the serve loop it is trying to unwind.  Handlers are
    restored on exit so nested servers (a cluster worker is a full
    ``repro serve``) never fight over them.
    """
    def _initiate(signum: int, frame: object) -> None:
        print(
            f"{name}: caught {signal.Signals(signum).name}, draining in-flight requests",
            file=sys.stderr,
            flush=True,
        )
        stop_async()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _initiate)
        except ValueError:  # pragma: no cover - not on the main thread
            pass
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _write_port_file(namespace: argparse.Namespace, address: str) -> None:
    """Publish the bound address for supervisors (``--port-file``).

    Atomically: a supervisor polling the file must never read a
    truncated address, so the content lands in a same-directory temp
    file first and is renamed into place (rename is atomic on POSIX).
    """
    if not getattr(namespace, "port_file", None):
        return
    target = Path(namespace.port_file)
    temporary = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    temporary.write_text(address + "\n", encoding="utf-8")
    try:
        os.replace(temporary, target)
    except OSError:
        with contextlib.suppress(OSError):
            temporary.unlink()
        raise


def _command_serve(namespace: argparse.Namespace) -> int:
    if namespace.metrics:
        return _serve_metrics(namespace)
    if namespace.workers < 1:
        raise InvalidParameterError(f"--workers must be >= 1, got {namespace.workers!r}")
    if namespace.workers > 1:
        return _command_serve_cluster(namespace)
    from .service import AsyncReproServer, SolverService

    service = SolverService(
        backend=namespace.backend,
        store=_store_path_from(namespace),
        max_inflight=namespace.max_inflight,
        queue_limit=namespace.queue_limit,
    )
    server = AsyncReproServer(service=service, host=namespace.host, port=namespace.port)
    # ``is not None``: an empty ResultStore has len() == 0 and is falsy.
    store_text = (
        f", store {service.runner.store.path}" if service.runner.store is not None else ""
    )
    print(
        f"repro serve: listening on {server.address} "
        f"(backend {namespace.backend}, max in-flight {namespace.max_inflight}"
        f"{store_text})",
        flush=True,
    )
    _write_port_file(namespace, server.address)
    # The handlers stay installed through the blocking stop() below: a
    # supervisor's follow-up signal during the drain must keep routing
    # into the (idempotent) stop instead of killing the flush mid-way.
    with _graceful_signals(server.stop_async, "repro serve"):
        try:
            server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - handler owns SIGINT
            print("repro serve: interrupted, draining in-flight requests", file=sys.stderr)
        finally:
            server.stop()
    return 0


def _serve_metrics(namespace: argparse.Namespace) -> int:
    """One-shot metrics probe against a running daemon or router."""
    from .service import ServiceClient

    try:
        with ServiceClient(namespace.host, namespace.port) as client:
            response = client.request({"op": "metrics"})
    except OSError as error:
        raise ReproError(
            f"cannot reach a daemon at {namespace.host}:{namespace.port}: {error}"
        ) from error
    if not response.get("ok"):
        raise ReproError(f"daemon refused metrics: {response.get('error')}")
    print(json.dumps(response["metrics"], indent=2, sort_keys=True, allow_nan=False))
    return 0


def _command_serve_cluster(namespace: argparse.Namespace) -> int:
    import threading

    from .cluster import ClusterSupervisor, boot_router

    supervisor = ClusterSupervisor(
        workers=namespace.workers,
        backend=namespace.backend,
        store=_store_path_from(namespace),
        max_inflight=namespace.max_inflight,
        queue_limit=namespace.queue_limit,
    )
    # Workers are detached processes (they survive parent death), so the
    # signal handlers must cover the spawn window too: a SIGTERM while
    # the fleet is booting kills the workers instead of leaking them.
    # Once the router exists, signals route through its graceful stop.
    state: dict[str, Any] = {"router": None, "stop_requested": False}

    def _stop_cluster_async() -> None:
        # Flag first, read second: pairs with the post-construction
        # check below so a signal landing between supervisor.start()
        # and the router assignment still stops the process.
        state["stop_requested"] = True
        router = state["router"]
        if router is not None:
            router.stop_async()
        else:
            threading.Thread(
                target=lambda: supervisor.stop(drain=False), daemon=True
            ).start()

    with _graceful_signals(_stop_cluster_async, "repro serve"):
        try:
            router = boot_router(
                supervisor,
                host=namespace.host,
                port=namespace.port,
                backend=namespace.backend,
            )
        except ReproError:
            if state["stop_requested"]:
                # The signal tore the fleet down mid-boot; that is the
                # stop the caller asked for, not a crash.
                supervisor.stop(drain=False)
                return 0
            raise
        state["router"] = router
        if state["stop_requested"]:
            # The signal beat the assignment: its handler tore the fleet
            # down but could not see the router, so stop it here instead
            # of serving a dead fleet.
            router.stop()
            return 0
        print(
            f"repro serve: router on {router.address} sharding over "
            f"{namespace.workers} worker(s) "
            f"({', '.join(handle.address or '?' for handle in supervisor.handles)})",
            flush=True,
        )
        _write_port_file(namespace, router.address)
        try:
            router.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - handler owns SIGINT
            print("repro serve: interrupted, draining the cluster", file=sys.stderr)
        finally:
            router.stop()
    return 0


def _command_cluster(namespace: argparse.Namespace) -> int:
    from .cluster import CLUSTER_STATUS_OP
    from .service import request_lines

    try:
        status_line, metrics_line = request_lines(
            namespace.host,
            namespace.port,
            [json.dumps({"op": CLUSTER_STATUS_OP}, allow_nan=False), json.dumps({"op": "metrics"})],
        )
    except OSError as error:
        raise ReproError(
            f"cannot reach a router at {namespace.host}:{namespace.port}: {error}"
        ) from error
    status_response = json.loads(status_line)
    if not status_response.get("ok"):
        raise ReproError(
            f"router refused {CLUSTER_STATUS_OP}: {status_response.get('error')} "
            "(is this a single-process `repro serve` daemon?)"
        )
    status = status_response["cluster"]
    metrics = json.loads(metrics_line).get("metrics", {})
    if namespace.json:
        print(json.dumps({"cluster": status, "metrics": metrics}, indent=2, allow_nan=False))
        return 0
    print(
        f"router {namespace.host}:{namespace.port}: {status['status']}, "
        f"{status['alive']}/{status['workers']} worker(s) alive, "
        f"{status['worker_restarts']} restart(s), {status['reroutes']} reroute(s), "
        f"{status['router_coalesced']} coalesced at the router"
    )
    shard_metrics = {row["worker"]: row for row in metrics.get("shards", [])}
    for row in status["shards"]:
        counters = shard_metrics.get(row["worker"], {})
        worker_totals = (counters.get("metrics") or {}).get("totals", {})
        state = "up" if row["alive"] else "DOWN"
        if counters.get("degraded"):
            state += " (degraded)"
        print(
            f"  shard {row['worker']}: {state}  {row['address'] or '?'}  "
            f"pid {row['pid']}  restarts {row['restarts']}  "
            f"forwarded {counters.get('forwarded', 0)}  "
            f"failures {counters.get('failures', 0)}  "
            f"requests {worker_totals.get('requests', 0)} "
            f"(solves {worker_totals.get('solves', 0)}, "
            f"hits {worker_totals.get('cache_hits', 0) + worker_totals.get('store_hits', 0)})"
        )
    return 0


# -- classic sub-commands (thin wrappers over the facade) ----------------------------


def _command_feasibility(namespace: argparse.Namespace) -> int:
    verdict = classify_feasibility(_attributes_from(namespace))
    if namespace.json:
        print(
            json.dumps(
                {"feasible": verdict.feasible, "reasons": list(verdict.reasons)}, indent=2
            , allow_nan=False)
        )
    else:
        print(verdict.describe())
    return 0


def _command_search(namespace: argparse.Namespace) -> int:
    spec = SearchProblem(
        distance=namespace.distance,
        visibility=namespace.visibility,
        bearing=namespace.bearing,
    )
    result = api_solve(spec, backend="simulation")
    print(result.to_json(indent=2) if namespace.json else result.summary())
    return 0


def _command_rendezvous(namespace: argparse.Namespace) -> int:
    spec = RendezvousProblem(
        distance=namespace.distance,
        visibility=namespace.visibility,
        bearing=namespace.bearing,
        speed=namespace.speed,
        time_unit=namespace.time_unit,
        orientation=namespace.orientation,
        chirality=namespace.chirality,
        horizon=namespace.horizon,
        allow_infeasible=namespace.allow_infeasible,
    )
    result = api_solve(spec, backend="simulation")
    print(result.to_json(indent=2) if namespace.json else result.summary())
    return 0


def _command_experiments(namespace: argparse.Namespace) -> int:
    from .experiments.registry import experiment_ids
    from .experiments.runall import run_all_resumable, write_summary

    if namespace.list:
        for identifier in experiment_ids():
            print(identifier)
        return 0
    if not namespace.all and not namespace.ids:
        print("nothing to run: pass experiment ids, --all or --list", file=sys.stderr)
        return 2
    store_path = _store_path_from(namespace)
    if namespace.expect_warm and store_path is None:
        raise InvalidParameterError(
            f"--expect-warm needs a store to answer from: pass --store DIR "
            f"(or set ${STORE_ENV_VAR})"
        )
    reports, run_summary = run_all_resumable(
        output_dir=namespace.output,
        quick=namespace.quick,
        ids=None if namespace.all else namespace.ids,
        store=store_path,
        processes=namespace.processes,
        progress=_experiment_progress_printer() if namespace.progress else None,
    )
    if namespace.progress:
        print(file=sys.stderr)
    for report in reports:
        print(report.to_text())
        print()
    if store_path is not None:
        print(run_summary.describe())
        print()
    if namespace.output is not None:
        summary = write_summary(reports, Path(namespace.output) / "summary.md")
        print(f"summary written to {summary}")
    if namespace.expect_warm:
        if not run_summary.fully_warm:
            print(
                f"error: --expect-warm but {run_summary.fresh_solves} spec(s) were "
                "solved fresh instead of answering from the store",
                file=sys.stderr,
            )
            return 1
        if run_summary.fingerprint_mismatches:
            print(
                "error: --expect-warm but result fingerprints diverged in: "
                + ", ".join(run_summary.fingerprint_mismatches),
                file=sys.stderr,
            )
            return 1
    return 0 if all(report.all_passed for report in reports) else 1


def _experiment_progress_printer():
    """A streaming progress line fed by ``BatchRunner`` completions.

    Results arrive in completion order (the ``run_iter`` stream), so the
    line advances while a sweep is still solving -- not after it.
    """
    state = {"experiment": None, "done": 0}

    def show(experiment_id: str, completion) -> None:
        if experiment_id != state["experiment"]:
            if state["experiment"] is not None:
                print(file=sys.stderr)
            state["experiment"] = experiment_id
            state["done"] = 0
        state["done"] += 1
        print(
            f"\r{experiment_id}: {state['done']} result(s) "
            f"[last: {completion.source}, {completion.latency * 1e3:.1f} ms]",
            end="",
            file=sys.stderr,
            flush=True,
        )

    return show


def _command_store(namespace: argparse.Namespace) -> int:
    from .analysis import fold_envelopes

    store_path = _store_path_from(namespace)
    if store_path is None:
        raise InvalidParameterError(
            f"repro store needs --store DIR (or ${STORE_ENV_VAR} in the environment)"
        )
    # Only `import` may create the directory; the inspect/maintain
    # actions on a mistyped path should say so, not report an empty store.
    if namespace.action != "import" and not Path(store_path).is_dir():
        raise InvalidParameterError(f"store directory {store_path!r} does not exist")
    store = ResultStore(store_path)
    if namespace.action == "stats":
        stats = store.stats()
        aggregate = fold_envelopes(envelope for _, envelope in store.scan())
        if namespace.json:
            payload = {
                "path": stats.path,
                "segments": stats.segments,
                "records": stats.records,
                "unique": stats.unique,
                "duplicates": stats.duplicates,
                "skipped_lines": stats.skipped_lines,
                "total_bytes": stats.total_bytes,
                "backends": stats.backends,
                "groups": [
                    {
                        "kind": group.kind,
                        "backend": group.backend,
                        "results": group.count,
                        "solved": group.solved,
                        "unsolved": group.unsolved,
                        "bound_only": group.bound_only,
                        "infeasible": group.infeasible,
                        "mean_measured_time": group.measured_time.mean
                        if group.measured_time.count
                        else None,
                        "max_bound_ratio": group.bound_ratio.maximum
                        if group.bound_ratio.count
                        else None,
                    }
                    for _, group in sorted(aggregate.groups.items())
                ],
            }
            print(json.dumps(payload, indent=2, allow_nan=False))
        else:
            print(stats.describe())
            if aggregate.groups:
                print()
                print(aggregate.to_table().to_text())
        return 0
    if namespace.action == "gc":
        kept, removed = store.gc()
        if namespace.json:
            print(json.dumps({"action": "gc", "kept": kept, "removed_segments": removed}, allow_nan=False))
        else:
            print(f"compacted {removed} segment(s) into 1; {kept} live record(s) kept")
        return 0
    if namespace.file is None:
        raise InvalidParameterError(f"repro store {namespace.action} needs --file FILE")
    if namespace.action == "export":
        count = store.export(namespace.file)
        if namespace.json:
            print(
                json.dumps(
                    {"action": "export", "records": count, "file": str(namespace.file)}
                , allow_nan=False)
            )
        else:
            print(f"exported {count} record(s) to {namespace.file}")
        return 0
    added = store.import_file(namespace.file)
    if namespace.json:
        print(
            json.dumps(
                {
                    "action": "import",
                    "added": added,
                    "total": len(store),
                    "file": str(namespace.file),
                }
            , allow_nan=False)
        )
    else:
        print(f"imported {added} new record(s) from {namespace.file} ({len(store)} total)")
    return 0


def _command_suites(namespace: argparse.Namespace) -> int:
    import hashlib

    from .workloads import spec_suite, spec_suite_names

    rows = []
    for name in spec_suite_names():
        specs = spec_suite(name)
        if hasattr(specs, "digest"):
            # A lazy suite knows its own identity; asking it avoids
            # materializing 10^5 spec objects just to list the row.
            kinds = sorted(specs.kinds)
            digest = specs.digest()
            faulted = specs.faulted
        else:
            kinds = sorted({spec.kind for spec in specs})
            hashes = [spec.canonical_hash() for spec in specs]
            digest = hashlib.sha256("".join(hashes).encode("utf-8")).hexdigest()[:12]
            faulted = sum(
                1
                for spec in specs
                if getattr(spec, "fault_model", None) is not None
                and spec.fault_model.is_fault
            )
        rows.append(
            {
                "name": name,
                "specs": len(specs),
                "kinds": kinds,
                "faulted": faulted,
                "digest": digest,
            }
        )
    if namespace.json:
        print(json.dumps(rows, indent=2, allow_nan=False))
        return 0
    width = max(len(row["name"]) for row in rows)
    for row in rows:
        fault_note = f"  {row['faulted']:>3} faulted" if row["faulted"] else "            "
        print(
            f"{row['name']:<{width}}  {row['specs']:>5} specs{fault_note}  "
            f"[{', '.join(row['kinds'])}]  {row['digest']}"
        )
    return 0


def _command_sweep(namespace: argparse.Namespace) -> int:
    """Solve one named suite end to end and report its fingerprint digest.

    Four execution paths, one outcome shape: locally through the shared
    :class:`BatchRunner`, remotely one solve per round-trip, remotely
    streamed through the daemon's ``subscribe`` verb, or shipped
    as one partitioned ``--distributed`` sweep that the cluster front
    spreads across its workers -- the digest is order-independent, so
    all of them agree bit-for-bit on the same suite (``--fold`` swaps it
    for the blob-hash fold digest, equally order-independent).
    """
    from .experiments.manifest import fingerprint_digest
    from .workloads import spec_suite

    specs = spec_suite(namespace.suite)
    if namespace.fold and not namespace.distributed:
        raise InvalidParameterError("--fold only applies with --distributed")
    if namespace.distributed and namespace.subscribe:
        raise InvalidParameterError(
            "--distributed and --subscribe are different wire verbs; pick one"
        )
    if namespace.connect is not None:
        outcome = _sweep_connect(namespace, specs)
    else:
        if namespace.subscribe or namespace.binary or namespace.distributed:
            raise InvalidParameterError(
                "--subscribe, --distributed and --binary only apply with --connect"
            )
        runner = BatchRunner(
            backend=namespace.backend,
            processes=namespace.processes,
            store=_store_path_from(namespace),
        )
        results, stats = runner.run(specs)
        outcome = {
            "suite": namespace.suite,
            "mode": "local",
            "total": stats.total,
            "unique": stats.unique,
            "errors": 0,
            "sources": {
                key: value
                for key, value in (
                    ("cache", stats.cache_hits),
                    ("store", stats.solved_from_store),
                    ("solved", stats.solved_fresh),
                )
                if value
            },
            "fingerprint_digest": fingerprint_digest(results),
            "wall_time_ms": round(stats.wall_time * 1e3, 3),
        }
    if namespace.json:
        print(json.dumps(outcome, indent=2, sort_keys=True, allow_nan=False))
    else:
        sources = ", ".join(
            f"{key}={value}" for key, value in sorted(outcome["sources"].items())
        )
        print(
            f"sweep {outcome['suite']} [{outcome['mode']}]: "
            f"{outcome['total']} spec(s) ({outcome['unique']} unique), "
            f"{outcome['errors']} error(s), {outcome['wall_time_ms']:.0f} ms "
            f"[{sources}]"
        )
        if outcome.get("partitions") is not None:
            shards = ", ".join(
                f"worker {row['worker']}: {row['completed']}/{row['specs']}"
                for row in outcome["partitions"]
            )
            print(
                f"fan-out {outcome['fanout']} [{shards}]; "
                f"repartitioned {outcome['repartitioned']}"
            )
        if "fold" in outcome:
            from .analysis.streaming import EnvelopeAggregate

            if outcome["fold"] is not None:
                table = EnvelopeAggregate.from_wire(outcome["fold"]).to_table(
                    title="Sweep results by kind and backend"
                )
                print(table.to_text())
            print(f"fold digest: {outcome['fold_digest']}")
        else:
            print(f"fingerprint digest: {outcome['fingerprint_digest']}")
    return 0 if outcome["errors"] == 0 else 1


def _sweep_connect(namespace: argparse.Namespace, specs: list) -> dict[str, Any]:
    """Run one suite against a daemon/router, streamed or per-request."""
    import time as _time

    from .api.result import SolveResult
    from .experiments.manifest import fingerprint_digest
    from .service import ServiceClient

    host, port = _parse_address(namespace.connect)
    try:
        client = ServiceClient(host, port, binary=namespace.binary)
    except OSError as error:
        raise ReproError(f"cannot reach a daemon at {host}:{port}: {error}") from error
    with client:
        if namespace.distributed:
            mode = "fold" if namespace.fold else "stream"
            stream = client.sweep(specs, backend=namespace.backend, mode=mode)
            fold_doc = None
            count = 0
            for record in stream:
                if record.get("op") == "partial":
                    fold_doc = record.get("fold")
                    continue
                count += 1
                if namespace.progress:
                    print(
                        f"  [{count}/{stream.ack['unique']}] seq={record['seq']} "
                        f"{record['key']['spec_hash'][:12]} via {record['served_by']}",
                        file=sys.stderr,
                    )
                if not record.get("ok"):
                    print(
                        f"  spec {record['key']['spec_hash'][:12]} failed: "
                        f"{record.get('error')}",
                        file=sys.stderr,
                    )
            summary = stream.summary
            assert summary is not None  # iterator stops only on the summary
            outcome = {
                "suite": namespace.suite,
                "mode": f"sweep/{mode}/{client.format}",
                "total": summary["total"],
                "unique": summary["unique"],
                "errors": summary["errors"],
                "sources": summary["sources"],
                "fanout": stream.ack.get("fanout"),
                "partitions": summary.get("partitions"),
                "repartitioned": summary.get("repartitioned", 0),
                "wall_time_ms": summary["wall_time_ms"],
            }
            if mode == "fold":
                outcome["fold"] = fold_doc
                outcome["fold_digest"] = summary.get("fold_digest")
            else:
                outcome["fingerprint_digest"] = summary["fingerprint_digest"]
            return outcome
        if namespace.subscribe:
            stream = client.subscribe(specs, backend=namespace.backend)
            errors = 0
            count = 0
            for record in stream:
                count += 1
                if namespace.progress:
                    print(
                        f"  [{count}/{stream.ack['unique']}] seq={record['seq']} "
                        f"{record['key']['spec_hash'][:12]} via {record['served_by']}",
                        file=sys.stderr,
                    )
                if not record.get("ok"):
                    errors += 1
                    print(
                        f"  spec {record['key']['spec_hash'][:12]} failed: "
                        f"{record.get('error')}",
                        file=sys.stderr,
                    )
            summary = stream.summary
            assert summary is not None  # iterator stops only on the summary
            return {
                "suite": namespace.suite,
                "mode": f"subscribe/{client.format}",
                "total": summary["total"],
                "unique": summary["unique"],
                "errors": summary["errors"],
                "sources": summary["sources"],
                "fingerprint_digest": summary["fingerprint_digest"],
                "wall_time_ms": summary["wall_time_ms"],
            }
        started = _time.perf_counter()
        results = []
        errors = 0
        sources: dict[str, int] = {}
        for index, spec in enumerate(specs):
            response = client.request(
                {"op": "solve", "spec": spec.to_dict(), "backend": namespace.backend}
            )
            if response.get("ok"):
                results.append(SolveResult.from_dict(response["result"]))
                source = response.get("served_by", "solve")
                sources[source] = sources.get(source, 0) + 1
            else:
                errors += 1
                sources["error"] = sources.get("error", 0) + 1
                print(f"  spec {index} failed: {response.get('error')}", file=sys.stderr)
            if namespace.progress:
                print(
                    f"  [{index + 1}/{len(specs)}] via {response.get('served_by', '?')}",
                    file=sys.stderr,
                )
        return {
            "suite": namespace.suite,
            "mode": f"connect/{client.format}",
            "total": len(specs),
            "unique": len(specs),
            "errors": errors,
            "sources": sources,
            "fingerprint_digest": fingerprint_digest(results),
            "wall_time_ms": round((_time.perf_counter() - started) * 1e3, 3),
        }


def _command_schedule(namespace: argparse.Namespace) -> int:
    from .viz import overlap_rows, render_schedule_ascii

    print(RoundSchedule(1.0).describe(namespace.rounds))
    print()
    print(RoundSchedule(namespace.tau).describe(namespace.rounds))
    print()
    print(render_schedule_ascii(overlap_rows(namespace.rounds, namespace.tau)))
    return 0


def _parse_swarm_member(specification: str) -> tuple[Vec2, RobotAttributes]:
    parts = [part.strip() for part in specification.split(",")]
    if len(parts) != 6:
        raise ReproError(
            f"swarm member {specification!r} must have 6 comma-separated fields: x,y,v,tau,phi,chi"
        )
    x, y, speed, time_unit, orientation, chirality = (float(part) for part in parts)
    return Vec2(x, y), RobotAttributes(
        speed=speed, time_unit=time_unit, orientation=orientation, chirality=int(chirality)
    )


def _gathering_member_from(specification: str) -> GatheringMember:
    position, attributes = _parse_swarm_member(specification)
    return GatheringMember(
        x=position.x,
        y=position.y,
        speed=attributes.speed,
        time_unit=attributes.time_unit,
        orientation=attributes.orientation,
        chirality=attributes.chirality,
    )


def _command_gather(namespace: argparse.Namespace) -> int:
    from .gathering import GatheringInstance, simulate_gathering, swarm_feasibility

    members = [_parse_swarm_member(specification) for specification in namespace.robot]
    instance = GatheringInstance.create(
        positions=[position for position, _ in members],
        attributes=[attributes for _, attributes in members],
        visibility=namespace.visibility,
    )
    print(swarm_feasibility(instance).describe())
    print()
    outcome = simulate_gathering(instance, horizon=namespace.horizon)
    print(outcome.describe())
    return 0


def _command_lint(namespace: argparse.Namespace) -> int:
    from .lint import Baseline, run_lint

    package_root = Path(__file__).resolve().parent
    if namespace.baseline is not None:
        baseline_path = Path(namespace.baseline)
    else:
        # src/repro -> repo root; keep the baseline next to pyproject.
        baseline_path = package_root.parent.parent / "lint-baseline.json"
    baseline = Baseline.load(baseline_path)
    report = run_lint(
        package_root,
        paths=namespace.paths or None,
        baseline=baseline,
    )
    if namespace.write_baseline:
        Baseline.from_findings(report.findings).save(baseline_path)
        print(f"wrote {len(report.findings)} finding(s) to {baseline_path}", file=sys.stderr)
        return 0
    if namespace.json:
        print(report.to_json(strict=namespace.strict))
    else:
        print(report.render_text(strict=namespace.strict))
    return report.exit_code(strict=namespace.strict)


_COMMANDS = {
    "solve": _command_solve,
    "feasibility": _command_feasibility,
    "search": _command_search,
    "rendezvous": _command_rendezvous,
    "experiments": _command_experiments,
    "store": _command_store,
    "suites": _command_suites,
    "sweep": _command_sweep,
    "serve": _command_serve,
    "cluster": _command_cluster,
    "schedule": _command_schedule,
    "gather": _command_gather,
    "lint": _command_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    namespace = parser.parse_args(argv)
    try:
        code = _COMMANDS[namespace.command](namespace)
        # Flush here so a reader that closed early (``| head``) breaks
        # the pipe inside this block, not in the interpreter's exit flush.
        sys.stdout.flush()
        return code
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Point stdout at devnull so the exit flush of what is still
        # buffered cannot raise again (the recipe in Python's signal docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
