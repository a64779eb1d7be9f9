"""CI smoke for the serving tier: daemon up, suite through the socket.

Run with::

    PYTHONPATH=src python benchmarks/serve_smoke.py [--suite NAME] [--clients N]

Starts the ``repro serve`` daemon (:class:`~repro.service.AsyncReproServer`)
on an ephemeral port, streams every spec of the
suite (plus one duplicate pass, so the caches have something to answer)
through concurrent socket clients, and fails (non-zero exit) unless:

* every response is ``ok`` and its fingerprint is bit-identical to a
  direct in-process ``solve()`` of the same spec;
* the daemon's ``metrics`` document is *consistent with the wire
  traffic*: it counted exactly the requests we sent, its per-backend
  sources (solves + cache + store + coalesced) partition them, zero
  errors, and the duplicate pass was answered without re-solving;
* a third pass through the **binary wire frames** answers every spec
  with the same fingerprints, hits the daemon's hot response cache,
  and is counted under the ``binary`` transport format;
* that pass is answered entirely in the event loop: the daemon's
  ``solve_paths`` counters show no request of it reaching the thread
  pool (a suite larger than the 256-entry hot cache, such as
  ``search-sweep-large``, runs through the in-loop LRU tier);
* ``health`` reports a serving daemon;
* no shared-memory segment is left behind in ``/dev/shm`` afterwards.

No timings are asserted -- this is a correctness/parity gate, the
throughput story lives in ``BENCH_serve.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading

from repro.api import BatchRunner, SolveResult
from repro.service import AsyncReproServer, ServiceClient, request_lines
from repro.workloads import spec_suite


def shm_entries() -> set:
    """Names currently in /dev/shm (empty off Linux)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", default="search-sweep", help="workload suite to stream")
    parser.add_argument("--clients", type=int, default=8, help="concurrent socket clients")
    parser.add_argument("--backend", default="auto", help="daemon default backend")
    namespace = parser.parse_args()

    suite = spec_suite(namespace.suite)
    workload = suite + suite  # the second pass must be all hits
    # The reference answers, computed in-process through the facade.
    expected_results, _ = BatchRunner(backend=namespace.backend).run(suite)
    expected = {
        result.provenance.spec_hash: result.fingerprint() for result in expected_results
    }
    shm_before = shm_entries()

    responses: list[dict] = []
    binary_responses: list[dict] = []
    lock = threading.Lock()

    with AsyncReproServer(backend=namespace.backend, max_inflight=namespace.clients) as server:
        server.serve_background()
        print(f"serve smoke: daemon on {server.address}, {len(workload)} requests")

        def client(slot: int) -> None:
            lines = [
                json.dumps({"op": "solve", "spec": workload[i].to_dict(), "id": i})
                for i in range(slot, len(workload), namespace.clients)
            ]
            if not lines:
                return
            answered = [
                json.loads(line)
                for line in request_lines(server.host, server.port, lines)
            ]
            with lock:
                responses.extend(answered)

        threads = [
            threading.Thread(target=client, args=(slot,))
            for slot in range(namespace.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # Third pass: same suite over the binary wire frames.  The daemon
        # already holds every answer in its hot cache or its runner LRU,
        # so this also exercises the zero-re-encode response cache under
        # the upgraded framing, and must never reach the thread pool.
        (paths_line,) = request_lines(
            server.host, server.port, [json.dumps({"op": "metrics"})]
        )
        paths_before = json.loads(paths_line)["metrics"]["solve_paths"]
        with ServiceClient(server.host, server.port, binary=True) as binary_client:
            if binary_client.format != "binary":
                with lock:
                    binary_responses.append(
                        {"ok": False, "error": "binary upgrade was declined"}
                    )
            else:
                for i, spec in enumerate(suite):
                    binary_responses.append(
                        binary_client.request({"op": "solve", "spec": spec.to_dict(), "id": i})
                    )

        health_line, metrics_line = request_lines(
            server.host,
            server.port,
            [json.dumps({"op": "health"}), json.dumps({"op": "metrics"})],
        )
        health = json.loads(health_line)["health"]
        metrics = json.loads(metrics_line)["metrics"]

    failures: list[str] = []
    if health["status"] != "serving":
        failures.append(f"health reported {health['status']!r}, expected 'serving'")
    if len(responses) != len(workload):
        failures.append(f"{len(responses)} responses for {len(workload)} requests")
    bad = [response for response in responses if not response.get("ok")]
    if bad:
        failures.append(f"{len(bad)} request(s) failed, first: {bad[0].get('error')}")
    else:
        for response in responses:
            served = SolveResult.from_dict(response["result"])
            fingerprint = expected.get(served.provenance.spec_hash)
            if fingerprint is None or served.fingerprint() != fingerprint:
                failures.append(
                    f"response {response.get('id')} drifted from the direct solve"
                )
                break

    if len(binary_responses) != len(suite):
        failures.append(
            f"{len(binary_responses)} binary responses for {len(suite)} requests"
        )
    bad_binary = [response for response in binary_responses if not response.get("ok")]
    if bad_binary:
        failures.append(
            f"{len(bad_binary)} binary request(s) failed, "
            f"first: {bad_binary[0].get('error')}"
        )
    else:
        for response in binary_responses:
            served = SolveResult.from_dict(response["result"])
            fingerprint = expected.get(served.provenance.spec_hash)
            if fingerprint is None or served.fingerprint() != fingerprint:
                failures.append(
                    f"binary response {response.get('id')} drifted from the direct solve"
                )
                break
        cache_served = sum(
            1 for response in binary_responses if response.get("served_by") == "cache"
        )
        if binary_responses and not cache_served:
            failures.append(
                "binary pass over a hot daemon was never answered from the response cache"
            )

    paths_after = metrics["solve_paths"]
    binary_paths = {
        path: paths_after[path] - paths_before[path] for path in ("hot", "lru", "pool")
    }
    if binary_paths["pool"]:
        failures.append(
            f"{binary_paths['pool']} request(s) of the warm binary pass reached the "
            "thread pool; every one must be answered in the event loop"
        )
    if binary_paths["hot"] + binary_paths["lru"] != len(suite):
        failures.append(
            f"the event loop answered {binary_paths['hot'] + binary_paths['lru']} "
            f"of the {len(suite)} warm binary requests"
        )

    transport = metrics.get("transport", {})
    binary_transport = transport.get("binary", {})
    if binary_transport.get("requests", 0) < len(suite):
        failures.append(
            f"transport counted {binary_transport.get('requests', 0)} binary "
            f"requests, wire sent {len(suite)}"
        )

    totals = metrics["totals"]
    answered = totals["solves"] + totals["cache_hits"] + totals["store_hits"] + totals["coalesced"]
    expected_requests = len(workload) + len(suite)
    if totals["requests"] != expected_requests:
        failures.append(
            f"metrics counted {totals['requests']} requests, wire sent {expected_requests}"
        )
    if answered + totals["errors"] != totals["requests"]:
        failures.append(f"metrics sources do not partition requests: {totals}")
    if totals["errors"]:
        failures.append(f"daemon recorded {totals['errors']} error(s)")
    if totals["solves"] > len(suite):
        failures.append(
            f"{totals['solves']} solves for {len(suite)} unique specs -- "
            "the duplicate pass was not answered from the caches"
        )

    leaked = shm_entries() - shm_before
    if leaked:
        failures.append(f"leaked /dev/shm segment(s): {sorted(leaked)}")

    print(
        f"serve smoke: {totals['requests']} requests = {totals['solves']} solved + "
        f"{totals['cache_hits']} cache + {totals['store_hits']} store + "
        f"{totals['coalesced']} coalesced ({totals['errors']} errors)"
    )
    print(
        f"serve smoke: binary pass {len(binary_responses)} responses, "
        f"{binary_transport.get('requests', 0)} counted on the binary transport, "
        f"answered {binary_paths['hot']} hot + {binary_paths['lru']} LRU in the loop "
        f"+ {binary_paths['pool']} in the pool"
    )
    if failures:
        for failure in failures:
            print(f"ERROR: {failure}", file=sys.stderr)
        return 1
    print(
        "serve smoke: metrics parity OK, fingerprints identical to direct solve "
        "on both wire formats, /dev/shm clean"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
