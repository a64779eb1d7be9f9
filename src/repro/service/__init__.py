"""``repro.service`` -- the long-lived, latency-aware serving tier.

Built on the planner/executor split (:mod:`repro.exec`) and the
thread-safe :class:`~repro.api.batch.BatchRunner`:

* :mod:`repro.service.service`  -- :class:`SolverService`: one shared
  runner (locked LRU + store tier), in-flight request coalescing by
  ``(backend, spec hash)``, admission control (bounded in-flight +
  bounded queue), per-backend metrics and graceful drain;
* :mod:`repro.service.metrics`  -- :class:`ServiceMetrics`: request /
  hit-rate / latency-percentile accounting;
* :mod:`repro.service.protocol` -- the JSON-Lines wire format (one
  request per line, one response per line; ``solve`` / ``health`` /
  ``metrics`` verbs plus the streamed ``subscribe`` / ``sweep`` record
  shapes) shared by the daemon, the cluster front and ``repro solve
  --stdin-jsonl``;
* :mod:`repro.service.frames`   -- the negotiated binary wire frames:
  the same JSON lines behind a 6-byte length-prefix header;
* :mod:`repro.service.aio`      -- :class:`AsyncReproServer`: the
  ``repro serve`` TCP daemon on one asyncio event loop, which answers
  solves held in its hot cache or its runner's LRU in the loop itself,
  both wire formats, plus the ``subscribe`` and ``sweep`` streamed-sweep
  verbs;
* :mod:`repro.service.client`   -- :func:`request_lines` (one-shot JSON
  lines) and :class:`ServiceClient`: persistent connections with
  transparent binary negotiation and streamed subscriptions.

Quickstart::

    from repro.api import SearchProblem
    from repro.service import SolverService

    with SolverService(backend="auto", store=".repro-store") as service:
        served = service.request(SearchProblem(distance=1.5, visibility=0.3))
        print(served.result.summary(), served.source, served.latency)
"""

from ..errors import ServiceProtocolError
from .aio import AsyncLineServer, AsyncReproServer, TransportMetrics, hot_solve_key
from .client import ServiceClient, SubscribeStream, request_lines
from .frames import FORMAT_BINARY, FORMAT_JSON, FrameError, decode_payload, encode_frame
from .metrics import ServiceMetrics
from .protocol import (
    COMPLETION_OP,
    SUBSCRIBE_OP,
    SUMMARY_OP,
    encode_response,
    handle_line,
    handle_request,
)
from .service import ServedResult, SolverService

__all__ = [
    "AsyncLineServer",
    "AsyncReproServer",
    "COMPLETION_OP",
    "FORMAT_BINARY",
    "FORMAT_JSON",
    "FrameError",
    "SUBSCRIBE_OP",
    "SUMMARY_OP",
    "ServedResult",
    "ServiceClient",
    "ServiceMetrics",
    "ServiceProtocolError",
    "SolverService",
    "SubscribeStream",
    "TransportMetrics",
    "decode_payload",
    "encode_frame",
    "encode_response",
    "handle_line",
    "handle_request",
    "hot_solve_key",
    "request_lines",
]
