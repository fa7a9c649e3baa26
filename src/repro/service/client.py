"""A minimal stdlib client for the simulation service.

Used by the integration tests, the CI ``service-smoke`` jobs, the
benchmark's ``service-mixed`` load, and the sweep autopilot's service
backend; also the reference for how to talk to the service from
any HTTP client.  One :class:`ServiceClient` is safe to share across
threads — each thread keeps its **own persistent keep-alive connection**
(the server speaks HTTP/1.1 with explicit ``Content-Length``, so
connections are reusable), which matters once a load generator drives
thousands of requests: without reuse, every request pays a TCP handshake
and the client side bleeds ephemeral ports in ``TIME_WAIT``.

Connections are opened with ``TCP_NODELAY``.  ``http.client`` sends a
request's headers and its body as two writes; under Nagle the body
waits until the server acknowledges the headers, and the server delays
that ACK by 40 ms, so every POST would pay 40 ms on the wire.  The
server sets the same option on its side.  Any other HTTP client that
talks to the service should set it too.

A request that finds its cached connection dead (server restarted,
keep-alive timeout, drain) transparently reconnects and retries once.
Retrying is sound here because the service's write path is idempotent by
construction: a design point is content-addressed, so a re-submitted
request coalesces onto the in-flight entry (or hits the cache) instead
of running twice.

**Backpressure** is handled by an optional :class:`RetryPolicy`: with
one installed, a 429 (saturated admission queue) sleeps out the server's
``Retry-After`` hint (clamped, jittered, under a cumulative wait budget)
and retries; a 503 whose cause is *draining* re-polls ``/healthz`` a
bounded number of times waiting for a restart, and a 503 whose cause is
a *result timeout* retries directly — the simulation kept running
server-side, so the retry coalesces or hits the cache.  Hard errors
(400/404/500) always propagate immediately.

``socket.timeout`` is deliberately **not** retryable: a timed-out
request may still be executing server-side, and a blind retransmit
doubles the load on a server that is already too slow — the opposite of
backing off.  Callers that want at-most-once semantics on timeout get
them; callers that know their request is idempotent can catch the
timeout and re-submit under their own budget (the sweep orchestrator's
ledger resume is the systematic form of that).
"""

import json
import random
import socket
import threading
import time
from dataclasses import dataclass
from http.client import (
    BadStatusLine,
    CannotSendRequest,
    HTTPConnection,
    ResponseNotReady,
)
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ServiceError

#: Connection-level failures that mean "stale keep-alive socket": safe to
#: reconnect and retry exactly once.  ``ConnectionError`` covers reset /
#: refused / aborted; the ``http.client`` states cover a connection the
#: server half-closed between our requests.  ``socket.timeout`` is
#: intentionally absent — see the module docstring.
_RETRYABLE = (ConnectionError, BadStatusLine, CannotSendRequest,
              ResponseNotReady, BrokenPipeError)

#: Longest error-body snippet carried into a :class:`ServiceError` when
#: the body is not JSON (a proxy page, an HTML error, a torn drain).
_SNIPPET_BYTES = 200


class _NoDelayConnection(HTTPConnection):
    """An ``HTTPConnection`` whose socket sends without Nagle's delay."""

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class ServiceHTTPError(ServiceError):
    """A non-2xx service response, carrying status and decoded body.

    ``retry_after`` is the parsed ``Retry-After`` response header in
    seconds when the server sent one (the 429 saturation path), else
    ``None``.
    """

    def __init__(self, status: int, payload: Dict[str, object],
                 retry_after: Optional[float] = None) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload
        self.retry_after = retry_after


@dataclass(frozen=True)
class RetryPolicy:
    """How a :class:`ServiceClient` rides out transient backpressure.

    The policy is deliberately bounded in three independent ways: per
    request it retries at most ``max_attempts`` times, sleeps at most
    ``max_retry_after`` seconds per attempt no matter what the server
    hints, and sleeps at most ``max_total_wait`` seconds cumulatively —
    whichever budget runs out first re-raises the underlying
    :class:`ServiceHTTPError` to the caller.  ``jitter`` stretches each
    wait by up to that fraction so a fleet of sweep workers released by
    the same hint does not re-slam the admission queue in lockstep.

    ``sleep`` and ``rng`` are injectable for tests (a recording fake
    makes backoff assertions exact and instant).
    """

    max_attempts: int = 8
    max_total_wait: float = 120.0
    max_retry_after: float = 30.0
    base_backoff: float = 0.25
    jitter: float = 0.1
    healthz_poll: float = 0.5
    healthz_attempts: int = 10
    sleep: Optional[Callable[[float], None]] = None
    rng: Optional[Callable[[], float]] = None

    def _sleep(self, seconds: float) -> None:
        (self.sleep or time.sleep)(seconds)

    def _jittered(self, seconds: float) -> float:
        roll = (self.rng or random.random)()
        return seconds * (1.0 + self.jitter * roll)

    def backoff(self, attempt: int,
                retry_after: Optional[float]) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        if retry_after is not None and retry_after > 0:
            wait = min(float(retry_after), self.max_retry_after)
        else:
            wait = min(self.base_backoff * (2.0 ** (attempt - 1)),
                       self.max_retry_after)
        return self._jittered(wait)


def error_kind(status: int, payload: Dict[str, object]) -> str:
    """The machine-readable cause of a service error response.

    Servers from this repository stamp a ``kind`` field
    (``saturated`` / ``draining`` / ``timeout`` / ``schema`` /
    ``internal``); for anything older or foreign, fall back to the
    status code and a text sniff of the error message.
    """
    kind = payload.get("kind")
    if isinstance(kind, str):
        return kind
    if status == 429:
        return "saturated"
    if status == 503:
        text = (str(payload.get("error", ""))
                + str(payload.get("status", ""))).lower()
        if "drain" in text:
            return "draining"
        if "time" in text:
            return "timeout"
        return "draining"
    return "hard"


class ServiceClient:
    """Typed wrappers over the service's five endpoints."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8351,
                 timeout: float = 180.0,
                 retry: Optional[RetryPolicy] = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: ``None`` keeps the historical raise-on-first-429 behavior;
        #: the sweep orchestrator and ``repro sweep`` install a policy.
        self.retry = retry
        self._local = threading.local()

    # -- transport --------------------------------------------------------
    def _connection(self) -> HTTPConnection:
        """This thread's persistent connection, created on first use."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = _NoDelayConnection(self.host, self.port,
                                            timeout=self.timeout)
            self._local.connection = connection
        return connection

    def _drop_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            try:
                connection.close()
            except OSError:
                pass
            self._local.connection = None

    def close(self) -> None:
        """Close *this thread's* cached connection (each thread owns its
        own; a shared client is fully closed once every using thread —
        or the client itself — is garbage collected)."""
        self._drop_connection()

    @staticmethod
    def _decode_body(status: int, raw: bytes) -> Dict[str, object]:
        """Decoded JSON body, surviving bodies that are not JSON.

        Error responses can come back as HTML or empty from a proxy or a
        mid-drain connection; those must surface as a structured error
        payload (status + snippet), never as a ``JSONDecodeError``.  A
        non-JSON body on a *success* status means the peer is not this
        service at all.
        """
        if not raw:
            return {}
        try:
            decoded = json.loads(raw)
        except ValueError:
            snippet = raw[:_SNIPPET_BYTES].decode("utf-8", "replace")
            if status < 400:
                raise ServiceError(
                    f"HTTP {status} with a non-JSON body "
                    f"({snippet!r}) — is that endpoint really a repro "
                    f"service?") from None
            return {"error": f"HTTP {status} with a non-JSON body",
                    "raw": snippet}
        if not isinstance(decoded, dict):
            return {"value": decoded}
        return decoded

    def _exchange(self, method: str, path: str, payload: Optional[bytes],
                  headers: Dict[str, str]
                  ) -> Tuple[int, Dict[str, object], Optional[float]]:
        connection = self._connection()
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        hint = response.getheader("Retry-After")
        if response.will_close:
            self._drop_connection()
        retry_after: Optional[float] = None
        if hint is not None:
            try:
                retry_after = float(hint)
            except ValueError:
                retry_after = None
        return response.status, self._decode_body(response.status, raw), \
            retry_after

    def _request(self, method: str, path: str, body: Optional[Dict]
                 ) -> Tuple[int, Dict[str, object], Optional[float]]:
        """One exchange with stale-socket recovery; returns
        ``(status, payload, retry_after_seconds)``."""
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        try:
            return self._exchange(method, path, payload, headers)
        except _RETRYABLE:
            # The cached connection went stale between requests; one
            # reconnect, one retry.  Errors on the fresh connection are
            # real and propagate.
            self._drop_connection()
            return self._exchange(method, path, payload, headers)
        except Exception:
            self._drop_connection()
            raise

    def request(self, method: str, path: str,
                body: Optional[Dict] = None) -> Tuple[int, Dict[str, object]]:
        """One HTTP exchange on the keep-alive connection; returns
        (status, decoded JSON body)."""
        status, payload, _ = self._request(method, path, body)
        return status, payload

    # -- backpressure -----------------------------------------------------
    def _await_not_draining(self, policy: RetryPolicy) -> bool:
        """Bounded ``/healthz`` re-poll: ``True`` once the service
        reports ready again, ``False`` when the poll budget runs out
        (the drain was a real shutdown)."""
        for _ in range(policy.healthz_attempts):
            policy._sleep(policy.healthz_poll)
            try:
                status, _, _ = self._request("GET", "/healthz", None)
            except _RETRYABLE:
                continue
            if status == 200:
                return True
        return False

    def _checked(self, method: str, path: str,
                 body: Optional[Dict] = None) -> Dict[str, object]:
        policy = self.retry
        attempt = 0
        waited = 0.0
        while True:
            status, payload, retry_after = self._request(method, path, body)
            if status < 400:
                return payload
            error = ServiceHTTPError(status, payload,
                                     retry_after=retry_after)
            if policy is None:
                raise error
            kind = error_kind(status, payload)
            attempt += 1
            if kind not in ("saturated", "timeout", "draining"):
                raise error
            if attempt >= policy.max_attempts:
                raise error
            if kind == "draining":
                if not self._await_not_draining(policy):
                    raise error
                continue
            if kind == "timeout":
                # The simulation kept running server-side; an immediate
                # re-submit coalesces onto it or hits the cache.
                continue
            wait = policy.backoff(attempt, retry_after)
            if waited + wait > policy.max_total_wait:
                raise error
            policy._sleep(wait)
            waited += wait

    # -- endpoints --------------------------------------------------------
    def healthz(self) -> Dict[str, object]:
        return self._checked("GET", "/healthz")

    def metrics(self) -> Dict[str, object]:
        return self._checked("GET", "/metrics")

    def run(self, workload: str, scheme: str = "conventional",
            config: str = "config2", instructions: int = 12_000,
            seed: int = 1, counters: bool = False,
            **extra: object) -> Dict[str, object]:
        body: Dict[str, object] = {
            "workload": workload, "scheme": scheme, "config": config,
            "instructions": instructions, "seed": seed,
        }
        body.update(extra)
        path = "/run?counters=1" if counters else "/run"
        return self._checked("POST", path, body)

    def run_point(self, point: Dict[str, object],
                  counters: bool = False) -> Dict[str, object]:
        """POST one already-built run payload verbatim (load generator)."""
        path = "/run?counters=1" if counters else "/run"
        return self._checked("POST", path, dict(point))

    def sweep(self, points: List[Dict], defaults: Optional[Dict] = None,
              counters: bool = False) -> Dict[str, object]:
        body: Dict[str, object] = {"points": points}
        if defaults:
            body["defaults"] = defaults
        path = "/sweep?counters=1" if counters else "/sweep"
        return self._checked("POST", path, body)

    def experiment(self, exp_id: str,
                   budget: Optional[int] = None) -> Dict[str, object]:
        path = f"/experiment/{exp_id}"
        if budget is not None:
            path += f"?budget={budget}"
        return self._checked("GET", path)
