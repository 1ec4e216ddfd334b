"""Synchronous client for the campaign service's unix socket.

One short-lived connection per request (``watch`` holds its connection
open for the event stream).  Every socket has a timeout from the moment
it is created — the client never blocks indefinitely on a wedged or
dead server; it raises :class:`CampaignServiceError` with the socket
detail instead.  Polling waits go through the telemetry clock's
``sleep_s`` like every other timed wait in the system.

``watch`` survives dropped connections: when the stream dies mid-job it
waits the next delay of the fixed backoff schedule (0.1, 0.2, 0.4, 0.8
and 1.6 s, :func:`~repro.resilience.policy.backoff_sleep`), reconnects,
and resubscribes — emitting a synthetic ``{"event": "reconnect"}`` so
the consumer can tell the stream was stitched.  A drop after
:data:`WATCH_RECONNECT_ATTEMPTS` *consecutive* reconnects, one per
delay, gives up; any successfully delivered event resets the count.
"""

from __future__ import annotations

import socket
from pathlib import Path
from typing import Iterator, Optional

from repro.campaign.jobs import TERMINAL_STATES
from repro.campaign.protocol import (
    MAX_FRAME_BYTES,
    check_ok,
    decode_frame,
    encode_frame,
    request_frame,
)
from repro.errors import CampaignServiceError, ProtocolError
from repro.resilience.policy import BACKOFF_SCHEDULE_S, backoff_sleep
from repro.telemetry.clock import monotonic_ns, sleep_s

__all__ = ["CampaignClient", "default_socket_path"]

#: How long one request/response round-trip may take.
REQUEST_TIMEOUT_S = 30.0

#: How long ``watch`` waits for the next event before declaring the
#: server gone (progress ticks are sub-second; minutes of silence on a
#: non-terminal job means a dead server, not a quiet one).
WATCH_IDLE_TIMEOUT_S = 300.0

#: Status polling cadence for ``--wait``.
POLL_INTERVAL_S = 0.2

#: Consecutive reconnects ``watch`` makes before a further drop gives
#: up: one per backoff delay.
WATCH_RECONNECT_ATTEMPTS = len(BACKOFF_SCHEDULE_S)


def default_socket_path(cache_dir=None) -> Path:
    """Where ``serve`` listens by default: beside the artifact store."""
    from repro.parallel.store import default_cache_dir

    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return root / "campaign.sock"


class CampaignClient:
    """Thin blocking client: one method per protocol op."""

    def __init__(
        self, socket_path, timeout_s: float = REQUEST_TIMEOUT_S
    ) -> None:
        self.socket_path = Path(socket_path)
        self.timeout_s = timeout_s

    # -- plumbing ------------------------------------------------------

    def _connect(self, timeout_s: Optional[float] = None) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout_s if timeout_s is not None else self.timeout_s)
        try:
            sock.connect(str(self.socket_path))
        except OSError as exc:
            sock.close()
            raise CampaignServiceError(
                f"cannot reach campaign server at {self.socket_path}: {exc} "
                "(is `repro-spec2017 serve` running?)"
            ) from exc
        return sock

    @staticmethod
    def _read_frame(sock: socket.socket, buffer: bytearray) -> dict:
        """One newline-delimited frame; the buffer carries the remainder."""
        while True:
            newline = buffer.find(b"\n")
            if newline >= 0:
                raw = bytes(buffer[: newline + 1])
                del buffer[: newline + 1]
                return decode_frame(raw)
            if len(buffer) > MAX_FRAME_BYTES:
                raise ProtocolError("server frame exceeds the size limit")
            try:
                chunk = sock.recv(65536)
            except socket.timeout as exc:
                raise CampaignServiceError(
                    "timed out waiting for the campaign server"
                ) from exc
            except OSError as exc:
                raise CampaignServiceError(
                    f"connection to the campaign server failed: {exc}"
                ) from exc
            if not chunk:
                raise CampaignServiceError(
                    "campaign server closed the connection mid-response"
                )
            buffer.extend(chunk)

    def _request(self, op: str, **fields) -> dict:
        sock = self._connect()
        try:
            sock.sendall(encode_frame(request_frame(op, **fields)))
            return check_ok(self._read_frame(sock, bytearray()))
        except OSError as exc:
            raise CampaignServiceError(
                f"connection to the campaign server failed: {exc}"
            ) from exc
        finally:
            sock.close()

    # -- ops -----------------------------------------------------------

    def ping(self) -> dict:
        return self._request("ping")["server"]

    def submit(
        self,
        experiment: str,
        kwargs: Optional[dict] = None,
        priority: int = 100,
    ) -> dict:
        """Submit; returns ``{"job": ..., "deduped": bool}``."""
        return self._request(
            "submit",
            experiment=experiment,
            kwargs=kwargs or {},
            priority=priority,
        )

    def status(self, job_id: Optional[str] = None) -> dict:
        """One job's status document, or the server's when no id given."""
        response = self._request("status", job=job_id)
        return response["job"] if job_id is not None else response["server"]

    def result(self, job_id: str) -> dict:
        """The stored result payload of a done job."""
        return self._request("result", job=job_id)["payload"]

    def cancel(self, job_id: str) -> dict:
        return self._request("cancel", job=job_id)["job"]

    def ls(self) -> list:
        return self._request("ls")["jobs"]

    def shutdown(self) -> None:
        """Ask the server to drain and exit."""
        self._request("shutdown")

    def _watch_once(self, job_id: str) -> Iterator[dict]:
        """One watch subscription: events until ``end`` or a dropped stream."""
        sock = self._connect(timeout_s=WATCH_IDLE_TIMEOUT_S)
        buffer = bytearray()
        try:
            sock.sendall(encode_frame(request_frame("watch", job=job_id)))
            first = check_ok(self._read_frame(sock, buffer))
            yield {"event": "state", "job": first["job"]}
            if first["job"].get("state") in TERMINAL_STATES:
                # The server still sends its end frame; surface it.
                yield self._read_frame(sock, buffer)
                return
            while True:
                event = self._read_frame(sock, buffer)
                yield event
                if event.get("event") == "end":
                    return
        except OSError as exc:
            raise CampaignServiceError(
                f"watch stream to the campaign server failed: {exc}"
            ) from exc
        finally:
            sock.close()

    def watch(self, job_id: str, reconnect: bool = True) -> Iterator[dict]:
        """Yield progress/state events until the job's ``end`` frame.

        With ``reconnect`` (the default) a dropped stream is stitched:
        the schedule's next backoff delay, a fresh subscription, and a
        synthetic ``{"event": "reconnect", "attempt": k}`` marker in the
        stream.  The budget counts *consecutive* failures — any
        delivered event resets it — so a long job under an unreliable
        path is watched to completion, while a hard-down server fails
        after :data:`WATCH_RECONNECT_ATTEMPTS` reconnects.
        """
        failures = 0
        while True:
            delivered = False
            try:
                for event in self._watch_once(job_id):
                    delivered = True
                    failures = 0
                    yield event
                    if event.get("event") == "end":
                        return
                # The server closed the stream without an end frame
                # (connection reset mid-job): treat as a drop.
                raise CampaignServiceError(
                    "watch stream ended without the job finishing"
                )
            except CampaignServiceError:
                if not reconnect:
                    raise
                failures += 1
                if failures > WATCH_RECONNECT_ATTEMPTS:
                    raise
                backoff_sleep(failures)
                yield {
                    "event": "reconnect",
                    "job": job_id,
                    "attempt": failures,
                    "resumed": delivered,
                }

    def wait(self, job_id: str, timeout_s: Optional[float] = None) -> dict:
        """Poll until the job is terminal; returns its final status."""
        deadline = (
            None
            if timeout_s is None
            else monotonic_ns() + int(timeout_s * 1e9)
        )
        while True:
            job = self.status(job_id)
            if job.get("state") in TERMINAL_STATES:
                return job
            if deadline is not None and monotonic_ns() > deadline:
                raise CampaignServiceError(
                    f"timed out after {timeout_s}s waiting for {job_id} "
                    f"(still {job.get('state')})"
                )
            sleep_s(POLL_INTERVAL_S)
