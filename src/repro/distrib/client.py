"""Client for the alignment server's length-prefixed JSON protocol."""

from __future__ import annotations

import socket
from typing import Any, Sequence

from ..core.job import AlignmentJob
from ..core.result import SeedAlignmentResult
from ..errors import ServiceError
from ..obs import MetricsSnapshot
from .wire import job_to_wire, recv_frame, result_from_wire, send_frame

__all__ = ["ServiceClient"]


class ServiceClient:
    """One connection to a running :class:`AlignmentServer`.

    Usable as a context manager; not thread-safe (open one client per
    thread — the server handles each connection independently).
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, timeout: float = 300.0
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        except OSError as exc:
            raise ServiceError(
                f"cannot connect to alignment server at "
                f"{self.host}:{self.port}: {exc}"
            ) from exc

    def ping(self) -> dict[str, Any]:
        """Server identity (pid, engine, workers, state path)."""
        return self._request({"op": "ping"})["server"]

    def submit(
        self, jobs: Sequence[AlignmentJob]
    ) -> list[SeedAlignmentResult]:
        """Align *jobs* on the server; results in submission order."""
        results, _cached = self.submit_detailed(jobs)
        return results

    def submit_detailed(
        self, jobs: Sequence[AlignmentJob]
    ) -> tuple[list[SeedAlignmentResult], list[bool]]:
        """Like :meth:`submit`, plus the per-job server-cache-hit flags."""
        response = self._request(
            {
                "op": "submit",
                "jobs": [job_to_wire(job) for job in jobs],
                "timeout": self.timeout,
            }
        )
        results = [result_from_wire(r) for r in response["results"]]
        cached = [bool(flag) for flag in response.get("cached", [])]
        if len(results) != len(jobs):
            raise ServiceError(
                f"server returned {len(results)} results for "
                f"{len(jobs)} submitted jobs"
            )
        return results, cached

    def stats(self) -> dict[str, Any]:
        """The server-side service's stats dict."""
        return self._request({"op": "stats"})["stats"]

    def metrics(self) -> MetricsSnapshot:
        """The server-side metrics snapshot."""
        return MetricsSnapshot.from_dict(self._request({"op": "metrics"})["metrics"])

    def shutdown_server(self) -> None:
        """Ask the server to stop serving (it drains before exiting)."""
        self._request({"op": "shutdown"})

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _request(self, payload: dict[str, Any]) -> dict[str, Any]:
        send_frame(self._sock, payload)
        response = recv_frame(self._sock)
        if response is None:
            raise ServiceError("server closed the connection mid-request")
        if not response.get("ok", False):
            detail = response.get("error", "unknown server error")
            trace = response.get("traceback")
            raise ServiceError(
                f"server error: {detail}" + (f"\n{trace}" if trace else "")
            )
        return response
