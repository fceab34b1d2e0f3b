"""A small blocking client for the ``repro serve`` daemon.

One socket, one request in flight (the closed-loop discipline the load
generator wants); the daemon itself supports pipelining, so anything
fancier can speak the protocol directly.  Stdlib only.
"""

from __future__ import annotations

import socket
from typing import Any, Optional

from .protocol import decode_line, encode_message


class ServeClientError(ConnectionError):
    """The daemon hung up or answered gibberish."""


class ServeClient:
    """Connect to ``host:port`` or a unix ``socket_path``; usable as a
    context manager."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7455,
                 socket_path: Optional[str] = None,
                 timeout: float = 60.0) -> None:
        if socket_path:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(socket_path)
        else:
            self._sock = socket.create_connection((host, port),
                                                  timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def request(self, message: dict) -> dict:
        """Send one request dict, block for its response line."""
        self._file.write(encode_message(message))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServeClientError("connection closed by the daemon")
        return decode_line(line)

    # -- convenience wrappers ---------------------------------------------

    def ping(self, req_id: Any = "ping") -> dict:
        return self.request({"op": "ping", "id": req_id})

    def status(self, req_id: Any = "status") -> dict:
        return self.request({"op": "status", "id": req_id})

    def drain(self, req_id: Any = "drain") -> dict:
        return self.request({"op": "drain", "id": req_id})

    def health(self, req_id: Any = "health") -> dict:
        return self.request({"op": "health", "id": req_id})

    def chaos(self, spec: str, req_id: Any = "chaos") -> dict:
        """Install a fault plan on the daemon ("" clears the active one)."""
        return self.request({"op": "chaos", "id": req_id, "spec": spec})

    def exec(self, kernel: str, req_id: Any = 0, *,
             n: Optional[int] = None, procs: int = 4,
             strip: Optional[int] = None, backend: str = "jit",
             max_workers: Optional[int] = None,
             tenant: Optional[str] = None,
             deadline_ms: Optional[float] = None) -> dict:
        message: dict = {"op": "exec", "id": req_id, "kernel": kernel,
                         "procs": procs, "backend": backend}
        for name, value in (("n", n), ("strip", strip),
                            ("max_workers", max_workers),
                            ("tenant", tenant),
                            ("deadline_ms", deadline_ms)):
            if value is not None:
                message[name] = value
        return self.request(message)

    def compile(self, kernel: str, req_id: Any = 0, *,
                n: Optional[int] = None, procs: int = 4,
                strip: Optional[int] = None, backend: str = "jit",
                tenant: Optional[str] = None) -> dict:
        message: dict = {"op": "compile", "id": req_id, "kernel": kernel,
                         "procs": procs, "backend": backend}
        for name, value in (("n", n), ("strip", strip),
                            ("tenant", tenant)):
            if value is not None:
                message[name] = value
        return self.request(message)
