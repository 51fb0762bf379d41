"""A socket server exposing one database to many clients.

ROADMAP item 1: the SQL CLI and the forms runtime become two clients of
the same session API.  The protocol is deliberately tiny — **length-
prefixed JSON frames**:

    +----------------+----------------------------------+
    | 4 bytes        | UTF-8 JSON body                  |
    | big-endian u32 | (exactly that many bytes)        |
    +----------------+----------------------------------+

Requests: ``{"op": "hello", "user": "dba"}`` (first frame, admission),
``{"op": "execute", "sql": "..."}``, ``{"op": "metrics"}``,
``{"op": "ping"}``, ``{"op": "close"}``.

Responses: ``{"ok": true, ...}`` or
``{"ok": false, "error": str, "error_type": str, "retryable": bool}`` —
the ``retryable`` flag mirrors :class:`~repro.errors.RetryableError`, so
a remote client can apply the same retry policy as an embedded one.
A frame whose body is valid JSON but not an object gets a
``SessionError`` response, and the server then closes the connection.

One thread and one :class:`~repro.session.manager.Session` per
connection; admission control happens at the hello frame (a refused
connection receives a retryable ``BusyError`` frame, never an unbounded
queue slot).
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import WowError
from repro.session.manager import Session, SessionConfig, SessionManager

#: frame header: payload length as a big-endian unsigned 32-bit int
FRAME_HEADER = struct.Struct(">I")
#: refuse absurd frames before allocating for them
MAX_FRAME_BYTES = 16 * 1024 * 1024


def send_frame(sock: socket.socket, payload: Dict[str, Any]) -> None:
    """Serialise *payload* and write one length-prefixed frame."""
    body = json.dumps(payload, default=str).encode("utf-8")
    sock.sendall(FRAME_HEADER.pack(len(body)) + body)


def recv_frame(sock: socket.socket) -> Optional[Any]:
    """Read one frame's JSON value; None on clean EOF.  Raises on
    torn/oversized data.  The value is not checked to be an object."""
    header = _recv_exact(sock, FRAME_HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {length} bytes exceeds the protocol cap")
    body = _recv_exact(sock, length, allow_eof=False)
    return json.loads(body.decode("utf-8"))


def _recv_exact(
    sock: socket.socket, count: int, allow_eof: bool
) -> Optional[bytes]:
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if allow_eof and not chunks:
                return None
            raise ConnectionError(
                f"connection closed mid-frame ({count - remaining}/{count} "
                f"bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def error_frame(exc: BaseException) -> Dict[str, Any]:
    return {
        "ok": False,
        "error": str(exc),
        "error_type": type(exc).__name__,
        "retryable": bool(getattr(exc, "retryable", False)),
    }


def _session_error(message: str) -> Dict[str, Any]:
    return {
        "ok": False,
        "error": message,
        "error_type": "SessionError",
        "retryable": False,
    }


def _shutdown(sock: socket.socket) -> None:
    """Wake every thread blocked on *sock* (``accept``/``recv``): on Linux
    ``close()`` alone wakes neither."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, or already shut down by the peer


class DatabaseServer:
    """Thread-per-connection server over one SessionManager."""

    def __init__(
        self,
        db: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[SessionConfig] = None,
        manager: Optional[SessionManager] = None,
    ) -> None:
        self.db = db
        self.manager = manager if manager is not None else SessionManager(
            db, config
        )
        self._listener = socket.create_server((host, port))
        #: the bound (host, port) — port 0 requests an ephemeral one
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._accept_thread: Optional[threading.Thread] = None
        #: guards _running, _conns and _workers, so stop() sees every
        #: connection the accept loop admitted
        self._lock = threading.Lock()
        #: live connection sockets; stop() shuts each down to wake its worker
        self._conns: Set[socket.socket] = set()
        self._workers: List[threading.Thread] = []
        self._running = False

    def start(self) -> "DatabaseServer":
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="wow-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, wake and close every connection, close live
        sessions, join the threads.  A thread that outlives its join is a
        bug, and raises."""
        with self._lock:
            self._running = False
            conns = list(self._conns)
            threads = list(self._workers)
        _shutdown(self._listener)
        self._listener.close()
        for conn in conns:
            _shutdown(conn)
        self.manager.close()
        if self._accept_thread is not None:
            threads.insert(0, self._accept_thread)
        for thread in threads:
            thread.join(timeout=5)
            if thread.is_alive():
                raise RuntimeError(f"server thread {thread.name} did not stop")

    def __enter__(self) -> "DatabaseServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- connection handling -----------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                break  # listener shut down by stop()
            worker = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="wow-server-conn",
                daemon=True,
            )
            with self._lock:
                if not self._running:
                    conn.close()
                    break
                self._conns.add(conn)
                # finished workers need no join
                self._workers = [w for w in self._workers if w.is_alive()]
                self._workers.append(worker)
            worker.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            self._converse(conn)
        finally:
            with self._lock:
                self._conns.discard(conn)
            conn.close()

    def _converse(self, conn: socket.socket) -> None:
        try:
            hello = recv_frame(conn)
        except (ConnectionError, ValueError, json.JSONDecodeError):
            return
        if not isinstance(hello, dict) or hello.get("op") != "hello":
            try:
                send_frame(conn, _session_error("first frame must be a hello"))
            except OSError:
                pass
            return
        try:
            session = self.manager.connect(user=str(hello.get("user", "dba")))
        except WowError as exc:  # BusyError: retryable refusal
            try:
                send_frame(conn, error_frame(exc))
            except OSError:
                pass
            return
        try:
            send_frame(conn, {"ok": True, "session": session.id})
            while True:
                try:
                    request = recv_frame(conn)
                except (ConnectionError, ValueError, json.JSONDecodeError):
                    break
                if request is None:
                    break
                if not isinstance(request, dict):
                    # a typed answer, then a clean close: the peer no
                    # longer speaks the protocol
                    send_frame(conn, _session_error(
                        "frame must be a JSON object, got "
                        f"{type(request).__name__}"))
                    break
                if request.get("op") == "close":
                    break
                send_frame(conn, self._handle(session, request))
        except OSError:
            pass  # the peer went away, or stop() shut the socket down
        finally:
            session.close()

    def _handle(
        self, session: Session, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        op = request.get("op")
        try:
            if op == "execute":
                result = session.execute(str(request.get("sql", "")))
                return {
                    "ok": True,
                    "columns": list(result.columns),
                    "rows": [list(row) for row in result.rows],
                    "rowcount": result.rowcount,
                    "plan": result.plan,
                }
            if op == "metrics":
                return {
                    "ok": True,
                    "metrics": self.db.metrics_snapshot()["sessions"],
                }
            if op == "ping":
                return {"ok": True, "session": session.id}
            return _session_error(f"unknown op {op!r}")
        except WowError as exc:
            # Engine/session errors are protocol answers; anything else
            # (a bug, an injected crash) tears the connection down.
            return error_frame(exc)
