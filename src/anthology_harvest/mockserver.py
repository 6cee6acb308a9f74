"""A scriptable local HTTP server for crawler tests.

Serves a fixture directory over GET, can be programmed with per-path status
sequences (fault injection), and records one ``(timestamp, path)`` log entry
per request.  When the client sends an ``X-Request-Start`` header (the
fetcher always does) its value becomes the logged timestamp, so politeness
gaps are measured where they are enforced; otherwise the server's own
monotonic receipt time is used.

The server speaks HTTP/1.1 (``http.server``) and keeps each connection open
between requests, as a real server does.  It counts the connections it
accepts, and ``stop`` ends the ones still open.

Status scripting: ``script(path, [503, 503, 200])`` answers the first two
requests with 503 and every later one with 200 -- a sequence repeats its
last element once exhausted, so ``[500]`` fails a path permanently.
"""
from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

START_HEADER = "X-Request-Start"  # fetcher.START_HEADER, without loading the fetcher


@dataclass(frozen=True)
class LoggedRequest:
    timestamp_ns: int
    path: str


class ScriptedCorpusServer:
    """Context-managed HTTP server over a fixture tree."""

    def __init__(self, root: Path, host: str = "127.0.0.1", port: int = 0):
        self.root = Path(root)
        self._scripts: dict[str, list[int]] = {}
        self._script_cursor: dict[str, int] = {}
        self._log: list[LoggedRequest] = []
        self._connections = 0
        self._open: set[socket.socket] = set()
        self._stopping = False
        self._lock = threading.Lock()
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # The headers and the body go out in separate writes; without
            # this the body waits for the client's delayed ACK (~40 ms).
            disable_nagle_algorithm = True

            def setup(self) -> None:
                super().setup()
                server._opened(self.connection)

            def finish(self) -> None:
                server._closed(self.connection)
                super().finish()

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                server._handle(self)

            def log_message(self, fmt: str, *args) -> None:
                pass

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def script(self, path: str, statuses: list[int]) -> None:
        """Program a status sequence for one path (repeats its last element)."""
        if not statuses:
            raise ValueError("status sequence must be non-empty")
        with self._lock:
            self._scripts[path] = list(statuses)
            self._script_cursor[path] = 0

    def request_log(self) -> list[LoggedRequest]:
        with self._lock:
            return list(self._log)

    def request_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for entry in self.request_log():
            counts[entry.path] = counts.get(entry.path, 0) + 1
        return counts

    def connection_count(self) -> int:
        """Connections accepted since the server started."""
        with self._lock:
            return self._connections

    def reset_log(self) -> None:
        with self._lock:
            self._log.clear()

    def start(self) -> "ScriptedCorpusServer":
        # stop() waits for the serving loop's next poll, so poll often.
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving, end the connections still open (their handlers
        would otherwise wait for a next request), and join the handlers."""
        self._httpd.shutdown()
        with self._lock:
            self._stopping = True
            still_open = list(self._open)
        for conn in still_open:
            _hang_up(conn)
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "ScriptedCorpusServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- handler internals -------------------------------------------------

    def _opened(self, conn: socket.socket) -> None:
        with self._lock:
            self._connections += 1
            self._open.add(conn)
            stopping = self._stopping
        if stopping:
            _hang_up(conn)

    def _closed(self, conn: socket.socket) -> None:
        with self._lock:
            self._open.discard(conn)

    def _next_status(self, path: str) -> int | None:
        with self._lock:
            seq = self._scripts.get(path)
            if seq is None:
                return None
            cursor = self._script_cursor[path]
            status = seq[min(cursor, len(seq) - 1)]
            self._script_cursor[path] = cursor + 1
            return status

    def _record(self, handler: BaseHTTPRequestHandler, path: str) -> None:
        header = handler.headers.get(START_HEADER)
        try:
            ts = int(header) if header is not None else time.monotonic_ns()
        except ValueError:
            ts = time.monotonic_ns()
        with self._lock:
            self._log.append(LoggedRequest(timestamp_ns=ts, path=path))

    def _handle(self, handler: BaseHTTPRequestHandler) -> None:
        path = handler.path.split("?")[0]
        self._record(handler, path)

        scripted = self._next_status(path)
        if scripted is not None and scripted != 200:
            body = f"scripted {scripted}".encode()
            handler.send_response(scripted)
            handler.send_header("Content-Type", "text/plain; charset=utf-8")
            handler.send_header("Content-Length", str(len(body)))
            handler.end_headers()
            handler.wfile.write(body)
            return

        rel = path.lstrip("/")
        if rel.endswith("/") or rel == "":
            rel += "index.html"
        target = self.root / rel
        if not target.is_file() or ".." in Path(rel).parts:
            handler.send_response(404)
            handler.send_header("Content-Length", "0")
            handler.end_headers()
            return
        body = target.read_bytes()
        ctype = "application/json" if rel.endswith(".json") else "text/html; charset=utf-8"
        handler.send_response(200)
        handler.send_header("Content-Type", ctype)
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)


def _hang_up(conn: socket.socket) -> None:
    """End a connection from the server's side, so its handler stops waiting."""
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:  # already closed by the client
        pass
