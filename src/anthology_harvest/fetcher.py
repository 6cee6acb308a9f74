"""Page retrieval over HTTP or from the fixture corpus.

Three sources share one interface: ``live`` (the real site), ``mock`` (a
local scriptable HTTP endpoint), and ``fixture`` (a directory of pages;
zero network activity).  Network sources honour a retry policy -- 5xx and
transport failures back off exponentially, any other non-2xx answer (a 4xx,
a redirect that cannot be followed) fails immediately -- and a politeness
rule: consecutive request *starts* across all workers are spaced at least
``min_interval_ms`` apart, enforced by one shared rate gate.

Requests go out over ``http.client`` connections that a ``ConnectionPool``
keeps open between requests (HTTP/1.1 persistent connections), so a crawl
pays for one connection, and one TLS handshake, per worker rather than per
request.  Redirects are followed and the ``*_proxy``/``no_proxy`` settings
of the environment are honoured, as ``urllib`` does.

Every network request carries an ``X-Request-Start`` header holding the
client's monotonic start time in nanoseconds; the bundled mock server logs
it, which lets tests verify the politeness spacing at the point where it is
actually enforced (the requester) instead of relying on server-side accept
jitter.
"""
from __future__ import annotations

import base64
import gzip
import http.client
import posixpath
import select
import socket
import string
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import quote, unquote, urljoin, urlparse, urlsplit
from urllib.request import getproxies, proxy_bypass

from .errors import Exhausted, NotFound, Unresolvable

USER_AGENT = "anthology-harvest/0.1 (+https://example.invalid/anthology-harvest)"
FIXTURE_BASE = "https://anthology.test"
START_HEADER = "X-Request-Start"
# Characters kept when a URL is percent-encoded for the request line: the
# reserved set, and "%" so that existing escapes are not encoded twice.
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"
# A transport failure: no connection, timeout, reset, truncated or malformed
# answer (OSError, HTTPException), or a body that fails gzip decoding
# (EOFError, zlib.error; BadGzipFile is an OSError).
_TRANSIENT = (OSError, http.client.HTTPException, EOFError, zlib.error)
# The answers that send the client on to their ``Location``, and how many of
# them one request follows (as urllib's redirect handler does).
_REDIRECTS = frozenset({301, 302, 303, 307, 308})
_MAX_REDIRECTS = 10
_CONNECTION_CLASSES = {"http": http.client.HTTPConnection,
                       "https": http.client.HTTPSConnection}
_HEADERS = {"User-Agent": USER_AGENT, "Accept-Encoding": "gzip"}


@dataclass(frozen=True, slots=True)
class FetchPolicy:
    """Retry, timeout, and politeness settings."""

    max_attempts: int = 3
    base_backoff_ms: int = 500  # doubles per retry
    timeout_ms: int = 15000
    min_interval_ms: int = 250  # global spacing between request starts

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff_ms < 0:
            raise ValueError("base_backoff_ms must be >= 0")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be > 0")
        if self.min_interval_ms < 0:
            raise ValueError("min_interval_ms must be >= 0")


@dataclass(frozen=True, slots=True)
class FetchResult:
    url: str
    body: bytes
    status: int
    attempts_used: int

    def __post_init__(self) -> None:
        if not (100 <= self.status <= 599):
            raise ValueError(f"status {self.status} outside [100, 599]")
        if self.attempts_used < 1:
            raise ValueError("attempts_used must be >= 1")


@dataclass(frozen=True, slots=True)
class LiveSource:
    """Fetch straight from the public site."""

    index_url: str = "https://aclanthology.org/"

    @property
    def start_url(self) -> str:
        return self.index_url


@dataclass(frozen=True, slots=True)
class FixtureSource:
    """Serve pages from a local directory; performs no network activity.

    URLs resolve by path under ``root``: ``https://anthology.test/a/b.html``
    maps to ``root/a/b.html``.  Bare relative paths are accepted too.
    """

    root: Path

    @property
    def start_url(self) -> str:
        return FIXTURE_BASE + "/index.html"


@dataclass(frozen=True, slots=True)
class MockSource:
    """Fetch from a local scriptable endpoint serving the fixture layout."""

    endpoint: str

    @property
    def start_url(self) -> str:
        return self.endpoint.rstrip("/") + "/index.html"


Source = LiveSource | FixtureSource | MockSource


def parse_source_spec(spec: str) -> Source:
    """Parse a ``live | fixture:<dir> | mock:<url>`` source flag."""
    if spec == "live":
        return LiveSource()
    if spec.startswith("live:"):
        return LiveSource(index_url=spec.split(":", 1)[1])
    if spec.startswith("fixture:"):
        return FixtureSource(root=Path(spec.split(":", 1)[1]))
    if spec.startswith("mock:"):
        return MockSource(endpoint=spec.split(":", 1)[1])
    raise ValueError(f"unknown source spec {spec!r}")


class RateGate:
    """Spaces request starts at least ``min_interval_ms`` apart, globally.

    Workers reserve the next free start slot under a lock, then sleep until
    their slot outside it, so the gate never serializes the requests
    themselves, only their launch times.  Slot arithmetic is integer
    nanoseconds, so adjacent slots differ by exactly the interval or more.
    """

    def __init__(self, min_interval_ms: int):
        self._interval_ns = min_interval_ms * 1_000_000
        self._lock = threading.Lock()
        self._next_start_ns = 0

    def wait_turn(self) -> int:
        """Block until this caller's slot; returns the slot (monotonic ns)."""
        with self._lock:
            now = time.monotonic_ns()
            slot = max(now, self._next_start_ns)
            self._next_start_ns = slot + self._interval_ns
        delay_ns = slot - now
        if delay_ns > 0:
            time.sleep(delay_ns / 1_000_000_000)
        return slot


def _fixture_fetch(url: str, root: Path) -> FetchResult:
    parts = urlparse(url)
    if parts.scheme and parts.scheme not in ("http", "https"):
        raise Unresolvable(f"unsupported scheme in {url!r}", url=url)
    path = parts.path if parts.scheme else url
    path = path.split("?")[0]
    if path.endswith("/") or path == "":
        path = path + "index.html"
    normalized = posixpath.normpath(path.lstrip("/"))
    if normalized.startswith("..") or posixpath.isabs(normalized):
        raise Unresolvable(f"path {path!r} escapes the fixture root", url=url)
    target = Path(root) / normalized
    try:
        body = target.read_bytes()
    except FileNotFoundError:
        raise NotFound(f"no fixture file for {url}", url=url) from None
    except OSError as exc:
        raise Unresolvable(f"cannot read fixture file for {url}: {exc}", url=url) from exc
    return FetchResult(url=url, body=body, status=200, attempts_used=1)


@dataclass(frozen=True, slots=True)
class _Link:
    """One connection and how to address requests over it.

    ``proxy_headers`` is None for a connection to the origin (or a tunnel
    through a proxy), whose requests name only the path.  Over a plain
    proxy every request names the absolute URL and carries these headers.
    """

    conn: http.client.HTTPConnection
    proxy_headers: dict[str, str] | None = None


def _connect(scheme: str, host: str, timeout: float) -> _Link:
    """A new, not yet opened connection to ``host`` (``name[:port]``),
    through the environment's proxy for ``scheme`` unless it is bypassed."""
    proxy = getproxies().get(scheme)
    if not proxy or proxy_bypass(host):
        return _Link(_CONNECTION_CLASSES[scheme](host, timeout=timeout))
    parts = urlsplit(proxy if "://" in proxy else f"{scheme}://{proxy}")
    userinfo, _, hostport = parts.netloc.rpartition("@")
    user, _, password = userinfo.partition(":")
    headers = {}
    if user and password:
        credentials = f"{unquote(user)}:{unquote(password)}".encode()
        headers["Proxy-Authorization"] = "Basic " + base64.b64encode(credentials).decode()
    if scheme == "https":
        conn = http.client.HTTPSConnection(unquote(hostport), timeout=timeout)
        conn.set_tunnel(host, headers=headers)
        return _Link(conn)
    conn = _CONNECTION_CLASSES.get(parts.scheme, http.client.HTTPConnection)(
        unquote(hostport), timeout=timeout)
    return _Link(conn, headers)


def _is_dropped(sock: socket.socket) -> bool:
    """Whether an idle connection's socket reads as ready.  A server sends
    nothing unasked, so a ready socket was closed by the peer (or holds
    bytes that no request of ours asked for); either way it is not reused."""
    try:
        return bool(select.select([sock], [], [], 0)[0])
    except (OSError, ValueError):  # closed, or a descriptor select cannot watch
        return True


class ConnectionPool:
    """Idle connections kept open for reuse, at most ``size`` per origin
    (``scheme``, ``host[:port]``).

    A connection is taken for one exchange and given back only when its
    answer was read to the end and the server keeps it open; one that
    failed is closed.  Before an idle connection is reused it is dropped if
    the server has closed it meanwhile.  Thread-safe.
    """

    def __init__(self, size: int):
        self._size = size
        self._idle: dict[tuple[str, str], list[_Link]] = {}
        self._lock = threading.Lock()

    def take(self, scheme: str, host: str, timeout: float) -> _Link:
        """An idle connection to the origin, or else a new one."""
        while True:
            with self._lock:
                idle = self._idle.get((scheme, host))
                link = idle.pop() if idle else None
            if link is None:
                return _connect(scheme, host, timeout)
            if not _is_dropped(link.conn.sock):
                link.conn.sock.settimeout(timeout)
                return link
            link.conn.close()

    def give(self, scheme: str, host: str, link: _Link) -> None:
        """Return a connection whose last answer was read to the end."""
        if link.conn.sock is not None:  # None: the server asked to close it
            with self._lock:
                idle = self._idle.setdefault((scheme, host), [])
                if len(idle) < self._size:
                    idle.append(link)
                    return
        link.conn.close()

    def close(self) -> None:
        """Close every idle connection."""
        with self._lock:
            links = [link for idle in self._idle.values() for link in idle]
            self._idle.clear()
        for link in links:
            link.conn.close()


def _exchange(target: str, headers: dict[str, str], timeout: float,
              pool: ConnectionPool) -> tuple[http.client.HTTPResponse, bytes]:
    """Send one GET for the percent-encoded absolute URL ``target`` over a
    pooled connection and read the whole answer, so the connection can
    carry the next request."""
    parts = urlsplit(target)
    host = unquote(parts.netloc)
    link = pool.take(parts.scheme, host, timeout)
    if link.proxy_headers is None:
        request_target = target[len(parts.scheme) + 3 + len(parts.netloc):] or "/"
    else:
        request_target = target
        headers = {**headers, **link.proxy_headers}
    try:
        link.conn.request("GET", request_target, headers=headers)
        resp = link.conn.getresponse()
        body = resp.read()
    except BaseException:
        link.conn.close()
        raise
    pool.give(parts.scheme, host, link)
    return resp, body


def _http_get(url: str, timeout: float, pool: ConnectionPool,
              gate: RateGate) -> tuple[int, bytes]:
    """One GET over a connection from ``pool``; any HTTP answer returns
    ``(status, body)``.

    The URL is percent-encoded for the request line.  A 301, 302, 303, 307
    or 308 answer is followed to an http(s) ``Location`` (at most
    ``_MAX_REDIRECTS`` times, all within this one call).  Each request,
    redirect hops included, starts when ``gate`` clears it and carries
    that start in its ``X-Request-Start`` header.  Any other status
    outside 2xx, or a redirect not followed, comes back as its code with
    an empty body.  A ``Content-Encoding: gzip`` body is decoded.
    Transport failures raise one of ``_TRANSIENT``; a URL that
    ``http.client`` rejects raises ``InvalidURL`` or ``UnicodeError``.
    """
    target = quote(url, safe=_URL_SAFE).split("#", 1)[0]
    for redirects in range(_MAX_REDIRECTS + 1):
        headers = {**_HEADERS, START_HEADER: str(gate.wait_turn())}
        resp, body = _exchange(target, headers, timeout, pool)
        if resp.status not in _REDIRECTS or redirects == _MAX_REDIRECTS:
            break
        location = resp.getheader("Location") or resp.getheader("URI")
        if not location:
            break
        # Header values arrive decoded as ISO-8859-1: recover the bytes and
        # encode what a request line cannot carry.
        target = urljoin(target, quote(location, encoding="iso-8859-1",
                                       safe=string.punctuation)).split("#", 1)[0]
        if urlsplit(target).scheme not in _CONNECTION_CLASSES:
            break
    if not 200 <= resp.status < 300:
        return resp.status, b""
    if resp.getheader("Content-Encoding", "").strip().lower() == "gzip":
        body = gzip.decompress(body)
    return resp.status, body


def fetch(url: str, policy: FetchPolicy, source: Source, *,
          gate: RateGate | None = None, pool: ConnectionPool | None = None
          ) -> FetchResult:
    """Retrieve one page from the given source under the given policy.

    Returns the body on 2xx.  Retries with exponential backoff on 5xx and
    transport failures (connection errors, timeouts, truncated answers,
    corrupt gzip bodies), up to ``policy.max_attempts``; any other answer
    (a 4xx, or a redirect ``_http_get`` does not follow) fails at once.
    Every request of an attempt, redirect hops included, is a request
    start for politeness spacing, and is sent once: a request is never
    repeated unless an attempt is spent on it.

    Requests start when ``gate`` clears them (a fresh gate when none is
    given, which spaces only this call's requests) and go over connections
    from ``pool``; without one, the call opens its own connection and
    closes it before returning.

    Raises:
        NotFound: a non-2xx answer below 500, or a missing fixture file.
        Exhausted: all retry attempts spent on transient failures.
        Unresolvable: malformed URL (bad port or host name included) or
            unresolvable fixture path.
    """
    if isinstance(source, FixtureSource):
        return _fixture_fetch(url, source.root)

    url = resolve_against(source, url)
    parts = urlparse(url)
    if parts.scheme not in ("http", "https") or not parts.netloc:
        raise Unresolvable(f"not an absolute http(s) URL: {url!r}", url=url)
    if gate is None:
        gate = RateGate(policy.min_interval_ms)
    if pool is not None:
        return _fetch_http(url, policy, gate, pool)
    pool = ConnectionPool(1)
    try:
        return _fetch_http(url, policy, gate, pool)
    finally:
        pool.close()


def _fetch_http(url: str, policy: FetchPolicy, gate: RateGate,
                pool: ConnectionPool) -> FetchResult:
    """The attempts of ``fetch`` for a network source."""
    timeout = policy.timeout_ms / 1000.0
    backoff = policy.base_backoff_ms / 1000.0
    last_reason = "no attempt made"

    for attempt in range(1, policy.max_attempts + 1):
        try:
            status, body = _http_get(url, timeout, pool, gate)
        except (http.client.InvalidURL, UnicodeError) as exc:
            # A non-numeric port or a host name IDNA cannot encode.
            raise Unresolvable(f"malformed URL {url!r}: {exc}", url=url) from exc
        except _TRANSIENT as exc:
            last_reason = f"{type(exc).__name__}: {exc}"
        else:
            if 200 <= status < 300:
                return FetchResult(url=url, body=body, status=status,
                                   attempts_used=attempt)
            if status < 500:
                raise NotFound(f"{url} answered {status}",
                               url=url, attempts_used=attempt)
            last_reason = f"status {status}"
        if attempt < policy.max_attempts and backoff > 0:
            time.sleep(backoff)
            backoff *= 2
    raise Exhausted(
        f"{url} still failing after {policy.max_attempts} attempts ({last_reason})",
        url=url, attempts_used=policy.max_attempts,
    )


def resolve_against(source: Source, url: str) -> str:
    """Rebase a fixture-corpus URL onto the source's own endpoint.

    Pages in the corpus link to ``https://anthology.test/...``; the mock
    source serves the same paths under its local endpoint.
    """
    if isinstance(source, MockSource):
        path = urlparse(url).path or "/"
        return urljoin(source.endpoint.rstrip("/") + "/", path.lstrip("/"))
    return url
