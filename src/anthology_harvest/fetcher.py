"""Page retrieval over HTTP or from the fixture corpus.

Three sources share one interface: ``live`` (the real site), ``mock`` (a
local scriptable HTTP endpoint), and ``fixture`` (a directory of pages;
zero network activity).  Network sources honour a retry policy -- 5xx and
transport failures back off exponentially, 4xx fails immediately -- and a
politeness rule: consecutive request *starts* across all workers are spaced
at least ``min_interval_ms`` apart, enforced by one shared rate gate.

Every network request carries an ``X-Request-Start`` header holding the
client's monotonic start time in nanoseconds; the bundled mock server logs
it, which lets tests verify the politeness spacing at the point where it is
actually enforced (the requester) instead of relying on server-side accept
jitter.
"""
from __future__ import annotations

import gzip
import http.client
import posixpath
import threading
import time
import urllib.error
import urllib.request
import zlib
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import quote, urljoin, urlparse

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


_default_gates: dict[int, RateGate] = {}
_default_gates_lock = threading.Lock()


def _gate_for(policy: FetchPolicy) -> RateGate:
    with _default_gates_lock:
        gate = _default_gates.get(policy.min_interval_ms)
        if gate is None:
            gate = RateGate(policy.min_interval_ms)
            _default_gates[policy.min_interval_ms] = gate
        return gate


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


def _http_get(url: str, headers: dict[str, str], timeout: float) -> tuple[int, bytes]:
    """One GET over ``urllib.request``; any HTTP answer returns ``(status, body)``.

    An error status comes back as its code with an empty body.  A
    ``Content-Encoding: gzip`` body is decoded here, since urllib leaves it
    encoded.  Transport failures raise one of ``_TRANSIENT``; a URL that
    ``http.client`` rejects raises ``InvalidURL`` or ``UnicodeError``.
    """
    request = urllib.request.Request(quote(url, safe=_URL_SAFE), headers=headers)
    try:
        resp = urllib.request.urlopen(request, timeout=timeout)
    except urllib.error.HTTPError as err:
        err.close()
        return err.code, b""
    with resp:
        body = resp.read()
        encoding = resp.headers.get("Content-Encoding", "")
    if encoding.strip().lower() == "gzip":
        body = gzip.decompress(body)
    return resp.status, body


def fetch(url: str, policy: FetchPolicy, source: Source, *,
          gate: RateGate | None = None) -> FetchResult:
    """Retrieve one page from the given source under the given policy.

    Returns the body on 2xx.  Retries with exponential backoff on 5xx and
    transport failures (connection errors, timeouts, truncated answers,
    corrupt gzip bodies), up to ``policy.max_attempts``; 4xx fails
    immediately.  Every attempt counts as a request start for politeness
    spacing.

    Raises:
        NotFound: 4xx answer, or a missing fixture file.
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
        gate = _gate_for(policy)
    timeout = policy.timeout_ms / 1000.0
    backoff = policy.base_backoff_ms / 1000.0
    last_reason = "no attempt made"

    for attempt in range(1, policy.max_attempts + 1):
        slot_ns = gate.wait_turn()
        headers = {
            "User-Agent": USER_AGENT,
            "Accept-Encoding": "gzip",
            # The start is the instant the gate cleared this request.
            START_HEADER: str(slot_ns),
        }
        try:
            status, body = _http_get(url, headers, timeout)
        except (http.client.InvalidURL, UnicodeError) as exc:
            # A non-numeric port or a host name IDNA cannot encode.
            raise Unresolvable(f"malformed URL {url!r}: {exc}", url=url) from exc
        except _TRANSIENT as exc:
            last_reason = f"{type(exc).__name__}: {exc}"
        else:
            if 200 <= status < 300:
                return FetchResult(url=url, body=body, status=status,
                                   attempts_used=attempt)
            if 400 <= status < 500:
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
