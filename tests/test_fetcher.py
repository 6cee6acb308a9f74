import base64
import gzip
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from anthology_harvest import (
    ConnectionPool,
    CrawlConfig,
    Exhausted,
    FetchPolicy,
    FixtureSource,
    MockSource,
    NotFound,
    RateGate,
    StoreConfig,
    Unresolvable,
    fetch,
    init_schema,
    parse_source_spec,
    run_crawl,
)
from anthology_harvest.fetcher import FIXTURE_BASE, LiveSource
from anthology_harvest.mockserver import ScriptedCorpusServer
from conftest import REPO_ROOT


@pytest.fixture
def mock_server(fixtures_root):
    with ScriptedCorpusServer(fixtures_root) as server:
        yield server


FAST = FetchPolicy(max_attempts=3, base_backoff_ms=1, timeout_ms=2000,
                   min_interval_ms=0)


class TestPolicy:
    def test_bounds(self):
        with pytest.raises(ValueError):
            FetchPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            FetchPolicy(timeout_ms=0)
        with pytest.raises(ValueError):
            FetchPolicy(min_interval_ms=-1)

    def test_source_spec_parsing(self, fixtures_root):
        assert isinstance(parse_source_spec("live"), LiveSource)
        assert parse_source_spec(f"fixture:{fixtures_root}").root == fixtures_root
        assert parse_source_spec("mock:http://127.0.0.1:99").endpoint.endswith(":99")
        with pytest.raises(ValueError):
            parse_source_spec("carrier-pigeon")

    @pytest.mark.parametrize("spec, message", [
        ("fixture:", "fixture source '' is not a directory"),
        ("fixture:/nonexistent", "fixture source '/nonexistent' is not a directory"),
        ("live:", "live source '' is not an absolute http(s) URL"),
        ("mock:", "mock source '' is not an absolute http(s) URL"),
        ("mock:localhost:1", "mock source 'localhost:1' is not an absolute http(s) URL"),
        ("fixture", "unknown source spec 'fixture'"),
    ])
    def test_bad_source_spec_is_refused(self, spec, message):
        with pytest.raises(ValueError) as err:
            parse_source_spec(spec)
        assert str(err.value) == message


class TestFixtureSource:
    def test_identity_read(self, fixtures_root):
        source = FixtureSource(root=fixtures_root)
        res = fetch("proceedings/acl-2022.html", FAST, source)
        assert res.body == (fixtures_root / "proceedings/acl-2022.html").read_bytes()
        assert res.status == 200
        assert res.attempts_used == 1

    def test_absolute_url_resolves_by_path(self, fixtures_root):
        source = FixtureSource(root=fixtures_root)
        res = fetch(FIXTURE_BASE + "/venues/acl.html", FAST, source)
        assert res.body == (fixtures_root / "venues/acl.html").read_bytes()

    def test_missing_file_is_not_found(self, fixtures_root):
        with pytest.raises(NotFound):
            fetch("venues/nope.html", FAST, FixtureSource(root=fixtures_root))

    def test_escape_is_unresolvable(self, fixtures_root):
        with pytest.raises(Unresolvable):
            fetch("../secrets.txt", FAST, FixtureSource(root=fixtures_root))

    def test_zero_network(self, fixtures_root, monkeypatch):
        def explode(*a, **k):
            raise AssertionError("fixture mode must not touch the network")
        monkeypatch.setattr(urllib.request, "urlopen", explode)
        monkeypatch.setattr(socket.socket, "connect", explode)
        res = fetch("index.html", FAST, FixtureSource(root=fixtures_root))
        assert res.status == 200
        # The same patch does catch a network source, so the check above holds.
        with pytest.raises(AssertionError):
            fetch("index.html", FAST, MockSource(endpoint="http://127.0.0.1:9"))


class TestMockFetch:
    def test_plain_fetch(self, mock_server, fixtures_root):
        source = MockSource(endpoint=mock_server.base_url)
        res = fetch(source.start_url, FAST, source)
        assert res.body == (fixtures_root / "index.html").read_bytes()
        assert res.attempts_used == 1

    def test_corpus_urls_rebase_onto_the_endpoint(self, mock_server):
        source = MockSource(endpoint=mock_server.base_url)
        res = fetch(FIXTURE_BASE + "/venues/acl.html", FAST, source)
        assert res.status == 200
        assert "/venues/acl.html" in mock_server.request_counts()

    def test_transient_errors_retry_until_success(self, mock_server):
        source = MockSource(endpoint=mock_server.base_url)
        mock_server.script("/venues/acl.html", [503, 503, 200])
        res = fetch(source.endpoint + "/venues/acl.html", FAST, source)
        assert res.attempts_used == 3
        assert res.status == 200

    def test_4xx_fails_immediately(self, mock_server):
        source = MockSource(endpoint=mock_server.base_url)
        with pytest.raises(NotFound) as err:
            fetch(source.endpoint + "/venues/missing.html", FAST, source)
        assert err.value.attempts_used == 1
        assert mock_server.request_counts()["/venues/missing.html"] == 1

    def test_exhausted_after_max_attempts(self, mock_server):
        source = MockSource(endpoint=mock_server.base_url)
        mock_server.script("/index.html", [500])
        with pytest.raises(Exhausted) as err:
            fetch(source.endpoint + "/index.html", FAST, source)
        assert err.value.attempts_used == 3
        assert mock_server.request_counts()["/index.html"] == 3

    def test_success_on_second_attempt_stops(self, mock_server):
        source = MockSource(endpoint=mock_server.base_url)
        mock_server.script("/venues/tacl.html", [503, 200, 503])
        res = fetch(source.endpoint + "/venues/tacl.html", FAST, source)
        assert res.attempts_used == 2
        assert mock_server.request_counts()["/venues/tacl.html"] == 2

    def test_bad_url_unresolvable(self):
        with pytest.raises(Unresolvable):
            fetch("not a url", FAST, LiveSource())

    @pytest.mark.parametrize("url", ["http://127.0.0.1:port/x.html", "http://a..b/x.html"],
                             ids=["non-numeric-port", "empty-host-label"])
    def test_malformed_host_unresolvable(self, url):
        with pytest.raises(Unresolvable) as err:
            fetch(url, FAST, LiveSource())
        assert err.value.url == url


class TestRateGate:
    def test_spacing_across_threads(self, mock_server):
        interval_ms = 25
        source = MockSource(endpoint=mock_server.base_url)
        policy = FetchPolicy(max_attempts=1, base_backoff_ms=0,
                             timeout_ms=2000, min_interval_ms=interval_ms)
        gate = RateGate(interval_ms)
        urls = [f"/proceedings/acl-{y}.html" for y in range(2019, 2024)] * 2

        def worker(path):
            fetch(source.endpoint + path, policy, source, gate=gate)

        threads = [threading.Thread(target=worker, args=(u,)) for u in urls]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        stamps = sorted(e.timestamp_ns for e in mock_server.request_log())
        assert len(stamps) == len(urls)
        gaps_ms = [(b - a) / 1e6 for a, b in zip(stamps, stamps[1:])]
        assert min(gaps_ms) >= interval_ms, f"gaps {gaps_ms}"

    def test_gate_returns_monotone_slots(self):
        gate = RateGate(1)
        slots = [gate.wait_turn() for _ in range(5)]
        assert slots == sorted(slots)
        assert all(b - a >= 1_000_000 for a, b in zip(slots, slots[1:]))


def _get_status(url: str) -> int:
    try:
        with urllib.request.urlopen(url) as resp:
            return resp.status
    except urllib.error.HTTPError as err:
        err.close()
        return err.code


class TestMockServerItself:
    def test_scripted_sequence_repeats_last(self, mock_server):
        mock_server.script("/x.html", [503, 200])
        url = mock_server.base_url + "/x.html"
        assert _get_status(url) == 503
        # The file does not exist, so a scripted 200 falls through to 404.
        assert _get_status(url) == 404
        assert _get_status(url) == 404

    def test_request_log_records_paths(self, mock_server):
        _get_status(mock_server.base_url + "/index.html")
        _get_status(mock_server.base_url + "/index.html?page=2")
        counts = mock_server.request_counts()
        assert counts["/index.html"] == 2


class ReplyServer:
    """A local HTTP/1.0 server answering the n-th request with ``replies[n]``.

    The last reply repeats once the list is spent.  A reply is ``None`` to
    close the connection without an answer, ``(headers, body)`` for a 200,
    or ``(status, headers, body)``; ``Content-Length`` is the body's length
    unless ``headers`` sets it.  With ``closes_idle`` the server answers as
    HTTP/1.1, so the client may keep the connection, but closes it after
    each answer, as a server does whose idle timeout has passed.
    ``connections`` counts the connections accepted, and ``headers`` holds
    each request's headers.
    """

    def __init__(self, replies, closes_idle=False):
        self.replies = list(replies)
        self.paths: list[str] = []
        self.headers = []
        self.connections = 0
        server = self

        class Handler(BaseHTTPRequestHandler):
            if closes_idle:
                protocol_version = "HTTP/1.1"

            def setup(self) -> None:
                super().setup()
                server.connections += 1

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                server.paths.append(self.path)
                server.headers.append(self.headers)
                reply = server.replies[min(len(server.paths), len(server.replies)) - 1]
                self.close_connection = True
                if reply is None:
                    return
                status, headers, body = reply if len(reply) == 3 else (200, *reply)
                self.send_response(status)
                headers = {"Content-Length": str(len(body)), **headers}
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(body)

            def do_CONNECT(self) -> None:  # noqa: N802 (http.server API)
                server.paths.append(f"CONNECT {self.path}")
                server.headers.append(self.headers)
                self.send_error(502)

            def log_message(self, fmt: str, *args) -> None:
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._httpd.daemon_threads = True
        # A short poll interval lets shutdown() return without a 0.5 s wait.
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        kwargs={"poll_interval": 0.01}, daemon=True)

    @property
    def source(self) -> MockSource:
        host, port = self._httpd.server_address[:2]
        return MockSource(endpoint=f"http://{host}:{port}")

    def __enter__(self) -> "ReplyServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


PAGE = b"<html><body>page</body></html>"
GZIP = {"Content-Encoding": "gzip"}
GZIPPED = gzip.compress(PAGE)


class TestTransport:
    def test_gzip_body_is_decoded(self):
        with ReplyServer([(GZIP, GZIPPED)]) as server:
            res = fetch("/p.html", FAST, server.source)
        assert res.body == PAGE
        assert res.attempts_used == 1

    def test_dropped_connection_is_retried(self):
        with ReplyServer([None, ({}, PAGE)]) as server:
            res = fetch("/p.html", FAST, server.source)
        assert res.body == PAGE
        assert res.attempts_used == 2
        assert server.paths == ["/p.html", "/p.html"]

    @pytest.mark.parametrize("reply", [
        None,
        (GZIP, b"not gzip at all"),  # BadGzipFile
        (GZIP, GZIPPED[:-12]),  # EOFError
        (GZIP, GZIPPED[:10] + b"\xff" * 8 + GZIPPED[18:]),  # zlib.error
        ({"Content-Length": str(len(PAGE) + 10)}, PAGE),  # IncompleteRead
    ], ids=["dropped", "not-gzip", "truncated-gzip", "corrupt-gzip", "short-body"])
    def test_transport_failures_end_exhausted(self, reply):
        with ReplyServer([reply]) as server:
            with pytest.raises(Exhausted) as err:
                fetch("/p.html", FAST, server.source)
        assert err.value.attempts_used == FAST.max_attempts
        assert len(server.paths) == FAST.max_attempts

    @pytest.mark.parametrize("status", [301, 308])
    def test_redirect_is_followed_within_one_attempt(self, status):
        moved = (status, {"Location": "/q.html"}, b"moved")
        with ReplyServer([moved, ({}, PAGE)]) as server:
            res = fetch("/p.html", FAST, server.source)
        assert res.body == PAGE
        assert res.attempts_used == 1
        assert server.paths == ["/p.html", "/q.html"]

    @pytest.mark.parametrize("location, requests", [
        ({"Location": "/p.html"}, 11),  # the first request and 10 hops
        ({}, 1),
        ({"Location": "ftp://files.invalid/p.html"}, 1),
    ], ids=["self-loop", "no-location", "non-http-target"])
    def test_unfollowable_redirect_fails_at_once(self, location, requests):
        with ReplyServer([(302, location, b"moved")]) as server:
            with pytest.raises(NotFound, match="answered 302") as err:
                fetch("/p.html", FAST, server.source)
        assert err.value.attempts_used == 1
        assert len(server.paths) == requests

    def test_redirect_hop_waits_for_the_gate(self):
        policy = FetchPolicy(max_attempts=1, timeout_ms=2000, min_interval_ms=200)
        moved = (301, {"Location": "/q.html"}, b"moved")
        with ReplyServer([moved, ({}, PAGE)]) as server:
            fetch("/p.html", policy, server.source)
        first, second = (int(h["X-Request-Start"]) for h in server.headers)
        assert second - first >= 200_000_000

    @pytest.mark.parametrize("closes_idle", [False, True], ids=["http-1.0", "closes-idle"])
    def test_crawl_over_a_server_that_closes_connections(self, fixtures_root, closes_idle):
        pages = ["/index.html", "/venues/acl.html", "/proceedings/acl-2022.html"]
        replies = [({}, (fixtures_root / page[1:]).read_bytes()) for page in pages]
        # The gate spaces the requests, so each connection is closed by the
        # server before the next request starts.
        policy = FetchPolicy(max_attempts=3, base_backoff_ms=1, timeout_ms=2000,
                             min_interval_ms=50)
        with ReplyServer(replies, closes_idle=closes_idle) as server:
            config = CrawlConfig(venues=("acl",), year_range=(2022, 2022), workers=1,
                                 policy=policy, source=server.source)
            handle = init_schema(StoreConfig(location=":memory:"))
            report = run_crawl(config, handle)
            handle.close()
        assert report.tasks_succeeded == 1
        assert report.per_conference["acl-2022"].attempts == 1
        assert server.paths == pages
        assert server.connections == len(pages)

    def test_environment_proxy_is_honoured(self):
        script = """
import socket, sys
from anthology_harvest import Exhausted, FetchPolicy, LiveSource, fetch
real_getaddrinfo = socket.getaddrinfo
def local_only(host, *args, **kwargs):
    assert host == "127.0.0.1", f"resolved {host}"
    return real_getaddrinfo(host, *args, **kwargs)
socket.getaddrinfo = local_only
policy = FetchPolicy(max_attempts=1, min_interval_ms=0)
fetch("http://example.invalid/p.html", policy, LiveSource())
fetch(sys.argv[1] + "/p.html", policy, LiveSource())
try:
    fetch("https://example.invalid/p.html", policy, LiveSource())
except Exhausted:
    pass
"""
        with ReplyServer([({}, PAGE)]) as proxy, ReplyServer([({}, PAGE)]) as direct:
            proxy_url = proxy.source.endpoint.replace("://", "://user:p%20w@")
            env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
            env.update(PYTHONPATH=str(REPO_ROOT / "src"), http_proxy=proxy_url,
                       https_proxy=proxy_url, no_proxy="127.0.0.1")
            done = subprocess.run([sys.executable, "-c", script, direct.source.endpoint],
                                  env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr[-2000:]
        assert proxy.paths == ["http://example.invalid/p.html",
                               "CONNECT example.invalid:443"]
        credentials = "Basic " + base64.b64encode(b"user:p w").decode()
        assert [h["Proxy-Authorization"] for h in proxy.headers] == [credentials] * 2
        assert direct.paths == ["/p.html"]
        assert "Proxy-Authorization" not in direct.headers[0]

    @pytest.fixture
    def proxy_env(self, monkeypatch):
        """No proxy setting but the test's own, and no host name resolved but
        the loopback address: a proxy not honoured fails the test instead of
        reaching out."""
        for name in list(os.environ):
            if name.lower().endswith("_proxy"):
                monkeypatch.delenv(name)
        resolve = socket.getaddrinfo

        def local_only(host, *args, **kwargs):
            assert host == "127.0.0.1", f"resolved {host}"
            return resolve(host, *args, **kwargs)

        monkeypatch.setattr(socket, "getaddrinfo", local_only)
        return monkeypatch

    def test_plain_http_names_the_absolute_url_to_the_proxy(self, proxy_env):
        with ReplyServer([({}, PAGE)]) as proxy:
            proxy_env.setenv("http_proxy", proxy.source.endpoint.replace("://", "://user:pw@"))
            res = fetch("http://example.invalid/p.html", FAST, LiveSource())
        assert res.body == PAGE
        assert proxy.paths == ["http://example.invalid/p.html"]
        assert proxy.headers[0]["Proxy-Authorization"] == "Basic dXNlcjpwdw=="

    def test_no_proxy_goes_straight_to_the_origin(self, proxy_env):
        with socket.socket() as dead, ReplyServer([({}, PAGE)]) as direct:
            dead.bind(("127.0.0.1", 0))  # bound, not listening: connections are refused
            proxy_env.setenv("http_proxy", "http://127.0.0.1:%d" % dead.getsockname()[1])
            proxy_env.setenv("no_proxy", "127.0.0.1")
            res = fetch(direct.source.endpoint + "/p.html", FAST, LiveSource())
        assert res.body == PAGE
        assert direct.paths == ["/p.html"]
        assert "Proxy-Authorization" not in direct.headers[0]

    def test_https_asks_the_proxy_for_a_tunnel(self, proxy_env):
        with ReplyServer([None]) as proxy:  # answers CONNECT with 502
            proxy_env.setenv("https_proxy", proxy.source.endpoint.replace("://", "://user:pw@"))
            with pytest.raises(Exhausted) as err:
                fetch("https://example.invalid/p.html", FAST, LiveSource())
        assert err.value.attempts_used == FAST.max_attempts
        assert proxy.paths == ["CONNECT example.invalid:443"] * FAST.max_attempts
        assert [h["Proxy-Authorization"] for h in proxy.headers] == (
            ["Basic dXNlcjpwdw=="] * FAST.max_attempts)

    def test_request_path_is_percent_encoded(self):
        with ReplyServer([({}, PAGE)]) as server:
            fetch(server.source.endpoint + "/a b/caf\u00e9%41.html", FAST, server.source)
        assert server.paths == ["/a%20b/caf%C3%A9%41.html"]


class TestConnections:
    def test_sequential_fetches_share_one_connection(self, mock_server, fixtures_root):
        source = MockSource(endpoint=mock_server.base_url)
        pool = ConnectionPool()
        started = time.monotonic()
        for _ in range(100):
            res = fetch(source.start_url, FAST, source, pool=pool)
        elapsed = time.monotonic() - started
        pool.close()
        assert res.body == (fixtures_root / "index.html").read_bytes()
        assert mock_server.connection_count() == 1
        assert len(mock_server.request_log()) == 100
        # A ~40 ms stall per request (Nagle against delayed ACK) takes ~4 s.
        assert elapsed < 2.0, f"100 fetches took {elapsed:.2f} s"

    def test_error_answer_keeps_the_connection(self, mock_server):
        source = MockSource(endpoint=mock_server.base_url)
        mock_server.script("/venues/acl.html", [503, 200])
        pool = ConnectionPool()
        res = fetch(source.endpoint + "/venues/acl.html", FAST, source, pool=pool)
        with pytest.raises(NotFound):
            fetch(source.endpoint + "/venues/missing.html", FAST, source, pool=pool)
        fetch(source.start_url, FAST, source, pool=pool)
        pool.close()
        assert res.attempts_used == 2
        assert mock_server.connection_count() == 1


def test_package_runs_without_requests(fixtures_root):
    script = f"""
import sys
sys.modules["requests"] = None
import anthology_harvest, anthology_harvest.cli
from anthology_harvest import FetchPolicy, MockSource, fetch
from anthology_harvest.mockserver import ScriptedCorpusServer
with ScriptedCorpusServer({str(fixtures_root)!r}) as server:
    source = MockSource(endpoint=server.base_url)
    res = fetch(source.start_url, FetchPolicy(min_interval_ms=0), source)
assert res.body == open({str(fixtures_root / "index.html")!r}, "rb").read()
"""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
