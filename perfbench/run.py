#!/usr/bin/env python3
"""Harvest-and-retrieve benchmark for anthology_harvest.

Run from the repository root:

    python3 perfbench/run.py --workload bulk-fixture --seed 1 --seconds 55 --trace 0

Each run generates (or reuses) the seeded corpus of its workload, sets up
(imports the package, opens an empty store, starts the mock server where
the workload uses one) and then repeats whole rounds for about
``--seconds``.  A round is the user session: ``harvest`` into an empty
store, ``reharvest`` of the same plan into the filled store, and a fixed
retrieval mix, every output checked against the generator's ground truth.
Every time is scaled to reference speed by the median of the speed
readings taken between the run's operations (``speed.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``
(operations: crawl tasks and timed retrieval calls) and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Imported before any set-up, so that the run's own set-up and the set-ups
# in fresh interpreters find the same modules loaded.
import checks
import corpus as corpus_mod
import speed
from checks import CheckFailed, expect
from serverproc import MockServerProcess
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench-cache"

SETUP_SAMPLES = 5       # one in the run's own process, the rest in fresh ones
PASSES = 4              # round-robin passes over the retrieval calls per round
PAGE_CALLS = 4          # CLI query-page calls per pass: each takes only 5-10 ms
BACKOFF_MS = 10         # retry backoff after a scripted 503
MiB = 1 << 20


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def set_up(uses_mock: bool, corpus: Path, db: Path):
    """Import the package, open the store and start the mock server if used.

    Returns (package, store handle, server or None, seconds taken).
    """
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import anthology_harvest
    from anthology_harvest import cli  # noqa: F401  (the retrieval mix drives it)

    handle = anthology_harvest.init_schema(anthology_harvest.StoreConfig(location=str(db)))
    server = MockServerProcess(corpus, SRC) if uses_mock else None
    return anthology_harvest, handle, server, time.perf_counter() - started


def setup_in_fresh_interpreter(uses_mock: bool, corpus: Path, db: Path) -> float:
    """``set_up`` once more, in a new interpreter; returns its seconds."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--set-up-once", str(int(uses_mock)),
         str(corpus), str(db)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class Session:
    """One run: rounds of harvest, reharvest and the retrieval mix."""

    def __init__(self, plan: dict, corpus: Path, package, server, tracer):
        from anthology_harvest import cli, query, scheduler

        self.plan, self.corpus = plan, corpus
        self.server, self.tracer = server, tracer
        self.cli, self.query, self.scheduler = cli, query, scheduler
        source = (package.MockSource(endpoint=server.base_url) if server
                  else package.FixtureSource(root=corpus))
        self.crawl_config = package.CrawlConfig(
            workers=nproc(), source=source,
            policy=package.FetchPolicy(min_interval_ms=0, base_backoff_ms=BACKOFF_MS))
        self.attempted = self.failed = 0
        self.traced = False
        # (traced, kind) -> seconds: wall time, for a crawl less the time the
        # hypervisor stole from it
        self.samples: dict[tuple[bool, str], list[float]] = {}
        self.eq_p90: list[float] = []                # untraced, one per batch of lookups
        self.stolen: dict[str, list[float]] = {}     # crawl kind -> stolen seconds
        self.readings: list[float] = []              # speed readings
        self.store_mb: list[float] = []
        self.digest: str | None = None
        self.counts: dict[str, int] = {}

    def phase(self, name: str | None) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def timed(self, fn):
        """Run ``fn`` once, after collecting garbage, and return (result, seconds)."""
        gc.collect()
        started = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - started

    def record(self, kind: str, seconds: list[float]) -> None:
        self.samples.setdefault((self.traced, kind), []).extend(seconds)

    def read_speed(self) -> None:
        self.readings.append(speed.reading())

    # -- crawl ---------------------------------------------------------------------

    def crawl(self, handle, name: str) -> None:
        if self.server is not None:
            self.server.arm(self.plan["fault_script"])
        self.read_speed()
        self.phase(name)
        stolen = speed.stolen_s()
        with contextlib.redirect_stderr(io.StringIO()):
            report, elapsed = self.timed(
                lambda: self.scheduler.run_crawl(self.crawl_config, handle))
        stolen = speed.stolen_s() - stolen
        self.phase(None)
        # Both CPUs are busy in a crawl; time stolen from either one holds it up.
        self.record(name, [elapsed - stolen / nproc()])
        self.stolen.setdefault(name, []).append(stolen)
        self.read_speed()
        self.attempted += report.tasks_total
        self.failed += report.tasks_failed
        checks.check_report(report, self.plan)
        self.counts["report_attempts"] += sum(
            log.attempts for log in report.per_conference.values())
        self.counts["tasks_failed"] += report.tasks_failed
        if self.server is not None:
            paths = self.server.requests()
            checks.check_requests(paths, self.plan)
            self.counts["requests"] += len(paths)

    def check_stored(self, db: Path) -> None:
        """The first crawl's store equals the ground truth; every later
        crawl leaves the same table contents."""
        if self.digest is None:
            # In a fresh process, so that the ground truth's records do not
            # add to this process's memory.
            out = subprocess.run([sys.executable, str(Path(__file__)), "--check-store",
                                  str(self.corpus), str(db)],
                                 capture_output=True, text=True, timeout=120)
            if out.returncode != 0:
                raise CheckFailed(out.stderr.strip()[-2000:])
            self.digest = checks.table_digest(str(db))
        else:
            expect(checks.table_digest(str(db)) == self.digest,
                   "the store after this crawl differs from the first round's")

    # -- retrieval mix -------------------------------------------------------------

    def run_cli(self, argv: list[str]) -> tuple[str, float]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, elapsed = self.timed(lambda: self.cli.main(argv))
        expect(code == 0, f"{argv[0]} exited with {code}")
        return buf.getvalue(), elapsed

    def point_lookups(self, handle, ids: list[str]) -> tuple[list, list[float]]:
        """One sample per lookup; garbage is collected once for the batch."""
        results, seconds = [], []
        gc.collect()
        for aid in ids:
            started = time.perf_counter()
            rows = self.query.table("paper", handle).where("anthology_id", aid).query()
            seconds.append(time.perf_counter() - started)
            results.append((checks.check_point, rows, aid))
        return results, seconds

    def like(self, handle, like: dict) -> tuple[list, list[float]]:
        rows, elapsed = self.timed(lambda: (
            self.query.table("paper", handle)
            .where("title", "like", f"%{like['keyword']}%").query()))
        return [(checks.check_like, rows, like["keyword"], like["hits"])], [elapsed]

    def cli_call(self, name: str, check) -> tuple[list, list[float]]:
        out, elapsed = self.run_cli(self.plan[name]["argv"])
        return [(check, out, self.plan[name])], [elapsed]

    def retrieval_mix(self, handle) -> None:
        """Round-robin passes, each calling every kind of retrieval.

        A speed reading is taken between consecutive calls (between
        batches, for the point lookups).  The outputs are checked after
        each pass.
        """
        plan = self.plan
        ids, likes = plan["point_ids"], plan["like"]
        n_ids, n_likes = len(ids) // PASSES, len(likes) // PASSES
        for slot in range(PASSES):
            steps = [("query_eq", lambda: self.point_lookups(
                handle, ids[slot * n_ids:(slot + 1) * n_ids]))]
            steps += [("query_like", lambda like=like: self.like(handle, like))
                      for like in likes[slot * n_likes:(slot + 1) * n_likes]]
            steps += [(metric, lambda name=name, check=check: self.cli_call(name, check))
                      for metric, name, check in (
                          *[("query_page", "page", checks.check_page)] * PAGE_CALLS,
                          ("filter", "filter", checks.check_filter),
                          ("stats", "stats", checks.check_stats),
                          ("export", "export", checks.check_export))]
            results = []
            for kind, step in steps:
                self.read_speed()
                self.phase("retrieval")
                done, seconds = step()
                self.phase(None)
                self.record(kind, seconds)
                if kind == "query_eq" and not self.traced:
                    self.eq_p90.append(statistics.quantiles(seconds, n=10)[-1])
                self.attempted += len(seconds)
                results += done
            for check, *check_args in results:
                check(*check_args)

    # -- one round -------------------------------------------------------------------

    def round(self, handle, db: Path) -> dict[str, int]:
        """Harvest, reharvest and one retrieval mix.

        Returns this round's counts: mock-server requests, attempts in the
        crawl reports, failed tasks.
        """
        self.counts = dict.fromkeys(("requests", "report_attempts", "tasks_failed"), 0)
        os.environ["AAH_DB"] = str(db)
        self.crawl(handle, "harvest")
        self.check_stored(db)
        self.crawl(handle, "reharvest")
        self.check_stored(db)
        size = db.stat().st_size
        expect(size > 0, "the store file is empty")
        self.store_mb.append(size / MiB)
        self.retrieval_mix(handle)
        return self.counts


def end_to_end(s: Session, setup: list[float]) -> dict:
    """Medians of the run's samples, at reference speed."""
    med = statistics.median
    factor = speed.factor(s.readings)
    ms = {kind: [v * 1000 * factor for v in vals]
          for (traced, kind), vals in s.samples.items() if not traced}
    return {
        "setup_s": (med(setup) * factor, "s"),
        "harvest_s": (med(s.samples[False, "harvest"]) * factor, "s"),
        "reharvest_s": (med(s.samples[False, "reharvest"]) * factor, "s"),
        "query_eq_ms": (med(ms["query_eq"]), "ms"),
        "query_eq_p90_ms": (med(s.eq_p90) * 1000 * factor, "ms"),
        "query_like_ms": (med(ms["query_like"]), "ms"),
        "query_page_ms": (med(ms["query_page"]), "ms"),
        "filter_ms": (med(ms["filter"]), "ms"),
        "stats_ms": (med(ms["stats"]), "ms"),
        "export_ms": (med(ms["export"]), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "store_mb": (med(s.store_mb), "MB"),
    }


def tracing_overhead(s: Session) -> dict[str, tuple[float, int, int]]:
    """Per kind of operation: its median traced sample minus its median
    untraced sample (ms, at reference speed), and both sample counts."""
    factor = speed.factor(s.readings)
    out = {}
    for (traced, kind), vals in sorted(s.samples.items()):
        if traced:
            plain = s.samples[False, kind]
            diff = (statistics.median(vals) - statistics.median(plain)) * 1000 * factor
            out[kind] = (diff, len(vals), len(plain))
    return out


def per_layer(s: Session, tracer, rounds: dict[bool, list[dict]]) -> dict:
    """Per-layer metrics from the traced rounds, and the tracing overhead:
    per round, each kind's overhead times how often a round runs it."""
    traced = rounds[True]

    def total(key):
        return sum(r[key] for r in traced)

    metrics = tracer.metrics(len(traced), total("requests"), nproc(),
                             total("report_attempts"), total("tasks_failed"))
    factor = speed.factor(s.readings)
    round_s = sum(statistics.median(vals) * len(vals) / len(traced)
                  for (t, _), vals in s.samples.items() if t)
    overhead = tracing_overhead(s)
    metrics["trace.round_ms"] = (round_s * 1000 * factor, "ms")
    metrics["trace.overhead_ms"] = (
        sum(diff * n / len(traced) for diff, n, _ in overhead.values()), "ms")
    print("tracing overhead per call (ms, traced samples, untraced samples): "
          + json.dumps({k: (round(d, 4), n, m) for k, (d, n, m) in overhead.items()}),
          file=sys.stderr)
    return metrics


def wall_summary(s: Session, setup: list[float]) -> str:
    """Medians of the unscaled times, of the stolen seconds per crawl and of
    the speed readings, for standard error."""
    med = statistics.median
    out = {kind: med(vals) for (traced, kind), vals in sorted(s.samples.items())
           if not traced}
    out.update({f"{kind}_stolen": med(vals) for kind, vals in s.stolen.items()})
    out.update(setup=med(setup), setup_first=setup[0], reading=med(s.readings))
    return json.dumps({k: round(v, 6) for k, v in out.items()})


def run(args) -> int:
    corpus = corpus_mod.corpus_dir(CACHE, args.workload, args.seed)
    plan = json.loads((corpus / "plan.json").read_text(encoding="utf-8"))
    uses_mock = plan["shape"]["source"] == "mock"
    workdir = CACHE / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    server = None
    try:
        package, handle, server, first_setup = set_up(uses_mock, corpus, workdir / "round0.db")
        tracer = Tracer() if args.trace else None
        session = Session(plan, corpus, package, server, tracer)
        rounds: dict[bool, list[dict]] = {False: [], True: []}
        started = time.perf_counter()
        round_s: list[float] = []
        r = 0
        try:
            # A round starts only if a round of median length still ends
            # within --seconds, so that a run lasts about --seconds.  With
            # tracing, rounds alternate untraced and traced so that the
            # tracing overhead is measured within the same run.
            while (not round_s
                   or (time.perf_counter() - started + statistics.median(round_s)
                       <= args.seconds)
                   or (args.trace and not rounds[True])):
                round_started = time.perf_counter()
                session.traced = bool(args.trace) and r % 2 == 1
                db = workdir / f"round{r}.db"
                if r:
                    handle = package.init_schema(package.StoreConfig(location=str(db)))
                if session.traced:
                    tracer.install()
                try:
                    rounds[session.traced].append(session.round(handle, db))
                finally:
                    if session.traced:
                        tracer.uninstall()
                    handle.close()
                round_s.append(time.perf_counter() - round_started)
                r += 1
            correct = True
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        # The other set-up samples are taken after the rounds, so that the
        # first round starts right after the run's own set-up.
        setup = [first_setup] + [
            setup_in_fresh_interpreter(uses_mock, corpus, workdir / f"setup{k}.db")
            for k in range(1, SETUP_SAMPLES)]
        if not correct:
            metrics = {}
        elif args.trace:
            metrics = per_layer(session, tracer, rounds)
            tracer.write(CACHE / f"trace-{args.workload}-s{args.seed}.jsonl")
        else:
            metrics = end_to_end(session, setup)
            print(f"wall (s): {wall_summary(session, setup)}", file=sys.stderr)
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0 if correct else 1


def check_store_main(corpus: Path, db: Path) -> int:
    """Compare a harvested store with the corpus's ground truth."""
    sys.path.insert(0, str(SRC))
    from anthology_harvest import StoreConfig, init_schema, load_all_conferences, load_all_papers

    truth = json.loads((corpus / "truth.json").read_text(encoding="utf-8"))
    with init_schema(StoreConfig(location=str(db))) as handle:
        papers, conferences = load_all_papers(handle), load_all_conferences(handle)
    try:
        checks.check_store(papers, conferences, truth)
    except CheckFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0


def set_up_once_main(uses_mock: bool, corpus: Path, db: Path) -> int:
    """``set_up`` in this fresh interpreter; prints its wall seconds."""
    _, handle, server, seconds = set_up(uses_mock, corpus, db)
    if server is not None:
        server.stop()
    handle.close()
    print(seconds)
    return 0


def main() -> int:
    if len(sys.argv) == 4 and sys.argv[1] == "--check-store":
        return check_store_main(Path(sys.argv[2]), Path(sys.argv[3]))
    if len(sys.argv) == 5 and sys.argv[1] == "--set-up-once":
        return set_up_once_main(sys.argv[2] == "1", Path(sys.argv[3]), Path(sys.argv[4]))

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus_mod.SHAPES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (SRC / "anthology_harvest" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fix the hash seed (string hashing, set and dict order) for the run
        # and every process it starts; keep any proxy setting away from the
        # mock server on the loopback address.
        env = dict(os.environ, PYTHONHASHSEED="0", NO_PROXY="127.0.0.1,localhost",
                   no_proxy="127.0.0.1,localhost")
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())]
                  + sys.argv[1:], env)
    # On SIGTERM, unwind through run()'s clean-up, which stops the mock server.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
