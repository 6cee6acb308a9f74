import csv
import io
import json
import os
import shutil
import sqlite3
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anthology_harvest import CrawlConfig, LiveSource, scheduler
from anthology_harvest.cli import _parse_where, load_settings, main
from anthology_harvest.model import YEAR_MAX
from anthology_harvest.store import StoreConfig
from conftest import FIXTURES, REPO_ROOT, copy_without_base

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def db_env(tmp_path, monkeypatch):
    """Point AAH_DB at a fresh directory; the store file lands inside it."""
    monkeypatch.setenv("AAH_DB", str(tmp_path))
    return tmp_path


@pytest.fixture
def harvested(db_env, capsys):
    code = main(["harvest", "--source", f"fixture:{FIXTURES}"])
    assert code == 0
    capsys.readouterr()
    return db_env


def run_cli(db: Path, *argv: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """Run the CLI in a process of its own over the store in ``db``."""
    return subprocess.run(
        [sys.executable, "-m", "anthology_harvest.cli", *argv], stdout=stdout,
        stderr=subprocess.PIPE, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), AAH_DB=str(db)))


def edit_page(site: Path, page: str, old: str, new: str) -> None:
    """Replace the one occurrence of ``old`` in ``site/page``."""
    path = site / page
    html = path.read_text(encoding="utf-8")
    assert html.count(old) == 1, (page, old)
    path.write_text(html.replace(old, new), encoding="utf-8")


class TestHarvest:
    def test_fixture_harvest_exit_zero(self, db_env, capsys, manifest):
        code = main(["harvest", "--venues", "acl", "--years", "2021..2023",
                     "--source", f"fixture:{FIXTURES}"])
        out = capsys.readouterr().out
        assert code == 0
        expected = sum(p["expected_records"] for p in manifest["pages"]
                       if p["path"].startswith("proceedings/acl-202")
                       and p["path"] >= "proceedings/acl-2021")
        assert f"papers: {expected}" in out
        assert (db_env / "aclanthology.db").exists()

    def test_venue_page_without_base(self, db_env, tmp_path, capsys):
        site = copy_without_base(FIXTURES, tmp_path / "site", "venues/acl.html")
        code = main(["harvest", "--venues", "acl", "--source", f"fixture:{site}",
                     "--report-json", "-"])
        report = json.loads(capsys.readouterr().out.split("\n", 1)[1])
        assert code == 0
        assert report["tasks_total"] == 5 and report["tasks_failed"] == 0

    def test_bad_links_skipped(self, db_env, tmp_path, capsys, manifest):
        # A venue name with no letter or digit, a year out of range, a
        # proceedings link and a title link that are not http(s), a mailto
        # PDF link: each skips its own link or entry, never the harvest.
        site = tmp_path / "site"
        shutil.copytree(FIXTURES, site)

        def edit(page: str, old: str, new: str) -> None:
            edit_page(site, page, old, new)

        edit("index.html", "<h2>ACL Events</h2>\n", '<h2>ACL Events</h2>\n'
             '<li><a class="venue-link" href="/venues/star.html">\u2605</a></li>\n')
        edit("venues/acl.html", "<h1>ACL</h1>\n",
             '<h1>ACL</h1>\n<h4 class="year-heading">3000</h4>\n'
             '<a class="proceedings-link" href="/proceedings/acl-2023.html">Future</a>\n'
             '<h4 class="year-heading">2018</h4>\n'
             '<a class="proceedings-link" href="ftp://anthology.test/acl-2018.html">Old</a>\n')
        edit("proceedings/acl-2022.html", 'href="/2022.acl-long.4.pdf"',
             'href="mailto:chairs@anthology.test"')
        edit("proceedings/acl-2022.html", '<div class="paper-list">\n',
             '<div class="paper-list">\n<div class="paper-entry"><a class="paper-title" '
             'href="javascript:void(0)">Nowhere</a></div>\n')
        code = main(["harvest", "--source", f"fixture:{site}", "--report-json", "-"])
        out, err = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in err
        report = json.loads(out.split("\n", 1)[1])
        assert report["tasks_total"] == 25 and report["tasks_failed"] == 0
        assert report["papers_stored"] == sum(
            p["expected_records"] for p in manifest["pages"] if p["kind"] == "proceedings")
        code = main(["query", "--where", "anthology_id:eq:2022.acl-long.4",
                     "--format", "json"])
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 0
        assert [(r["title"], r["pdf_url"]) for r in rows] == [
            ("Event Extraction from Procedural Text", None)]

    def test_links_that_are_not_http_skipped(self, db_env, tmp_path, capsys, caplog,
                                             manifest):
        # A mailto venue link on the index and a javascript: pagination link
        # on acl-2022 each skip only themselves.
        site = tmp_path / "site"
        shutil.copytree(FIXTURES, site)
        edit_page(site, "index.html", "<h2>ACL Events</h2>\n", '<h2>ACL Events</h2>\n'
                  '<li><a class="venue-link" href="mailto:x@anthology.test">Mail</a></li>\n')
        edit_page(site, "proceedings/acl-2022.html", "</section>\n",
                  '</section>\n<nav class="pagination">'
                  '<a href="javascript:void(0)">next</a></nav>\n')
        with caplog.at_level("WARNING", logger="anthology_harvest"):
            code = main(["harvest", "--source", f"fixture:{site}", "--report-json", "-"])
        out, err = capsys.readouterr()
        assert code == 0, err
        report = json.loads(out.split("\n", 1)[1])
        assert report["tasks_total"] == 25 and report["tasks_failed"] == 0
        assert report["papers_stored"] == sum(
            p["expected_records"] for p in manifest["pages"] if p["kind"] == "proceedings")
        assert report["per_conference"]["acl-2022"]["paper_count"] == next(
            p["expected_records"] for p in manifest["pages"]
            if p["path"] == "proceedings/acl-2022.html")
        messages = [r.getMessage() for r in caplog.records]
        assert "skipping venue link 'mailto:x@anthology.test': not http(s)" in messages
        assert ("acl-2022: pagination link 'javascript:void(0)' is not http(s), skipped"
                in messages)

    def test_empty_plan_notice(self, db_env, capsys):
        code = main(["harvest", "--years", "1960..1961",
                     "--source", f"fixture:{FIXTURES}"])
        assert code == 0
        assert "0 tasks" in capsys.readouterr().out

    def test_partial_failure_exit_two(self, db_env, tmp_path, fixtures_root, capsys):
        from anthology_harvest.mockserver import ScriptedCorpusServer
        cfg = tmp_path / "fast.toml"
        cfg.write_text("[crawl]\nmin_interval_ms = 1\nbase_backoff_ms = 1\n")
        with ScriptedCorpusServer(fixtures_root) as server:
            server.script("/proceedings/coling-2019.html", [500])
            code = main(["--config", str(cfg), "harvest",
                         "--source", f"mock:{server.base_url}", "--workers", "4"])
        assert code == 2

    def test_bad_source_exit_one(self, db_env, capsys):
        assert main(["harvest", "--source", "smoke-signals"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_report_json(self, db_env, capsys):
        code = main(["harvest", "--venues", "tacl", "--source",
                     f"fixture:{FIXTURES}", "--report-json", "-"])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["tasks_total"] == 5
        assert payload["tasks_failed"] == 0

    def test_progress_lines_on_stderr(self, db_env, capsys):
        main(["harvest", "--venues", "acl", "--years", "2022..2022",
              "--source", f"fixture:{FIXTURES}"])
        err = capsys.readouterr().err
        line = next(l for l in err.splitlines() if l.startswith("acl-2022"))
        conf_id, status, papers, ms = line.split()
        assert status == "stored"
        assert int(papers) > 0 and int(ms) >= 0

    def test_reharvest_progress_says_unchanged(self, harvested, capsys):
        assert main(["harvest", "--source", f"fixture:{FIXTURES}"]) == 0
        statuses = [line.split()[1] for line in capsys.readouterr().err.splitlines()]
        assert statuses == ["unchanged"] * 25


class TestQuery:
    def test_listing_flags_json(self, harvested, capsys):
        code = main(["query",
                     "--where", "year:in:2021,2022,2023",
                     "--where", "venue_key:in:acl,emnlp,naacl",
                     "--format", "json"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [json.loads(l) for l in lines]
        assert rows
        assert all(r["year"] in (2021, 2022, 2023) for r in rows)
        assert all(r["venue_key"] in ("acl", "emnlp", "naacl") for r in rows)

    def test_empty_store_table_has_header_only(self, db_env, capsys):
        code = main(["query", "--format", "table"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("anthology_id")
        assert len(lines) == 1

    def test_bad_operator_exit_one(self, db_env, capsys):
        assert main(["query", "--where", "year:badop:5"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: BadArity: unknown operator 'badop'")
        assert list(db_env.iterdir()) == []

    def test_order_and_limit(self, harvested, capsys):
        code = main(["query", "--order", "year:desc", "--limit", "3",
                     "--format", "json"])
        assert code == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(rows) == 3
        assert all(r["year"] == 2023 for r in rows)

    def test_like_on_an_integer_column(self, harvested, capsys):
        code = main(["query", "--where", "year:like:202%", "--format", "json"])
        assert code == 0
        years = {json.loads(l)["year"] for l in capsys.readouterr().out.splitlines()}
        assert years == {2020, 2021, 2022, 2023}

    def test_list_keeps_empty_items(self):
        # A text column then matches "" literally.
        assert _parse_where("title:in:a,,b") == ("title", "in", ["a", "", "b"])

    def test_is_null_filter(self, harvested, capsys):
        code = main(["query", "--where", "abstract:is_null", "--format", "json"])
        assert code == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert rows and all(r["abstract"] is None for r in rows)

    def test_csv_output_parses(self, harvested, capsys):
        code = main(["query", "--limit", "5", "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 5
        assert "anthology_id" in rows[0]

    @pytest.mark.parametrize("fmt, golden", [
        ("bibtex", "fixture_query.bib"), ("csv", "fixture_query.csv"),
        ("json", "fixture_query.jsonl")])
    def test_export_matches_golden(self, harvested, capsys, fmt, golden):
        assert main(["query", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / golden).read_bytes().decode("utf-8")


@pytest.mark.parametrize("argv", [
    ["query", "--format", "json"], ["filter", "--years", "2000..2030", "--format", "json"]])
def test_stored_row_failing_a_check_is_an_error(harvested, argv):
    conn = sqlite3.connect(harvested / "aclanthology.db")
    with conn:
        conn.execute("INSERT INTO paper (anthology_id, title, authors, authors_normalized, "
                     "venue_key, year, page_url) VALUES ('2022.bad-1', 'Bad', '[]', '[]', "
                     "'acl', 2022, 'not-a-url')")
    conn.close()
    done = run_cli(harvested, *argv)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr == ("error: stored paper '2022.bad-1': "
                           "page_url 'not-a-url' must be absolute\n")
    assert done.stdout == ""


def test_stored_blank_author_is_an_error_in_bibtex(harvested):
    # A blank normalized name once ended the bibtex export in an IndexError.
    conn = sqlite3.connect(harvested / "aclanthology.db")
    with conn:
        conn.execute("INSERT INTO paper (anthology_id, title, authors, authors_normalized, "
                     "venue_key, year, page_url) VALUES ('2022.bad-2', 'Bad', '[\" \"]', "
                     "'[\"\"]', 'acl', 2022, 'https://anthology.test/2022.bad-2/')")
    conn.close()
    done = run_cli(harvested, "query", "--format", "bibtex")
    assert done.returncode == 1
    assert done.stderr == ("error: stored paper '2022.bad-2': "
                           "blank normalized name of author ' '\n")
    assert done.stdout == ""


@pytest.fixture(scope="module")
def harvested_file(tmp_path_factory):
    """A store file holding one harvest of the fixture corpus."""
    db = tmp_path_factory.mktemp("harvested")
    assert run_cli(db, "harvest", "--source", f"fixture:{FIXTURES}").returncode == 0
    return db / "aclanthology.db"


@pytest.mark.parametrize("argv", [
    ["query", "--format", "json"], ["query", "--format", "csv"],
    ["query", "--format", "bibtex"], ["filter", "--author", "x", "--format", "csv"],
    ["stats", "--by", "year", "--by", "author"], ["query", "--format", "table"],
], ids=["query-json", "query-csv", "query-bibtex", "filter", "stats", "query-table"])
@pytest.mark.parametrize("assignments", [
    "authors = 'null'",
    "year = 'abc'",
    "authors = '[5]', authors_normalized = '[\"x\"]'",
    "authors = CAST('[\"x\"]' AS BLOB)",
    "title = X'0074'",
    "abstract = X'0074'",
    "bibkey = X'0074'",
    "anthology_id = X'0074'",
], ids=["authors-null", "year-text", "author-int", "authors-blob", "title-blob",
        "abstract-blob", "bibkey-blob", "id-blob"])
def test_hostile_stored_row_ends_in_output_or_error(harvested_file, tmp_path, argv,
                                                     assignments):
    shutil.copy(harvested_file, tmp_path / "aclanthology.db")
    conn = sqlite3.connect(tmp_path / "aclanthology.db")
    with conn:
        conn.execute(f"UPDATE paper SET {assignments} WHERE anthology_id = "
                     "(SELECT MIN(anthology_id) FROM paper)")
    conn.close()
    done = run_cli(tmp_path, *argv)
    assert "Traceback" not in done.stderr
    if done.returncode == 0:
        assert done.stdout
    else:
        assert done.returncode == 1
        assert done.stderr.startswith("error: stored paper ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("names", ["{}", "[null]", "[[1]]", "not json"],
                         ids=["object", "null-name", "array-name", "not-json"])
def test_bad_name_array_names_the_row(harvested_file, tmp_path, names):
    shutil.copy(harvested_file, tmp_path / "aclanthology.db")
    conn = sqlite3.connect(tmp_path / "aclanthology.db")
    with conn:
        (aid,) = conn.execute("SELECT MIN(anthology_id) FROM paper").fetchone()
        conn.execute("UPDATE paper SET authors_normalized = ? WHERE anthology_id = ?",
                     (names, aid))
    conn.close()
    stats = run_cli(tmp_path, "stats", "--by", "venue", "--by", "author")
    assert (stats.returncode, stats.stdout) == (1, "")
    assert stats.stderr == (f"error: stored paper {aid!r}: "
                            "authors_normalized must be a JSON array of strings\n")
    query = run_cli(tmp_path, "query", "--format", "json")
    assert query.returncode == 1
    assert query.stderr.startswith(f"error: stored paper {aid!r}: ")
    assert query.stderr.count("\n") == 1


@pytest.mark.parametrize("dims", [["year"], ["year", "venue"], ["year", "author"]],
                         ids="/".join)
def test_stats_orders_numbers_before_text(harvested_file, tmp_path, dims):
    # Years written by hand as text and as a real come out in SQL's ORDER BY order.
    shutil.copy(harvested_file, tmp_path / "aclanthology.db")
    conn = sqlite3.connect(tmp_path / "aclanthology.db")
    with conn:
        conn.execute("UPDATE paper SET year = 'abc' WHERE anthology_id = "
                     "(SELECT MIN(anthology_id) FROM paper)")
        conn.execute("UPDATE paper SET year = 2021.5 WHERE anthology_id = "
                     "(SELECT MAX(anthology_id) FROM paper)")
        years = [str(year) for (year,) in
                 conn.execute("SELECT DISTINCT year FROM paper ORDER BY year")]
    conn.close()
    assert years[-2:] == ["2023", "abc"] and "2021.5" in years
    done = run_cli(tmp_path, "stats", *(f"--by={dim}" for dim in dims), "--format", "json")
    assert done.returncode == 0, done.stderr
    assert list(json.loads(done.stdout)) == years


# What a raw-SQL writer can put into a paper row's columns.
_TEXT = st.one_of(
    st.sampled_from(["", " ", "\n", "x\n", "\x00", "Ann\x00Bo", "\x1b[0m", "\u00b4",
                     "\u2028", "Wei Chen", "acl", "ACL"]),
    st.text(max_size=6), st.binary(max_size=3))
_URL = st.one_of(
    st.sampled_from(["https://anthology.test/x/", "relative/x", "/x", "http://",
                     "https://[::1", "mailto:x@anthology.test", "https://anthology.test/x\n"]),
    _TEXT)
_NAME = st.one_of(st.sampled_from(["", " ", "\u00b4", "Ann\x00Bo", "x\n", "Wei Chen"]),
                  st.text(max_size=6), st.none(), st.integers())
_AUTHORS = st.one_of(
    st.lists(_NAME, max_size=3).map(json.dumps),
    st.sampled_from(["[]", "null", "5", "{}", '"x"', "not json", ""]), st.binary(max_size=3))
_CLI_READS = [
    ["query", "--format", "json"], ["query", "--format", "csv"],
    ["query", "--format", "bibtex"], ["query", "--format", "table"],
    ["filter", "--keyword-any", "x", "--author", "x", "--has-abstract", "--combine", "any",
     "--format", "json"],
    ["stats", "--by", "year", "--by", "venue", "--by", "author"],
]


# A valid paper row; each example spoils some of its columns.
_GOOD_ROW = ("2099.x-1.1", "Title", '["Wei Chen"]', '["wei chen"]', "acl", 2099,
             "https://anthology.test/2099.x-1.1/", None, None, None)


@st.composite
def hostile_rows(draw) -> tuple:
    authors = draw(_AUTHORS)
    spoilt = (
        draw(_TEXT), draw(_TEXT), authors, draw(st.just(authors) | _AUTHORS),
        draw(st.sampled_from(["acl", "ACL", "acl\n", "a b"]) | _TEXT),
        draw(st.integers(1900, 2200) | st.sampled_from(["abc", "2022\n", 2022.5])
             | st.binary(max_size=2)),
        draw(_URL), draw(st.none() | _URL), draw(st.none() | _TEXT), draw(st.none() | _TEXT),
    )
    columns = draw(st.sets(st.integers(0, 9), min_size=1))
    return tuple(spoilt[i] if i in columns else good for i, good in enumerate(_GOOD_ROW))


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(row=hostile_rows())
def test_any_stored_row_ends_in_output_or_one_error_line(harvested_file, row):
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(harvested_file, Path(tmp) / "aclanthology.db")
        conn = sqlite3.connect(Path(tmp) / "aclanthology.db")
        with conn:
            conn.execute("INSERT OR REPLACE INTO paper VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                         row)
        conn.close()
        for argv in _CLI_READS:
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.dict(os.environ, AAH_DB=tmp), redirect_stdout(out), \
                    redirect_stderr(err):
                code = main(argv)
            if code == 0:
                assert out.getvalue(), argv
            else:
                assert code == 1, argv
                assert err.getvalue().startswith("error: "), (argv, err.getvalue())
                assert err.getvalue().count("\n") == 1, (argv, err.getvalue())


@pytest.mark.parametrize("argv, authors", [
    # 2,000 more authors: a table larger than the stdout buffer.
    (["stats", "--by", "author", "--format", "table"], 2000),
    # One line, which sits in the buffer until the flush.
    (["query", "--limit", "1", "--format", "json"], 0),
], ids=["stats", "query"])
def test_closed_stdout_ends_quietly(harvested, argv, authors):
    names = json.dumps([f"author {i:04d}" for i in range(authors)])
    conn = sqlite3.connect(harvested / "aclanthology.db")
    with conn:
        conn.execute("INSERT INTO paper (anthology_id, title, authors, authors_normalized, "
                     "venue_key, year, page_url) VALUES ('2022.many-1', 'Many', ?, ?, "
                     "'acl', 2099, 'https://anthology.test/2022.many-1/')", (names, names))
    conn.close()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_cli(harvested, *argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == ""


def test_report_json_into_missing_directory(db_env):
    target = db_env / "missing" / "r.json"
    done = run_cli(db_env, "harvest", "--venues", "tacl", "--source", f"fixture:{FIXTURES}",
                   "--report-json", str(target))
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.endswith(f"error: [Errno 2] No such file or directory: '{target}'\n")
    assert "tasks: 5" in done.stdout


@pytest.mark.parametrize("argv, message", [
    (["stats", "--by", "bogus"],
     "unknown dimension 'bogus'; pick from ['author', 'venue', 'year']"),
    (["stats"], "pass at least one --by dimension"),
    (["filter", "--combine", "any"], "no filter rules given (--keyword-all/--keyword-any/"
                                     "--author/--venues/--years/--has-abstract)"),
    (["query", "--where", "year:eq:20x"], "column 'year' wants an integer, got '20x'"),
    (["harvest", "--years", "2021..20x"], "--years wants an integer, got '20x'"),
    (["harvest", "--years", "2021"], "--years wants A..B, got '2021'"),
    (["harvest", "--years", "2023..2021"], "--years start 2023 > end 2021"),
    (["query", "--where", "year"], "--where wants col:op[:value], got 'year'"),
    (["query", "--where", "year:in:2021,,2022"], "column 'year' wants an integer, got ''"),
], ids=["stats-bogus", "stats-no-by", "filter-no-rules", "query-bad-int", "harvest-bad-years",
        "harvest-one-year", "harvest-reversed-years", "query-no-op", "query-empty-int-item"])
def test_usage_error_creates_no_store(db_env, capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not (db_env / "aclanthology.db").exists()


def test_builder_error_names_its_type(db_env, capsys):
    assert main(["query", "--where", "year:between:2023,2021"]) == 1
    assert capsys.readouterr().err.startswith("error: BadArity: ")


@pytest.mark.parametrize("flags, message", [
    (["--where", "bogus:eq:1"], "UnknownColumn: column 'bogus' not in table 'paper'"),
    (["--where", "abstract:is_null:x"], "BadArity: is_null takes no value"),
    (["--where", "year:between:2021"], "BadArity: between needs a (low, high) pair"),
    (["--where", "year:eq"], "BadArity: eq needs a single scalar value"),
    (["--limit", "-1"], "InvalidChain: limit must be non-negative"),
    (["--order", "year:sideways"], "InvalidChain: direction must be asc/desc, got 'sideways'"),
    (["--order", "year:desc:x"], "InvalidChain: direction must be asc/desc, got 'desc:x'"),
], ids=["bad-column", "null-test-value", "between-arity", "no-value",
        "negative-limit", "bad-direction", "order-extra-part"])
def test_rejected_query_flag_creates_no_store(db_env, capsys, flags, message):
    # The builder checks every query flag before the store is opened.
    assert main(["query", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert list(db_env.iterdir()) == []


SEVEN_FLAGS = [
    "filter",
    "--years", "2021..2023",
    "--venues", "acl,emnlp,naacl",
    "--keyword-all", "story generation",
    "--keyword-any", "event", "--keyword-any", "persona",
    "--keyword-any", "coherence", "--keyword-any", "metrics",
]

FOUR_IDS = ["2021.acl-long.499", "2021.acl-long.500",
            "2022.emnlp-main.403", "2022.naacl-main.210"]


class TestFilter:
    def test_documented_reconstruction_returns_four(self, harvested, capsys):
        code = main(SEVEN_FLAGS + ["--format", "json"])
        assert code == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert [r["anthology_id"] for r in rows] == FOUR_IDS

    def test_out_of_range_years_empty(self, harvested, capsys):
        code = main(["filter", "--years", "2099..2100", "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out.strip() == ""

    def test_no_rules_exit_one(self, harvested, capsys):
        assert main(["filter", "--format", "json"]) == 1
        assert "no filter rules" in capsys.readouterr().err

    def test_author_flag(self, harvested, capsys):
        code = main(["filter", "--author", "José García", "--format", "json"])
        assert code == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert rows
        assert all(any("García" in a or "Garcia" in a for a in r["authors"])
                   for r in rows)

    def test_bibtex_format(self, harvested, capsys):
        code = main(SEVEN_FLAGS + ["--format", "bibtex"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("@inproceedings{") == 4
        assert "tang-etal-2022-etrica" in out


class TestStats:
    def test_by_venue_and_year_matches_manifest(self, harvested, capsys, manifest):
        code = main(["stats", "--by", "venue", "--by", "year", "--format", "json"])
        assert code == 0
        counts = json.loads(capsys.readouterr().out)
        manifest_counts = {}
        for page in manifest["pages"]:
            if page["kind"] != "proceedings":
                continue
            name = page["path"].split("/")[1].rsplit(".", 1)[0]
            venue, year = name.rsplit("-", 1)
            manifest_counts.setdefault(venue, {})[year] = page["expected_records"]
        assert counts == manifest_counts

    def test_empty_store(self, db_env, capsys):
        code = main(["stats", "--by", "year"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {}

    def test_unknown_dimension_exit_one(self, db_env, capsys):
        assert main(["stats", "--by", "color"]) == 1
        assert "unknown dimension" in capsys.readouterr().err

    def test_table_format(self, harvested, capsys):
        code = main(["stats", "--by", "venue", "--format", "table"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert any(l.startswith("acl\t") for l in lines)


class TestConfigFile:
    def test_config_defaults_and_flag_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("AAH_DB", raising=False)
        cfg = tmp_path / "anthology.toml"
        cfg.write_text(
            "[store]\n"
            f'location = "{tmp_path}"\n'
            "[crawl]\n"
            'venues = ["tacl"]\n'
            "year_start = 2020\n"
            "year_end = 2021\n"
            f'source = "fixture:{FIXTURES}"\n')
        code = main(["--config", str(cfg), "harvest"])
        assert code == 0
        assert "tasks: 2" in capsys.readouterr().out
        code = main(["--config", str(cfg), "harvest", "--years", "2019..2019"])
        assert code == 0
        assert "tasks: 1" in capsys.readouterr().out

    def test_env_overrides_file_location(self, tmp_path, monkeypatch, capsys):
        filedir = tmp_path / "from-file"
        envdir = tmp_path / "from-env"
        filedir.mkdir()
        envdir.mkdir()
        cfg = tmp_path / "anthology.toml"
        cfg.write_text(f'[store]\nlocation = "{filedir}"\n')
        monkeypatch.setenv("AAH_DB", str(envdir))
        code = main(["--config", str(cfg), "harvest", "--venues", "tacl",
                     "--years", "2019..2019", "--source", f"fixture:{FIXTURES}"])
        assert code == 0
        capsys.readouterr()
        assert (envdir / "aclanthology.db").exists()
        assert not (filedir / "aclanthology.db").exists()

    @pytest.mark.parametrize("text, changes", [
        (None, {}),
        ("[crawl]\nyear_start = 2020\n", {"year_range": (2020, YEAR_MAX)}),
    ], ids=["no-settings-file", "year-start-only"])
    def test_unset_crawl_settings_take_the_library_defaults(self, db_env, monkeypatch,
                                                            text, changes):
        monkeypatch.chdir(db_env)
        if text is not None:
            (db_env / "anthology.toml").write_text(text, encoding="utf-8")
        crawled = []
        monkeypatch.setattr(scheduler, "run_crawl", lambda config, handle: (
            crawled.append(config) or SimpleNamespace(tasks_total=0)))
        assert main(["harvest"]) == 0
        assert crawled == [replace(CrawlConfig(source=LiveSource()), **changes)]

    def test_missing_explicit_config_exit_one(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "none.toml"), "stats", "--by", "year"]) == 1

    def test_readme_settings_example_loads(self, tmp_path):
        """The README's example file reads as it always has."""
        readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
        example = readme.split("### Settings file", 1)[1].split("```toml\n", 1)[1]
        cfg = tmp_path / "anthology.toml"
        cfg.write_text(example.split("```", 1)[0], encoding="utf-8")
        store, crawl = load_settings(cfg, env={})
        assert store == StoreConfig(database_name="aclanthology", location=".")
        assert crawl == dict(
            venues=["acl", "emnlp"], year_start=2021, year_end=2023, workers=8,
            max_attempts=3, base_backoff_ms=500, timeout_ms=15000, min_interval_ms=250,
            source="fixture:fixtures")

    @pytest.mark.parametrize("text, section, key, value", [
        ('[store]\nlocation = "x #2"\n', "store", "location", "x #2"),
        ('[crawl]\nvenues = ["a,b"]\n', "crawl", "venues", ["a,b"]),
    ], ids=["comment-sign-in-string", "comma-in-array-item"])
    def test_toml_strings_read_whole(self, tmp_path, text, section, key, value):
        cfg = tmp_path / "anthology.toml"
        cfg.write_text(text, encoding="utf-8")
        store, crawl = load_settings(cfg, env={})
        assert {"store": asdict(store), "crawl": crawl}[section][key] == value

    @pytest.mark.parametrize("text, message", [
        ("[crawl]\nworkers = 007\n", "anthology.toml"),
        ("[crawl]\nworkers = 2\nworkers = 3\n", "anthology.toml"),
        ('[crawl]\nworkers = "8"\n', "crawl.workers must be an integer"),
        ('[crawl]\nvenues = "acl"\n', "crawl.venues must be an array of strings"),
        ("[crawl]\nworkers = true\n", "crawl.workers must be an integer"),
        ('[store]\ndatabase_name = ""\n', "store.database_name must be non-empty"),
        ("[crawl]\nworker = 4\n", "unknown setting crawl.worker"),
        ("[crawll]\nworkers = 2\n", "unknown section [crawll]"),
        # source = "fixture:<dir>" is the one way to name a fixture corpus.
        ('[paths]\nfixture_root = "fixtures"\n', "unknown section [paths]"),
        ("workers = 2\n", "unknown setting workers"),
        ("[crawl.retry]\nmax_attempts = 2\n", "unknown setting crawl.retry"),
        ('store = "x"\n', "store must be a table"),
    ], ids=["leading-zero", "duplicate-key", "string-workers", "string-venues",
            "bool-workers", "empty-database-name", "unknown-key", "unknown-section",
            "paths-section", "top-level-key", "unknown-subtable", "store-not-a-table"])
    def test_bad_settings_exit_one(self, db_env, tmp_path, capsys, text, message):
        cfg = tmp_path / "anthology.toml"
        cfg.write_text(text, encoding="utf-8")
        code = main(["--config", str(cfg), "harvest", "--source", f"fixture:{FIXTURES}"])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text, argv, message", [
        ("[crawl]\nmin_interval_ms = -5\n", [], "min_interval_ms must be >= 0"),
        ("", ["--workers", "-1"], "workers must be >= 1"),
        ("", ["--workers", "0"], "workers must be >= 1"),
    ], ids=["negative-interval", "negative-workers", "zero-workers"])
    def test_bad_crawl_settings_are_usage_errors(self, db_env, tmp_path, capsys,
                                                 text, argv, message):
        cfg = tmp_path / "anthology.toml"
        cfg.write_text(text, encoding="utf-8")
        code = main(["--config", str(cfg), "harvest", "--source", f"fixture:{FIXTURES}",
                     *argv])
        assert code == 1
        assert f"usage error: {message}" in capsys.readouterr().err
