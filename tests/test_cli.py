import csv
import io
import json
import os
import shutil
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from anthology_harvest.cli import main
from anthology_harvest.config import CrawlDefaults, load_config
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
        assert "usage error" in capsys.readouterr().err

    def test_order_and_limit(self, harvested, capsys):
        code = main(["query", "--order", "year:desc", "--limit", "3",
                     "--format", "json"])
        assert code == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(rows) == 3
        assert all(r["year"] == 2023 for r in rows)

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
    done = subprocess.run(
        [sys.executable, "-m", "anthology_harvest.cli", *argv], capture_output=True,
        text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), AAH_DB=str(harvested)))
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr == ("error: stored paper 2022.bad-1: "
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
    done = subprocess.run(
        [sys.executable, "-m", "anthology_harvest.cli", "query", "--format", "bibtex"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), AAH_DB=str(harvested)))
    assert done.returncode == 1
    assert done.stderr == ("error: stored paper 2022.bad-2: "
                           "blank normalized name of author ' '\n")
    assert done.stdout == ""


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

    def test_missing_explicit_config_exit_one(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "none.toml"), "stats", "--by", "year"]) == 1

    def test_readme_settings_example_loads(self, tmp_path):
        """The README's example file reads as it always has."""
        readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
        example = readme.split("### Settings file", 1)[1].split("```toml\n", 1)[1]
        cfg = tmp_path / "anthology.toml"
        cfg.write_text(example.split("```", 1)[0], encoding="utf-8")
        loaded = load_config(cfg, env={})
        assert loaded.store == StoreConfig(database_name="aclanthology", location=".")
        assert loaded.crawl == CrawlDefaults(
            venues=("acl", "emnlp"), year_start=2021, year_end=2023, workers=8,
            max_attempts=3, base_backoff_ms=500, timeout_ms=15000, min_interval_ms=250,
            source="fixture:fixtures")
        assert loaded.fixture_root == Path("fixtures")

    @pytest.mark.parametrize("text, section, key, value", [
        ('[store]\nlocation = "x #2"\n', "store", "location", "x #2"),
        ('[crawl]\nvenues = ["a,b"]\n', "crawl", "venues", ("a,b",)),
    ], ids=["comment-sign-in-string", "comma-in-array-item"])
    def test_toml_strings_read_whole(self, tmp_path, text, section, key, value):
        cfg = tmp_path / "anthology.toml"
        cfg.write_text(text, encoding="utf-8")
        assert getattr(getattr(load_config(cfg, env={}), section), key) == value

    @pytest.mark.parametrize("text, message", [
        ("[crawl]\nworkers = 007\n", "anthology.toml"),
        ("[crawl]\nworkers = 2\nworkers = 3\n", "anthology.toml"),
        ('[crawl]\nworkers = "8"\n', "crawl.workers must be an integer"),
        ('[crawl]\nvenues = "acl"\n', "crawl.venues must be an array of strings"),
        ("[crawl]\nworkers = true\n", "crawl.workers must be an integer"),
        ('[store]\ndatabase_name = ""\n', "store.database_name must be non-empty"),
        ("[crawl]\nworker = 4\n", "unknown setting crawl.worker"),
        ("[crawll]\nworkers = 2\n", "unknown section [crawll]"),
        ("workers = 2\n", "unknown setting workers"),
        ("[crawl.retry]\nmax_attempts = 2\n", "unknown setting crawl.retry"),
    ], ids=["leading-zero", "duplicate-key", "string-workers", "string-venues",
            "bool-workers", "empty-database-name", "unknown-key", "unknown-section",
            "top-level-key", "unknown-subtable"])
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
