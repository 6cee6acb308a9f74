"""Output checks against the corpus generator's ground truth.

Every check raises ``CheckFailed`` with a message naming what differed.
The stored records are read back through the program's public loaders
(``load_all_papers``/``load_all_conferences``); before/after comparisons
read the tables with plain SQL so that they see every stored column.
"""
from __future__ import annotations

import hashlib
import json
import re
import sqlite3

CATEGORY_VALUES = {"acl-events": "acl_event", "non-acl-events": "non_acl_event"}
_BIB_KEY_RE = re.compile(r"^@inproceedings\{([^,\n]+),", re.M)


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def table_digest(db_path: str) -> str:
    """Digest of both tables' full contents, ignoring crawl timestamps."""
    digest = hashlib.sha256()
    conn = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
    try:
        for name, key in (("paper", "anthology_id"), ("conference", "conf_id")):
            cur = conn.execute(f"SELECT * FROM {name} ORDER BY {key}")
            columns = [d[0] for d in cur.description]
            keep = [i for i, c in enumerate(columns) if c != "fetched_at"]
            for row in cur:
                digest.update(repr([row[i] for i in keep]).encode())
    finally:
        conn.close()
    return digest.hexdigest()


def check_report(report, plan: dict) -> None:
    failing = set(plan["failing"])
    expect(report.tasks_total == plan["conferences"],
           f"planned {report.tasks_total} tasks, corpus has {plan['conferences']} conferences")
    failed = {cid for cid, log in report.per_conference.items()
              if log.status.value == "failed"}
    expect(failed == failing, f"failed tasks {sorted(failed)} != 429-scripted {sorted(failing)}")
    expect(report.tasks_failed == len(failing), "tasks_failed disagrees with per_conference")


def check_store(papers, conferences, truth: dict) -> None:
    """Stored papers and conferences equal the generated ones, field by field."""
    by_id = {p["anthology_id"]: p for p in truth["papers"]}
    expected_ids = {i for c in truth["conferences"] if not c["fails_429"]
                    for i in c["paper_ids"]}
    stored = {p.anthology_id: p for p in papers}
    expect(set(stored) == expected_ids,
           f"stored {len(stored)} papers, expected {len(expected_ids)}; "
           f"e.g. missing {sorted(expected_ids - set(stored))[:3]}, "
           f"extra {sorted(set(stored) - expected_ids)[:3]}")
    for aid, rec in stored.items():
        want = by_id[aid]
        got = {
            "title": rec.title, "authors": [a.full for a in rec.authors],
            "venue_key": rec.venue_key, "year": rec.year, "page_url": rec.page_url,
            "pdf_url": rec.pdf_url, "abstract": rec.abstract, "bibkey": rec.bibkey,
        }
        for field, value in got.items():
            expect(value == want[field],
                   f"{aid}.{field}: stored {value!r}, generated {want[field]!r}")

    stored_confs = {c.conf_id: c for c in conferences}
    expect(set(stored_confs) == {c["conf_id"] for c in truth["conferences"]},
           "conference rows differ from the generated conferences")
    for want in truth["conferences"]:
        rec = stored_confs[want["conf_id"]]
        got = (rec.venue_key, rec.year, rec.title, rec.desc, rec.url, rec.category.value)
        exp = (want["venue_key"], want["year"], want["title"], want["desc"], want["url"],
               CATEGORY_VALUES[want["category"]])
        expect(got == exp, f"{want['conf_id']}: stored {got}, generated {exp}")
        log = rec.crawl_log
        if want["fails_429"]:
            expect(log.status.value == "failed" and "429" in (log.last_error or ""),
                   f"{want['conf_id']}: expected a failed 429 log, got {log}")
        else:
            expect(log.status.value == "stored"
                   and log.paper_count == len(want["paper_ids"]),
                   f"{want['conf_id']}: expected stored/{len(want['paper_ids'])}, got {log}")


def check_requests(paths: list[str], plan: dict) -> None:
    """The mock server saw every page once plus one retry per scripted 503."""
    expect(len(paths) == plan["requests_per_phase"],
           f"mock server logged {len(paths)} requests, expected "
           f"{plan['requests_per_phase']}")


def check_point(rows, anthology_id: str) -> None:
    expect(isinstance(rows, list) and len(rows) == 1
           and rows[0]["anthology_id"] == anthology_id,
           f"point lookup of {anthology_id} returned {rows!r:.200}")


def check_like(rows, keyword: str, hits: int) -> None:
    expect(len(rows) == hits, f"LIKE %{keyword}% returned {len(rows)} rows, expected {hits}")
    expect(all(keyword in r["title"].casefold() for r in rows),
           f"LIKE %{keyword}% returned a non-matching title")


def _json_ids(out: str) -> list[str]:
    return [json.loads(line)["anthology_id"] for line in out.splitlines() if line.strip()]


def check_page(out: str, plan: dict) -> None:
    got = _json_ids(out)
    expect(got == plan["ids"], f"query page returned {got}, expected {plan['ids']}")


def check_filter(out: str, plan: dict) -> None:
    got = sorted(_json_ids(out))
    expect(got == plan["ids"],
           f"filter returned {len(got)} hits, expected {len(plan['ids'])}")


def check_stats(out: str, plan: dict) -> None:
    expect(json.loads(out) == plan["counts"], "stats counts differ from the generated records")


def check_export(out: str, plan: dict) -> None:
    keys = _BIB_KEY_RE.findall(out)
    expect(len(keys) == plan["hits"],
           f"bibtex export has {len(keys)} entries, expected {plan['hits']}")
    expect(len(set(keys)) == len(keys), "bibtex export repeats a key")
