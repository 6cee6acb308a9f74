"""Page-by-page check that ``htmldoc.scan`` reads pages as html.parser does.

Every page is tokenized twice, by html.parser (``convert_charrefs=True``)
and by ``scan``, into a recorder of handler calls that merges adjacent
data; a page passes when ``scan`` accepts it and the two records are equal.
Standard library only, so it runs under interpreters without pytest:

    PYTHONPATH=src python tests/scan_equivalence.py [--seed N] [DIR ...]

With no DIR it checks ``fixtures/`` and both benchmark corpora generated at
the seed (default 1) into a temporary directory.  Exit status 1 if any page
is declined or read differently.
"""
from __future__ import annotations

import argparse
import importlib.util
import sys
import tempfile
from html.parser import HTMLParser
from pathlib import Path

from anthology_harvest import htmldoc

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bulk-fixture", "wide-mock")


class Recorder(HTMLParser):
    """Every handler call as a tuple, adjacent data merged."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.events: list[tuple] = []

    def handle_data(self, data):
        if self.events and self.events[-1][0] == "data":
            self.events[-1] = ("data", self.events[-1][1] + data)
        else:
            self.events.append(("data", data))

    def handle_starttag(self, tag, attrs):
        self.events.append(("start", tag, attrs))

    def handle_startendtag(self, tag, attrs):
        self.events.append(("startend", tag, attrs))

    def handle_endtag(self, tag):
        self.events.append(("end", tag))

    def handle_comment(self, data):
        self.events.append(("comment", data))

    def handle_decl(self, decl):
        self.events.append(("decl", decl))

    def handle_pi(self, data):
        self.events.append(("pi", data))

    def unknown_decl(self, data):
        self.events.append(("unknown_decl", data))


def reference_events(html: str) -> list[tuple]:
    recorder = Recorder()
    recorder.feed(html)
    recorder.close()
    return recorder.events


def scanned_events(html: str) -> list[tuple] | None:
    """``scan``'s record of ``html``, or None if it declines the page."""
    recorder = Recorder()
    return recorder.events if htmldoc.scan(html, recorder) else None


def generate_corpora(out: Path, seed: int) -> list[Path]:
    """Both benchmark corpora at ``seed``, written under ``out`` by the
    benchmark's own generator (loaded from its file, not modified)."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_corpus", ROOT / "perfbench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    dirs = []
    for workload in WORKLOADS:
        target = out / workload
        corpus.generate(workload, seed, target)
        dirs.append(target)
    return dirs


def check(dirs: list[Path]) -> tuple[int, list[str]]:
    """(pages checked, one line per page declined or read differently)."""
    pages = 0
    faults = []
    for root in dirs:
        for path in sorted(root.rglob("*.html")):
            html = path.read_text(encoding="utf-8")
            pages += 1
            got = scanned_events(html)
            if got is None:
                faults.append(f"declined: {path}")
            elif got != reference_events(html):
                faults.append(f"read differently: {path}")
    return pages, faults


def main(argv: list[str] | None = None) -> int:
    args = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    args.add_argument("--seed", type=int, default=1)
    args.add_argument("dirs", nargs="*", type=Path)
    opts = args.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        dirs = opts.dirs or [ROOT / "fixtures", *generate_corpora(Path(tmp), opts.seed)]
        pages, faults = check(dirs)
    for line in faults:
        print(line)
    print(f"Python {sys.version.split()[0]}: {pages} pages, {len(faults)} declined "
          "or read differently")
    return 1 if faults or not pages else 0


if __name__ == "__main__":
    sys.exit(main())
