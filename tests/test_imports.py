"""The package loads each module on first use.

So ``import anthology_harvest`` is cheap, the retrieval commands never load
the crawler, and the mock server never loads the store or the fetcher.  Each
check runs in a fresh interpreter, because this process has already imported
everything.
"""
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import anthology_harvest
from anthology_harvest import (
    CrawlConfig, FetchPolicy, FixtureSource, StoreConfig, init_schema, run_crawl)
from conftest import FIXTURES, REPO_ROOT

CRAWLER = {"anthology_harvest.scheduler", "anthology_harvest.parser",
           "anthology_harvest.htmldoc", "anthology_harvest.fetcher", "http.client"}


def loaded(script: str, **env: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``script``."""
    script += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), **env))
    assert done.returncode == 0, done.stderr[-2000:]
    return set(json.loads(done.stdout.splitlines()[-1]))


def package_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m.startswith("anthology_harvest.")}


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("store")
    handle = init_schema(StoreConfig(location=str(root)))
    try:
        run_crawl(CrawlConfig(workers=2, policy=FetchPolicy(min_interval_ms=0),
                              source=FixtureSource(root=FIXTURES)), handle)
    finally:
        handle.close()
    return root


def test_package_import_loads_no_module():
    assert package_modules(loaded("import anthology_harvest")) == set()


def test_retrieval_commands_do_not_load_the_crawler(store_dir):
    script = """
from anthology_harvest.cli import main
for argv in (["query", "--limit", "5", "--format", "json"],
             ["filter", "--years", "2021..2023", "--format", "json"],
             ["stats", "--by", "venue"]):
    assert main(argv) == 0, argv
"""
    modules = loaded(script, AAH_DB=str(store_dir))
    assert not modules & CRAWLER
    assert package_modules(modules) == {f"anthology_harvest.{name}" for name in (
        "cli", "store", "query", "paperlist", "model", "errors")}


def test_mock_server_does_not_load_the_store():
    modules = loaded("from anthology_harvest.mockserver import ScriptedCorpusServer")
    assert not modules & {"anthology_harvest.store", "anthology_harvest.scheduler",
                          "anthology_harvest.parser", "anthology_harvest.fetcher",
                          "sqlite3"}


def test_mock_server_start_header_is_the_fetchers():
    from anthology_harvest import fetcher, mockserver
    assert mockserver.START_HEADER == fetcher.START_HEADER


def test_every_exported_name_and_module_resolves():
    # No module is imported explicitly; ``htmldoc`` is read first, before
    # any module that imports it has loaded.
    modules = [info.name for info in pkgutil.iter_modules(anthology_harvest.__path__)]
    script = f"""
import types
import anthology_harvest as pkg
assert pkg.htmldoc.parse_html
for name in pkg.__all__:
    getattr(pkg, name)
for name in {modules!r}:
    assert isinstance(getattr(pkg, name), types.ModuleType), name
    assert name in dir(pkg), name
try:
    pkg.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("no AttributeError")
"""
    loaded(script)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from anthology_harvest import *", namespace)
    assert set(anthology_harvest.__all__) <= namespace.keys()
