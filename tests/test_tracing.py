"""The benchmark's tracer wraps package functions by their names.

``perfbench/tracing.py`` is loaded from its file, as the traced benchmark
run loads it, so a rename or a deletion in the package that the tracer
still names fails here too.
"""
import importlib.util
import inspect
import pkgutil

import anthology_harvest
from anthology_harvest import (
    CrawlConfig, FetchPolicy, FixtureSource, StoreConfig, init_schema)
from conftest import FIXTURES, REPO_ROOT


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def package_attributes() -> dict[tuple[str, str, str], object]:
    """Every attribute of every package module and of each class in it."""
    found = {}
    for info in pkgutil.iter_modules(anthology_harvest.__path__):
        module = importlib.import_module(f"anthology_harvest.{info.name}")
        for name, value in vars(module).items():
            found[(info.name, "", name)] = value
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    found[(info.name, name, attr)] = member
    return found


def test_install_wraps_and_uninstall_restores_every_attribute():
    before = package_attributes()
    tracer = load_tracer()
    tracer.install()
    try:
        patched = list(tracer._patched)
        assert len(patched) > 20
        for owner, attr, original in patched:
            assert vars(owner)[attr].__wrapped__ is original
    finally:
        tracer.uninstall()
    after = package_attributes()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []


def test_installed_tracer_records_a_crawl(tmp_path):
    from anthology_harvest import scheduler

    tracer = load_tracer()
    tracer.install()
    tracer.phase = "harvest"
    try:
        config = CrawlConfig(workers=2, source=FixtureSource(root=FIXTURES),
                             policy=FetchPolicy(min_interval_ms=0))
        with init_schema(StoreConfig(location=str(tmp_path))) as handle:
            report = scheduler.run_crawl(config, handle)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(rounds=1, requests=0, workers=2,
                             report_attempts=report.requests, tasks_failed=0)
    assert report.tasks_succeeded == metrics["scheduler.tasks"][0] == 25
    assert metrics["store.write_batches"][0] == 25
    assert metrics["fetcher.calls"][0] == metrics["fetcher.attempts"][0] == report.requests == 31
    assert metrics["scheduler.execute_ms"][0] > 0
