"""Harvest anthology-style publication sites into a local relational store.

The pieces compose bottom-up: ``model`` defines the shared record types,
``parser`` extracts them from pages, ``fetcher`` retrieves pages (live,
mock, or fixture), ``scheduler`` runs the concurrent crawl, ``store``
persists the two-table schema, ``query`` is the chainable retriever, and
``paperlist`` provides set algebra, filtering, statistics, and export over
result sets.

``import anthology_harvest`` is cheap: it loads none of these modules.
Each exported name, and each module as ``anthology_harvest.<module>``,
loads on first use (PEP 562 ``__getattr__``).  So a program that only
queries a store never loads the crawler; of the CLI commands, only
``harvest`` does.
"""
import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "errors": "BadDims DuplicateInBatch EmptyInput EmptyPlan EmptyRuleSet Exhausted "
              "HarvestError InvalidChain MissingColumn NotFound StoreUnavailable "
              "StructureError UnknownColumn UnrecognizedPage Unresolvable",
    "fetcher": "ConnectionPool FetchPolicy FixtureSource LiveSource MockSource RateGate "
               "fetch parse_source_spec",
    "model": "AuthorName Category ConferenceRecord CrawlLog CrawlStatus Kind PaperRecord "
             "canonical_venue make_conf_id normalize_author parse_conf_id",
    "paperlist": "FilterRule PaperList complement filter_papers intersect sort_papers "
                 "stats top_k union",
    "parser": "PageKind classify_page parse_index parse_proceedings parse_venue_page",
    "query": "execute hydrate_papers render_sql table",
    "scheduler": "CrawlConfig plan_tasks run_crawl",
    "store": "StoreConfig init_schema load_all_conferences load_all_papers "
             "upsert_conference upsert_crawl_batch upsert_papers",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_MODULES = frozenset(_EXPORTS) | {"cli", "htmldoc", "mockserver"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys() | _MODULES)
