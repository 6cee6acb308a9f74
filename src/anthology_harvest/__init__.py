"""Harvest anthology-style publication sites into a local relational store.

The pieces compose bottom-up: ``model`` defines the shared record types,
``parser`` extracts them from pages, ``fetcher`` retrieves pages (live,
mock, or fixture), ``scheduler`` runs the concurrent crawl, ``store``
persists the two-table schema, ``query`` is the chainable retriever, and
``paperlist`` provides set algebra, filtering, statistics, and export over
result sets.
"""
from .errors import (
    BadArity,
    BadDims,
    DuplicateInBatch,
    EmptyInput,
    EmptyPlan,
    EmptyRuleSet,
    Exhausted,
    HarvestError,
    InvalidChain,
    MissingColumn,
    NotFound,
    StoreUnavailable,
    StructureError,
    UnknownColumn,
    UnrecognizedPage,
    Unresolvable,
)
from .fetcher import (
    ConnectionPool,
    FetchPolicy,
    FetchResult,
    FixtureSource,
    LiveSource,
    MockSource,
    RateGate,
    fetch,
    parse_source_spec,
)
from .model import (
    AuthorName,
    Category,
    ConContent,
    ConferenceRecord,
    CrawlLog,
    CrawlStatus,
    Kind,
    PaperRecord,
    canonical_venue,
    make_conf_id,
    normalize_author,
    parse_conf_id,
)
from .paperlist import (
    FilterRule,
    PaperList,
    complement,
    filter_papers,
    intersect,
    sort_papers,
    stats,
    top_k,
    union,
)
from .parser import (
    PageKind,
    ParseReport,
    classify_page,
    parse_index,
    parse_proceedings,
    parse_venue_page,
)
from .query import Builder, Condition, QueryAst, execute, hydrate_papers, render_sql, table
from .scheduler import (
    CrawlConfig,
    CrawlReport,
    CrawlSession,
    plan_tasks,
    run_crawl,
)
from .store import (
    Store,
    StoreConfig,
    init_schema,
    load_all_conferences,
    load_all_papers,
    upsert_conference,
    upsert_crawl_batch,
    upsert_papers,
)

__version__ = "0.1.0"
