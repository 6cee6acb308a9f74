"""Exception types shared across the toolkit."""


class HarvestError(Exception):
    """Base class for every error raised by this package."""


class EmptyInput(HarvestError):
    """An operation received empty or whitespace-only input."""


class UnrecognizedPage(HarvestError):
    """No structural marker set matched the page."""


class StructureError(HarvestError):
    """A page matched a kind but its required structure is missing."""


class FetchError(HarvestError):
    """Base class for retrieval failures."""

    def __init__(self, message: str, url: str = "", attempts_used: int = 1):
        super().__init__(message)
        self.url = url
        self.attempts_used = attempts_used


class NotFound(FetchError):
    """The target answered a 4xx, or a redirect the fetcher cannot follow."""


class Exhausted(FetchError):
    """All retry attempts were spent on transient failures."""


class Unresolvable(FetchError):
    """The URL cannot be mapped to a target (bad URL or bad fixture path)."""


class StoreUnavailable(HarvestError):
    """The relational backend cannot be reached or is closed."""


class DuplicateInBatch(HarvestError):
    """A batch write contained two records with the same identity key."""


class InvalidChain(HarvestError):
    """The builder chain is structurally invalid (e.g. having without group)."""


class UnknownColumn(HarvestError):
    """A query referenced a column absent from the source table's schema."""


class BadArity(HarvestError):
    """A condition value does not match its operator's arity."""


class MissingColumn(HarvestError):
    """Row hydration requires the full column set of the source table."""


class EmptyRuleSet(HarvestError):
    """filter() needs at least one rule."""


class BadDims(HarvestError):
    """stats() received an empty, duplicated, or unknown dimension list."""
