import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anthology_harvest import (
    AuthorName,
    Category,
    ConferenceRecord,
    CrawlLog,
    CrawlStatus,
    EmptyInput,
    Kind,
    PaperRecord,
    canonical_venue,
    make_conf_id,
    normalize_author,
    parse_conf_id,
)
from anthology_harvest.model import _WS_RE, _strip_diacritics
from conftest import make_conference, make_paper


def drop_controls(raw: str) -> str:
    """The documented drop_controls step: C0 controls that are not whitespace go."""
    return "".join(ch for ch in raw if ch >= " " or ch.isspace())


class TestCanonicalVenue:
    def test_casefold(self):
        assert canonical_venue("ACL") == "acl"

    def test_already_canonical(self):
        assert canonical_venue("acl") == "acl"

    def test_multiword(self):
        # Hand application of the rule: casefold, then whitespace -> '-'.
        assert canonical_venue("Findings of EMNLP") == "findings-of-emnlp"

    def test_punctuation_and_diacritics(self):
        assert canonical_venue("Sem@Eval '22") == "sem-eval-22"
        assert canonical_venue("Café Sci") == "cafe-sci"

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            canonical_venue("   ")
        with pytest.raises(EmptyInput):
            canonical_venue("***")

    @settings(max_examples=100)
    @given(st.text(min_size=1).filter(lambda s: s.strip()))
    def test_idempotent(self, raw):
        try:
            once = canonical_venue(raw)
        except EmptyInput:
            return
        assert canonical_venue(once) == once


class TestNormalizeAuthor:
    def test_casefold(self):
        assert normalize_author("Chen Tang").normalized == "chen tang"

    def test_pipeline(self):
        # trim -> collapse whitespace -> strip diacritics -> casefold
        assert normalize_author("  José   García ").normalized == "jose garcia"

    def test_single_char(self):
        assert normalize_author("X").normalized == "x"

    def test_controls_are_dropped(self):
        # SQLite's json_each would cut a stored normalized name at U+0000.
        assert normalize_author("Ann\x00Bo\x1b") == AuthorName(full="AnnBo", normalized="annbo")
        assert normalize_author("Ann\x1f\x01Bo").normalized == "ann bo"
        with pytest.raises(EmptyInput):
            normalize_author(" \x00\x08 ")

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            normalize_author("  \t ")

    @pytest.mark.parametrize("raw", ["\u00b4", " \u00a8 \u00b8", "\u02dc"])
    def test_nothing_left_once_normalized_raises(self, raw):
        # Each is a space plus combining marks after compatibility decomposition.
        with pytest.raises(EmptyInput):
            normalize_author(raw)

    @settings(max_examples=100)
    @given(st.text(min_size=1).filter(lambda s: drop_controls(s).strip()))
    def test_normalized_shape(self, raw):
        try:
            name = normalize_author(raw)
        except EmptyInput:  # nothing left once normalized, as for "´"
            return
        assert name.normalized == name.normalized.strip()
        assert "  " not in name.normalized
        # Pure function: same input, same output.
        assert normalize_author(raw) == name

    @settings(max_examples=300)
    @given(st.one_of(st.text(st.characters(max_codepoint=127)), st.text()))
    def test_ascii_fast_path_equals_full_pipeline(self, raw):
        # The documented pipeline, applied in full to every input.
        collapsed = _WS_RE.sub(" ", drop_controls(raw).strip())
        normalized = _WS_RE.sub(" ", _strip_diacritics(collapsed).casefold()).strip()
        if not normalized:
            with pytest.raises(EmptyInput):
                normalize_author(raw)
            return
        assert normalize_author(raw) == AuthorName(full=collapsed, normalized=normalized)


class TestRecords:
    def test_paper_identity_is_the_id(self):
        a = make_paper(aid="x.1", title="One")
        b = make_paper(aid="x.1", title="Two")
        assert a.anthology_id == b.anthology_id
        assert a != b  # full-field equality stays strict

    def test_paper_validation(self):
        with pytest.raises(ValueError):
            make_paper(venue="ACL")  # venue_key must be canonical
        with pytest.raises(ValueError):
            make_paper(year=1800)
        with pytest.raises(ValueError):
            PaperRecord(anthology_id="a", title="t", authors=(),
                        venue_key="acl", year=2020, page_url="relative/path")

    def test_conf_id_round_trip(self):
        assert parse_conf_id(make_conf_id("acl", 2022)) == ("acl", 2022)
        assert parse_conf_id("findings-of-emnlp-2021") == ("findings-of-emnlp", 2021)

    def test_conf_id_must_match_fields(self):
        with pytest.raises(ValueError):
            ConferenceRecord(conf_id="acl-2021", venue_key="acl", year=2022,
                             title="t", url="https://x.test/a",
                             category=Category.ACL_EVENT)

    def test_kind_is_always_conference(self):
        rec = make_conference(title="Tutorial Abstracts")
        assert rec.kind is Kind.CONFERENCE

    @settings(max_examples=60)
    @given(st.sampled_from(["acl", "emnlp", "x_y", "a-b-c"]),
           st.integers(min_value=1950, max_value=2100))
    def test_conf_id_round_trips_generatively(self, venue, year):
        assert parse_conf_id(make_conf_id(venue, year)) == (venue, year)


class TestCrawlLog:
    def test_stored_needs_count(self):
        with pytest.raises(ValueError):
            CrawlLog(status=CrawlStatus.STORED, attempts=1)
        CrawlLog(status=CrawlStatus.STORED, attempts=1, paper_count=3)

    def test_failed_needs_error(self):
        with pytest.raises(ValueError):
            CrawlLog(status=CrawlStatus.FAILED, attempts=2)
        CrawlLog(status=CrawlStatus.FAILED, attempts=2, last_error="boom")

    def test_non_pending_needs_attempts(self):
        with pytest.raises(ValueError):
            CrawlLog(status=CrawlStatus.STORED, attempts=0, paper_count=0)


_PAPER = dict(anthology_id="x.1", title="T", authors=(), venue_key="acl", year=2022,
              page_url="https://anthology.test/x.1/")
_CONFERENCE = dict(conf_id="acl-2022", venue_key="acl", year=2022, title="T",
                   url="https://anthology.test/acl-2022.html", category=Category.ACL_EVENT)


@pytest.mark.parametrize("record, fields, message", [
    (PaperRecord, dict(anthology_id=""), "anthology_id must be non-empty"),
    (PaperRecord, dict(title=""), "title must be non-empty"),
    (PaperRecord, dict(venue_key="ACL"), "venue_key 'ACL' must match [a-z0-9_-]+"),
    (PaperRecord, dict(year=1800), "year 1800 outside [1950, 2100]"),
    (PaperRecord, dict(year=2101), "year 2101 outside [1950, 2100]"),
    (PaperRecord, dict(page_url="not-a-url"), "page_url 'not-a-url' must be absolute"),
    (PaperRecord, dict(pdf_url="x.pdf"), "pdf_url 'x.pdf' must be absolute"),
    # Several failures: the first check in declaration order names the error.
    (PaperRecord, dict(title="", year=1800, page_url="x"), "title must be non-empty"),
    (PaperRecord, dict(year=1800, page_url="x"), "year 1800 outside [1950, 2100]"),
    (ConferenceRecord, dict(venue_key="ACL"), "venue_key 'ACL' must match [a-z0-9_-]+"),
    (ConferenceRecord, dict(year=1800), "year 1800 outside [1950, 2100]"),
    (ConferenceRecord, dict(conf_id="acl-2021"), "conf_id 'acl-2021' != acl-2022"),
    (ConferenceRecord, dict(title=""), "title must be non-empty"),
    (ConferenceRecord, dict(url="relative"), "url 'relative' must be absolute"),
    (ConferenceRecord, dict(title="", url="relative"), "title must be non-empty"),
    (CrawlLog, dict(attempts=-1), "attempts must be non-negative"),
    (CrawlLog, dict(status=CrawlStatus.STORED, attempts=1), "stored log needs paper_count"),
    (CrawlLog, dict(status=CrawlStatus.FAILED, attempts=1), "failed log needs last_error"),
    (CrawlLog, dict(status=CrawlStatus.STORED, paper_count=0),
     "non-pending log needs attempts >= 1"),
    (CrawlLog, dict(paper_count=-1), "paper_count must be non-negative"),
    (CrawlLog, dict(status=CrawlStatus.FAILED, attempts=-1), "attempts must be non-negative"),
    # A blank normalized name has no bibkey surname; "$" would let "acl\n" through.
    (PaperRecord, dict(authors=(AuthorName(" ", ""),)), "blank normalized name of author ' '"),
    (PaperRecord, dict(authors=(AuthorName("Ann", "ann"), AuthorName("x", "\t"))),
     "blank normalized name of author 'x'"),
    (PaperRecord, dict(venue_key="acl\n"), "venue_key 'acl\\n' must match [a-z0-9_-]+"),
    (ConferenceRecord, dict(venue_key="acl\n"), "venue_key 'acl\\n' must match [a-z0-9_-]+"),
])
def test_record_checks_raise_their_exact_message(record, fields, message):
    defaults = {PaperRecord: _PAPER, ConferenceRecord: _CONFERENCE, CrawlLog: {}}[record]
    with pytest.raises(ValueError) as info:
        record(**{**defaults, **fields})
    assert str(info.value) == message
