"""Reading a page into one flat list of elements, enough for heuristic
page extraction.

``scan`` tokenizes a page with one compiled pattern and makes the handler
calls ``html.parser`` would make, or declines a page outside its narrow
grammar.  ``parse_html`` nests those calls (html.parser's own for a
declined page) by tolerant rules into a ``Page``: every element in
document order, each knowing its parent and the extent of its
descendants, and the page's text data as chunks.  Entity references are
decoded by the tokenizer; ``Page.text`` flattens an element's inner markup
to plain text with collapsed whitespace, which is the form record fields
use.  Every page reader in ``parser`` is a loop over a ``Page``.
"""
from __future__ import annotations

import re
from html import unescape
from html.parser import HTMLParser

VOID_TAGS = {
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
}

# Elements whose content html.parser versions read as raw text (script,
# style; newer ones more), or as text with character references only
# (title, textarea, in newer versions).  ``scan`` declines a page holding
# one of the first, and reads the second only when plain text alone comes
# before the element's end tag, which every version reads alike.
_RAW_TEXT = {"script", "style", "xmp", "iframe", "noembed", "noframes",
             "noscript", "plaintext"}
_PLAIN_TEXT = {"title", "textarea"}

# Whitespace inside a tag: the ASCII set, which every html.parser version
# agrees on (older ones also took any Unicode whitespace).
_S = r"[ \t\n\r\f]"
_NAME = r"[a-zA-Z][-a-zA-Z0-9]*"
_ATTR_NAME = r"[a-zA-Z_:][-a-zA-Z0-9_:.]*"
_ATTR_VALUE = r""""[^"]*"|'[^']*'|[^\s"'=<>`]+"""
_ATTR_RE = re.compile(rf"{_S}+({_ATTR_NAME})(?:{_S}*={_S}*({_ATTR_VALUE}))?")

# One alternative per token, as the "Writing a Tokenizer" recipe of the re
# module's documentation: ``lastgroup`` names the one that matched.  A
# ``<`` that starts none of the others, or a construct cut off at the end
# of the input, matches ``bad``.
_TOKEN = re.compile(
    r"(?P<text>[^<]+)"
    rf"|(?P<start><(?P<tag>{_NAME})"
    rf"(?P<attrs>(?:{_S}+{_ATTR_NAME}(?:{_S}*={_S}*(?:{_ATTR_VALUE}))?)*)"
    rf"{_S}*(?P<slash>/?)>)"
    rf"|(?P<end></(?P<endtag>{_NAME}){_S}*>)"
    # html.parser versions differ on "<!-->" and "<!--->", and on whether
    # "--!>" or "-- >" ends a comment: ``scan`` declines all four.
    r"|(?P<comment><!--(?!-?>)(?P<body>(?s:.*?))-->)"
    r"|(?P<decl><!(?P<doctype>[dD][oO][cC][tT][yY][pP][eE][^<>]*)>)"
    r"|(?P<bad><)")
_COMMENT_END_RE = re.compile(r"--!>|--\s+>")


def _attr_value(raw: str) -> str | None:
    if not raw:
        return None
    if raw[0] in "\"'":
        raw = raw[1:-1]
    return unescape(raw)


def scan(html: str, handler) -> bool:
    """Tokenize ``html`` into the handler calls ``html.parser`` would make.

    With ``convert_charrefs=True``, html.parser lowercases tag and attribute
    names, unescapes data and attribute values, gives a valueless attribute
    None, keeps duplicate attributes in order and ends a run of data at
    every tag, comment and doctype; so does this.  The grammar is narrower:
    a page holding raw-text elements (script, style), a title or textarea
    holding more than plain text, ``<?``, a ``<!`` that is not a plain
    comment or a doctype, ``</`` not followed by a letter, a ``<`` that
    starts no token, or a construct cut off at the end is declined.
    Returns False on a decline, after which the handler holds a partial
    page and must be dropped.
    """
    data = handler.handle_data
    start = handler.handle_starttag
    startend = handler.handle_startendtag
    end = handler.handle_endtag
    plain_text = None  # the title or textarea whose end tag must come next
    for m in _TOKEN.finditer(html):
        kind = m.lastgroup
        if plain_text is not None and kind != "text":
            if kind != "end" or m.group("endtag").lower() != plain_text:
                return False
            plain_text = None
        if kind == "text":
            data(unescape(m.group()))
        elif kind == "start":
            tag, raw, slash = m.group("tag", "attrs", "slash")
            tag = tag.lower()
            if tag in _RAW_TEXT:
                return False
            attrs = ([(name.lower(), _attr_value(value))
                      for name, value in _ATTR_RE.findall(raw)] if raw else [])
            if slash:
                if tag in _PLAIN_TEXT:
                    return False
                startend(tag, attrs)
            else:
                start(tag, attrs)
                if tag in _PLAIN_TEXT:
                    plain_text = tag
        elif kind == "end":
            end(m.group("endtag").lower())
        elif kind == "comment":
            body = m.group("body")
            if _COMMENT_END_RE.search(body):
                return False
            handler.handle_comment(body)
        elif kind == "decl":
            handler.handle_decl(m.group("doctype"))
        else:
            return False
    return plain_text is None


class Element:
    """One element of a ``Page``: its tag, its (name, value) attribute
    pairs as the tokenizer gave them, its class tuple, the position of its
    parent (-1 at the top) and of its last descendant in ``Page.elements``,
    and its slice ``start:end`` of ``Page.chunks``.  It holds no reference
    to its page, so a parsed page is freed as soon as it is dropped."""

    __slots__ = ("tag", "attrs", "classes", "parent", "pos", "last", "start", "end")

    def __init__(self, tag: str, attrs: tuple, classes: tuple[str, ...],
                 parent: int, pos: int, start: int) -> None:
        self.tag = tag
        self.attrs = attrs
        self.classes = classes
        self.parent = parent
        self.pos = self.last = pos
        self.start = self.end = start

    def get(self, name: str) -> str | None:
        """The value of attribute ``name``: the last duplicate wins, a
        valueless attribute reads as "", and an absent one as None."""
        found = None
        for key, value in self.attrs:
            if key == name:
                found = value or ""
        return found


class Page:
    """A parsed page: ``elements`` in document order and ``chunks``, the
    text data in document order.  The elements inside ``e`` are
    ``elements[e.pos + 1:e.last + 1]`` and its text is
    ``chunks[e.start:e.end]``."""

    __slots__ = ("elements", "chunks")

    def __init__(self) -> None:
        self.elements: list[Element] = []
        self.chunks: list[str] = []

    def inside(self, element: Element) -> list[Element]:
        """The elements inside ``element``, in document order."""
        return self.elements[element.pos + 1:element.last + 1]

    def find(self, cls: str) -> Element | None:
        """The page's first element of class ``cls``."""
        for element in self.elements:
            if cls in element.classes:
                return element
        return None

    def text(self, element: Element) -> str:
        """The element's text data with whitespace collapsed."""
        return " ".join("".join(self.chunks[element.start:element.end]).split())


class _Reader(HTMLParser):
    """html.parser events nested by tolerant rules into a ``Page``: a void
    or self-closing tag never opens, an end tag closes back to the nearest
    open element of its name, a stray end tag is ignored, and what is still
    open at the end closes there."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.page = Page()
        self._elements = self.page.elements
        self._chunks = self.page.chunks
        # Text data is only collected: the list's own append takes it.
        self.handle_data = self._chunks.append
        self._open: list[Element] = []
        # Tag strings and class tuples are shared per distinct value.
        # Attributes are kept as tuples: the garbage collector untracks a
        # tuple of strings once it has seen it, whereas lists would reach
        # the oldest generation with the page and make full collections
        # come more often.
        self._tags: dict[str, str] = {}
        self._classes: dict[str | None, tuple[str, ...]] = {None: ()}

    def handle_starttag(self, tag: str, attrs) -> None:
        cls = None
        for name, value in attrs:
            if name == "class":
                cls = value
        classes = self._classes.get(cls)
        if classes is None:
            classes = self._classes[cls] = tuple(cls.split())
        elements = self._elements
        open_ = self._open
        element = Element(self._tags.setdefault(tag, tag), tuple(attrs), classes,
                          open_[-1].pos if open_ else -1, len(elements), len(self._chunks))
        elements.append(element)
        if tag not in VOID_TAGS:
            open_.append(element)

    def handle_startendtag(self, tag: str, attrs) -> None:
        self.handle_starttag(tag, attrs)
        if tag not in VOID_TAGS:
            self._open.pop()

    def handle_endtag(self, tag: str) -> None:
        stack = self._open
        for depth in range(len(stack) - 1, -1, -1):
            if stack[depth].tag == tag:
                self._close(depth)
                return

    def _close(self, depth: int) -> None:
        """Close the open elements at ``depth`` and deeper."""
        last = len(self._elements) - 1
        end = len(self._chunks)
        stack = self._open
        while len(stack) > depth:
            element = stack.pop()
            element.last = last
            element.end = end


def parse_html(html: str) -> Page:
    """Read a page into a ``Page``: by ``scan``, or, when ``scan`` declines
    the page, by html.parser into a fresh reader."""
    reader = _Reader()
    if not scan(html, reader):
        reader = _Reader()
        reader.feed(html)
        reader.close()
    reader._close(0)
    return reader.page
