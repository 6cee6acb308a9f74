"""A small DOM over html.parser events, enough for heuristic page extraction.

The tree keeps element nodes (tag, attributes, children) with raw text as
plain strings among the children.  Entity references are decoded by the
tokenizer; ``Node.text()`` flattens inner markup to plain text with
collapsed whitespace, which is the form record fields use.

``scan`` tokenizes a page with one compiled pattern and makes the handler
calls ``html.parser`` would make, or declines a page outside its narrow
grammar.  ``NestingParser`` holds the nesting rules the tree is built by,
and ``NestingParser.read`` feeds a page to a reader by ``scan``, or by
``html.parser`` when ``scan`` declines; readers that skip the tree (the
parser's proceedings pass) subclass it, so every page is tokenized and
nested the same way.
"""
from __future__ import annotations

import re
from html import unescape
from html.parser import HTMLParser
from typing import Iterator

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


class Node:
    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: dict[str, str] | None = None):
        self.tag = tag
        self.attrs: dict[str, str] = attrs or {}
        self.children: list[Node | str] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.tag} {self.attrs}>"

    def classes(self) -> list[str]:
        return (self.attrs.get("class") or "").split()

    def has_class(self, name: str) -> bool:
        return name in self.classes()

    def walk(self) -> Iterator[tuple["Node", "Node"]]:
        """Depth-first iteration over (parent, element) pairs, document order.

        An explicit stack of child iterators keeps any nesting depth within
        the interpreter's recursion limit.
        """
        stack = [(self, iter(self.children))]
        while stack:
            parent, children = stack[-1]
            for child in children:
                if isinstance(child, Node):
                    yield parent, child
                    stack.append((child, iter(child.children)))
                    break
            else:
                stack.pop()

    def find_all(self, tag: str | None = None, cls: str | None = None,
                 attr: str | None = None) -> list["Node"]:
        out = []
        for _, node in self.walk():
            if tag is not None and node.tag != tag:
                continue
            if cls is not None and not node.has_class(cls):
                continue
            if attr is not None and attr not in node.attrs:
                continue
            out.append(node)
        return out

    def find(self, tag: str | None = None, cls: str | None = None,
             attr: str | None = None) -> "Node | None":
        for _, node in self.walk():
            if tag is not None and node.tag != tag:
                continue
            if cls is not None and not node.has_class(cls):
                continue
            if attr is not None and attr not in node.attrs:
                continue
            return node
        return None

    def text(self) -> str:
        """Concatenated descendant text with whitespace collapsed."""
        parts: list[str] = []
        self._collect_text(parts)
        return " ".join("".join(parts).split())

    def _collect_text(self, parts: list[str]) -> None:
        stack = [iter(self.children)]
        while stack:
            for child in stack[-1]:
                if isinstance(child, str):
                    parts.append(child)
                else:
                    stack.append(iter(child.children))
                    break
            else:
                stack.pop()


class NestingParser(HTMLParser):
    """html.parser events nested by the tolerant rules every page reader
    here shares: a void or self-closing tag never opens, an end tag closes
    back to the nearest open element of its name, a stray end tag is
    ignored, and what is still open at the end stays open.

    A subclass gets ``on_start(tag, attrs, depth, opened)`` for each start
    tag, ``depth`` being the number of elements open around it, and
    ``on_close(depth)`` when the open elements at ``depth`` and deeper close.
    """

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self._open_tags: list[str] = []

    @classmethod
    def read(cls, html: str):
        """A new reader given the whole of ``html``: by ``scan``, or, when
        ``scan`` declines the page, by html.parser into a fresh reader."""
        reader = cls()
        if scan(html, reader):
            return reader
        reader = cls()
        reader.feed(html)
        reader.close()
        return reader

    def on_start(self, tag: str, attrs, depth: int, opened: bool) -> None:
        raise NotImplementedError

    def on_close(self, depth: int) -> None:
        raise NotImplementedError

    def handle_starttag(self, tag: str, attrs) -> None:
        depth = len(self._open_tags)
        opened = tag not in VOID_TAGS
        if opened:
            self._open_tags.append(tag)
        self.on_start(tag, attrs, depth, opened)

    def handle_startendtag(self, tag: str, attrs) -> None:
        self.on_start(tag, attrs, len(self._open_tags), False)

    def handle_endtag(self, tag: str) -> None:
        tags = self._open_tags
        for depth in range(len(tags) - 1, -1, -1):
            if tags[depth] == tag:
                del tags[depth:]
                self.on_close(depth)
                return


class _TreeBuilder(NestingParser):
    def __init__(self) -> None:
        super().__init__()
        self.root = Node("#document")
        self._stack = [self.root]

    def on_start(self, tag: str, attrs, depth: int, opened: bool) -> None:
        node = Node(tag, {k: (v if v is not None else "") for k, v in attrs})
        self._stack[-1].children.append(node)
        if opened:
            self._stack.append(node)

    def on_close(self, depth: int) -> None:
        del self._stack[depth + 1:]

    def handle_data(self, data: str) -> None:
        if data:
            self._stack[-1].children.append(data)


def parse_html(html: str) -> Node:
    """Parse HTML text into a Node tree rooted at a synthetic document node."""
    return _TreeBuilder.read(html).root


def base_href(root: Node) -> str | None:
    """The document's ``<base href>`` target, if declared."""
    base = root.find(tag="base")
    if base is None:
        return None
    return base.attrs.get("href") or None
