"""A small DOM built on html.parser, enough for heuristic page extraction.

The tree keeps element nodes (tag, attributes, children) with raw text as
plain strings among the children.  Entity references are decoded by the
underlying parser; ``Node.text()`` flattens inner markup to plain text with
collapsed whitespace, which is the form record fields use.

``NestingParser`` holds the nesting rules the tree is built by; readers
that skip the tree (the parser's proceedings pass) subclass it, so every
page is nested the same way.
"""
from __future__ import annotations

from html.parser import HTMLParser
from typing import Iterator

VOID_TAGS = {
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
}

_WS = " \t\n\r\f\v"


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
    builder = _TreeBuilder()
    builder.feed(html)
    builder.close()
    return builder.root


def base_href(root: Node) -> str | None:
    """The document's ``<base href>`` target, if declared."""
    base = root.find(tag="base")
    if base is None:
        return None
    return base.attrs.get("href") or None
