"""A small DOM built on html.parser, enough for heuristic page extraction.

The tree keeps element nodes (tag, attributes, children) with raw text as
plain strings among the children.  Entity references are decoded by the
underlying parser; ``Node.text()`` flattens inner markup to plain text with
collapsed whitespace, which is the form record fields use.
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

    def iter_nodes(self) -> Iterator["Node"]:
        """Depth-first iteration over element nodes, document order.

        An explicit stack of child iterators keeps any nesting depth within
        the interpreter's recursion limit.
        """
        stack = [iter(self.children)]
        while stack:
            for child in stack[-1]:
                if isinstance(child, Node):
                    yield child
                    stack.append(iter(child.children))
                    break
            else:
                stack.pop()

    def find_all(self, tag: str | None = None, cls: str | None = None,
                 attr: str | None = None) -> list["Node"]:
        out = []
        for node in self.iter_nodes():
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
        for node in self.iter_nodes():
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


class _TreeBuilder(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = Node("#document")
        self._stack = [self.root]

    def handle_starttag(self, tag: str, attrs) -> None:
        node = Node(tag, {k: (v if v is not None else "") for k, v in attrs})
        self._stack[-1].children.append(node)
        if tag not in VOID_TAGS:
            self._stack.append(node)

    def handle_startendtag(self, tag: str, attrs) -> None:
        node = Node(tag, {k: (v if v is not None else "") for k, v in attrs})
        self._stack[-1].children.append(node)

    def handle_endtag(self, tag: str) -> None:
        # Tolerate unclosed elements: pop to the nearest matching open tag,
        # ignore stray end tags entirely.
        for i in range(len(self._stack) - 1, 0, -1):
            if self._stack[i].tag == tag:
                del self._stack[i:]
                return

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
