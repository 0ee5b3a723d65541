"""Low-level character scanning shared by the N-Triples, Turtle-subset and
mapping-rule parsers.

This module only knows how to walk text, track line/column positions,
and read the lexical primitives the RDF family of syntaxes share (IRIREF,
quoted strings with escapes, prefixed names, variables, language tags).
The term grammar built on them lives in ``kgforge.rdf``; each parser
owns its statement grammar.
"""

from __future__ import annotations

import re

_ECHAR = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}

_PN_LOCAL_CHAR = re.compile(r"[A-Za-z0-9_\-]")
#: A language tag, as N-Triples, N-Quads and Turtle spell it; ``rdf.Literal``
#: accepts only tags that match it whole.
LANGTAG = re.compile(r"[a-zA-Z]+(?:-[a-zA-Z0-9]+)*")
# Runs of characters that stand for themselves inside an IRIREF or a
# quoted string; the readers consume each run in one match and handle
# only the character that ends it (terminator, escape or illegal).
_IRI_RUN = re.compile(r'[^>\x00-\x20"{}|^`\\]*')
_STRING_RUN = re.compile(r'[^"\\\n\r]*')


class ScanError(ValueError):
    """Malformed input, with a 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class Scanner:
    """Cursor over a text document with position tracking.

    ``error_class`` lets each parser surface its own exception type while
    sharing the position bookkeeping; it must accept ``(message, line,
    column)`` like :class:`ScanError`.
    """

    error_class: type[ScanError] = ScanError

    def __init__(self, text: str, line_offset: int = 0):
        self.text = text
        self.pos = 0
        self._line_offset = line_offset

    # -- position ----------------------------------------------------

    @property
    def line(self) -> int:
        return self._line_offset + self.text.count("\n", 0, self.pos) + 1

    @property
    def column(self) -> int:
        nl = self.text.rfind("\n", 0, self.pos)
        return self.pos - nl

    def error(self, message: str) -> ScanError:
        return self.error_class(message, self.line, self.column)

    # -- basic movement ----------------------------------------------

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.text[i] if i < len(self.text) else ""

    def advance(self, n: int = 1) -> None:
        self.pos += n

    def skip_ws(self, comments: bool = True) -> None:
        """Skip whitespace and, by default, ``#`` comments to end of line."""
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c in " \t\r\n":
                self.pos += 1
            elif comments and c == "#":
                nl = self.text.find("\n", self.pos)
                self.pos = len(self.text) if nl < 0 else nl
            else:
                break

    def try_consume(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.try_consume(literal):
            found = self.peek() or "end of input"
            raise self.error(f"expected {literal!r}, found {found!r}")

    def match_keyword(self, word: str) -> bool:
        """Consume ``word`` case-insensitively when followed by a non-name char."""
        end = self.pos + len(word)
        if self.text[self.pos:end].upper() != word.upper():
            return False
        if end < len(self.text) and (self.text[end].isalnum() or self.text[end] == "_"):
            return False
        self.pos = end
        return True

    # -- shared lexical primitives -------------------------------------

    def read_iriref(self) -> str:
        """Read ``<...>``, decoding \\uXXXX / \\UXXXXXXXX escapes."""
        self.expect("<")
        text = self.text
        out: list[str] = []
        while True:
            end = _IRI_RUN.match(text, self.pos).end()
            if end > self.pos:
                out.append(text[self.pos : end])
                self.pos = end
            if end >= len(text):
                raise self.error("unterminated IRI")
            c = text[end]
            if c == ">":
                self.pos += 1
                return "".join(out)
            if c == "\\":
                out.append(self._read_numeric_escape())
                continue
            raise self.error(f"illegal character {c!r} in IRI")

    def read_string(self) -> str:
        """Read a double-quoted string, decoding ECHAR and numeric escapes."""
        self.expect('"')
        text = self.text
        out: list[str] = []
        while True:
            end = _STRING_RUN.match(text, self.pos).end()
            if end > self.pos:
                out.append(text[self.pos : end])
                self.pos = end
            if end >= len(text):
                raise self.error("unterminated string literal")
            c = text[end]
            if c == '"':
                self.pos += 1
                return "".join(out)
            if c != "\\":  # a line break
                raise self.error("unterminated string literal")
            nxt = self.peek(1)
            if nxt in _ECHAR:
                out.append(_ECHAR[nxt])
                self.pos += 2
                continue
            if nxt in ("u", "U"):
                out.append(self._read_numeric_escape())
                continue
            raise self.error(f"unknown escape sequence \\{nxt}")

    def _read_numeric_escape(self) -> str:
        # positioned at the backslash of \uXXXX or \UXXXXXXXX
        kind = self.peek(1)
        width = 4 if kind == "u" else 8 if kind == "U" else 0
        if not width:
            raise self.error(f"unknown escape sequence \\{kind}")
        digits = self.text[self.pos + 2 : self.pos + 2 + width]
        if len(digits) < width or any(d not in "0123456789abcdefABCDEF" for d in digits):
            raise self.error(f"malformed \\{kind} escape")
        code = int(digits, 16)
        if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:  # no UTF-8 form
            raise self.error(f"\\{kind}{digits} is not a Unicode scalar value")
        self.pos += 2 + width
        return chr(code)

    def read_pname(self) -> tuple[str, str]:
        """Read ``prefix:local``; returns ``(prefix, local)``.

        A ``.`` is included in the local part only when followed by another
        name character, so statement-terminating dots are left alone.
        """
        start = self.pos
        while _PN_LOCAL_CHAR.match(self.peek()):
            self.pos += 1
        prefix = self.text[start : self.pos]
        if self.peek() != ":":
            self.pos = start
            raise self.error("expected prefixed name")
        self.pos += 1
        local_start = self.pos
        while True:
            c = self.peek()
            if _PN_LOCAL_CHAR.match(c):
                self.pos += 1
            elif c == "." and _PN_LOCAL_CHAR.match(self.peek(1)):
                self.pos += 1
            else:
                break
        return prefix, self.text[local_start : self.pos]

    def looks_like_pname(self) -> bool:
        i = self.pos
        while i < len(self.text) and _PN_LOCAL_CHAR.match(self.text[i]):
            i += 1
        return i < len(self.text) and self.text[i] == ":"

    def read_bnode_label(self) -> str:
        self.expect("_:")
        start = self.pos
        while self.peek().isalnum() or self.peek() == "_":
            self.pos += 1
        label = self.text[start : self.pos]
        if not label:
            raise self.error("empty blank node label")
        return label

    def read_var_name(self) -> str:
        self.expect("?")
        start = self.pos
        while self.peek().isalnum() or self.peek() == "_":
            self.pos += 1
        name = self.text[start : self.pos]
        if not name:
            raise self.error("empty variable name")
        return name

    def read_langtag(self) -> str:
        self.expect("@")
        m = LANGTAG.match(self.text, self.pos)
        if not m:
            raise self.error("malformed language tag")
        self.pos = m.end()
        return m.group(0)
