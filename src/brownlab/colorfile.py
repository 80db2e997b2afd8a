"""Coloring file format: a one-line header plus a plain or run-length body.

Header: ``palette <r> length <n> encoding <plain|rle>``, with ``r`` and ``n`` at
most ``LENGTH_CAP``, a size every command holds within 1 GiB of address space.
The body holds whitespace-separated tokens, color indices for ``plain`` and
``<value>x<count>`` tokens for ``rle``.  Encoding and decoding are inverse, byte
for byte on canonical files, and loop over runs and tokens in C.  Decoding reads
a line at a time (a certificate's one-line body 64 tokens at a time), so it
never holds a string per token; it parses each *distinct* token once and sums
the counts before it builds anything.  That one pass rejects a body, a
certificate's and a cache entry's too, at its first token that is malformed, too
long, a zero count, outside the palette or past the length (a file gives its
line and column).  A coloring decoded from a canonical rle file or repeated by
:func:`periodic` keeps its canonical body, which the rle writer and the
certificate reuse through :func:`coloring_rle`.  Files this program writes have
at most ``palette`` distinct plain tokens, or ``palette * sqrt(2 * length)``
distinct rle ones (the distinct counts of one value sum to at most ``length``).
"""

from __future__ import annotations

import re
from itertools import chain, compress, islice, repeat
from operator import add, mul, ne, sub

from .core import Coloring, _natural, _quoted
from .errors import ColoringFileError, InvalidArgumentError

_TOKENS_PER_LINE = 64
LENGTH_CAP = 1 << 23            # 4 times the stage-2 ladder, the longest coloring written
_RLE_TOKEN = re.compile(r"^(\d+)x(\d+)$")
_LINE = re.compile(rf"[^ ]+(?: [^ ]+){{0,{_TOKENS_PER_LINE - 1}}}")   # one line of a body


def _runs(values) -> tuple:
    """``(heads, counts)``: the value and the length of each maximal run."""
    values = tuple(values)
    n = len(values)
    starts = list(compress(range(n), chain((True,), map(ne, islice(values, 1, None), values))))
    return list(map(values.__getitem__, starts)), list(map(sub, starts[1:] + [n], starts))


def rle_string(values) -> str:
    """Space-separated ``<value>x<count>`` tokens of naturals, one per run, canonically."""
    heads, counts = _runs(values)
    base = max(heads, default=0) + 1
    keys = list(map(add, heads, map(mul, counts, repeat(base))))
    spelled = {key: f"{key % base}x{key // base}" for key in set(keys)}
    return " ".join(map(spelled.__getitem__, keys))


def periodic(palette: int, block: tuple, n: int) -> Coloring:
    """The first n positions of ``block`` repeated, their canonical body spelled on the block
    and on the partial tail, then joined: copies that touch must differ where they meet."""
    if n > len(block) and block[:1] == block[-1:]:
        raise InvalidArgumentError("a repeated block must be nonempty and differ at its ends")
    q, rem = divmod(n, len(block) or 1)
    body = [rle_string(block)] * q + ([rle_string(block[:rem])] if rem else [])
    return Coloring(palette=palette, values=block * q + block[:rem], _rle_body=" ".join(body))


def coloring_rle(coloring: Coloring) -> str:
    """The coloring's canonical rle body: the one it keeps, else spelled from its values."""
    return coloring._rle_body or rle_string(coloring.values)


def _parse_token(token: str, rle: bool, palette=None):
    """``(value, count)`` of one body token, or the message that rejects it:
    malformed, too long, a zero count, or a value outside ``palette``, checked in that order."""
    m = _RLE_TOKEN.match(token) if rle else None
    run = (m[1], m[2]) if m else (token, "1") if not rle and token.isdecimal() else None
    if run is None:
        return f"expected {'<value>x<count>' if rle else 'a color index'}, got {_quoted(token)}"
    run = tuple(map(_natural, run))
    if None in run:
        return "number has too many digits"
    if run[1] < 1:
        return "run length must be >= 1"
    if palette is not None and run[0] >= palette:
        return f"value {run[0]} outside palette of size {palette}"
    return run


def _decode_body(chunks: list, rle: bool, length, palette=None) -> tuple:
    """``(values, whether rle_string spells them so)`` of the tokens of ``chunks``, split a
    chunk (a line) at a time, built once the counts sum to ``length``; else ``(message,
    (chunk, column))`` for the first token that is rejected or carries the counts past
    ``length``, or ``(message, None)`` if they fall short or ``length`` is out of range."""
    if type(length) is not int or not 0 <= length <= LENGTH_CAP:
        return f"length must be a natural <= {LENGTH_CAP}", None
    counts, runs = {}, {}
    total = tokens = 0
    for i, chunk in enumerate(chunks):
        line = chunk.split()
        tokens += len(line)
        for token in set(line).difference(counts):       # each distinct token is parsed once
            run = runs[token] = _parse_token(token, rle, palette)
            # a rejected token counts past any length: the running total stops at it
            counts[token] = length + 1 if isinstance(run, str) else run[1]
        count = sum(map(counts.__getitem__, line))
        if total + count > length:
            for token in re.finditer(r"\S+", chunk):
                total += counts[token[0]]
                if total > length:
                    run = runs[token[0]]
                    return (run if isinstance(run, str)
                            else f"body exceeds declared length {length}"), (i, token.start())
        total += count
    if total != length:
        return f"body holds {total} positions but header declares {length}", None
    expansion = {token: (value,) * count for token, (value, count) in runs.items()}
    values = tuple(chain.from_iterable(map(expansion.__getitem__,
                                           chain.from_iterable(map(str.split, chunks)))))
    # each token reads f"{value}x{count}", and no two adjacent ones share a value
    return values, (rle and all(token == f"{v}x{c}" for token, (v, c) in runs.items())
                    and tokens == bool(values) + sum(map(ne, islice(values, 1, None), values)))


def parse_rle_string(text: str, length: int) -> list:
    """The values of ``<value>x<count>`` tokens, whose counts must sum to ``length``;
    a rejected body raises the message a coloring file would carry."""
    values, _ = _decode_body(_LINE.findall(text), True, length)
    if isinstance(values, str):
        raise InvalidArgumentError(values)
    return list(values)


def encode_coloring(coloring: Coloring, encoding: str = "auto") -> str:
    """Serialize a coloring; ``auto`` picks rle at 10**4 positions and beyond."""
    if encoding == "auto":
        encoding = "rle" if coloring.length >= 10_000 else "plain"
    if encoding not in ("plain", "rle"):
        raise InvalidArgumentError(f"unknown encoding {encoding!r}")
    header = f"palette {coloring.palette} length {coloring.length} encoding {encoding}"
    body = coloring_rle(coloring) if encoding == "rle" else " ".join(map(str, coloring.values))
    return "\n".join([header, *_LINE.findall(body)]) + "\n"


def decode_coloring(text: str) -> Coloring:
    """Parse a coloring file; malformed input raises with line and column."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ColoringFileError("missing header line", 1, 1)
    header = lines[0]
    fields = header.split()
    if len(fields) != 6 or fields[0] != "palette" or fields[2] != "length" or fields[4] != "encoding":
        raise ColoringFileError("header must read 'palette <r> length <n> encoding <plain|rle>'",
                                1, 1)
    palette, length, encoding = _natural(fields[1]), _natural(fields[3]), fields[5]
    for name, field, value in (("palette", fields[1], palette), ("length", fields[3], length)):
        if value is None or value > LENGTH_CAP:
            problem = ("must be a natural" if not field.isdecimal() else "has too many digits"
                       if value is None else f"must be a natural <= {LENGTH_CAP}")
            raise ColoringFileError(f"{name} {problem}", 1, header.index(field) + 1)
    if encoding not in ("plain", "rle"):
        raise ColoringFileError(f"unknown encoding {_quoted(encoding)}", 1,
                                header.rindex(encoding) + 1)
    values, detail = _decode_body(lines[1:], encoding == "rle", length, palette)
    if isinstance(values, str):             # no token to blame: the header's length field
        line, column = (-1, header.index(fields[3])) if detail is None else detail
        raise ColoringFileError(values, line + 2, column + 1)
    # the canonical body has one space between tokens, whatever the file's line breaks
    body = " ".join(map(" ".join, filter(None, map(str.split, lines[1:])))) if detail else None
    return Coloring(palette=palette, values=values, _rle_body=body)
