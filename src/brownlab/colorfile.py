"""Coloring file format: a one-line header plus a plain or run-length body.

Header: ``palette <r> length <n> encoding <plain|rle>``, with ``r`` and ``n`` at
most ``LENGTH_CAP``, a size every command holds within 1 GiB of address space.
The body holds whitespace-separated tokens, color indices for ``plain`` and
``<value>x<count>`` tokens for ``rle``.  Encoding and decoding are inverse, byte
for byte on canonical files, and loop over runs and tokens in C.  Decoding splits
each line once (a certificate's one-line body 64 tokens at a time), so it never
holds a string per token.  It parses each *distinct* token once and sums a
line's counts against the length before it packs the line's values into one
buffer of the narrowest typecode that holds the palette; the values tuple is read
back from that buffer last, one int object per value.  That one pass rejects a
body, a certificate's and a cache entry's too, at its first token that is
malformed, too long, a zero count, outside the palette, wider than 64 bits or
past the length (a file gives its line and column).  A canonical body, one whose
tokens read ``f"{value}x{count}"`` with no two neighbours of one value, is joined
from the lines as they are split.  A line equal to the one before it (nearly every line
of a file built by repetition) is not split again, and a run of equal lines is kept as
one segment of copies; only the line before is held.  A coloring decoded from a file or
certificate, or repeated by :func:`periodic`, keeps its segments, which the checker
folds, and its canonical rle body if it has one, which the rle writer and the certificate
reuse through :func:`coloring_rle`.  Files this program writes have
at most ``palette`` distinct plain tokens, or ``palette * sqrt(2 * length)``
distinct rle ones (the distinct counts of one value sum to at most ``length``).
"""

from __future__ import annotations

import re
import sys
from array import array
from itertools import chain, compress, islice, repeat
from operator import add, eq, mul, ne, sub

from .core import Coloring, _natural, _quoted
from .errors import ColoringFileError, InvalidArgumentError

_TOKENS_PER_LINE = 64
LENGTH_CAP = 1 << 23            # 4 times the stage-2 ladder, the longest coloring written
_RLE_TOKEN = re.compile(r"^(\d+)x(\d+)$")
# (typecode, bytes a value) of each packing, narrowest first; a wider value is refused
_PACKINGS = tuple((code, array(code).itemsize) for code in "BHIQ")
_WIDEST = 1 << 8 * _PACKINGS[-1][1]
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
    return Coloring(palette=palette, values=block * q + block[:rem], _rle_body=" ".join(body),
                    _segments=tuple((p, k) for p, k in ((len(block), q), (rem, 1)) if p and k))


def coloring_rle(coloring: Coloring) -> str:
    """The coloring's canonical rle body: the one it keeps, else spelled from its values."""
    return coloring._rle_body or rle_string(coloring.values)


def _parse_token(token: str, rle: bool, palette=None):
    """``(value, count)`` of one body token, or the message that rejects it: malformed,
    too long, a zero count, a value outside ``palette`` or too wide to pack, in that order."""
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
    if run[0] >= _WIDEST:
        return f"value {run[0]} does not fit {_WIDEST.bit_length() - 1} bits"
    return run


def _decode_body(chunks: list, rle: bool, length, palette=None, text=None) -> tuple:
    """``(values, canonical body or None, segments)`` of the tokens of ``chunks``, else
    ``(message, (chunk, column), None)`` for the first token that is rejected or carries the
    counts past ``length``, or ``(message, None, None)`` if they fall short or ``length`` is
    out of range.

    Each chunk (a line) is split once and dropped from ``chunks``.  Its new distinct tokens
    are parsed, its counts summed against ``length``, and only then are its values packed,
    in the narrowest typecode that holds the palette.  A line equal to the one before is not
    split again: it reuses that line's count, packed bytes, end values and spelling, and only
    its total and the values where it meets the line before are checked.  Only the line
    before is held, so a body with no repeated line costs one string compare a line more.
    The segments are ``(positions, copies)`` pairs: a run of k equal lines is one segment of
    k copies, and neighbouring lines that do not repeat are one segment of 1 copy.
    The body is canonical when every token reads ``f"{value}x{count}"`` and no two
    neighbours share a value; it is then joined from the lines, one space between tokens,
    and is ``text`` itself if that reads the same.  Last, the packed lines are joined into
    one buffer and the values tuple is read back from it, one int object per value."""
    if type(length) is not int or not 0 <= length <= LENGTH_CAP:
        return f"length must be a natural <= {LENGTH_CAP}", None, None
    wide = _WIDEST if palette is None else min(palette, _WIDEST)
    code, size = next((code, size) for code, size in _PACKINGS if 1 << 8 * size >= wide)
    counts, runs, blocks, heads, ints = {}, {}, {}, {}, {}
    packed, lines = [], []                  # each line's packed values; canonical lines
    sizes, copies = [0], [1]                # each segment's positions and copies: no list each
    total, canonical, last, prev, first, end = 0, rle, None, None, None, None
    for i, chunk in enumerate(chunks):
        chunks[i] = None                    # a line is held once: by the body if canonical
        fresh = chunk != prev               # a line equal to the one before is decoded once
        if fresh:
            line = chunk.split()
            if not line:
                continue
            try:
                count, new = sum(map(counts.__getitem__, line)), ()
            except KeyError:                    # each distinct token is parsed once
                new = set(line).difference(counts)
                for token in new:
                    run = runs[token] = _parse_token(token, rle, palette)
                    # a rejected token counts past any length: the running total stops at it
                    counts[token] = length + 1 if isinstance(run, str) else run[1]
                count = sum(map(counts.__getitem__, line))
        if total + count > length:
            for token in re.finditer(r"\S+", chunk):
                total += counts[token[0]]
                if total > length:
                    run = runs[token[0]]
                    return (run if isinstance(run, str) else
                            f"body exceeds declared length {length}"), (i, token.start()), None
        total += count
        if fresh:
            prev = chunk
            if copies[-1] > 1:              # after copies, fresh lines start a segment
                sizes.append(0)
                copies.append(1)
            sizes[-1] += count
            for token in new:
                value, reps = runs[token]
                value = heads[token] = ints.setdefault(value, value)
                blocks[token] = value.to_bytes(size, sys.byteorder) * reps
                canonical = canonical and token == f"{value}x{reps}"
            block = b"".join(map(blocks.__getitem__, line))
            if canonical:
                values = list(map(heads.__getitem__, line))
                canonical = not any(map(eq, values[1:], values))
                first, end, joined = values[0], values[-1], " ".join(line)
                joined = chunk if chunk == joined else joined
        elif copies[-1] > 1:                # one more copy of the line before
            copies[-1] += 1
        else:                               # the line before leaves its segment for its copies
            sizes[-1] -= count
            sizes.append(count)
            copies.append(2)
        # a copy of a line breaks canonicity where it meets the copy before it, if at all
        canonical = canonical and first != last
        last = end
        packed.append(block)
        if canonical:
            lines.append(joined)
    if total != length:
        return f"body holds {total} positions but header declares {length}", None, None
    body = " ".join(lines) if canonical else None
    body = text if body == text else body   # a certificate's body is held once
    segments = tuple((p, k) for p, k in zip(sizes, copies) if p)
    del lines, blocks, sizes, copies        # freed before the tuple is built
    # one buffer, allocated once at its size; a value below 256 is a shared small int already
    packed = memoryview(b"".join(packed)).cast(code)
    values = tuple(packed) if code == "B" else tuple(map(ints.__getitem__, packed))
    return values, body, segments


def parse_rle_string(text: str, length: int, palette=None) -> tuple:
    """``(values, canonical body or None, segments)`` of ``<value>x<count>`` tokens, whose
    counts must sum to ``length`` and whose values must lie below ``palette``; a rejected
    body raises the message a coloring file would carry."""
    values, body, segments = _decode_body(_LINE.findall(text), True, length, palette, text)
    if isinstance(values, str):
        raise InvalidArgumentError(values)
    return values, body, segments


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
    del lines[0]                            # the decoder takes the body lines over
    values, detail, segments = _decode_body(lines, encoding == "rle", length, palette)
    if isinstance(values, str):             # no token to blame: the header's length field
        line, column = (-1, header.index(fields[3])) if detail is None else detail
        raise ColoringFileError(values, line + 2, column + 1)
    return Coloring(palette=palette, values=values, _rle_body=detail, _segments=segments)
