"""Coloring file format: a one-line header plus a plain or run-length body.

Header: ``palette <r> length <n> encoding <plain|rle>``, with ``r`` and ``n`` at
most ``LENGTH_CAP``, a size every command holds within 1 GiB of address space.
The body holds whitespace-separated tokens, color indices for ``plain`` and
``<value>x<count>`` tokens for ``rle``.  Encoding and decoding are inverse,
byte for byte on canonical files, and loop over runs and tokens in C.  Decoding
parses each *distinct* token once and sums the counts before it builds
anything.  That one pass rejects a body, a certificate's and a cache entry's
too, at its first token that is malformed, too long, a zero count, outside the
palette or past the length (a file gives its line and column).  A coloring
decoded from a canonical rle file or repeated by :func:`periodic` keeps its
canonical body, which the rle writer and the certificate reuse through
:func:`coloring_rle`.  Files this program writes have at most ``palette``
distinct plain tokens, or ``palette * sqrt(2 * length)`` distinct rle ones (the
distinct counts of one value sum to at most ``length``).
"""

from __future__ import annotations

import re
from itertools import chain, compress, islice, repeat
from operator import add, eq, mul, ne, sub

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


def _decode_tokens(tokens: list, rle: bool, length, palette=None) -> tuple:
    """``(values iterator, {token: (value, count)})``, built only once the counts sum to
    ``length``, else ``(index, message)`` for the first token that is rejected or carries
    the counts past ``length``, or ``len(tokens)`` when they fall short or ``length`` is
    no natural up to ``LENGTH_CAP``."""
    if type(length) is not int or not 0 <= length <= LENGTH_CAP:
        return len(tokens), f"length must be a natural <= {LENGTH_CAP}"
    runs = {token: _parse_token(token, rle, palette) for token in set(tokens)}
    # a rejected token counts past any length: the sum misses, the running total stops at it
    counts = {token: length + 1 if isinstance(run, str) else run[1] for token, run in runs.items()}
    if sum(map(counts.__getitem__, tokens)) == length:
        expansion = {token: (value,) * count for token, (value, count) in runs.items()}
        return chain.from_iterable(map(expansion.__getitem__, tokens)), runs
    total = 0
    for index, count in enumerate(map(counts.__getitem__, tokens)):
        total += count
        if total > length:
            run = runs[tokens[index]]
            return index, run if isinstance(run, str) else f"body exceeds declared length {length}"
    return len(tokens), f"body holds {total} positions but header declares {length}"


def _canonical_body(tokens: list, runs: dict):
    """The body of rle tokens that spell their values as :func:`rle_string` does (each
    token reads ``f"{value}x{count}"`` and no two adjacent ones share a value), else None."""
    if any(token != f"{value}x{count}" for token, (value, count) in runs.items()):
        return None
    heads = list(map({token: v for token, (v, _) in runs.items()}.__getitem__, tokens))
    return None if any(map(eq, islice(heads, 1, None), heads)) else " ".join(tokens)


def parse_rle_string(text: str, length: int) -> list:
    """The values of ``<value>x<count>`` tokens, whose counts must sum to ``length``;
    a rejected body raises the message a coloring file would carry."""
    decoded, runs = _decode_tokens(text.split(), True, length)
    if isinstance(runs, str):
        raise InvalidArgumentError(runs)
    return list(decoded)


def encode_coloring(coloring: Coloring, encoding: str = "auto") -> str:
    """Serialize a coloring; ``auto`` picks rle at 10**4 positions and beyond."""
    if encoding == "auto":
        encoding = "rle" if coloring.length >= 10_000 else "plain"
    if encoding not in ("plain", "rle"):
        raise InvalidArgumentError(f"unknown encoding {encoding!r}")
    header = f"palette {coloring.palette} length {coloring.length} encoding {encoding}"
    body = coloring_rle(coloring) if encoding == "rle" else " ".join(map(str, coloring.values))
    return "\n".join([header, *_LINE.findall(body)]) + "\n"


def _position(lines: list, index: int, length_column: int) -> tuple:
    """``(line, column)`` of body token ``index``; past the last, the header's length."""
    for lineno, line in enumerate(lines[1:], start=2):
        starts = [match.start() for match in re.finditer(r"\S+", line)]
        if index < len(starts):
            return lineno, starts[index] + 1
        index -= len(starts)
    return 1, length_column


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
    # line breaks are whitespace, so the header is the first six tokens
    tokens = text.split()
    del tokens[:6]                  # in place, so the token list is not copied
    decoded, runs = _decode_tokens(tokens, encoding == "rle", length, palette)
    if isinstance(runs, str):
        raise ColoringFileError(runs, *_position(lines, decoded, header.index(fields[3]) + 1))
    return Coloring(palette=palette, values=tuple(decoded),     # the values first: a lower peak
                    _rle_body=_canonical_body(tokens, runs) if encoding == "rle" else None)
