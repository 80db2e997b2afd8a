import json
import random
import re
import tracemalloc
from itertools import chain, cycle, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brownlab import colorfile
from brownlab.checker import WitnessCertificate, is_witness
from brownlab.colorfile import (LENGTH_CAP, decode_coloring, encode_coloring,
                                parse_rle_string, periodic, rle_string)
from brownlab.constructions import diag_prefix, ladder
from brownlab.core import Coloring, parse_growth_spec
from brownlab.errors import ColoringFileError, InvalidArgumentError


def test_rle_pairs_round_trip():
    values = [0, 0, 1, 1, 1, 0, 2]
    assert rle_string(values) == "0x2 1x3 0x1 2x1"
    assert parse_rle_string(rle_string(values), len(values)) == (tuple(values), "0x2 1x3 0x1 2x1")
    assert rle_string(iter(values)) == rle_string(values)
    assert rle_string([]) == ""
    assert parse_rle_string("", 0) == ((), "")


def test_rle_rejects_zero_counts():
    with pytest.raises(InvalidArgumentError):
        parse_rle_string("0x0", 1)


@pytest.mark.parametrize("encoding", ["plain", "rle"])
def test_encode_decode_identity(encoding):
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(0, 300)
        c = Coloring(4, tuple(rng.randrange(4) for _ in range(n)))
        text = encode_coloring(c, encoding)
        assert decode_coloring(text) == c
        # canonical files re-encode byte-identically
        assert encode_coloring(decode_coloring(text), encoding) == text


def test_auto_encoding_switches_at_ten_thousand():
    small = encode_coloring(Coloring(2, (0,) * 9_999))
    assert "encoding plain" in small.splitlines()[0]
    big = encode_coloring(Coloring(2, (0,) * 10_000))
    assert "encoding rle" in big.splitlines()[0]
    assert decode_coloring(big).length == 10_000


def test_empty_coloring_round_trips():
    c = Coloring(3, ())
    for encoding in ("plain", "rle"):
        assert decode_coloring(encode_coloring(c, encoding)) == c


def test_decode_tolerates_whitespace_layout():
    c = decode_coloring("palette 2 length 5 encoding plain\n0 1\n\n  1 0\t1\n")
    assert c.values == (0, 1, 1, 0, 1)


@pytest.mark.parametrize("text,line,column", [
    ("", 1, 1),
    ("palette x length 3 encoding plain\n0 0 0\n", 1, 9),
    ("palette 2 size 3 encoding plain\n0 0 0\n", 1, 1),
    ("palette 2 length 3 encoding zip\n0 0 0\n", 1, 29),
    ("palette 2 length 3 encoding plain\n0 a 0\n", 2, 3),
    ("palette 2 length 3 encoding plain\n0 0 2\n", 2, 5),
    ("palette 2 length 3 encoding rle\n0x2 1x0\n", 2, 5),
    ("palette 2 length 3 encoding rle\n0x2 oops\n", 2, 5),
    ("palette 2 length 3 encoding plain\n0 0 0 0\n", 2, 7),
    ("palette 2 length 3 encoding plain\n0 0\n", 1, 18),
    ("palette 2 length 1 encoding plain\n\u00b2\n", 2, 1),
    ("palette \u00b2 length 1 encoding plain\n0\n", 1, 9),
])
def test_malformed_files_report_line_and_column(text, line, column):
    with pytest.raises(ColoringFileError) as err:
        decode_coloring(text)
    assert (err.value.line, err.value.column) == (line, column)


# 5,000 digits: more than Python's int() converts by default (4,300)
LONG = "0" * 5000


@pytest.mark.parametrize("text,line,column", [
    (f"palette 2 length 1 encoding plain\n{LONG}\n", 2, 1),
    (f"palette 2 length 2 encoding rle\n0x1 1x{LONG}1\n", 2, 5),
    (f"palette 2 length 2 encoding rle\n0x1 {LONG}1x1\n", 2, 5),
    (f"palette {LONG}2 length 1 encoding plain\n0\n", 1, 9),
    (f"palette 2 length {LONG}1 encoding plain\n0\n", 1, 18),
], ids=["body token", "rle count", "rle value", "palette", "length"])
def test_numbers_too_long_to_convert_are_rejected_at_their_column(text, line, column):
    with pytest.raises(ColoringFileError, match="too many digits") as err:
        decode_coloring(text)
    assert (err.value.line, err.value.column) == (line, column)


def test_numbers_too_long_to_convert_in_rle_strings_are_invalid_arguments():
    with pytest.raises(InvalidArgumentError, match="too many digits"):
        parse_rle_string(f"0x{LONG}1", 1)
    doc = json.dumps({"palette": 1, "length": 1, "growth": "exp2",
                      "coloring_rle": f"0x{LONG}1", "classes": [[[1, 1, 2]]]})
    with pytest.raises(InvalidArgumentError, match="too many digits"):
        WitnessCertificate.from_json(doc)


def test_value_at_palette_boundary_is_rejected():
    with pytest.raises(ColoringFileError):
        decode_coloring("palette 1 length 2 encoding rle\n1x2\n")


@pytest.mark.parametrize("build", [lambda: ladder(0).coloring, lambda: ladder(1).coloring,
                                   lambda: ladder(2).coloring, lambda: diag_prefix(3, 20_000),
                                   lambda: diag_prefix(1, 7), lambda: diag_prefix(4, 0)],
                         ids=["ladder-0", "ladder-1", "ladder-2", "diag-long", "diag-short",
                              "diag-empty"])
def test_a_kept_body_encodes_as_the_values_do(build):
    kept = build()
    assert kept._rle_body is not None
    rebuilt = Coloring(kept.palette, kept.values)
    for encoding in ("plain", "rle", "auto"):
        assert encode_coloring(kept, encoding) == encode_coloring(rebuilt, encoding)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=8).map(tuple), st.integers(0, 40))
@example((), 0)
@example((), 1)
@example((0, 1, 0), 4)
@example((0, 0), 2)
@example((0, 1, 1), 3)
def test_periodic_repeats_its_block_and_keeps_its_canonical_body(block, n):
    if n > len(block) and (not block or block[0] == block[-1]):
        # there is no block to copy, or two copies would touch with equal values
        with pytest.raises(InvalidArgumentError, match="repeated block"):
            periodic(4, block, n)
        return
    coloring = periodic(4, block, n)
    assert coloring.values == tuple(islice(cycle(block), n))
    assert coloring._rle_body == rle_string(coloring.values)


def test_a_decoded_canonical_file_is_written_from_its_kept_body(monkeypatch):
    text = encode_coloring(Coloring(3, (0, 0, 2) * 100), "rle")
    decoded = decode_coloring(text)

    def rescan(values):
        raise AssertionError("the writer re-found the runs of a kept body")

    monkeypatch.setattr(colorfile, "_runs", rescan)
    assert encode_coloring(decoded, "rle") == text


def test_a_non_canonical_file_re_encodes_canonically():
    decoded = decode_coloring("palette 1 length 2 encoding rle\n0x1 0x1\n")
    assert decoded._rle_body is None
    assert encode_coloring(decoded, "rle") == "palette 1 length 2 encoding rle\n0x2\n"


def test_stage_two_ladder_file_round_trips():
    stage = ladder(2)
    text = encode_coloring(stage.coloring)       # auto picks rle at this size
    assert text.splitlines()[0] == "palette 4 length 2097152 encoding rle"
    decoded = decode_coloring(text)
    assert decoded.values == stage.coloring.values
    assert encode_coloring(decoded) == text


# ---------------------------------------------------------------------------
# the codec against a per-token, per-element reference
# ---------------------------------------------------------------------------
#
# The reference is the straightforward codec: one run at a time when
# encoding, one regex match and one list extension per token when decoding.
# Color indices are tested with ``isdecimal``, the character class of the
# rle pattern's ``\d``.


def _ref_rle_encode(values):
    pairs = []
    for v in values:
        if pairs and pairs[-1][0] == v:
            pairs[-1] = (v, pairs[-1][1] + 1)
        else:
            pairs.append((v, 1))
    return pairs


def _ref_encode(coloring, encoding):
    header = f"palette {coloring.palette} length {coloring.length} encoding {encoding}"
    if encoding == "plain":
        tokens = [str(v) for v in coloring.values]
    else:
        tokens = [f"{v}x{c}" for v, c in _ref_rle_encode(coloring.values)]
    lines = [header]
    for i in range(0, len(tokens), 64):
        lines.append(" ".join(tokens[i:i + 64]))
    return "\n".join(lines) + "\n"


def _ref_decode(text):
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ColoringFileError("missing header line", 1, 1)
    header = lines[0]
    fields = header.split()
    if fields[::2] != ["palette", "length", "encoding"] or len(fields) != 6:
        raise ColoringFileError("header must read 'palette <r> length <n> encoding <plain|rle>'",
                                1, 1)
    if not fields[1].isdecimal():
        raise ColoringFileError("palette must be a natural", 1, header.index(fields[1]) + 1)
    if not fields[3].isdecimal():
        raise ColoringFileError("length must be a natural", 1, header.index(fields[3]) + 1)
    palette, length, encoding = int(fields[1]), int(fields[3]), fields[5]
    if encoding not in ("plain", "rle"):
        raise ColoringFileError(f"unknown encoding {encoding!r}", 1, header.rindex(encoding) + 1)
    values, runs = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        for match in re.finditer(r"\S+", line):
            token, column = match.group(0), match.start() + 1
            if encoding == "plain":
                if not token.isdecimal():
                    raise ColoringFileError(f"expected a color index, got {token!r}",
                                            lineno, column)
                value, count = int(token), 1
            else:
                m = re.match(r"^(\d+)x(\d+)$", token)
                if not m:
                    raise ColoringFileError(f"expected <value>x<count>, got {token!r}",
                                            lineno, column)
                value, count = int(m.group(1)), int(m.group(2))
                if count < 1:
                    raise ColoringFileError("run length must be >= 1", lineno, column)
            if value >= palette:
                raise ColoringFileError(f"value {value} outside palette of size {palette}",
                                        lineno, column)
            values.extend([value] * count)
            runs.append((token, value, count))
            if len(values) > length:
                raise ColoringFileError(f"body exceeds declared length {length}", lineno, column)
    if len(values) != length:
        raise ColoringFileError(f"body holds {len(values)} positions but header declares {length}",
                                1, header.index(fields[3]) + 1)
    # canonical: each token spelled f"{value}x{count}", no two neighbours of one value
    canonical = encoding == "rle" and all(t == f"{v}x{c}" for t, v, c in runs) \
        and all(a[1] != b[1] for a, b in zip(runs, runs[1:]))
    return Coloring(palette=palette, values=tuple(values),
                    _rle_body=" ".join(t for t, _, _ in runs) if canonical else None)


def _runs_coloring(palette, runs):
    return Coloring(palette, tuple(chain.from_iterable([v] * c for v, c in runs)))


@st.composite
def _colorings(draw, max_palette=300, max_count=2_000):
    palette = draw(st.integers(1, max_palette))
    count = st.one_of(st.integers(1, 3), st.integers(1, max_count))
    runs = draw(st.lists(st.tuples(st.integers(0, palette - 1), count), max_size=20))
    return _runs_coloring(palette, runs)


@settings(max_examples=150, deadline=None)
@given(_colorings())
@example(Coloring(1, ()))
@example(Coloring(300, ()))
@example(Coloring(1, (0,)))
@example(Coloring(1, (0,) * 70_000))
@example(Coloring(300, tuple(range(300)) * 3))
def test_encoders_match_the_reference(coloring):
    values = coloring.values
    assert rle_string(values) == " ".join(f"{v}x{c}" for v, c in _ref_rle_encode(values))
    assert parse_rle_string(rle_string(values), coloring.length) == (values, rle_string(values))
    for encoding in ("plain", "rle"):
        assert encode_coloring(coloring, encoding) == _ref_encode(coloring, encoding)


_BAD_TOKENS = ("a", "x", "1x", "x1", "1y2", "-1", "+1", "1x-2", "0x0x1", "1.0",
               "\u00b2", "1x\u00b2", "\u0663", "1x\u0663")
_SEPARATORS = (" ", "  ", "\t", "\n", "\r\n", "\r", "\x0c", "\x0b", "\x1c", "\x85",
               "\u2028", " \n ")
_MUTATIONS = ("bad", "zero", "palette", "zeros", "dup", "drop", "length", "repeat")
# what a repeated line's copies are joined by: line ends, a blank line, a line of blanks
_COPY_GAPS = ("\n", "\r\n", "\n\n", "\r\n\r\n", "\n \t\n")


@st.composite
def _mutated_files(draw):
    coloring = draw(_colorings(max_palette=12, max_count=6))
    encoding = draw(st.sampled_from(["plain", "rle"]))
    header, body = encode_coloring(coloring, encoding).split("\n", 1)
    fields = header.split()
    tokens = body.split()
    kinds = draw(st.lists(st.sampled_from(_MUTATIONS), max_size=4))
    for kind in kinds:
        i = draw(st.integers(0, len(tokens)))
        token = tokens[i] if i < len(tokens) else "0x1" if encoding == "rle" else "0"
        if kind == "bad":
            tokens.insert(i, draw(st.sampled_from(_BAD_TOKENS)))
        elif kind == "zero":
            tokens.insert(i, token.split("x")[0] + "x0")
        elif kind == "palette":
            value = coloring.palette + draw(st.integers(0, 2))
            tokens.insert(i, f"{value}x1" if encoding == "rle" else str(value))
        elif kind == "zeros":
            tokens[i:i + 1] = ["0" + token.replace("x", "x0" * draw(st.booleans()))]
        elif kind == "dup":
            tokens.insert(i, token)
        elif kind == "drop":
            del tokens[i:i + 1]
        elif kind == "length":
            fields[3] = str(max(0, coloring.length + draw(st.integers(-3, 3))))
    separators = draw(st.lists(st.sampled_from(_SEPARATORS),
                               min_size=len(tokens), max_size=len(tokens)))
    tail = draw(st.sampled_from(["", "\n", "\r\n", " \t"]))
    body = "".join(chain.from_iterable(zip(tokens, separators))) + tail
    # a line, bad tokens and all, copied a few times: a later copy may pass the length
    for _ in range(kinds.count("repeat")):
        lines = body.splitlines(keepends=True) or [""]
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i].splitlines()[0] if lines[i] else ""
        copies = draw(st.integers(2, 5))
        lines[i] = draw(st.sampled_from(_COPY_GAPS)).join([line] * copies) + lines[i][len(line):]
        body = "".join(lines)
    return " ".join(fields) + "\n" + body


def _outcome(decode, text):
    try:
        coloring = decode(text)
        return coloring, coloring._rle_body
    except ColoringFileError as exc:
        return str(exc), exc.line, exc.column


@settings(max_examples=400, deadline=None)
@given(_mutated_files())
@example("palette 2 length 3 encoding rle\n0x1 a 1x0 9x1\n")
@example("palette 2 length 3 encoding plain\n0\r1\t\x0c0 0 b\n")
@example("palette 2 length 2 encoding rle\n0x1\x0c1x5 zz\n")
@example("palette 3 length 4 encoding rle\n00x02 1x1\r\n2x01\n")
@example("palette 2 length 5 encoding plain\n0 1\n")
@example("palette 4 length 3 encoding plain\n0 \u0663 \u00b2\n")
@example("palette 2 length 5 encoding rle\n0x1 1x1\n0x1 1x1\n0x1 1x1\n")
@example("palette 2 length 6 encoding rle\n0x1 1x1 0x1\n0x1 1x1 0x1\n")
@example("palette 2 length 4 encoding rle\n0x1 1x1\n\n0x1 1x1\n")
@example("palette 3 length 9 encoding rle\n0x1 a 2x1\r\n0x1 a 2x1\r\n")
def test_decoder_matches_the_reference(text):
    assert _outcome(decode_coloring, text) == _outcome(_ref_decode, text)


# a copy of a line is canonical only where it differs from the copy before it
@pytest.mark.parametrize("text,values,body", [
    ("palette 2 length 6 encoding rle\n0x1 1x1 0x1\n0x1 1x1 0x1\n", (0, 1, 0, 0, 1, 0), None),
    ("palette 2 length 4 encoding rle\n0x1 1x1\n\n0x1 1x1\n", (0, 1, 0, 1), "0x1 1x1 0x1 1x1"),
    ("palette 2 length 6 encoding rle\n0x1 1x1\r\n0x1 1x1\r\n0x1 1x1", (0, 1) * 3,
     "0x1 1x1 0x1 1x1 0x1 1x1"),
    ("palette 2 length 4 encoding rle\n0x1 1x01\n0x1 1x01\n", (0, 1, 0, 1), None),
], ids=["copies-meet-on-one-value", "blank-line-between", "crlf", "non-canonical-spelling"])
def test_a_repeated_line_keeps_the_body_only_if_canonical(text, values, body):
    decoded = decode_coloring(text)
    assert decoded.values == values
    assert decoded._rle_body == body


def test_an_overflowing_copy_is_blamed_at_its_token():
    with pytest.raises(ColoringFileError, match="exceeds declared length 5") as err:
        decode_coloring("palette 2 length 5 encoding rle\n0x1 1x1\n0x1 1x1\n0x1 1x1\n")
    assert (err.value.line, err.value.column) == (4, 5)


_SPELLINGS = ("canonical", "split", "zero value", "zero count")


@st.composite
def _rle_spellings(draw):
    """``(coloring, rle file, canonical)``: a file spelling the coloring's runs
    canonically, or with some runs split in two or spelled with leading zeros."""
    coloring = draw(_colorings(max_palette=12, max_count=6))
    plain = draw(st.booleans())
    tokens, canonical = [], True
    for v, c in _ref_rle_encode(coloring.values):
        spelling = "canonical" if plain else draw(st.sampled_from(_SPELLINGS))
        if spelling == "split" and c > 1:
            a = draw(st.integers(1, c - 1))
            tokens += [f"{v}x{a}", f"{v}x{c - a}"]
        elif spelling == "zero value":
            tokens.append(f"0{v}x{c}")
        elif spelling == "zero count":
            tokens.append(f"{v}x0{c}")
        else:
            tokens.append(f"{v}x{c}")
            continue
        canonical = False
    separators = draw(st.lists(st.sampled_from([" ", "\n", "  "]),
                               min_size=len(tokens), max_size=len(tokens)))
    body = "".join(chain.from_iterable(zip(tokens, separators)))
    header = f"palette {coloring.palette} length {coloring.length} encoding rle"
    return coloring, header + "\n" + body, canonical


@settings(max_examples=300, deadline=None)
@given(_rle_spellings())
@example((Coloring(3, (1, 1, 2)), "palette 3 length 3 encoding rle\n1x2 2x1", True))
@example((Coloring(3, (1, 1, 2)), "palette 3 length 3 encoding rle\n1x1 1x1 2x1", False))
@example((Coloring(3, (1, 1, 2)), "palette 3 length 3 encoding rle\n01x2 2x1", False))
@example((Coloring(3, (1, 1, 2)), "palette 3 length 3 encoding rle\n1x2 2x01", False))
@example((Coloring(3, (0, 0)), "palette 3 length 2 encoding rle\n0x02", False))
@example((Coloring(3, ()), "palette 3 length 0 encoding rle\n", True))
def test_certificate_reuses_only_a_canonical_body(case):
    coloring, text, canonical = case
    decoded = decode_coloring(text)
    assert decoded == coloring
    assert decoded._rle_body == (rle_string(coloring.values) if canonical else None)
    cert = WitnessCertificate(coloring=decoded, growth_spec="linear:1", per_class=())
    assert json.loads(cert.to_json())["coloring_rle"] == rle_string(coloring.values)


# ---------------------------------------------------------------------------
# run counts are bounded before anything is allocated
# ---------------------------------------------------------------------------

HUGE_RUN = "0x10000000"          # ten million positions


def _peak_bytes(action):
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decoding_the_stage_two_ladder_file_holds_no_string_per_token():
    text = encode_coloring(ladder(2).coloring)      # 1,048,576 tokens on 16,384 lines
    decoded = []
    peak = _peak_bytes(lambda: decoded.append(decode_coloring(text)))
    assert decoded[0].values == ladder(2).coloring.values
    # the values tuple is 16.8 MB; a list of the tokens held 97.5 MB
    assert peak < 40_000_000


def test_a_loaded_ladder_certificate_keeps_its_body():
    text = is_witness(ladder(2).coloring, parse_growth_spec("exp2")).to_json()
    loaded = []
    peak = _peak_bytes(lambda: loaded.append(WitnessCertificate.from_json(text)))
    assert loaded[0].coloring._rle_body is not None
    assert loaded[0].to_json() == text
    # the values tuple is 16.8 MB and the body 4.2 MB; a second body or a list of the
    # values went past 27 MB
    assert peak < 25_000_000


def test_a_line_past_the_length_is_rejected_before_it_is_packed():
    # 64 distinct runs of about a million positions each: every count fits the
    # length, the line's sum does not, so nothing of the line is packed
    tokens = [f"0x{1_000_000 + k}" for k in range(64)]
    text = f"palette 1 length {LENGTH_CAP} encoding rle\n{' '.join(tokens)}\n"
    over = next(i for i in range(64) if sum(1_000_000 + k for k in range(i + 1)) > LENGTH_CAP)

    def decode():
        with pytest.raises(ColoringFileError, match=f"exceeds declared length {LENGTH_CAP}") as err:
            decode_coloring(text)
        column = sum(len(token) + 1 for token in tokens[:over]) + 1
        assert (err.value.line, err.value.column) == (2, column)
    assert _peak_bytes(decode) < 1_000_000


@pytest.mark.parametrize("runs", [((999, 1_000_000),), ((998, 1), (999, 1)) * 500_000],
                         ids=["one-run", "alternating"])
def test_a_wide_palette_decodes_to_one_int_per_value(runs):
    values = _runs_coloring(1000, runs).values
    text = encode_coloring(Coloring(1000, values), "rle")
    decoded = []
    peak = _peak_bytes(lambda: decoded.append(decode_coloring(text)))
    assert decoded[0].values == values
    assert len(set(map(id, decoded[0].values))) == len({value for value, _ in runs})
    # the values tuple is 8 MB; a new int per position would add 32 MB
    assert peak < 20_000_000


@pytest.mark.parametrize("body,palette,message", [
    (f"{1 << 64}x1", None, "does not fit 64 bits"),
    (f"{1 << 65}x1", 1 << 70, "does not fit 64 bits"),
    (f"{(1 << 64) - 1}x1", None, None),
    (f"{1 << 65}x1", 2, "outside palette of size 2"),
], ids=["no-palette", "wider-palette", "widest-value", "narrow-palette"])
def test_a_value_too_wide_to_pack_is_rejected(body, palette, message):
    if message is None:
        assert parse_rle_string(body, 1, palette) == (((1 << 64) - 1,), body)
        return
    with pytest.raises(InvalidArgumentError, match=message):
        parse_rle_string(body, 1, palette)


def test_a_certificate_value_past_its_palette_is_rejected():
    doc = json.dumps({"palette": 2, "length": 1, "growth": "exp2",
                      "coloring_rle": f"{1 << 65}x1", "classes": [[[1, 1, 2]], []]})
    with pytest.raises(InvalidArgumentError, match="outside palette of size 2"):
        WitnessCertificate.from_json(doc)


def test_huge_run_in_a_file_is_rejected_before_allocation():
    def decode():
        with pytest.raises(ColoringFileError) as err:
            decode_coloring(f"palette 1 length 1 encoding rle\n{HUGE_RUN}\n")
        assert (err.value.line, err.value.column) == (2, 1)
        assert "exceeds declared length 1" in str(err.value)
    assert _peak_bytes(decode) < 1_000_000


@pytest.mark.parametrize("length", [1, None])
def test_huge_run_in_a_certificate_is_rejected_before_allocation(length):
    doc = json.dumps({"palette": 1, "length": length, "growth": "exp2",
                      "coloring_rle": HUGE_RUN, "classes": [[[1, 1, 2]]]})

    def load():
        with pytest.raises(InvalidArgumentError):
            WitnessCertificate.from_json(doc)
    assert _peak_bytes(load) < 1_000_000


# 54 bytes declaring a billion positions, which its one run fills
HUGE_LENGTH_FILE = "palette 1 length 1000000000 encoding rle\n0x1000000000\n"
LENGTH_MESSAGE = f"length must be a natural <= {LENGTH_CAP}"


def test_huge_declared_length_in_a_file_is_rejected_at_the_header():
    assert len(HUGE_LENGTH_FILE) == 54

    def decode():
        with pytest.raises(ColoringFileError, match=LENGTH_MESSAGE) as err:
            decode_coloring(HUGE_LENGTH_FILE)
        assert (err.value.line, err.value.column) == (1, 18)
    assert _peak_bytes(decode) < 1_000_000


@pytest.mark.parametrize("length", [1_000_000_000, LENGTH_CAP + 1, 4 * LENGTH_CAP + 1,
                                    -1, None, True, 1.0, "1"])
def test_certificate_length_must_be_a_natural_up_to_the_cap(length):
    doc = json.dumps({"palette": 1, "length": length, "growth": "exp2",
                      "coloring_rle": "0x1000000000", "classes": [[[1, 1, 2]]]})

    def load():
        with pytest.raises(InvalidArgumentError, match=LENGTH_MESSAGE):
            WitnessCertificate.from_json(doc)
    assert _peak_bytes(load) < 1_000_000


@pytest.mark.parametrize("palette", [1_000_000_000, LENGTH_CAP + 1])
def test_certificate_palette_must_be_a_natural_up_to_the_cap(palette):
    # verify_certificate scans one class per palette color
    doc = {"palette": palette, "length": 1, "growth": "exp2", "coloring_rle": "0x1",
           "classes": [[[1, 1, 2]]]}
    with pytest.raises(InvalidArgumentError, match=f"palette must be a natural <= {LENGTH_CAP}"):
        WitnessCertificate.from_json(json.dumps(doc))
    # the cap is inclusive
    doc["palette"] = LENGTH_CAP
    assert WitnessCertificate.from_json(json.dumps(doc)).coloring.palette == LENGTH_CAP


# certificate and cache-entry bodies: good runs below the palette of 10,
# malformed tokens, zero counts and counts that overflow a small length
_BODY_TOKENS = st.one_of(
    st.builds("{}x{}".format, st.integers(0, 9), st.integers(1, 3)),
    st.sampled_from(_BAD_TOKENS),
    st.builds("{}x0".format, st.integers(0, 9)),
    st.builds("{}x{}".format, st.integers(0, 9), st.integers(4, 40)),
)


def _verdict(decode):
    try:
        return list(decode())
    except InvalidArgumentError as exc:
        return str(exc)
    except ColoringFileError as exc:
        where = f" (line {exc.line}, column {exc.column})"
        assert str(exc).endswith(where)
        return str(exc)[:-len(where)]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_BODY_TOKENS, st.sampled_from([" ", "\n", "\t "])), max_size=8),
       st.one_of(st.integers(0, 12), st.just(LENGTH_CAP + 1)))
@example([("0x5", " "), ("zz", " ")], 2)
@example([("1x1", " "), ("0x0", "\n"), ("2x40", " ")], 1)
@example([("3x2", " ")], 5)
@example([], LENGTH_CAP + 1)
def test_rle_strings_and_files_reject_a_body_alike(runs, n):
    body = "".join(chain.from_iterable(runs))
    text = f"palette 10 length {n} encoding rle\n{body}\n"
    want = _verdict(lambda: parse_rle_string(body, n)[0])
    assert _verdict(lambda: decode_coloring(text).values) == want


def test_rle_string_length_must_match():
    assert parse_rle_string("0x2 1x1", 3) == ((0, 0, 1), "0x2 1x1")
    with pytest.raises(InvalidArgumentError):
        parse_rle_string("0x2 1x1", 2)
    with pytest.raises(InvalidArgumentError, match="run length must be >= 1"):
        parse_rle_string("0x2 1x0 2", 2)
    with pytest.raises(InvalidArgumentError, match="got '2'"):
        parse_rle_string("0x2 2 1x0", 2)
    # the cap is inclusive
    with pytest.raises(InvalidArgumentError, match=f"header declares {LENGTH_CAP}"):
        parse_rle_string("0x1", LENGTH_CAP)
    with pytest.raises(InvalidArgumentError, match=LENGTH_MESSAGE):
        parse_rle_string("0x1", LENGTH_CAP + 1)
