"""Command-line surface.

Machine output is a single JSON document on stdout; human-readable
summaries go to stderr so pipelines stay composable.  Exit codes:
0 affirmative, 1 negative-but-valid, 2 usage or malformed input,
3 budget exhausted under --require-exact, 4 magnitude overflow.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from . import constructions
from .cache import ResultCache, resolve_cache_dir
# is_witness is not called here; it stays bound because bench/test_bench.py::
# test_tracer_wraps_every_binding_by_identity_and_restores_them asserts cli.is_witness
from .checker import _scan, is_witness  # noqa: F401
from .colorfile import coloring_rle, decode_coloring, encode_coloring, parse_rle_string
from .core import Coloring, GrowthFn, _natural, _quoted, parse_growth_spec
from .errors import (BrownlabError, ColoringFileError, GrowthSpecError,
                     InvalidArgumentError, MagnitudeError)
from .progressions import ap_partition_check
from .search import (SearchBudget, SearchOutcome, _outcome, brown_number,
                     brown_number_bruteforce, confirm_no_witness, vdw_number,
                     vdw_number_bruteforce)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_MAGNITUDE = 4

DEFAULT_NODE_BUDGET = 1_000_000
ORACLE_VALUE_CAP = 18


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _sci(digits: str) -> str:
    """A decimal rendering as is below a million, in scientific notation above."""
    if len(digits) <= 6:
        return digits
    return f"{digits[0]}.{digits[1:5]}e+{len(digits) - 1}"


def _parse_growth(text: str) -> GrowthFn:
    try:
        return parse_growth_spec(text)
    except GrowthSpecError as exc:
        raise InvalidArgumentError(f"bad growth spec: {exc}") from exc


def _budget(args) -> SearchBudget:
    """DEFAULT_NODE_BUDGET caps the nodes only when neither budget flag is given."""
    nodes = args.budget_nodes
    if nodes is None and args.budget_seconds is None:
        nodes = DEFAULT_NODE_BUDGET
    return SearchBudget(max_nodes=nodes or None, max_seconds=args.budget_seconds, jobs=args.jobs)


def _read_coloring(path: str) -> Coloring:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read {path}: {exc}") from exc
    try:
        return decode_coloring(text)
    except ColoringFileError as exc:
        raise InvalidArgumentError(f"malformed coloring file {path}: {exc}") from exc


@contextlib.contextmanager
def _writing(path):
    """Turn a failed write to ``path`` into exit 2, as a failed read is."""
    try:
        yield
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write {path}: {exc}") from exc


def _outcome_payload(outcome: SearchOutcome) -> dict:
    upper, digits = outcome.upper, sys.get_int_max_str_digits()
    if upper and digits and upper.bit_length() > 3 * digits and upper >= 10 ** digits:
        upper = None        # json's str() refuses it (below 8**digits it has fewer digits)
    payload = {
        "kind": outcome.kind,
        "value": outcome.value,
        "lower": outcome.lower,
        "upper": upper,
        "nodes": outcome.nodes_explored,
        "wall_time": round(outcome.wall_time, 6),
        "witness_length": outcome.witness.length,
        "used_closure": outcome.used_closure,
    }
    if outcome.certificate is not None:
        payload["certificate"] = json.loads(outcome.certificate.to_json())
    else:
        payload["witness_rle"] = coloring_rle(outcome.witness)
    return payload


# ---------------------------------------------------------------------------
# brown / vdw
# ---------------------------------------------------------------------------


def _cached(cache, key: dict, f: Optional[GrowthFn]):
    """``(outcome, state)``: a ``hit`` is the exact outcome that the search's
    own builder, ``search._outcome``, audits and rebuilds from an entry's
    witness (decoded within its ``witness_length``), ``nodes`` and
    ``wall_time``; else None with ``off``, ``miss`` or ``rejected``."""
    if cache is None:
        return None, "off"
    entry = cache.get(key)
    if entry is None:
        return None, "miss"
    try:
        nodes, wall = entry["nodes"], entry["wall_time"]
        if type(nodes) is not int or nodes < 0 or type(wall) not in (int, float) \
                or not 0 <= wall < math.inf:
            return None, "rejected"
        values, body = parse_rle_string(entry["witness_rle"], entry["witness_length"], key["r"])
        outcome = _outcome(("ap", key["l"]) if f is None else ("star", f), key["r"],
                           values, nodes, wall, rle_body=body)
    except (AttributeError, KeyError, TypeError, ValueError):
        return None, "rejected"
    return outcome, "rejected" if outcome is None else "hit"


def _search_command(args) -> int:
    if args.oracle and args.r > 3:
        raise InvalidArgumentError("--oracle is for small instances only (r <= 3)")
    cache = None
    # a --max-n result is not the cached question's answer: neither read nor stored
    if not args.no_cache and args.max_n is None:
        cache = ResultCache(resolve_cache_dir(args.cache_dir))
    f = _parse_growth(args.f) if args.command == "brown" else None
    if f is not None:
        key = {"command": "brown", "growth": f.spec_string(), "r": args.r}
        label = f"brown({key['growth']}, r={args.r})"
    else:
        key = {"command": "vdw", "r": args.r, "l": args.l}
        label = f"vdw(r={args.r}, l={args.l})"

    budget = _budget(args)
    outcome, cache_state = _cached(cache, key, f)
    if outcome is None:
        outcome = (brown_number(f, args.r, n_cap=args.max_n, budget=budget) if f is not None
                   else vdw_number(args.r, args.l, n_cap=args.max_n, budget=budget))
        if cache is not None and outcome.kind == "exact":
            with _writing(cache.directory):
                cache.put(key, {"witness_rle": coloring_rle(outcome.witness),
                                "witness_length": outcome.witness.length,
                                "nodes": outcome.nodes_explored,
                                "wall_time": round(outcome.wall_time, 6)})

    payload = {**_outcome_payload(outcome), **key, "cache": cache_state}
    if f is not None:
        payload["bounds"] = _brown_bounds(f, args.r)

    exit_code = EXIT_OK
    if args.oracle and not _run_oracle(args, f, outcome, payload):
        exit_code = EXIT_NEGATIVE
    if args.certificate and outcome.certificate is not None:
        with _writing(args.certificate):
            Path(args.certificate).write_text(outcome.certificate.to_json() + "\n")
        payload["certificate_path"] = args.certificate
    if outcome.kind == "bracketed" and args.require_exact:
        exit_code = EXIT_BUDGET

    _emit(payload)
    if outcome.kind == "exact":
        _note(f"{label} = {outcome.value} exact "
              f"(nodes={payload['nodes']}, {payload['wall_time']}s, cache {cache_state})")
    else:
        upper = outcome.upper
        upper_text = "?" if upper is None else _sci(constructions.decimal_str(upper))
        reason = {"cap": f"stopped at --max-n {args.max_n}",
                  "deadline": "deadline passed"}.get(outcome.stop, "budget exhausted")
        _note(f"{label} in [{outcome.lower}, {upper_text}] "
              f"({reason} after {payload['nodes']} nodes)")
    return exit_code


def _brown_bounds(f: GrowthFn, r: int) -> dict:
    """The closed-form bounds in decimal; None where one does not apply or
    overflows the magnitude cap."""
    ardal, recursion = (None if b is None else constructions.decimal_str(b)
                        for b in constructions.brown_bounds(f, r))
    return {"ardal": ardal, "recursion": recursion}


def _run_oracle(args, f: Optional[GrowthFn], outcome: SearchOutcome, payload: dict) -> bool:
    if outcome.kind != "exact":
        raise InvalidArgumentError("--oracle needs an exact outcome; "
                                   "raise the budget or drop --max-n")
    value = outcome.value
    if value > ORACLE_VALUE_CAP:
        raise InvalidArgumentError(f"--oracle is for small instances only "
                                   f"(value <= {ORACLE_VALUE_CAP})")
    try:
        oracle_value = (brown_number_bruteforce(f.monotone, args.r, value + 1) if f is not None
                        else vdw_number_bruteforce(args.r, args.l, value + 1))
    except InvalidArgumentError:
        # every length up to value + 1 has a valid coloring: the search reported too little
        oracle_value = None
    payload["oracle_value"] = oracle_value
    agreed = payload["oracle_agreed"] = oracle_value == value
    if not agreed:
        _note(f"ORACLE DISAGREEMENT: search says {value}, full enumeration says "
              f"{oracle_value or f'more than {value + 1}'}")
    return agreed


def _cmd_confirm(args) -> int:
    f = _parse_growth(args.f)
    outcome = confirm_no_witness(args.n, f, args.r, budget=_budget(args))
    payload = {"command": "confirm", "n": args.n, "growth": f.spec_string(),
               "r": args.r, "no_witness": outcome.result, "nodes": outcome.nodes}
    _emit(payload)
    if outcome.result is None:
        _note(f"indeterminate after {outcome.nodes} nodes")
        return EXIT_BUDGET if args.require_exact else EXIT_NEGATIVE
    _note(f"no witness of length {args.n}: {outcome.result} ({outcome.nodes} nodes)")
    return EXIT_OK if outcome.result else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _cmd_check(args) -> int:
    coloring = _read_coloring(args.input)
    f = _parse_growth(args.f)
    v, cert = _scan(coloring, f)
    if cert is not None:
        # _emit's spelling, with the certificate's canonical JSON as written: its key sorts first
        print('{"certificate":' + cert.to_json() + ',"command":"check","witness":true}')
        _note(f"witness: every class fits {f.spec_string()}; "
              f"proves the threshold exceeds {coloring.length}")
        return EXIT_OK
    _emit({"command": "check", "witness": False, "violation": asdict(v)})
    _note(f"not a witness: class {v.color} window {v.start}..{v.end} has {v.length} elements")
    return EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------


def _cmd_ladder(args) -> int:
    stage = constructions.ladder(args.s)
    exit_code = EXIT_OK
    length = constructions.decimal_str(stage.length)
    if (args.out or args.verify) and not stage.materialized:
        raise MagnitudeError(f"stage {args.s} has length {_sci(length)}, past the "
                             f"materialization cap; only its length is available")
    payload = {"command": "ladder", "s": args.s, "length": length,
               "palette": stage.palette, "materialized": stage.materialized}
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(encode_coloring(stage.coloring))
        payload["out"] = args.out
    if args.verify:
        report = constructions.ladder_verify(stage)
        payload["verify"] = {**asdict(report), "all_ok": report.all_ok}
        if not report.all_ok:
            exit_code = EXIT_NEGATIVE
    _emit(payload)
    _note(f"ladder stage {args.s}: length {_sci(length)}, palette {stage.palette}"
          + (", all claims hold" if args.verify and exit_code == EXIT_OK else ""))
    return exit_code


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

_BOUNDS_CSV_HEADER = "r,ardal,recursion,cached_kind,cached_value"


def _cmd_bounds(args) -> int:
    if (args.f is None) == (args.m is None):
        raise InvalidArgumentError("give exactly one of --f or --m")
    if args.r_max < 1:
        raise InvalidArgumentError("--r-max must be >= 1")
    if args.m is not None:
        f = GrowthFn.linear(args.m)
    else:
        f = _parse_growth(args.f)
    cache = ResultCache(resolve_cache_dir(args.cache_dir))
    rows = []
    for r in range(1, args.r_max + 1):
        bounds = _brown_bounds(f, r)
        if bounds["recursion"] is None:   # brown_bounds maps its overflow to None
            try:
                constructions.upper_bound_seq(f, r)
            except MagnitudeError as exc:
                raise MagnitudeError(f"recursion bound for r={r}: {exc}") from None
        cached, _ = _cached(cache, {"command": "brown", "growth": f.spec_string(), "r": r}, f)
        rows.append({"r": r, **bounds,
                     "cached": None if cached is None else
                     {"kind": cached.kind, "value": cached.value}})
    if args.format == "csv":
        lines = [_BOUNDS_CSV_HEADER]
        for row in rows:
            cached = row["cached"] or {}
            lines.append(",".join([str(row["r"]), row["ardal"] or "", row["recursion"],
                                   cached.get("kind", ""), str(cached.get("value", ""))]))
        print("\n".join(lines))
    else:
        _emit({"command": "bounds", "growth": f.spec_string(),
               "used_closure": not f.nondecreasing, "rows": rows})
    _note(f"bounds for {f.spec_string()}, r = 1..{args.r_max}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def _cmd_diag(args) -> int:
    coloring = constructions.diag_prefix(args.d, args.n)
    payload = {"command": "diag", "d": args.d, "n": args.n,
               "coloring_rle": coloring_rle(coloring)}
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(encode_coloring(coloring))
        payload["out"] = args.out
    _emit(payload)
    return EXIT_OK


def _naturals(text: str, flag: str) -> list:
    """The comma list of naturals given to ``flag``, in decimal digits only."""
    tokens = text.split(",")
    values = list(map(_natural, tokens))
    if None in values:
        raise InvalidArgumentError(f"bad {flag} list: expected a natural, "
                                   f"got {_quoted(tokens[values.index(None)])}")
    return values


def _cmd_psgen(args) -> int:
    if (args.gaps is None) == (args.input is None):
        raise InvalidArgumentError("give exactly one of --gaps or --input")
    if args.input is not None:
        gaps = _read_coloring(args.input)
    else:
        values = _naturals(args.gaps, "--gaps")
        # inline values feed blocks 2, 3, ...; positions 0 and 1 are unused
        palette = max(values + [1]) + 1
        gaps = Coloring(palette=palette, values=tuple([1, 1] + values))
    blocks = args.blocks if args.blocks is not None else gaps.length - 1
    prefix = constructions.ps_generate(gaps, blocks)
    problems = constructions.ps_problems(prefix, gaps)
    _emit({"command": "psgen", "blocks": blocks, "elements": prefix.elements,
           "block_bounds": prefix.bounds, "problems": problems})
    _note(f"generated {len(prefix.elements)} elements in {blocks} blocks"
          + ("" if not problems else f"; PROBLEMS: {problems}"))
    return EXIT_OK if not problems else EXIT_NEGATIVE


def _cmd_decompose(args) -> int:
    xs = _naturals(args.x, "--x") if args.x else []
    y, z = constructions.decompose_ps(xs, args.d, args.horizon)
    zs = set(z)
    identity_ok = sorted(set(xs)) == [v for v in y if v in zs]
    _emit({"command": "decompose", "d": args.d, "horizon": args.horizon,
           "y": y, "z": z, "identity_ok": identity_ok})
    return EXIT_OK if identity_ok else EXIT_NEGATIVE


def _cmd_ap(args) -> int:
    coloring = _read_coloring(args.input)
    hit = ap_partition_check(coloring, args.l)
    if hit is None:
        _emit({"command": "ap", "l": args.l, "found": False})
        _note(f"no monochromatic {args.l}-term progression in {coloring.length} positions")
        return EXIT_NEGATIVE
    color, witness = hit
    _emit({"command": "ap", "l": args.l, "found": True, "color": color, **asdict(witness)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry
# ---------------------------------------------------------------------------


def _natural_arg(text: str) -> int:
    """Every integer flag's type: a natural read by ``core._natural``, else a usage error."""
    if (value := _natural(text)) is None:
        raise argparse.ArgumentTypeError(f"expected a natural, got {_quoted(text)}")
    return value


def _add_search_flags(parser) -> None:
    parser.add_argument("--max-n", type=_natural_arg, default=None,
                        help="cap the searched coloring length (forces bracketing if hit)")
    parser.add_argument("--oracle", action="store_true",
                        help="cross-check the exact value against full enumeration")
    _add_budget_flags(parser)
    parser.add_argument("--certificate", default=None,
                        help="write the witness certificate JSON to this path")
    parser.add_argument("--cache-dir", default=None, help="result cache directory")
    parser.add_argument("--no-cache", action="store_true", help="bypass the result cache")


def _add_budget_flags(parser) -> None:
    parser.add_argument("--jobs", type=_natural_arg, default=1,
                        help="split the search into this many parts, one process each (default 1)")
    parser.add_argument("--require-exact", action="store_true",
                        help="exit 3 instead of reporting a bracket")
    parser.add_argument("--budget-nodes", type=_natural_arg, default=None,
                        help=f"node budget, 0 = unlimited (default {DEFAULT_NODE_BUDGET}, "
                             "none when --budget-seconds is given)")
    parser.add_argument("--budget-seconds", type=float, default=None,
                        help="wall-clock budget in seconds")


@functools.cache  # built once: run_cli parses every call with it
def build_parser() -> argparse.ArgumentParser:
    new_parser = functools.partial(argparse.ArgumentParser, exit_on_error=False)
    parser = new_parser(prog="brownlab",
                        description="Thresholds, witnesses and bounds for gap-bounded colorings.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=new_parser)

    p = sub.add_parser("brown", help="compute or bracket a Brown number")
    p.add_argument("--f", required=True, help="growth spec, e.g. linear:2 or exp2")
    p.add_argument("--r", type=_natural_arg, required=True, help="number of colors")
    _add_search_flags(p)
    p.set_defaults(handler=_search_command)

    p = sub.add_parser("vdw", help="compute or bracket a van der Waerden number")
    p.add_argument("--r", type=_natural_arg, required=True, help="number of colors")
    p.add_argument("--l", type=_natural_arg, required=True, help="progression length")
    _add_search_flags(p)
    p.set_defaults(handler=_search_command)

    p = sub.add_parser("confirm", help="audit that no witness of length n exists")
    p.add_argument("--n", type=_natural_arg, required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--r", type=_natural_arg, required=True)
    _add_budget_flags(p)
    p.set_defaults(handler=_cmd_confirm)

    p = sub.add_parser("check", help="check a coloring file against a growth spec")
    p.add_argument("--input", required=True, help="coloring file path")
    p.add_argument("--f", required=True, help="growth spec")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("ladder", help="generate or verify a witness ladder stage")
    p.add_argument("--s", type=_natural_arg, required=True, help="stage index")
    p.add_argument("--verify", action="store_true", help="check the stage claims")
    p.add_argument("--out", default=None, help="write the stage coloring to this file")
    p.set_defaults(handler=_cmd_ladder)

    p = sub.add_parser("bounds", help="tabulate closed-form bounds")
    p.add_argument("--f", default=None, help="growth spec")
    p.add_argument("--m", type=_natural_arg, default=None, help="linear slope shortcut")
    p.add_argument("--r-max", type=_natural_arg, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("diag", help="emit an alternating-block coloring prefix")
    p.add_argument("--d", type=_natural_arg, required=True, help="block width")
    p.add_argument("--n", type=_natural_arg, required=True, help="prefix length")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_diag)

    p = sub.add_parser("psgen", help="generate a piecewise-syndetic block prefix")
    p.add_argument("--gaps", default=None, help="comma list of gaps for blocks 2,3,...")
    p.add_argument("--input", default=None, help="coloring file supplying the gaps")
    p.add_argument("--blocks", type=_natural_arg, default=None)
    p.set_defaults(handler=_cmd_psgen)

    p = sub.add_parser("decompose", help="split a prefix into syndetic and thick parts")
    p.add_argument("--x", required=True, help="comma list of elements")
    p.add_argument("--d", type=_natural_arg, required=True)
    p.add_argument("--horizon", type=_natural_arg, required=True)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("ap", help="find a monochromatic progression in a coloring file")
    p.add_argument("--input", required=True)
    p.add_argument("--l", type=_natural_arg, required=True)
    p.set_defaults(handler=_cmd_ap)

    return parser


def run_cli(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except MagnitudeError as exc:
        _note(f"magnitude overflow: {exc}")
        return EXIT_MAGNITUDE
    except (BrownlabError, argparse.ArgumentError) as exc:
        _note(f"error: {exc}")
        return EXIT_USAGE
