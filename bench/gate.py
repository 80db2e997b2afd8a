"""Correctness gate: decide whether one CLI call gave the right answer.

A call is right when its exit code is the expected one, its ``"cache"``
field reads as expected (``off``, ``miss``, ``hit``, or absent for commands
without a cache), and either its stdout matches the digest recorded in
``pinned.json`` byte for byte (with the run-dependent ``wall_time`` value
masked) or, for outputs that depend on the benchmark seed, a property
check accepts it.
"""

from __future__ import annotations

import hashlib
import json
import re

_WALL_TIME = re.compile(r'"wall_time":[^,}]*')

# Fields copied into a pinned record so that a digest mismatch can say
# what changed (a node count, a witness length, a value).
SUMMARY_KEYS = ("kind", "value", "lower", "upper", "nodes", "witness_length",
                "no_witness", "witness", "length", "cache")


def normalize(stdout: str) -> str:
    """Mask the only field that legitimately varies between identical calls."""
    return _WALL_TIME.sub('"wall_time":null', stdout)


def digest(stdout: str) -> str:
    return hashlib.sha256(normalize(stdout).encode("utf-8")).hexdigest()


def summary(doc: dict) -> dict:
    """The short summary fields of a document (long values such as the
    decimal ladder length are left to the digest)."""
    return {k: doc[k] for k in SUMMARY_KEYS if k in doc and len(str(doc[k])) <= 64}


def pin_record(stdout: str, doc: dict) -> dict:
    """What ``pinned.json`` stores for one call."""
    return {"sha256": digest(stdout), "summary": summary(doc)}


def parse(stdout: str):
    """The call's JSON document, or None when stdout is not one."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def check_call(call, exit_code: int, stdout: str, doc, pinned) -> list:
    """Problems with one call's result; an empty list means it is right.

    ``call`` carries ``exit_code``, ``cache`` and either ``pin`` (the key of
    its record in ``pinned``) or ``check`` (a property check taking the
    parsed document and returning a list of problems).
    """
    problems = []
    if exit_code != call.exit_code:
        problems.append(f"exit code {exit_code}, expected {call.exit_code}")
    if doc is None:
        return problems + ["stdout is not one JSON object"]
    if doc.get("cache") != call.cache:
        problems.append(f"cache state {doc.get('cache')!r}, expected {call.cache!r}")
    if call.pin is not None:
        record = pinned.get(call.pin)
        if record is None:
            problems.append(f"no pinned record for {call.pin}")
        elif digest(stdout) != record["sha256"]:
            got = summary(doc)
            diffs = [f"{k} {got.get(k)!r} != pinned {v!r}"
                     for k, v in record["summary"].items() if got.get(k) != v]
            problems.append("stdout differs from the pinned output"
                            + (": " + "; ".join(diffs) if diffs else ""))
    else:
        problems.extend(call.check(doc))
    return problems
