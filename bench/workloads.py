"""The benchmark's workloads: fixed CLI calls, the inputs they read and how
each output is judged.

Every call runs in the run's own work directory, so relative paths in argv
(``s2.col``, ``cache-3``) land there and stdout does not depend on where the
checkout lives.  Searches are sized by ``--budget-nodes`` only: a node cap
fixes the work and the output, a deadline does not.  Every search call
either bypasses the result cache (``--no-cache``) or gets a cache directory
that is fresh for the iteration, so no iteration is silently served from an
earlier one's cache.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# Warm `brown` calls served from cache in every iteration of every workload;
# their median latency is `cache_hit_s`.
CACHE_HITS = 20

RANDOM_FILE = "random.col"
RANDOM_PALETTE = 16
RANDOM_LENGTH = 30_000


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what a right answer looks like.

    ``pin`` names the record in ``pinned.json`` that stdout must match;
    seed-dependent calls have no pin and a property ``check`` instead.
    ``cache`` is the expected ``"cache"`` field (None: the command has none).
    """

    argv: tuple
    pin: Optional[str] = None
    check: Optional[Callable] = None
    exit_code: int = 0
    cache: Optional[str] = None
    cache_hit: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable   # seed -> inputs, run once per set-up in the work directory
    calls: Callable     # (inputs, iteration) -> list of Call
    reference: str = "compute"   # the calibrate pass that wall_s is scaled by


def _cache_round(iteration: int) -> list:
    """A miss that computes and stores, then warm hits, in a fresh directory."""
    argv = ("brown", "--f", "linear:2", "--r", "2", "--cache-dir", f"cache-{iteration}")
    hit = Call(argv, pin="cache-hit", cache="hit", cache_hit=True)
    return [Call(argv, pin="cache-miss", cache="miss")] + [hit] * CACHE_HITS


# ---------------------------------------------------------------------------
# exact-star, deep-star, exact-ap: seed-independent searches, pinned outputs
# ---------------------------------------------------------------------------


def _no_inputs(seed: int) -> dict:
    return {}


def _exact_star(inputs: dict, iteration: int) -> list:
    return [
        Call(("brown", "--f", "linear:3", "--r", "2", "--no-cache"),
             pin="brown-linear3-r2", cache="off"),
        Call(("confirm", "--n", "25", "--f", "linear:3", "--r", "2"),
             pin="confirm-linear3-r2-n25"),
    ] + _cache_round(iteration)


def _deep_star(inputs: dict, iteration: int) -> list:
    return [
        Call(("brown", "--f", "exp2", "--r", "3", "--budget-nodes", "50000", "--no-cache"),
             pin="brown-exp2-r3-50k", cache="off"),
    ] + _cache_round(iteration)


def _exact_ap(inputs: dict, iteration: int) -> list:
    return [
        Call(("vdw", "--r", "3", "--l", "3", "--no-cache"), pin="vdw-r3-l3", cache="off"),
        Call(("vdw", "--r", "2", "--l", "5", "--budget-nodes", "200000", "--no-cache"),
             pin="vdw-r2-l5-200k", cache="off"),
    ] + _cache_round(iteration)


# ---------------------------------------------------------------------------
# certify: no search; the random file is the only seed-dependent input
# ---------------------------------------------------------------------------


def write_random_coloring(seed: int, path: Path, length: int = RANDOM_LENGTH,
                          palette: int = RANDOM_PALETTE) -> tuple:
    """Write a uniformly random coloring in the plain file format; return it.

    The benchmark writes the format itself so that the program under test
    receives only the file.
    """
    rng = random.Random(seed)
    values = tuple(rng.randrange(palette) for _ in range(length))
    lines = [f"palette {palette} length {length} encoding plain"]
    for i in range(0, length, 64):
        lines.append(" ".join(map(str, values[i:i + 64])))
    path.write_text("\n".join(lines) + "\n")
    return values


def witness_check(values: tuple, palette: int, verified: set) -> Callable:
    """Accept a `check` witness only if its certificate describes the input
    coloring, round-trips through `WitnessCertificate.from_json` and passes
    `verify_certificate`.  Identical certificates are verified once."""

    def check(doc: dict) -> list:
        if doc.get("witness") is not True or not isinstance(doc.get("certificate"), dict):
            return ["expected a witness certificate"]
        text = json.dumps(doc["certificate"], sort_keys=True, separators=(",", ":"))
        key = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if key in verified:
            return []
        from brownlab.checker import WitnessCertificate, verify_certificate

        cert = WitnessCertificate.from_json(text)
        problems = []
        if cert.coloring.palette != palette or cert.coloring.values != values:
            problems.append("certificate coloring differs from the input file")
        if cert.to_json() != text:
            problems.append("certificate does not round-trip through from_json/to_json")
        if not verify_certificate(cert):
            problems.append("certificate fails verify_certificate")
        if not problems:
            verified.add(key)
        return problems

    return check


def violation_check(values: tuple, f: Callable) -> Callable:
    """Accept a `check` violation only if the reported window is a real run
    of its class, with the reported gap size and length, and is larger than
    ``f(gap_size)``."""

    def check(doc: dict) -> list:
        v = doc.get("violation")
        if doc.get("witness") is not False or not isinstance(v, dict):
            return ["expected a violation"]
        color, start, end = v.get("color"), v.get("start"), v.get("end")
        if not (isinstance(start, int) and isinstance(end, int)
                and 0 <= start <= end < len(values)):
            return [f"window {start}..{end} lies outside the coloring"]
        members = [x for x in range(start, end + 1) if values[x] == color]
        if not members or members[0] != start or members[-1] != end:
            return [f"window {start}..{end} does not start and end in class {color}"]
        gap = max((b - a for a, b in zip(members, members[1:])), default=1)
        problems = []
        if len(members) != v.get("length"):
            problems.append(f"window holds {len(members)} elements, reported {v.get('length')}")
        if gap != v.get("gap_size"):
            problems.append(f"window gap size is {gap}, reported {v.get('gap_size')}")
        if not len(members) > f(gap):
            problems.append(f"window of {len(members)} elements does not exceed f({gap}) = {f(gap)}")
        return problems

    return check


def _certify_inputs(seed: int) -> dict:
    values = write_random_coloring(seed, Path(RANDOM_FILE))
    return {"values": values, "verified": set()}


def _certify(inputs: dict, iteration: int) -> list:
    values = inputs["values"]
    return [
        Call(("ladder", "--s", "2", "--out", "s2.col"), pin="ladder-s2-out"),
        Call(("check", "--input", "s2.col", "--f", "exp2"), pin="check-ladder-s2-exp2"),
        Call(("check", "--input", RANDOM_FILE, "--f", "linear:1000"),
             check=witness_check(values, RANDOM_PALETTE, inputs["verified"])),
        Call(("check", "--input", RANDOM_FILE, "--f", "exp2"), exit_code=1,
             check=violation_check(values, lambda d: 2 ** d)),
        Call(("bounds", "--m", "250000", "--r-max", "2", "--cache-dir", "bounds-cache"),
             pin="bounds-m250000-r2"),
    ] + _cache_round(iteration)


WORKLOADS = {w.name: w for w in (
    Workload("exact-star",
             "exhaustive shallow star-rule search (linear:3, r=2) and its audit, "
             "plus cache misses and hits",
             _no_inputs, _exact_star),
    Workload("deep-star",
             "node-capped star-rule search that runs 26k positions deep: "
             "snapshots, a long witness and a large certificate",
             _no_inputs, _deep_star, reference="memory"),
    Workload("exact-ap",
             "progression rule only: exhaustive W(3,3) and a node-capped W(2,5) bracket",
             _no_inputs, _exact_ap),
    Workload("certify",
             "no search: 2M-position ladder export and check, checker scans of a "
             "random 16-colour file, decimal rendering of 250k- and 500k-bit bounds",
             _certify_inputs, _certify),
)}
