"""Tracing from outside the program: timing wrappers around brownlab's
public functions, spans kept in memory, and the per-layer metrics they give.

Only public names are wrapped.  Private helpers (the search rules, the run
scanners) are what performance work rewrites, and the benchmark has to keep
working across such rewrites.  Each wrapped function is found by identity
in every ``brownlab`` module and class namespace, so the wrappers reach
every place that imported it, whatever the import statements look like.

A span is ``[id, parent, name, start, end, workload, iteration]``.  Spans
are recorded only under a ``cli.run_cli`` root, so the benchmark's own
calls into brownlab (the correctness gate) are never traced.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

ROOT = "cli.run_cli"

# (span name, defining module, qualified name); the span name's prefix is
# the layer.
TARGETS = (
    (ROOT, "brownlab.cli", "run_cli"),
    ("search.brown_number", "brownlab.search", "brown_number"),
    ("search.vdw_number", "brownlab.search", "vdw_number"),
    ("search.confirm_no_witness", "brownlab.search", "confirm_no_witness"),
    ("checker.is_witness", "brownlab.checker", "is_witness"),
    ("checker.has_large_homogeneous", "brownlab.checker", "has_large_homogeneous"),
    ("checker.verify_certificate", "brownlab.checker", "verify_certificate"),
    ("checker.to_json", "brownlab.checker", "WitnessCertificate.to_json"),
    ("core.classes", "brownlab.core", "Coloring.classes"),
    ("colorfile.encode_coloring", "brownlab.colorfile", "encode_coloring"),
    ("colorfile.decode_coloring", "brownlab.colorfile", "decode_coloring"),
    ("constructions.ladder", "brownlab.constructions", "ladder"),
    ("constructions.decimal_str", "brownlab.constructions", "decimal_str"),
    ("progressions.ap_partition_check", "brownlab.progressions", "ap_partition_check"),
    ("cache.get", "brownlab.cache", "ResultCache.get"),
    ("cache.put", "brownlab.cache", "ResultCache.put"),
)

# Spans whose arguments and result the metrics need; references are held
# until the iteration is summarized, never copied.
KEEP = {"checker.is_witness", "checker.has_large_homogeneous",
        "checker.verify_certificate", "colorfile.decode_coloring", "cache.get"}

SEARCH_SPANS = ("search.brown_number", "search.vdw_number", "search.confirm_no_witness")
CHECKER_SCANS = ("checker.is_witness", "checker.has_large_homogeneous",
                 "checker.verify_certificate")

# Per-layer metrics of one traced iteration, with their units.  `*_s` values
# are self times: span durations minus the time of their child spans.
PER_LAYER = {
    "cli.self_s": "s",
    "search.self_s": "s",
    "search.ns_per_node": "ns/node",
    "search.nodes": "count",
    "search.depth": "count",
    "checker.is_witness_s": "s",
    "checker.has_large_homogeneous_s": "s",
    "checker.verify_certificate_s": "s",
    "checker.to_json_s": "s",
    "checker.gap_elems": "count",
    "checker.ns_per_gap_elem": "ns/elem",
    "core.classes_s": "s",
    "colorfile.encode_s": "s",
    "colorfile.decode_s": "s",
    "colorfile.decode_mb_per_s": "MB/s",
    "constructions.ladder_s": "s",
    "constructions.decimal_str_s": "s",
    "constructions.decimal_str_calls": "count",
    "progressions.ap_partition_check_s": "s",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "cache.gets": "count",
    "cache.hits": "count",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.kept: dict = {}
        self.missing: list = []
        self.workload = None
        self.iteration = None
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack, kept = self.spans, self._stack, self.kept
        clock = time.perf_counter
        root = name == ROOT
        keep = name in KEEP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack and not root:
                return fn(*args, **kwargs)
            sid = len(spans)
            span = [sid, stack[-1] if stack else None, name, clock(), None,
                    self.workload, self.iteration]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()
            if keep:
                kept[sid] = (args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each target in brownlab's module and
        class namespaces by a timing wrapper."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "brownlab" or n.startswith("brownlab.")]
        namespaces = list(modules)
        for m in modules:
            namespaces.extend(v for v in vars(m).values()
                              if isinstance(v, type) and v.__module__.startswith("brownlab"))
        self.missing = []
        for name, module, qualname in TARGETS:
            target = sys.modules.get(module)
            for part in qualname.split("."):
                target = getattr(target, part, None)
            if not callable(target):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, target)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is target:
                        setattr(ns, attr, wrapper)
                        self._patches.append((ns, attr, target))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        keys = ("id", "parent", "name", "start", "end", "workload", "iteration")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children.

    Children of one span never overlap (the program is single-threaded), so
    their durations add up to the part of the parent they cover.
    """
    covered: dict = defaultdict(float)
    for sid, parent, _, start, end, *_ in spans:
        if parent is not None:
            covered[parent] += end - start
    return {span[0]: span[4] - span[3] - covered[span[0]] for span in spans}


def gap_elems(values, palette: int) -> int:
    """Sum over classes of (distinct gaps, plus gap 1) x class size: the
    element visits of a scan that walks each class once per distinct gap."""
    last = [None] * palette
    sizes = [0] * palette
    gaps = [{1} for _ in range(palette)]
    for x, v in enumerate(values):
        if last[v] is not None:
            gaps[v].add(x - last[v])
        last[v] = x
        sizes[v] += 1
    return sum(size * len(g) for size, g in zip(sizes, gaps) if size)


def _coloring_of(name: str, args):
    return args[0].coloring if name == "checker.verify_certificate" else args[0]


def iteration_metrics(spans, kept: dict, docs, memo: dict) -> dict:
    """Per-layer metrics of one traced iteration.

    ``docs`` are the parsed stdout documents of the iteration's calls (node
    counts and depths are read from them); ``memo`` caches gap counts of
    colorings across iterations.
    """
    selfs = self_times(spans)
    time_of: dict = defaultdict(float)
    calls = Counter()
    for span in spans:
        time_of[span[2]] += selfs[span[0]]
        calls[span[2]] += 1

    searched = [d for d in docs
                if d.get("command") in ("brown", "vdw", "confirm") and d.get("cache") != "hit"]
    nodes = sum(d.get("nodes", 0) for d in searched)
    depth = max((d["witness_length"] for d in searched if "witness_length" in d), default=0)
    search_s = sum(time_of[n] for n in SEARCH_SPANS)

    elems = 0
    decoded_chars = 0
    hits = 0
    by_id = {span[0]: span[2] for span in spans}
    for sid, (args, result) in kept.items():
        name = by_id[sid]
        if name in CHECKER_SCANS:
            coloring = _coloring_of(name, args)
            key = (coloring.palette, len(coloring.values), hash(coloring.values))
            if key not in memo:
                memo[key] = gap_elems(coloring.values, coloring.palette)
            elems += memo[key]
        elif name == "colorfile.decode_coloring":
            decoded_chars += len(args[0])
        elif name == "cache.get" and result is not None:
            hits += 1
    scan_s = sum(time_of[n] for n in CHECKER_SCANS)
    decode_s = time_of["colorfile.decode_coloring"]

    return {
        "cli.self_s": time_of[ROOT],
        "search.self_s": search_s,
        "search.ns_per_node": search_s / nodes * 1e9 if nodes else 0.0,
        "search.nodes": nodes,
        "search.depth": depth,
        "checker.is_witness_s": time_of["checker.is_witness"],
        "checker.has_large_homogeneous_s": time_of["checker.has_large_homogeneous"],
        "checker.verify_certificate_s": time_of["checker.verify_certificate"],
        "checker.to_json_s": time_of["checker.to_json"],
        "checker.gap_elems": elems,
        "checker.ns_per_gap_elem": scan_s / elems * 1e9 if elems else 0.0,
        "core.classes_s": time_of["core.classes"],
        "colorfile.encode_s": time_of["colorfile.encode_coloring"],
        "colorfile.decode_s": decode_s,
        "colorfile.decode_mb_per_s": decoded_chars / decode_s / 1e6 if decode_s else 0.0,
        "constructions.ladder_s": time_of["constructions.ladder"],
        "constructions.decimal_str_s": time_of["constructions.decimal_str"],
        "constructions.decimal_str_calls": calls["constructions.decimal_str"],
        "progressions.ap_partition_check_s": time_of["progressions.ap_partition_check"],
        "cache.get_s": time_of["cache.get"],
        "cache.put_s": time_of["cache.put"],
        "cache.gets": calls["cache.get"],
        "cache.hits": hits,
    }
