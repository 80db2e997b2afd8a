#!/usr/bin/env python3
"""brownlab benchmark: fixed CLI workloads driven in-process through
``brownlab.cli.run_cli``, one call at a time, every call checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]
    python3 bench/run.py --record

With ``--trace 0`` a run reports the end-to-end metrics, its timings scaled
to reference speed by ``calibrate``; with ``--trace 1``
it alternates untraced and traced iterations and reports the per-layer
metrics.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--all`` runs every workload in
a fresh process, untraced then traced, and prints one table.  ``--record``
rewrites ``pinned.json`` from the checkout's current outputs.

The benchmark imports brownlab from ``src/`` of the checkout it lives in
and refuses to run without it.  It writes only under ``.bench_work/`` and
``.bench_out/`` of that checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibrate
import gate
import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
PINNED = BENCH / "pinned.json"
BASELINE = BENCH / "baseline.json"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cache_hit_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_REPEATS = 15
WARMUP = 1            # iterations run before any is measured
MIN_MEASURED = 3      # measured iterations even when the time is up
MAX_REPORTED_PROBLEMS = 5


def machine() -> dict:
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "gmpy2": importlib.util.find_spec("gmpy2") is not None}


def load_brownlab():
    """Import brownlab afresh from the checkout's src/ and return its cli."""
    for name in [n for n in sys.modules if n == "brownlab" or n.startswith("brownlab.")]:
        del sys.modules[name]
    cli = importlib.import_module("brownlab.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"brownlab was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload, seed: int):
    """Import brownlab and make the workload's inputs, several times; return
    the median time, the compute calibration factor of the reference passes
    beside the repetitions, and the last repetition's modules and inputs,
    which the run uses.  Each
    repetition starts from a collected heap, so the garbage of the previous
    one (purged modules are cyclic) is not charged to it."""
    times = []
    probe = calibrate.Probe(passes=1)
    bursts = []
    for _ in range(SETUP_REPEATS):
        bursts.append(probe.burst())
        gc.collect()
        started = time.perf_counter()
        cli = load_brownlab()
        inputs = workload.prepare(seed)
        times.append(time.perf_counter() - started)
    bursts.append(probe.burst())
    return statistics.median(times), calibrate.factors(bursts)["compute"], cli, inputs


def run_call(cli, argv):
    """Run one CLI call; return (seconds, exit code, stdout).  A call that
    raises gets its traceback in place of an exit code, which the gate
    counts as a failure."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run_cli(list(argv))
        except SystemExit as exc:          # argparse rejects bad flags this way
            code = exc.code
        except Exception:                  # a crash fails the call, not the run
            code = "raised " + traceback.format_exc(limit=-2)
    return time.perf_counter() - started, code, out.getvalue()


def judge(call, code, stdout, pinned) -> list:
    doc = gate.parse(stdout)
    try:
        return gate.check_call(call, code, stdout, doc, pinned), doc
    except Exception:                      # a malformed output is a failed call
        return [traceback.format_exc(limit=2)], doc


def run_iteration(cli, calls, pinned, probe):
    """Run and check one iteration's calls.  Its wall time is the sum of the
    call times; checking and reference passes happen between calls and are
    not counted.  Each call starts from a collected heap, as a fresh CLI
    process would, so the garbage of a large call is not charged to the
    small one after it.  ``record["calls"]`` holds each call's time, whether
    it is a counted cache hit, and its calibration factors: those of the
    reference bursts just before and just after it."""
    record = {"wall": 0.0, "hits": [], "problems": [], "docs": [], "attempted": 0, "failed": 0}
    bursts = [probe.burst()]
    timed = []
    for call in calls:
        if probe.due():
            bursts.append(probe.burst())
        gc.collect()
        seconds, code, stdout = run_call(cli, call.argv)
        problems, doc = judge(call, code, stdout, pinned)
        record["attempted"] += 1
        record["wall"] += seconds
        record["docs"].append(doc or {})
        if problems:
            record["failed"] += 1
            record["problems"].append(f"{' '.join(call.argv)}: {'; '.join(problems)}")
        elif call.cache_hit:
            record["hits"].append(seconds)
        timed.append((seconds, call.cache_hit and not problems, len(bursts) - 1))
    bursts.append(probe.burst())
    record["calls"] = [(seconds, hit, calibrate.factors(bursts[i:i + 2]))
                       for seconds, hit, i in timed]
    return record


def measure(workload, seed: int, seconds: float, trace: bool):
    deadline = time.perf_counter() + seconds
    pinned = json.loads(PINNED.read_text())
    setup_s, setup_speed, cli, inputs = setup(workload, seed)
    probe = calibrate.Probe(kinds=dict.fromkeys(("compute", workload.reference)))
    tracer = spans.Tracer() if trace else None
    memo: dict = {}
    records = []
    while True:
        index = len(records)
        measured = index - WARMUP
        traced = tracer is not None and measured >= 0 and measured % 2 == 1
        started = time.perf_counter()
        if traced:
            first_span = len(tracer.spans)
            tracer.workload, tracer.iteration = workload.name, index
            tracer.install()
            try:
                record = run_iteration(cli, workload.calls(inputs, index), pinned, probe)
            finally:
                tracer.uninstall()
            record["layers"] = spans.iteration_metrics(
                tracer.spans[first_span:], tracer.kept, record["docs"], memo)
            tracer.kept.clear()
        else:
            record = run_iteration(cli, workload.calls(inputs, index), pinned, probe)
        record["traced"] = traced
        record["docs"] = None
        records.append(record)
        elapsed = time.perf_counter() - started
        if measured + 1 >= MIN_MEASURED and time.perf_counter() + elapsed > deadline:
            break
    return setup_s, setup_speed, records, tracer


def result_of(workload, seed: int, seconds: float, trace: bool) -> dict:
    setup_s, setup_speed, records, tracer = measure(workload, seed, seconds, trace)
    for r in records:
        r["wall_at_ref"] = sum(s * f[workload.reference] for s, _, f in r["calls"])
        r["hits_at_ref"] = [s * f["compute"] for s, hit, f in r["calls"] if hit]
    kept = records[WARMUP:]
    plain = [r for r in kept if not r["traced"]]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    problems = [p for r in records for p in r["problems"]]

    if trace:
        traced = [r for r in kept if r["traced"]]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in spans.PER_LAYER if name != "trace.overhead_frac"}
        values["trace.overhead_frac"] = (
            statistics.median(r["wall_at_ref"] for r in traced)
            / statistics.median(r["wall_at_ref"] for r in plain) - 1)
        units = spans.PER_LAYER
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write(span_file)
        note(f"spans: {span_file} ({len(tracer.spans)}); traced iterations {len(traced)}, "
             f"untraced {len(plain)}")
        if tracer.missing:
            note(f"WARNING: public functions not found, their spans are missing: {tracer.missing}")
    else:
        values = {
            "wall_s": statistics.median(r["wall_at_ref"] for r in plain),
            "setup_s": setup_s * setup_speed,
            "cache_hit_s": statistics.median(
                [h for r in plain for h in r["hits_at_ref"]] or [0.0]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        note(f"wall_s samples {len(plain)} (raw s x {workload.reference} speed): "
             + " ".join(f"{r['wall']:.3f}x{r['wall_at_ref'] / r['wall']:.3f}" for r in plain)
             + "; warm-up: " + " ".join(f"{r['wall']:.3f}" for r in records[:WARMUP]))
        note(f"raw medians: wall_s {statistics.median(r['wall'] for r in plain):.4f}, "
             f"setup_s {setup_s:.4f} x{setup_speed:.3f}, cache_hit_s "
             f"{statistics.median([h for r in plain for h in r['hits']] or [0.0]):.5f}")
    note(f"fail_frac {failed / attempted:.4f} ({failed} of {attempted} calls)")
    for p in problems[:MAX_REPORTED_PROBLEMS]:
        note(f"FAILED {p}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def note(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def check_machine() -> None:
    facts = machine()
    note("machine: " + json.dumps(facts, sort_keys=True))
    baseline = json.loads(BASELINE.read_text())["machine"]
    if facts != baseline:
        note(f"WARNING: the baseline was measured on {json.dumps(baseline, sort_keys=True)}; "
             "numbers from a different machine are not comparable with bench/baseline.json")
    if facts["gmpy2"]:
        note("WARNING: gmpy2 is importable, so decimal_str takes another path")


@contextlib.contextmanager
def work_directory():
    """A fresh directory under .bench_work as the cwd, removed afterwards.
    The result cache is pointed inside it in case a call forgets its flags."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK))
    os.environ.pop("BROWNLAB_CACHE", None)
    os.environ["XDG_CACHE_HOME"] = str(path / "xdg-cache")
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(ROOT)
        shutil.rmtree(path, ignore_errors=True)


def record_pins() -> int:
    """Write pinned.json from one iteration of every workload."""
    pinned = {}
    cli = load_brownlab()
    for workload in WORKLOADS.values():
        with work_directory():
            inputs = workload.prepare(0)
            for call in workload.calls(inputs, 0):
                if call.pin is None:
                    continue
                _, code, stdout = run_call(cli, call.argv)
                entry = gate.pin_record(stdout, gate.parse(stdout) or {})
                if call.pin not in pinned:
                    note(f"{call.pin}: exit {code}, {len(stdout)} bytes, {entry['summary']}")
                if pinned.setdefault(call.pin, entry) != entry:
                    note(f"{call.pin}: output differs between identical calls")
                    return 1
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    note(f"wrote {PINNED}")
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Every workload in its own process, untraced then traced; one table."""
    check_machine()
    rows = []
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            note(f"== {name} trace={trace}")
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                note(f"{name} trace={trace} exited with {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            if trace == 0:
                rows.append((name, "fail_frac", result["failed"] / result["attempted"], "ratio"))
            rows.extend((name, metric, m["value"], m["unit"])
                        for metric, m in result["metrics"].items())
    print(f"{'workload':<11} {'metric':<34} {'value':>16} unit")
    for name, metric, value, unit in rows:
        print(f"{name:<11} {metric:<34} {value:>16.6g} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, print one table")
    parser.add_argument("--record", action="store_true", help="rewrite pinned.json")
    args = parser.parse_args(argv)

    if not (SRC / "brownlab" / "__init__.py").is_file():
        note(f"error: no brownlab sources under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    if args.record:
        return record_pins()
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("give --workload, --all or --record")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    check_machine()
    with work_directory():
        result = result_of(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
