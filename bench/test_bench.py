"""Tests of the benchmark's own logic; none runs a full workload.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(sid, parent, name, start, end):
    return [sid, parent, name, start, end, "w", 0]


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span(0, None, "cli.run_cli", 0.0, 10.0),
        _span(1, 0, "search.brown_number", 1.0, 4.0),
        _span(2, 0, "checker.is_witness", 5.0, 9.0),
        _span(3, 2, "core.classes", 6.0, 8.0),
    ]
    assert spans.self_times(tree) == {0: 3.0, 1: 3.0, 2: 2.0, 3: 2.0}


def test_layer_metrics_from_a_synthetic_iteration():
    tree = [
        _span(0, None, "cli.run_cli", 0.0, 10.0),
        _span(1, 0, "search.brown_number", 1.0, 7.0),
        _span(2, 1, "checker.is_witness", 5.0, 6.5),
        _span(3, 0, "constructions.decimal_str", 8.0, 8.5),
        _span(4, 0, "constructions.decimal_str", 9.0, 9.25),
    ]
    docs = [{"command": "brown", "cache": "off", "nodes": 1000, "witness_length": 7},
            {"command": "brown", "cache": "hit", "nodes": 99, "witness_length": 99}]
    m = spans.iteration_metrics(tree, {}, docs, {})
    assert m["search.self_s"] == pytest.approx(4.5)
    assert m["search.ns_per_node"] == pytest.approx(4.5e6)
    assert (m["search.nodes"], m["search.depth"]) == (1000, 7)
    assert m["checker.is_witness_s"] == pytest.approx(1.5)
    assert m["constructions.decimal_str_calls"] == 2
    assert m["constructions.decimal_str_s"] == pytest.approx(0.75)
    assert m["cli.self_s"] == pytest.approx(3.25)
    assert set(m) == set(spans.PER_LAYER) - {"trace.overhead_frac"}


def test_gap_elems_counts_distinct_gaps_times_class_size():
    # class 0 = {0, 1, 3}: gaps {1, 2}; class 1 = {2, 4}: gaps {2} plus 1
    assert spans.gap_elems((0, 0, 1, 0, 1), 2) == 3 * 2 + 2 * 2


def test_calibration_factor_scales_to_reference_speed():
    ref = calibrate.NOMINAL_S["memory"]
    # passes twice as slow as the reference: raw times are halved
    assert calibrate.factor("memory", [2 * ref, 2 * ref, 100 * ref]) == pytest.approx(0.5)
    assert calibrate.factor("memory", [ref]) == pytest.approx(1.0)
    slow, fast = {"memory": [2 * ref, 2 * ref]}, {"memory": [ref]}
    assert calibrate.factors([slow, fast]) == {"memory": pytest.approx(0.5)}


def test_probe_bursts_wait_for_the_interval():
    probe = calibrate.Probe(kinds=("compute", "memory"), interval=3600)
    assert probe.due()
    burst = probe.burst()
    assert not probe.due()
    assert {kind: len(times) for kind, times in burst.items()} == {
        "compute": calibrate.BURST, "memory": calibrate.BURST}


@pytest.fixture
def cli(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return run.load_brownlab()


SMALL = workloads.Call(("brown", "--f", "linear:1", "--r", "2", "--no-cache"),
                       pin="small", cache="off")


def _pinned_small(cli):
    _, code, stdout = run.run_call(cli, SMALL.argv)
    assert code == 0
    return stdout, {"small": gate.pin_record(stdout, gate.parse(stdout))}


def _judge(call, code, stdout, pinned):
    return gate.check_call(call, code, stdout, gate.parse(stdout), pinned)


def test_gate_accepts_the_pinned_output_whatever_its_wall_time(cli):
    stdout, pinned = _pinned_small(cli)
    assert _judge(SMALL, 0, stdout, pinned) == []
    retimed = gate.normalize(stdout).replace('"wall_time":null', '"wall_time":98.765432')
    assert retimed != stdout
    assert _judge(SMALL, 0, retimed, pinned) == []


def test_gate_fails_a_node_count_off_by_one(cli):
    stdout, pinned = _pinned_small(cli)
    nodes = json.loads(stdout)["nodes"]
    mutated = stdout.replace(f'"nodes":{nodes},', f'"nodes":{nodes + 1},')
    assert mutated != stdout
    problems = _judge(SMALL, 0, mutated, pinned)
    assert problems and f"nodes {nodes + 1}" in problems[0]


def test_gate_fails_a_wrong_exit_code(cli):
    stdout, pinned = _pinned_small(cli)
    assert _judge(SMALL, 1, stdout, pinned) == ["exit code 1, expected 0"]


def test_gate_fails_a_stale_cache_state(cli):
    stdout, pinned = _pinned_small(cli)
    stale = stdout.replace('"cache":"off"', '"cache":"hit"')
    problems = _judge(SMALL, 0, stale, pinned)
    assert problems[0] == "cache state 'hit', expected 'off'"


def test_a_call_that_raises_is_a_failed_call(cli, monkeypatch):
    stdout, pinned = _pinned_small(cli)

    def broken(argv):
        raise ValueError("max() arg is an empty sequence")

    monkeypatch.setattr(cli, "run_cli", broken)
    _, code, out = run.run_call(cli, SMALL.argv)
    problems = _judge(SMALL, code, out, pinned)
    assert problems[0].startswith("exit code raised Traceback")
    assert "ValueError" in problems[0]


def test_gate_fails_output_that_is_not_json(cli):
    stdout, pinned = _pinned_small(cli)
    assert _judge(SMALL, 0, stdout[:-5], pinned) == ["stdout is not one JSON object"]


def test_each_call_is_calibrated_by_the_bursts_beside_it(cli, monkeypatch):
    _, pinned = _pinned_small(cli)
    probe = calibrate.Probe(kinds=("compute", "memory"), interval=3600)
    made = []
    burst = probe.burst
    monkeypatch.setattr(probe, "burst", lambda: made.append(burst()) or made[-1])
    record = run.run_iteration(cli, [SMALL, SMALL], pinned, probe)
    assert record["failed"] == 0 and record["attempted"] == 2
    assert len(made) == 2                # before the first call, after the last
    assert [f for _, _, f in record["calls"]] == [calibrate.factors(made)] * 2
    assert sum(s for s, _, _ in record["calls"]) == record["wall"]


def _random_file_calls(cli, length=400):
    values = workloads.write_random_coloring(7, Path("r.col"), length=length)
    outputs = {}
    for f in ("linear:1000", "exp2"):
        _, code, stdout = run.run_call(cli, ("check", "--input", "r.col", "--f", f))
        outputs[f] = (code, json.loads(stdout))
    return values, outputs


def test_witness_check_verifies_the_certificate_and_catches_tampering(cli):
    values, outputs = _random_file_calls(cli)
    code, doc = outputs["linear:1000"]
    assert code == 0
    assert workloads.witness_check(values, 16, set())(doc) == []
    tampered = json.loads(json.dumps(doc))
    tampered["certificate"]["classes"][0][0][1] += 5000   # a run longer than f(d)
    assert workloads.witness_check(values, 16, set())(tampered)
    other = values[:-1] + ((values[-1] + 1) % 16,)
    assert workloads.witness_check(other, 16, set())(doc) == [
        "certificate coloring differs from the input file"]


def test_violation_check_accepts_a_real_window_and_rejects_a_mutated_one(cli):
    values, outputs = _random_file_calls(cli)
    code, doc = outputs["exp2"]
    assert code == 1
    check = workloads.violation_check(values, lambda d: 2 ** d)
    assert check(doc) == []
    shorter = json.loads(json.dumps(doc))
    shorter["violation"]["length"] -= 1
    assert check(shorter)
    generous = workloads.violation_check(values, lambda d: 10 ** 6)
    assert generous(doc)


def test_tracer_wraps_every_binding_by_identity_and_restores_them(cli):
    import brownlab
    from brownlab import checker

    original = checker.is_witness
    assert cli.is_witness is original and brownlab.is_witness is original
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert checker.is_witness is not original
        assert cli.is_witness is checker.is_witness is brownlab.is_witness
        # outside a run_cli root span nothing is recorded
        brownlab.is_witness(brownlab.Coloring(2, (0, 1)), brownlab.GrowthFn.exp2())
        assert tracer.spans == []
        run.run_call(cli, SMALL.argv)
    finally:
        tracer.uninstall()
    assert checker.is_witness is original and cli.is_witness is original
    names = [s[2] for s in tracer.spans]
    assert names[0] == spans.ROOT and tracer.spans[0][1] is None
    assert "search.brown_number" in names and "checker.is_witness" in names
    by_id = {s[0]: s for s in tracer.spans}
    witness = next(s for s in tracer.spans if s[2] == "checker.is_witness")
    assert by_id[witness[1]][2] == "search.brown_number"


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
