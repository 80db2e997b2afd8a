import dataclasses
import hashlib
import json
import math
import re
import sys
import time
import tracemalloc
from importlib import import_module
from pathlib import Path

import pytest

from brownlab import checker, cli, colorfile, constructions
from brownlab.cache import ResultCache
from brownlab.checker import WitnessCertificate, verify_certificate
from brownlab.cli import DEFAULT_NODE_BUDGET, _budget, _cached, build_parser, run_cli
from brownlab.colorfile import LENGTH_CAP, encode_coloring, rle_string
from brownlab.core import Coloring
from brownlab.errors import InvalidArgumentError


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("BROWNLAB_CACHE", str(tmp_path / "cache"))
    return tmp_path


def _run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def _edit_cache_entry(cache_dir, edit):
    [path] = cache_dir.glob("*.json")
    entry = json.loads(path.read_text())
    edit(entry)
    path.write_text(json.dumps(entry))


ROOT = Path(__file__).resolve().parents[1]


def _masked(text):
    """CLI stdout with the wall time zeroed."""
    return re.sub(r'"wall_time":[0-9.e-]+', '"wall_time":0', text)


# ---------------------------------------------------------------------------
# brown / vdw
# ---------------------------------------------------------------------------


def test_python_dash_m_runs_the_cli(cache_env, python_m, capsys):
    code, out, err = python_m("vdw", "--r", "2", "--l", "3", "--no-cache")
    assert code == 0, err
    assert json.loads(out)["value"] == 9
    # the same stdout as run_cli in this process, the wall time aside
    assert run_cli(["vdw", "--r", "2", "--l", "3", "--no-cache"]) == 0
    assert _masked(out) == _masked(capsys.readouterr().out)


def test_entry_points_call_run_cli(cache_env, python_m):
    code, out, err = python_m("bounds", "--m", "1", "--r-max", "1")
    assert code == 0, err
    assert json.loads(out)["command"] == "bounds"
    tomllib = pytest.importorskip("tomllib")   # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["brownlab"]
    module, _, name = target.partition(":")
    assert getattr(import_module(module), name) is run_cli


def test_brown_exact_json(cache_env, capsys):
    code, payload, _ = _run(capsys, "brown", "--f", "linear:1", "--r", "1")
    assert code == 0
    assert payload["kind"] == "exact"
    assert payload["value"] == 2
    assert payload["cache"] == "miss"
    assert payload["bounds"]["ardal"] == "2"


def test_brown_oracle_agreement(cache_env, capsys):
    code, payload, _ = _run(capsys, "brown", "--f", "linear:1", "--r", "2", "--oracle")
    assert code == 0
    assert payload["oracle_agreed"] is True
    assert payload["value"] == payload["oracle_value"] <= 5


def test_oracle_enumerates_the_closure_the_search_answered_for(capsys):
    # table:3,1,2 is not nondecreasing: the search answers for its closure
    # (3, 4, 6, ...), whose threshold at r = 1 is 5; the original's is 2
    code, payload, err = _run(capsys, "brown", "--f", "table:3,1,2", "--r", "1", "--oracle",
                              "--no-cache")
    assert code == 0, err
    assert (payload["value"], payload["used_closure"]) == (5, True)
    assert (payload["oracle_value"], payload["oracle_agreed"]) == (5, True)


@pytest.mark.parametrize("value,oracle_value", [(4, 5), (3, None)])
def test_oracle_reports_a_search_that_says_too_little(cache_env, capsys, monkeypatch, value,
                                                      oracle_value):
    # B(linear:1, 2) = 5; the enumeration runs up to value + 1, so a search two
    # short leaves it without a value, which is still a disagreement
    search = cli.brown_number
    monkeypatch.setattr(cli, "brown_number", lambda *args, **kwargs: dataclasses.replace(
        search(*args, **kwargs), value=value, lower=value, upper=value))
    code, payload, err = _run(capsys, "brown", "--f", "linear:1", "--r", "2", "--oracle",
                              "--no-cache")
    assert code == 1
    assert (payload["value"], payload["oracle_value"], payload["oracle_agreed"]) == (
        value, oracle_value, False)
    assert f"ORACLE DISAGREEMENT: search says {value}" in err


@pytest.mark.parametrize("argv,message", [
    (("brown", "--f", "linear:1", "--r", "2", "--max-n", "2"),
     "--oracle needs an exact outcome; raise the budget or drop --max-n"),
    (("vdw", "--r", "2", "--l", "4", "--no-cache"),
     "--oracle is for small instances only (value <= 18)"),
], ids=["bracket", "value-35"])
def test_oracle_refuses_what_it_cannot_enumerate(cache_env, capsys, monkeypatch, argv,
                                                 message):
    def never(*args, **kwargs):
        raise AssertionError("the enumeration ran")

    monkeypatch.setattr(cli, "brown_number_bruteforce", never)
    monkeypatch.setattr(cli, "vdw_number_bruteforce", never)
    code, payload, err = _run(capsys, *argv, "--oracle")
    assert (code, payload) == (2, None)
    assert err == f"error: {message}\n"


def test_oracle_refuses_more_than_three_colors_before_searching(cache_env, capsys,
                                                                 monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "brown_number", never)
    monkeypatch.setattr(cli, "vdw_number", never)
    for argv in (("brown", "--f", "linear:1", "--r", "4", "--budget-nodes", "0"),
                 ("vdw", "--r", "4", "--l", "3")):
        code, payload, err = _run(capsys, *argv, "--oracle")
        assert (code, payload) == (2, None), argv
        assert err.startswith("error: --oracle is for small instances only")


def test_brown_bracket_at_cap(cache_env, capsys):
    code, payload, _ = _run(capsys, "brown", "--f", "exp2", "--r", "2", "--max-n", "16")
    assert code == 0
    assert payload["kind"] == "bracketed"
    assert payload["lower"] == 17
    assert payload["upper"] == 33
    assert payload["certificate"]["length"] == 16


@pytest.mark.parametrize("argv,lower,note", [
    (("brown", "--f", "linear:2", "--r", "2", "--max-n", "5"), 6,
     "brown(linear:2, r=2) in [6, 17] (stopped at --max-n 5 after 6 nodes)"),
    (("brown", "--f", "linear:2", "--r", "2", "--max-n", "5", "--budget-nodes", "5"), 5,
     "brown(linear:2, r=2) in [5, 17] (budget exhausted after 5 nodes)"),
    (("vdw", "--r", "2", "--l", "3", "--max-n", "3", "--jobs", "2"), 4,
     "vdw(r=2, l=3) in [4, ?] (stopped at --max-n 3 after 4 nodes)"),
    (("vdw", "--r", "2", "--l", "3", "--budget-nodes", "4"), 4,
     "vdw(r=2, l=3) in [4, ?] (budget exhausted after 4 nodes)"),
    (("brown", "--f", "linear:2", "--r", "2", "--max-n", "0"), 1,
     "brown(linear:2, r=2) in [1, 17] (stopped at --max-n 0 after 0 nodes)"),
    (("brown", "--f", "linear:2", "--r", "2", "--budget-seconds", "0"), 1,
     "brown(linear:2, r=2) in [1, 17] (deadline passed after 0 nodes)"),
])
def test_bracket_note_names_why_the_search_stopped(cache_env, capsys, argv, lower, note):
    code, payload, err = _run(capsys, *argv, "--no-cache")
    assert code == 0
    assert (payload["kind"], payload["lower"]) == ("bracketed", lower)
    assert err.splitlines() == [note]


def test_max_n_bypasses_a_warm_cache(cache_env, capsys):
    assert _run(capsys, "vdw", "--r", "2", "--l", "3")[1]["value"] == 9
    code, payload, err = _run(capsys, "vdw", "--r", "2", "--l", "3", "--max-n", "3")
    assert code == 0
    assert (payload["kind"], payload["lower"], payload["cache"]) == ("bracketed", 4, "off")
    assert "stopped at --max-n 3" in err
    assert _run(capsys, "vdw", "--r", "2", "--l", "3")[1]["cache"] == "hit"


def test_brown_require_exact_budget_exit(cache_env, capsys):
    code, payload, _ = _run(capsys, "brown", "--f", "linear:2", "--r", "2",
                            "--budget-nodes", "10", "--require-exact")
    assert code == 3
    assert payload["kind"] == "bracketed"


def test_brown_cache_hit_replays_identical_json(cache_env, capsys):
    code1, first, _ = _run(capsys, "brown", "--f", "linear:2", "--r", "2")
    code2, second, _ = _run(capsys, "brown", "--f", "linear:2", "--r", "2")
    assert code1 == code2 == 0
    assert first["cache"] == "miss" and second["cache"] == "hit"
    first.pop("cache")
    second.pop("cache")
    assert first == second


def test_brown_corrupt_cache_entry_is_recomputed(cache_env, capsys):
    code, payload, _ = _run(capsys, "brown", "--f", "linear:1", "--r", "1")
    assert code == 0
    cache_dir = cache_env / "cache"
    entries = list(cache_dir.glob("*.json"))
    assert len(entries) == 1
    entries[0].write_text("{ not json")
    code, payload, _ = _run(capsys, "brown", "--f", "linear:1", "--r", "1")
    assert code == 0
    assert payload["cache"] == "miss"
    assert payload["value"] == 2


def test_cache_entry_nested_past_the_recursion_limit_is_a_miss(cache_env, capsys):
    _run(capsys, "brown", "--f", "linear:1", "--r", "2")
    [path] = (cache_env / "cache").glob("*.json")
    path.write_text("[" * 100_000)
    code, payload, _ = _run(capsys, "brown", "--f", "linear:1", "--r", "2")
    assert (code, payload["cache"], payload["value"]) == (0, "miss", 5)


def test_cache_entry_of_another_version_is_a_miss(cache_env, capsys):
    _run(capsys, "brown", "--f", "linear:1", "--r", "1")
    _edit_cache_entry(cache_env / "cache", lambda e: e.update(version="brownlab-0.0.0"))
    code, payload, _ = _run(capsys, "brown", "--f", "linear:1", "--r", "1")
    assert (code, payload["cache"], payload["value"]) == (0, "miss", 2)


BROWN_LIN1_R2 = ("brown", "--f", "linear:1", "--r", "2")   # value 5, witness length 4
VDW_R2_L3 = ("vdw", "--r", "2", "--l", "3")                # value 9, witness length 8
BROWN_TABLE_R2 = ("brown", "--f", "table:3,1,2", "--r", "2")  # value 25, on its closure


# value, lower and upper are witness_length + 1 and used_closure is the key's,
# so an entry can forge only its witness, its length, nodes and wall_time
@pytest.mark.parametrize("argv,value,edit", [
    (BROWN_LIN1_R2, 5, lambda e: e["result"].update(witness_length=3)),
    (BROWN_LIN1_R2, 5, lambda e: e["result"].update(witness_rle="0x4")),
    # a third color under palette 2
    (BROWN_LIN1_R2, 5, lambda e: e["result"].update(witness_rle="0x1 1x1 2x1 0x1")),
    # a witness for linear:2
    (BROWN_LIN1_R2, 5, lambda e: e["result"].update(witness_rle="0x2 1x2")),
    # the witness of closure:linear:1 (value 7)
    (BROWN_LIN1_R2, 5, lambda e: e["result"].update(witness_rle=rle_string((0, 1) * 3),
                                                     witness_length=6)),
    (BROWN_LIN1_R2, 5, lambda e: e["result"].update(nodes="x")),
    (BROWN_LIN1_R2, 5, lambda e: e["result"].update(nodes=-1)),
    (BROWN_LIN1_R2, 5, lambda e: e["result"].update(wall_time="x")),
    (BROWN_LIN1_R2, 5, lambda e: e["result"].update(wall_time=-1)),
    (VDW_R2_L3, 9, lambda e: e["result"].update(witness_length=7)),
    (VDW_R2_L3, 9, lambda e: e["result"].update(witness_rle="0x8")),
], ids=["brown-bracket-and-length", "brown-certificate-body", "brown-certificate-palette",
        "brown-certificate-growth", "brown-forged-closure", "brown-nodes-not-int",
        "brown-nodes-negative", "brown-wall-time-not-number", "brown-wall-time-negative",
        "vdw-bracket-and-length", "vdw-witness-body"])
def test_cache_entry_failing_its_audit_is_rejected_and_overwritten(cache_env, capsys,
                                                                   argv, value, edit):
    _run(capsys, *argv)
    _edit_cache_entry(cache_env / "cache", edit)
    code, payload, _ = _run(capsys, *argv)
    assert (code, payload["cache"], payload["value"]) == (0, "rejected", value)
    code, payload, _ = _run(capsys, *argv)
    assert (code, payload["cache"], payload["value"]) == (0, "hit", value)


def test_cache_entry_holds_only_what_the_search_found(cache_env, capsys):
    _run(capsys, "brown", "--f", "linear:2", "--r", "2")
    [path] = (cache_env / "cache").glob("*.json")
    entry = json.loads(path.read_text())
    assert entry["key"] == {"command": "brown", "growth": "linear:2", "r": 2}
    assert sorted(entry["result"]) == ["nodes", "wall_time", "witness_length", "witness_rle"]


@pytest.mark.parametrize("argv", [("brown", "--f", "linear:2", "--r", "2"), BROWN_TABLE_R2,
                                  VDW_R2_L3], ids=["brown", "brown-closure", "vdw"])
def test_cache_hit_prints_the_miss_stdout(cache_env, capsys, argv):
    run_cli(list(argv))
    miss = capsys.readouterr()
    run_cli(list(argv))
    hit = capsys.readouterr()
    assert '"cache":"miss"' in miss.out
    assert hit.out == miss.out.replace('"cache":"miss"', '"cache":"hit"')
    assert hit.err == miss.err.replace("cache miss", "cache hit")


def test_forged_printed_fields_in_a_cache_entry_never_reach_stdout(cache_env, capsys):
    code, miss, _ = _run(capsys, *BROWN_LIN1_R2)
    _edit_cache_entry(cache_env / "cache", lambda e: e["result"].update(
        bounds={"ardal": "1", "recursion": "1"}, growth="exp2", forged=True))
    code, hit, _ = _run(capsys, *BROWN_LIN1_R2)
    assert (code, hit.pop("cache"), miss.pop("cache")) == (0, "hit", "miss")
    assert hit == miss and hit["bounds"]["ardal"] == "5"


def test_bounds_lists_only_audited_cache_entries(cache_env, capsys):
    _run(capsys, *BROWN_LIN1_R2)
    _edit_cache_entry(cache_env / "cache", lambda e: e["result"].update(witness_rle="0x4"))
    _run(capsys, "brown", "--f", "linear:1", "--r", "1")
    code, payload, _ = _run(capsys, "bounds", "--m", "1", "--r-max", "2")
    assert code == 0
    assert [row["cached"] for row in payload["rows"]] == [{"kind": "exact", "value": 2}, None]


@pytest.mark.parametrize("argv,key", [
    (("brown", "--f", "linear:1", "--r", "0"), {"command": "brown", "growth": "linear:1", "r": 0}),
    (("vdw", "--r", "0", "--l", "3"), {"command": "vdw", "r": 0, "l": 3}),
], ids=["brown", "vdw"])
def test_a_cache_entry_for_no_colors_is_never_served(cache_env, capsys, argv, key):
    # no search stores one: the empty witness of an empty palette is rejected, and
    # the search it falls back to refuses r = 0
    ResultCache(cache_env / "cache").put(key, {"witness_rle": "", "witness_length": 0,
                                              "nodes": 0, "wall_time": 0.0})
    code, payload, err = _run(capsys, *argv)
    assert (code, payload) == (2, None)
    assert err == "error: r and l must be >= 1 and the length cap a natural\n"


def test_huge_run_in_a_vdw_cache_entry_is_rejected_before_allocation(cache_env, capsys):
    _run(capsys, *VDW_R2_L3)
    _edit_cache_entry(cache_env / "cache",
                      lambda e: e["result"].update(witness_rle="0x10000000"))   # 10**7
    cache = ResultCache(cache_env / "cache")
    tracemalloc.start()
    try:
        state = _cached(cache, {"command": "vdw", "r": 2, "l": 3}, None)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (state, peak < 1_000_000) == ("rejected", True)
    code, payload, _ = _run(capsys, *VDW_R2_L3)
    assert (code, payload["cache"], payload["value"]) == (0, "rejected", 9)


WIDE_R = 1 << 70           # a palette wider than any packing of the values


def test_a_cache_value_too_wide_to_pack_is_rejected(cache_env, capsys):
    # no walk reaches color 2**65, so only a forged entry holds it
    cache = ResultCache(cache_env / "cache")
    entry = {"witness_rle": f"{1 << 65}x1", "witness_length": 1, "nodes": 1, "wall_time": 0.0}
    brown = {"command": "brown", "growth": "linear:1", "r": WIDE_R}
    cache.put(brown, entry)
    # the brown command itself spends minutes in the recursion bound at this r
    assert _cached(cache, brown, cli._parse_growth("linear:1")) == (None, "rejected")
    cache.put({"command": "vdw", "r": WIDE_R, "l": 3}, entry)
    code, payload, _ = _run(capsys, "vdw", "--r", str(WIDE_R), "--l", "3",
                            "--budget-nodes", "1000")
    assert (code, payload["cache"], payload["kind"]) == (0, "rejected", "bracketed")


def test_huge_witness_length_in_a_brown_cache_entry_is_rejected_before_allocation(cache_env,
                                                                                 capsys):
    _run(capsys, *BROWN_LIN1_R2)
    _edit_cache_entry(cache_env / "cache", lambda e: e["result"].update(
        witness_rle="0x1000000000", witness_length=1_000_000_000))
    cache = ResultCache(cache_env / "cache")
    key = {"command": "brown", "growth": "linear:1", "r": 2}
    tracemalloc.start()
    try:
        state = _cached(cache, key, cli._parse_growth("linear:1"))[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (state, peak < 1_000_000) == ("rejected", True)
    code, payload, _ = _run(capsys, *BROWN_LIN1_R2)
    assert (code, payload["cache"], payload["value"]) == (0, "rejected", 5)
    code, payload, _ = _run(capsys, *BROWN_LIN1_R2)
    assert (code, payload["cache"], payload["value"]) == (0, "hit", 5)


@pytest.mark.parametrize("argv", [
    ("brown", "--f", "linear:1", "--r", "1", "--no-cache", "--certificate", "{dir}"),
    ("brown", "--f", "linear:1", "--r", "1", "--cache-dir", "{file}"),
    ("ladder", "--s", "1", "--out", "{dir}"),
    ("diag", "--d", "2", "--n", "8", "--out", "{dir}"),
], ids=["certificate", "cache-dir", "ladder", "diag"])
def test_a_failed_write_exits_two_naming_the_path(tmp_path, capsys, argv):
    target = tmp_path / "file"
    target.write_text("")
    argv = [a.format(dir=tmp_path, file=target) for a in argv]
    code, payload, err = _run(capsys, *argv)
    assert (code, payload) == (2, None)
    assert err.startswith(f"error: cannot write {argv[-1]}: ")


@pytest.mark.parametrize("flags,nodes,seconds", [
    ((), DEFAULT_NODE_BUDGET, None),
    (("--budget-seconds", "10"), None, 10.0),
    (("--budget-nodes", "500"), 500, None),
    (("--budget-nodes", "500", "--budget-seconds", "10"), 500, 10.0),
    (("--budget-nodes", "0"), None, None),
], ids=["neither", "seconds-only", "nodes-only", "both", "nodes-unlimited"])
def test_budget_flags(flags, nodes, seconds):
    args = build_parser().parse_args(["brown", "--f", "exp2", "--r", "3", *flags])
    budget = _budget(args)
    assert (budget.max_nodes, budget.max_seconds) == (nodes, seconds)


def test_bad_jobs_exits_two_on_a_warm_cache(tmp_path, capsys):
    argv = ("brown", "--f", "linear:1", "--r", "1", "--cache-dir", str(tmp_path))
    assert _run(capsys, *argv)[0] == 0
    code, payload, err = _run(capsys, *argv, "--jobs", "0")
    assert (code, payload) == (2, None)
    assert "error" in err


def test_brown_usage_errors(cache_env, capsys):
    code, _, err = _run(capsys, "brown", "--f", "linear:x", "--r", "1")
    assert code == 2 and "growth spec" in err
    code, _, err = _run(capsys, "brown", "--f", "linear:1", "--r", "0")
    assert code == 2
    commands = (("brown", "--f", "linear:1", "--r", "1"),
                ("vdw", "--r", "2", "--l", "3"),
                ("confirm", "--n", "2", "--f", "linear:1", "--r", "1"))
    bad_flags = (("--jobs", "0"), ("--jobs", "-3"), ("--budget-nodes", "-5"),
                 ("--budget-seconds", "-1"))
    for command in commands:
        for flags in bad_flags + ((("--max-n", "-1"),) if command[0] != "confirm" else ()):
            code, payload, err = _run(capsys, *command, *flags)
            assert (code, payload) == (2, None), (command, flags)
            assert "error" in err


def test_brown_overflowing_bound_brackets_without_upper(cache_env, capsys):
    # the recursion's fourth term is 2**(3 * 2**33 + 1) and must not be built
    code, payload, _ = _run(capsys, "brown", "--f", "exp2", "--r", "4",
                            "--budget-nodes", "100", "--no-cache")
    assert code == 0
    assert payload["kind"] == "bracketed"
    assert payload["upper"] is None
    assert payload["bounds"] == {"ardal": None, "recursion": None}


@pytest.mark.parametrize("growth,r,digits", [("linear:1", 14270, 4300), ("linear:1", 14271, 4301),
                                             ("linear:1", 20000, 6025), ("linear:5", 3000, 4519)])
def test_brown_prints_no_upper_bound_too_long_for_str(cache_env, capsys, growth, r, digits):
    # json spells an int with str(), which refuses more than sys.get_int_max_str_digits()
    # digits (4,300 by default); such a bound is null, its digits stay in "bounds"
    code, payload, err = _run(capsys, "brown", "--f", growth, "--r", str(r),
                              "--budget-nodes", "1", "--no-cache")
    ardal = payload["bounds"]["ardal"]
    assert (code, payload["kind"], len(ardal)) == (0, "bracketed", digits)
    assert payload["upper"] == (int(ardal) if digits <= sys.get_int_max_str_digits() else None)
    assert f"in [2, {ardal[0]}.{ardal[1:5]}e+{digits - 1}]" in err


def test_bounds_render_the_same_under_a_small_int_digit_limit(python_m, monkeypatch):
    # decimal_str renders bounds of up to 4,000 bits (about 1,205 digits) without str(int),
    # which refuses more digits than PYTHONINTMAXSTRDIGITS
    plain = python_m("bounds", "--m", "3000", "--r-max", "1")
    assert plain[0] == 0, plain[2]
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "640")
    assert python_m("bounds", "--m", "3000", "--r-max", "1") == plain
    code, out, err = python_m("brown", "--f", "linear:1", "--r", "2500", "--budget-nodes", "1",
                              "--no-cache")
    assert code == 0, err
    assert (json.loads(out)["upper"], len(json.loads(out)["bounds"]["ardal"])) == (None, 756)


@pytest.mark.parametrize("r,l", [(1_000_000_000, 3), (1_048_576, 7)])
def test_a_wide_vdw_palette_builds_only_the_colors_a_walk_reaches(python_m, capsys, r, l):
    # a canonical walk of 1,000 attempts tries no color past 1,000, so the rule
    # holds 1,001 colors: the same walk as on 1,001 colors
    argv = ["vdw", "--r", str(r), "--l", str(l), "--budget-nodes", "1000", "--no-cache"]
    code, out, err = python_m(*argv)
    assert code == 0, err
    argv[2] = "1001"
    assert run_cli(argv) == 0
    assert _masked(out) == _masked(capsys.readouterr().out).replace('"r":1001,', f'"r":{r},')


def test_parallel_search_keeps_one_deadline(cache_env, capsys):
    started = time.monotonic()
    code, payload, _ = _run(capsys, "brown", "--f", "exp2", "--r", "3", "--jobs", "2",
                            "--budget-seconds", "2", "--budget-nodes", "0", "--no-cache")
    assert time.monotonic() - started <= 2 + 1
    assert code == 0
    assert payload["kind"] == "bracketed"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("budget", ["10", "40"])
def test_node_budget_holds_under_jobs(cache_env, capsys, jobs, budget):
    flags = ("--budget-nodes", budget, "--jobs", jobs)
    for argv in (("brown", "--f", "linear:3", "--r", "2", "--no-cache"),
                 ("vdw", "--r", "3", "--l", "3", "--no-cache")):
        code, payload, _ = _run(capsys, *argv, *flags)
        assert code == 0 and payload["kind"] == "bracketed"
        assert payload["nodes"] <= int(budget)
    # B(linear:3, 2) = 25, so an exhausted budget must leave the answer open
    code, payload, _ = _run(capsys, "confirm", "--n", "25", "--f", "linear:3", "--r", "2", *flags)
    assert (code, payload["no_witness"]) == (1, None)
    assert payload["nodes"] <= int(budget)


def test_brown_writes_certificate_file(cache_env, capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, payload, _ = _run(capsys, "brown", "--f", "linear:1", "--r", "1",
                            "--certificate", str(path))
    assert code == 0
    assert payload["certificate_path"] == str(path)
    stored = json.loads(path.read_text())
    assert stored == payload["certificate"]


def test_vdw_exact(cache_env, capsys):
    code, payload, _ = _run(capsys, "vdw", "--r", "2", "--l", "3", "--oracle")
    assert code == 0
    assert payload["value"] == 9
    assert payload["oracle_agreed"] is True


def test_confirm_command(cache_env, capsys):
    code, payload, _ = _run(capsys, "confirm", "--n", "2", "--f", "linear:1", "--r", "1")
    assert code == 0 and payload["no_witness"] is True
    code, payload, _ = _run(capsys, "confirm", "--n", "1", "--f", "linear:1", "--r", "1")
    assert code == 1 and payload["no_witness"] is False


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_witness_and_violation(tmp_path, capsys):
    c1 = Coloring(2, tuple(int(ch) for ch in "0011001100110011"))
    good = tmp_path / "c1.col"
    good.write_text(encode_coloring(c1))
    code, payload, _ = _run(capsys, "check", "--input", str(good), "--f", "exp2")
    assert code == 0
    assert payload["witness"] is True
    assert payload["certificate"]["palette"] == 2

    bad = tmp_path / "solid.col"
    bad.write_text(encode_coloring(Coloring(1, (0, 0, 0))))
    code, payload, _ = _run(capsys, "check", "--input", str(bad), "--f", "linear:1")
    assert code == 1
    assert payload["violation"] == {"color": 0, "start": 0, "end": 2,
                                    "gap_size": 1, "length": 3}


def test_check_scans_a_non_witness_once(tmp_path, capsys, monkeypatch):
    # class 0 fits linear:1, class 1 does not: the violation is past the first class
    coloring = Coloring(2, (0, 1, 1, 0, 1))
    path = tmp_path / "bad.col"
    path.write_text(encode_coloring(coloring))
    # one pass over the values: one walk of the run kernel, whose pairs are the values' own
    scans = []
    class_runs = checker._class_runs
    monkeypatch.setattr(checker, "_class_runs",
                        lambda pairs: scans.append(pairs) or class_runs(pairs))
    code, payload, _ = _run(capsys, "check", "--input", str(path), "--f", "linear:1")
    assert (code, len(scans)) == (1, 1)
    assert payload["violation"] == {"color": 1, "start": 1, "end": 2,
                                    "gap_size": 1, "length": 2}


def test_check_of_the_stage_two_ladder_reuses_the_file_body(tmp_path, capsys, monkeypatch):
    path = tmp_path / "s2.col"
    assert _run(capsys, "ladder", "--s", "2", "--out", str(path))[0] == 0

    def reencode(values):
        raise AssertionError("the certificate re-encoded a canonical body")

    monkeypatch.setattr(colorfile, "_runs", reencode)
    code, payload, _ = _run(capsys, "check", "--input", str(path), "--f", "exp2")
    monkeypatch.undo()
    assert code == 0
    doc = payload["certificate"]
    assert doc["coloring_rle"] == " ".join(path.read_text().split()[6:])
    assert verify_certificate(WitnessCertificate.from_json(json.dumps(doc)))


def test_check_malformed_file_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.col"
    path.write_text("palette 2 length 2 encoding plain\n0 7\n")
    code, payload, err = _run(capsys, "check", "--input", str(path), "--f", "exp2")
    assert code == 2
    assert "line 2" in err and "column 3" in err


def test_check_unicode_digit_exits_two(tmp_path, capsys):
    path = tmp_path / "sup.col"
    path.write_text("palette 2 length 1 encoding plain\n\u00b2\n")
    code, payload, err = _run(capsys, "check", "--input", str(path), "--f", "exp2")
    assert (code, payload) == (2, None)
    assert "line 2, column 1" in err


def test_check_token_too_long_to_convert_exits_two(tmp_path, capsys):
    path = tmp_path / "long.col"
    path.write_text("palette 2 length 1 encoding plain\n" + "0" * 5000 + "\n")
    code, payload, err = _run(capsys, "check", "--input", str(path), "--f", "exp2")
    assert (code, payload) == (2, None)
    assert "line 2, column 1" in err and "too many digits" in err


@pytest.mark.parametrize("argv", [("check", "--f", "exp2"), ("ap", "--l", "3")],
                         ids=["check", "ap"])
def test_a_length_past_the_cap_exits_two_at_the_header(tmp_path, capsys, argv):
    path = tmp_path / "huge.col"
    path.write_text("palette 1 length 1000000000 encoding rle\n0x1000000000\n")   # 54 bytes
    tracemalloc.start()
    try:
        code, payload, err = _run(capsys, argv[0], "--input", str(path), *argv[1:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, payload, peak < 1_000_000) == (2, None, True)
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert err.endswith("length must be a natural <= 8388608 (line 1, column 18)\n"), err


def test_check_at_the_length_cap_answers_within_a_gibibyte(tmp_path, python_m):
    path = tmp_path / "cap.col"
    path.write_text(f"palette 1 length {LENGTH_CAP} encoding rle\n0x{LENGTH_CAP}\n")
    code, out, err = python_m("check", "--input", str(path), "--f", "linear:1")
    assert code == 1, err[-500:]
    assert json.loads(out)["violation"] == {"color": 0, "start": 0, "end": LENGTH_CAP - 1,
                                            "length": LENGTH_CAP, "gap_size": 1}


def test_check_prints_the_certificate_as_emit_spells_it(tmp_path, capsys):
    path = tmp_path / "c.col"
    path.write_text(encode_coloring(Coloring(5, (0, 0, 1, 3, 1, 1, 0, 3))))
    assert run_cli(["check", "--input", str(path), "--f", "linear:2"]) == 0
    out = capsys.readouterr().out
    cert = WitnessCertificate.from_json(json.dumps(json.loads(out)["certificate"]))
    assert out == json.dumps({"command": "check", "witness": True,
                              "certificate": json.loads(cert.to_json())},
                             sort_keys=True, separators=(",", ":")) + "\n"


def test_check_of_a_palette_at_the_cap_builds_nothing_per_color(tmp_path, python_m):
    # one class and one JSON transcript per color took 21-24 s and 712 MB
    path = tmp_path / "wide.col"
    path.write_text(f"palette {LENGTH_CAP} length 1 encoding plain\n0\n")
    code, out, err = python_m("check", "--input", str(path), "--f", "linear:1")
    assert code == 0, err[-500:]
    assert out == ('{"certificate":{"classes":[[[1,1,1]]' + ",[]" * (LENGTH_CAP - 1)
                   + f'],"coloring_rle":"0x1","growth":"linear:1","length":1,'
                   f'"palette":{LENGTH_CAP}}},"command":"check","witness":true}}\n')


@pytest.mark.parametrize("palette", ["1000000000", str(LENGTH_CAP + 1)])
@pytest.mark.parametrize("argv", [("check", "--f", "linear:1"), ("ap", "--l", "3")],
                         ids=["check", "ap"])
def test_a_palette_past_the_cap_exits_two_at_the_header(tmp_path, python_m, palette, argv):
    # one class per palette color: 10**9 of them ended in a MemoryError under 1 GiB
    path = tmp_path / "wide.col"
    path.write_text(f"palette {palette} length 1 encoding plain\n0\n")
    code, out, err = python_m(argv[0], "--input", str(path), *argv[1:])
    assert (code, out) == (2, ""), err[-500:]
    assert err.startswith("error: ") and err.count("\n") == 1, err[-500:]
    assert err.endswith(f"palette must be a natural <= {LENGTH_CAP} (line 1, column 9)\n"), err


def test_check_missing_file_exits_two(capsys):
    code, _, err = _run(capsys, "check", "--input", "/nonexistent.col", "--f", "exp2")
    assert code == 2


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------


def test_ladder_writes_stage_one(tmp_path, capsys):
    out = tmp_path / "c1.col"
    code, payload, _ = _run(capsys, "ladder", "--s", "1", "--out", str(out))
    assert code == 0
    assert payload["length"] == "16"
    text = out.read_text()
    assert text.splitlines()[0] == "palette 2 length 16 encoding plain"
    assert "".join(text.splitlines()[1].split()) == "0011001100110011"


def test_ladder_verify_stage_one(capsys):
    code, payload, _ = _run(capsys, "ladder", "--s", "1", "--verify")
    assert code == 0
    assert payload["verify"]["all_ok"] is True
    assert len(payload["verify"]["claims"]) == 2


def test_ladder_stage_three_reports_length_only(capsys, monkeypatch):
    renders = []
    decimal_str = constructions.decimal_str
    monkeypatch.setattr(constructions, "decimal_str",
                        lambda n: renders.append(n) or decimal_str(n))
    code, payload, err = _run(capsys, "ladder", "--s", "3")
    assert code == 0
    assert payload["materialized"] is False
    n = constructions.ladder(3).length
    # the exact digits, checked without a quadratic conversion: the digit count
    # is one of two values fixed by the bit length, and the tail is n mod 10**40
    digits = int((n.bit_length() - 1) * math.log10(2)) + 1
    digits += n >= 10 ** digits
    assert len(payload["length"]) == digits > 600_000
    assert payload["length"][-40:] == f"{n % 10 ** 40:040d}"
    assert len(renders) == 1                  # the payload and the note share one render
    assert f"length {payload['length'][0]}.{payload['length'][1:5]}e+" in err


def test_ladder_verify_builds_the_stage_once(capsys, monkeypatch):
    builds = []
    ladder = constructions.ladder
    monkeypatch.setattr(constructions, "ladder", lambda s: builds.append(s) or ladder(s))
    code, payload, _ = _run(capsys, "ladder", "--s", "2", "--verify")
    assert (code, payload["verify"]["all_ok"]) == (0, True)
    assert builds == [2]


def test_ladder_too_large_exits_magnitude(capsys):
    code, payload, err = _run(capsys, "ladder", "--s", "5", "--verify")
    assert code == 4
    assert "stage 5" in err and "not representable" in err
    code, _, err = _run(capsys, "ladder", "--s", "3", "--verify")
    assert code == 4


def test_ladder_verify_reports_a_failing_claim(capsys, monkeypatch):
    # stage 1 with position 0 moved to color 1: class 0 loses an element
    stage = constructions.ladder(1)
    values = (1,) + stage.coloring.values[1:]
    monkeypatch.setattr(constructions, "ladder", lambda s: dataclasses.replace(
        stage, coloring=Coloring(stage.palette, values)))
    code, payload, err = _run(capsys, "ladder", "--s", "1", "--verify")
    assert code == 1
    assert payload["verify"]["all_ok"] is False
    assert "color 0: class size fails" in payload["verify"]["failures"]
    assert payload["verify"]["claims"][0]["size_ok"] is False
    assert "all claims hold" not in err


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_csv_content(cache_env, capsys):
    _run(capsys, "brown", "--f", "linear:1", "--r", "2")
    code = run_cli(["bounds", "--m", "1", "--r-max", "3", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "r,ardal,recursion,cached_kind,cached_value"
    assert lines[1].startswith("1,2,")
    assert lines[2].startswith("2,5,") and lines[2].endswith("exact,5")
    assert lines[3].startswith("3,16,")


def test_bounds_json_exponential(cache_env, capsys):
    code, payload, _ = _run(capsys, "bounds", "--f", "exp2", "--r-max", "3")
    assert code == 0
    recursion = [row["recursion"] for row in payload["rows"]]
    assert recursion == ["4", "33", str(3 * 2 ** 33 + 1)]
    assert all(row["ardal"] is None for row in payload["rows"])


def test_bounds_single_row_csv_header_stable(cache_env, capsys):
    code = run_cli(["bounds", "--f", "exp2", "--r-max", "1", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines == ["r,ardal,recursion,cached_kind,cached_value", "1,,4,,"]


def test_closure_bound_overflow_stops_at_once(cache_env, capsys):
    # the sixth recursion term of closure:linear:1 would sum about 5.7e10 terms
    started = time.monotonic()
    code, payload, err = _run(capsys, "bounds", "--f", "closure:linear:1", "--r-max", "6")
    assert time.monotonic() - started < 1
    assert (code, payload) == (4, None)
    assert "r=6" in err
    # two nested closures: the fifth term is refused, the fourth sums in linear time
    started = time.monotonic()
    code, payload, err = _run(capsys, "bounds", "--f", "closure:closure:linear:1",
                              "--r-max", "5")
    assert time.monotonic() - started < 1
    assert (code, payload) == (4, None)
    assert "r=5" in err
    code, payload, _ = _run(capsys, "brown", "--f", "closure:linear:1", "--r", "6",
                            "--budget-nodes", "100", "--no-cache")
    assert code == 0
    assert payload["kind"] == "bracketed"
    assert payload["upper"] is None
    assert payload["bounds"] == {"ardal": None, "recursion": None}


@pytest.mark.parametrize("argv,message", [
    (("--f", "closure:linear:1", "--r-max", "6"),
     "r=6: closure at 56777355256 sums more than 33554432 terms"),
    (("--f", "exp2", "--r-max", "4"),
     "r=4: 2**n with n of 35 bits exceeds the 33554432-bit cap"),
], ids=["closure", "exp2"])
def test_bounds_overflow_names_what_overflowed(cache_env, capsys, argv, message):
    code, payload, err = _run(capsys, "bounds", *argv)
    assert (code, payload) == (4, None)
    assert err == f"magnitude overflow: recursion bound for {message}\n"


def test_linear_bound_past_the_bit_cap_is_null(cache_env, capsys):
    # 2**60000000 is past the cap: neither command builds or renders it
    started = time.monotonic()
    code, payload, _ = _run(capsys, "bounds", "--m", "60000000", "--r-max", "1")
    assert code == 0
    assert payload["rows"][0]["ardal"] is None
    assert payload["rows"][0]["recursion"] == "60000002"
    code, payload, _ = _run(capsys, "brown", "--f", "linear:60000000", "--r", "1",
                            "--budget-nodes", "1000", "--no-cache")
    assert code == 0
    assert payload["bounds"] == {"ardal": None, "recursion": "60000002"}
    assert time.monotonic() - started < 5


def test_bounds_argument_errors(cache_env, capsys):
    code, _, _ = _run(capsys, "bounds", "--r-max", "3")
    assert code == 2
    code, _, _ = _run(capsys, "bounds", "--m", "1", "--f", "exp2", "--r-max", "3")
    assert code == 2


# ---------------------------------------------------------------------------
# construction commands
# ---------------------------------------------------------------------------


def test_diag_command(capsys):
    code, payload, _ = _run(capsys, "diag", "--d", "3", "--n", "12")
    assert code == 0
    assert payload["coloring_rle"] == "0x3 1x3 0x3 1x3"
    code, _, _ = _run(capsys, "diag", "--d", "0", "--n", "5")
    assert code == 2


def test_diag_writes_its_coloring(tmp_path, capsys):
    out = tmp_path / "diag.col"
    code, payload, _ = _run(capsys, "diag", "--d", "2", "--n", "6", "--out", str(out))
    assert (code, payload["out"]) == (0, str(out))
    assert out.read_text() == encode_coloring(Coloring(2, (0, 0, 1, 1, 0, 0)))


@pytest.mark.parametrize("d,n", [(3, 0), (3, 2), (3, 7), (3, 12), (1, 5), (4, 20_001)],
                         ids=["empty", "below-d", "partial-run", "full-runs", "width-one",
                              "long-rle-file"])
def test_diag_prints_and_writes_its_kept_body(tmp_path, capsys, d, n):
    out = tmp_path / "diag.col"
    code, payload, _ = _run(capsys, "diag", "--d", str(d), "--n", str(n), "--out", str(out))
    values = tuple((x // d) & 1 for x in range(n))
    assert (code, payload["coloring_rle"]) == (0, rle_string(values))
    assert out.read_text() == encode_coloring(Coloring(2, values))


_INTEGER_FLAGS = [
    ("brown", "--f", "linear:1", "--r", "{}"),
    ("brown", "--f", "linear:1", "--r", "2", "--max-n", "{}"),
    ("brown", "--f", "linear:1", "--r", "2", "--jobs", "{}"),
    ("brown", "--f", "linear:1", "--r", "2", "--budget-nodes", "{}"),
    ("vdw", "--r", "2", "--l", "{}"),
    ("confirm", "--n", "{}", "--f", "linear:1", "--r", "2"),
    ("ladder", "--s", "{}"),
    ("bounds", "--m", "{}", "--r-max", "2"),
    ("bounds", "--m", "1", "--r-max", "{}"),
    ("diag", "--d", "{}", "--n", "6"),
    ("psgen", "--gaps", "1,1", "--blocks", "{}"),
    ("decompose", "--x", "0", "--d", "1", "--horizon", "{}"),
    ("ap", "--input", "unread.col", "--l", "{}"),
]


def _flag_of(argv) -> str:
    """The flag whose value is the ``{}`` slot of ``argv``."""
    return argv[argv.index("{}") - 1]


@pytest.mark.parametrize("argv", _INTEGER_FLAGS, ids=lambda argv: argv[0] + _flag_of(argv))
@pytest.mark.parametrize("text", ["1_0", "+3", " 3", "-1", "\u00b2", "9" * 5000],
                         ids=["underscore", "plus", "leading-space", "minus", "superscript",
                              "5000-digits"])
def test_integer_flags_read_decimal_digits_only(cache_env, capsys, argv, text):
    flag = _flag_of(argv)
    code, payload, err = _run(capsys, *(text if a == "{}" else a for a in argv))
    assert (code, payload) == (2, None)
    assert err.startswith(f"error: argument {flag}: expected a natural, got ") and \
        err.count("\n") == 1, err


def test_psgen_command(capsys):
    code, payload, _ = _run(capsys, "psgen", "--gaps", "2,1")
    assert code == 0
    assert payload["elements"] == [0, 1, 3, 5, 6, 7]
    assert payload["problems"] == []
    code, _, _ = _run(capsys, "psgen", "--gaps", "2,0")
    assert code == 2


def test_psgen_reads_its_gaps_from_a_file(tmp_path, capsys):
    path = tmp_path / "gaps.col"
    path.write_text(encode_coloring(Coloring(3, (1, 1, 2, 1))))
    code, payload, _ = _run(capsys, "psgen", "--input", str(path))
    assert (code, payload["blocks"]) == (0, 3)
    assert payload["elements"] == [0, 1, 3, 5, 6, 7]
    assert payload["problems"] == []


@pytest.mark.parametrize("argv", [
    ("bounds", "--m", "1", "--r-max", "0"),
    ("diag", "--d", "2", "--n", "-1"),
    ("psgen", "--gaps", "2,1", "--input", "gaps.col"),
    ("psgen",),
    ("psgen", "--gaps", "1,x"),
    ("decompose", "--x", "1,x", "--d", "1", "--horizon", "10"),
    ("psgen", "--gaps", " 3,1_0"),
    ("psgen", "--gaps", ""),
    ("decompose", "--x", "1_0,+2", "--d", "2", "--horizon", "20"),
    ("decompose", "--x=", "--d", "2", "--horizon", "-1"),
], ids=["bounds-r-max", "diag-n", "psgen-both", "psgen-neither", "psgen-gaps",
        "decompose-x", "psgen-gaps-space-underscore", "psgen-gaps-empty",
        "decompose-x-underscore-plus", "decompose-negative-horizon"])
def test_construction_usage_errors_exit_two(cache_env, capsys, argv):
    code, payload, err = _run(capsys, *argv)
    assert (code, payload) == (2, None)
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv,position", [
    (("brown", "--f", "linear:\u00b2", "--r", "2"), 7),
    (("bounds", "--f", "table:1,\u00b2", "--r-max", "1"), 8),
    (("bounds", "--f", "linear:" + "9" * 5000, "--r-max", "1"), 7),
], ids=["superscript-slope", "superscript-table-value", "5000-digit-slope"])
def test_growth_spec_numbers_outside_the_decimal_digits_exit_two(cache_env, capsys, argv,
                                                                 position):
    code, payload, err = _run(capsys, *argv)
    assert (code, payload) == (2, None)
    assert err.startswith("error: bad growth spec: ") and err.count("\n") == 1
    assert err.endswith(f"(at position {position})\n")


LONG = 3000   # characters of a rejected token


@pytest.mark.parametrize("argv,where", [
    (("bounds", "--f", "linear:" + "9" * 5000, "--r-max", "1"), "(at position 7)"),
    (("brown", "--f", "foo" + "z" * LONG, "--r", "1"), "(at position 0)"),
    (("bounds", "--f", "table:1," + "y" * LONG, "--r-max", "1"), "(at position 8)"),
    (("bounds", "--f", "table:1;tail=" + "y" * LONG, "--r-max", "1"), "(at position 13)"),
    (("psgen", "--gaps", "1," + "x" * LONG), "got 'xxxx"),
    (("check", "--input", "long.col", "--f", "linear:1"), "(line 2, column 5)"),
], ids=["slope", "unrecognized-spec", "table-value", "tail-rule", "gaps", "coloring-file"])
def test_an_error_quoting_a_long_token_stays_one_short_line(tmp_path, monkeypatch, capsys,
                                                            argv, where):
    monkeypatch.chdir(tmp_path)   # the error names the file as given
    (tmp_path / "long.col").write_text(f"palette 2 length 3 encoding plain\n0 1 {'x' * LONG}\n")
    code, payload, err = _run(capsys, *argv)
    assert (code, payload) == (2, None)
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err[:300]
    assert where in err and "characters)" in err, err


# the fewest blocks whose b * (b + 1) / 2 elements exceed LENGTH_CAP
BLOCKS_PAST_CAP = next(b for b in range(1, LENGTH_CAP) if b * (b + 1) // 2 > LENGTH_CAP)


@pytest.mark.parametrize("argv", [
    ("diag", "--d", "2", "--n", "1000000000"),
    ("psgen", "--input", "gaps.col"),
    ("decompose", "--x", "0", "--d", "1", "--horizon", "10000000000"),
    ("decompose", "--x", "0", "--d", "10000000000", "--horizon", "20000000000"),
    ("diag", "--d", "2", "--n", str(LENGTH_CAP + 1)),
    ("psgen", "--input", "gaps.col", "--blocks", str(BLOCKS_PAST_CAP)),
    ("decompose", "--x", "0", "--d", "1", "--horizon", str(LENGTH_CAP + 1)),
], ids=["diag-n", "psgen-elements", "decompose-horizon", "decompose-horizon-and-d",
        "diag-n-cap-plus-one", "psgen-blocks-past-cap", "decompose-horizon-cap-plus-one"])
def test_a_construction_past_the_length_cap_exits_two(tmp_path, monkeypatch, python_m, argv):
    monkeypatch.chdir(tmp_path)
    # 46 bytes that ask for 200,000 blocks, about 2 * 10**10 elements
    (tmp_path / "gaps.col").write_text("palette 2 length 200000 encoding rle\n1x200000\n")
    code, out, err = python_m(*argv)
    assert (code, out) == (2, ""), err[-500:]
    assert err.startswith("error: ") and err.count("\n") == 1, err[-500:]
    assert "8388608" in err


def test_decompose_smears_no_further_than_the_horizon(python_m, capsys):
    # a width of 10**10 used to run the smear loop 10**10 times past the horizon
    code, out, err = python_m("decompose", "--x", "0", "--d", "10000000000", "--horizon", "100")
    assert code == 0, err
    assert run_cli(["decompose", "--x", "0", "--d", "100", "--horizon", "100"]) == 0
    assert out == capsys.readouterr().out.replace('"d":100,', '"d":10000000000,')


def test_diag_repeats_no_block_wider_than_the_prefix(python_m, capsys):
    # a width of 10**9 would build a block of 2 * 10**9 positions were it not cut to n
    code, out, err = python_m("diag", "--d", "1000000000", "--n", "5")
    assert code == 0, err
    assert run_cli(["diag", "--d", "5", "--n", "5"]) == 0
    assert out == capsys.readouterr().out.replace('"d":5,', '"d":1000000000,')


def test_decompose_with_an_empty_list_has_no_elements(capsys):
    code, payload, _ = _run(capsys, "decompose", "--x", "", "--d", "2", "--horizon", "20")
    assert (code, payload["z"], payload["identity_ok"]) == (0, [], True)


def test_decompose_command(capsys):
    code, payload, _ = _run(capsys, "decompose", "--x", "0,1,2", "--d", "1",
                            "--horizon", "10")
    assert code == 0
    assert payload["identity_ok"] is True
    assert payload["z"] == [0, 1, 2]


SEVENTHS = ",".join(map(str, range(0, 200_000, 7)))


def test_decompose_builds_no_set_but_z(capsys):
    tracemalloc.start()
    try:
        code = run_cli(["decompose", "--x", SEVENTHS, "--d", "3", "--horizon", "200000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["identity_ok"] is True
    assert (code, peak < 21_500_000) == (0, True), peak


@pytest.mark.parametrize("argv,digest", [
    (("psgen", "--gaps", ",".join(str(1 + i * i % 5) for i in range(299))),
     "6eea28ba580ef6a933a9704e445ebdd8b97c1d430a5b880caee1a30e505ab5cf"),
    (("decompose", "--x", SEVENTHS, "--d", "3", "--horizon", "200000"),
     "8e064745b8166bcf5e33784c912fe7c32bda0f85a5bf6fbfd83605cd9ad815d6"),
    (("decompose", "--x", ",".join(str(v) for v in range(150_000) if v % 11 in (0, 3, 4)),
      "--d", "5", "--horizon", "150000"),
     "216d4875974e5c4f2a8e15b3f1c38beb5a5e31811303a481c436d82850e5981e"),
], ids=["psgen-300-blocks", "decompose-sevenths", "decompose-three-in-eleven"])
def test_construction_stdout_is_pinned(capsys, argv, digest):
    assert run_cli(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_verify_and_progression_payloads_print_their_records(tmp_path, capsys):
    assert run_cli(["ladder", "--s", "1", "--verify"]) == 0
    claim = '"size_ok":true,"span_ok":true,"star_ok":true'
    assert capsys.readouterr().out == (
        '{"command":"ladder","length":"16","materialized":true,"palette":2,"s":1,'
        f'"verify":{{"all_ok":true,"claims":[{{"color":0,{claim}}},{{"color":1,{claim}}}],'
        '"failures":[]}}\n')
    path = tmp_path / "alt.col"
    path.write_text(encode_coloring(Coloring(2, (0, 1, 0, 1, 0, 1, 0, 1))))
    assert run_cli(["ap", "--input", str(path), "--l", "3"]) == 0
    assert capsys.readouterr().out == ('{"color":0,"command":"ap","difference":2,'
                                       '"found":true,"l":3,"length":3,"start":0}\n')


def test_encoding_must_be_plain_rle_or_auto():
    with pytest.raises(InvalidArgumentError, match="unknown encoding 'zip'"):
        encode_coloring(Coloring(2, (0, 1)), "zip")


def test_ap_command(tmp_path, capsys):
    path = tmp_path / "alt.col"
    path.write_text(encode_coloring(Coloring(2, (0, 1, 0, 1, 0, 1, 0, 1))))
    code, payload, _ = _run(capsys, "ap", "--input", str(path), "--l", "3")
    assert code == 0
    assert (payload["color"], payload["start"], payload["difference"]) == (0, 0, 2)

    short = tmp_path / "pair.col"
    short.write_text(encode_coloring(Coloring(2, (0, 1))))
    code, payload, _ = _run(capsys, "ap", "--input", str(short), "--l", "2")
    assert code == 1
    assert payload["found"] is False
