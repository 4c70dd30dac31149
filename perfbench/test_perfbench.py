"""Self-checks for the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_perfbench.py -q

Not part of the repository's test suite (``testpaths`` is ``tests``): it
checks the benchmark, not the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

SEED = 7
IN_PROCESS = ("churn", "recursive", "sharded")


def bench(workload: str, trace: int, cwd: str = ROOT, script=None):
    command = [sys.executable, script or os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(SEED),
               "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(command, capture_output=True, text=True,
                          timeout=170, cwd=cwd)


_RUNS: dict = {}


def result(workload: str, trace: int, attempt: int = 0):
    """(record, result) of a tiny run, memoized across the tests."""
    key = (workload, trace, attempt)
    if key not in _RUNS:
        out = bench(workload, trace)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.strip().splitlines()
        _RUNS[key] = (json.loads(lines[-2])["record"], json.loads(lines[-1]))
    return _RUNS[key]


@pytest.mark.parametrize("workload", W.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_reported_with_its_unit(workload, trace):
    record, final = result(workload, trace)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    expected = dict(run.PER_LAYER if trace else run.END_TO_END)
    assert {name: m["unit"] for name, m in final["metrics"].items()} \
        == expected
    assert all(isinstance(m["value"], float)
               for m in final["metrics"].values())
    assert final["correct"] is True and final["failed"] == 0
    assert final["attempted"] >= 1
    assert record["samples"]["latency_p50_ms"] >= 1
    for field in ("git_sha", "src_sha256", "nproc", "python", "seed"):
        assert field in record
    if trace:
        assert record["missing_wrap_points"] == []
        assert final["metrics"]["trace.overhead"]["value"] > 0


def test_benchmark_json_matches_the_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == dict(run.PER_LAYER)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_one_seed_gives_one_operation_sequence(workload):
    sizes = W.TINY_SIZES[workload]

    def ops():
        if workload == "edge_hot":
            return [W.take(W.edge_stream(SEED, sizes, c), 200)
                    for c in range(2)]
        rows = W.build_inputs(workload, SEED, sizes)
        return [
            (op.kind, getattr(op, "plan", None), op.db,
             getattr(op, "rows", None))
            for op in W.take(W.stream(workload, SEED, sizes, rows), 200)
        ]

    assert ops() == ops()
    assert W.build_inputs(workload, SEED, sizes) \
        == W.build_inputs(workload, SEED, sizes)
    assert W.build_inputs(workload, SEED, sizes) \
        != W.build_inputs(workload, SEED + 1, sizes)


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_cache_and_stage_counts_repeat_at_one_seed(workload):
    first = result(workload, 0)[0]["window"]
    second = result(workload, 0, attempt=1)[0]["window"]
    assert first["complete"] and second["complete"]
    for field in ("hits", "misses", "evictions", "invalidations",
                  "stages", "reads", "updates"):
        assert first[field] == second[field], field
    if workload == "recursive":
        assert first["stages"] > 0


def test_oracle_flags_an_injected_wrong_row(monkeypatch):
    from repro.db.relations import Relation
    from repro.service import QueryService

    original = QueryService.execute
    calls = []

    def execute(self, request):
        # One extra row in the 20th answer (past the tiny warm-up).
        response = original(self, request)
        calls.append(request)
        if len(calls) == 20 and response.ok:
            wrong = response.relation.tuples + (("o999", "o999"),)
            response.relation = Relation(response.relation.arity, wrong)
        return response

    monkeypatch.setattr(QueryService, "execute", execute)
    for workload in ("churn", "recursive"):
        calls.clear()
        outcome = run.run_in_process(workload, SEED, 0.5, False, True)
        failed = outcome["failed_ops"]
        assert len(calls) > 20, workload
        assert len(failed) == 1, (workload, failed)
        assert outcome["log"].kind[failed[0]] == "read"


def test_oracle_rejects_a_wrong_edge_answer():
    sizes = W.TINY_SIZES["edge_hot"]
    keys = W.edge_keys(SEED, sizes)
    rows = W.build_inputs("edge_hot", SEED, sizes)
    plan, db = keys[0]
    right = sorted(oracle.term_answer(plan, rows[db]["R"], rows[db]["S"],
                                      W.FILTER_CONSTANT))
    wrong = right + [("o999", "o999")]

    answers = {(0, json.dumps(right).encode()): 0,
               (0, json.dumps(wrong).encode()): 1}
    assert run.verify_edge(SEED, True, keys, answers) == {0: True, 1: False}


def test_oracle_answers_small_cases():
    edges = [("a", "b"), ("b", "c")]
    assert oracle.transitive_closure(edges) \
        == {("a", "b"), ("b", "c"), ("a", "c")}
    assert oracle.reachability([("b",)], edges) == {("b",), ("c",)}
    up = [("x1", "r"), ("x2", "r"), ("y1", "x1")]
    down = [(p, c) for c, p in up]
    assert oracle.same_generation([("r", "r")], up, down) == {
        ("r", "r"), ("x1", "x1"), ("x1", "x2"), ("x2", "x1"),
        ("x2", "x2"), ("y1", "y1"),
    }
    r = [("o1", "o2"), ("o3", "o1")]
    s = [("o2", "o5"), ("o1", "o2")]
    assert oracle.term_answer("join", r, s, "o1") == {("o1", "o5"),
                                                      ("o3", "o2")}
    assert oracle.term_answer("filter", r, s, "o1") == {("o1", "o2")}
    assert oracle.term_answer("difference", r, s, "o1") == {("o3", "o1")}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = bench("churn", 0, cwd=str(tmp_path),
                script=str(tmp_path / "perfbench" / "run.py"))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
