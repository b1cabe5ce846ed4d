"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys

import pytest

import run
import tracing

sd = run.import_program()

# the three workloads, shrunk so a run takes about a second
SMALL = {
    name: dataclasses.replace(wl, files=40, window=12, max_ops=60)
    for name, wl in run.WORKLOADS.items()
}
COUNT_UNITS = ("count", "B")


def test_plan_depends_only_on_the_seed():
    wl = run.WORKLOADS["churn-B"]
    assert run.make_plan(wl, 3) == run.make_plan(wl, 3)
    assert run.make_plan(wl, 3).ops != run.make_plan(wl, 4).ops


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_deck_of_ops_holds_the_mix(name):
    wl = run.WORKLOADS[name]
    plan = run.make_plan(wl, 1)
    total = sum(weight for _, weight in wl.mix)
    deck = 20  # every mix's weights are multiples of 5
    for start in range(0, len(plan.ops), deck):
        kinds = [op.kind for op in plan.ops[start:start + deck]]
        assert {k: kinds.count(k) for k in wl.kinds} == {k: w * deck // total for k, w in wl.mix}
    assert all(1 <= len(data) <= run.MAX_FILE for _, data in plan.preload)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_for_one_seed(name):
    wl = SMALL[name]
    first = run.per_layer(run.run_workload(sd, wl, 5, 0, True), wl)[0]
    second = run.per_layer(run.run_workload(sd, wl, 5, 0, True), wl)[0]
    counts = {k: v for k, (v, unit) in first.items() if unit in COUNT_UNITS}
    assert counts == {k: second[k][0] for k in counts}
    assert counts["osn.fetch_calls"] > 0

    plain = [run.end_to_end(run.run_workload(sd, wl, 5, 0, False))[0] for _ in range(2)]
    for key in ("state_bytes_per_file", "stored_bytes_per_user_byte"):
        assert plain[0][key] == plain[1][key]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_run_is_correct_and_reports_every_metric(name):
    wl = SMALL[name]
    result = run.run_workload(sd, wl, 2, 0, False)
    assert result.failed == 0, result.errors
    metrics, extras = run.end_to_end(result)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())
    factor = run.REF_SECONDS / statistics.median(result.loop_reference)
    assert metrics["get_ms.p50"][0] == pytest.approx(extras["raw.get_ms.p50"][0] * factor)

    traced = run.run_workload(sd, wl, 2, 0, True)
    layer, _, unmeasured = run.per_layer(traced, wl)
    assert set(layer) == {m["name"] for m in declared["per_layer"]}, unmeasured
    assert [name for name, (value, _) in layer.items() if not value > 0] == []


def test_self_times_account_for_each_traced_op():
    wl = SMALL["cli-reopen-A"]
    result = run.run_workload(sd, wl, 1, 0, True)
    tracer = result.tracer
    own = tracer.self_times()
    totals = {}
    for idx, op in enumerate(tracer.span_ops):
        totals[op] = totals.get(op, 0.0) + own[idx]
    for idx, parent in enumerate(tracer.parents):
        if parent == -1:
            duration = tracer.ends[idx] - tracer.starts[idx]
            assert totals[tracer.span_ops[idx]] == pytest.approx(duration, abs=1e-9)


def test_corrupted_read_fails_the_run(monkeypatch):
    original = sd.Disc.read_file

    def corrupt(self, name):
        data = original(self, name)
        return bytes([data[0] ^ 1]) + data[1:]

    monkeypatch.setattr(sd.Disc, "read_file", corrupt)
    monkeypatch.setattr(run, "WORKLOADS", SMALL)
    assert run.main(["--workload", "churn-B", "--seed", "1", "--seconds", "0"]) != 0
    result = run.run_workload(sd, SMALL["deep-read-C"], 1, 0, False)
    assert result.failed > 0
    assert any("wrong result" in error for error in result.errors)


def test_a_name_the_program_no_longer_imports_is_unmeasured(monkeypatch):
    monkeypatch.setitem(tracing.DISC_FUNCTIONS, "no_such_name", "steghash.gone")
    monkeypatch.delattr(sd.disc, "rank")  # mode C never calls it
    wl = SMALL["deep-read-C"]
    result = run.run_workload(sd, wl, 1, 0, True)
    assert result.failed == 0
    _, extras, unmeasured = run.per_layer(result, wl)
    assert "stegdisc.disc.no_such_name" in unmeasured
    assert "steghash.rank_calls" in unmeasured and "steghash.rank_calls" not in extras
    assert "steghash.unrank_calls" in extras


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn-B", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
