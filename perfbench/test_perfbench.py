"""Self-tests of the benchmark, on the tiny pipeline config.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _tiny_values():
    spec = importlib.util.spec_from_file_location(
        "slatelab_test_harness", ROOT / "tests" / "test_harness.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.TINY)


TINY = workloads.Profile(
    config=_tiny_values(),
    setup_trajectories=5, setup_train_steps=1,     # 8 turns: below the replay fill
    setup_users={"gems": 3, "oracle": 3, "wknn": 1},
    round_trajectories=5, round_train_steps=4,     # 32 turns: a few SAC updates
    round_users={"gems": 3, "oracle": 3, "wknn": 2}, mf_sample_trajectories=10,
    setup_reps=2, min_rounds=2,
)


def _span_tracer(spans):
    tracer = tracing.Tracer("test")
    tracer.spans = [list(s) for s in spans]
    return tracer


# -- span arithmetic -------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        [0, -1, "root", 0, 100],
        [1, 0, "a", 10, 30],
        [2, 1, "a.inner", 15, 20],
        [3, 0, "b", 40, 70],
        [4, 0, "c", 60, 80],       # overlaps b: the union 40..80 counts once
        [5, -1, "leaf", 200, 210],
    ]
    assert tracing.self_times(spans) == [100 - 20 - 40, 20 - 5, 5, 30, 20, 10]


def test_layer_metrics_share_coverage_and_percentiles():
    spans = [[0, -1, "stage.train", 0, 1_000_000_000]]
    t = 10_000_000
    for i in range(120):       # 120 calls of 5 ms, each with a 2 ms child
        sid = len(spans)
        spans.append([sid, 0, "sac.sac_update", t, t + 5_000_000])
        spans.append([sid + 1, sid, "sac.critic_loss", t + 1_000_000, t + 3_000_000])
        t += 6_000_000
    tracer = _span_tracer(spans)
    m = tracing.layer_metrics(tracer, [], timed_wall_s=1.0, overhead_pct=3.0)
    assert m["sac.sac_update.calls"] == 120
    assert m["sac.sac_update.p50_ms"] == pytest.approx(5.0)
    assert m["sac.sac_update.p90_ms"] == pytest.approx(5.0)
    assert m["sac.sac_update.self_share"] == pytest.approx(120 * 0.003)
    assert m["sac.critic_loss.self_share"] == pytest.approx(120 * 0.002)
    assert m["trace.coverage_pct"] == pytest.approx(100 * 120 * 0.005)
    assert m["trace.overhead_pct"] == 3.0
    assert m["replay.sample.calls"] == 0


def test_p90_needs_a_hundred_calls():
    spans = [[i, -1, "sac.td_target", 10 * i, 10 * i + 1_000_000] for i in range(99)]
    m = tracing.layer_metrics(_span_tracer(spans), [], 1.0, 0.0)
    assert m["sac.td_target.calls"] == 99
    assert m["sac.td_target.p50_ms"] == pytest.approx(1.0)
    assert m["sac.td_target.p90_ms"] == 0.0


# -- probe binding ------------------------------------------------------------------


def test_probes_bind_the_callers_names_and_come_off_cleanly():
    import slatelab.harness as harness
    import slatelab.sac as sac
    from slatelab.simulator import Environment

    original, original_step = sac.sac_update, Environment.step
    inst = tracing.install(tracing.Tracer("bind"))
    try:
        assert harness.sac_update is sac.sac_update is not original
        assert harness.sac_update.__wrapped__ is original
        assert Environment.step is not original_step
        assert not inst.missing
    finally:
        inst.remove()
    assert harness.sac_update is sac.sac_update is original
    assert Environment.step is original_step


def test_a_target_that_is_gone_reads_missing(monkeypatch):
    from slatelab.harness import Policy
    monkeypatch.delattr(Policy, "act_single")
    tracer = tracing.Tracer("gone")
    inst = tracing.install(tracer)
    inst.remove()
    assert "harness.act_single" in inst.missing
    m = tracing.layer_metrics(tracer, inst.missing, 1.0, 0.0)
    assert m["harness.act_single.calls"] == tracing.MISSING
    assert m["harness.act_single.p50_ms"] == tracing.MISSING


# -- declared metrics ---------------------------------------------------------------


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_names_and_units_match_the_emitted_ones():
    bench = _declared()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == workloads.END_TO_END
    assert ([(m["name"], m["unit"]) for m in bench["per_layer"]]
            == tracing.per_layer_metrics())


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    runs = {}
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            d = tmp_path_factory.mktemp(f"{workload}-{int(trace)}")
            runs[workload, trace] = (workloads.run_workload(
                workload, seed=5, seconds=0.0, trace=trace, run_dir=d, profile=TINY), d)
    return runs


def test_every_workload_emits_exactly_the_declared_metrics(tiny_runs):
    bench = _declared()
    e2e = {m["name"] for m in bench["end_to_end"]}
    layer = {m["name"] for m in bench["per_layer"]}
    for (workload, trace), (result, _) in tiny_runs.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, workload
        assert set(result["metrics"]) == (layer if trace else e2e), workload
        if not trace:
            values = [m["value"] for m in result["metrics"].values()]
            assert all(isinstance(v, float) and v > 0 for v in values), workload


def test_every_probe_fires_on_the_tiny_pipeline(tiny_runs):
    fired = set()
    for (workload, trace), (result, run_dir) in tiny_runs.items():
        if not trace:
            continue
        assert (run_dir / "trace.json.gz").exists()
        m = result["metrics"]
        for probe in workloads.EXPECTED[workload]:
            assert m[f"{probe}.calls"]["value"] > 0, (workload, probe)
        fired |= {p.name for p in tracing.PROBES if m[f"{p.name}.calls"]["value"]}
    assert fired == {p.name for p in tracing.PROBES}
    sac = tiny_runs["train-sac-gems", True][0]["metrics"]
    assert sac["belief.recomputes_per_sac_update"]["value"] == 3.0
    assert sac["autodiff.tensors_per_sac_update"]["value"] > 100
    wknn = tiny_runs["offline-eval", True][0]["metrics"]
    assert wknn["rankers.critic_calls_per_wknn_slate"]["value"] > 0


def test_a_broken_stage_is_counted_as_failed(tmp_path, monkeypatch):
    import slatelab.cli as cli

    def broken(*args, **kwargs):
        raise ArithmeticError("diverged")
    monkeypatch.setattr(cli, "train_mf", broken)
    result = workloads.run_workload("offline-eval", 5, 0.0, False, tmp_path, TINY)
    assert not result["correct"]
    assert result["failed"] >= 1 and result["attempted"] > result["failed"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "offline-eval",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
