"""Self-tests of the benchmark (``--smoke`` sizes, no timing asserts).

They check the benchmark's own machinery — names, determinism, bit-neutral
wrappers, span accounting, failure counting — and assert nothing about how
the program is built, so a change under ``src/`` cannot break them by
renaming a traced callable.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from perfbench import runner, series, tracing, workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
CHEAP = ("collect_rollout", "serve_cap1", "serve_cap128", "price_sweep")


def _smoke(job):
    name, seed, trace = job
    return runner.run_once(name, seed, 0.0, trace, smoke=True)


@pytest.fixture(scope="module")
def smoke_runs():
    """Every smoke run the tests need, two at a time (the box has 2 cores)."""
    jobs = [(name, 0, True) for name in workloads.NAMES if name != "train_float"]
    jobs += [(name, seed, False) for name in CHEAP for seed in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(jobs, pool.map(_smoke, jobs)))


def test_manifest_names_match_the_code():
    manifest = runner.manifest()
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.NAMES)
    table = [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
    assert table == tracing.layer_metric_table()
    every = [item["name"] for key in ("workloads", "end_to_end", "per_layer")
             for item in manifest[key]]
    assert all(NAME.match(name) for name in every)
    assert len(set(every)) == len(every)
    assert manifest["paths"] == ["perfbench"]
    assert {"setup_s"} <= {m["name"] for m in manifest["end_to_end"]}


def test_runs_report_every_metric_and_are_correct(smoke_runs):
    manifest = runner.manifest()
    for (name, _seed, trace), run in smoke_runs.items():
        expected = manifest["per_layer" if trace else "end_to_end"]
        assert set(run["metrics"]) == {m["name"] for m in expected}, name
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, name
        if not trace:
            assert all(value > 0 for value in run["metrics"].values()), name


def test_same_seed_same_outputs_other_seed_other_outputs(smoke_runs):
    for name in CHEAP:
        traced, plain, other = (
            [unit["digest"] for unit in smoke_runs[job]["report"]["units"]]
            for job in ((name, 0, True), (name, 0, False), (name, 1, False))
        )
        assert traced == plain, name  # two processes, one of them traced
        assert plain != other, name


def test_wrappers_are_bit_neutral_and_spans_add_up(smoke_runs):
    for (name, _seed, trace), run in smoke_runs.items():
        if not trace:
            continue
        report = run["report"]
        # Each unit ran traced and then untraced on the same inputs.
        assert report["neutral"], name
        edges = report["first_unit_edges"]
        self_seconds = sum(edge[4] for edge in edges)
        root_seconds = sum(edge[3] for edge in edges if edge[1] == "")
        assert self_seconds == pytest.approx(root_seconds, rel=1e-9), name
        assert 0.0 < run["metrics"]["trace.coverage"] <= 1.0, name


def test_tracing_restores_every_wrapper():
    before = {target: tracing._holders(target) for _span, target in tracing.TARGETS}
    assert any(before.values())
    with tracing.tracing() as tracer:
        wrapped = {target: tracing._holders(target) for _span, target in tracing.TARGETS}
        assert wrapped != before
        assert not tracer.edges
    assert {t: tracing._holders(t) for _s, t in tracing.TARGETS} == before


def test_generator_span_counts_yields_and_nests():
    tracer = tracing.Tracer()
    inner = tracer.wrap("platform.infer_batch", lambda: 1)

    def drain():
        for _ in range(3):
            inner()
            yield "flush"

    assert list(tracer.wrap("serving.drain_next", drain)()) == ["flush"] * 3
    edges, _raw = tracer.take()
    assert edges[("serving.drain_next", "")][0] == 3
    assert edges[("platform.infer_batch", "serving.drain_next")][0] == 3
    assert not tracer.edges and not tracer._stack


def test_bad_cli_flag_counts_as_failed_operations(tmp_path):
    workload = workloads.TrainWorkload(
        "bad", ("--benchmark", "HalfCheetah", "--no-such-flag"), 64, ("HalfCheetah",), False)
    fixture = workload.prepare(0, 0, tmp_path)
    code, _stdout = output = workload.run(fixture)
    outcome = workload.check(fixture, output)
    assert code == 2
    assert (outcome.attempted, outcome.failed) == (64, 64)
    assert "exit code 2" in outcome.modelled["problems"]


def test_nan_actions_count_as_failed_requests(tmp_path, monkeypatch):
    from repro.rl.workers import ActorPolicy

    def act_batch(self, states, noise=None):
        actions = np.zeros((len(states), self.action_dim))
        actions[0, 0] = np.nan  # the first request of every flush is lost
        return actions

    monkeypatch.setattr(ActorPolicy, "act_batch", act_batch)
    workload = workloads.ServeWorkload("serve_nan", 40, 300.0, 8)
    fixture = workload.prepare(0, 0, tmp_path)
    result = workload.run(fixture)
    outcome = workload.check(fixture, result)
    assert outcome.attempted == 40
    assert outcome.failed == result.report.num_flushes > 0


def test_raising_unit_is_counted_not_raised():
    from perfbench.child import measure_unit

    class Broken:
        ops = 7

        def run(self, fixture):
            raise RuntimeError("boom")

    unit = measure_unit(Broken(), None)
    assert (unit["attempted"], unit["failed"]) == (7, 7)
    assert unit["modelled"] == {"error": "RuntimeError: boom"}


def test_compare_verdicts(tmp_path):
    def result(ops, smoke=False, digest="d"):
        mark = series.fingerprint(0, 1.0, 3, smoke)
        entry = {"op": "x", "correct": True, "attempted": 3, "failed": 0,
                 "metrics": {"ops_per_s": ops, "peak_rss_mb": [40.0] * 3,
                             "setup_s": [0.3] * 3},
                 "modelled": [[{"m": 1}]] * 3, "output_digests": [[digest]] * 3}
        return {"schema": series.SCHEMA, "fingerprint": mark, "workloads": {"w": entry}}

    base = result([100.0, 101.0, 99.0])
    rows, reasons = series.compare(base, result([100.5, 99.5, 101.5]))
    assert not reasons and "unchanged" in rows[1]
    rows, reasons = series.compare(base, result([60.0, 100.0, 140.0]))
    assert not reasons and "unresolved" in rows[1]
    rows, reasons = series.compare(base, result([80.0, 81.0, 79.0]))
    assert "REGRESSED" in rows[1] and len(reasons) == 1
    rows, reasons = series.compare(base, result([130.0, 131.0, 129.0]))
    assert not reasons and "improved" in rows[1]
    _rows, reasons = series.compare(base, result([100.0] * 3, digest="other"))
    assert reasons == ["w: output_digests of run 0 differ",
                       "w: output_digests of run 1 differ",
                       "w: output_digests of run 2 differ"]
    _rows, reasons = series.compare(base, result([100.0] * 3, smoke=True))
    assert any("--smoke" in reason for reason in reasons)


def test_command_line_list_subset_and_unknown_names(tmp_path):
    def cli(*arguments):
        return subprocess.run([sys.executable, "-m", "perfbench", *arguments],
                              cwd=runner.ROOT, capture_output=True, text=True)

    listed = cli("--list")
    manifest = runner.manifest()
    assert listed.returncode == 0
    for key in ("workloads", "end_to_end", "per_layer"):
        assert all(item["name"] in listed.stdout for item in manifest[key])
    unknown = cli("--workloads", "price_sweep,nope")
    assert unknown.returncode == 2 and "train_qat" in unknown.stderr
    out = tmp_path / "series.json"
    subset = cli("--workloads", "price_sweep", "--smoke", "--seconds", "0", "--out", str(out))
    assert subset.returncode == 0, subset.stderr
    written = json.loads(out.read_text())
    assert list(written["workloads"]) == ["price_sweep"] and written["fingerprint"]["smoke"]
    assert "price_sweep | ops_per_s" in out.with_suffix(".md").read_text()
    one = cli("--workload", "price_sweep", "--smoke", "--seed", "4", "--seconds", "0",
              "--trace", "0")
    last = json.loads(one.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"} and last["correct"]
    leftovers = [path for path in runner.SCRATCH.iterdir() if path.name.startswith("perfbench-")]
    assert not leftovers
