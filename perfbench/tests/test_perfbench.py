"""The benchmark's own tests: every workload runs, every check can fail.

Run with ``python -m pytest perfbench/tests -q`` from the repository
root.  The command-line runs use ``--seconds 1`` so the whole file takes
about a minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import compare
from perfbench.checks import CheckFailed
from perfbench.layers import COMPUTE_TARGETS, ROUTER_TARGETS, LayerTimer
from perfbench.workloads import (
    END_TO_END,
    PER_LAYER,
    Params,
    _Op,
    run_config,
    serve_hot,
    verify_replies,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")


def _run(workload: str, trace: int, tmp_path, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--out", str(tmp_path)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["train-arxiv", "serve-hot",
                                      "serve-churn"])
def test_traced_run_reports_every_metric(workload, tmp_path):
    out = _run(workload, 1, tmp_path)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(PER_LAYER)
    (path,) = tmp_path.glob("*.json")
    record = json.loads(path.read_text())
    assert set(record["end_to_end"]) == set(END_TO_END)
    assert all(v > 0 for k, v in record["end_to_end"].items())
    assert record["host"]["blas_threads"] == 1
    assert record["seed"] == 1 and record["samples"]["setup_s"]


def test_end_to_end_run_prints_contract_line(tmp_path):
    out = _run("serve-hot", 0, tmp_path)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _) in END_TO_END.items()}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _run("train-arxiv", 0, tmp_path / "out", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


@pytest.fixture(scope="module")
def hot_run():
    p = Params(scale=0.1, seconds=0.3, setup_reps=1, warmup_s=0.1,
               hot_nodes=16, callers=2)
    outcome = serve_hot(p, 0, False, 0.0, work=None)
    return p, outcome


def test_hot_replies_match_the_reference(hot_run):
    from repro.api import Session

    p, outcome = hot_run
    assert outcome.error is None
    verify_replies(Session(run_config(p, 0)), outcome.ops, 0)


def test_one_flipped_logit_fails_the_run(hot_run):
    from repro.api import Session

    p, outcome = hot_run
    op = outcome.ops[len(outcome.ops) // 2]
    logits = op.reply.logits.copy()
    logits.view(np.uint32)[0, 0] ^= 1  # one bit of one logit
    op.reply.logits = logits
    with pytest.raises(CheckFailed, match="logits differ"):
        verify_replies(Session(run_config(p, 0)), outcome.ops, 0)


def _churn_ops(p, versions):
    from repro.graph import load_node_dataset
    from repro.stream import make_churn_deltas
    from perfbench.stack import Reply

    ds = load_node_dataset("ogbn-arxiv", scale=p.scale, seed=0)
    deltas = make_churn_deltas(ds, num_deltas=len(versions), seed=0)
    return [_Op("write", delta=d, request_id=i,
                reply=Reply(i, "result", 0.0, graph_version=v))
            for i, (d, v) in enumerate(zip(deltas, versions))]


def test_consecutive_mutate_versions_pass():
    from repro.api import Session

    p = Params(scale=0.1)
    ops = _churn_ops(p, [1, 2, 3])
    verify_replies(Session(run_config(p, 0)), ops, 0)


def test_a_skipped_mutate_version_fails_the_run():
    from repro.api import Session

    p = Params(scale=0.1)
    ops = _churn_ops(p, [1, 3, 4])
    with pytest.raises(CheckFailed, match="expected \\[1, 2, 3\\]"):
        verify_replies(Session(run_config(p, 0)), ops, 0)


def test_layer_timer_restores_every_wrap_point():
    import repro.net.server as net_server
    import repro.train.trainer as trainer
    from repro.tensor.tensor import Tensor

    before = (trainer.planned_forward, vars(Tensor)["backward"],
              net_server.encode_message)
    with LayerTimer().install(COMPUTE_TARGETS + ROUTER_TARGETS):
        assert trainer.planned_forward is not before[0]
        assert vars(Tensor)["backward"] is not before[1]
    assert (trainer.planned_forward, vars(Tensor)["backward"],
            net_server.encode_message) == before


def test_layer_timer_books_self_time_apart_from_children():
    import types

    from perfbench.layers import Target

    mod = types.SimpleNamespace()
    mod.inner = lambda: sum(range(20000))
    mod.outer = lambda: [mod.inner() for _ in range(3)]
    timer = LayerTimer()
    timer.wrap_attr(mod, "inner", Target("x:inner", "inner"))
    timer.wrap_attr(mod, "outer", Target("x:outer", "outer"))
    mod.outer()
    timer.uninstall()
    outer, inner = timer.stat("outer"), timer.stat("inner")
    assert inner.calls == 3 and outer.calls == 1
    assert outer.self_time == pytest.approx(
        outer.inclusive - inner.inclusive, abs=1e-9)


def test_compare_verdicts():
    lower = dict(better="lower", bound=0.1)
    same = [10.0, 10.1, 9.9, 10.0, 10.05]
    faster = [8.0, 8.1, 7.9, 8.0, 8.05]
    assert compare.verdict(same, faster, list(zip(same, faster)),
                           **lower)["verdict"] == "better"
    assert compare.verdict(faster, same, list(zip(faster, same)),
                           **lower)["verdict"] == "worse"
    assert compare.verdict(same, same, list(zip(same, same)),
                           **lower)["verdict"] == "no worse"
    noisy = [5.0, 15.0, 9.0, 12.0, 7.0]
    assert compare.verdict(same, noisy, list(zip(same, noisy)),
                           **lower)["verdict"] == "unresolved"


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
