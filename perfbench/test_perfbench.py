"""Tests of the benchmark itself, on tiny models (a few seconds in all).

    python3 -m pytest -q perfbench

They check that every wrapper fires on the workloads that should call it,
that spans nest (so self times are >= 0), that the output checks pass on
the library as it is and reject a wrong result, and that the entry point
refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import fot.memstore as M  # noqa: E402
import fot.model as FM  # noqa: E402
import fot.numerics as N  # noqa: E402
import run as RUN  # noqa: E402
import workloads as W  # noqa: E402
from fot.model import ModelConfig  # noqa: E402
from tracing import Tracer  # noqa: E402


def tiny(vocab: int) -> ModelConfig:
    return ModelConfig(n_layers=3, d_model=32, n_heads=2, head_dim=16, ff_dim=64,
                       vocab_size=vocab, memory_layers=(1,), local_ctx_len=16)


def run_tiny(name: str, tmp_path, tracer=None, check=True):
    if name.startswith("train"):
        d = 2 if name == "train-d2" else 4
        return W.run_train(d, 0, 0.3, tmp_path, tracer, check, model_cfg=tiny(64), b_s=4)
    if name == "eval-ppl":
        return W.run_eval(0, 0.3, tracer, check, model_cfg=tiny(256), doc_len=128)
    return W.run_decode(0, 0.3, tracer, check, model_cfg=tiny(256), prompt_len=128, n_tokens=17)


TRAIN_SPANS = {"model.grad_step", "model.encode_windows", "numerics.backward",
               "numerics.matmul", "numerics.softmax_last_axis", "numerics.concat_axis",
               "pipeline.next_batch", "pipeline.build_plan", "training.optimizer",
               "training.clip", "training.checkpoint", "tasks.gen"}
INFER_SPANS = {"model.forward_infer", "memstore.topk", "memstore.append", "analysis.eval",
               "numerics.matmul", "numerics.concat_last_axis", "numerics.rotary_encode",
               "numerics.l2_normalize_last_axis"}
# the single-tape path gathers extras with take_rows, the chunked one with numpy
EXPECTED = {"train-d2": (TRAIN_SPANS | {"numerics.take_rows"},
                         {"memstore.topk", "model.forward_infer"}),
            "train-d16": (TRAIN_SPANS, {"numerics.take_rows", "memstore.topk",
                                        "model.forward_infer"}),
            "eval-ppl": (INFER_SPANS, {"numerics.backward", "model.grad_step"}),
            "decode": (INFER_SPANS, {"numerics.backward", "model.grad_step"})}


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_wrappers_fire_and_nest(name, tmp_path, monkeypatch):
    if name == "train-d16":
        monkeypatch.setattr(FM, "FULL_TAPE_SCORE_BYTES", 0)
    tracer = Tracer()
    tracer.install()
    try:
        res = run_tiny(name, tmp_path, tracer)
    finally:
        tracer.restore()
    (since, _), (until, _) = res["marks"]
    names = set(tracer.totals(since, until))
    must, must_not = EXPECTED[name]
    assert must <= names, must - names
    assert not (must_not & names)
    assert tracer.nesting_violations() == 0
    assert all(t["self_s"] >= -1e-9 for t in tracer.totals().values())
    layers = W.layer_metrics(tracer, res)
    assert set(layers) | {k for k in RUN.PER_LAYER if k.startswith(("proc.", "overhead."))} \
        == set(RUN.PER_LAYER)
    assert layers["trace.nesting_violations"] == 0
    if name.startswith("train"):
        assert layers["numerics.tape_nodes"] > 0 and layers["pipeline.window_reuse"] >= 1
    else:
        assert layers["memstore.topk_scanned"] > 0 and layers["memstore.entries"] > 0
    # every wrapper is gone afterwards
    assert not hasattr(N.matmul, "__wrapped__")
    assert not hasattr(M.MemoryIndex.topk, "__wrapped__")


def test_self_time_subtracts_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    tot = tracer.totals()
    assert tot["inner"]["calls"] == 3
    assert 0 <= tot["outer"]["self_s"] < tot["outer"]["total_s"]
    assert tot["outer"]["total_s"] >= tot["inner"]["total_s"]


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_checks_pass_on_the_library(name, tmp_path, monkeypatch):
    if name == "train-d16":
        monkeypatch.setattr(FM, "FULL_TAPE_SCORE_BYTES", 0)
    res = run_tiny(name, tmp_path)
    budget = res["budget"]
    assert budget.attempted >= 1
    assert budget.failed == 0, budget.reasons


def _scaled_rms_norm(monkeypatch, factor=1.01):
    orig = N.rms_norm
    monkeypatch.setattr(N, "rms_norm", lambda x, g, eps=1e-6: N.scale(orig(x, g, eps), factor))


@pytest.mark.parametrize("name", ["train-d2", "eval-ppl"])
def test_checks_reject_a_wrong_forward(name, tmp_path, monkeypatch):
    _scaled_rms_norm(monkeypatch)
    budget = run_tiny(name, tmp_path)["budget"]
    assert budget.failed > 0


def test_decode_check_rejects_a_wrong_token(tmp_path, monkeypatch):
    orig = FM.Transformer.forward_infer

    def shifted(self, *a, **kw):
        out = orig(self, *a, **kw)
        return FM.InferForward(np.roll(out.logits, 1, axis=-1), out.new_kv, out.records)
    monkeypatch.setattr(FM.Transformer, "forward_infer", shifted)
    budget = run_tiny("decode", tmp_path)["budget"]
    assert budget.failed > 0


def test_eval_check_rejects_wrong_topk_order(tmp_path, monkeypatch):
    orig = M._exact_topk_rows
    monkeypatch.setattr(M, "_exact_topk_rows", lambda s, k: orig(s, k)[:, ::-1].copy())
    budget = run_tiny("eval-ppl", tmp_path)["budget"]
    assert any("brute force" in r for r in budget.reasons)


def test_tie_probe_rejects_higher_index_ties(monkeypatch):
    def higher_first(scores, k):
        n = scores.shape[1]
        return (n - 1 - np.argsort(-scores[:, ::-1], axis=1, kind="stable"))[:, :k]
    assert W._tie_probe(tiny(256))
    monkeypatch.setattr(M, "_exact_topk_rows", higher_first)
    assert not W._tie_probe(tiny(256))


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(RUN.WORKLOADS) == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == RUN.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == RUN.PER_LAYER


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "decode",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
