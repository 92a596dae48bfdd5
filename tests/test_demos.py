"""The fast demos run end to end against the public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# demo -> a line of its output that only a complete run prints
DEMOS = {
    "01_tensor_engine": "softmax(x xT) chain: max relative error",
    "02_memory_index": "reloaded index returns identical results",
    "03_crossbatch_training": "attention mass:",
    "04_distraction_metric": "per-context share at d=8",
    "05_context_extrapolation": "(the local-only baseline path",
    "06_perplexity_and_scores": "multi-doc (no resets): ppl",
}
# demo 03 trains a model and takes minutes at its default 120 steps
ARGS = {"03_crossbatch_training": ["2"]}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py"), *ARGS.get(demo, [])],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert DEMOS[demo] in proc.stdout
