"""Benchmark for fot: one workload per call, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload train-d2 --seed 1 --seconds 26 --trace 0

Run from the repository root. The workload runs in a child process
(``workloads.py``) with ``src`` on PYTHONPATH and the BLAS thread count
pinned. ``--trace 0`` runs it once, untraced, and reports the end-to-end
metrics. ``--trace 1`` runs it untraced and then traced, and reports the
per-layer metrics of the traced run, the process counters of the untraced
one, and the tracing overhead on each end-to-end metric. The last line of
standard output is the result object; the line before it holds the run's
environment and raw figures. Spans of a traced run are written to
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BLAS_THREADS = 1          # one compute thread: CPU time then tracks a dedicated core
DEADLINE_S = 170          # the whole call, both children included

WORKLOADS = ("train-d2", "train-d16", "eval-ppl", "decode")

END_TO_END = {"tok_s": "tok/s", "ttft_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _per_layer_units() -> dict[str, str]:
    from tracing import NUMERICS_OPS
    units = {"numerics.backward_ms": "ms/op", "numerics.tape_nodes": "count/op"}
    for op in NUMERICS_OPS:
        units[f"numerics.{op}_ms"] = "ms/op"
        units[f"numerics.{op}_calls"] = "count/op"
    units.update({
        "model.grad_step_ms": "ms/op", "model.grad_step_self_ms": "ms/op",
        "model.encode_windows_ms": "ms/op", "model.encode_rows": "count/op",
        "model.forward_infer_ms": "ms/op", "model.forward_infer_self_ms": "ms/op",
        "model.infer_tokens_per_output": "count",
        "memstore.topk_ms": "ms/op", "memstore.topk_calls": "count/op",
        "memstore.topk_scanned": "count/op", "memstore.topk_ns_per_scan": "ns",
        "memstore.append_ms": "ms/op", "memstore.append_calls": "count/op",
        "memstore.entries": "count",
        "pipeline.next_batch_ms": "ms/op", "pipeline.build_plan_ms": "ms/op",
        "pipeline.window_refs": "count/op", "pipeline.unique_windows": "count/op",
        "pipeline.window_reuse": "ratio",
        "training.optimizer_ms": "ms/op", "training.clip_ms": "ms/op",
        "training.checkpoint_ms": "ms",
        "tasks.gen_ms": "ms/op", "tasks.setup_gen_ms": "ms",
        "analysis.eval_self_ms": "ms/op",
        "trace.spans": "count/op", "trace.nesting_violations": "count",
        "proc.cpu_user_s": "s/op", "proc.cpu_sys_s": "s/op", "proc.minflt": "count/op",
    })
    for name in END_TO_END:
        units[f"overhead.{name}"] = "%"
    return units


PER_LAYER = _per_layer_units()


def source_fingerprint() -> dict:
    """Git commit when there is one, and a hash of the sources either way."""
    try:
        # the ceiling keeps git from reading repositories above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fot").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()[:16]}


def run_child(args, run_dir: Path, trace: int, check: bool, deadline: float) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--run-dir", str(run_dir)] + ([] if check else ["--no-check"])
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{args.workload} did not finish in time")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{args.workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def per_op_proc(res: dict) -> dict[str, float]:
    ops = res["ops"]
    return {f"proc.{k}": v / ops for k, v in res["proc"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fot benchmark (run from the repository root)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "fot" / "__init__.py").is_file():
        print("perfbench: no src/fot under the current directory; run from the "
              "repository root", file=sys.stderr)
        return 2
    run_dir = ROOT / ".perfbench"
    run_dir.mkdir(exist_ok=True)
    try:
        base = run_child(args, run_dir, trace=0, check=not args.trace, deadline=deadline)
        traced = run_child(args, run_dir, 1, True, deadline) if args.trace else None
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    judged = traced or base
    info = {"source": source_fingerprint(), "blas_threads": BLAS_THREADS,
            "untraced": base, "traced": traced}
    if traced is None:
        metrics = {name: {"value": float(base[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        values = dict(traced["layers"], **per_op_proc(base))
        for name in END_TO_END:
            # positive: tracing made the figure worse by that share
            if name == "tok_s":
                values[f"overhead.{name}"] = 100.0 * (base[name] / traced[name] - 1.0)
            else:
                values[f"overhead.{name}"] = 100.0 * (traced[name] / base[name] - 1.0)
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    print(json.dumps(info))
    print(json.dumps({"correct": judged["failed"] == 0 and judged["attempted"] >= 1,
                      "attempted": judged["attempted"], "failed": judged["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
