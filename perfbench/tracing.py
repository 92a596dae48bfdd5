"""Spans and counters recorded around fot's public functions, from outside.

Every wrapper replaces a name where the caller looks it up, so nothing under
``src/fot`` changes:

- ``fot.numerics.<op>``: ``model`` calls ``N.<op>`` through the module;
- ``fot.training.<fn>``: ``training`` imports ``crossbatch_grad_step`` and
  ``save_checkpoint`` by name, so the binding in ``training`` is replaced;
- class methods (``MemoryIndex.topk``, ``Transformer.forward_infer``, ...):
  every instance looks them up on the class.

A span is (name, start, end, parent, run id). Spans stay in memory until the
run ends. A span's self time is its duration minus the durations of its
direct children; one thread makes no overlapping children, so that is the
part of the interval its children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# numerics primitives timed one by one (forward only: their backward
# closures run later, inside the ``numerics.backward`` span)
NUMERICS_OPS = ("matmul", "softmax_last_axis", "concat_axis", "concat_last_axis",
                "take_rows", "rms_norm", "rotary_encode", "l2_normalize_last_axis")


class Tracer:
    """Records nested spans and named counts; ``install`` wraps fot's layers."""

    def __init__(self):
        self.spans: list[tuple] = []     # (name, start, end, parent index, run id)
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self.paused = False              # while set, wrapped calls are not recorded
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(counts, args, result)``
        runs after the span closes so its cost stays out of the span."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)
            if count is not None:
                count(counts, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every layer boundary the workloads cross (all but ``fot.cli``)."""
        import fot.analysis as A
        import fot.numerics as N
        import fot.tasks as TK
        import fot.training as TR
        from fot.memstore import MemoryIndex
        from fot.model import Transformer
        from fot.pipeline import CrossbatchPipeline

        for op in NUMERICS_OPS:
            self.patch(N, op, f"numerics.{op}")
        self.patch(N, "backward", "numerics.backward")
        self.patch(N, "backward_from", "numerics.backward",
                   count=lambda c, a, out: c.__setitem__("tape_nodes", c["tape_nodes"] + len(a[0])))

        self.patch(TR, "crossbatch_grad_step", "model.grad_step")
        self.patch(Transformer, "encode_windows", "model.encode_windows",
                   count=lambda c, a, out: c.__setitem__("encode_rows", c["encode_rows"] + a[1].shape[0]))

        def infer_count(c, a, out):
            c["infer_tokens"] += len(a[1])
        self.patch(Transformer, "forward_infer", "model.forward_infer", count=infer_count)

        def topk_count(c, a, out):
            index, layer, queries = a[0], a[1], a[2]
            c["topk_scanned"] += queries.shape[0] * queries.shape[1] * index.layer_size(layer)

        def append_count(c, a, out):
            index, layer = a[0], a[1]
            c["entries"] = max(c["entries"], index.layer_size(layer))
        self.patch(MemoryIndex, "topk", "memstore.topk", count=topk_count)
        self.patch(MemoryIndex, "append_block", "memstore.append", count=append_count)

        def plan_count(c, a, plan):
            refs = sum(len(ws) for ws in plan.per_slot)
            unique = {(pw.source_slot, pw.window_index) for ws in plan.per_slot for pw in ws}
            c["window_refs"] += refs
            c["unique_windows"] += len(unique)
        self.patch(CrossbatchPipeline, "next_batch", "pipeline.next_batch")
        self.patch(CrossbatchPipeline, "build_plan", "pipeline.build_plan", count=plan_count)

        self.patch(TR.Adam, "step", "training.optimizer")
        self.patch(TR, "clip_global_norm", "training.clip")
        self.patch(TR, "save_checkpoint", "training.checkpoint")

        for fn in ("gen_text_corpus", "gen_passkey", "gen_dict_lookup"):
            self.patch(TK, fn, "tasks.gen")
        self.patch(A, "perplexity_eval", "analysis.eval")
        self.patch(A, "greedy_continuation", "analysis.eval")

    # -- summaries -----------------------------------------------------------

    def mark(self) -> tuple[int, dict[str, float]]:
        """Position to measure from or to: span count and a copy of the counts."""
        return len(self.spans), dict(self.counts)

    def totals(self, since: int = 0, until: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, over spans[since:until]."""
        spans = self.spans[since:until]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= since:
                child[parent - since] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(spans):
            t = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["total_s"] += end - start
            t["self_s"] += end - start - child[i]
        return out

    def nesting_violations(self) -> int:
        """Spans that start before or end after their parent (must be 0)."""
        bad = 0
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                _, ps, pe, _, _ = self.spans[parent]
                if start < ps or end > pe:
                    bad += 1
        return bad

    def dump(self, path) -> None:
        """Write every span as one JSON line (name, start, end, parent, run)."""
        with open(path, "w") as f:
            for name, start, end, parent, run in self.spans:
                f.write(json.dumps([name, round(start, 9), round(end, 9), parent, run]) + "\n")
