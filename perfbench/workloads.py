"""One benchmark workload, in its own process: set up, time, check, report.

    python3 perfbench/workloads.py --workload train-d2 --seed 1 --seconds 26 \
        --trace 0 --run-dir .perfbench [--no-check]

``run.py`` starts this with ``src`` on PYTHONPATH and the BLAS thread count
pinned, and reads the JSON object it prints last. Each workload is a closed
loop with one caller: the next operation starts when the previous one ends,
as long as it would end at most half of itself past ``--seconds`` (see
``timing.another``). At least one operation always runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import fot.analysis as A
import fot.tasks as TK
import fot.training as TR
from fot.config import TrainConfig, get_preset
from fot.errors import DataError, FotError
from fot.memstore import MemoryIndex, brute_force_topk
from fot.model import ModelConfig, Transformer
from fot.pipeline import CrossbatchPipeline

import reference as R
from timing import CPU, NORM, WALL, SetupClock, SpeedProbe, another, stamp
from tracing import NUMERICS_OPS, Tracer

SETUP_REPEATS = 10         # half before the timed region, half after it

# Tolerances, fixed before any measurement. f32 library vs f64 reference:
LOSS_ATOL = 1e-4           # masked mean NLL of a train step
HEAD_GRAD_RTOL = 1e-3      # lm_head / lm_bias gradient, relative to its max
NLL_RTOL = 1e-4            # per-doc NLL sums of the prefix eval
LOGIT_ATOL = 1e-3          # a greedy token's logit may trail the reference max by this
KV_ATOL = 1e-4             # appended memory keys/values vs the reference's
TOPK_SCORE_ATOL = 1e-5     # topk may differ from brute force only on near-ties
TOPK_ROWS = 32             # queries per sampled topk call checked against brute force

DECODE_PROMPT = 2048
DECODE_TOKENS = 257        # one full window cycle after the first token
EVAL_DOCS, EVAL_DOC_LEN, EVAL_K = 2, 8192, 32
PREFIX_WINDOWS = 2         # per doc, for ttft_s and the reference check
PROBES_PER_STEP = 3        # speed probes inside each train step
SHORT_CALLS = 2            # ttft_s samples before each long call; more fill the budget's end


# ---------------------------------------------------------------------------
# workload definitions
# ---------------------------------------------------------------------------

def train_config(d: int, seed: int, model: ModelConfig | None = None, b_s: int = 16) -> TrainConfig:
    """The acceptance suite's phase-1 dictionary recipe at constant d."""
    cfg = get_preset("desk")
    if model is not None:
        cfg.model = model
    cfg.model.qk_normalize = False
    cfg.task, cfg.b_s, cfg.d_kind, cfg.d = "dict", b_s, "constant", d
    cfg.max_lr, cfg.min_lr, cfg.warmup_steps, cfg.grad_clip = 1e-2, 1e-4, 50, 1.0
    cfg.steps, cfg.seed = 700, seed
    return cfg


def infer_model_config(model: ModelConfig | None = None) -> ModelConfig:
    """desk-byte with the structured init, so outputs depend on the forward."""
    cfg = model if model is not None else get_preset("desk-byte").model
    cfg.init_scheme = "structured"
    return cfg


class ObservedModel(Transformer):
    """Keeps each ``forward_infer`` result while ``log`` is a list, and runs
    the speed probe after every ``probe_every``-th call while ``probe`` is
    set (never in a traced run, where it would land in the spans)."""

    log: list | None = None
    probe: SpeedProbe | None = None
    probe_every = 0
    _calls = 0

    def forward_infer(self, tokens, memory, k, **kw):
        out = super().forward_infer(tokens, memory, k, **kw)
        if self.log is not None:
            self.log.append(out)
        if self.probe is not None:
            self._calls += 1
            if self._calls % self.probe_every == 0:
                self.probe()
        return out

    @contextlib.contextmanager
    def probing(self, probe: SpeedProbe | None, every: int):
        self.probe, self.probe_every = probe, every
        try:
            yield
        finally:
            self.probe = None


class ObservedIndex(MemoryIndex):
    """Records appended blocks and samples ``topk`` calls while ``sink`` is set."""

    sink: dict | None = None
    every = 16

    def append_block(self, layer, keys, values, doc_id, positions):
        if ObservedIndex.sink is not None:
            ObservedIndex.sink.setdefault("appends", []).append(
                (layer, np.array(keys, copy=True), np.array(values, copy=True)))
        return super().append_block(layer, keys, values, doc_id, positions)

    def topk(self, layer, queries, k):
        res = super().topk(layer, queries, k)
        sink = ObservedIndex.sink
        if sink is not None:
            n_calls = sink.get("topk_calls", 0)
            sink["topk_calls"] = n_calls + 1
            if n_calls % self.every == 0:
                sink.setdefault("topk", []).append(
                    (layer, np.array(queries, copy=True), self.layer_size(layer), k, res))
        return res


class Budget:
    """Counts operations and their failures, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, n: int, reason: str) -> None:
        self.failed += n
        self.reasons.append(reason)


class Usage:
    """``getrusage`` deltas summed over the blocks it is entered for (the
    long operations), less the speed probes run inside them, and the peak
    RSS at the end of the last one."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.user_s = self.sys_s = 0.0
        self.minflt = 0
        self.peak_rss_mb = 0.0

    def __enter__(self):
        self._n0 = len(self.probe.samples)
        self._r0 = resource.getrusage(resource.RUSAGE_SELF)
        return self

    def __exit__(self, *exc):
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        self.user_s += r1.ru_utime - self._r0.ru_utime - sum(self.probe.samples[self._n0:])
        self.sys_s += r1.ru_stime - self._r0.ru_stime
        self.minflt += r1.ru_minflt - self._r0.ru_minflt - sum(self.probe.faults[self._n0:])
        self.peak_rss_mb = r1.ru_maxrss / 1024.0


@contextlib.contextmanager
def _untraced(tracer: Tracer | None):
    """Short calls stay out of the per-layer figures, which are per long op."""
    if tracer is not None:
        tracer.paused = True
    try:
        yield
    finally:
        if tracer is not None:
            tracer.paused = False


class _Patch:
    """Replaces attributes for the timed region and puts them back."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# train-d2 / train-d16
# ---------------------------------------------------------------------------

def run_train(d: int, seed: int, seconds: float, run_dir: Path, tracer: Tracer | None,
              check: bool, model_cfg: ModelConfig | None = None, b_s: int = 16) -> dict:
    cfg = train_config(d, seed, model_cfg, b_s)

    def build():
        model = Transformer(cfg.model, seed=cfg.seed)
        pipe = CrossbatchPipeline(TR.make_doc_stream(cfg), cfg.b_s, cfg.model.local_ctx_len,
                                  cfg.schedule(), w=cfg.w, seed=cfg.seed)
        return model, pipe, TR.make_optimizer(cfg, model.params)

    probe = SpeedProbe()
    setup = SetupClock(build, SETUP_REPEATS, probe)
    setup.run()
    budget = Budget()
    done: list[np.ndarray] = []      # stamp after each optimizer step
    excluded: list[np.ndarray] = []  # per step: time spent copying for the check
    probed: list[int] = []           # the last probe before the loop, then per step
    last: dict = {}
    losses: list[float] = []
    grad_step, adam_step, next_batch = TR.crossbatch_grad_step, TR.Adam.step, \
        CrossbatchPipeline.next_batch

    def observed_grad_step(model, batch, plan, **kw):
        for _ in range(PROBES_PER_STEP):
            probe()
        t0 = stamp()
        if check:
            last["params"] = {k: p.data.copy() for k, p in model.params.items()}
        t1 = stamp()
        loss, recs = grad_step(model, batch, plan, **kw)
        t2 = stamp()
        if check:
            last.update(batch=batch, plan=plan, loss=loss, cfg=model.cfg,
                        g_head=model.params["lm_head"].grad.copy(),
                        g_bias=model.params["lm_bias"].grad.copy())
        losses.append(loss)
        excluded.append((t1 - t0) + (stamp() - t2))
        return loss, recs

    def observed_adam_step(self, lr):
        adam_step(self, lr)
        done.append(stamp())
        probed.append(len(probe.samples) - 1)
        if tracer is not None:
            tracer.run_id = len(done)

    def stop_at_deadline(self):
        # dict documents are two windows long, so every slot starts a new
        # document on even steps (no previous window, no extras) and uses its
        # previous window on odd ones: runs end after whole pairs of steps
        if len(done) >= 2 and len(done) % 2 == 0:
            last_pair = done[-1] - (done[-3] if done[2:] else t_call)
            if not another(stamp() - t_call, last_pair, seconds):
                raise DataError("benchmark deadline")   # train() ends the loop cleanly
        return next_batch(self)

    patch = _Patch()
    patch.set(TR, "crossbatch_grad_step", observed_grad_step)
    patch.set(TR.Adam, "step", observed_adam_step)
    patch.set(CrossbatchPipeline, "next_batch", stop_at_deadline)
    out_dir = run_dir / f"train-d{d}"
    usage = Usage(probe)
    mark0 = tracer.mark() if tracer else None
    probed.append(probe())
    t_call = stamp()
    try:
        with usage:
            TR.train(cfg, out_dir)
    except FotError as e:
        budget.fail(1, f"train raised {type(e).__name__}: {e}")
        budget.attempted += 1
    finally:
        t_end = stamp()
        region = (probed[0], probe() + 1)
        mark1 = tracer.mark() if tracer else None
        patch.restore()
        shutil.rmtree(out_dir, ignore_errors=True)
    setup.run()

    budget.attempted += len(done)
    bad = [i for i, x in enumerate(losses) if not math.isfinite(x)]
    if bad:
        budget.fail(len(bad), f"non-finite loss at steps {bad}")
    if not done:
        raise RuntimeError("no optimizer step completed")
    starts = [t_call] + done[:-1]
    # a step's own probes run inside it and come out of its time; the speed
    # is the mean over the whole loop, as one or two probes per step say
    # little about the seconds of GEMMs and page faults in between
    steps = probe.views([(e - s - x, i, j + 1) for s, e, x, i, j
                         in zip(starts, done, excluded, probed, probed[1:])], region)
    tokens_per_step = cfg.b_s * cfg.model.local_ctx_len
    if check and last:
        _check_train_step(last, budget)
    return dict(setup_s=setup.median(), tok_s=tokens_per_step * len(steps) / steps.sum(axis=0),
                ttft_s=np.median(steps, axis=0), host_speed=probe.host_speed(), ops=len(done),
                budget=budget, usage=usage, timed_s=t_end - t_call, marks=(mark0, mark1),
                detail=dict(step_s=steps.tolist(), losses=[float(x) for x in losses]))


def _check_train_step(last: dict, budget: Budget) -> None:
    """The last step's loss and head gradients against the reference forward."""
    ref = R.ReferenceModel(last["cfg"], last["params"], dtype=np.float64)
    loss, g_head, g_bias = R.train_loss(ref, last["batch"], last["plan"])
    if not abs(loss - last["loss"]) <= LOSS_ATOL:
        budget.fail(1, f"last step loss {last['loss']:.6f} vs reference {loss:.6f}")
        return
    for name, got, want in (("lm_head", last["g_head"], g_head), ("lm_bias", last["g_bias"], g_bias)):
        err = float(np.abs(got - want).max())
        scale = float(np.abs(want).max())
        if not err <= HEAD_GRAD_RTOL * scale:
            budget.fail(1, f"last step {name} gradient off by {err:.3g} (max {scale:.3g})")
            return


# ---------------------------------------------------------------------------
# eval-ppl
# ---------------------------------------------------------------------------

def _eval_inputs(seed: int, doc_len: int):
    texts = TK.gen_text_corpus(EVAL_DOCS, doc_len, seed=seed)
    return [(i, TK.encode_bytes(t)) for i, t in enumerate(texts)]


def _prefix(docs, t: int):
    return [(i, toks[:PREFIX_WINDOWS * t]) for i, toks in docs]


def run_eval(seed: int, seconds: float, tracer: Tracer | None, check: bool,
             model_cfg: ModelConfig | None = None, doc_len: int = EVAL_DOC_LEN) -> dict:
    cfg = infer_model_config(model_cfg)

    def build():
        return _eval_inputs(seed, doc_len), ObservedModel(cfg, seed=seed)

    probe = SpeedProbe()
    setup = SetupClock(build, SETUP_REPEATS, probe)
    docs, model = setup.run()
    t = cfg.local_ctx_len
    prefix = _prefix(docs, t)
    budget = Budget()
    results, prefix_results, eval_s, short_s = [], [], [], []
    windows_per_eval = sum(-(-len(toks) // t) for _, toks in docs)
    patch = _Patch()
    patch.set(A, "MemoryIndex", ObservedIndex)
    sink: dict = {}
    usage = Usage(probe)

    def short_call():
        with _untraced(tracer), probe.op() as op:
            prefix_results.append(A.perplexity_eval(model, prefix, "multi_doc", k=EVAL_K))
        short_s.append(op.timed)

    mark0 = tracer.mark() if tracer else None
    t_start = stamp()
    try:
        while not results or another(stamp() - t_start,
                                     eval_s[-1][0] + SHORT_CALLS * short_s[-1][0], seconds):
            for _ in range(SHORT_CALLS):
                short_call()
            if not results:             # observe the first full eval only
                ObservedIndex.sink, model.log = sink, []
            if tracer is not None:
                tracer.run_id = len(results)
            with probe.op() as op, model.probing(None if tracer else probe, 4), usage:
                results.append(A.perplexity_eval(model, docs, "multi_doc", k=EVAL_K))
            eval_s.append(op.timed)
            if model.log is not None:
                sink["log"], model.log, ObservedIndex.sink = model.log, None, None
        short_call()
        while another(stamp() - t_start, short_s[-1][0], seconds):
            short_call()
        probe()
    finally:
        t_end = stamp()
        mark1 = tracer.mark() if tracer else None
        ObservedIndex.sink = None
        model.log = None
        patch.restore()
    setup.run()
    prefix_windows = PREFIX_WINDOWS * len(prefix)
    budget.attempted = windows_per_eval * len(results) + prefix_windows * len(prefix_results)

    for r in results[1:]:
        if (r.ppl, r.per_doc) != (results[0].ppl, results[0].per_doc):
            budget.fail(windows_per_eval, f"rerun ppl {r.ppl!r} != first {results[0].ppl!r}")
    if not math.isfinite(results[0].ppl):
        budget.fail(windows_per_eval * len(results), f"ppl {results[0].ppl}")
    if check:
        _check_eval(model, docs, prefix, prefix_results, results[0], sink, budget)
    evals, shorts = probe.views(eval_s), probe.views(short_s)
    return dict(setup_s=setup.median(), tok_s=sum(r.n_tokens for r in results) / evals.sum(axis=0),
                ttft_s=np.median(shorts, axis=0), host_speed=probe.host_speed(),
                ops=windows_per_eval * len(results), outputs=sum(r.n_tokens for r in results),
                budget=budget, usage=usage, timed_s=t_end - t_start, marks=(mark0, mark1),
                detail=dict(eval_s=evals.tolist(), ppl=results[0].ppl, short_s=shorts.tolist()))


def _check_eval(model, docs, prefix, prefix_results, res, sink, budget: Budget) -> None:
    cfg = model.cfg
    t = cfg.local_ctx_len
    n_windows = sum(-(-len(toks) // t) for _, toks in docs)
    # 1. the prefix eval (the ttft_s call) against the reference, window by window
    ref = R.ReferenceModel(cfg, model.params, dtype=np.float64)
    mem_k = {li: np.zeros((cfg.n_heads, 0, cfg.head_dim)) for li in cfg.memory_layers}
    mem_v = {li: np.zeros((cfg.n_heads, 0, cfg.head_dim)) for li in cfg.memory_layers}
    for doc_id, toks in prefix:
        total = 0.0
        for s in range(0, len(toks), t):
            window = toks[s:s + t]
            hidden, kv = ref.forward(window, R.topk_extras(mem_k, mem_v, EVAL_K))
            targets = toks[s + 1:min(s + t + 1, len(toks))]
            total += float(R.nll(ref.head(hidden)[:len(targets)], targets).sum())
            for li in cfg.memory_layers:
                mem_k[li] = np.concatenate([mem_k[li], kv[li][0]], axis=1)
                mem_v[li] = np.concatenate([mem_v[li], kv[li][1]], axis=1)
        got = prefix_results[0].per_doc[doc_id][0]
        if not abs(got - total) <= NLL_RTOL * abs(total):
            budget.fail(PREFIX_WINDOWS, f"doc {doc_id} prefix NLL {got:.6f} vs reference {total:.6f}")
    for r in prefix_results[1:]:
        if r.per_doc != prefix_results[0].per_doc:
            budget.fail(PREFIX_WINDOWS * len(prefix), "prefix eval rerun differs")
            break
    # 2. the full eval's per-window NLLs add up to its reported perplexity
    log = sink.get("log") or []
    if len(log) != n_windows:
        budget.fail(n_windows, f"observed {len(log)} forward_infer calls, expected {n_windows}")
    else:
        nll, i = 0.0, 0
        for _, toks in docs:
            for s in range(0, len(toks), t):
                targets = toks[s + 1:min(s + t + 1, len(toks))]
                nll += float(R.nll(log[i].logits[:len(targets)].astype(np.float64), targets).sum())
                i += 1
        if not abs(math.exp(nll / res.n_tokens) - res.ppl) <= 1e-6 * res.ppl:
            budget.fail(n_windows, f"ppl {res.ppl} != exp(mean window NLL)")
    # 3. appended blocks are the windows' own keys/values (reference-encoded)
    appends = sink.get("appends", [])
    flat = [toks[s:s + t] for _, toks in docs for s in range(0, len(toks), t)]
    first_layer = [a for a in appends if a[0] == cfg.memory_layers[0]]
    for w in sorted({0, len(flat) // 2, len(flat) - 1}):
        if w >= len(first_layer):
            budget.fail(1, f"window {w} was never appended")
            continue
        layer, keys, values = first_layer[w]
        _, kv = ref.forward(flat[w], stop_at_memory_kv=True)
        err = max(float(np.abs(keys - kv[layer][0]).max()), float(np.abs(values - kv[layer][1]).max()))
        if not err <= KV_ATOL:
            budget.fail(1, f"window {w} appended K/V off by {err:.3g}")
    # 4. sampled topk calls against the brute-force oracle
    samples = sink.get("topk", [])
    if not samples:
        budget.fail(1, "no MemoryIndex.topk call observed")
    for layer, queries, n, k, got in samples:
        keys = np.concatenate([kb for li, kb, _ in appends if li == layer], axis=1)[:, :n]
        rows = np.linspace(0, queries.shape[1] - 1, TOPK_ROWS).astype(int)
        for h in range(queries.shape[0]):
            idx, _ = brute_force_topk(keys[h], queries[h, rows], k)
            if not _same_topk(keys[h], queries[h, rows], got.indices[h, rows], idx):
                budget.fail(1, f"topk (layer {layer}, head {h}, n={n}) differs from brute force")
                break
    # 5. exact ties go to the lower index
    if not _tie_probe(cfg):
        budget.fail(1, "topk broke an exact tie against the lower index")


def _same_topk(keys, queries, got, want) -> bool:
    """Equal index lists, except where the two picks score within a rounding
    error of each other (summation order may differ from the oracle's)."""
    if got.shape != want.shape:
        return False
    diff = got != want
    if not diff.any():
        return True
    q64, k64 = queries.astype(np.float64), keys.astype(np.float64)
    rows = np.nonzero(diff)[0]
    s_got = np.einsum("rd,rd->r", q64[rows], k64[got[diff]])
    s_want = np.einsum("rd,rd->r", q64[rows], k64[want[diff]])
    return bool(np.all(np.abs(s_got - s_want) <= TOPK_SCORE_ATOL))


def _tie_probe(cfg: ModelConfig) -> bool:
    """Integer keys make inner products exact, so ties are real ties."""
    rng = np.random.default_rng(0)
    index = MemoryIndex((0,), cfg.n_heads, cfg.head_dim)
    keys = rng.integers(-1, 2, size=(cfg.n_heads, 96, cfg.head_dim)).astype(np.float32)
    keys[:, 64:] = keys[:, :32]        # every early key repeats later
    index.append_block(0, keys, keys, 0, np.arange(96))
    queries = rng.integers(-1, 2, size=(cfg.n_heads, 8, cfg.head_dim)).astype(np.float32)
    got = index.topk(0, queries, 40)
    for h in range(cfg.n_heads):
        want, _ = brute_force_topk(keys[h], queries[h], 40)
        if not np.array_equal(got.indices[h], want):
            return False
    return True


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

def run_decode(seed: int, seconds: float, tracer: Tracer | None, check: bool,
               model_cfg: ModelConfig | None = None, prompt_len: int = DECODE_PROMPT,
               n_tokens: int = DECODE_TOKENS) -> dict:
    cfg = infer_model_config(model_cfg)

    def build():
        prompt = TK.gen_passkey(TK.PasskeyTaskConfig(prompt_len=prompt_len, seed=seed)).tokens
        return prompt, ObservedModel(cfg, seed=seed)

    probe = SpeedProbe()
    setup = SetupClock(build, SETUP_REPEATS, probe)
    prompt, model = setup.run()
    # the first call in a process pays one-off costs no later call sees
    A.greedy_continuation(model, prompt[:cfg.local_ctx_len + 1], 1, k=EVAL_K)
    budget = Budget()
    firsts, runs, short_s, long_s = [], [], [], []
    usage = Usage(probe)

    def short_call():
        with _untraced(tracer), probe.op() as op:
            firsts.append(A.greedy_continuation(model, prompt, 1, k=EVAL_K))
        short_s.append(op.timed)

    mark0 = tracer.mark() if tracer else None
    t_start = stamp()
    try:
        while not runs or another(stamp() - t_start,
                                  long_s[-1][0] + SHORT_CALLS * short_s[-1][0], seconds):
            for _ in range(SHORT_CALLS):
                short_call()
            if tracer is not None:
                tracer.run_id = len(runs)
            with probe.op() as op, model.probing(None if tracer else probe, 16), usage:
                runs.append(A.greedy_continuation(model, prompt, n_tokens, k=EVAL_K))
            long_s.append(op.timed)
        short_call()
        while another(stamp() - t_start, short_s[-1][0], seconds):
            short_call()
        probe()
    finally:
        t_end = stamp()
        mark1 = tracer.mark() if tracer else None
    setup.run()
    budget.attempted = len(firsts) + n_tokens * len(runs)
    first = runs[0]
    for r in runs[1:]:
        if not np.array_equal(r, first):
            budget.fail(int((r != first).sum()), "rerun generated different ids")
    for f in firsts:
        if f.shape != (1,) or f[0] != first[0]:
            budget.fail(1, f"one-token call gave {f.tolist()}, long call starts {first[0]}")
    if check:
        bad = _check_decode(model, prompt, first)
        if bad:
            budget.fail(len(bad) * len(runs), f"tokens {bad} are not the reference argmax")
    longs, shorts = probe.views(long_s), probe.views(short_s)
    ttft = np.median(shorts, axis=0)
    tok_s = (n_tokens - 1) * len(longs) / (longs.sum(axis=0) - ttft * len(longs))
    return dict(setup_s=setup.median(), tok_s=tok_s, ttft_s=ttft, host_speed=probe.host_speed(),
                ops=n_tokens * len(runs), outputs=n_tokens * len(runs), budget=budget,
                usage=usage, timed_s=t_end - t_start, marks=(mark0, mark1),
                detail=dict(long_s=longs.tolist(), short_s=shorts.tolist(),
                            ids=first[:16].tolist()))


def _check_decode(model, prompt, generated) -> list[int]:
    """Sampled generation steps: each chosen token must be the reference's
    argmax (within LOGIT_ATOL), given the documented window schedule: whole
    prompt windows go to memory, the rest is the working window, and a full
    working window rolls into memory after its token is chosen."""
    cfg = model.cfg
    t = cfg.local_ctx_len
    ref = R.ReferenceModel(cfg, model.params, dtype=np.float64)
    seq = np.concatenate([prompt, generated])
    n = len(generated)
    sampled = {0, 1, n // 2, n - 1}
    start = (len(prompt) - 1) // t * t        # working window: seq[start:start + length]
    length = len(prompt) - start
    encoded = {}                              # window index -> memory-layer (K, V)
    bad = []
    for j in range(n):
        if j in sampled:
            for w in range(start // t):
                if w not in encoded:
                    encoded[w] = ref.forward(seq[w * t:(w + 1) * t], stop_at_memory_kv=True)[1]
            mk = {li: np.concatenate([np.zeros((cfg.n_heads, 0, cfg.head_dim))]
                                     + [encoded[w][li][0] for w in range(start // t)], axis=1)
                  for li in cfg.memory_layers}
            mv = {li: np.concatenate([np.zeros((cfg.n_heads, 0, cfg.head_dim))]
                                     + [encoded[w][li][1] for w in range(start // t)], axis=1)
                  for li in cfg.memory_layers}
            hidden, _ = ref.forward(seq[start:start + length], R.topk_extras(mk, mv, EVAL_K))
            logits = ref.head(hidden[-1:])[0]
            if not logits[generated[j]] >= logits.max() - LOGIT_ATOL:
                bad.append(j)
        if length == t:
            start, length = start + t, 1
        else:
            length += 1
    return bad


# ---------------------------------------------------------------------------
# process and report
# ---------------------------------------------------------------------------

WORKLOADS = ("train-d2", "train-d16", "eval-ppl", "decode")


def run_workload(name: str, seed: int, seconds: float, run_dir: Path,
                 tracer: Tracer | None, check: bool) -> dict:
    if name == "train-d2":
        return run_train(2, seed, seconds, run_dir, tracer, check)
    if name == "train-d16":
        return run_train(16, seed, seconds, run_dir, tracer, check)
    if name == "eval-ppl":
        return run_eval(seed, seconds, tracer, check)
    if name == "decode":
        return run_decode(seed, seconds, tracer, check)
    raise ValueError(f"unknown workload {name!r}")


def layer_metrics(tracer: Tracer, res: dict) -> dict:
    """Per-layer figures over the timed region, per operation where noted."""
    ops = res["ops"]
    (since, c0), (until, c1) = res["marks"]
    tot = tracer.totals(since, until)
    before, after = tracer.totals(0, since), tracer.totals(until)
    c = {k: c1.get(k, 0.0) - c0.get(k, 0.0) for k in
         ("tape_nodes", "encode_rows", "infer_tokens", "topk_scanned", "window_refs",
          "unique_windows")}
    c["entries"] = c1.get("entries", 0.0)

    def ms(name, key="total_s"):
        return 1e3 * tot.get(name, {}).get(key, 0.0) / ops

    def calls(name):
        return tot.get(name, {}).get("calls", 0) / ops

    m = {"numerics.backward_ms": ms("numerics.backward", "self_s"),
         "numerics.tape_nodes": c["tape_nodes"] / ops}
    for op in NUMERICS_OPS:
        m[f"numerics.{op}_ms"] = ms(f"numerics.{op}")
        m[f"numerics.{op}_calls"] = calls(f"numerics.{op}")
    m.update({
        "model.grad_step_ms": ms("model.grad_step"),
        "model.grad_step_self_ms": ms("model.grad_step", "self_s"),
        "model.encode_windows_ms": ms("model.encode_windows"),
        "model.encode_rows": c["encode_rows"] / ops,
        "model.forward_infer_ms": ms("model.forward_infer"),
        "model.forward_infer_self_ms": ms("model.forward_infer", "self_s"),
        "model.infer_tokens_per_output": c["infer_tokens"] / res.get("outputs", ops),
        "memstore.topk_ms": ms("memstore.topk"),
        "memstore.topk_calls": calls("memstore.topk"),
        "memstore.topk_scanned": c["topk_scanned"] / ops,
        "memstore.topk_ns_per_scan": (1e9 * tot["memstore.topk"]["total_s"] / c["topk_scanned"]
                                      if c["topk_scanned"] else 0.0),
        "memstore.append_ms": ms("memstore.append"),
        "memstore.append_calls": calls("memstore.append"),
        "memstore.entries": c["entries"],
        "pipeline.next_batch_ms": ms("pipeline.next_batch"),
        "pipeline.build_plan_ms": ms("pipeline.build_plan"),
        "pipeline.window_refs": c["window_refs"] / ops,
        "pipeline.unique_windows": c["unique_windows"] / ops,
        "pipeline.window_reuse": (c["window_refs"] / c["unique_windows"]
                                  if c["unique_windows"] else 0.0),
        "training.optimizer_ms": ms("training.optimizer"),
        "training.clip_ms": ms("training.clip"),
        "training.checkpoint_ms": 1e3 * tot.get("training.checkpoint", {}).get("total_s", 0.0),
        "tasks.gen_ms": ms("tasks.gen"),
        "tasks.setup_gen_ms": 1e3 * (before.get("tasks.gen", {}).get("total_s", 0.0)
                                     + after.get("tasks.gen", {}).get("total_s", 0.0))
                              / SETUP_REPEATS,
        "analysis.eval_self_ms": ms("analysis.eval", "self_s"),
        "trace.spans": (until - since) / ops,
        "trace.nesting_violations": float(tracer.nesting_violations()),
    })
    return m


def environment() -> dict:
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": cfg.get("name"), "blas_version": cfg.get("version"),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)), "pid": os.getpid()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--no-check", action="store_true")
    ap.add_argument("--run-dir", required=True, help="directory for run files")
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    run_dir = Path(args.run_dir)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        res = run_workload(args.workload, args.seed, args.seconds, run_dir, tracer,
                           not args.no_check)
    finally:
        if tracer is not None:
            tracer.restore()
    usage = res["usage"]
    timed = ("setup_s", "tok_s", "ttft_s")
    out = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           **{k: float(res[k][NORM]) for k in timed},
           "peak_rss_mb": usage.peak_rss_mb, "host_speed": res["host_speed"],
           "cpu": {k: float(res[k][CPU]) for k in timed},
           "wall": {k: float(res[k][WALL]) for k in timed},
           "ops": res["ops"], "timed_s": res["timed_s"].tolist(),
           "wall_s": time.perf_counter() - t0,
           "attempted": res["budget"].attempted, "failed": res["budget"].failed,
           "fail_reasons": res["budget"].reasons,
           "proc": {"cpu_user_s": usage.user_s, "cpu_sys_s": usage.sys_s,
                    "minflt": usage.minflt},
           "env": environment(), "detail": res["detail"]}
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, res)
        tracer.dump(run_dir / f"spans-{args.workload}-s{args.seed}.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
