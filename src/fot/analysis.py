"""Diagnostics and evaluations.

The distraction metric r is the share of a query's planned-context softmax
mass that lands on its own document's previous context, context 1 of the
plan (column 0 of a record's ``per_context``):

    r = sum_j w_1j / sum_{i=1..d} sum_j w_ij

computed per query over the memory-layer heads and averaged. Perplexity and
task accuracies run the inference path window by window against a growing
memory index.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, UsageError
from .memstore import MemoryIndex
from .model import AttentionRecord, InferCache, Transformer, exposure_records, retriever
from .pipeline import CrossbatchPipeline, DSchedule
from .tasks import DictTaskConfig, gen_dict_lookup


# ---------------------------------------------------------------------------
# distraction metric
# ---------------------------------------------------------------------------

@dataclass
class DistractionReport:
    r: float                       # mean positive attention mass
    d: int                         # contexts exposed
    n_queries: int
    per_context_share: np.ndarray  # [d] mean share per context index
    per_layer_r: dict[int, float] = field(default_factory=dict)
    n_skipped: int = 0             # queries whose planned mass underflowed


def positive_attention_mass(records: list[AttentionRecord]) -> DistractionReport:
    """Aggregate r over train-mode attention records."""
    if not records:
        raise UsageError("no attention records")
    for rec in records:
        if rec.per_context is None:
            raise UsageError("inference-mode records carry no per-context masses")
        if not rec.per_context[..., :1].any():
            raise UsageError("records contain no positive context")
    # one row per query, contexts zero-padded to the widest record: records
    # of different plans can differ in width
    rows = [rec.per_context.reshape(-1, rec.per_context.shape[-1]) for rec in records]
    c = max(r.shape[1] for r in rows)
    per_context = np.concatenate([np.pad(r, [(0, 0), (0, c - r.shape[1])]) for r in rows])
    total = per_context.sum(axis=-1)
    ok = total > 0
    if not ok.any():
        raise UsageError("all queries had zero planned-context mass")
    r_q = per_context[ok, 0] / total[ok]
    share = per_context[ok] / total[ok, None]
    layer = np.repeat([rec.layer for rec in records], [len(r) for r in rows])[ok]
    per_layer_r = {li: float(r_q[layer == li].mean()) if (layer == li).any() else float("nan")
                   for li in dict.fromkeys(rec.layer for rec in records)}
    return DistractionReport(
        r=float(r_q.mean()), d=per_context.shape[-1], n_queries=int(r_q.size),
        per_context_share=share.sum(axis=0) / r_q.size, per_layer_r=per_layer_r,
        n_skipped=int((~ok).sum()))


def distraction_eval(model: Transformer, doc_iter, d: int, *,
                     min_queries: int = 1000, max_batches: int = 64) -> DistractionReport:
    """Expose the model to d contexts exactly as in crossbatch training.

    Feeds a b_S = d pipeline, skips steps where any slot lacks a previous
    window, and aggregates records until at least ``min_queries`` per-query
    measurements were seen. Documents on which no step gives every slot a
    previous window raise DataError.
    """
    if d < 2:
        raise UsageError("exposure needs d >= 2 (one positive plus negatives)")
    pipe = CrossbatchPipeline(doc_iter, d, model.cfg.local_ctx_len, DSchedule("constant", d=d), w=1)
    collected: list[AttentionRecord] = []
    n_queries = 0
    for _ in range(max_batches):
        try:
            batch, plan = pipe.next()
        except DataError:
            break
        if not batch.prev_valid[:, 0].all():
            continue
        recs = exposure_records(model, batch, plan)
        collected.extend(recs)
        n_queries += sum(r.mass_local.size for r in recs)
        if n_queries >= min_queries:
            break
    if not collected:
        raise DataError(f"no step of the documents gave all {d} slots a previous window")
    return positive_attention_mass(collected)


# ---------------------------------------------------------------------------
# perplexity
# ---------------------------------------------------------------------------

def _window_nll(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    z = logits.astype(np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    picked = np.take_along_axis(z, targets[:, None], axis=-1)[:, 0]
    return lse - picked


def _ingest(memory: MemoryIndex, new_kv: dict[int, tuple[np.ndarray, np.ndarray]], doc_id: int,
            start: int) -> None:
    """Append each memory layer's (K, V) [H, rows, Dh] to ``memory``, at
    positions ``start`` onwards."""
    for li, (kk, vv) in new_kv.items():
        memory.append_block(li, kk, vv, doc_id, np.arange(start, start + kk.shape[1]))


def _ingest_windows(model: Transformer, memory: MemoryIndex, tokens: np.ndarray, doc_id: int,
                    k: int) -> None:
    """Append ``tokens`` (positions 0 onwards) to ``memory`` window by window.
    A memory layer stores projections of its own input, so a window runs only
    up to the top memory layer (``encode_windows``), retrieving below it and
    not there: the rows are bit for bit ``forward_infer``'s ``new_kv``."""
    extras_of, t = retriever(memory, k), model.cfg.local_ctx_len
    for s in range(0, len(tokens), t):
        kv = model.encode_windows(tokens[None, s:s + t], extras_of)
        _ingest(memory, {li: (kk.data[0], vv.data[0]) for li, (kk, vv) in kv.items()}, doc_id, s)


@dataclass
class PerplexityResult:
    ppl: float
    mean_nll: float
    n_tokens: int
    per_doc: dict[int, tuple[float, int]]  # doc_id -> (nll sum, token count)


def perplexity_eval(model: Transformer, docs, mode: str = "single_doc", *,
                    k: int = 32, memory_token_cap: int | None = None,
                    token_budget: int | None = None) -> PerplexityResult:
    """Token-level perplexity with a growing memory.

    ``docs`` yields (doc_id, tokens). single_doc erases memory at every
    document boundary; multi_doc retains it across the stream. The cap stops
    memory growth (in tokens per memory layer); cap 0 reproduces a pure
    no-memory forward pass.
    """
    if mode not in ("single_doc", "multi_doc"):
        raise UsageError(f"unknown perplexity mode {mode!r}")
    cfg = model.cfg
    t = cfg.local_ctx_len
    memory = MemoryIndex(cfg.memory_layers, cfg.n_heads, cfg.head_dim) \
        if cfg.memory_layers else None
    per_doc: dict[int, tuple[float, int]] = {}
    total = 0
    saw_doc = False
    for doc_id, tokens in docs:
        saw_doc = True
        tokens = np.asarray(tokens, dtype=np.int64)
        if mode == "single_doc" and memory is not None:
            memory.clear()
        nll_sum, n_tok = 0.0, 0
        for s in range(0, tokens.shape[0], t):
            window = tokens[s:s + t]
            out = model.forward_infer(window, memory, k)
            tail = min(s + window.shape[0] + 1, tokens.shape[0])
            targets = tokens[s + 1:tail]
            if targets.shape[0]:
                nll = _window_nll(out.logits[: targets.shape[0]], targets)
                nll_sum += float(nll.sum())
                n_tok += int(targets.shape[0])
            if memory is not None:
                room = window.shape[0] if memory_token_cap is None else \
                    memory_token_cap - memory.layer_size(min(cfg.memory_layers))
                if room > 0:
                    _ingest(memory, {li: (kk[:, :room], vv[:, :room])
                                     for li, (kk, vv) in out.new_kv.items()}, doc_id, s)
        per_doc[int(doc_id)] = (nll_sum, n_tok)
        total += n_tok
        if token_budget is not None and total >= token_budget:
            break
    if not saw_doc:
        raise UsageError("perplexity_eval: empty stream")
    # deterministic reduction: combine per-doc partials in doc-id order so the
    # result is independent of stream order in single_doc mode
    ordered = sorted(per_doc.items())
    nll_total = sum(v[0] for _, v in ordered)
    n_total = sum(v[1] for _, v in ordered)
    if n_total == 0:
        raise UsageError("perplexity_eval: no scored tokens")
    mean = nll_total / n_total
    return PerplexityResult(float(np.exp(mean)), mean, n_total, per_doc)


# ---------------------------------------------------------------------------
# task accuracy
# ---------------------------------------------------------------------------

@dataclass
class AccuracyResult:
    accuracy: float
    n_queries: int
    rows: list[tuple[int, int, tuple, tuple, bool]]  # (doc, query, pred, true, ok)


def dict_eval_accuracy(model: Transformer, total_len: int, *, n_docs: int = 8, k: int = 32,
                       seed: int = 0, use_memory: bool = True) -> AccuracyResult:
    """Dictionary-lookup accuracy at an extended context length.

    Documents are built with doc_len = 2 * local_ctx_len, so their question
    block is exactly the final window. use_memory=True streams the
    definition windows into the kNN memory (``_ingest_windows``) and scores
    the final window against it; use_memory=False gives the local-only
    baseline the whole document as one long context. A query is right when
    the teacher-forced argmax at every value token is that token.
    """
    if n_docs < 1:
        raise UsageError(f"dict_eval_accuracy needs n_docs >= 1, got {n_docs}")
    cfg = model.cfg
    t = cfg.local_ctx_len
    task = DictTaskConfig(doc_len=2 * t)
    rng = np.random.default_rng([seed, total_len])
    q_start = total_len - t
    rows = []
    for di in range(n_docs):
        doc = gen_dict_lookup(task, total_len, rng)
        if use_memory:
            memory = MemoryIndex(cfg.memory_layers, cfg.n_heads, cfg.head_dim)
            _ingest_windows(model, memory, doc.tokens[:q_start], di, k)
            logits = model.forward_infer(doc.tokens[q_start:], memory, k).logits
        else:
            logits = model.forward_long(doc.tokens)[q_start:]
        preds = logits.argmax(axis=-1)
        for qi, q in enumerate(doc.queries):
            # logits at row p - 1 predict token p
            pred = tuple(int(p) for p in preds[q.value_positions - 1 - q_start])
            rows.append((di, qi, pred, q.value, pred == q.value))
    return AccuracyResult(sum(row[-1] for row in rows) / len(rows), len(rows), rows)


def greedy_continuation(model: Transformer, prompt: np.ndarray, n_tokens: int,
                        *, k: int = 32) -> np.ndarray:
    """Greedy argmax continuation, streaming the prompt through memory.

    Complete prompt windows are ingested into a fresh memory
    (``_ingest_windows``); generation extends the final window and rolls its
    rows' (K, V) into memory whenever it fills. Decoding is incremental: the
    working window's per-layer keys and values stay in an ``InferCache``, so
    each new token runs one row.
    """
    cfg = model.cfg
    t = cfg.local_ctx_len
    prompt = np.asarray(prompt, dtype=np.int64)
    if prompt.shape[0] == 0 or n_tokens < 0:
        raise UsageError(f"greedy_continuation needs a nonempty prompt and n_tokens >= 0, "
                         f"got {prompt.shape[0]} prompt tokens and n_tokens {n_tokens}")
    memory = MemoryIndex(cfg.memory_layers, cfg.n_heads, cfg.head_dim)
    s = (prompt.shape[0] - 1) // t * t  # keep a nonempty working window
    _ingest_windows(model, memory, prompt[:s], 0, k)
    cache, rows = InferCache(memory, t), []
    new = prompt[s:]
    generated: list[int] = []
    for _ in range(n_tokens):
        if len(cache) == t:  # the full working window's rows go to memory
            _ingest(memory, {li: tuple(np.concatenate([r[li][j] for r in rows], axis=1)
                                       for j in (0, 1)) for li in cfg.memory_layers}, 0, s)
            s += t
            cache, rows = InferCache(memory, t), []
        out = model.forward_infer(new, memory, k, cache=cache)
        rows.append(out.new_kv)
        generated.append(int(out.logits[-1].argmax()))
        new = np.asarray(generated[-1:], dtype=np.int64)
    return np.asarray(generated, dtype=np.int64)


def passkey_accuracy(prompts, continuations) -> float:
    """Fraction of prompts whose greedy continuation starts with the digits
    of the recorded answer."""
    n, good = 0, 0
    for p, cont in zip(prompts, continuations):
        text = bytes(int(c) & 0xFF for c in cont).decode("utf-8", errors="replace")
        digits = ""
        for ch in text.lstrip():
            if ch.isdigit():
                digits += ch
            else:
                break
        good += digits == p.answer
        n += 1
    if n == 0:
        raise UsageError("passkey_accuracy: no prompts")
    return good / n


# ---------------------------------------------------------------------------
# metric rows
# ---------------------------------------------------------------------------

@dataclass
class EvalResult:
    run_id: str
    metric: str
    axis_name: str
    axis_value: float
    value: float
    seed: int
    config_hash: str


CSV_FIELDS = ["run_id", "metric", "axis_name", "axis_value", "value", "seed", "config_hash"]


def write_metrics_csv(path, rows: list[EvalResult], append: bool = False) -> None:
    mode = "a" if append else "w"
    with open(path, mode, newline="", encoding="ascii") as f:
        w = csv.writer(f)
        if not append:
            w.writerow(CSV_FIELDS)
        for r in rows:
            w.writerow([r.run_id, r.metric, r.axis_name, r.axis_value, r.value,
                        r.seed, r.config_hash])


def read_metrics_csv(path) -> list[EvalResult]:
    out = []
    with open(path, newline="", encoding="ascii") as f:
        for row in csv.DictReader(f):
            out.append(EvalResult(row["run_id"], row["metric"], row["axis_name"],
                                  float(row["axis_value"]), float(row["value"]),
                                  int(row["seed"]), row["config_hash"]))
    return out

