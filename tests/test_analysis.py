"""Diagnostics: distraction metric, perplexity, accuracies."""

import numpy as np
import pytest

from fot import analysis as A
from fot import model as model_mod
from fot.errors import UsageError
from fot.memstore import MemoryIndex
from fot.model import AttentionRecord, InferCache, ModelConfig, Transformer
from fot.pipeline import CrossbatchPipeline, DSchedule, TrainBatch
from fot.tasks import DictTaskConfig, PasskeyTaskConfig, gen_passkey, gen_text_corpus, encode_bytes


def synthetic_record(per_context, layer=0):
    """A record whose column 0 is the positive context."""
    per_context = np.asarray(per_context, dtype=np.float64)
    local = 1.0 - per_context.sum(-1)
    return AttentionRecord(layer, local, per_context)


def test_r_uniform_is_one_over_d():
    for d in (2, 4, 8):
        pc = np.full((2, 1, 3, d), 0.5 / d)
        rec = synthetic_record(pc)
        rep = A.positive_attention_mass([rec])
        assert abs(rep.r - 1.0 / d) < 1e-12
        assert rep.d == d and rep.n_queries == 6


def test_r_all_mass_on_positive():
    pc = np.zeros((1, 1, 2, 3))
    pc[..., 0] = 0.7
    rec = synthetic_record(pc)
    assert A.positive_attention_mass([rec]).r == 1.0


def test_per_layer_r_pools_every_record_of_the_layer():
    """Two batches of one layer: per_layer_r pools their queries as r does."""
    recs = [synthetic_record([[[[r, 1 - r]]]]) for r in (0.9, 0.1)]
    recs.append(synthetic_record([[[[0.3, 0.7]]]], layer=2))
    rep = A.positive_attention_mass(recs)
    assert rep.r == pytest.approx((0.9 + 0.1 + 0.3) / 3)
    assert rep.per_layer_r == pytest.approx({0: 0.5, 2: 0.3})


def test_records_of_different_widths_pad_their_contexts():
    """A d=2 record beside a d=3 one: shares are averaged over the queries
    with planned mass, the narrow record's missing context counting 0."""
    narrow = synthetic_record([[[[0.2, 0.2], [0.0, 0.0]]]])  # 2nd query skipped
    wide = synthetic_record([[[[0.1, 0.1, 0.2]]]], layer=1)
    rep = A.positive_attention_mass([narrow, wide])
    assert (rep.d, rep.n_queries, rep.n_skipped) == (3, 2, 1)
    assert rep.r == pytest.approx((0.5 + 0.25) / 2)
    assert rep.per_layer_r == pytest.approx({0: 0.5, 1: 0.25})
    np.testing.assert_allclose(rep.per_context_share, [0.375, 0.375, 0.25])


def test_r_requires_positive_context():
    pc = np.full((1, 1, 2, 2), 0.1)
    pc[..., 0] = 0.0  # no slot had a window of its own document
    rec = synthetic_record(pc)
    with pytest.raises(UsageError):
        A.positive_attention_mass([rec])
    with pytest.raises(UsageError):
        A.positive_attention_mass([])


def _planned_records(doc_lens, w, steps):
    """The plan and records of step ``steps`` of a b_S=2, d=2 pipeline over
    documents of ``doc_lens`` tokens, on an untrained model."""
    cfg = ModelConfig(n_layers=2, d_model=16, n_heads=2, head_dim=8, ff_dim=32,
                      vocab_size=64, memory_layers=(1,), local_ctx_len=8)
    rng = np.random.default_rng(12)
    docs = [(rng.integers(0, 64, n), np.ones(n)) for n in doc_lens]
    pipe = CrossbatchPipeline(iter(docs), 2, 8, DSchedule("constant", d=2), w=w)
    for _ in range(steps - 1):
        pipe.next_batch()
    batch, plan = pipe.next()
    return plan, Transformer(cfg, seed=13).forward_train(batch, plan).records


def test_own_windows_are_one_positive_context():
    """At w=2 a slot's two own windows are both context 1, so d=2 measures
    two contexts, not three."""
    plan, records = _planned_records([32, 32], w=2, steps=3)
    assert [pw.context_id for pw in plan.per_slot[0]] == [1, 1, 2, 2]
    assert plan.n_contexts == [2, 2]
    rep = A.positive_attention_mass(records)
    assert rep.d == 2 and rep.per_context_share.shape == (2,)


def test_slot_without_own_window_leaves_column_0_empty():
    """Slot 0 starts a new document at step 3: its one negative is context 2,
    so column 0 holds only slot 1's own-document mass."""
    plan, (rec,) = _planned_records([16, 48, 48], w=1, steps=3)
    assert [pw.context_id for pw in plan.per_slot[0]] == [2]
    assert plan.n_contexts == [2, 1]
    assert (rec.per_context[0, ..., 0] == 0).all() and (rec.per_context[0, ..., 1] > 0).all()
    assert (rec.per_context[1, ..., 0] > 0).all() and (rec.per_context[1, ..., 1] == 0).all()
    rep = A.positive_attention_mass([rec])
    assert rep.r == 0.5
    np.testing.assert_array_equal(rep.per_context_share, [0.5, 0.5])


# ---------------------------------------------------------------------------
# perplexity
# ---------------------------------------------------------------------------

def byte_model(**kw):
    cfg = ModelConfig(n_layers=2, d_model=32, n_heads=2, head_dim=16, ff_dim=64,
                      vocab_size=256, memory_layers=(1,), local_ctx_len=32, **kw)
    return Transformer(cfg, seed=3)


def byte_docs(n=3, size=300, seed=4):
    docs = gen_text_corpus(n, size, seed=seed)
    return [(i, encode_bytes(d)) for i, d in enumerate(docs)]


def test_untrained_byte_ppl_is_vocab():
    model = byte_model()
    res = A.perplexity_eval(model, byte_docs(), "single_doc", k=8)
    assert abs(res.ppl - 256.0) <= 5.0


def test_ppl_cap_zero_equals_no_memory():
    model = byte_model()
    with_cap = A.perplexity_eval(model, byte_docs(), "multi_doc", k=8, memory_token_cap=0)
    # no-memory forward: same model evaluated with retrieval disabled entirely
    no_mem = A.perplexity_eval(model, byte_docs(), "multi_doc", k=0)
    assert with_cap.mean_nll == no_mem.mean_nll


def test_ppl_matches_f64_oracle_recomputation():
    model = byte_model()
    docs = byte_docs(2, 200)
    res = A.perplexity_eval(model, docs, "single_doc", k=4)
    # independent recomputation from raw forward passes
    total, count = 0.0, 0
    mem = MemoryIndex(model.cfg.memory_layers, model.cfg.n_heads, model.cfg.head_dim)
    for doc_id, toks in docs:
        mem.clear()
        t = model.cfg.local_ctx_len
        for s in range(0, len(toks), t):
            out = model.forward_infer(toks[s:s + t], mem, 4)
            tgt = toks[s + 1:min(s + t + 1, len(toks))]
            z = out.logits[:len(tgt)].astype(np.float64)
            z = z - z.max(axis=-1, keepdims=True)
            total += float((np.log(np.exp(z).sum(-1)) -
                            np.take_along_axis(z, np.asarray(tgt)[:, None], -1)[:, 0]).sum())
            count += len(tgt)
            for li, (kk, vv) in out.new_kv.items():
                mem.append_block(li, kk, vv, doc_id, np.arange(s, s + len(toks[s:s + t])))
    assert abs(res.mean_nll - total / count) / abs(total / count) < 1e-5


def test_ppl_single_doc_order_invariance():
    model = byte_model()
    docs = byte_docs(3, 250, seed=5)
    a = A.perplexity_eval(model, docs, "single_doc", k=8)
    b = A.perplexity_eval(model, list(reversed(docs)), "single_doc", k=8)
    assert a.mean_nll == b.mean_nll  # bitwise: per-doc partials combined in doc order


def test_ppl_empty_stream_errors():
    with pytest.raises(UsageError):
        A.perplexity_eval(byte_model(), [], "single_doc")
    with pytest.raises(UsageError):
        A.perplexity_eval(byte_model(), byte_docs(), "bogus")


# ---------------------------------------------------------------------------
# accuracies
# ---------------------------------------------------------------------------

def _next_token_logits(tokens: np.ndarray, vocab: int) -> np.ndarray:
    """Oracle logits: row p puts all its mass on token p + 1."""
    logits = np.zeros((len(tokens), vocab))
    logits[np.arange(len(tokens) - 1), tokens[1:]] = 100.0
    return logits


def test_dict_eval_accuracy_oracle_and_uniform_logits(monkeypatch):
    """Teacher-forced scoring on both paths: next-token logits answer every
    query, uniform logits (argmax 0) none."""
    cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, head_dim=8, ff_dim=32,
                      vocab_size=64, memory_layers=(0,), local_ctx_len=32)
    model = Transformer(cfg, seed=0)
    for logits_of, want in ((lambda toks: _next_token_logits(toks, 64), 1.0),
                            (lambda toks: np.zeros((len(toks), 64)), 0.0)):
        monkeypatch.setattr(model, "forward_long", logits_of)
        monkeypatch.setattr(model, "forward_infer",
                            lambda toks, memory, k: model_mod.InferForward(logits_of(toks), {}, []))
        for use_memory in (True, False):
            res = A.dict_eval_accuracy(model, 4 * 32, n_docs=3, k=4, use_memory=use_memory)
            assert res.accuracy == want and res.n_queries == 3 * 3
            for _doc, _qi, pred, true, ok in res.rows:
                assert ok == (pred == true) and pred == (true if want else (0,) * 4)


def dump_predictions(path, result: A.AccuracyResult) -> None:
    """Text dump of each query's prediction, for ``recount_accuracy``."""
    with open(path, "w", encoding="ascii") as f:
        for doc, qi, pred, true, ok in result.rows:
            f.write(f"{doc} {qi} {','.join(map(str, pred))} "
                    f"{','.join(map(str, true))} {int(ok)}\n")


def recount_accuracy(path) -> float:
    """Oracle: recount accuracy from a dumped prediction file, outside the
    eval loop."""
    n, good = 0, 0
    with open(path, encoding="ascii") as f:
        for line in f:
            _doc, _qi, pred, true, _ok = line.split()
            n += 1
            good += pred == true
    assert n, f"{path}: no predictions"
    return good / n


def test_accuracy_dump_and_recount(tmp_path):
    rows = [(0, 0, (1, 2), (1, 2), True), (0, 1, (3, 4), (3, 5), False),
            (1, 0, (9, 9), (9, 9), True)]
    res = A.AccuracyResult(2 / 3, 3, rows)
    p = tmp_path / "preds.txt"
    dump_predictions(p, res)
    assert abs(recount_accuracy(p) - res.accuracy) < 1e-12


def test_passkey_accuracy_oracle_and_chance():
    prompts = [gen_passkey(PasskeyTaskConfig(prompt_len=128, seed=s)) for s in range(5)]
    oracle = [encode_bytes(" " + p.answer + ".") for p in prompts]
    assert A.passkey_accuracy(prompts, oracle) == 1.0
    garbage = [encode_bytes(" nothing") for _ in prompts]
    assert A.passkey_accuracy(prompts, garbage) == 0.0


def test_greedy_continuation_shape():
    model = byte_model()
    prompt = encode_bytes("The pass key is 77. What is the pass key? The pass key is")
    cont = A.greedy_continuation(model, prompt, 4, k=4)
    assert cont.shape == (4,) and (cont >= 0).all() and (cont < 256).all()


def test_greedy_continuation_rejects_an_empty_prompt():
    with pytest.raises(UsageError, match="nonempty prompt"):
        A.greedy_continuation(byte_model(), np.array([], np.int64), 3)


def test_greedy_continuation_rejects_a_negative_length():
    prompt = encode_bytes("The pass key is")
    with pytest.raises(UsageError, match="n_tokens >= 0"):
        A.greedy_continuation(byte_model(), prompt, -1)


def test_greedy_continuation_matches_full_recompute():
    """Incremental decoding emits the ids of re-running the whole working
    window for every token, across rolls of the window into memory."""
    model = byte_model(init_scheme="structured")
    t = model.cfg.local_ctx_len
    prompt = encode_bytes(gen_text_corpus(1, 200, seed=7)[0])[:2 * t + 11]
    n_tokens, k = 2 * t, 4
    memory = MemoryIndex(model.cfg.memory_layers, model.cfg.n_heads, model.cfg.head_dim)

    def ingest(out, start):
        for li, (kk, vv) in out.new_kv.items():
            memory.append_block(li, kk, vv, 0, np.arange(start, start + kk.shape[1]))

    for s in range(0, 2 * t, t):
        ingest(model.forward_infer(prompt[s:s + t], memory, k), s)
    s, window, want = 2 * t, list(prompt[2 * t:]), []
    for _ in range(n_tokens):
        out = model.forward_infer(np.asarray(window), memory, k)
        want.append(int(out.logits[-1].argmax()))
        if len(window) == t:
            ingest(out, s)
            s, window = s + t, [want[-1]]
        else:
            window.append(want[-1])
    assert s == 4 * t and len(set(want)) > 1  # two rolls, a nontrivial sequence
    np.testing.assert_array_equal(A.greedy_continuation(model, prompt, n_tokens, k=k), want)


# ---------------------------------------------------------------------------
# ingest: memory windows against a full-forward reference
# ---------------------------------------------------------------------------

class _KeptIndex(MemoryIndex):
    """A memory index that lists its instances, so a test can read the
    memory an evaluation built."""
    made: list = []

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.made.append(self)


def _ingest_model(memory_layers, integration="merged", mode="none"):
    cfg = ModelConfig(n_layers=3, d_model=32, n_heads=2, head_dim=16, ff_dim=64,
                      vocab_size=256, memory_layers=memory_layers, local_ctx_len=16,
                      integration_mode=integration, mem_positional_mode=mode,
                      init_scheme="structured")
    model = Transformer(cfg, seed=21)
    for li in memory_layers:
        model.params[f"layers.{li}.gate_bias"].data[...] = 0.4
    return model


def _memory_contents(memory):
    """Each memory layer's stored keys, values, doc ids and positions."""
    out = {}
    for li in memory.memory_layers:
        s, n = memory._store(li), memory.layer_size(li)
        out[li] = (s.keys[:, :n], s.values[:, :n], s.doc_ids[:n], s.positions[:n])
    return out


def _assert_same_memory(got, want):
    got, want = _memory_contents(got), _memory_contents(want)
    assert got.keys() == want.keys()
    for li in want:
        for a, b in zip(got[li], want[li]):
            np.testing.assert_array_equal(a, b)


def _forward_infer_ingest(model, memory, windows, doc_id, k):
    """The reference ingest: one full forward_infer per (start, tokens)
    window, of which only the memory layers' new (K, V) are kept."""
    for s, window in windows:
        for li, (kk, vv) in model.forward_infer(window, memory, k).new_kv.items():
            memory.append_block(li, kk, vv, doc_id, np.arange(s, s + kk.shape[1]))


INGEST_CASES = [(layers, integration, mode) for layers in ((1,), (1, 2))
                for integration in ("merged", "gated") for mode in ("none", "as_first")]


@pytest.mark.parametrize("layers,integration,mode", INGEST_CASES)
def test_dict_eval_ingest_matches_full_forward_ingest(layers, integration, mode, monkeypatch):
    """Definition windows reach memory bit for bit as a forward_infer per
    window would put them there, so the final window's logits and every
    scored row are the same too."""
    model = _ingest_model(layers, integration, mode)
    t, k, total, n_docs = model.cfg.local_ctx_len, 4, 5 * model.cfg.local_ctx_len, 2
    task = DictTaskConfig(doc_len=2 * t)
    monkeypatch.setattr(A, "MemoryIndex", _KeptIndex)
    monkeypatch.setattr(_KeptIndex, "made", [])
    calls, infer = [], model.forward_infer

    def spy(tokens, memory, k, **kw):
        out = infer(tokens, memory, k, **kw)
        calls.append((memory, out.logits))
        return out

    monkeypatch.setattr(model, "forward_infer", spy)
    res = A.dict_eval_accuracy(model, total, n_docs=n_docs, k=k, seed=1)

    from fot.tasks import gen_dict_lookup
    rng = np.random.default_rng([1, total])
    rows = []
    assert len(_KeptIndex.made) == n_docs
    for di in range(n_docs):
        doc = gen_dict_lookup(task, total, rng)
        q_start = total - t
        memory = MemoryIndex(layers, model.cfg.n_heads, model.cfg.head_dim)
        _forward_infer_ingest(model, memory, [(s, doc.tokens[s:s + t])
                                              for s in range(0, q_start, t)], di, k)
        _assert_same_memory(_KeptIndex.made[di], memory)
        logits = infer(doc.tokens[q_start:], memory, k).logits
        got = [lg for m, lg in calls if m is _KeptIndex.made[di]][-1]
        np.testing.assert_array_equal(got, logits)
        preds = logits.argmax(axis=-1)
        for qi, q in enumerate(doc.queries):
            pred = tuple(int(preds[p - 1 - q_start]) for p in q.value_positions)
            rows.append((di, qi, pred, q.value, pred == q.value))
    assert res.rows == rows


@pytest.mark.parametrize("layers,integration,mode", INGEST_CASES)
def test_greedy_ingest_matches_full_forward_ingest(layers, integration, mode, monkeypatch):
    """Prompt windows reach memory as a forward_infer per window would put
    them there; decoding (across one roll) then emits the same ids, and the
    rolled window's rows are the ones its incremental calls returned."""
    model = _ingest_model(layers, integration, mode)
    t, k = model.cfg.local_ctx_len, 4
    prompt = encode_bytes(gen_text_corpus(1, 200, seed=11)[0])[:3 * t + 5]
    n_tokens = t
    monkeypatch.setattr(A, "MemoryIndex", _KeptIndex)
    monkeypatch.setattr(_KeptIndex, "made", [])
    calls, infer = [], model.forward_infer

    def spy(tokens, memory, k, **kw):
        out = infer(tokens, memory, k, **kw)
        calls.append(out.logits)
        return out

    monkeypatch.setattr(model, "forward_infer", spy)
    got = A.greedy_continuation(model, prompt, n_tokens, k=k)
    working = calls[-n_tokens]  # one call per token, the first over the working window

    memory = MemoryIndex(layers, model.cfg.n_heads, model.cfg.head_dim)
    _forward_infer_ingest(model, memory, [(s, prompt[s:s + t]) for s in range(0, 3 * t, t)], 0, k)
    cache, new, want, rows, first = InferCache(memory, t), prompt[3 * t:], [], [], None
    for _ in range(n_tokens):
        if len(cache) == t:
            for li in layers:
                kk, vv = (np.concatenate([r[li][j] for r in rows], axis=1) for j in (0, 1))
                memory.append_block(li, kk, vv, 0, np.arange(3 * t, 4 * t))
            cache, rows = InferCache(memory, t), []
        out = infer(new, memory, k, cache=cache)
        first = out.logits if first is None else first
        rows.append(out.new_kv)
        want.append(int(out.logits[-1].argmax()))
        new = np.asarray(want[-1:])
    assert memory.layer_size(1) == 4 * t  # the working window rolled once
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(working, first)
    (kept,) = _KeptIndex.made
    _assert_same_memory(kept, memory)


def test_ingest_retrieves_nothing_at_the_top_memory_layer(monkeypatch):
    """Ingest runs up to the top memory layer's projections: layers below it
    retrieve, the top one never does."""
    calls, topk = [], MemoryIndex.topk

    def spy(self, layer, queries, k):
        calls.append((layer, self.layer_size(layer)))
        return topk(self, layer, queries, k)

    monkeypatch.setattr(MemoryIndex, "topk", spy)
    t = 16
    prompt = encode_bytes(gen_text_corpus(1, 200, seed=12)[0])[:3 * t + 5]
    A.greedy_continuation(_ingest_model((1,)), prompt, 1, k=4)
    assert calls == [(1, 3 * t)]  # the working window only
    calls.clear()
    A.greedy_continuation(_ingest_model((1, 2)), prompt, 1, k=4)
    # the 2nd and 3rd prompt windows retrieve at layer 1 (the 1st meets an
    # empty memory); then the working window at both layers
    assert calls == [(1, t), (1, 2 * t), (1, 3 * t), (2, 3 * t)]


def test_dict_eval_at_256k_tokens(monkeypatch):
    """One 262,144-token document on dict-small: every definition window
    reaches memory and the question window is scored."""
    from fot.config import get_preset
    model = Transformer(get_preset("dict-small").model, seed=0)
    t, total = model.cfg.local_ctx_len, 262_144
    monkeypatch.setattr(A, "MemoryIndex", _KeptIndex)
    monkeypatch.setattr(_KeptIndex, "made", [])
    res = A.dict_eval_accuracy(model, total, n_docs=1, k=32)
    (memory,) = _KeptIndex.made
    assert all(memory.layer_size(li) == total - t for li in model.cfg.memory_layers)
    assert res.n_queries > 0


# ---------------------------------------------------------------------------
# distraction evaluation end to end + weight dumps
# ---------------------------------------------------------------------------

def test_untrained_exposure_r_near_uniform(monkeypatch):
    cfg = ModelConfig(n_layers=2, d_model=32, n_heads=2, head_dim=16, ff_dim=64,
                      vocab_size=256, memory_layers=(1,), local_ctx_len=16)
    model = Transformer(cfg, seed=7)
    d = 8

    def docs():
        for i, text in enumerate(gen_text_corpus(64, 40, seed=8)):
            toks = encode_bytes(text)[:32]
            yield toks, np.ones(len(toks))

    # several chunks per exposure: a budget of four slots' scores, d windows a slot
    t = cfg.local_ctx_len
    slot_bytes = model.dtype.itemsize * cfg.n_heads * t * t * (1 + d)
    monkeypatch.setattr(model_mod, "FULL_TAPE_SCORE_BYTES", 4 * slot_bytes)
    rep = A.distraction_eval(model, docs(), d, min_queries=500)
    assert 0.5 / d <= rep.r <= 3.0 / d
    assert rep.n_queries >= 500


def r_from_weights(weights) -> float:
    """Oracle: the mean positive attention mass from raw extras softmax
    weights, bucketed per context here rather than through the model's
    ``_bucket_record``. ``weights`` lists (layer, probs [b, H, T, E*T],
    window context ids [b, E]) per memory layer; context 1 is the positive."""
    records = []
    for layer, probs, win_ctx in weights:
        b, h, t, e = probs.shape
        n_win = win_ctx.shape[1]
        per_window = probs.reshape(b, h, t, n_win, -1).sum(axis=-1)
        per_context = np.zeros((b, h, t, win_ctx.max()), dtype=np.float64)
        for j in range(b):
            for w in range(n_win):
                ci = win_ctx[j, w]
                if ci > 0:
                    per_context[j, :, :, ci - 1] += per_window[j, :, :, w]
        records.append(AttentionRecord(layer, np.zeros((b, h, t)), per_context))
    return A.positive_attention_mass(records).r


def test_r_matches_raw_weight_dump(monkeypatch):
    cfg = ModelConfig(n_layers=2, d_model=16, n_heads=2, head_dim=8, ff_dim=32,
                      vocab_size=64, memory_layers=(1,), local_ctx_len=8)
    model = Transformer(cfg, seed=9)
    rng = np.random.default_rng(10)
    batch = TrainBatch(
        rng.integers(0, 64, (4, 8)), rng.integers(0, 64, (4, 8)), np.ones((4, 8)),
        rng.integers(0, 64, (4, 1, 8)), np.ones((4, 1), bool), np.arange(4), 0)
    plan = CrossbatchPipeline(iter(()), 4, 8, DSchedule("constant", d=3)).build_plan(0, batch)
    captured = []  # the raw extras softmax weights each record is bucketed from
    bucket = model_mod._bucket_record

    def capture(li, mass_local, p_ext, gather, gate):
        captured.append((li, p_ext.copy(), gather.window_context.copy()))
        return bucket(li, mass_local, p_ext, gather, gate)
    monkeypatch.setattr(model_mod, "_bucket_record", capture)
    fwd = model.forward_train(batch, plan)
    assert len(captured) == len(fwd.records) == 1
    r_records = A.positive_attention_mass(fwd.records).r
    assert abs(r_records - r_from_weights(captured)) <= 1e-6


def test_metrics_csv_roundtrip(tmp_path):
    rows = [A.EvalResult("run1", "ppl", "memory", 512.0, 3.25, 0, "abc"),
            A.EvalResult("run1", "acc", "ctx", 16384.0, 0.91, 1, "abc")]
    p = tmp_path / "m.csv"
    A.write_metrics_csv(p, rows)
    A.write_metrics_csv(p, [rows[0]], append=True)
    back = A.read_metrics_csv(p)
    assert len(back) == 3
    assert back[0] == rows[0] and back[1] == rows[1] and back[2] == rows[0]
