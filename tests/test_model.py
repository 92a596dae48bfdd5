"""Transformer with memory attention: reductions, equivalences, formats."""

import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from fot import model as model_mod
from fot import numerics as N
from fot.errors import ConfigError, DataError, FormatError, ShapeError, UsageError
from fot.memstore import MemoryIndex
from fot.model import (
    AttentionRecord, InferCache, ModelConfig, Transformer, crossbatch_grad_step,
    exposure_records, gated_integration, init_params, load_checkpoint,
    merged_softmax_attention, param_count, param_shapes, save_checkpoint,
)
from fot.numerics import Tensor
from fot.pipeline import CrossbatchPipeline, CrossbatchPlan, DSchedule, PlanWindow, TrainBatch


def tiny_cfg(**kw):
    base = dict(n_layers=2, d_model=16, n_heads=2, head_dim=8, ff_dim=32,
                vocab_size=13, memory_layers=(1,), local_ctx_len=8)
    base.update(kw)
    return ModelConfig(**base)


def make_batch(rng, cfg, b, w=1):
    t = cfg.local_ctx_len
    cur = rng.integers(0, cfg.vocab_size, size=(b, t))
    prev = rng.integers(0, cfg.vocab_size, size=(b, w, t))
    tgt = rng.integers(0, cfg.vocab_size, size=(b, t))
    mask = np.ones((b, t))
    return TrainBatch(cur, tgt, mask, prev, np.ones((b, w), dtype=bool), np.arange(b), 0)


def empty_plan(b):
    return CrossbatchPlan([[] for _ in range(b)], [[] for _ in range(b)])


def exposure_plan(b, d):
    """The plan a constant-d, w=1 pipeline builds when all b slots have a
    previous window: own window 0 as context 1, then d - 1 negatives."""
    cfg = tiny_cfg()
    pipe = CrossbatchPipeline(iter(()), b, cfg.local_ctx_len, DSchedule("constant", d=d))
    return pipe.build_plan(0, make_batch(np.random.default_rng(0), cfg, b))


# ---------------------------------------------------------------------------
# reduction properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["none", "as_first"])
def test_d0_equals_vanilla(mode):
    rng = np.random.default_rng(0)
    cfg = tiny_cfg(mem_positional_mode=mode)
    model = Transformer(cfg, seed=1)
    # give the zero-initialized head real weights so logits are nontrivial
    model.params["lm_head"].data[:] = rng.normal(0, 0.1, size=(16, 13)).astype(np.float32)
    batch = make_batch(rng, cfg, b=3)
    fwd = model.forward_train(batch, empty_plan(3))
    vanilla = model.forward_long(batch.cur_tokens)
    assert np.abs(fwd.logits.data - vanilla).max() <= 1e-6


def test_empty_memory_infer_equals_local_exactly():
    rng = np.random.default_rng(1)
    cfg = tiny_cfg()
    model = Transformer(cfg, seed=2)
    model.params["lm_head"].data[:] = rng.normal(0, 0.1, size=(16, 13)).astype(np.float32)
    toks = rng.integers(0, 13, size=8)
    memory = MemoryIndex(cfg.memory_layers, cfg.n_heads, cfg.head_dim)
    for k in (0, 5, 128):
        out = model.forward_infer(toks, memory, k)
        np.testing.assert_array_equal(out.logits, model.forward_long(toks))


@pytest.mark.parametrize("integration", ["merged", "gated"])
@pytest.mark.parametrize("mode", ["none", "as_first"])
def test_forward_long_does_not_depend_on_its_block_size(mode, integration, monkeypatch):
    rng = np.random.default_rng(23)
    model = Transformer(tiny_cfg(mem_positional_mode=mode, integration_mode=integration), seed=24)
    _randomize_head(model, rng)
    toks = rng.integers(0, 13, size=(2, 29))
    outs = []
    for block in (3, 8, 64):
        monkeypatch.setattr(model_mod, "LONG_QUERY_BLOCK", block)
        outs.append(model.forward_long(toks))
        np.testing.assert_array_equal(model.forward_long(toks[1]), outs[-1][1])
    for out in outs[1:]:
        np.testing.assert_allclose(out, outs[0], rtol=0, atol=1e-6)


def test_forward_long_builds_no_length_squared_array():
    model = Transformer(tiny_cfg(), seed=0)
    toks = np.random.default_rng(0).integers(0, 13, size=4096)
    tracemalloc.start()
    try:
        model.forward_long(toks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak  # one 4096 x 4096 float32 mask is 64 MiB


@pytest.mark.parametrize("shape", [(0,), (2, 0), (1, 2, 3), ()])
def test_forward_long_rejects_malformed_tokens(shape):
    with pytest.raises(UsageError):
        Transformer(tiny_cfg(), seed=0).forward_long(np.zeros(shape, np.int64))


@pytest.mark.parametrize("integration", ["merged", "gated"])
@pytest.mark.parametrize("mode", ["none", "as_first"])
def test_train_infer_equivalence(mode, integration):
    """Memory holding exactly the previous window, k >= T, matches d=1/w=1."""
    rng = np.random.default_rng(2)
    cfg = tiny_cfg(mem_positional_mode=mode, integration_mode=integration)
    model = Transformer(cfg, seed=3)
    for p in model.params.values():  # random head so logits differ by token
        if p.data.ndim >= 2:
            p.data += rng.normal(0, 0.02, size=p.data.shape).astype(np.float32)
    w1 = rng.integers(0, 13, size=8)
    w2 = rng.integers(0, 13, size=8)
    batch = TrainBatch(w2[None], np.zeros((1, 8), np.int64), np.ones((1, 8)),
                       w1[None, None], np.ones((1, 1), bool), np.zeros(1, np.int64), 0)
    plan = CrossbatchPlan([[PlanWindow(0, 0, 1)]], [[0]])
    train_logits = model.forward_train(batch, plan).logits.data[0]

    memory = MemoryIndex(cfg.memory_layers, cfg.n_heads, cfg.head_dim)
    first = model.forward_infer(w1, memory, k=0)
    for li, (kk, vv) in first.new_kv.items():
        memory.append_block(li, kk, vv, doc_id=0, positions=np.arange(8))
    second = model.forward_infer(w2, memory, k=64)
    assert np.abs(second.logits - train_logits).max() <= 1e-5


def test_dominant_memory_entry_takes_all_mass():
    cfg = tiny_cfg(qk_normalize=False)
    model = Transformer(cfg, seed=4)
    toks = np.arange(8) % 13
    probe = model.forward_infer(toks, None, k=0)
    memory = MemoryIndex(cfg.memory_layers, cfg.n_heads, cfg.head_dim)
    li = cfg.memory_layers[0]
    k_arr, v_arr = probe.new_kv[li]
    huge = k_arr * 1e4  # entries aligned with every query direction, huge norm
    memory.append_block(li, huge, v_arr, doc_id=0, positions=np.arange(8))
    out = model.forward_infer(toks, memory, k=1, collect_records=True)
    rec = out.records[0]
    assert rec.mass_memory.min() > 0.999


# ---------------------------------------------------------------------------
# incremental inference
# ---------------------------------------------------------------------------

def _model_with_memory(integration="merged", mode="none"):
    """A model with a random head and a memory holding one earlier window."""
    rng = np.random.default_rng(15)
    cfg = tiny_cfg(n_layers=3, local_ctx_len=12, integration_mode=integration,
                   mem_positional_mode=mode)
    model = Transformer(cfg, seed=16)
    _randomize_head(model, rng)
    model.params["layers.1.gate_bias"].data[...] = 0.3
    memory = MemoryIndex(cfg.memory_layers, cfg.n_heads, cfg.head_dim)
    for li, (kk, vv) in model.forward_infer(rng.integers(0, 13, size=12), memory, 0).new_kv.items():
        memory.append_block(li, kk, vv, doc_id=0, positions=np.arange(12))
    return model, memory, rng.integers(0, 13, size=12)


@pytest.mark.parametrize("k", [0, 5])
@pytest.mark.parametrize("mode", ["none", "as_first"])
@pytest.mark.parametrize("integration", ["merged", "gated"])
def test_cached_chunks_match_full_window(integration, mode, k):
    model, memory, toks = _model_with_memory(integration, mode)
    full = model.forward_infer(toks, memory, k, collect_records=True)
    cache = InferCache(memory, model.cfg.local_ctx_len)
    outs, lo = [], 0
    for n in (1, 1, 5, len(toks) - 7):
        outs.append(model.forward_infer(toks[lo:lo + n], memory, k, cache=cache,
                                        collect_records=True))
        lo += n
    assert len(cache) == len(toks)
    np.testing.assert_allclose(np.concatenate([o.logits for o in outs]), full.logits,
                               rtol=0, atol=1e-5)
    for li, (kk, vv) in full.new_kv.items():
        for j, want in enumerate((kk, vv)):
            got = np.concatenate([o.new_kv[li][j] for o in outs], axis=1)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)
    for i, rec in enumerate(full.records):
        for name in ("mass_local", "mass_memory"):
            got = np.concatenate([getattr(o.records[i], name) for o in outs], axis=-1)
            np.testing.assert_allclose(got, getattr(rec, name), rtol=0, atol=1e-6)


def test_stale_cache_is_rejected():
    model, memory, toks = _model_with_memory()
    cache = InferCache(memory, model.cfg.local_ctx_len)
    model.forward_infer(toks, memory, 4, cache=cache)
    with pytest.raises(UsageError):  # a full window takes no more rows
        model.forward_infer(toks[:1], memory, 4, cache=cache)
    assert len(cache) == len(toks)

    cache = InferCache(memory, model.cfg.local_ctx_len)
    model.forward_infer(toks[:3], memory, 4, cache=cache)
    kk, vv = model.forward_infer(toks, None, 0).new_kv[1]
    memory.append_block(1, kk, vv, doc_id=1, positions=np.arange(12))
    with pytest.raises(UsageError):  # cached rows retrieved from a smaller memory
        model.forward_infer(toks[3:4], memory, 4, cache=cache)
    assert len(cache) == 3


ONE_ROW_STEP_PRIMITIVES = 92


def test_one_row_step_builds_no_mask_and_records_a_pinned_count(monkeypatch):
    """Dispatch, guarded without timing. A one-row cached step builds no
    causal mask: its row sees every cached row. A multi-row forward builds
    one for all its layers. A one-row step records ONE_ROW_STEP_PRIMITIVES
    primitives; it recorded 101 while the temperature was an exp, scale,
    reshape and mul chain per layer."""
    model, memory, toks = _model_with_memory()
    cache = InferCache(memory, model.cfg.local_ctx_len)
    model.forward_infer(toks[:3], memory, 4, cache=cache)
    calls = dict.fromkeys(("causal_mask", "_record"), 0)
    for name in calls:
        def counted(*args, _fn=getattr(N, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(N, name, counted)
    model.forward_infer(toks[3:4], memory, 4, cache=cache)
    assert calls == {"causal_mask": 0, "_record": ONE_ROW_STEP_PRIMITIVES}
    calls["causal_mask"] = 0
    model.forward_infer(toks[4:8], memory, 4, cache=cache)
    assert calls["causal_mask"] == 1


@pytest.mark.parametrize("cached", [0, 3], ids=["no_cache", "after_cached_rows"])
def test_forward_infer_rejects_an_empty_window(cached):
    model, memory, toks = _model_with_memory()
    cache = InferCache(memory, model.cfg.local_ctx_len)
    if cached:
        model.forward_infer(toks[:cached], memory, 4, cache=cache)
    with pytest.raises(UsageError, match="one window of 1"):
        model.forward_infer(toks[:0], memory, 4, cache=cache)
    assert len(cache) == cached


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def test_record_buckets_sum_to_one_untrained():
    rng = np.random.default_rng(5)
    cfg = tiny_cfg()
    model = Transformer(cfg, seed=6)
    batch = make_batch(rng, cfg, b=4)
    plan = exposure_plan(4, d=2)
    fwd = model.forward_train(batch, plan)
    rec = fwd.records[0]
    np.testing.assert_allclose(rec.mass_local + rec.per_context.sum(-1), 1.0, atol=1e-5)
    assert (rec.per_context >= 0).all() and (rec.mass_local >= 0).all()
    # exactly one positive context (column 0) and one negative
    assert rec.per_context.shape == rec.mass_local.shape + (2,)


def test_record_buckets_sum_to_one_gated():
    rng = np.random.default_rng(6)
    cfg = tiny_cfg(integration_mode="gated")
    model = Transformer(cfg, seed=7)
    model.params["layers.1.gate_bias"].data[...] = 0.7
    batch = make_batch(rng, cfg, b=3)
    fwd = model.forward_train(batch, exposure_plan(3, 3))
    rec = fwd.records[0]
    np.testing.assert_allclose(rec.mass_local + rec.per_context.sum(-1), 1.0, atol=1e-5)


# ---------------------------------------------------------------------------
# gradients through the crossbatch path
# ---------------------------------------------------------------------------

def _loss_of(model, batch, plan):
    with N.Tape() as tape:
        fwd = model.forward_train(batch, plan)
        loss = N.cross_entropy_masked(fwd.logits, batch.cur_targets, batch.cur_mask)
    N.backward(tape, loss)
    return loss.item(), _grads_of(model)


def _step_of(model, batch, plan, differentiable):
    model.zero_grads()
    loss, _ = crossbatch_grad_step(model, batch, plan, differentiable=differentiable)
    return loss, _grads_of(model)


def _grads_of(model):
    return {k: (None if p.grad is None else p.grad.copy()) for k, p in model.params.items()}


def _randomize_head(model, rng):
    model.params["lm_head"].data[:] = rng.normal(
        0, 0.2, size=model.params["lm_head"].shape).astype(model.dtype)


def test_gradient_reaches_extras_only_when_differentiable(monkeypatch):
    """Stop-gradient is leaves without grad on either width: one chunk of
    every slot, and chunks of two slots."""
    rng = np.random.default_rng(7)
    cfg = tiny_cfg(n_layers=3, memory_layers=(1,))
    model = Transformer(cfg, seed=8, dtype=np.float64)
    _randomize_head(model, rng)
    batch = make_batch(rng, cfg, b=4)
    plan = exposure_plan(4, 2)

    for chunked in (False, True):
        with monkeypatch.context() as m:
            if chunked:
                _force_chunks_of_two(m, model, plan)
            loss_diff, grads_diff = _step_of(model, batch, plan, differentiable=True)
            loss_stop, grads_stop = _step_of(model, batch, plan, differentiable=False)

        assert abs(loss_diff - loss_stop) < 1e-12  # forward identical
        # parameters strictly above the memory layer see identical gradients
        for name in ("layers.2.w1", "layers.2.wq", "final_ln", "lm_head"):
            np.testing.assert_allclose(grads_diff[name], grads_stop[name], atol=1e-12)
        # parameters feeding the previous-context encodings do not
        assert np.abs(grads_diff["embed"] - grads_stop["embed"]).max() > 1e-9
        assert np.abs(grads_diff["layers.0.w1"] - grads_stop["layers.0.w1"]).max() > 1e-9


def _without_windows(plan, slots):
    for s in slots:
        plan.per_slot[s], plan.source_unit[s] = [], []
    return plan


def _slot_score_bytes(model, plan) -> int:
    """One slot's scores in a crossbatch step of ``plan``: H·T·(1 + E)·T
    floats, E the plan's most windows a slot."""
    t = model.cfg.local_ctx_len
    return model.dtype.itemsize * model.cfg.n_heads * t * t * (1 + plan.max_windows)


def _force_chunks_of_two(monkeypatch, model, plan):
    """Run the crossbatch step of ``plan`` in chunks of two slots: a score
    budget of two slots' scores."""
    monkeypatch.setattr(model_mod, "FULL_TAPE_SCORE_BYTES", 2 * _slot_score_bytes(model, plan))


CHUNK_CASES = pytest.mark.parametrize(
    "integration,empty_slots,d,lossless",
    [("merged", (), 3, ()), ("merged", (0, 1), 3, ()), ("gated", (0, 1), 3, ()),
     ("merged", (), 6, ()), ("gated", (), 6, ()), ("merged", (0, 1), 3, (2, 3, 4, 5))],
    ids=["merged", "merged-empty_chunk", "gated-empty_chunk", "merged-uniform", "gated-uniform",
         "merged-loss_without_windows"])


def _chunk_case(integration, empty_slots, d, lossless):
    """A 3-layer model with two memory layers, six slots and a constant-d
    plan whose ``empty_slots`` have no windows (slots 0, 1: all of chunk 0)
    and whose ``lossless`` slots have no loss. At d = 6 every slot attends
    to the same six windows. With windows only where there is no loss, no
    grad reaches the previous windows' keys and values."""
    rng = np.random.default_rng(8)
    cfg = tiny_cfg(n_layers=3, memory_layers=(1, 2), integration_mode=integration)
    model = Transformer(cfg, seed=9, dtype=np.float64)
    _randomize_head(model, rng)
    for li in cfg.memory_layers:
        model.params[f"layers.{li}.gate_bias"].data[...] = 0.5
    batch = make_batch(rng, cfg, b=6)
    batch.cur_mask[list(lossless)] = 0
    return model, batch, _without_windows(exposure_plan(6, d), empty_slots)


@CHUNK_CASES
def test_chunked_grad_step_matches_full_tape(integration, empty_slots, d, lossless, monkeypatch):
    model, batch, plan = _chunk_case(integration, empty_slots, d, lossless)
    model.zero_grads()
    loss_full, grads_full = _loss_of(model, batch, plan)
    model.zero_grads()
    _force_chunks_of_two(monkeypatch, model, plan)
    loss_chunk, _ = crossbatch_grad_step(model, batch, plan)
    assert abs(loss_full - loss_chunk) < 1e-10
    for name, p in model.params.items():
        a, b_ = grads_full[name], p.grad
        if a is None:
            assert b_ is None or np.abs(b_).max() == 0
            continue
        np.testing.assert_allclose(a, b_, atol=1e-10, err_msg=name)


@CHUNK_CASES
def test_chunked_records_match_forward_train(integration, empty_slots, d, lossless, monkeypatch):
    """The chunked step and exposure_records, one loop with and without a
    loss, merge their chunks' records into exactly forward_train's."""
    model, batch, plan = _chunk_case(integration, empty_slots, d, lossless)
    want = model.forward_train(batch, plan).records
    _force_chunks_of_two(monkeypatch, model, plan)
    _, stepped = crossbatch_grad_step(model, batch, plan, collect_records=True)
    for got in (stepped, exposure_records(model, batch, plan)):
        assert [r.layer for r in got] == [r.layer for r in want]
        for g, w in zip(got, want):
            for name in ("mass_local", "per_context"):
                np.testing.assert_array_equal(getattr(g, name), getattr(w, name), err_msg=name)
            assert g.gate == w.gate


@pytest.mark.parametrize("integration", ["merged", "gated"])
def test_uneven_chunks_give_records_at_the_plans_width(integration, monkeypatch):
    """Chunks whose slots reach different context counts (slots 0 and 1
    keep only their own window, slots 2 and 3 all three contexts) each
    record every context of the plan, so their records concatenate into
    exactly forward_train's."""
    rng = np.random.default_rng(71)
    cfg = tiny_cfg(n_layers=3, memory_layers=(1, 2), integration_mode=integration)
    model = Transformer(cfg, seed=72, dtype=np.float64)
    _randomize_head(model, rng)
    batch = make_batch(rng, cfg, b=4)
    plan = exposure_plan(4, 3)
    for s in (0, 1):
        own = [i for i, pw in enumerate(plan.per_slot[s]) if pw.context_id == 1]
        plan.per_slot[s] = [plan.per_slot[s][i] for i in own]
        plan.source_unit[s] = [plan.source_unit[s][i] for i in own]
    assert plan.n_contexts == [1, 1, 3, 3]
    want = model.forward_train(batch, plan).records
    _force_chunks_of_two(monkeypatch, model, plan)
    _, stepped = crossbatch_grad_step(model, batch, plan, collect_records=True)
    for got in (stepped, exposure_records(model, batch, plan)):
        assert [r.layer for r in got] == [r.layer for r in want]
        for g, w in zip(got, want):
            assert w.per_context.shape[-1] == 3
            for name in ("mass_local", "per_context"):
                np.testing.assert_array_equal(getattr(g, name), getattr(w, name), err_msg=name)
            assert g.gate == w.gate


def _spy_extras(monkeypatch) -> list:
    """Every extras the grad step builds from a gather, in build order."""
    built = []
    build = model_mod._Gather.extras

    def spy(gather, k, v):
        built.append(build(gather, k, v))
        return built[-1]

    monkeypatch.setattr(model_mod._Gather, "extras", spy)
    return built


def test_chunked_extras_leaves_keep_their_grads(monkeypatch):
    """Every chunk gathers its extras from the one stored encoding of the
    previous windows on its own tape, and its backward adds its grads into
    the encoded keys and values. After the chunks they hold those grads,
    and finishing the encoding's tape consumes it and pushes them on into
    the parameters below the memory layers."""
    rng = np.random.default_rng(19)
    cfg = tiny_cfg(n_layers=3, memory_layers=(1, 2))
    model = Transformer(cfg, seed=20, dtype=np.float64)
    _randomize_head(model, rng)
    batch = make_batch(rng, cfg, b=4)
    encoded, finished = [], []
    encode, finish = Transformer.encode_windows, N.backward_from

    def spy_encode(m, tokens, *a):
        encoded.append(encode(m, tokens, *a))
        return encoded[-1]

    def spy_finish(tape, seeds):
        if seeds:  # a chunk's loss
            return finish(tape, seeds)
        kv = [x for pair in encoded[0].values() for x in pair]
        assert len(kv) == 2 * 2  # memory layers x (k, v)
        assert all(x.grad is not None and np.abs(x.grad).max() > 0 for x in kv)
        before = {name: model.params[name].grad.copy() for name in ("embed", "layers.0.w1")}
        finish(tape, seeds)
        finished.append((tape, before))

    monkeypatch.setattr(Transformer, "encode_windows", spy_encode)
    monkeypatch.setattr(N, "backward_from", spy_finish)
    model.zero_grads()
    plan = exposure_plan(4, 2)
    _force_chunks_of_two(monkeypatch, model, plan)
    crossbatch_grad_step(model, batch, plan)
    ((tape, before),) = finished
    assert tape._consumed and len(encoded) == 1
    for name, grad in before.items():
        assert np.abs(model.params[name].grad - grad).max() > 0, name


@pytest.mark.parametrize("chunked", [False, True], ids=["one_chunk", "chunks_of_two"])
def test_one_chunk_backpropagates_through_its_own_encoding(chunked, monkeypatch):
    """One chunk with a loss encodes the previous windows once, on a tape
    that its backward finishes; so do chunks of two, each adding its grads
    into the one stored encoding."""
    rng = np.random.default_rng(21)
    cfg = tiny_cfg(n_layers=3, memory_layers=(1, 2))
    model = Transformer(cfg, seed=22, dtype=np.float64)
    batch = make_batch(rng, cfg, b=4)
    encodes, encode = [], Transformer.encode_windows
    monkeypatch.setattr(Transformer, "encode_windows",
                        lambda m, tokens, *a: encodes.append(len(tokens)) or encode(m, tokens, *a))
    plan = exposure_plan(4, 2)
    if chunked:
        _force_chunks_of_two(monkeypatch, model, plan)
    crossbatch_grad_step(model, batch, plan)
    assert encodes == [4]


def test_chunks_of_two_encode_once_below_one_chunks_peak(monkeypatch):
    """At d = b, with scores far larger than the activations, chunks of two
    encode the previous windows once, keep that encoding's tape beside each
    chunk's, and still peak below the same step as one chunk, with the same
    loss and grads."""
    rng = np.random.default_rng(51)
    cfg = tiny_cfg(local_ctx_len=32)
    model = Transformer(cfg, seed=52, dtype=np.float64)
    _randomize_head(model, rng)
    batch = make_batch(rng, cfg, b=8)
    plan = exposure_plan(8, 8)
    encodes, encode = [], Transformer.encode_windows
    monkeypatch.setattr(Transformer, "encode_windows",
                        lambda m, tokens, *a: encodes.append(len(tokens)) or encode(m, tokens, *a))

    def step():
        model.zero_grads()
        tracemalloc.start()
        try:
            loss, _ = crossbatch_grad_step(model, batch, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return loss, {name: p.grad for name, p in model.params.items()}, peak

    loss_one, grads_one, peak_one = step()
    _force_chunks_of_two(monkeypatch, model, plan)
    loss, grads, peak = step()
    assert encodes == [8, 8]
    assert peak < peak_one, (peak, peak_one)
    assert abs(loss - loss_one) < 1e-10
    for name, g in grads.items():
        if grads_one[name] is None:  # the gate bias of a merged model
            assert g is None, name
            continue
        np.testing.assert_allclose(g, grads_one[name], rtol=0, atol=1e-10, err_msg=name)


@pytest.mark.parametrize("k", [0, 1, 2, 4, 6])
def test_chunk_width_is_the_score_budget_in_slots(k, monkeypatch):
    """A budget of k slots' scores runs a six-slot step in ceil(6 / k)
    chunks of k slots, and a budget of none in one slot a chunk. Every width
    encodes the previous windows once and gives the one-chunk step's loss
    and grads."""
    rng = np.random.default_rng(61)
    cfg = tiny_cfg(n_layers=3, memory_layers=(1, 2))
    model = Transformer(cfg, seed=62, dtype=np.float64)
    _randomize_head(model, rng)
    batch = make_batch(rng, cfg, b=6)
    plan = exposure_plan(6, 3)
    encodes, encode = [], Transformer.encode_windows
    rows, current_rows = [], Transformer._current_rows
    monkeypatch.setattr(Transformer, "encode_windows",
                        lambda m, tokens, *a: encodes.append(len(tokens)) or encode(m, tokens, *a))
    monkeypatch.setattr(Transformer, "_current_rows", lambda m, tokens, *a: rows.append(
        len(tokens)) or current_rows(m, tokens, *a))

    loss_one, grads_one = _step_of(model, batch, plan, differentiable=True)
    assert rows == [6] and encodes == [6]
    rows.clear()
    encodes.clear()
    monkeypatch.setattr(model_mod, "FULL_TAPE_SCORE_BYTES", k * _slot_score_bytes(model, plan))
    loss, grads = _step_of(model, batch, plan, differentiable=True)
    width = max(k, 1)
    assert rows == [min(width, 6 - lo) for lo in range(0, 6, width)]
    assert encodes == [6]
    assert abs(loss - loss_one) < 1e-10
    for name, g in grads.items():
        if grads_one[name] is None:  # the gate biases of a merged model
            assert g is None, name
            continue
        np.testing.assert_allclose(g, grads_one[name], rtol=0, atol=1e-10, err_msg=name)


@pytest.mark.parametrize("path,d,gathers", [("one_tape", 3, True), ("chunked", 3, True),
                                            ("one_tape", 6, False), ("chunked", 6, False)],
                         ids=["one_tape-per_slot", "chunked-per_slot", "one_tape-shared",
                              "chunked-shared"])
def test_extras_are_gathered_with_take_rows_unless_shared(path, d, gathers, monkeypatch):
    """One chunk ("one_tape") and chunks of two both take each slot's
    windows with take_rows, whose backward sums each window's grads. When
    every slot attends to all N encoded windows in order (d = b), the
    extras are those windows as they are."""
    rng = np.random.default_rng(31)
    cfg = tiny_cfg(n_layers=3, memory_layers=(1, 2))
    model = Transformer(cfg, seed=32)
    batch = make_batch(rng, cfg, b=6)
    calls, take = [], N.take_rows
    monkeypatch.setattr(N, "take_rows", lambda x, idx: calls.append(len(idx)) or take(x, idx))
    plan = exposure_plan(6, d)
    if path == "chunked":
        _force_chunks_of_two(monkeypatch, model, plan)
    crossbatch_grad_step(model, batch, plan)
    assert bool(calls) == gathers, calls


@pytest.mark.parametrize("path", ["one_tape", "chunked"])
def test_shared_extras_match_per_slot_extras(path, monkeypatch):
    """At d = b every slot attends to the same windows, so the step gathers
    them once, as [1, H, E*T, Dh] extras all slots share. The oracle is the
    same plan plus one slot without windows or loss: the window sets then
    differ, and the step gathers [b + 1, H, E*T, Dh] extras, one per slot."""
    rng = np.random.default_rng(41)
    cfg = tiny_cfg(n_layers=3, memory_layers=(1, 2))
    model = Transformer(cfg, seed=42, dtype=np.float64)
    _randomize_head(model, rng)
    b, h, t, dh = 4, cfg.n_heads, cfg.local_ctx_len, cfg.head_dim
    padded = make_batch(rng, cfg, b + 1)
    padded.cur_mask[b] = 0
    batch = TrainBatch(padded.cur_tokens[:b], padded.cur_targets[:b], padded.cur_mask[:b],
                       padded.prev_tokens[:b], padded.prev_valid[:b], padded.unit_ids[:b], 0)
    plan = exposure_plan(b, b)
    padded_plan = CrossbatchPlan(plan.per_slot + [[]], plan.source_unit + [[]])
    built = _spy_extras(monkeypatch)

    model.zero_grads()
    loss_want, want = crossbatch_grad_step(model, padded, padded_plan, collect_records=True)
    grads_want = {name: p.grad for name, p in model.params.items()}
    assert {ext.k.shape for ext in built} == {(b + 1, h, b * t, dh)}
    built.clear()
    if path == "chunked":
        _force_chunks_of_two(monkeypatch, model, plan)
    model.zero_grads()
    loss, got = crossbatch_grad_step(model, batch, plan, collect_records=True)
    assert {ext.k.shape for ext in built} == {(1, h, b * t, dh)}

    assert abs(loss - loss_want) < 1e-10
    for name, p in model.params.items():
        if grads_want[name] is None:  # the gate biases of a merged model
            assert p.grad is None, name
            continue
        np.testing.assert_allclose(p.grad, grads_want[name], rtol=0, atol=1e-10, err_msg=name)
    for g, w in zip(got, want, strict=True):
        for name in ("mass_local", "per_context"):
            np.testing.assert_allclose(getattr(g, name), getattr(w, name)[:b], rtol=0, atol=1e-12,
                                       err_msg=name)


# sha256 prefixes of one float32 grad step's loss and parameter grads; they
# hash float bytes, so they pin the numpy/BLAS build as well as the math.
# "chunked_shared" runs a d = b plan, whose chunks share their extras.
PINNED_GRAD_STEPS = {"one_tape": "d485eac7e3dd0663", "chunked": "f3be1d73937ff090",
                     "chunked_shared": "31c67b34bb20108c"}


@pytest.mark.parametrize("path", sorted(PINNED_GRAD_STEPS))
def test_grad_step_is_pinned(path, monkeypatch):
    """Same math in the same order: a change to how the tape stores its
    arrays must not move a bit of the loss or of any gradient. The hashes pin
    SiLU's derivative taken as σ + y·(1 − σ) from its output y, and each 2-D
    weight's grad as one GEMM over all of its input's rows, and rotary as
    one complex multiply per coordinate pair; RMSNorm's gain grad and a
    shared key set's per-slot sum do not move them."""
    rng = np.random.default_rng(31)
    cfg = tiny_cfg(n_layers=3, memory_layers=(1, 2))
    model = Transformer(cfg, seed=32)
    _randomize_head(model, rng)
    batch = make_batch(rng, cfg, b=6, w=2)
    plan = exposure_plan(6, 6 if path == "chunked_shared" else 3)
    if path != "one_tape":
        _force_chunks_of_two(monkeypatch, model, plan)
    model.zero_grads()
    loss, _ = crossbatch_grad_step(model, batch, plan)
    h = hashlib.sha256(np.float64(loss).tobytes())
    for name in sorted(model.params):
        g = model.params[name].grad
        h.update(name.encode() + (b"none" if g is None else g.tobytes()))
    assert h.hexdigest()[:16] == PINNED_GRAD_STEPS[path]


def test_grad_step_peak_memory_is_bounded():
    """A tape whose closures held whole tensors (every matmul and add output
    alive until backward) peaked at 7.7 MiB on this step, and the lean tape at
    4.4 MiB. With SiLU keeping σ and its output instead of its input, RMSNorm
    keeping no normalized copy and each weight grad one GEMM, it peaked at
    3.7 MiB, and with the temperature one primitive that keeps its output
    instead of q, at 3.6 MiB. A closure that captures a tensor it does not
    read fails here."""
    rng = np.random.default_rng(33)
    cfg = tiny_cfg(n_layers=3, d_model=32, head_dim=16, ff_dim=64, memory_layers=(1, 2),
                   local_ctx_len=32)
    model = Transformer(cfg, seed=34)
    _randomize_head(model, rng)
    batch = make_batch(rng, cfg, b=8, w=2)
    tracemalloc.start()
    try:
        crossbatch_grad_step(model, batch, exposure_plan(8, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("integration", ["merged", "gated"])
def test_slot_logits_ignore_neighbour_plans(integration):
    """A slot without windows attends locally whatever its neighbours see."""
    rng = np.random.default_rng(17)
    cfg = tiny_cfg(integration_mode=integration)
    model = Transformer(cfg, seed=18, dtype=np.float64)
    _randomize_head(model, rng)
    model.params["layers.1.gate_bias"].data[...] = 0.5
    batch = make_batch(rng, cfg, b=2)
    neighbour_has_window = _without_windows(exposure_plan(2, 1), [1])
    logits = [model.forward_train(batch, plan).logits.data[1]
              for plan in (neighbour_has_window, empty_plan(2))]
    assert np.abs(logits[0] - logits[1]).max() <= 1e-10


def test_merged_attention_tape_keeps_one_score_sized_array():
    """A merged memory layer with shared extras keeps one [b, H, T, T+E*T]
    array alive on its tape once its output is dropped: the softmax, whose
    backward reads it. The logits buffer goes when the softmax returns."""
    rng = np.random.default_rng(21)
    # values stay much smaller than the scores, which outweigh the tape's nodes
    cfg = tiny_cfg(head_dim=4, d_model=8, local_ctx_len=32)
    model = Transformer(cfg, seed=22, dtype=np.float64)
    b, h, t, dh, e = 3, cfg.n_heads, cfg.local_ctx_len, cfg.head_dim, 4

    def leaf(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    pad_add = np.zeros((b, 1, 1, e * t))
    pad_add[2, ..., t:] = N.MASK_VALUE
    ext = model_mod._Extras(leaf(b, h, e * t, dh), leaf(b, h, e * t, dh), pad_add)
    q, local_kv = leaf(b, h, t, dh), (leaf(b, h, t, dh), leaf(b, h, t, dh))
    causal = N.causal_mask(t, np.float64)[None, None]
    tracemalloc.start()
    try:
        with N.Tape() as tape:
            out = model._attend(1, q, local_kv, causal, ext, collect=False)
        del out
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    score_bytes = 8 * b * h * t * (t + e * t)
    assert len(tape) > 0 and score_bytes <= kept < 1.5 * score_bytes, kept / score_bytes


def test_token_ids_outside_the_vocabulary_are_data_errors():
    model = Transformer(tiny_cfg(), seed=0)
    for bad in (-1, model.cfg.vocab_size):
        with pytest.raises(DataError, match=f"token id {bad} .* vocabulary of 13"):
            model.forward_infer(np.array([bad]), None, 0)


def test_finite_diff_through_memory_layer():
    rng = np.random.default_rng(9)
    cfg = tiny_cfg(n_layers=2, d_model=8, n_heads=2, head_dim=4, ff_dim=16,
                   vocab_size=7, local_ctx_len=4)
    model = Transformer(cfg, seed=10, dtype=np.float64)
    _randomize_head(model, rng)
    t = cfg.local_ctx_len
    cur = rng.integers(0, 7, size=(2, t))
    prev = rng.integers(0, 7, size=(2, 1, t))
    tgt = rng.integers(0, 7, size=(2, t))
    batch = TrainBatch(cur, tgt, np.ones((2, t)), prev, np.ones((2, 1), bool), np.arange(2), 0)
    plan = exposure_plan(2, 2)

    def fn():
        fwd = model.forward_train(batch, plan, collect_records=False)
        return N.cross_entropy_masked(fwd.logits, batch.cur_targets, batch.cur_mask)

    checked = [model.params[n] for n in
               ("layers.1.log_tau", "layers.1.ln1", "layers.0.bq", "final_ln")]
    err = N.finite_diff_check(fn, checked, eps=1e-5)
    assert err < 1e-5


# ---------------------------------------------------------------------------
# gating
# ---------------------------------------------------------------------------

def test_gated_integration_examples():
    rng = np.random.default_rng(10)
    vm = Tensor(rng.standard_normal((2, 3)))
    vc = Tensor(rng.standard_normal((2, 3)))
    out = gated_integration(vm, vc, Tensor(np.asarray(-40.0)))
    np.testing.assert_array_equal(out.data, vc.data)
    half = gated_integration(vm, vc, Tensor(np.asarray(0.0)))
    np.testing.assert_allclose(half.data, (vm.data + vc.data) / 2, atol=1e-12)
    g1 = 1 / (1 + np.exp(-1.0))
    one = gated_integration(vm, vc, Tensor(np.asarray(1.0)))
    np.testing.assert_allclose(one.data, vm.data * g1 + vc.data * (1 - g1), atol=1e-12)
    with pytest.raises(ShapeError):
        gated_integration(Tensor(np.ones((2, 2))), vc, Tensor(np.asarray(0.0)))


def test_gate_at_minus_infinity_ignores_memory():
    rng = np.random.default_rng(11)
    cfg = tiny_cfg(integration_mode="gated")
    model = Transformer(cfg, seed=12)
    model.params["layers.1.gate_bias"].data[...] = -40.0  # sigmoid underflows to 0
    toks = rng.integers(0, 13, size=8)

    def with_memory(seed):
        mem = MemoryIndex(cfg.memory_layers, cfg.n_heads, cfg.head_dim)
        r = np.random.default_rng(seed)
        k = r.standard_normal((cfg.n_heads, 8, cfg.head_dim)).astype(np.float32)
        mem.append_block(1, k, k, doc_id=0, positions=np.arange(8))
        return model.forward_infer(toks, mem, k=8).logits

    a, b = with_memory(0), with_memory(999)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# spec kernels
# ---------------------------------------------------------------------------

def test_merged_softmax_identical_keys_average_values():
    rng = np.random.default_rng(12)
    q = Tensor(rng.standard_normal((1, 1, 3, 4)))
    k = Tensor(np.broadcast_to(rng.standard_normal(4), (1, 1, 5, 4)).copy())
    v = Tensor(rng.standard_normal((1, 1, 5, 4)))
    out, _, _ = merged_softmax_attention(q, (k, v), None,
                                         np.zeros((1, 1, 3, 5)))
    np.testing.assert_allclose(out.data, np.broadcast_to(v.data.mean(2, keepdims=True),
                                                         (1, 1, 3, 4)), atol=1e-6)


def test_merged_softmax_vs_f64_oracle():
    rng = np.random.default_rng(13)
    q = rng.standard_normal((1, 2, 3, 4))
    kl = rng.standard_normal((1, 2, 3, 4))
    vl = rng.standard_normal((1, 2, 3, 4))
    ke = rng.standard_normal((1, 2, 6, 4))
    ve = rng.standard_normal((1, 2, 6, 4))
    causal = N.causal_mask(3, np.float64)[None, None]
    out, _, _ = merged_softmax_attention(
        Tensor(q), (Tensor(kl), Tensor(vl)), (Tensor(ke), Tensor(ve)), causal)
    # direct evaluation of the merged-softmax attention value
    for h in range(2):
        for t in range(3):
            logits = np.concatenate([q[0, h, t] @ kl[0, h].T + causal[0, 0, t],
                                     q[0, h, t] @ ke[0, h].T])
            w = np.exp(logits - logits.max())
            w /= w.sum()
            expect = w[:3] @ vl[0, h] + w[3:] @ ve[0, h]
            np.testing.assert_allclose(out.data[0, h, t], expect, atol=1e-12)


# ---------------------------------------------------------------------------
# config + checkpoints
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(Exception):
        ModelConfig(d_model=20, n_heads=3, head_dim=8).validate()
    with pytest.raises(Exception):
        tiny_cfg(memory_layers=(9,)).validate()


def test_param_count_formula():
    for cfg in (tiny_cfg(), tiny_cfg(n_layers=3, memory_layers=(0, 2)),
                ModelConfig()):
        params = init_params(cfg, seed=0)
        assert sum(p.data.size for p in params.values()) == param_count(cfg)


def test_checkpoint_roundtrip_byte_identical(tmp_path):
    cfg = tiny_cfg()
    params = init_params(cfg, seed=13)
    p1, p2 = tmp_path / "a.fotc", tmp_path / "b.fotc"
    save_checkpoint(p1, cfg, params)
    cfg2, params2 = load_checkpoint(p1)
    assert cfg2 == cfg
    save_checkpoint(p2, cfg2, params2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_truncation_and_magic(tmp_path):
    cfg = tiny_cfg()
    p = tmp_path / "c.fotc"
    save_checkpoint(p, cfg, init_params(cfg, 0))
    blob = p.read_bytes()
    bad = tmp_path / "bad.fotc"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        load_checkpoint(bad)
    trunc = tmp_path / "trunc.fotc"
    trunc.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        load_checkpoint(trunc)


@pytest.mark.parametrize("bad,message", [
    ({"n_layers": 0, "memory_layers": ()}, "n_layers, local_ctx_len, vocab_size and ff_dim"),
    ({"local_ctx_len": 0}, "n_layers, local_ctx_len, vocab_size and ff_dim"),
    ({"vocab_size": 0}, "n_layers, local_ctx_len, vocab_size and ff_dim"),
    ({"ff_dim": -1}, "n_layers, local_ctx_len, vocab_size and ff_dim"),
    ({"rotary_base": 0.0}, "rotary_base must be finite and positive"),
    ({"rotary_base": -10000.0}, "rotary_base must be finite and positive"),
    ({"rotary_base": float("nan")}, "rotary_base must be finite and positive"),
    ({"rotary_base": float("inf")}, "rotary_base must be finite and positive"),
], ids=["zero_layers", "zero_ctx", "zero_vocab", "negative_ff_dim", "zero_rotary_base",
        "negative_rotary_base", "nan_rotary_base", "inf_rotary_base"])
def test_model_config_rejects_a_model_that_cannot_train(bad, message):
    """These used to pass validation: a zero rotary base trained to a NaN
    loss, a zero vocabulary failed on the first token and ff_dim=0 wrote a
    checkpoint with no feed-forward blocks."""
    with pytest.raises(ConfigError, match=message):
        tiny_cfg(**bad).validate()


@pytest.mark.parametrize("bad", [{"memory_layers": (5,)}, {"memory_layers": (1, 1)},
                                 {"d_model": 0, "head_dim": 0}, {"d_model": 0, "n_heads": 0}],
                         ids=["memory_layer_out_of_range", "memory_layer_repeated",
                              "zero_head_dim", "zero_heads"])
def test_load_checkpoint_rejects_an_invalid_config_blob(bad, tmp_path):
    """A blob whose config fails validation is a FormatError, even when
    every parameter has the shape that config implies."""
    cfg = tiny_cfg(**bad)
    path = tmp_path / "c.fotc"
    save_checkpoint(path, cfg, {name: Tensor(np.zeros(shape, np.float32))
                                for name, shape in param_shapes(cfg).items()})
    with pytest.raises(FormatError, match="bad config blob"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_a_blob_with_temperature_init(tmp_path):
    """Configs no longer carry a temperature setting (log_tau starts at 0),
    so a blob that still holds one is not a config this code can load."""
    cfg = tiny_cfg()
    path = tmp_path / "c.fotc"
    save_checkpoint(path, cfg, init_params(cfg, seed=1))
    raw = path.read_bytes()
    (blob_len,) = struct.unpack_from("<I", raw, 8)
    blob = json.loads(raw[12:12 + blob_len])
    blob["temperature_init"] = 1.0
    new = json.dumps(blob, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(new)) + new + raw[12 + blob_len:])
    with pytest.raises(FormatError, match="bad config blob"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_every_truncation_and_header_bit_flip(tmp_path):
    cfg = tiny_cfg(n_layers=1, d_model=4, n_heads=1, head_dim=4, ff_dim=6, vocab_size=5,
                   memory_layers=(0,), local_ctx_len=4)
    path = tmp_path / "c.fotc"
    save_checkpoint(path, cfg, init_params(cfg, seed=3))
    raw = path.read_bytes()
    # magic, version, blob length, then each parameter's ndim and shape
    # words (the JSON config blob is free text)
    header, starts = [*range(12)], {}
    off = 12 + struct.unpack_from("<I", raw, 8)[0]
    for name, shape in param_shapes(cfg).items():
        starts[name] = off
        header += range(off, off + 4 * (1 + len(shape)))
        off += 4 * (1 + len(shape)) + 4 * int(np.prod(shape))
    assert off == len(raw)
    bad = [raw[:i] for i in range(len(raw))]
    bad += [raw[:i] + bytes([raw[i] ^ 1 << bit]) + raw[i + 1:] for i in header for bit in range(8)]
    # a parameter stored transposed holds the right number of floats
    w1 = starts["layers.0.w1"]
    bad.append(raw[:w1 + 4] + struct.pack("<2I", 6, 4) + raw[w1 + 12:])
    for blob in bad:
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            load_checkpoint(path)


def test_forward_train_rejects_bad_plan(monkeypatch):
    rng = np.random.default_rng(14)
    cfg = tiny_cfg()
    model = Transformer(cfg, seed=15)
    batch = make_batch(rng, cfg, b=2)
    short = make_batch(rng, tiny_cfg(local_ctx_len=4), b=2)  # 4-token windows, 8-token model
    missing = make_batch(rng, cfg, b=2)
    missing.prev_valid[:] = False
    unnumbered = exposure_plan(2, 1)  # context 0 is the window table's padding
    unnumbered.per_slot[1] = [PlanWindow(pw.source_slot, pw.window_index, 0)
                              for pw in unnumbered.per_slot[1]]
    bad = [(batch, empty_plan(3)), (short, exposure_plan(2, 1)), (missing, exposure_plan(2, 1)),
           (batch, unnumbered)]
    runs = (model.forward_train, lambda b_, plan: crossbatch_grad_step(model, b_, plan),
            lambda b_, plan: exposure_records(model, b_, plan))
    for chunked in (False, True):  # one chunk of both slots, then a chunk per slot
        if chunked:
            monkeypatch.setattr(model_mod, "FULL_TAPE_SCORE_BYTES",
                                _slot_score_bytes(model, exposure_plan(2, 1)))
        for run in runs:
            for b_, plan in bad:
                with pytest.raises(UsageError):
                    run(b_, plan)
