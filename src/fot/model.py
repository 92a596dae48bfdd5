"""Decoder-only transformer with memory attention layers.

Designated layers attend, in one softmax, to their local causal context plus
extra (key, value) pairs: planned previous-context windows during training
(fully differentiable, so gradients reach the extra keys and values), or
top-k retrieved memory entries during inference. A gating variant that mixes
a separate memory-attention value into the local one is included for
comparison.

Keys and values handed to the memory index are post-projection (and post
qk-normalization when enabled) but carry no positional encoding; in
"as_first" mode the read side treats them as sitting at local position 0,
in "none" mode the memory layers use no positional encoding at all.
"""

from __future__ import annotations

import contextlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from . import numerics as N
from .errors import ConfigError, DataError, FormatError, ShapeError, UsageError
from .memstore import MemoryIndex
from .numerics import Tensor
from .pipeline import CrossbatchPlan, TrainBatch

CHECKPOINT_MAGIC = b"FOTC"
CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    n_layers: int = 4
    d_model: int = 256
    n_heads: int = 4
    head_dim: int = 64
    ff_dim: int = 1024
    vocab_size: int = 64
    memory_layers: tuple[int, ...] = (2,)
    local_ctx_len: int = 256
    qk_normalize: bool = True
    mem_positional_mode: str = "none"      # "none" | "as_first"
    integration_mode: str = "merged"       # "merged" | "gated"
    rotary_base: float = 10000.0
    init_scheme: str = "scaled_normal"     # "scaled_normal" | "structured"

    def validate(self) -> None:
        if min(self.d_model, self.n_heads, self.head_dim) <= 0:
            raise ConfigError(f"d_model, n_heads and head_dim must be positive, got "
                              f"{self.d_model}, {self.n_heads}, {self.head_dim}")
        if min(self.n_layers, self.local_ctx_len, self.vocab_size, self.ff_dim) < 1:
            raise ConfigError(f"n_layers, local_ctx_len, vocab_size and ff_dim must be at least 1, got "
                              f"{self.n_layers}, {self.local_ctx_len}, {self.vocab_size}, {self.ff_dim}")
        if not (np.isfinite(self.rotary_base) and self.rotary_base > 0):
            raise ConfigError(f"rotary_base must be finite and positive, got {self.rotary_base}")
        if self.d_model != self.n_heads * self.head_dim:
            raise ConfigError(f"d_model {self.d_model} != n_heads*head_dim {self.n_heads * self.head_dim}")
        if any(not 0 <= m < self.n_layers for m in self.memory_layers):
            raise ConfigError(f"memory_layers {self.memory_layers} outside [0, {self.n_layers})")
        if len(set(self.memory_layers)) != len(self.memory_layers):
            raise ConfigError(f"memory_layers {self.memory_layers} names a layer twice")
        if self.head_dim % 2:
            raise ConfigError("head_dim must be even for rotary encoding")
        if self.mem_positional_mode not in ("none", "as_first"):
            raise ConfigError(f"unknown mem_positional_mode {self.mem_positional_mode!r}")
        if self.integration_mode not in ("merged", "gated"):
            raise ConfigError(f"unknown integration_mode {self.integration_mode!r}")
        if self.init_scheme not in ("scaled_normal", "structured"):
            raise ConfigError(f"unknown init_scheme {self.init_scheme!r}")

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["memory_layers"] = list(self.memory_layers)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["memory_layers"] = tuple(d.get("memory_layers", ()))
        return cls(**d)


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in checkpoint order."""
    d, hd, f = cfg.d_model, cfg.n_heads * cfg.head_dim, cfg.ff_dim
    shapes = {"embed": (cfg.vocab_size, d)}
    for i in range(cfg.n_layers):
        layer = {"ln1": (d,), "wq": (d, hd), "bq": (hd,), "wk": (d, hd), "bk": (hd,),
                 "wv": (d, hd), "bv": (hd,), "wo": (hd, d), "bo": (d,),
                 "log_tau": (cfg.n_heads,)}
        if i in cfg.memory_layers:
            layer["gate_bias"] = ()
        layer.update(ln2=(d,), w1=(d, f), b1=(f,), w2=(f, d), b2=(d,))
        shapes.update({f"layers.{i}.{k}": v for k, v in layer.items()})
    shapes.update(final_ln=(d,), lm_head=(d, cfg.vocab_size), lm_bias=(cfg.vocab_size,))
    return shapes


def param_count(cfg: ModelConfig) -> int:
    d, h, dh, f, v = cfg.d_model, cfg.n_heads, cfg.head_dim, cfg.ff_dim, cfg.vocab_size
    per_layer = d + 4 * (d * h * dh) + 3 * (h * dh) + d + h + d + d * f + f + f * d + d
    total = v * d + cfg.n_layers * per_layer + len(cfg.memory_layers)  # gate biases
    total += d + d * v + v  # final norm, lm head, lm bias
    return total


def init_params(cfg: ModelConfig, seed: int = 0, dtype=np.float32) -> dict[str, Tensor]:
    """Fresh parameters.

    "scaled_normal": normal(0, d_model^-1/2) projections, zero biases, unit
    gains, zero LM head (so an untrained model predicts uniformly).

    "structured": same, except the LM head starts as the transpose of the
    embedding and the memory layers' value/output projections start as
    (scaled) identities. Retrieved entries then write their token's own
    embedding back into the residual stream from step one, so training only
    has to shape the query/key space - the part crossbatch is about. This is
    the desk-scale stand-in for starting from a pretrained model; without it
    the read-out circuit alone needs orders of magnitude more tokens than a
    CPU run can see.
    """
    cfg.validate()
    rng = np.random.default_rng(seed)
    std = cfg.d_model ** -0.5
    structured = cfg.init_scheme == "structured"
    p: dict[str, Tensor] = {}
    for name, shape in param_shapes(cfg).items():
        *layer, kind = name.split(".")
        if kind in ("wv", "wo") and structured and int(layer[1]) in cfg.memory_layers:
            arr = np.eye(shape[0], dtype=dtype)
            if kind == "wo":
                arr = 0.5 * arr
        elif kind in ("embed", "wq", "wk", "wv", "wo", "w1", "w2"):
            arr = rng.normal(0.0, std, size=shape).astype(dtype)
        elif kind == "lm_head" and structured:
            arr = p["embed"].data.T.copy()
        elif kind in ("ln1", "ln2", "final_ln"):
            arr = np.ones(shape, dtype=dtype)
        else:
            # biases, gate biases, log temperatures (tau = 1); a zero-init
            # head keeps an untrained model's predictive distribution uniform
            arr = np.zeros(shape, dtype=dtype)
        p[name] = Tensor(arr, requires_grad=True)
    assert sum(t.data.size for t in p.values()) == param_count(cfg)
    return p


# ---------------------------------------------------------------------------
# attention records
# ---------------------------------------------------------------------------

@dataclass
class AttentionRecord:
    """Per-memory-layer softmax mass, bucketed by key provenance.

    per_context holds the raw share each planned context received (already
    multiplied by the gate weight in gated mode so buckets sum to 1). Column
    c is context c + 1 of the plan, so column 0 is the slot's own document,
    the positive, and it stays 0 for a slot without an own window.
    """
    layer: int
    mass_local: np.ndarray                 # [b, H, T]
    per_context: np.ndarray | None = None  # [b, H, T, C] train-mode contexts
    mass_memory: np.ndarray | None = None  # [b, H, T] inference-mode bucket
    gate: float | None = None

    def mass_positive(self) -> np.ndarray:
        return self.per_context[..., :1].sum(axis=-1)

    def mass_negative(self) -> np.ndarray:
        return self.per_context[..., 1:].sum(axis=-1)


@dataclass
class TrainForward:
    logits: Tensor                     # [b, T, vocab]
    records: list[AttentionRecord]


@dataclass
class InferForward:
    logits: np.ndarray                 # [T, vocab]
    new_kv: dict[int, tuple[np.ndarray, np.ndarray]]  # layer -> (K, V) [H, T, Dh]
    records: list[AttentionRecord]


class InferCache:
    """The rows of a sequence that the layer loop has already run.

    Per layer it holds the local attention keys (rotary applied where the
    layer uses it) and the values of up to ``capacity`` rows.
    ``forward_infer`` fills one working window (capacity local_ctx_len) and
    ``forward_long`` a whole sequence, block by block, without memory. The
    cached rows retrieved from memory at the size it had when the cache was
    created, so the cache is valid only while memory keeps that size.
    """

    def __init__(self, memory: MemoryIndex | None, capacity: int):
        self.memory_size = _memory_size(memory)
        self.capacity = capacity
        self.n = 0
        # layer -> [B, H, rows, Dh]; rows >= n, only the first n are valid
        self.keys: dict[int, np.ndarray] = {}
        self.values: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return self.n

    def _put(self, store: dict[int, np.ndarray], li: int, new: np.ndarray) -> np.ndarray:
        """Write ``new`` [B, H, t, Dh] after the cached rows; return all rows.

        The first rows are kept as given, so a cache used for one call (every
        cache-less forward_infer) copies nothing; the first extension moves
        them into a buffer of ``capacity`` rows.
        """
        buf = store.get(li)
        if buf is None:
            store[li] = new
            return new
        hi = self.n + new.shape[2]
        if buf.shape[2] < hi:
            grown = np.empty(new.shape[:2] + (self.capacity, new.shape[3]), new.dtype)
            grown[:, :, :self.n] = buf
            buf = store[li] = grown
        buf[:, :, self.n:hi] = new
        return buf[:, :, :hi]


def _memory_size(memory: MemoryIndex | None) -> int:
    return memory.size() if memory is not None else 0


def retriever(memory: MemoryIndex | None, k: int):
    """``extras_of`` giving each query [1, H, T, Dh] its exact top-k entries
    of ``memory`` (None while the layer's store is empty, or k is 0)."""
    if k < 0:
        raise UsageError(f"k must be >= 0, got {k}")

    def retrieve(li: int, q: Tensor) -> _Extras | None:
        kk = min(k, memory.layer_size(li) if memory is not None else 0)
        if kk == 0:
            return None
        # retrieval scores must match attention logits: use the same
        # (possibly rotated) query against raw stored keys
        top = memory.topk(li, q.data[0], kk)
        return _Extras(Tensor(top.keys[None]), Tensor(top.values[None]))
    return retrieve


@dataclass
class _Extras:
    """Extra (key, value) pairs one memory layer attends to beside its local rows.

    Planned windows (training): k, v are [b, H, E*T, Dh], shared by every
    query of a slot, and pad_add [b, 1, 1, E*T] masks the padding (0 valid,
    MASK_VALUE pad); or [1, H, E*T, Dh] shared by all slots, unpadded. Retrieved
    top-k (inference): k, v are [1, H, T, k, Dh], one set per query, all valid.
    """
    k: Tensor
    v: Tensor
    pad_add: np.ndarray | None = None


@dataclass
class _Gather:
    """Which deduplicated previous windows each slot of a chunk attends to:
    once for all slots when they attend to the same ones, else per slot."""
    rows: np.ndarray            # [E] shared, else [b*E] slot-major (0 = pad)
    pad_add: np.ndarray | None  # [b, 1, 1, E*T] additive (0 valid, MASK_VALUE pad); None if shared
    window_context: np.ndarray  # [b, E] context id per slot and gathered window (0 = pad, 1 = own)

    def extras(self, k: Tensor, v: Tensor) -> _Extras:
        """Extras from the encoded [N, H, T, Dh] previous windows. The gather
        records on the active tape, so backward sums each window's grads into
        k and v."""
        return _Extras(self._arrange(k), self._arrange(v), self.pad_add)

    def _arrange(self, g: Tensor) -> Tensor:
        if not np.array_equal(self.rows, np.arange(len(g.data))):  # all N windows, in order: no gather
            g = N.take_rows(g, self.rows)
        e = self.window_context.shape[1]
        n, h, t, dh = g.shape
        g = N.transpose(N.reshape(g, (n // e, e, h, t, dh)), (0, 2, 1, 3, 4))
        return N.reshape(g, (n // e, h, e * t, dh))


def _plan_gather(plan: CrossbatchPlan, row_of: dict[tuple[int, int], int], slots,
                 t: int, dtype) -> _Gather | None:
    """Gather metadata for ``slots``; None when none of them has a window."""
    e_max = max((len(plan.per_slot[s]) for s in slots), default=0)
    if e_max == 0:
        return None
    b = len(slots)
    idx = np.zeros((b, e_max), dtype=np.int64)
    pad_add = np.zeros((b, 1, 1, e_max * t), dtype=dtype)
    win_ctx = np.zeros((b, e_max), dtype=np.int64)
    for j, s in enumerate(slots):
        windows = plan.per_slot[s]
        for e, pw in enumerate(windows):
            idx[j, e] = row_of[(pw.source_slot, pw.window_index)]
            win_ctx[j, e] = pw.context_id
        pad_add[j, :, :, len(windows) * t:] = N.MASK_VALUE
    # every slot has the same windows, no padding: keep them once, in row order
    order = np.argsort(idx, axis=1, kind="stable")
    shared = np.take_along_axis(idx, order, axis=1)
    if not pad_add.any() and (shared == shared[0]).all():
        return _Gather(shared[0], None, np.take_along_axis(win_ctx, order, axis=1))
    return _Gather(idx.reshape(-1), pad_add, win_ctx)


def _bucket_record(li: int, mass_local: np.ndarray, p_ext: np.ndarray, gather: _Gather,
                   gate: float | None) -> AttentionRecord:
    """Training record: extras weights summed per window, then per context."""
    b, h, t, _ = p_ext.shape
    e = gather.window_context.shape[1]
    per_window = p_ext.reshape(b, h, t, e, -1).sum(axis=-1)
    # [b, E, C]: window -> its context; padding windows (id 0) match none
    win_ctx = gather.window_context
    of_context = win_ctx[:, :, None] == np.arange(1, win_ctx.max() + 1)
    per_context = np.einsum("bhte,bec->bhtc", per_window, of_context.astype(per_window.dtype))
    return AttentionRecord(li, mass_local, per_context, None, gate)


# ---------------------------------------------------------------------------
# spec-level kernels
# ---------------------------------------------------------------------------

def _extra_logits(q: Tensor, k_ext: Tensor, extra_add: np.ndarray | None) -> Tensor:
    """q . k [B, H, T, E] against extras shared by every query ([B, H, E, Dh])
    or [B, H, T, k] against one set per query ([B, H, T, k, Dh])."""
    if k_ext.data.ndim == 4:
        return N.attention_logits(q, [k_ext], [extra_add])
    b, h, t, dh = q.shape
    logits = N.attention_logits(N.reshape(q, (b, h, t, 1, dh)), [k_ext], [None])
    logits = N.reshape(logits, (b, h, t, k_ext.shape[3]))
    return logits if extra_add is None else N.add(logits, Tensor(extra_add))


def _read_extras(p: Tensor, v_ext: Tensor) -> Tensor:
    """Weights p over the extras applied to their values, in either layout."""
    if v_ext.data.ndim == 4:
        return N.matmul(p, v_ext)
    b, h, t, k = p.shape
    out = N.matmul(N.reshape(p, (b, h, t, 1, k)), v_ext)
    return N.reshape(out, (b, h, t, v_ext.shape[4]))


def merged_softmax_attention(q: Tensor, local_kv: tuple[Tensor, Tensor],
                             extra_kv: tuple[Tensor, Tensor] | None,
                             causal_add: np.ndarray,
                             extra_add: np.ndarray | None = None,
                             ) -> tuple[Tensor, np.ndarray, np.ndarray | None]:
    """One softmax over [local causal keys | extra keys].

    q is pre-scaled ([B, H, T, Dh]). Extra keys and values are either shared
    by every query ([B, H, E, Dh], or [1, H, E, Dh] broadcast over the batch)
    or one set per query ([B, H, T, k, Dh]); ``extra_add`` is an additive mask
    on their logits. Returns (values_out, local_probs, extra_probs); the
    probabilities are plain arrays, views of the softmax weights for records
    only. Temperature and qk-normalization are the caller's business so the
    kernel stays shared between training and inference shapes.
    """
    k_loc, v_loc = local_kv
    if extra_kv is None:
        probs = N.softmax_last_axis(N.attention_logits(q, [k_loc], [causal_add]))
        return N.matmul(probs, v_loc), probs.data, None
    k_ext, v_ext = extra_kv
    t_local = k_loc.shape[-2]
    if k_ext.data.ndim == 4:
        probs = N.softmax_last_axis(
            N.attention_logits(q, [k_loc, k_ext], [causal_add, extra_add]))
        out = N.matmul(probs, N.concat_axis([v_loc, v_ext], axis=-2))
    else:  # per-query keys and values cannot join the local ones in one matmul
        probs = N.softmax_last_axis(N.concat_last_axis(
            [N.attention_logits(q, [k_loc], [causal_add]), _extra_logits(q, k_ext, extra_add)]))
        out = N.add(N.matmul(N.slice_last_axis(probs, 0, t_local), v_loc),
                    _read_extras(N.slice_last_axis(probs, t_local, probs.shape[-1]), v_ext))
    return out, probs.data[..., :t_local], probs.data[..., t_local:]


def gated_integration(v_memory: Tensor, v_local: Tensor, gate_bias: Tensor) -> Tensor:
    """v = v_M * g + v_C * (1 - g) with g = sigmoid(gate_bias)."""
    if v_memory.shape != v_local.shape:
        raise ShapeError(f"gated_integration: {v_memory.shape} vs {v_local.shape}")
    g = N.sigmoid(gate_bias)
    one_minus = N.add(N.scale(g, -1.0), Tensor(np.ones((), dtype=g.dtype)))
    return N.add(N.mul(v_memory, g), N.mul(v_local, one_minus))


# ---------------------------------------------------------------------------
# the transformer
# ---------------------------------------------------------------------------

class Transformer:
    def __init__(self, cfg: ModelConfig, params: dict[str, Tensor] | None = None,
                 seed: int = 0, dtype=np.float32):
        cfg.validate()
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self.params = params if params is not None else init_params(cfg, seed, dtype)

    # -- plumbing ------------------------------------------------------------

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def zero_grads(self) -> None:
        N.zero_grads(self.parameters())

    def _scaled_q(self, q: Tensor, li: int) -> Tensor:
        inv_tau = N.exp(N.scale(self.params[f"layers.{li}.log_tau"], -1.0))
        qs = N.mul(q, N.reshape(inv_tau, (1, self.cfg.n_heads, 1, 1)))
        if not self.cfg.qk_normalize:
            qs = N.scale(qs, self.cfg.head_dim ** -0.5)
        return qs

    def _project_heads(self, h: Tensor, li: int, which: str) -> Tensor:
        cfg = self.cfg
        rows, t = h.shape[0], h.shape[1]
        y = N.linear(h, self.params[f"layers.{li}.w{which}"], self.params[f"layers.{li}.b{which}"])
        y = N.transpose(N.reshape(y, (rows, t, cfg.n_heads, cfg.head_dim)), (0, 2, 1, 3))
        if cfg.qk_normalize and which in ("q", "k"):
            y = N.l2_normalize_last_axis(y)
        return y

    def _attn_inputs(self, x: Tensor, li: int) -> tuple[Tensor, Tensor, Tensor]:
        h = N.rms_norm(x, self.params[f"layers.{li}.ln1"])
        return (self._project_heads(h, li, "q"),
                self._project_heads(h, li, "k"),
                self._project_heads(h, li, "v"))

    def _attn_out(self, out_heads: Tensor, x: Tensor, li: int) -> Tensor:
        rows, t = x.shape[0], x.shape[1]
        flat = N.reshape(N.transpose(out_heads, (0, 2, 1, 3)), (rows, t, self.cfg.d_model))
        return N.add(x, N.linear(flat, self.params[f"layers.{li}.wo"], self.params[f"layers.{li}.bo"]))

    def _ff_block(self, x: Tensor, li: int) -> Tensor:
        h = N.rms_norm(x, self.params[f"layers.{li}.ln2"])
        h = N.silu(N.linear(h, self.params[f"layers.{li}.w1"], self.params[f"layers.{li}.b1"]))
        return N.add(x, N.linear(h, self.params[f"layers.{li}.w2"], self.params[f"layers.{li}.b2"]))

    def _logits(self, x: Tensor) -> Tensor:
        x = N.rms_norm(x, self.params["final_ln"])
        return N.linear(x, self.params["lm_head"], self.params["lm_bias"])

    def _layer_rotary(self, li: int) -> bool:
        if li not in self.cfg.memory_layers:
            return True
        return self.cfg.mem_positional_mode == "as_first"

    def _local_kv(self, li: int, k: Tensor, v: Tensor, cache: InferCache | None,
                  ) -> tuple[Tensor, Tensor, np.ndarray]:
        """Local keys and values of every row so far, and the new rows' causal
        mask over them: [new, cached + new] when ``cache`` holds earlier rows."""
        n0 = 0 if cache is None else len(cache)
        causal = N.causal_mask(n0 + k.shape[2], self.dtype, n0)[None, None]
        if cache is None:
            return k, v, causal
        return (Tensor(cache._put(cache.keys, li, k.data)),
                Tensor(cache._put(cache.values, li, v.data)), causal)

    # -- the layer loop ---------------------------------------------------------

    def _attend(self, li: int, qs: Tensor, local_kv: tuple[Tensor, Tensor],
                causal: np.ndarray, ext: _Extras | None, collect: bool):
        """Attention of layer li over its local rows and ``ext`` (None: local only).

        Returns the heads' output and, when ``collect``, the record masses:
        local [b, H, T], extras weights [b, H, T, E*T or k] or None, and the
        gate. In gated mode both masses carry the gate, so they sum to 1.
        """
        if ext is None or self.cfg.integration_mode == "merged":
            out, p_loc, p_ext = merged_softmax_attention(
                qs, local_kv, None if ext is None else (ext.k, ext.v), causal,
                None if ext is None else ext.pad_add)
            if not collect:
                return out, None
            return out, (p_loc.sum(-1), p_ext, None)
        out_loc, p_loc, _ = merged_softmax_attention(qs, local_kv, None, causal)
        p_ext = N.softmax_last_axis(_extra_logits(qs, ext.k, ext.pad_add))
        gate_bias = self.params[f"layers.{li}.gate_bias"]
        out = gated_integration(_read_extras(p_ext, ext.v), out_loc, gate_bias)
        # a slot without planned windows softmaxes a fully masked row into
        # uniform weights; its rows take the local output alone, exactly as
        # when no slot of the batch has extras
        keep = np.ones((1, 1, 1, 1), self.dtype) if ext.pad_add is None else \
            (ext.pad_add == 0).any(axis=-1, keepdims=True).astype(self.dtype)
        if not keep.all():
            out = N.add(N.mul(out, Tensor(keep)), N.mul(out_loc, Tensor(1 - keep)))
        if not collect:
            return out, None
        g = float(1.0 / (1.0 + np.exp(-gate_bias.data)))
        return out, ((p_loc * (1 - g * keep)).sum(-1), p_ext.data * (g * keep), g)

    def _layer(self, x: Tensor, li: int, positions: np.ndarray, cache: InferCache | None = None,
               extras_of=None, collect: bool = False):
        """One decoder layer over the rows x at window ``positions``.

        With ``cache`` the rows extend the cached ones. ``extras_of(li, q)``
        gives the extras for the rotated queries q (memory layers only).
        Returns the new x, the layer's pre-rotary (K, V) and, when
        ``collect``, the record masses of ``_attend``.
        """
        q, k, v = self._attn_inputs(x, li)
        kv = (k, v)
        if self._layer_rotary(li):
            q = N.rotary_encode(q, positions, self.cfg.rotary_base)
            k = N.rotary_encode(k, positions, self.cfg.rotary_base)
        k, v, causal = self._local_kv(li, k, v, cache)
        ext = None if extras_of is None else extras_of(li, q)
        out, att = self._attend(li, self._scaled_q(q, li), (k, v), causal, ext, collect)
        return self._ff_block(self._attn_out(out, x, li), li), kv, att

    def _forward(self, tokens: np.ndarray, extras_of, cache: InferCache | None, collect: bool,
                 stop: int | None = None):
        """Every layer (those below ``stop``, if given) over [b, t] tokens;
        memory layers also attend to ``extras_of(li, q)``. The rows sit at
        positions len(cache) onwards (0 onwards without ``cache``) and
        ``cache`` then holds them too. Returns the logits (with ``stop``, the
        residual stream there), when ``collect`` (layer, local mass, extras
        weights, gate) per memory layer, and the memory layers' (K, V)."""
        mem = self.cfg.memory_layers
        n0 = 0 if cache is None else len(cache)
        positions = np.arange(n0, n0 + tokens.shape[1])
        x = N.embedding(self.params["embed"], tokens)
        atts, kvs = [], {}
        for li in range(self.cfg.n_layers if stop is None else stop):
            x, kv, att = self._layer(x, li, positions, cache, extras_of if li in mem else None,
                                     collect and li in mem)
            if li in mem:
                kvs[li] = kv
            if att is not None:
                atts.append((li, *att))
        if cache is not None:
            cache.n += tokens.shape[1]
        return (self._logits(x) if stop is None else x), atts, kvs

    # -- previous-context encoding --------------------------------------------

    def encode_windows(self, tokens: np.ndarray, extras_of=None) -> dict[int, tuple[Tensor, Tensor]]:
        """Run causal layers over [N, T] windows up to the last memory layer;
        returns the pre-rotary (K, V) head tensors at each memory layer.

        Memory layers below the last one attend to ``extras_of(li, q)``, if
        given, as in ``_forward``. On an active tape the returned tensors are
        differentiable nodes.
        """
        if not self.cfg.memory_layers:
            return {}
        top = max(self.cfg.memory_layers)
        x, _, out = self._forward(tokens, extras_of, None, False, stop=top)
        # nothing above the last memory layer consumes these rows, so only
        # their key/value projections are needed there
        h = N.rms_norm(x, self.params[f"layers.{top}.ln1"])
        out[top] = (self._project_heads(h, top, "k"), self._project_heads(h, top, "v"))
        return out

    # -- training forward ------------------------------------------------------

    def _current_rows(self, tokens: np.ndarray, extras: dict[int, _Extras],
                      gather: _Gather | None, collect_records: bool,
                      ) -> tuple[Tensor, list[AttentionRecord]]:
        """Process current windows; memory layers attend to planned extras."""
        logits, atts, _ = self._forward(tokens, lambda li, q: extras.get(li), None, collect_records)
        records: list[AttentionRecord] = []
        for li, mass_local, p_ext, gate in atts:
            if p_ext is None:  # no planned contexts anywhere
                records.append(AttentionRecord(
                    li, mass_local, per_context=np.zeros(mass_local.shape + (0,), self.dtype)))
                continue
            records.append(_bucket_record(li, mass_local, p_ext, gather, gate))
        return logits, records

    def forward_train(self, batch: TrainBatch, plan: CrossbatchPlan, *,
                      collect_records: bool = True) -> TrainForward:
        """Crossbatch training forward over the whole batch in one pass: the
        reference that ``crossbatch_grad_step``'s slot-chunk loop is checked
        against.

        Previous windows referenced by the plan are encoded in the same pass,
        so on the caller's active tape, if there is one, the loss gradient
        flows into their keys and values; with none it runs evaluation-only.
        """
        prev_tokens, row_of = plan_rows(plan, batch, self.cfg.local_ctx_len)
        extras: dict[int, _Extras] = {}
        gather = _plan_gather(plan, row_of, range(plan.b_s), self.cfg.local_ctx_len, self.dtype)
        if gather is not None:
            extras = {li: gather.extras(k, v)
                      for li, (k, v) in self.encode_windows(prev_tokens).items()}
        logits, records = self._current_rows(batch.cur_tokens, extras, gather, collect_records)
        return TrainForward(logits, records)

    # -- inference forward -----------------------------------------------------

    def forward_infer(self, tokens: np.ndarray, memory: MemoryIndex | None, k: int,
                      *, cache: InferCache | None = None,
                      collect_records: bool = False) -> InferForward:
        """Rows of one local window with exact top-k retrieval from ``memory``.

        Without ``cache``, ``tokens`` are a whole window. With one, they are
        the rows at window positions len(cache) onwards: they attend to the
        cached rows, retrieval runs for their queries only, and ``cache`` is
        extended in place. Returns the new rows' logits, their layer-wise
        pre-rotary (key, value) pairs so the caller can append them to memory
        afterwards, and attention records.
        """
        cfg = self.cfg
        tokens = np.asarray(tokens, dtype=np.int64)
        if memory is not None and cfg.memory_layers and (
                memory.n_heads != cfg.n_heads or memory.head_dim != cfg.head_dim):
            raise ShapeError("memory index geometry does not match the model")
        if cache is None:
            cache = InferCache(memory, cfg.local_ctx_len)
        elif cache.memory_size != _memory_size(memory):
            raise UsageError(f"memory holds {_memory_size(memory)} entries, the cache was "
                             f"made at {cache.memory_size}; start a new cache")
        n0 = len(cache)
        if tokens.ndim != 1 or not 0 < tokens.shape[0] <= cfg.local_ctx_len - n0:
            raise UsageError(f"forward_infer takes one window of 1..{cfg.local_ctx_len} tokens; "
                             f"got {tokens.shape} after {n0} cached rows")
        logits, atts, kvs = self._forward(tokens[None], retriever(memory, k), cache,
                                          collect_records)
        new_kv = {li: (kk.data[0], vv.data[0]) for li, (kk, vv) in kvs.items()}
        records = [AttentionRecord(li, mass_local, gate=gate, mass_memory=np.zeros_like(mass_local)
                                   if p_mem is None else p_mem.sum(-1))
                   for li, mass_local, p_mem, gate in atts]
        return InferForward(logits.data[0], new_kv, records)

    # -- reference local-only forward -------------------------------------------

    def forward_long(self, tokens: np.ndarray) -> np.ndarray:
        """Full-context causal forward over [L] or [B, L] tokens, rotary
        positions 0..L-1, with no external memory: the local-only baseline.

        The layer loop runs over blocks of ``LONG_QUERY_BLOCK`` rows, each
        attending to the rows before it through one ``InferCache`` of L rows,
        so no score or mask array is larger than a block's [rows, L]. Memory
        layers behave per mem_positional_mode (no rotary for "none"). Over
        [B, T] windows of at most ``LONG_QUERY_BLOCK`` rows it is the vanilla
        causal transformer, in one block.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim not in (1, 2) or tokens.size == 0:
            raise UsageError(f"forward_long takes nonempty [L] or [B, L] tokens; got {tokens.shape}")
        rows = np.atleast_2d(tokens)
        length = rows.shape[1]
        cache = InferCache(None, length)
        logits = [self._forward(rows[:, lo:lo + LONG_QUERY_BLOCK], None, cache, False)[0].data
                  for lo in range(0, length, LONG_QUERY_BLOCK)]
        out = np.concatenate(logits, axis=1)
        return out[0] if tokens.ndim == 1 else out


# ---------------------------------------------------------------------------
# the crossbatch step: one loop over slot chunks
# ---------------------------------------------------------------------------

def plan_rows(plan: CrossbatchPlan, batch: TrainBatch, local_ctx_len: int,
              ) -> tuple[np.ndarray, dict[tuple[int, int], int]]:
    """The distinct previous windows a plan references: their tokens [N, T]
    and the row of each (slot, window_index) among them.

    Raises UsageError when the batch's windows are not ``local_ctx_len``
    tokens long, the plan does not fit the batch or it references a window
    the batch does not hold.
    """
    b, t = batch.cur_tokens.shape
    if t != local_ctx_len:
        raise UsageError(f"window length {t} != local_ctx_len {local_ctx_len}")
    if plan.b_s != b:
        raise UsageError(f"plan covers {plan.b_s} slots, batch has {b}")
    row_of: dict[tuple[int, int], int] = {}
    for windows in plan.per_slot:
        for pw in windows:
            key = (pw.source_slot, pw.window_index)
            if key in row_of:
                continue
            if not batch.prev_valid[key]:
                raise UsageError(f"plan references missing prev window {pw}")
            row_of[key] = len(row_of)
    slots, wins = [s for s, _ in row_of], [w for _, w in row_of]
    return batch.prev_tokens[slots, wins], row_of


FULL_TAPE_SCORE_BYTES = 200 * 2**20
CHUNK_SLOTS = 2        # slots per chunk; each chunk's tape sits beside the stored encoding's
LONG_QUERY_BLOCK = 256  # queries per attention block of forward_long


def crossbatch_grad_step(model: Transformer, batch: TrainBatch, plan: CrossbatchPlan,
                         *, differentiable: bool = True, collect_records: bool = False,
                         ) -> tuple[float, list[AttentionRecord]]:
    """Accumulate exact crossbatch gradients into the parameters' .grad
    buffers (caller zeroes them); ``differentiable=False`` is the
    stop-gradient ablation. Returns (loss, records)."""
    denom = float(batch.cur_mask.sum())
    if denom == 0:
        raise UsageError("crossbatch_grad_step: empty loss mask")
    return _slot_chunks(model, batch, plan, denom, differentiable, collect_records)


def exposure_records(model: Transformer, batch: TrainBatch, plan: CrossbatchPlan,
                     ) -> list[AttentionRecord]:
    """Evaluation-only attention records for a crossbatch exposure: the
    step's loop without a loss, tape-free. They equal forward_train's."""
    return _slot_chunks(model, batch, plan, None, differentiable=False, collect_records=True)[1]


def _slot_chunks(model: Transformer, batch: TrainBatch, plan: CrossbatchPlan,
                 denom: float | None, differentiable: bool, collect_records: bool,
                 ) -> tuple[float, list[AttentionRecord]]:
    """The crossbatch forward over chunks of slots, each gathering its extras
    from one encoding of the previous windows: one chunk of every slot when
    the step's scores fit in ``FULL_TAPE_SCORE_BYTES``, else chunks of
    ``CHUNK_SLOTS``. With a loss ``denom`` each chunk backpropagates its
    share on a tape. For the gradient to reach the encoding, it is stored on
    a tape of its own: each chunk's backward adds its grads into the encoded
    keys and values, and backward finishes the encoding's tape after the
    last chunk's. Otherwise the encoding is leaves that need no grad:
    stop-gradient. Returns (loss, records)."""
    b, t = batch.cur_tokens.shape
    prev_tokens, row_of = plan_rows(plan, batch, model.cfg.local_ctx_len)
    score_bytes = model.dtype.itemsize * b * model.cfg.n_heads * t * t * (1 + plan.max_windows)
    width = b if score_bytes <= FULL_TAPE_SCORE_BYTES else CHUNK_SLOTS
    store = denom is not None and differentiable  # gradients reach the encoding
    with N.Tape() if store else contextlib.nullcontext() as enc_tape:
        prev_kv = model.encode_windows(prev_tokens) if len(prev_tokens) else {}

    total_loss = 0.0
    chunks: list[list[AttentionRecord]] = []
    for lo in range(0, b, width):
        hi = min(lo + width, b)
        gather = _plan_gather(plan, row_of, range(lo, hi), t, model.dtype)
        chunk_mask = batch.cur_mask[lo:hi]
        with N.Tape() if denom is not None else contextlib.nullcontext() as tape:
            extras = {} if gather is None else \
                {li: gather.extras(k, v) for li, (k, v) in prev_kv.items()}
            if hi == b:
                prev_kv = None  # last chunk: its extras hold all it reads of the encoding
            logits, recs = model._current_rows(batch.cur_tokens[lo:hi], extras, gather,
                                               collect_records)
            extras = None  # backward reads what it needs of them through the tape
            if denom is not None and chunk_mask.sum() > 0:
                ce = N.cross_entropy_masked(logits, batch.cur_targets[lo:hi], chunk_mask)
                loss_chunk = N.scale(ce, float(chunk_mask.sum()) / denom)
                N.backward(tape, loss_chunk)
                total_loss += loss_chunk.item()
        chunks.append(recs)

    if store:
        N.backward_from(enc_tape, [])
    return total_loss, _merge_chunk_records(chunks)


def _merge_chunk_records(chunks: list[list[AttentionRecord]]) -> list[AttentionRecord]:
    """One record per memory layer from per-slot-chunk records."""
    return [AttentionRecord(
        layer=recs[0].layer,
        mass_local=np.concatenate([r.mass_local for r in recs]),
        per_context=_cat_padded([r.per_context for r in recs]),
        gate=next((r.gate for r in recs if r.gate is not None), None),
    ) for recs in zip(*chunks)]


def _cat_padded(arrays: list[np.ndarray]) -> np.ndarray:
    """Concatenate along axis 0, zero-padding the last axis to the widest."""
    c = max(a.shape[-1] for a in arrays)
    return np.concatenate([np.pad(a, [(0, 0)] * (a.ndim - 1) + [(0, c - a.shape[-1])])
                           for a in arrays])

# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, cfg: ModelConfig, params: dict[str, Tensor]) -> None:
    blob = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for name in param_shapes(cfg):
            arr = params[name].data.astype("<f4")
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
            f.write(arr.tobytes())


def load_checkpoint(path, dtype=np.float32) -> tuple[ModelConfig, dict[str, Tensor]]:
    """Read a FOTC file. Its config must validate and every parameter must
    have the shape the config implies (``param_shapes``); anything else
    raises FormatError. A file that cannot be read raises DataError."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise DataError(f"cannot read checkpoint {path}: {e.strerror}") from e
    if raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 12:
        raise FormatError(f"{path}: truncated header")
    version, blob_len = struct.unpack_from("<II", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    off = 12
    try:
        cfg = ModelConfig.from_dict(json.loads(raw[off:off + blob_len].decode()))
        cfg.validate()
        shapes = param_shapes(cfg)
    except (ValueError, TypeError, ConfigError) as e:
        raise FormatError(f"{path}: bad config blob: {e}") from e
    off += blob_len
    params: dict[str, Tensor] = {}
    try:
        for name, want in shapes.items():
            (ndim,) = struct.unpack_from("<I", raw, off)
            if ndim != len(want) or struct.unpack_from(f"<{ndim}I", raw, off + 4) != want:
                raise FormatError(f"{path}: {name} is not stored with shape {want}, "
                                  "the shape its config implies")
            off += 4 + 4 * ndim
            n = int(np.prod(want))
            arr = np.frombuffer(raw, "<f4", n, off).reshape(want)
            off += 4 * n
            params[name] = Tensor(arr.astype(dtype), requires_grad=True)
    except (struct.error, ValueError) as e:
        raise FormatError(f"{path}: truncated checkpoint: {e}") from e
    if off != len(raw):
        raise FormatError(f"{path}: {len(raw) - off} trailing bytes")
    return cfg, params
