"""Independent reference forward for the benchmark's output checks.

Plain numpy, no tape, one window at a time, written from the model's
definition rather than from ``fot.model``: RMS norm, optional q/k L2
normalisation, rotary positions on plain layers, per-head temperature, and
the memory layer's single softmax over [local causal keys | extra keys]. Only
the merged integration mode is covered; the workloads use no other.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-6


def _rms(x, gain):
    return x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + EPS) * gain


def _rotate(x, positions, base):
    """Rotate adjacent coordinate pairs of x [H, T, Dh] by position * theta_i."""
    dh = x.shape[-1]
    theta = base ** (-np.arange(dh // 2, dtype=np.float64) * 2.0 / dh)
    ang = positions[:, None].astype(np.float64) * theta[None, :]
    cos, sin = np.cos(ang).astype(x.dtype), np.sin(ang).astype(x.dtype)
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


class ReferenceModel:
    """The transformer's math over one window, from a copy of its parameters."""

    def __init__(self, cfg, params: dict, dtype=np.float64):
        if cfg.integration_mode != "merged":
            raise ValueError("the reference covers merged memory layers only")
        self.cfg = cfg
        self.p = {k: np.array(getattr(v, "data", v), dtype=dtype) for k, v in params.items()}
        self.dtype = np.dtype(dtype)

    def _heads(self, h, li, which):
        cfg = self.cfg
        y = h @ self.p[f"layers.{li}.w{which}"] + self.p[f"layers.{li}.b{which}"]
        y = y.reshape(h.shape[0], cfg.n_heads, cfg.head_dim).transpose(1, 0, 2)
        if cfg.qk_normalize and which in ("q", "k"):
            y = y / np.sqrt((y * y).sum(axis=-1, keepdims=True) + EPS)
        return y

    def forward(self, tokens, extra=None, stop_at_memory_kv: bool = False):
        """Normed final hidden state [T, d_model] (``head`` maps it to logits)
        and the memory layers' pre-rotary (K, V) [H, T, Dh].

        ``extra(layer, q, qs)`` returns the memory layer's extra logits
        [H, T, E] and a function mapping their softmax weights to the extra
        part of the attention output [H, T, Dh]; ``q`` is the (rotated if the
        layer rotates) query used for retrieval, ``qs`` the scaled one used
        for attention logits. With ``stop_at_memory_kv`` the pass stops at the
        last memory layer's key/value projections and returns (None, kv).
        """
        cfg, p = self.cfg, self.p
        tokens = np.asarray(tokens, dtype=np.int64)
        t = tokens.shape[0]
        pos = np.arange(t)
        causal = np.where(pos[None, :] > pos[:, None], -np.inf, 0.0).astype(self.dtype)
        x = p["embed"][tokens]
        kv: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        top = max(cfg.memory_layers) if cfg.memory_layers else -1
        for li in range(cfg.n_layers):
            h = _rms(x, p[f"layers.{li}.ln1"])
            k, v = self._heads(h, li, "k"), self._heads(h, li, "v")
            if li in cfg.memory_layers:
                kv[li] = (k, v)
                if stop_at_memory_kv and li == top:
                    return None, kv
            q = self._heads(h, li, "q")
            if li not in cfg.memory_layers or cfg.mem_positional_mode == "as_first":
                q, k = _rotate(q, pos, cfg.rotary_base), _rotate(k, pos, cfg.rotary_base)
            qs = q * np.exp(-p[f"layers.{li}.log_tau"])[:, None, None]
            if not cfg.qk_normalize:
                qs = qs * cfg.head_dim ** -0.5
            logits = qs @ k.transpose(0, 2, 1) + causal
            ext = extra(li, q, qs) if (extra is not None and li in cfg.memory_layers) else None
            if ext is not None:
                logits = np.concatenate([logits, ext[0]], axis=-1)
            w = np.exp(logits - logits.max(axis=-1, keepdims=True))
            w /= w.sum(axis=-1, keepdims=True)
            out = w[..., :t] @ v
            if ext is not None:
                out = out + ext[1](w[..., t:])
            x = x + out.transpose(1, 0, 2).reshape(t, cfg.d_model) @ p[f"layers.{li}.wo"] \
                + p[f"layers.{li}.bo"]
            h = _rms(x, p[f"layers.{li}.ln2"])
            a = h @ p[f"layers.{li}.w1"] + p[f"layers.{li}.b1"]
            x = x + (a / (1.0 + np.exp(-a))) @ p[f"layers.{li}.w2"] + p[f"layers.{li}.b2"]
        return _rms(x, p["final_ln"]), kv

    def head(self, hidden):
        return hidden @ self.p["lm_head"] + self.p["lm_bias"]


def nll(logits, targets):
    """Per-position negative log-likelihood of ``targets`` under ``logits``."""
    z = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    return lse - z[np.arange(len(targets)), targets]


def window_extras(keys, values):
    """Train-mode extras: one [H, E*T, Dh] block of previous-window K/V."""
    def extra(li, q, qs):
        k, v = keys[li], values[li]
        return qs @ k.transpose(0, 2, 1), lambda w: w @ v
    return extra


def topk_extras(mem_keys, mem_values, k):
    """Inference extras: exact top-k over stored keys [H, n, Dh] per query,
    scored with the retrieval query; ties go to the lower index."""
    def extra(li, q, qs):
        keys, vals = mem_keys[li], mem_values[li]
        kk = min(k, keys.shape[1])
        if kk == 0:
            return None
        scores = q @ keys.transpose(0, 2, 1)                       # [H, T, n]
        idx = np.argsort(-scores, axis=-1, kind="stable")[..., :kk]
        hidx = np.arange(keys.shape[0])[:, None, None]
        km, vm = keys[hidx, idx], vals[hidx, idx]                  # [H, T, kk, Dh]
        logits = np.einsum("htd,htkd->htk", qs, km)
        return logits, lambda w: np.einsum("htk,htkd->htd", w, vm)
    return extra


def train_loss(ref: ReferenceModel, batch, plan):
    """Masked mean NLL of a crossbatch batch, one slot at a time, plus the
    gradient of that loss with respect to ``lm_head`` and ``lm_bias``.

    The head gradients depend on every layer's forward output and are exact
    closed forms, so they check both the forward and the head's backward.
    """
    cfg = ref.cfg
    encoded: dict[tuple[int, int], dict] = {}
    for windows in plan.per_slot:
        for pw in windows:
            key = (pw.source_slot, pw.window_index)
            if key not in encoded:
                _, kv = ref.forward(batch.prev_tokens[key[0], key[1]], stop_at_memory_kv=True)
                encoded[key] = kv
    denom = float(batch.cur_mask.sum())
    total = 0.0
    g_head = np.zeros_like(ref.p["lm_head"])
    g_bias = np.zeros_like(ref.p["lm_bias"])
    for s, windows in enumerate(plan.per_slot):
        extra = None
        if windows:
            keys = {li: np.concatenate([encoded[(pw.source_slot, pw.window_index)][li][0]
                                        for pw in windows], axis=1) for li in cfg.memory_layers}
            vals = {li: np.concatenate([encoded[(pw.source_slot, pw.window_index)][li][1]
                                        for pw in windows], axis=1) for li in cfg.memory_layers}
            extra = window_extras(keys, vals)
        hidden, _ = ref.forward(batch.cur_tokens[s], extra)
        logits = ref.head(hidden)
        mask = batch.cur_mask[s].astype(ref.dtype)
        targets = batch.cur_targets[s]
        total += float((nll(logits, targets) * mask).sum())
        prob = np.exp(logits - logits.max(axis=-1, keepdims=True))
        prob /= prob.sum(axis=-1, keepdims=True)
        prob[np.arange(len(targets)), targets] -= 1.0
        prob *= (mask / denom)[:, None]
        g_head += hidden.T @ prob
        g_bias += prob.sum(axis=0)
    return total / denom, g_head, g_bias
