"""Dense-tensor engine with tape-based reverse-mode differentiation.

Tensors wrap numpy arrays (float32 for training, float64 for verification).
Ops record onto the innermost active ``Tape``; with no tape active they run
as plain numpy forward computations, which is how all inference paths run.

Backward consumes its tape: each node's output grad is handed to its
backward closure as a buffer the closure owns, and the node then drops its
output and its closure, so intermediate grads and the forward arrays only
that closure kept alive are freed as backward goes. A tape is single-use.
Leaf tensors (those no recorded op produced, parameters among them) keep
their grads. ``attention_logits`` writes the logits of several key sets,
masks added, into one buffer, and its backward keeps q and the keys only,
so its output is the one score-sized array it leaves on the tape.

Reduction order is whatever numpy/BLAS uses, which is fixed per process and
input shape, so forward passes are bit-deterministic across reruns.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DataError, ShapeError, UsageError

_TAPE_STACK: list["Tape"] = []

# Large negative logit used for masking; exp(x - max) underflows to exactly
# 0.0 for masked entries, so masked keys get softmax weight 0 and zero grad.
MASK_VALUE = -1e9


class Tensor:
    """A dense float array plus an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64 if dtype is None else dtype)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("out", "backward")

    def __init__(self, out: Tensor, backward: Callable[[np.ndarray], None]):
        self.out = out
        self.backward = backward


class Tape:
    """Ordered record of primitive applications, replayed in reverse by backward().

    Single-use: backward releases every node's contents as it goes, so a
    second backward over the same tape raises UsageError. ``len(tape)``
    still counts the recorded nodes afterwards.
    """

    __slots__ = ("_nodes", "_consumed")

    def __init__(self):
        self._nodes: list[_Node] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self._nodes)


def active_tape() -> Tape | None:
    """The innermost tape ops currently record onto, if any."""
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _accum(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add g into t.grad. ``owned`` promises no other tensor will adopt g
    (it is freshly allocated, or the grad buffer backward handed to the
    calling closure, or a view of either), so the first contribution can
    adopt it without copying."""
    if t.grad is None:
        t.grad = g if owned else np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _record(out: Tensor, inputs: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    tape = active_tape()
    if tape is not None and any(i.requires_grad for i in inputs):
        out.requires_grad = True
        tape._nodes.append(_Node(out, backward))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate grads of every tensor reachable from ``loss`` on this tape."""
    if loss.data.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    backward_from(tape, [(loss, np.ones_like(loss.data))])


def backward_from(tape: Tape, seeds: Sequence[tuple[Tensor, np.ndarray]]) -> None:
    """Reverse-traverse the tape starting from explicit (tensor, grad) seeds.

    Used by the chunked crossbatch path to inject upstream gradients into the
    re-encoded previous-context keys/values. Consumes the tape: each node's
    output grad is taken off its tensor and the node is released once its
    backward has run, so only leaf tensors keep grads, and a second call on
    the same tape raises UsageError.
    """
    if tape._consumed:
        raise UsageError("backward over a tape that backward has already consumed")
    for t, g in seeds:
        if g.shape != t.data.shape:
            raise ShapeError(f"seed grad shape {g.shape} != tensor shape {t.data.shape}")
        _accum(t, g.astype(t.data.dtype, copy=False))
    tape._consumed = True
    for node in reversed(tape._nodes):
        out, bwd = node.out, node.backward
        node.out = node.backward = None
        g, out.grad = out.grad, None
        if g is not None:
            bwd(g)  # g is the closure's to keep or overwrite


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: {a.shape} x {b.shape}")
    out = Tensor(np.matmul(a.data, b.data))

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape),
                   owned=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape),
                   owned=True)

    return _record(out, (a, b), bwd)


def attention_logits(q: Tensor, keys: Sequence[Tensor],
                     adds: Sequence[np.ndarray | None]) -> Tensor:
    """q·kᵢᵀ + addᵢ (None: no mask) for each key set kᵢ [..., nᵢ, Dh], side by
    side in one [..., T, Σnᵢ] buffer, with no transposed key copy. The keys'
    leading dims broadcast against q's; backward keeps q and the keys only."""
    if len(adds) != len(keys) or any(k.shape[-1] != q.shape[-1] for k in keys):
        raise ShapeError(f"attention_logits: q {q.shape}, keys {[k.shape for k in keys]}")
    lead = np.broadcast_shapes(q.shape[:-2], *(k.shape[:-2] for k in keys))
    ends = np.cumsum([k.shape[-2] for k in keys]).tolist()
    cols = [slice(hi - k.shape[-2], hi) for k, hi in zip(keys, ends)]
    buf = np.empty(lead + (q.shape[-2], ends[-1]), dtype=q.data.dtype)
    for k, add_i, c in zip(keys, adds, cols):
        part = buf[..., c]
        np.matmul(q.data, np.swapaxes(k.data, -1, -2), out=part)
        if add_i is not None:
            part += add_i

    def bwd(g: np.ndarray) -> None:
        if q.requires_grad:
            dq = sum(np.matmul(g[..., c], k.data) for k, c in zip(keys, cols))
            _accum(q, _unbroadcast(dq, q.shape), owned=True)
        for k, c in zip(keys, cols):
            if k.requires_grad:
                gk = np.matmul(np.swapaxes(g[..., c], -1, -2), q.data)
                _accum(k, _unbroadcast(gk, k.shape), owned=True)

    return _record(Tensor(buf), (q, *keys), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.data + b.data)
    except ValueError as e:
        raise ShapeError(f"add: {a.shape} + {b.shape}") from e

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            ga = _unbroadcast(g, a.data.shape)
            _accum(a, ga, owned=ga is not g or g.dtype == a.data.dtype)
        if b.requires_grad:
            gb = _unbroadcast(g, b.data.shape)
            _accum(b, gb, owned=gb is not g)

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.data * b.data)
    except ValueError as e:
        raise ShapeError(f"mul: {a.shape} * {b.shape}") from e

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape), owned=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape), owned=True)

    return _record(out, (a, b), bwd)


def scale(x: Tensor, s: float) -> Tensor:
    out = Tensor(x.data * x.data.dtype.type(s))

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            _accum(x, g * x.data.dtype.type(s), owned=True)

    return _record(out, (x,), bwd)


def concat_axis(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise UsageError("concat of zero tensors")
    try:
        out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    except ValueError as e:
        raise ShapeError(f"concat axis {axis}: {[p.shape for p in parts]}") from e
    widths = [p.shape[axis] for p in parts]

    def bwd(g: np.ndarray) -> None:
        off = 0
        sl = [slice(None)] * g.ndim
        for p, w in zip(parts, widths):
            if p.requires_grad:
                sl[axis] = slice(off, off + w)
                _accum(p, g[tuple(sl)], owned=True)
            off += w

    return _record(out, tuple(parts), bwd)


def concat_last_axis(parts: Sequence[Tensor]) -> Tensor:
    lead = {p.shape[:-1] for p in parts}
    if len(lead) > 1:
        raise ShapeError(f"concat_last_axis: {[p.shape for p in parts]}")
    return concat_axis(parts, -1)


def slice_last_axis(x: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(x.data[..., start:stop].copy())

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            buf = np.zeros_like(x.data)
            buf[..., start:stop] = g
            _accum(x, buf, owned=True)

    return _record(out, (x,), bwd)


def scatter_rows(idx: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """[n, ...] sums of the rows g[i] into rows idx[i]: one one-hot [n, len(idx)] GEMM."""
    onehot = np.zeros((n, idx.size), dtype=g.dtype)
    onehot[idx.reshape(-1), np.arange(idx.size)] = 1
    return (onehot @ g.reshape(idx.size, -1)).reshape((n,) + g.shape[idx.ndim:])


def take_rows(x: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)
    out = Tensor(x.data[idx])

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            _accum(x, scatter_rows(idx, g, x.shape[0]), owned=True)

    return _record(out, (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    try:
        out = Tensor(x.data.reshape(shape))
    except ValueError as e:
        raise ShapeError(f"reshape {x.shape} -> {shape}") from e

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            _accum(x, g.reshape(x.data.shape), owned=True)

    return _record(out, (x,), bwd)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out = Tensor(np.ascontiguousarray(x.data.transpose(axes)))
    inv = tuple(np.argsort(axes))

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            _accum(x, g.transpose(inv), owned=True)

    return _record(out, (x,), bwd)


def stop_gradient(x: Tensor) -> Tensor:
    """Forward identity; blocks all gradient flow through this edge."""
    return Tensor(x.data.copy(), requires_grad=False)


def softmax_last_axis(x: Tensor) -> Tensor:
    z = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    y = z
    y /= y.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            dot = (g * y).sum(axis=-1, keepdims=True)
            g -= dot
            g *= y
            _accum(x, g, owned=True)

    return _record(out, (x,), bwd)


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-6) -> Tensor:
    if gain.shape != (x.shape[-1],):
        raise ShapeError(f"rms_norm gain {gain.shape} vs last dim {x.shape[-1]}")
    n = x.shape[-1]
    ms = (x.data * x.data).mean(axis=-1, keepdims=True) + x.data.dtype.type(eps)
    inv = ms ** -0.5
    xn = x.data * inv
    out = Tensor(xn * gain.data)

    def bwd(g: np.ndarray) -> None:
        if gain.requires_grad:
            red = tuple(range(g.ndim - 1))
            _accum(gain, (g * xn).sum(axis=red), owned=True)
        if x.requires_grad:
            u = g * gain.data
            dot = (u * x.data).sum(axis=-1, keepdims=True)
            _accum(x, inv * (u - x.data * (dot / (n * ms))), owned=True)

    return _record(out, (x, gain), bwd)


def l2_normalize_last_axis(x: Tensor, eps: float = 1e-6) -> Tensor:
    r = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True) + x.data.dtype.type(eps))
    y = x.data / r
    out = Tensor(y)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            s = (g * x.data).sum(axis=-1, keepdims=True)
            _accum(x, g / r - x.data * (s / (r * r * r)), owned=True)

    return _record(out, (x,), bwd)


def _rotary_tables(positions: np.ndarray, head_dim: int, dtype, base: float) -> tuple[np.ndarray, np.ndarray]:
    half = head_dim // 2
    freqs = base ** (-np.arange(half, dtype=np.float64) * 2.0 / head_dim)
    ang = positions.astype(np.float64)[:, None] * freqs[None, :]
    return np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)


def rotary_encode(x: Tensor, positions, base: float = 10000.0) -> Tensor:
    """Rotate adjacent coordinate pairs of the last axis by position * theta_i.

    ``positions`` is one integer per sequence slot, matched against axis -2.
    """
    head_dim = x.shape[-1]
    if head_dim % 2:
        raise ShapeError(f"rotary_encode needs even head_dim, got {head_dim}")
    pos = np.asarray(positions)
    if pos.ndim != 1 or x.data.ndim < 2 or pos.shape[0] != x.shape[-2]:
        raise ShapeError(f"rotary_encode positions {pos.shape} vs x {x.shape}")
    cos, sin = _rotary_tables(pos, head_dim, x.data.dtype, base)
    xe = x.data[..., 0::2]
    xo = x.data[..., 1::2]
    out_arr = np.empty_like(x.data)
    out_arr[..., 0::2] = xe * cos - xo * sin
    out_arr[..., 1::2] = xe * sin + xo * cos
    out = Tensor(out_arr)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            ge = g[..., 0::2]
            go = g[..., 1::2]
            buf = np.empty_like(x.data)
            buf[..., 0::2] = ge * cos + go * sin
            buf[..., 1::2] = -ge * sin + go * cos
            _accum(x, buf, owned=True)

    return _record(out, (x,), bwd)


def embedding(table: Tensor, ids) -> Tensor:
    """Rows of ``table`` for token ``ids``; an id outside [0, vocab) is a DataError."""
    idx = np.asarray(ids, dtype=np.int64)
    bad = idx[(idx < 0) | (idx >= len(table.data))]
    if bad.size:
        raise DataError(f"token id {bad[0]} is outside the vocabulary of {len(table.data)} ids")
    out = Tensor(table.data[idx])

    def bwd(g: np.ndarray) -> None:
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, idx, g)

    return _record(out, (table,), bwd)


def sigmoid(x: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(y)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            _accum(x, g * y * (1.0 - y), owned=True)

    return _record(out, (x,), bwd)


def silu(x: Tensor) -> Tensor:
    sig = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(x.data * sig)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            _accum(x, g * sig * (1.0 + x.data * (1.0 - sig)), owned=True)

    return _record(out, (x,), bwd)


def exp(x: Tensor) -> Tensor:
    y = np.exp(x.data)
    out = Tensor(y)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            _accum(x, g * y, owned=True)

    return _record(out, (x,), bwd)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.data.sum(), dtype=x.data.dtype))

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            _accum(x, np.full_like(x.data, g.reshape(-1)[0]), owned=True)

    return _record(out, (x,), bwd)


def cross_entropy_masked(logits: Tensor, targets, mask) -> Tensor:
    """Mean negative log-likelihood over mask=1 positions.

    ``logits`` is [..., vocab]; ``targets`` and ``mask`` match its leading dims.
    Positions with mask 0 contribute nothing to loss or gradient.
    """
    tgt = np.asarray(targets, dtype=np.int64)
    m = np.asarray(mask, dtype=logits.data.dtype)
    if tgt.shape != logits.shape[:-1] or m.shape != logits.shape[:-1]:
        raise ShapeError(
            f"cross_entropy_masked: logits {logits.shape}, targets {tgt.shape}, mask {m.shape}")
    denom = m.sum()
    if denom == 0:
        raise UsageError("cross_entropy_masked: mask selects no positions")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    picked = np.take_along_axis(z, tgt[..., None], axis=-1)[..., 0]
    nll = (lse - picked) * m
    out = Tensor(np.asarray(nll.sum() / denom, dtype=logits.data.dtype))

    def bwd(g: np.ndarray) -> None:
        if logits.requires_grad:
            p = np.exp(z - lse[..., None])
            flat = p.reshape(-1, p.shape[-1])
            flat[np.arange(flat.shape[0]), tgt.reshape(-1)] -= 1.0
            p *= (m / denom * g.reshape(-1)[0])[..., None]
            _accum(logits, p, owned=True)

    return _record(out, (logits,), bwd)


def causal_mask(n: int, dtype=np.float32, first: int = 0) -> np.ndarray:
    """[n - first, n] additive mask of rows first..n-1 over columns 0..n-1:
    0 where the column is at or before the row, MASK_VALUE after it."""
    m = np.zeros((n - first, n), dtype=dtype)
    m[np.arange(n) > np.arange(first, n)[:, None]] = MASK_VALUE
    return m


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def finite_diff_check(fn: Callable[[], Tensor], params: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central finite differences.

    ``fn`` must be a deterministic scalar-valued closure over ``params``. The
    numeric probe re-runs ``fn`` without a tape, so it stays independent of
    the analytic path. Only meaningful on fully differentiable paths: a
    stop_gradient inside ``fn`` makes analytic and numeric grads legitimately
    disagree.
    """
    zero_grads(params)
    with Tape() as tape:
        loss = fn()
    backward(tape, loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = fn().item()
            flat[i] = orig - eps
            dn = fn().item()
            flat[i] = orig
            num = (up - dn) / (2.0 * eps)
            rel = abs(aflat[i] - num) / max(abs(aflat[i]), abs(num), eps)
            worst = max(worst, rel)
    return worst
