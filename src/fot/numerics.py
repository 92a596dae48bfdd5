"""Dense-tensor engine with tape-based reverse-mode differentiation.

Tensors wrap numpy arrays (float32 for training, float64 for verification).
Ops record onto the innermost active ``Tape``; with no tape active they run
as plain numpy forward computations, which is how all inference paths run.

The tape holds grad slots, not tensors: a tape node holds the ``GradSlot``
of its op's output, and its backward closure the input slots plus only the
arrays that backward reads (matmul its operands, linear its input rows and
weight, softmax its output, add none). A forward array lives while the
caller or such a closure holds it.

Backward consumes its tape: each node's output grad is handed to its
backward closure as a buffer the closure owns, and the node then drops its
slot and its closure, so intermediate grads and the forward arrays only
that closure kept alive are freed as backward goes. A tape is single-use.
Leaf tensors (those no recorded op produced, parameters among them) keep
their grads.

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
_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


class GradSlot:
    """A tensor's grad and requires_grad, shared with its tape node and consumers' closures."""

    __slots__ = ("grad", "requires_grad")

    def __init__(self, requires_grad: bool):
        self.grad, self.requires_grad = None, requires_grad


class Tensor:
    """A dense float array plus the ``GradSlot`` behind its grad."""

    __slots__ = ("data", "slot")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        self.data: np.ndarray = arr if arr.dtype in _FLOATS else arr.astype(np.float64)
        self.slot = GradSlot(requires_grad)

    grad = property(lambda t: t.slot.grad, lambda t, g: setattr(t.slot, "grad", g))
    requires_grad = property(lambda t: t.slot.requires_grad,
                             lambda t, flag: setattr(t.slot, "requires_grad", flag))

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
    __slots__ = ("slot", "backward")

    def __init__(self, slot: GradSlot, backward: Callable[[np.ndarray], None]):
        self.slot = slot
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


def _accum(s: GradSlot, g: np.ndarray, copy_as=None) -> None:
    """Add g into s.grad. Unless ``copy_as`` (a dtype) asks for a copy, no
    other slot will adopt g (it is freshly allocated, or the grad buffer
    backward handed to the calling closure, or a view of either), so the
    first contribution adopts it without copying."""
    if s.grad is None:
        s.grad = g if copy_as is None else np.array(g, dtype=copy_as)
    else:
        s.grad += g


def _record(out: Tensor, inputs: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    """Tape ``backward``, a closure over input slots and the arrays it reads."""
    tape = _TAPE_STACK[-1] if _TAPE_STACK else None
    if tape is not None and any(i.slot.requires_grad for i in inputs):
        out.slot.requires_grad = True
        tape._nodes.append(_Node(out.slot, backward))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate grads of every tensor reachable from ``loss`` on this tape."""
    if loss.data.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    backward_from(tape, [(loss, np.ones_like(loss.data))])


def backward_from(tape: Tape, seeds: Sequence[tuple[Tensor, np.ndarray]]) -> None:
    """Reverse-traverse the tape starting from explicit (tensor, grad) seeds.

    The crossbatch step finishes its encoding's tape through it with no
    seeds: the encoded keys/values already hold the grads that the chunks'
    backward passes added into their slots.
    Consumes the tape: each node's output grad is taken off its tensor and
    the node is released once its backward has run, so only leaf tensors
    keep grads, and a second call on the same tape raises UsageError.
    """
    if tape._consumed:
        raise UsageError("backward over a tape that backward has already consumed")
    for t, g in seeds:
        if g.shape != t.data.shape:
            raise ShapeError(f"seed grad shape {g.shape} != tensor shape {t.data.shape}")
        _accum(t.slot, g.astype(t.data.dtype, copy=False), copy_as=t.data.dtype)
    tape._consumed = True
    for node in reversed(tape._nodes):
        slot, bwd = node.slot, node.backward
        node.slot = node.backward = None
        g, slot.grad = slot.grad, None
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
    ad, bd, sa, sb = a.data, b.data, a.slot, b.slot
    out = Tensor(np.matmul(ad, bd))

    def bwd(g: np.ndarray) -> None:
        if sa.requires_grad:
            _accum(sa, _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape))
        if sb.requires_grad:
            _accum(sb, _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape))

    return _record(out, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x·w + b for a weight w [K, N] and a bias b [N]: one 2-D GEMM over all
    of x's rows flattened to [-1, K], with the bias added into its output.
    Backward reads x's rows and w only: the input grad and the weight grad
    are one GEMM each, the bias grad the sum over the leading axes."""
    if w.data.ndim != 2 or x.shape[-1:] != w.shape[:1] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: {x.shape} x {w.shape} + {b.shape}")
    x_shape, (k, n) = x.data.shape, w.data.shape
    x2, wd, sx, sw, sb = x.data.reshape(-1, k), w.data, x.slot, w.slot, b.slot
    y = x2 @ wd
    y += b.data

    def bwd(g: np.ndarray) -> None:
        if sb.requires_grad:
            _accum(sb, g.sum(axis=tuple(range(g.ndim - 1))))
        g2 = g.reshape(-1, n)
        if sx.requires_grad:
            _accum(sx, (g2 @ wd.T).reshape(x_shape))
        if sw.requires_grad:
            _accum(sw, x2.T @ g2)

    return _record(Tensor(y.reshape(x_shape[:-1] + (n,))), (x, w, b), bwd)


def attention_logits(q: Tensor, keys: Sequence[Tensor],
                     adds: Sequence[np.ndarray | None]) -> Tensor:
    """q·kᵢᵀ + addᵢ (None: no mask) for each key set kᵢ [..., nᵢ, Dh], side by
    side in one [..., T, Σnᵢ] buffer, with no transposed key copy. The keys'
    leading dims broadcast against q's; backward reads q and the keys only, so
    the buffer goes when its caller drops it."""
    if len(adds) != len(keys) or any(k.shape[-1] != q.shape[-1] for k in keys):
        raise ShapeError(f"attention_logits: q {q.shape}, keys {[k.shape for k in keys]}")
    lead = np.broadcast_shapes(q.shape[:-2], *(k.shape[:-2] for k in keys))
    ends = np.cumsum([k.shape[-2] for k in keys]).tolist()
    cols = [slice(hi - k.shape[-2], hi) for k, hi in zip(keys, ends)]
    qd, sq, kds, sks = q.data, q.slot, [k.data for k in keys], [k.slot for k in keys]
    buf = np.empty(lead + (q.shape[-2], ends[-1]), dtype=qd.dtype)
    for kd, add_i, c in zip(kds, adds, cols):
        part = buf[..., c]
        np.matmul(qd, np.swapaxes(kd, -1, -2), out=part)
        if add_i is not None:
            part += add_i

    def bwd(g: np.ndarray) -> None:
        if sq.requires_grad:
            dq = sum(np.matmul(g[..., c], kd) for kd, c in zip(kds, cols))
            _accum(sq, _unbroadcast(dq, qd.shape))
        for kd, sk, c in zip(kds, sks, cols):
            if sk.requires_grad:  # a set shared over axis 0 sums one GEMM per slot into one buffer
                gt = np.swapaxes(g[..., c], -1, -2)
                shared = kd.shape[:-2] == (1,) + gt.shape[1:-2] != gt.shape[:-2]
                gk = sum(map(np.matmul, gt, qd))[None] if shared else np.matmul(gt, qd)
                _accum(sk, _unbroadcast(gk, kd.shape))

    return _record(Tensor(buf), (q, *keys), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    try:
        out = Tensor(ad + bd)
    except ValueError as e:
        raise ShapeError(f"add: {a.shape} + {b.shape}") from e
    sa, sb, a_shape, b_shape = a.slot, b.slot, ad.shape, bd.shape
    a_dtype, b_dtype = ad.dtype, bd.dtype

    def bwd(g: np.ndarray) -> None:
        if sa.requires_grad:
            ga = _unbroadcast(g, a_shape)
            _accum(sa, ga, None if ga is not g or g.dtype == a_dtype else a_dtype)
        if sb.requires_grad:
            gb = _unbroadcast(g, b_shape)
            _accum(sb, gb, None if gb is not g else b_dtype)

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.data * b.data)
    except ValueError as e:
        raise ShapeError(f"mul: {a.shape} * {b.shape}") from e
    ad, bd, sa, sb = a.data, b.data, a.slot, b.slot

    def bwd(g: np.ndarray) -> None:
        if sa.requires_grad:
            _accum(sa, _unbroadcast(g * bd, ad.shape))
        if sb.requires_grad:
            _accum(sb, _unbroadcast(g * ad, bd.shape))

    return _record(out, (a, b), bwd)


def scale(x: Tensor, s: float) -> Tensor:
    sx, factor = x.slot, x.data.dtype.type(s)
    out = Tensor(x.data * factor)

    def bwd(g: np.ndarray) -> None:
        if sx.requires_grad:
            _accum(sx, g * factor)

    return _record(out, (x,), bwd)


def concat_axis(parts: Sequence[Tensor], axis: int) -> Tensor:
    """Parts side by side along ``axis``, their other dims broadcast (a [1, ...]
    part joins a [b, ...] one); backward sums each part's grad to its shape."""
    if not parts:
        raise UsageError("concat of zero tensors")
    shapes, ndim = [p.shape for p in parts], parts[0].data.ndim
    try:
        if any(len(s) != ndim for s in shapes) or not -ndim <= axis < ndim:
            raise ValueError
        ax, lead = axis % ndim, tuple(max(d) for d in zip(*shapes))
        fits = [lead[:ax] + s[ax:ax + 1] + lead[ax + 1:] for s in shapes]
        out = Tensor(np.concatenate([p.data if s == f else np.broadcast_to(p.data, f)
                                     for p, s, f in zip(parts, shapes, fits)], axis=ax))
    except ValueError as e:
        raise ShapeError(f"concat axis {axis}: {shapes}") from e
    slots = [p.slot for p in parts]

    def bwd(g: np.ndarray) -> None:
        off = 0
        sl = [slice(None)] * g.ndim
        for sp, s in zip(slots, shapes):
            if sp.requires_grad:
                sl[ax] = slice(off, off + s[ax])
                _accum(sp, _unbroadcast(g[tuple(sl)], s))
            off += s[ax]

    return _record(out, tuple(parts), bwd)


def concat_last_axis(parts: Sequence[Tensor]) -> Tensor:
    lead = {p.shape[:-1] for p in parts}
    if len(lead) > 1:
        raise ShapeError(f"concat_last_axis: {[p.shape for p in parts]}")
    return concat_axis(parts, -1)


def slice_last_axis(x: Tensor, start: int, stop: int) -> Tensor:
    out, sx, x_shape, x_dtype = Tensor(x.data[..., start:stop].copy()), x.slot, x.shape, x.dtype

    def bwd(g: np.ndarray) -> None:
        if sx.requires_grad:
            buf = np.zeros(x_shape, x_dtype)
            buf[..., start:stop] = g
            _accum(sx, buf)

    return _record(out, (x,), bwd)


def take_rows(x: Tensor, indices) -> Tensor:
    """x[indices] along axis 0; backward sums the grads of each row's copies
    into it with one one-hot [n, len(indices)] GEMM."""
    idx = np.asarray(indices, dtype=np.int64)
    out, sx, n = Tensor(x.data[idx]), x.slot, x.shape[0]

    def bwd(g: np.ndarray) -> None:
        if sx.requires_grad:
            onehot = np.zeros((n, idx.size), dtype=g.dtype)
            onehot[idx.reshape(-1), np.arange(idx.size)] = 1
            _accum(sx, (onehot @ g.reshape(idx.size, -1)).reshape((n,) + g.shape[idx.ndim:]))

    return _record(out, (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    try:
        out = Tensor(x.data.reshape(shape))
    except ValueError as e:
        raise ShapeError(f"reshape {x.shape} -> {shape}") from e
    sx, x_shape = x.slot, x.data.shape

    def bwd(g: np.ndarray) -> None:
        if sx.requires_grad:
            _accum(sx, g.reshape(x_shape))

    return _record(out, (x,), bwd)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out = Tensor(np.ascontiguousarray(x.data.transpose(axes)))
    inv, sx = tuple(np.argsort(axes)), x.slot

    def bwd(g: np.ndarray) -> None:
        if sx.requires_grad:
            _accum(sx, g.transpose(inv))

    return _record(out, (x,), bwd)


def softmax_last_axis(x: Tensor) -> Tensor:
    z = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    y = z
    y /= y.sum(axis=-1, keepdims=True)
    out, sx = Tensor(y), x.slot

    def bwd(g: np.ndarray) -> None:
        # g = (g - sum(g * y)) * y in place, a block of rows at a time, so
        # g * y is never score-sized; each row still sums in numpy's order
        if sx.requires_grad:
            n = g.shape[-1]
            g2, y2, step = g.reshape(-1, n), y.reshape(-1, n), max(1, 2**16 // n)
            gy = np.empty((min(step, len(g2)), n), g.dtype)
            for lo in range(0, len(g2), step):
                gb, yb = g2[lo:lo + step], y2[lo:lo + step]
                gb -= np.multiply(gb, yb, out=gy[:len(gb)]).sum(axis=-1, keepdims=True)
                gb *= yb
            _accum(sx, g2.reshape(g.shape))

    return _record(out, (x,), bwd)


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-6) -> Tensor:
    if gain.shape != (x.shape[-1],):
        raise ShapeError(f"rms_norm gain {gain.shape} vs last dim {x.shape[-1]}")
    n, xd, gd, sx, sg = x.shape[-1], x.data, gain.data, x.slot, gain.slot
    ms = (xd * xd).mean(axis=-1, keepdims=True) + xd.dtype.type(eps)
    inv = ms ** -0.5
    y = xd * inv
    y *= gd

    def bwd(g: np.ndarray) -> None:
        t = np.multiply(xd, inv)  # x·inv is rebuilt, not kept from forward
        if sg.requires_grad:
            t *= g
            _accum(sg, t.sum(axis=tuple(range(g.ndim - 1))))
        if sx.requires_grad:  # inv·(u − x·(u·x)/(n·ms)) with u = g·gain, in g and t
            u = np.multiply(g, gd, out=g)
            dot = np.multiply(u, xd, out=t).sum(axis=-1, keepdims=True)
            u -= np.multiply(xd, dot / (n * ms), out=t)
            u *= inv
            _accum(sx, u)

    return _record(Tensor(y), (x, gain), bwd)


def l2_normalize_last_axis(x: Tensor, eps: float = 1e-6) -> Tensor:
    xd, sx = x.data, x.slot
    r = np.sqrt((xd * xd).sum(axis=-1, keepdims=True) + xd.dtype.type(eps))
    out = Tensor(xd / r)

    def bwd(g: np.ndarray) -> None:
        if sx.requires_grad:
            s = (g * xd).sum(axis=-1, keepdims=True)
            _accum(sx, g / r - xd * (s / (r * r * r)))

    return _record(out, (x,), bwd)


_ROTATIONS: dict[tuple, np.ndarray] = {}  # (head_dim, dtype, base) -> [positions, head_dim // 2]


def _rotations(head_dim: int, dtype, base: float, size: int) -> np.ndarray:
    """e^{i*pos*theta_j} at positions 0..size-1 at least, with theta_j =
    base^(-2j/head_dim), in the complex dtype of ``dtype``. A table is built
    in full before it is published, at twice its last size when it grows."""
    key = (head_dim, np.dtype(dtype), base)
    table = _ROTATIONS.get(key)
    if table is None or len(table) < size:
        size = max(size, 0 if table is None else 2 * len(table))
        freqs = base ** (-np.arange(head_dim // 2, dtype=np.float64) * 2.0 / head_dim)
        ang = np.arange(size, dtype=np.float64)[:, None] * freqs
        table = (np.cos(ang) + 1j * np.sin(ang)).astype(np.result_type(dtype, np.complex64))
        _ROTATIONS[key] = table
    return table


def _pairs(a: np.ndarray) -> np.ndarray:
    """The pairs (a_2j, a_2j+1) of the last axis as complex numbers a_2j + i*a_2j+1."""
    if a.strides[-1] != a.itemsize:
        a = np.ascontiguousarray(a)
    return a.view(np.result_type(a.dtype, np.complex64))


def rotary_encode(x: Tensor, positions, base: float = 10000.0) -> Tensor:
    """Rotate each adjacent pair (x_2j, x_2j+1) of the last axis by the angle
    pos * theta_j, theta_j = base^(-2j/head_dim): read as the complex number
    x_2j + i*x_2j+1, the pair is multiplied by e^{i*pos*theta_j} (RoFormer,
    Su et al., arXiv 2104.09864), and the backward multiplies by its
    conjugate. ``positions`` holds one non-negative integer per sequence
    slot, matched against axis -2; the rotations are rows of a table per
    (head_dim, dtype, base) that grows to the largest position asked for.
    """
    head_dim = x.shape[-1]
    if head_dim % 2:
        raise ShapeError(f"rotary_encode needs even head_dim, got {head_dim}")
    pos = np.asarray(positions)
    if pos.ndim != 1 or x.data.ndim < 2 or pos.shape[0] != x.shape[-2]:
        raise ShapeError(f"rotary_encode positions {pos.shape} vs x {x.shape}")
    if pos.dtype.kind not in "iu" or pos.min(initial=0) < 0:
        raise UsageError(f"rotary_encode needs non-negative integer positions, "
                         f"got {pos.dtype} down to {pos.min(initial=0)}")
    rot = _rotations(head_dim, x.dtype, base, int(pos.max(initial=0)) + 1)[pos]
    out, sx, x_dtype = Tensor((_pairs(x.data) * rot).view(x.dtype)), x.slot, x.dtype

    def bwd(g: np.ndarray) -> None:
        if sx.requires_grad:
            _accum(sx, (_pairs(g) * rot.conj()).view(x_dtype))

    return _record(out, (x,), bwd)


def embedding(table: Tensor, ids) -> Tensor:
    """Rows of ``table`` for token ``ids``; an id outside [0, vocab) is a DataError."""
    idx = np.asarray(ids, dtype=np.int64)
    bad = idx[(idx < 0) | (idx >= len(table.data))]
    if bad.size:
        raise DataError(f"token id {bad[0]} is outside the vocabulary of {len(table.data)} ids")
    out, st, t_shape, t_dtype = Tensor(table.data[idx]), table.slot, table.shape, table.dtype

    def bwd(g: np.ndarray) -> None:
        if st.requires_grad:
            if st.grad is None:
                st.grad = np.zeros(t_shape, t_dtype)
            np.add.at(st.grad, idx, g)

    return _record(out, (table,), bwd)


def sigmoid(x: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-x.data))
    out, sx = Tensor(y), x.slot

    def bwd(g: np.ndarray) -> None:
        if sx.requires_grad:
            _accum(sx, g * y * (1.0 - y))

    return _record(out, (x,), bwd)


def silu(x: Tensor) -> Tensor:
    sig = np.negative(x.data)  # σ = 1 / (1 + e^−x), built in one buffer
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    y, sx = x.data * sig, x.slot  # backward reads σ and y (the next op's operand), not x

    def bwd(g: np.ndarray) -> None:
        if sx.requires_grad:  # d/dx x·σ = σ + x·σ(1 − σ) = σ + y·(1 − σ)
            d = 1.0 - sig
            d *= y
            d += sig
            g *= d
            _accum(sx, g)

    return _record(Tensor(y), (x,), bwd)


def exp(x: Tensor) -> Tensor:
    y = np.exp(x.data)
    out, sx = Tensor(y), x.slot

    def bwd(g: np.ndarray) -> None:
        if sx.requires_grad:
            _accum(sx, g * y)

    return _record(out, (x,), bwd)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.data.sum(), dtype=x.data.dtype))
    sx, x_shape, x_dtype = x.slot, x.shape, x.dtype

    def bwd(g: np.ndarray) -> None:
        if sx.requires_grad:
            _accum(sx, np.full(x_shape, g.reshape(-1)[0], x_dtype))

    return _record(out, (x,), bwd)


def cross_entropy_masked(logits: Tensor, targets, mask) -> Tensor:
    """Mean negative log-likelihood over mask=1 positions.

    ``logits`` is [..., vocab]; ``targets`` and ``mask`` match its leading dims.
    Positions with mask 0 contribute nothing to loss or gradient. A target
    outside [0, vocab) is a DataError, masked or not.
    """
    tgt = np.asarray(targets, dtype=np.int64)
    m = np.asarray(mask, dtype=logits.data.dtype)
    if tgt.shape != logits.shape[:-1] or m.shape != logits.shape[:-1]:
        raise ShapeError(
            f"cross_entropy_masked: logits {logits.shape}, targets {tgt.shape}, mask {m.shape}")
    bad = tgt[(tgt < 0) | (tgt >= logits.shape[-1])]
    if bad.size:
        raise DataError(f"target {bad[0]} is outside the vocabulary of {logits.shape[-1]} ids")
    denom = m.sum()
    if denom == 0:
        raise UsageError("cross_entropy_masked: mask selects no positions")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    picked = np.take_along_axis(z, tgt[..., None], axis=-1)[..., 0]
    nll = (lse - picked) * m
    out, sl = Tensor(np.asarray(nll.sum() / denom, dtype=logits.data.dtype)), logits.slot

    def bwd(g: np.ndarray) -> None:
        if sl.requires_grad:
            p = np.exp(z - lse[..., None])
            flat = p.reshape(-1, p.shape[-1])
            flat[np.arange(flat.shape[0]), tgt.reshape(-1)] -= 1.0
            p *= (m / denom * g.reshape(-1)[0])[..., None]
            _accum(sl, p)

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
    the analytic path. Only meaningful on fully differentiable paths: an edge
    that ``fn`` detaches from the tape (a constant built from a parameter's
    data) makes analytic and numeric grads legitimately disagree.
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
