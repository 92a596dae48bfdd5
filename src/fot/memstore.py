"""Append-only exact maximum-inner-product index of (key, value) pairs.

Each memory layer has one store, and all its heads hold the same tokens: keys
and values are float32 [H, n, head_dim], each token's doc id and position [n].
Search is a full scan per head: one matmul for the scores, then exact top-k
selection with ties broken by lower column, which is the older entry: the
index only appends and clears, so column order is insertion order. No
approximation anywhere.

Selection bounds each row before it sorts. The n columns of a row are split
into m = n // g groups of g = max(1, min(16, n // 2k)) columns (group j holds
columns j, m+j, ..., (g-1)m+j), so m >= k, and the bound is the k-th largest
of the m group maxima. Those k groups hold k distinct scores at or above the
bound, so the k-th largest score is at or above it too: every hit, and every
score tied with the last hit, passes the bound. Only the passing candidates
are sorted, by one stable argsort of an integer key: the row in its high 32
bits and the score's order-preserving bits, complemented, in its low 32, so
ties keep the lower column. A read scores as many heads at once as keep their
[heads * queries, n] float32 scores within 1 MiB, and selects and gathers for
the whole block.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError, NumericError, ShapeError, UsageError

MAGIC = b"FOTM"
FORMAT_VERSION = 3
_GROUP = 16  # most columns per group in the top-k bound
_BLOCK_BYTES = 1 << 20  # scores of the heads one top-k read scans together


@dataclass
class TopkResult:
    """Per-head retrieval for a batch of queries, descending score."""
    indices: np.ndarray    # [H, Q, k] store column of each hit
    scores: np.ndarray     # [H, Q, k]
    keys: np.ndarray       # [H, Q, k, head_dim]
    values: np.ndarray     # [H, Q, k, head_dim]
    doc_ids: np.ndarray    # [H, Q, k]
    positions: np.ndarray  # [H, Q, k]
    k: int


class _LayerStore:
    """Growable column store for one memory layer, shared by its heads."""

    __slots__ = ("keys", "values", "doc_ids", "positions", "size")

    def __init__(self, n_heads: int, head_dim: int):
        # grown on first write, so a loaded header alone allocates nothing
        self.keys = np.empty((n_heads, 0, head_dim), dtype=np.float32)
        self.values = np.empty((n_heads, 0, head_dim), dtype=np.float32)
        self.doc_ids = np.empty(0, dtype=np.int64)
        self.positions = np.empty(0, dtype=np.int64)
        self.size = 0

    def grow_to(self, need: int) -> None:
        cap = self.doc_ids.shape[0]
        if need <= cap:
            return
        new = max(need, cap * 2)
        for name in ("keys", "values"):
            old = getattr(self, name)
            buf = np.empty((old.shape[0], new, old.shape[2]), dtype=old.dtype)
            buf[:, : self.size] = old[:, : self.size]
            setattr(self, name, buf)
        for name in ("doc_ids", "positions"):
            buf = np.empty(new, dtype=np.int64)
            buf[: self.size] = getattr(self, name)[: self.size]
            setattr(self, name, buf)

    def put(self, keys, values, doc_ids, positions) -> None:
        """Append t tokens: keys and values [H, t, head_dim], doc ids and positions [t]."""
        t = keys.shape[1]
        self.grow_to(self.size + t)
        sl = slice(self.size, self.size + t)
        self.keys[:, sl], self.values[:, sl] = keys, values
        self.doc_ids[sl], self.positions[sl] = doc_ids, positions
        self.size += t


class MemoryIndex:
    """Exact top-k (key, value) store for the memory attention layers."""

    def __init__(self, memory_layers, n_heads: int, head_dim: int):
        self.memory_layers = tuple(sorted(memory_layers))
        self.n_heads = n_heads
        self.head_dim = head_dim
        self._stores = {layer: _LayerStore(n_heads, head_dim) for layer in self.memory_layers}

    def _store(self, layer: int) -> _LayerStore:
        if layer not in self._stores:
            raise ShapeError(f"layer {layer} is not in this index")
        return self._stores[layer]

    # -- writes ------------------------------------------------------------

    def append_block(self, layer: int, keys: np.ndarray, values: np.ndarray,
                     doc_id: int, positions) -> int:
        """Append one window's pairs for all heads: keys/values are [H, T, head_dim]."""
        s = self._store(layer)
        keys = np.asarray(keys, dtype=np.float32)
        values = np.asarray(values, dtype=np.float32)
        if keys.shape != values.shape or keys.ndim != 3 or \
                keys.shape[0] != self.n_heads or keys.shape[2] != self.head_dim:
            raise ShapeError(f"append_block expects [H={self.n_heads}, T, {self.head_dim}], got {keys.shape}")
        t = keys.shape[1]
        pos = np.asarray(positions, dtype=np.int64)
        if pos.shape != (t,):
            raise ShapeError(f"positions {pos.shape} vs window length {t}")
        s.put(keys, values, doc_id, pos)
        return self.size()

    def clear(self) -> int:
        for s in self._stores.values():
            s.size = 0
        return self.size()

    # -- reads -------------------------------------------------------------

    def size(self) -> int:
        """Total stored entries, one per (layer, head, token)."""
        return self.n_heads * sum(s.size for s in self._stores.values())

    def stats(self) -> dict:
        """Entry counts (one per (layer, head, token)) in total, per doc and per layer."""
        per_doc: dict[int, int] = {}
        for s in self._stores.values():
            ids, counts = np.unique(s.doc_ids[: s.size], return_counts=True)
            for d, c in zip(ids.tolist(), counts.tolist()):
                per_doc[d] = per_doc.get(d, 0) + c * self.n_heads
        per_layer = {layer: s.size * self.n_heads for layer, s in self._stores.items()}
        return {"size": self.size(), "per_doc": per_doc, "per_layer": per_layer}

    def layer_size(self, layer: int) -> int:
        """Tokens stored for ``layer``; each of its heads holds all of them."""
        return self._store(layer).size

    def topk(self, layer: int, queries: np.ndarray, k: int) -> TopkResult:
        """Exact top-k by inner product for a [H, Q, head_dim] query batch.

        Returns min(k, size) hits per query in descending score order; score
        ties go to the lower insertion index.
        """
        s = self._store(layer)
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim != 3 or queries.shape[0] != self.n_heads or queries.shape[2] != self.head_dim:
            raise ShapeError(f"topk expects queries [H={self.n_heads}, Q, {self.head_dim}], got {queries.shape}")
        if k < 0:
            raise UsageError(f"k must be >= 0, got {k}")
        h_count, q_count, n = queries.shape[0], queries.shape[1], s.size
        kk = min(k, n)
        hqk, dh = (h_count, q_count, kk), (self.head_dim,)
        res = TopkResult(indices=np.empty(hqk, np.int64), scores=np.empty(hqk, np.float32),
                         keys=np.empty(hqk + dh, np.float32), values=np.empty(hqk + dh, np.float32),
                         doc_ids=np.empty(hqk, np.int64), positions=np.empty(hqk, np.int64), k=kk)
        if not res.indices.size:
            return res
        heads = max(1, min(h_count, _BLOCK_BYTES // (4 * q_count * n)))
        cap = s.keys.shape[1]
        for h0 in range(0, h_count, heads):
            hs = slice(h0, h0 + heads)
            block = np.matmul(queries[hs], s.keys[hs, :n].transpose(0, 2, 1))  # [h, Q, n]
            rows = block.shape[0] * q_count
            top = _exact_topk_rows(block.reshape(rows, n), kk)  # [h*Q, k]
            res.indices[hs] = top.reshape(-1, q_count, kk)
            # row r of the block is head r // Q: its scores start at r * n in
            # the flattened block, its stored rows at (r // Q) * cap in the
            # flattened key and value buffers
            r = np.arange(rows)[:, None]
            at = top + r // q_count * cap
            # gather straight into the result, so each page is written once;
            # mode="clip" skips take's buffered copy (every index is in range)
            for name, src, idx in (("scores", block.reshape(-1), top + r * n),
                                   ("keys", s.keys[hs].reshape(-1, self.head_dim), at),
                                   ("values", s.values[hs].reshape(-1, self.head_dim), at),
                                   ("doc_ids", s.doc_ids, top), ("positions", s.positions, top)):
                out = getattr(res, name)[hs]
                src.take(idx, axis=0, out=out.reshape(idx.shape + out.shape[3:]), mode="clip")
        return res

    # -- persistence ---------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<IIII", FORMAT_VERSION, len(self.memory_layers),
                                self.n_heads, self.head_dim))
            f.write(struct.pack(f"<{len(self.memory_layers)}I", *self.memory_layers))
            for layer, s in self._stores.items():
                f.write(struct.pack("<Iq", layer, s.size))
                f.write(s.keys[:, : s.size].astype("<f4").tobytes())
                f.write(s.values[:, : s.size].astype("<f4").tobytes())
                f.write(s.doc_ids[: s.size].astype("<i8").tobytes())
                f.write(s.positions[: s.size].astype("<i8").tobytes())

    @classmethod
    def load(cls, path) -> "MemoryIndex":
        try:
            with open(path, "rb") as f:
                raw = f.read()
        except OSError as e:
            raise DataError(f"cannot read memory index {path}: {e.strerror}") from e
        if raw[:4] != MAGIC:
            raise FormatError(f"{path}: bad magic {raw[:4]!r}")
        off = 4

        def span(nbytes: int) -> int:
            """Offset of the next ``nbytes`` of the file; FormatError past its end."""
            nonlocal off
            if off + nbytes > len(raw):
                raise FormatError(f"{path}: truncated at byte {off} ({nbytes} more expected)")
            off += nbytes
            return off - nbytes

        def unpack(fmt: str) -> tuple:
            return struct.unpack_from(fmt, raw, span(struct.calcsize(fmt)))

        def array(dtype: str, count: int) -> np.ndarray:
            return np.frombuffer(raw, dtype, count, span(np.dtype(dtype).itemsize * count))

        version, n_layers, n_heads, head_dim = unpack("<IIII")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        layers = unpack(f"<{n_layers}I")
        # one 12-byte record header per layer must follow: this bounds what
        # the index below allocates by the file's size
        if len(set(layers)) != n_layers or 12 * n_layers > len(raw) - off:
            raise FormatError(f"{path}: layers {layers} do not fit the file")
        idx = cls(layers, n_heads, head_dim)
        unread = dict(idx._stores)
        for _ in range(n_layers):
            layer, size = unpack("<Iq")
            s = unread.pop(layer, None)
            if s is None or size < 0:
                raise FormatError(f"{path}: unknown or repeated layer {layer} "
                                  f"or negative size {size}")
            keys, values = (array("<f4", n_heads * size * head_dim).reshape(n_heads, size, head_dim)
                            for _ in range(2))
            s.put(keys, values, array("<i8", size), array("<i8", size))
        if off != len(raw):
            raise FormatError(f"{path}: {len(raw) - off} trailing bytes")
        return idx

def _exact_topk_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Row-wise exact top-k indices of float32 ``scores`` [Q, n] for
    1 <= k <= n, descending, ties by lower column index (-0 ties +0). Assumes
    index order equals insertion order. A NaN score has no rank and raises
    NumericError."""
    q, n = scores.shape
    g = max(1, min(_GROUP, n // (2 * k)))
    m = n // g  # >= k groups; >= 2k where n allows, which keeps the bound tight
    gmax = np.maximum.reduce(scores[:, :g * m].reshape(q, g, m), axis=1)
    if np.isnan(gmax).any() or np.isnan(scores[:, g * m:]).any():
        raise NumericError("NaN top-k score: a query or a stored key is NaN")
    gmax.partition(m - k, axis=1)
    flat = (scores >= gmax[:, m - k, None]).ravel().nonzero()[0]
    row, col = divmod(flat, n)
    # adding +0 turns -0 into +0. A negative float's bits sort descending as
    # they are; a positive's, with every bit but the sign flipped, sort
    # descending below every negative's
    bits = (scores.take(flat) + np.float32(0)).view(np.uint32)
    low = np.where(bits >> 31, bits, bits ^ np.uint32(0x7FFFFFFF))
    # flat lists each row's columns ascending and the sort is stable, so equal
    # scores keep the lower column first
    order = (row.astype(np.uint64) << 32 | low).argsort(kind="stable")
    return col[order[row.searchsorted(np.arange(q))[:, None] + np.arange(k)]]


def brute_force_topk(keys: np.ndarray, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Independent full-scan oracle: stable argsort of all inner products.

    Returns (indices [Q, min(k, n)], scores) with the same descending-score,
    lower-index-wins ordering contract as MemoryIndex.topk.
    """
    scores = queries @ keys.T
    kk = min(k, keys.shape[0])
    idx = np.empty((queries.shape[0], kk), dtype=np.int64)
    for i in range(queries.shape[0]):
        idx[i] = np.argsort(-scores[i], kind="stable")[:kk]
    return idx, np.take_along_axis(scores, idx, axis=1)
