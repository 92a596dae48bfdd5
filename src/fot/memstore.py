"""Append-only exact maximum-inner-product index of (key, value) pairs.

Entries are grouped per (layer, head). Search is a full scan: one matmul for
the scores, then exact top-k selection with ties broken by lower insertion
index (older entry wins). No approximation anywhere.

Selection bounds each row before it sorts. The n columns of a row are split
into m = n // g groups of g = max(1, min(16, n // 2k)) columns (group j holds
columns j, m+j, ..., (g-1)m+j), so m >= k, and the bound is the k-th largest
of the m group maxima. Those k groups hold k distinct scores at or above the
bound, so the k-th largest score is at or above it too: every hit, and every
score tied with the last hit, passes the bound. Only the passing candidates
are sorted, by (row, score descending, column).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, FormatError, NumericError, ShapeError

MAGIC = b"FOTM"
FORMAT_VERSION = 1
_GROUP = 16  # most columns per group in the top-k bound


@dataclass(frozen=True)
class MemoryEntry:
    layer: int
    head: int
    key: np.ndarray
    value: np.ndarray
    doc_id: int
    position: int


@dataclass
class TopkResult:
    """Per-head retrieval for a batch of queries, descending score."""
    indices: np.ndarray    # [H, Q, k] bucket slot of each hit
    scores: np.ndarray     # [H, Q, k]
    keys: np.ndarray       # [H, Q, k, head_dim]
    values: np.ndarray     # [H, Q, k, head_dim]
    doc_ids: np.ndarray    # [H, Q, k]
    positions: np.ndarray  # [H, Q, k]
    k: int


class _Bucket:
    """Growable column store for one (layer, head)."""

    __slots__ = ("keys", "values", "doc_ids", "positions", "insert_ids", "size")

    def __init__(self, head_dim: int, dtype):
        cap = 0  # grown on first write, so a loaded header alone allocates nothing
        self.keys = np.empty((cap, head_dim), dtype=dtype)
        self.values = np.empty((cap, head_dim), dtype=dtype)
        self.doc_ids = np.empty(cap, dtype=np.int64)
        self.positions = np.empty(cap, dtype=np.int64)
        self.insert_ids = np.empty(cap, dtype=np.int64)
        self.size = 0

    def _grow_to(self, need: int) -> None:
        cap = self.keys.shape[0]
        if need <= cap:
            return
        new = max(need, cap * 2)
        for name in ("keys", "values"):
            buf = np.empty((new, self.keys.shape[1]), dtype=self.keys.dtype)
            buf[: self.size] = getattr(self, name)[: self.size]
            setattr(self, name, buf)
        for name in ("doc_ids", "positions", "insert_ids"):
            buf = np.empty(new, dtype=np.int64)
            buf[: self.size] = getattr(self, name)[: self.size]
            setattr(self, name, buf)

    def filter_keep(self, mask: np.ndarray) -> None:
        n = int(mask.sum())
        for name in ("keys", "values"):
            getattr(self, name)[:n] = getattr(self, name)[: self.size][mask]
        for name in ("doc_ids", "positions", "insert_ids"):
            getattr(self, name)[:n] = getattr(self, name)[: self.size][mask]
        self.size = n


class MemoryIndex:
    """Exact top-k (key, value) store for the memory attention layers."""

    def __init__(self, memory_layers, n_heads: int, head_dim: int,
                 capacity: int | None = None, dtype=np.float32):
        self.memory_layers = tuple(sorted(memory_layers))
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.capacity = capacity
        self.dtype = np.dtype(dtype)
        self._buckets = {
            (layer, h): _Bucket(head_dim, self.dtype)
            for layer in self.memory_layers for h in range(n_heads)
        }
        self._insert_counter = 0

    # -- writes ------------------------------------------------------------

    def append(self, entries) -> int:
        """Append individual MemoryEntry records; returns the new size."""
        for e in entries:
            if e.layer not in self.memory_layers or not (0 <= e.head < self.n_heads):
                raise ShapeError(f"entry for unknown (layer={e.layer}, head={e.head})")
            key = np.asarray(e.key, dtype=self.dtype)
            val = np.asarray(e.value, dtype=self.dtype)
            if key.shape != (self.head_dim,) or val.shape != (self.head_dim,):
                raise ShapeError(f"entry key/value must be length {self.head_dim}")
            self._check_capacity(1)
            b = self._buckets[(e.layer, e.head)]
            b._grow_to(b.size + 1)
            b.keys[b.size] = key
            b.values[b.size] = val
            b.doc_ids[b.size] = e.doc_id
            b.positions[b.size] = e.position
            b.insert_ids[b.size] = self._insert_counter
            self._insert_counter += 1
            b.size += 1
        return self.size()

    def append_block(self, layer: int, keys: np.ndarray, values: np.ndarray,
                     doc_id: int, positions) -> int:
        """Append one window's pairs for all heads: keys/values are [H, T, head_dim]."""
        if layer not in self.memory_layers:
            raise ShapeError(f"layer {layer} is not a memory layer of this index")
        keys = np.asarray(keys, dtype=self.dtype)
        values = np.asarray(values, dtype=self.dtype)
        if keys.shape != values.shape or keys.ndim != 3 or \
                keys.shape[0] != self.n_heads or keys.shape[2] != self.head_dim:
            raise ShapeError(f"append_block expects [H={self.n_heads}, T, {self.head_dim}], got {keys.shape}")
        t = keys.shape[1]
        pos = np.asarray(positions, dtype=np.int64)
        if pos.shape != (t,):
            raise ShapeError(f"positions {pos.shape} vs window length {t}")
        self._check_capacity(t * self.n_heads)
        base = self._insert_counter
        for h in range(self.n_heads):
            b = self._buckets[(layer, h)]
            b._grow_to(b.size + t)
            sl = slice(b.size, b.size + t)
            b.keys[sl] = keys[h]
            b.values[sl] = values[h]
            b.doc_ids[sl] = doc_id
            b.positions[sl] = pos
            # all heads of one token share consecutive ranks; ordering within
            # a block is by (token, head) to keep ids unique and monotone
            b.insert_ids[sl] = base + np.arange(t, dtype=np.int64) * self.n_heads + h
            b.size += t
        self._insert_counter += t * self.n_heads
        return self.size()

    def _check_capacity(self, n_new: int) -> None:
        if self.capacity is not None and self.size() + n_new > self.capacity:
            raise CapacityError(f"memory capacity {self.capacity} exceeded")

    def reset_doc(self, doc_id: int) -> int:
        for b in self._buckets.values():
            mask = b.doc_ids[: b.size] != doc_id
            if not mask.all():
                b.filter_keep(mask)
        return self.size()

    def clear(self) -> int:
        for b in self._buckets.values():
            b.size = 0
        return self.size()

    # -- reads -------------------------------------------------------------

    def size(self) -> int:
        """Total stored entries, one per (layer, head, token)."""
        return sum(b.size for b in self._buckets.values())

    def stats(self) -> dict:
        per_doc: dict[int, int] = {}
        per_layer: dict[int, int] = {}
        for (layer, _h), b in self._buckets.items():
            per_layer[layer] = per_layer.get(layer, 0) + b.size
            if b.size:
                ids, counts = np.unique(b.doc_ids[: b.size], return_counts=True)
                for d, c in zip(ids.tolist(), counts.tolist()):
                    per_doc[d] = per_doc.get(d, 0) + c
        return {"size": self.size(), "per_doc": per_doc, "per_layer": per_layer}

    def layer_size(self, layer: int, head: int = 0) -> int:
        return self._buckets[(layer, head)].size

    def topk(self, layer: int, queries: np.ndarray, k: int) -> TopkResult:
        """Exact top-k by inner product for a [H, Q, head_dim] query batch.

        Returns min(k, size) hits per query in descending score order; score
        ties go to the lower insertion index.
        """
        queries = np.asarray(queries, dtype=self.dtype)
        if queries.ndim != 3 or queries.shape[0] != self.n_heads or queries.shape[2] != self.head_dim:
            raise ShapeError(f"topk expects queries [H={self.n_heads}, Q, {self.head_dim}], got {queries.shape}")
        h_count, q_count = queries.shape[0], queries.shape[1]
        sizes = {self._buckets[(layer, h)].size for h in range(self.n_heads)}
        if len(sizes) != 1:
            raise ShapeError("batched topk needs equal bucket sizes across heads; "
                             "use topk_entries for ragged stores")
        n = sizes.pop()
        kk = min(k, n)
        res = TopkResult(
            indices=np.empty((h_count, q_count, kk), dtype=np.int64),
            scores=np.empty((h_count, q_count, kk), dtype=self.dtype),
            keys=np.empty((h_count, q_count, kk, self.head_dim), dtype=self.dtype),
            values=np.empty((h_count, q_count, kk, self.head_dim), dtype=self.dtype),
            doc_ids=np.empty((h_count, q_count, kk), dtype=np.int64),
            positions=np.empty((h_count, q_count, kk), dtype=np.int64),
            k=kk,
        )
        if kk == 0:
            return res
        for h in range(h_count):
            b = self._buckets[(layer, h)]
            scores = queries[h] @ b.keys[: b.size].T  # [Q, n]
            top = _exact_topk_rows(scores, kk)
            res.indices[h] = top
            res.scores[h] = np.take_along_axis(scores, top, axis=1)
            # gather straight into the result, so each page is written once;
            # mode="clip" skips take's buffered copy (every index is < n)
            for name in ("keys", "values", "doc_ids", "positions"):
                np.take(getattr(b, name)[:n], top, axis=0, out=getattr(res, name)[h], mode="clip")
        return res

    def topk_entries(self, layer: int, head: int, query: np.ndarray, k: int) -> list[tuple[MemoryEntry, float]]:
        """Single-query convenience wrapper returning (entry, score) pairs."""
        b = self._buckets[(layer, head)]
        if b.size == 0 or k <= 0:
            return []
        q = np.asarray(query, dtype=self.dtype)
        scores = (b.keys[: b.size] @ q).reshape(1, -1)
        top = _exact_topk_rows(scores, min(k, b.size))[0]
        return [
            (MemoryEntry(layer, head, b.keys[i].copy(), b.values[i].copy(),
                         int(b.doc_ids[i]), int(b.positions[i])),
             float(scores[0, i]))
            for i in top
        ]

    def neighborhood(self, layer: int, head: int, doc_id: int, position: int,
                     radius: int) -> tuple[np.ndarray, np.ndarray, int]:
        """Keys of the entry at (doc, position) plus its +-radius positional
        neighbors within the same document, ordered by position.

        Returns (keys [m, head_dim], positions [m], index of the center entry).
        """
        b = self._buckets[(layer, head)]
        sel = (b.doc_ids[: b.size] == doc_id) & \
              (np.abs(b.positions[: b.size] - position) <= radius)
        idx = np.flatnonzero(sel)
        if idx.size == 0:
            raise ShapeError(f"no entries near doc {doc_id} position {position}")
        order = np.argsort(b.positions[idx], kind="stable")
        idx = idx[order]
        center = np.flatnonzero(b.positions[idx] == position)
        if center.size == 0:
            raise ShapeError(f"entry at doc {doc_id} position {position} not stored")
        return b.keys[idx].copy(), b.positions[idx].copy(), int(center[0])

    # -- persistence ---------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<IIII", FORMAT_VERSION, len(self.memory_layers),
                                self.n_heads, self.head_dim))
            f.write(struct.pack(f"<{len(self.memory_layers)}I", *self.memory_layers))
            f.write(struct.pack("<qq", self._insert_counter,
                                -1 if self.capacity is None else self.capacity))
            f.write(struct.pack("<I", len(self._buckets)))
            for (layer, h), b in sorted(self._buckets.items()):
                f.write(struct.pack("<IIq", layer, h, b.size))
                f.write(b.keys[: b.size].astype("<f4").tobytes())
                f.write(b.values[: b.size].astype("<f4").tobytes())
                f.write(b.doc_ids[: b.size].astype("<i8").tobytes())
                f.write(b.positions[: b.size].astype("<i8").tobytes())
                f.write(b.insert_ids[: b.size].astype("<i8").tobytes())

    @classmethod
    def load(cls, path) -> "MemoryIndex":
        with open(path, "rb") as f:
            raw = f.read()
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
        counter, capacity = unpack("<qq")
        (n_buckets,) = unpack("<I")
        # one 16-byte header per (layer, head) must follow: this bounds what
        # the index below allocates by the file's size
        if len(set(layers)) != n_layers or n_buckets != n_layers * n_heads or \
                16 * n_buckets > len(raw) - off:
            raise FormatError(f"{path}: {n_buckets} buckets for layers {layers} x {n_heads} heads")
        idx = cls(layers, n_heads, head_dim, capacity=None if capacity < 0 else capacity)
        idx._insert_counter = counter
        unread = dict(idx._buckets)
        for _ in range(n_buckets):
            layer, h, size = unpack("<IIq")
            b = unread.pop((layer, h), None)
            if b is None or size < 0:
                raise FormatError(f"{path}: unknown or repeated bucket (layer={layer}, head={h}) "
                                  f"or negative size {size}")
            keys, values = array("<f4", size * head_dim), array("<f4", size * head_dim)
            doc_ids, positions, insert_ids = (array("<i8", size) for _ in range(3))
            b._grow_to(size)
            b.keys[:size] = keys.reshape(size, head_dim)
            b.values[:size] = values.reshape(size, head_dim)
            b.doc_ids[:size] = doc_ids
            b.positions[:size] = positions
            b.insert_ids[:size] = insert_ids
            b.size = size
        if off != len(raw):
            raise FormatError(f"{path}: {len(raw) - off} trailing bytes")
        if idx.capacity is not None and idx.size() > idx.capacity:
            raise FormatError(f"{path}: {idx.size()} entries exceed capacity {idx.capacity}")
        return idx


def _exact_topk_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Row-wise exact top-k indices of ``scores`` [Q, n] for 1 <= k <= n,
    descending, ties by lower column index. Assumes index order equals
    insertion order. A NaN score has no rank and raises NumericError."""
    q, n = scores.shape
    g = max(1, min(_GROUP, n // (2 * k)))
    m = n // g  # >= k groups; >= 2k where n allows, which keeps the bound tight
    gmax = scores[:, :g * m].reshape(q, g, m).max(axis=1)
    if np.isnan(gmax).any() or np.isnan(scores[:, g * m:]).any():
        raise NumericError("NaN top-k score: a query or a stored key is NaN")
    lb = np.partition(gmax, m - k, axis=1)[:, m - k, None]
    flat = np.flatnonzero(scores >= lb)
    row, col = divmod(flat, n)
    # flat lists each row's columns ascending and lexsort is stable, so equal
    # scores keep the lower column first
    order = np.lexsort((-scores.take(flat), row))
    return col[order[np.searchsorted(row, np.arange(q))[:, None] + np.arange(k)]]


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
