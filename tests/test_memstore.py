"""Exact kNN store: append/search semantics, oracle equality, persistence."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fot.errors import CapacityError, FormatError, NumericError, ShapeError
from fot.memstore import MemoryEntry, MemoryIndex, brute_force_topk


def make_index(**kw):
    return MemoryIndex(memory_layers=[2], n_heads=2, head_dim=8, **kw)


def entry(key, doc=0, pos=0, head=0):
    k = np.asarray(key, dtype=np.float32)
    return MemoryEntry(2, head, k, -k, doc, pos)


def test_append_zero_and_n():
    idx = make_index()
    assert idx.append([]) == 0
    idx.append([entry(np.arange(8), pos=i) for i in range(3)])
    assert idx.size() == 3


def test_self_match_tops_for_unit_keys():
    idx = make_index()
    rng = np.random.default_rng(0)
    keys = rng.standard_normal((10, 8)).astype(np.float32)
    keys /= np.linalg.norm(keys, axis=1, keepdims=True)
    idx.append([entry(keys[i], pos=i) for i in range(10)])
    hits = idx.topk_entries(2, 0, keys[4], k=1)
    assert hits[0][0].position == 4


def test_topk_empty_and_single():
    idx = make_index()
    assert idx.topk_entries(2, 0, np.ones(8, np.float32), 5) == []
    idx.append([entry(np.ones(8), pos=9)])
    hits = idx.topk_entries(2, 0, np.ones(8, np.float32), 5)
    assert len(hits) == 1 and hits[0][0].position == 9


def test_topk_matches_brute_force_oracle():
    rng = np.random.default_rng(1)
    n, q, k, dim = 3000, 40, 64, 8
    keys = rng.standard_normal((n, dim)).astype(np.float32)
    vals = rng.standard_normal((n, dim)).astype(np.float32)
    idx = MemoryIndex([0], n_heads=1, head_dim=dim)
    idx.append_block(0, keys[None], vals[None], doc_id=0, positions=np.arange(n))
    queries = rng.standard_normal((1, q, dim)).astype(np.float32)
    res = idx.topk(0, queries, k)
    oracle_idx, oracle_scores = brute_force_topk(keys, queries[0], k)
    np.testing.assert_array_equal(res.indices[0], oracle_idx)
    np.testing.assert_array_equal(res.scores[0], oracle_scores)


@st.composite
def topk_cases(draw):
    """(keys [n, 4], queries [Q, 4], k) with n on both sides of the group-size
    boundaries of the selection bound (n = 2k and n = 32k, see the module
    docstring), k = 1, k = n, and key sets with exact ties."""
    k = draw(st.integers(1, 12))
    n = max(1, draw(st.sampled_from([2, 32])) * k + draw(st.integers(-20, 20)))
    k = draw(st.sampled_from([1, min(k, n), n]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "integer", "constant", "blocks"]))
    q = draw(st.integers(1, 4))
    if kind == "normal":
        keys, queries = rng.standard_normal((n, 4)), rng.standard_normal((q, 4))
    else:  # integer keys and queries: inner products are exact, so ties are real
        keys, queries = rng.integers(-2, 3, (n, 4)), rng.integers(-2, 3, (q, 4))
    if kind == "constant":  # every score ties: the bound admits whole rows
        keys[:] = 1
    elif kind == "blocks":  # column c holds key c // m: every group holds the same keys
        m = n // max(1, min(16, n // (2 * k)))
        keys = rng.integers(-2, 3, (16, 4))[np.arange(n) // m % 16]
    return keys.astype(np.float32), queries.astype(np.float32), k


@settings(max_examples=150, deadline=None)
@given(topk_cases())
def test_topk_equals_brute_force_property(case):
    keys, queries, k = case
    idx = MemoryIndex([0], n_heads=1, head_dim=4)
    idx.append_block(0, keys[None], keys[None], doc_id=0, positions=np.arange(len(keys)))
    res = idx.topk(0, queries[None], k)
    oracle_idx, oracle_scores = brute_force_topk(keys, queries, k)
    np.testing.assert_array_equal(res.indices[0], oracle_idx)
    np.testing.assert_array_equal(res.scores[0], oracle_scores)
    np.testing.assert_array_equal(res.keys[0], keys[oracle_idx])


@pytest.mark.parametrize("n", [10, 3000])  # all columns in the tail / in groups
def test_nan_query_or_key_raises_numeric_error(n):
    rng = np.random.default_rng(5)
    keys = rng.standard_normal((n, 8)).astype(np.float32)
    queries = rng.standard_normal((1, 6, 8)).astype(np.float32)

    def index(keys):
        idx = MemoryIndex([0], n_heads=1, head_dim=8)
        idx.append_block(0, keys[None], keys[None], doc_id=0, positions=np.arange(n))
        return idx

    one_nan = queries.copy()
    one_nan[0, 2, 3] = np.nan
    for bad in (one_nan, np.full_like(queries, np.nan)):
        with pytest.raises(NumericError):
            index(keys).topk(0, bad, 4)
    keys[n // 2, 0] = np.nan
    with pytest.raises(NumericError):
        index(keys).topk(0, queries, 4)


def test_tie_break_prefers_lower_insertion_index():
    idx = MemoryIndex([0], n_heads=1, head_dim=4)
    key = np.ones((1, 1, 4), dtype=np.float32)
    # identical keys appended in order: 0, 1, 2
    for i in range(3):
        idx.append_block(0, key, key, doc_id=i, positions=[i])
    res = idx.topk(0, np.ones((1, 1, 4), dtype=np.float32), 2)
    np.testing.assert_array_equal(res.indices[0, 0], [0, 1])


def test_scores_are_recomputable_inner_products():
    rng = np.random.default_rng(2)
    keys = rng.standard_normal((50, 8)).astype(np.float32)
    idx = MemoryIndex([0], 1, 8)
    idx.append_block(0, keys[None], keys[None], 0, np.arange(50))
    q = rng.standard_normal((1, 3, 8)).astype(np.float32)
    res = idx.topk(0, q, 5)
    # recomputing q @ K^T from the stored keys reproduces the scores exactly
    full = q[0] @ keys.T
    np.testing.assert_array_equal(res.scores[0], np.take_along_axis(full, res.indices[0], axis=1))
    # and they agree with plain per-pair dots to f32 roundoff
    for j in range(3):
        for r in range(5):
            dot = float(q[0, j].astype(np.float64) @ keys[res.indices[0, j, r]].astype(np.float64))
            assert abs(res.scores[0, j, r] - dot) < 1e-5


def test_reset_doc_and_clear():
    idx = make_index()
    assert idx.clear() == 0
    idx.append([entry(np.arange(8), doc=7, pos=i) for i in range(3)])
    idx.append([entry(np.arange(8) + 1, doc=8, pos=i) for i in range(2)])
    assert idx.stats()["per_doc"] == {7: 3, 8: 2}
    assert idx.reset_doc(99) == 5  # unknown doc is a no-op
    assert idx.reset_doc(7) == 2
    hits = idx.topk_entries(2, 0, np.ones(8, np.float32), 10)
    assert all(h[0].doc_id == 8 for h in hits)
    assert idx.clear() == 0


def test_reset_doc_preserves_unrelated_topk():
    rng = np.random.default_rng(3)
    idx = MemoryIndex([0], 1, 8)
    keys_a = rng.standard_normal((20, 8)).astype(np.float32) - 5.0  # poor matches
    keys_b = rng.standard_normal((20, 8)).astype(np.float32) + 5.0
    idx.append_block(0, keys_a[None], keys_a[None], doc_id=0, positions=np.arange(20))
    idx.append_block(0, keys_b[None], keys_b[None], doc_id=1, positions=np.arange(20))
    q = np.ones((1, 4, 8), dtype=np.float32)
    before = idx.topk(0, q, 5)
    assert (before.doc_ids == 1).all()
    idx.reset_doc(0)
    after = idx.topk(0, q, 5)
    np.testing.assert_array_equal(before.positions, after.positions)
    np.testing.assert_array_equal(before.scores, after.scores)


def test_stats_counts_sum_to_size():
    idx = make_index()
    assert idx.stats() == {"size": 0, "per_doc": {}, "per_layer": {2: 0}}
    idx.append([entry(np.arange(8), doc=7, pos=i) for i in range(3)])
    st = idx.stats()
    assert sum(st["per_doc"].values()) == st["size"] == 3
    assert sum(st["per_layer"].values()) == st["size"]


def test_monotone_growth_without_resets():
    idx = MemoryIndex([0], 1, 4)
    sizes = []
    for i in range(5):
        k = np.full((1, 3, 4), i, dtype=np.float32)
        sizes.append(idx.append_block(0, k, k, doc_id=i, positions=np.arange(3)))
    assert sizes == sorted(sizes) and sizes[-1] == 15


def test_capacity_cap_is_hard():
    idx = MemoryIndex([0], 1, 4, capacity=4)
    k = np.ones((1, 4, 4), dtype=np.float32)
    idx.append_block(0, k, k, 0, np.arange(4))
    with pytest.raises(CapacityError):
        idx.append_block(0, k[:, :1], k[:, :1], 0, [9])


def test_geometry_mismatch_rejected():
    idx = make_index()
    with pytest.raises(ShapeError):
        idx.append([MemoryEntry(5, 0, np.ones(8, np.float32), np.ones(8, np.float32), 0, 0)])
    with pytest.raises(ShapeError):
        idx.append([entry(np.ones(3))])
    with pytest.raises(ShapeError):
        idx.append_block(2, np.ones((1, 2, 8)), np.ones((1, 2, 8)), 0, [0, 1])


def test_neighborhood_window():
    idx = MemoryIndex([0], 1, 4)
    keys = np.arange(40, dtype=np.float32).reshape(10, 4)
    idx.append_block(0, keys[None], keys[None], doc_id=3, positions=np.arange(10) * 2)
    ks, pos, center = idx.neighborhood(0, 0, doc_id=3, position=8, radius=5)
    np.testing.assert_array_equal(pos, [4, 6, 8, 10, 12])
    assert center == 2


def test_dump_load_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    idx = make_index(capacity=1000)
    keys = rng.standard_normal((2, 6, 8)).astype(np.float32)
    idx.append_block(2, keys, -keys, doc_id=5, positions=np.arange(6))
    path = tmp_path / "mem.fotm"
    idx.dump(path)
    back = MemoryIndex.load(path)
    assert back.size() == idx.size()
    assert back.capacity == 1000
    q = rng.standard_normal((2, 3, 8)).astype(np.float32)
    a, b = idx.topk(2, q, 4), back.topk(2, q, 4)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.scores, b.scores)
    np.testing.assert_array_equal(a.doc_ids, b.doc_ids)


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOPE" + b"\0" * 32)
    with pytest.raises(FormatError):
        MemoryIndex.load(p)


def test_load_rejects_every_truncation_and_header_bit_flip(tmp_path):
    rng = np.random.default_rng(6)
    idx = MemoryIndex([2, 3], n_heads=2, head_dim=4, capacity=100)
    keys = rng.standard_normal((2, 3, 4)).astype(np.float32)
    idx.append_block(2, keys, -keys, doc_id=1, positions=np.arange(3))
    idx.append([MemoryEntry(3, 1, keys[0, 0], keys[0, 1], 2, 7)])  # (3, 0) stays empty
    path = tmp_path / "mem.fotm"
    idx.dump(path)
    raw = path.read_bytes()
    # header fields with no free value: magic, version, geometry, layer ids,
    # bucket count, then every bucket's (layer, head, size)
    header = [*range(0, 28), *range(44, 48)]
    off = 48
    for _ in range(4):
        size = struct.unpack_from("<q", raw, off + 8)[0]
        header += range(off, off + 16)
        off += 16 + size * (2 * 4 * 4 + 3 * 8)
    assert off == len(raw)
    bad = [raw[:i] for i in range(len(raw))]
    bad += [raw[:i] + bytes([raw[i] ^ 1 << bit]) + raw[i + 1:] for i in header for bit in range(8)]
    for blob in bad:
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            MemoryIndex.load(path)
