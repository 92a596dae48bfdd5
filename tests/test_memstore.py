"""Exact kNN store: append/search semantics, oracle equality, persistence."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fot.errors import DataError, FormatError, NumericError, ShapeError, UsageError
from fot.memstore import MAGIC, MemoryIndex, brute_force_topk


def make_index(**kw):
    return MemoryIndex(memory_layers=[2], n_heads=2, head_dim=8, **kw)


def block(keys, doc=0, positions=None):
    """append_block arguments for layer 2 of ``make_index``: the [T, 8] keys
    go to both heads, with their negation as values."""
    k = np.broadcast_to(np.asarray(keys, dtype=np.float32), (2, len(keys), 8))
    return 2, k, -k, doc, np.arange(len(keys)) if positions is None else positions


def test_append_zero_and_n():
    idx = make_index()
    assert idx.append_block(*block(np.empty((0, 8)))) == 0
    assert idx.append_block(*block(np.tile(np.arange(8), (3, 1)))) == 6  # 3 tokens x 2 heads
    assert idx.size() == 6 and idx.layer_size(2) == 3


def test_self_match_tops_for_unit_keys():
    idx = make_index()
    rng = np.random.default_rng(0)
    keys = rng.standard_normal((10, 8)).astype(np.float32)
    keys /= np.linalg.norm(keys, axis=1, keepdims=True)
    idx.append_block(*block(keys))
    res = idx.topk(2, np.stack([keys[4:5], keys[4:5]]), k=1)
    np.testing.assert_array_equal(res.positions, [[[4]], [[4]]])


def test_topk_empty_and_single():
    idx = make_index()
    q = np.ones((2, 3, 8), np.float32)
    res = idx.topk(2, q, 5)
    assert res.k == 0 and res.indices.shape == res.positions.shape == (2, 3, 0)
    assert res.keys.shape == (2, 3, 0, 8)
    idx.append_block(*block(np.ones((1, 8)), positions=[9]))
    res = idx.topk(2, q, 5)
    assert res.k == 1 and (res.positions == 9).all() and (res.scores == 8).all()
    np.testing.assert_array_equal(res.values, -np.ones((2, 3, 1, 8)))


def test_topk_rejects_a_negative_k():
    idx = make_index()
    idx.append_block(*block(np.ones((1, 8))))
    with pytest.raises(UsageError, match="k must be >= 0"):
        idx.topk(2, np.ones((2, 3, 8), np.float32), -1)


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
    idx.append_block(*block(np.tile(np.arange(8), (3, 1)), doc=7))
    idx.append_block(*block(np.tile(np.arange(8) + 1, (2, 1)), doc=8))
    assert idx.stats()["per_doc"] == {7: 6, 8: 4}
    res = idx.topk(2, np.ones((2, 1, 8), np.float32), 10)
    assert res.k == 5
    np.testing.assert_array_equal(res.doc_ids, np.broadcast_to([8, 8, 7, 7, 7], (2, 1, 5)))
    assert idx.clear() == 0 and idx.topk(2, np.ones((2, 1, 8), np.float32), 10).k == 0


def test_stats_counts_sum_to_size():
    idx = make_index()
    assert idx.stats() == {"size": 0, "per_doc": {}, "per_layer": {2: 0}}
    idx.append_block(*block(np.tile(np.arange(8), (3, 1)), doc=7))
    idx.append_block(*block(np.ones((2, 8)), doc=9))
    st = idx.stats()
    assert st == {"size": 10, "per_doc": {7: 6, 9: 4}, "per_layer": {2: 10}}
    assert sum(st["per_doc"].values()) == sum(st["per_layer"].values()) == st["size"]


def test_monotone_growth_without_resets():
    idx = MemoryIndex([0], 1, 4)
    sizes = []
    for i in range(5):
        k = np.full((1, 3, 4), i, dtype=np.float32)
        sizes.append(idx.append_block(0, k, k, doc_id=i, positions=np.arange(3)))
    assert sizes == sorted(sizes) and sizes[-1] == 15


def test_geometry_mismatch_rejected():
    idx = make_index()
    ones = np.ones((2, 2, 8), np.float32)
    with pytest.raises(ShapeError):  # unknown layer
        idx.append_block(5, ones, ones, 0, [0, 1])
    with pytest.raises(ShapeError):  # wrong H
        idx.append_block(2, ones[:1], ones[:1], 0, [0, 1])
    with pytest.raises(ShapeError):  # wrong head_dim
        idx.append_block(2, ones[..., :3], ones[..., :3], 0, [0, 1])
    with pytest.raises(ShapeError):  # one position per token
        idx.append_block(2, ones, ones, 0, [0])
    idx.append_block(2, ones, ones, 0, [0, 1])
    for layer, q in ((5, ones), (2, ones[:1]), (2, ones[..., :3])):
        with pytest.raises(ShapeError):
            idx.topk(layer, q, 1)
    assert idx.size() == 4


def test_dump_load_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    idx = MemoryIndex([2, 3], n_heads=2, head_dim=8)  # layer 3 stays empty
    for doc in range(3):
        keys = rng.standard_normal((2, 6, 8)).astype(np.float32)
        idx.append_block(2, keys, rng.standard_normal((2, 6, 8)), doc_id=doc,
                         positions=np.arange(6) + 10 * doc)
    path = tmp_path / "mem.fotm"
    idx.dump(path)
    back = MemoryIndex.load(path)
    assert (back.size(), back.stats()) == (idx.size(), idx.stats())
    q = rng.standard_normal((2, 3, 8)).astype(np.float32)
    for layer in (2, 3):
        a, b = idx.topk(layer, q, 4), back.topk(layer, q, 4)
        assert a.k == b.k == (4 if layer == 2 else 0)
        for name in ("indices", "scores", "keys", "values", "doc_ids", "positions"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_load_of_a_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read memory index"):
        MemoryIndex.load(tmp_path / "missing.fotm")


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOPE" + b"\0" * 32)
    with pytest.raises(FormatError):
        MemoryIndex.load(p)


def test_load_rejects_version_1(tmp_path):
    # an empty one-layer, one-head index in the version-1 layout: geometry,
    # layer ids, insert counter and capacity, then per-(layer, head) buckets
    p = tmp_path / "v1.fotm"
    p.write_bytes(MAGIC + struct.pack("<IIIIIqqIIIq", 1, 1, 1, 4, 0, 0, -1, 1, 0, 0, 0))
    with pytest.raises(FormatError, match="version 1"):
        MemoryIndex.load(p)


def test_load_rejects_version_2(tmp_path):
    # an empty one-layer, one-head index in the version-2 layout: geometry,
    # layer ids and an i64 capacity, then per-layer (layer, size) records
    p = tmp_path / "v2.fotm"
    p.write_bytes(MAGIC + struct.pack("<IIIIIqIq", 2, 1, 1, 4, 0, -1, 0, 0))
    with pytest.raises(FormatError, match="version 2"):
        MemoryIndex.load(p)


def test_load_rejects_every_truncation_and_header_bit_flip(tmp_path):
    rng = np.random.default_rng(6)
    idx = MemoryIndex([2, 3], n_heads=2, head_dim=4)  # layer 3 stays empty
    keys = rng.standard_normal((2, 3, 4)).astype(np.float32)
    idx.append_block(2, keys, -keys, doc_id=1, positions=np.arange(3))
    path = tmp_path / "mem.fotm"
    idx.dump(path)
    raw = path.read_bytes()
    # every header byte: magic, version, geometry and layer ids (bytes 0-27),
    # then every layer's (layer, size) record
    header = [*range(0, 28)]
    off = 28
    for _ in range(2):
        size = struct.unpack_from("<q", raw, off + 4)[0]
        header += range(off, off + 12)
        off += 12 + size * (2 * 2 * 4 * 4 + 2 * 8)
    assert off == len(raw)
    bad = [raw[:i] for i in range(len(raw))]
    bad += [raw[:i] + bytes([raw[i] ^ 1 << bit]) + raw[i + 1:] for i in header for bit in range(8)]
    for blob in bad:
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            MemoryIndex.load(path)

