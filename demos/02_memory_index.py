"""The exact top-k memory index: appends, search, dump round-trip.

Run:  python3 demos/02_memory_index.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from fot.memstore import MemoryIndex, brute_force_topk

rng = np.random.default_rng(0)
HEAD_DIM = 64

idx = MemoryIndex(memory_layers=[2], n_heads=1, head_dim=HEAD_DIM)

print("filling with 50k random keys across 5 documents...")
all_keys = []
for doc in range(5):
    keys = rng.standard_normal((1, 10_000, HEAD_DIM)).astype(np.float32)
    idx.append_block(2, keys, -keys, doc_id=doc, positions=np.arange(10_000))
    all_keys.append(keys[0])
print("stats:", {k: (v if k != "per_doc" else dict(list(v.items())[:3]))
                 for k, v in idx.stats().items()})

queries = rng.standard_normal((1, 64, HEAD_DIM)).astype(np.float32)
t0 = time.perf_counter()
res = idx.topk(2, queries, k=128)
dt = time.perf_counter() - t0
print(f"topk(k=128) over {idx.layer_size(2)} keys x 64 queries: {dt*1e3:.1f} ms")

# cross-check a few queries against the brute-force oracle over the keys
# appended above, in append order
oracle_idx, oracle_scores = brute_force_topk(np.concatenate(all_keys), queries[0, :4], 128)
assert (res.indices[0, :4] == oracle_idx).all()
print("first 4 queries match the brute-force oracle exactly")

print("\nscores are plain inner products, descending:")
print(" ", np.round(res.scores[0, 0, :6], 3))

print("\nround-trip through the FOTM dump format:")
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.fotm"
    idx.dump(path)
    back = MemoryIndex.load(path)
res2 = back.topk(2, queries, k=8)
assert (res2.indices == idx.topk(2, queries, k=8).indices).all()
print("  reloaded index returns identical results")
