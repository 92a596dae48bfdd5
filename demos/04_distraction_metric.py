"""The distraction metric r: share of planned-context attention mass that
lands on the query's own previous window.

An untrained model spreads its mass evenly, so r sits near 1/d however many
contexts d it is exposed to. Crossbatch training is what pushes r up.

Run:  python3 demos/04_distraction_metric.py
"""

import numpy as np

from fot.analysis import distraction_eval
from fot.config import get_preset
from fot.model import Transformer
from fot.tasks import encode_bytes, gen_text_corpus

cfg = get_preset("desk-byte")
cfg.model.local_ctx_len = 64         # small windows keep the demo quick
model = Transformer(cfg.model, seed=0)


def doc_iter(seed):
    for text in gen_text_corpus(600, 3 * 64, seed=seed):
        toks = encode_bytes(text)[: 2 * 64]
        yield toks, np.ones(len(toks))


print("untrained model, synthetic text, exposure to d contexts:")
print(f"{'d':>4} {'r':>8} {'1/d':>8} {'band [0.5/d, 3/d]':>22} {'queries':>8}")
for d in (4, 8, 16):
    rep = distraction_eval(model, doc_iter(d), d, min_queries=800)
    lo, hi = 0.5 / d, 3.0 / d
    mark = "ok" if lo <= rep.r <= hi else "OUT"
    print(f"{d:>4} {rep.r:>8.4f} {1/d:>8.4f} {f'[{lo:.4f}, {hi:.4f}] {mark}':>22} "
          f"{rep.n_queries:>8}")

print("\nper-context share at d=8 (context 1 is the positive):")
rep = distraction_eval(model, doc_iter(8), 8, min_queries=400)
print(" ", np.round(rep.per_context_share, 4))
