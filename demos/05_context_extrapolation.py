"""Dictionary-lookup accuracy as memory grows far past the training length.

Loads a trained checkpoint (train one with the recipe below) and evaluates
teacher-forced accuracy on documents whose definition region extends to many
thousands of tokens, while the final 256-token question block stays fixed.

    fot train --preset dict-small --override steps=... --out runs/dict
    python3 demos/05_context_extrapolation.py runs/dict/final.fotc

Without an argument it evaluates an untrained dict-small model, just to show
the harness mechanics (accuracy will be near zero).
"""

import sys

from fot.analysis import dict_eval_accuracy
from fot.config import get_preset
from fot.model import Transformer, load_checkpoint

if len(sys.argv) > 1:
    cfg, params = load_checkpoint(sys.argv[1])
    model = Transformer(cfg, params=params)
    print(f"loaded {sys.argv[1]}")
else:
    print("no checkpoint given; using an untrained dict-small model")
    model = Transformer(get_preset("dict-small").model, seed=0)

t = model.cfg.local_ctx_len
print(f"\n{'memory tokens':>14} {'accuracy':>9} {'queries':>8}")
for memory in (t, 4 * t, 16 * t, 64 * t):
    res = dict_eval_accuracy(model, memory + t, n_docs=2, k=32, seed=0)
    print(f"{memory:>14} {res.accuracy:>9.3f} {res.n_queries:>8}")
print("\n(the local-only baseline path: pass use_memory=False to"
      " dict_eval_accuracy, which runs one long rotary context instead)")
