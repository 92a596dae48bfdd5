"""Byte-level perplexity against memory caps, per document and across documents.

Run:  python3 demos/06_perplexity_and_scores.py
"""

from fot.analysis import perplexity_eval
from fot.config import get_preset
from fot.model import Transformer
from fot.tasks import encode_bytes, gen_text_corpus

cfg = get_preset("desk-byte")
cfg.model.local_ctx_len = 64
model = Transformer(cfg.model, seed=0)

docs = [(i, encode_bytes(d)) for i, d in enumerate(gen_text_corpus(4, 600, seed=1))]

print("untrained byte model: perplexity should sit at vocab size (256)")
print(f"{'memory cap':>10} {'ppl':>9} {'tokens':>7}")
for cap in (0, 64, 256):
    res = perplexity_eval(model, docs, "single_doc", k=16, memory_token_cap=cap)
    print(f"{cap:>10} {res.ppl:>9.2f} {res.n_tokens:>7}")

res_multi = perplexity_eval(model, docs, "multi_doc", k=16)
print(f"multi-doc (no resets): ppl {res_multi.ppl:.2f} over {res_multi.n_tokens} tokens")
