"""A short crossbatch training run on the dictionary-lookup task.

Every batch slot carries its own document; memory layers attend to the
slot's previous window (the definitions, a positive) and to other slots'
previous windows (negatives). Loss applies only to the value tokens of
query records, so it starts at ln(60) and stays there until retrieval
through the memory layer starts working.

Run:  python3 demos/03_crossbatch_training.py  [steps]
"""

import sys
import time

import numpy as np

from fot.analysis import dict_eval_accuracy
from fot.config import get_preset
from fot.model import Transformer, crossbatch_grad_step
from fot.pipeline import CrossbatchPipeline
from fot.training import Adam, clip_global_norm, inverse_sqrt_lr, make_doc_stream

STEPS = int(sys.argv[1]) if len(sys.argv) > 1 else 120

cfg = get_preset("dict-small")
cfg.b_s, cfg.d, cfg.steps = 16, 2, STEPS
cfg.max_lr, cfg.min_lr, cfg.warmup_steps = 3e-3, 3e-5, 50

model = Transformer(cfg.model, seed=0)
pipe = CrossbatchPipeline(make_doc_stream(cfg), cfg.b_s, cfg.model.local_ctx_len,
                          cfg.schedule(), w=cfg.w, seed=cfg.seed)
opt = Adam(model.params, cfg.beta1, cfg.beta2, cfg.adam_eps)

print(f"{STEPS} steps of d={cfg.d} crossbatch on 512-token dictionary documents")
print(f"uniform-loss floor is ln(60) = {np.log(60):.3f}\n")
t0 = time.time()
step = 0
while step < STEPS:
    batch = pipe.next_batch()
    if batch.cur_mask.sum() == 0:
        continue  # definition window: becomes the next step's positive context
    plan = pipe.build_plan(step, batch)
    model.zero_grads()
    loss, records = crossbatch_grad_step(model, batch, plan, collect_records=step % 40 == 0)
    clip_global_norm(model.params, 1.0)
    opt.step(inverse_sqrt_lr(step, cfg.max_lr, cfg.min_lr, cfg.warmup_steps))
    if step % 40 == 0:
        rec = records[0]
        pos = rec.per_context[..., 0].mean()
        neg = rec.per_context[..., 1:].sum(-1).mean()
        print(f"step {step:4d}  loss {loss:.4f}  attention mass: "
              f"local {rec.mass_local.mean():.3f}  positive {pos:.3f}  negative {neg:.3f}")
    step += 1

acc = dict_eval_accuracy(model, 512, n_docs=4, k=32, seed=7)
print(f"\nafter {STEPS} steps ({time.time()-t0:.0f}s): "
      f"train-length accuracy {acc.accuracy:.3f} over {acc.n_queries} queries")
print("(see demos/05 for a fully trained model and long-memory evaluation)")
