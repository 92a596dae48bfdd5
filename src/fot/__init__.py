"""Desk-scale long-context transformer lab.

Library layout:

- ``numerics``  tape-based reverse-mode tensor engine on numpy
- ``memstore``  exact inner-product top-k index of (key, value) pairs
- ``model``     decoder-only transformer with memory attention layers
- ``pipeline``  crossbatch batching: slots, previous contexts, plans
- ``tasks``     dictionary lookup, passkey retrieval, byte-level corpora
- ``analysis``  distraction metric, perplexity, accuracy
- ``training``  optimizers, schedules, the training loop
- ``cli``       train / eval / sweep / gen-data / inspect entry points
"""

__version__ = "0.1.0"
