"""Synthetic task generators and the byte-level text corpus loader.

All generators are pure functions of (config, seed): same inputs, same
tokens. Dictionary documents follow the record format

    <k> k1 k2 k3 k4 <v> v1 v2 v3 v4        (definition)
    <q> k1 k2 k3 k4 <v> v1 v2 v3 v4        (query; loss on v1..v4 only)

with special ids at the top of the vocab and a pad id right below them so
that 10-token records tile fixed-size windows. One layout serves training
and evaluation: whole definition windows, then one question window.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import cycle
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

# dictionary task token ids (vocab 64)
KEY_TOKEN = 61
VALUE_TOKEN = 62
QUERY_TOKEN = 63
PAD_TOKEN = 60  # ids 0..59 carry key/value content
KEY_LEN = 4
VAL_LEN = 4
RECORD_LEN = 2 + KEY_LEN + VAL_LEN
PASSKEY_DIGITS = 5

BYTE_VOCAB = 256
DEFAULT_DOC_DELIMITER = "<<<DOC>>>"


@dataclass
class DictTaskConfig:
    doc_len: int = 512
    seed: int = 0

    def validate(self) -> None:
        if self.doc_len % 2:
            raise ConfigError("doc_len must be even (definition half + query half)")


@dataclass
class DictQuery:
    key: tuple[int, ...]
    value: tuple[int, ...]
    value_positions: np.ndarray  # positions of v1..v4 within the document


@dataclass
class DictDoc:
    tokens: np.ndarray      # [doc_len] int64
    loss_mask: np.ndarray   # [doc_len] 1.0 exactly on query-record value tokens
    definitions: dict[tuple[int, ...], tuple[int, ...]]
    queries: list[DictQuery]


def _fill_records(buf: np.ndarray, mask: np.ndarray, start: int, length: int,
                  records: list[tuple[int, tuple[int, ...], tuple[int, ...]]],
                  queries_out: list[DictQuery]) -> None:
    """Write whole records into buf[start:start+length], pad the remainder;
    each query record is appended to ``queries_out``."""
    pos = start
    for marker, key, value in records:
        buf[pos] = marker
        buf[pos + 1:pos + 1 + len(key)] = key
        vstart = pos + 1 + len(key)
        buf[vstart] = VALUE_TOKEN
        buf[vstart + 1:vstart + 1 + len(value)] = value
        if marker == QUERY_TOKEN:
            vpos = np.arange(vstart + 1, vstart + 1 + len(value))
            mask[vpos] = 1.0
            queries_out.append(DictQuery(key, value, vpos))
        pos += 2 + len(key) + len(value)
    buf[pos:start + length] = PAD_TOKEN


def _draw_distinct_keys(rng: np.random.Generator, n: int) -> list[tuple[int, ...]]:
    keys: list[tuple[int, ...]] = []
    seen = set()
    while len(keys) < n:
        cand = tuple(int(t) for t in rng.integers(0, PAD_TOKEN, size=KEY_LEN))
        if cand in seen:
            continue  # duplicate definition: retry with a fresh key
        seen.add(cand)
        keys.append(cand)
    return keys


def gen_dict_lookup(cfg: DictTaskConfig, total_len: int | None = None,
                    rng: np.random.Generator | None = None) -> DictDoc:
    """One dictionary-lookup document of ``total_len`` tokens (default doc_len).

    Definitions fill whole windows of doc_len / 2 tokens up to a final
    question block of doc_len / 2 tokens, so the number of questions stays
    fixed while the context grows. At total_len = doc_len this is a training
    document: one definition window, then the questions.
    """
    cfg.validate()
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    win = cfg.doc_len // 2
    per_win = win // RECORD_LEN
    if per_win < 1:
        raise ConfigError("document too short for a single record per section")
    length = cfg.doc_len if total_len is None else total_len
    if length < cfg.doc_len or length % win:
        raise ConfigError(f"total_len {length} is not doc_len {cfg.doc_len} plus a "
                          f"multiple of the {win}-token definition window")
    n_wins = length // win - 1
    n_defs = n_wins * per_win

    keys = _draw_distinct_keys(rng, n_defs)
    values = [tuple(int(t) for t in rng.integers(0, PAD_TOKEN, size=VAL_LEN))
              for _ in range(n_defs)]
    definitions = dict(zip(keys, values))

    tokens = np.empty(length, dtype=np.int64)
    mask = np.zeros(length, dtype=np.float64)
    queries: list[DictQuery] = []

    def_records = [(KEY_TOKEN, k, definitions[k]) for k in keys]
    for i in range(n_wins):
        _fill_records(tokens, mask, i * win, win,
                      def_records[i * per_win:(i + 1) * per_win], queries)

    picked = rng.permutation(n_defs)[:per_win]
    q_records = [(QUERY_TOKEN, keys[i], definitions[keys[i]]) for i in picked]
    _fill_records(tokens, mask, n_wins * win, win, q_records, queries)
    return DictDoc(tokens, mask, definitions, queries)


def parse_dict_doc(tokens: np.ndarray):
    """Independent oracle: re-parse an emitted document into (definitions,
    queries) by scanning for record markers. Used to cross-check the
    generator, so it shares no code with it beyond the token ids."""
    key_len, val_len = 4, 4
    rec = 2 + key_len + val_len
    defs: dict[tuple[int, ...], tuple[int, ...]] = {}
    queries: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    i = 0
    n = len(tokens)
    while i + rec <= n:
        t = tokens[i]
        if t in (KEY_TOKEN, QUERY_TOKEN):
            key = tuple(int(x) for x in tokens[i + 1:i + 1 + key_len])
            assert tokens[i + 1 + key_len] == VALUE_TOKEN
            val = tuple(int(x) for x in tokens[i + 2 + key_len:i + 2 + key_len + val_len])
            if t == KEY_TOKEN:
                assert key not in defs, "key defined twice"
                defs[key] = val
            else:
                queries.append((key, val))
            i += rec
        else:
            assert t == PAD_TOKEN, f"unexpected token {t} at {i}"
            i += 1
    return defs, queries


def dict_training_stream(cfg: DictTaskConfig, seed: int):
    """Infinite iterator of (tokens, loss_mask) documents for the pipeline."""
    rng = np.random.default_rng([seed, cfg.seed])
    while True:
        doc = gen_dict_lookup(cfg, rng=rng)
        yield doc.tokens, doc.loss_mask


# ---------------------------------------------------------------------------
# passkey retrieval
# ---------------------------------------------------------------------------

_FILLER_SENTENCES = [
    "The sky stays wide and quiet over the valley. ",
    "A gray road runs along the river without turning. ",
    "Nothing moves except slow clouds in the afternoon. ",
    "The old fence keeps leaning the way it always has. ",
    "Grass grows between the stones near the gate. ",
]

_PASSKEY_SENTENCE = "The pass key is {key}. Remember it. "
_PASSKEY_QUESTION = "What is the pass key? The pass key is"


@dataclass
class PasskeyTaskConfig:
    prompt_len: int = 1024          # bytes
    passkey: str | None = None      # fixed digits; None draws per prompt
    seed: int = 0


@dataclass
class PasskeyPrompt:
    tokens: np.ndarray   # [prompt_len] byte ids
    answer: str          # digit string
    insertion_offset: int


def gen_passkey(cfg: PasskeyTaskConfig, rng: np.random.Generator | None = None) -> PasskeyPrompt:
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    key = cfg.passkey if cfg.passkey is not None else \
        "".join(str(int(d)) for d in rng.integers(0, 10, size=PASSKEY_DIGITS))
    key_sentence = _PASSKEY_SENTENCE.format(key=key)
    needed = cfg.prompt_len - len(key_sentence) - len(_PASSKEY_QUESTION)
    if needed < 0:
        raise ConfigError("prompt_len shorter than the passkey block")
    filler = ""
    i = 0
    while len(filler) < needed:
        filler += _FILLER_SENTENCES[i % len(_FILLER_SENTENCES)]
        i += 1
    filler = filler[:needed]
    offset = int(rng.integers(0, needed + 1))
    text = filler[:offset] + key_sentence + filler[offset:] + _PASSKEY_QUESTION
    tokens = np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.int64)
    assert tokens.shape[0] == cfg.prompt_len
    return PasskeyPrompt(tokens, key, offset)


def find_passkey(tokens: np.ndarray) -> list[str]:
    """String-search oracle: every digit run following the announce phrase."""
    text = bytes(int(t) for t in tokens).decode("utf-8", errors="replace")
    return re.findall(r"The pass key is (\d+)\.", text)


# ---------------------------------------------------------------------------
# byte-level corpora
# ---------------------------------------------------------------------------

@dataclass
class CorpusStream:
    docs: list[np.ndarray] = field(default_factory=list)
    doc_ids: list[int] = field(default_factory=list)

    def __iter__(self):
        return iter(zip(self.doc_ids, self.docs))

    def __len__(self) -> int:
        return len(self.docs)


def encode_bytes(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.int64)


def decode_bytes(tokens: np.ndarray) -> str:
    return bytes(int(t) & 0xFF for t in tokens).decode("utf-8", errors="strict")


def load_corpus(path, min_doc_len: int = 0,
                delimiter: str = DEFAULT_DOC_DELIMITER) -> CorpusStream:
    """Read a UTF-8 text file of documents separated by a delimiter line.

    Documents shorter than min_doc_len bytes are dropped. Byte round-trip is
    exact: decode(encode(doc)) == doc.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read corpus {p}: {e}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"corpus {p} is not UTF-8: {e}") from e
    stream = CorpusStream()
    next_id = 0
    for chunk in text.split(delimiter + "\n"):
        chunk = chunk.rstrip("\n")
        toks = encode_bytes(chunk)
        if toks.shape[0] == 0 or toks.shape[0] < min_doc_len:
            continue
        stream.docs.append(toks)
        stream.doc_ids.append(next_id)
        next_id += 1
    return stream


def save_corpus(stream_texts, path, delimiter: str = DEFAULT_DOC_DELIMITER) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for i, doc in enumerate(stream_texts):
            if i:
                f.write(delimiter + "\n")
            f.write(doc)
            f.write("\n")


_WORDS = (
    "the of and a to in is was he for it with as his on be at by had not are "
    "but from or have an they which one you were her all she there would their "
    "we him been has when who will more no if out so said what up its about "
    "into than them can only other new some could time these two may then do "
    "first any my now such like our over man me even most made after also did "
    "many before must through years where much way well down should because "
    "each just those people how too little state good very make world still "
    "own see men work long get here between both life being under never day "
    "same another know while last might us great old year off come since "
    "against go came right used take three house"
).split()

_TOPICS = (
    "river harbor mountain garden engine library market temple farm castle "
    "forest station bridge valley mill tower orchard lantern meadow quarry"
).split()


def gen_text_corpus(n_docs: int, doc_len: int, seed: int = 0) -> list[str]:
    """Deterministic pseudo-text documents (Zipf word draw + per-doc topics).

    Stand-in for natural long-document corpora: shared vocabulary makes keys
    from different documents overlap, which is what the distraction
    diagnostics need.
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, len(_WORDS) + 1, dtype=np.float64)
    probs = (1.0 / ranks) / (1.0 / ranks).sum()
    docs = []
    for _ in range(n_docs):
        topics = rng.choice(_TOPICS, size=2, replace=False)
        out: list[str] = []
        total = 0
        while total < doc_len:
            n_words = int(rng.integers(5, 13))
            words = list(rng.choice(_WORDS, size=n_words, p=probs))
            for j in range(len(words)):
                if rng.random() < 0.12:
                    words[j] = str(topics[int(rng.integers(0, 2))])
            sentence = " ".join(words).capitalize() + ". "
            out.append(sentence)
            total += len(sentence)
        docs.append("".join(out)[:doc_len])
    return docs


def corpus_training_stream(stream: CorpusStream, loop: bool = False):
    """Iterator of (tokens, loss_mask) documents; mask is all-ones for LM.
    An empty stream raises DataError here, not on the first ``next``."""
    if len(stream) == 0:
        raise DataError("empty corpus stream")
    docs = cycle(stream) if loop else iter(stream)
    return ((toks, np.ones(len(toks), dtype=np.float64)) for _doc_id, toks in docs)


def dump_token_file(docs, path) -> None:
    """Newline-delimited integer token dump (one document per line)."""
    with open(path, "w", encoding="ascii") as f:
        for toks in docs:
            f.write(" ".join(str(int(t)) for t in toks))
            f.write("\n")
