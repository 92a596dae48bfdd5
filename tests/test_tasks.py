"""Task generators: dictionary lookup, passkey, corpora."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fot import tasks
from fot.errors import ConfigError, DataError
from fot.tasks import (
    DictTaskConfig, PasskeyTaskConfig, dict_training_stream, find_passkey, gen_dict_lookup,
    gen_passkey, gen_text_corpus, load_corpus, save_corpus,
)


def parse_dict_doc(tokens: np.ndarray):
    """Oracle: re-parse an emitted document into (definitions, queries) by
    scanning for record markers. It cross-checks the generator, so it shares
    no code with it beyond the token ids."""
    key_len, val_len = 4, 4
    rec = 2 + key_len + val_len
    defs: dict[tuple[int, ...], tuple[int, ...]] = {}
    queries: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    i = 0
    n = len(tokens)
    while i + rec <= n:
        t = tokens[i]
        if t in (tasks.KEY_TOKEN, tasks.QUERY_TOKEN):
            key = tuple(int(x) for x in tokens[i + 1:i + 1 + key_len])
            assert tokens[i + 1 + key_len] == tasks.VALUE_TOKEN
            val = tuple(int(x) for x in tokens[i + 2 + key_len:i + 2 + key_len + val_len])
            if t == tasks.KEY_TOKEN:
                assert key not in defs, "key defined twice"
                defs[key] = val
            else:
                queries.append((key, val))
            i += rec
        else:
            assert t == tasks.PAD_TOKEN, f"unexpected token {t} at {i}"
            i += 1
    return defs, queries


def test_dict_record_format():
    doc = gen_dict_lookup(DictTaskConfig(seed=1))
    toks = doc.tokens
    assert toks.shape == (512,)
    # first record: <k> k1..k4 <v> v1..v4
    assert toks[0] == tasks.KEY_TOKEN
    assert toks[5] == tasks.VALUE_TOKEN
    assert all(t < tasks.PAD_TOKEN for t in toks[1:5])
    # a query for the same format appears in the second half
    q_starts = [i for i in range(256, 512) if toks[i] == tasks.QUERY_TOKEN]
    assert q_starts, "no query records emitted"
    i = q_starts[0]
    assert toks[i + 5] == tasks.VALUE_TOKEN


def test_dict_mask_sums_to_queries_times_val_len():
    cfg = DictTaskConfig(seed=2)
    doc = gen_dict_lookup(cfg)
    assert doc.loss_mask.sum() == len(doc.queries) * tasks.VAL_LEN
    assert len(doc.queries) == 25  # 256-token block of 10-token records


def test_dict_answers_match_parser_oracle():
    cfg = DictTaskConfig(seed=3)
    doc = gen_dict_lookup(cfg)
    defs, queries = parse_dict_doc(doc.tokens)
    assert defs == doc.definitions
    assert len(queries) == len(doc.queries)
    for key, val in queries:
        assert key in defs, "query about an undefined key"
        assert defs[key] == val, "query answer differs from definition"


def test_dict_no_duplicate_keys_and_function_property():
    for seed in range(5):
        doc = gen_dict_lookup(DictTaskConfig(seed=seed))
        defs, _ = parse_dict_doc(doc.tokens)
        assert len(defs) == 25


def test_dict_eval_mode_grows_definitions_only():
    cfg = DictTaskConfig(seed=4)
    doc = gen_dict_lookup(cfg, total_len=1024 + 256)
    assert doc.tokens.shape == (1280,)
    defs, queries = parse_dict_doc(doc.tokens)
    assert len(defs) == 4 * 25       # four definition windows
    assert len(queries) == 25        # fixed question block
    for key, val in queries:
        assert defs[key] == val
    # question block sits in the final 256 tokens
    assert doc.loss_mask[:1024].sum() == 0
    assert doc.loss_mask[1024:].sum() == 25 * 4


def test_dict_eval_rejects_misaligned_total_len():
    with pytest.raises(ConfigError):
        gen_dict_lookup(DictTaskConfig(), total_len=300)


def test_dict_value_positions_point_at_values():
    doc = gen_dict_lookup(DictTaskConfig(seed=5))
    for q in doc.queries:
        np.testing.assert_array_equal(doc.tokens[q.value_positions], q.value)


def test_dict_determinism():
    a = gen_dict_lookup(DictTaskConfig(seed=42))
    b = gen_dict_lookup(DictTaskConfig(seed=42))
    np.testing.assert_array_equal(a.tokens, b.tokens)


# ---------------------------------------------------------------------------
# passkey
# ---------------------------------------------------------------------------

def test_passkey_roundtrip_oracle():
    for seed in range(20):
        p = gen_passkey(PasskeyTaskConfig(prompt_len=512, seed=seed))
        found = find_passkey(p.tokens)
        assert found == [p.answer]
        assert p.tokens.shape == (512,)


def test_passkey_boundary_insertions():
    cfg = PasskeyTaskConfig(prompt_len=256, passkey="12345")
    rng = np.random.default_rng(0)
    seen_offsets = set()
    for _ in range(200):
        p = gen_passkey(cfg, rng)
        assert find_passkey(p.tokens) == ["12345"]
        seen_offsets.add(p.insertion_offset)
    # seeded uniform insertion actually moves around, including near both ends
    assert min(seen_offsets) < 20
    assert max(seen_offsets) > 180


def test_passkey_seeds_differ_but_support_matches():
    a = gen_passkey(PasskeyTaskConfig(prompt_len=512, passkey="777", seed=1))
    b = gen_passkey(PasskeyTaskConfig(prompt_len=512, passkey="777", seed=2))
    assert a.answer == b.answer == "777"
    assert a.insertion_offset != b.insertion_offset


def test_passkey_too_short_prompt():
    with pytest.raises(ConfigError):
        gen_passkey(PasskeyTaskConfig(prompt_len=8))


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def test_corpus_empty_file(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    assert len(load_corpus(p)) == 0


def test_corpus_min_doc_len_boundary(tmp_path):
    p = tmp_path / "c.txt"
    save_corpus(["x" * 9, "y" * 10], p)
    stream = load_corpus(p, min_doc_len=10)
    assert len(stream) == 1
    assert tasks.decode_bytes(stream.docs[0]) == "y" * 10


def test_corpus_byte_roundtrip(tmp_path):
    docs = ["hello world\nsecond line", "unicode: café → ok", "tabs\tand  spaces"]
    p = tmp_path / "c.txt"
    save_corpus(docs, p)
    stream = load_corpus(p)
    assert [tasks.decode_bytes(d) for d in stream.docs] == docs


def test_corpus_missing_file():
    with pytest.raises(DataError):
        load_corpus("/nonexistent/corpus.txt")


def test_text_corpus_deterministic_and_sized():
    a = gen_text_corpus(4, 800, seed=7)
    b = gen_text_corpus(4, 800, seed=7)
    assert a == b
    assert all(len(d) == 800 for d in a)
    assert a != gen_text_corpus(4, 800, seed=8)


def test_dump_token_file(tmp_path):
    p = tmp_path / "toks.txt"
    tasks.dump_token_file([np.array([1, 2, 3]), np.array([9])], p)
    assert p.read_text() == "1 2 3\n9\n"


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_dict_generator_purity(seed):
    cfg = DictTaskConfig(seed=seed)
    t1 = gen_dict_lookup(cfg).tokens
    t2 = gen_dict_lookup(cfg).tokens
    assert (t1 == t2).all()


# sha256 prefixes of generator output; any change to a document changes them
PINNED_TRAIN_DOCS = ['64b15df95c2ba553', '6e68c3157603da10', '195e58d64684e7fb']
PINNED_EVAL_DOC = ('22277f5c97b30a1e', '8c3697b572a904a9')


def _doc_digest(tokens, mask) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(tokens, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(mask, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def test_dict_training_stream_is_pinned():
    """The first documents of a seeded training stream, token and mask bytes."""
    stream = dict_training_stream(DictTaskConfig(doc_len=512), 3)
    got = [_doc_digest(*next(stream)) for _ in range(3)]
    assert got == PINNED_TRAIN_DOCS


def test_dict_eval_document_is_pinned():
    """One 1280-token evaluation document: tokens, mask and query positions."""
    doc = gen_dict_lookup(DictTaskConfig(doc_len=512, seed=7), total_len=1280)
    positions = np.concatenate([q.value_positions for q in doc.queries])
    assert (_doc_digest(doc.tokens, doc.loss_mask), _doc_digest(positions, [])) == PINNED_EVAL_DOC
