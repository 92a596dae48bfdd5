"""Training loop, optimizers, schedule, config round-trip, CLI."""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fot import numerics as N
from fot import tasks, training
from fot.analysis import read_metrics_csv
from fot.config import (TrainConfig, apply_overrides, config_hash, emit_config,
                        get_preset, parse_config)
from fot.errors import (ConfigError, DataError, FormatError, FotError,
                        NumericError, ShapeError, UsageError)
from fot.model import (CHECKPOINT_VERSION, ModelConfig, Transformer, load_checkpoint,
                       save_checkpoint)
from fot.numerics import Tensor
from fot.pipeline import TrainBatch
from fot.tasks import DictTaskConfig
from fot.training import Adam, AdaFactor, RunManifest, inverse_sqrt_lr, train


def small_train_cfg(**kw):
    cfg = TrainConfig(model=ModelConfig(
        n_layers=2, d_model=32, n_heads=2, head_dim=16, ff_dim=64,
        vocab_size=64, memory_layers=(1,), local_ctx_len=32))
    cfg.dict_doc_len = 64
    cfg.b_s = 4
    cfg.steps = 4
    cfg.warmup_steps = 2
    cfg.log_every = 1
    cfg.d_kind = "constant"
    cfg.d = 2
    base = {k: v for k, v in kw.items()}
    for k, v in base.items():
        setattr(cfg, k, v)
    return cfg


# ---------------------------------------------------------------------------
# schedule + optimizers
# ---------------------------------------------------------------------------

def test_lr_warmup_and_inverse_sqrt_decay():
    max_lr, min_lr, warmup = 1e-2, 1e-6, 100
    assert inverse_sqrt_lr(0, max_lr, min_lr, warmup) < inverse_sqrt_lr(warmup - 1, max_lr, min_lr, warmup)
    at_warmup = inverse_sqrt_lr(warmup - 1, max_lr, min_lr, warmup)
    assert abs(at_warmup - max_lr) / max_lr < 0.02
    # decay proportional to step^-1/2 after warmup
    a = inverse_sqrt_lr(400 - 1, max_lr, min_lr, warmup)
    b = inverse_sqrt_lr(1600 - 1, max_lr, min_lr, warmup)
    assert abs(a / b - 2.0) < 1e-9
    # clamped into [min_lr, max_lr]
    assert inverse_sqrt_lr(10**12, max_lr, min_lr, warmup) == min_lr


def _quadratic_params(seed=0):
    rng = np.random.default_rng(seed)
    target = rng.standard_normal((4, 3)).astype(np.float32)
    p = Tensor(np.zeros((4, 3), dtype=np.float32), requires_grad=True)
    return p, target


@pytest.mark.parametrize("opt_cls", [Adam, AdaFactor])
def test_optimizers_descend_quadratic(opt_cls):
    p, target = _quadratic_params()
    opt = opt_cls({"p": p})
    for _ in range(300):
        p.grad = 2 * (p.data - target)
        opt.step(0.05)
    assert np.abs(p.data - target).max() < 0.05


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def test_train_deterministic_reruns_bit_identical(tmp_path):
    cfg = small_train_cfg(steps=6)
    r1 = train(cfg, tmp_path / "a")
    r2 = train(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "final.fotc").read_bytes() == \
           (tmp_path / "b" / "final.fotc").read_bytes()
    assert r1.losses == r2.losses


def test_train_seed_changes_everything(tmp_path):
    a = train(small_train_cfg(steps=3), tmp_path / "a")
    cfg2 = small_train_cfg(steps=3)
    cfg2.seed = 7
    b = train(cfg2, tmp_path / "b")
    assert (tmp_path / "a" / "final.fotc").read_bytes() != \
           (tmp_path / "b" / "final.fotc").read_bytes()


def test_overfit_one_batch_loss_decreases():
    """1-layer model overfits a single fixed batch to < 0.1 quickly."""
    cfg = ModelConfig(n_layers=1, d_model=32, n_heads=2, head_dim=16, ff_dim=64,
                      vocab_size=16, memory_layers=(), local_ctx_len=16)
    model = Transformer(cfg, seed=0)
    rng = np.random.default_rng(1)
    toks = rng.integers(0, 16, size=(2, 16))
    tgt = rng.integers(0, 16, size=(2, 16))
    batch = TrainBatch(toks, tgt, np.ones((2, 16)), np.zeros((2, 1, 16), np.int64),
                       np.zeros((2, 1), bool), np.arange(2), 0)
    from fot.pipeline import CrossbatchPlan
    plan = CrossbatchPlan([[], []], [[], []])
    opt = Adam(model.params)
    losses = []
    for step in range(500):
        model.zero_grads()
        with N.Tape() as tape:
            fwd = model.forward_train(batch, plan, collect_records=False)
            loss = N.cross_entropy_masked(fwd.logits, batch.cur_targets, batch.cur_mask)
        N.backward(tape, loss)
        opt.step(3e-3)
        losses.append(loss.item())
        if losses[-1] < 0.1:
            break
    assert losses[-1] < 0.1, f"stuck at {losses[-1]:.3f}"
    assert losses[-1] < losses[0]


def byte_train_cfg(**kw):
    """A tiny byte-vocabulary model for the text tasks."""
    cfg = small_train_cfg(**kw)
    cfg.model = ModelConfig(n_layers=2, d_model=16, n_heads=2, head_dim=8, ff_dim=32,
                            vocab_size=256, memory_layers=(1,), local_ctx_len=16)
    cfg.b_s = 2
    return cfg


def test_train_on_synthetic_text(tmp_path):
    cfg = byte_train_cfg(task="text-synth", synth_docs=4, synth_doc_len=80, steps=3)
    res = train(cfg, tmp_path / "run")
    assert len(res.losses) == 3 and np.isfinite(res.losses).all()
    assert RunManifest.read(res.manifest_path).status == "done"


def test_train_writes_step_checkpoints(tmp_path):
    res = train(small_train_cfg(steps=3, checkpoint_every=1), tmp_path / "run")
    man = RunManifest.read(res.manifest_path)
    steps = [tmp_path / "run" / f"step{i:06d}.fotc" for i in (1, 2)]
    assert man.checkpoint_files == [str(p) for p in steps] + [str(res.checkpoint_path)]
    assert load_checkpoint(steps[0])[0] == small_train_cfg().model


def _corpus(tmp_path, lens):
    path = tmp_path / "corpus.txt"
    tasks.save_corpus(["x" * n for n in lens], path)
    return path


def test_corpus_that_ends_after_a_step_ends_the_run_done(tmp_path):
    """Two 96-byte documents give each of the two slots 6 windows of 16."""
    cfg = byte_train_cfg(task="corpus", corpus_path=str(_corpus(tmp_path, [96, 96])), steps=50)
    res = train(cfg, tmp_path / "run")
    man = RunManifest.read(res.manifest_path)
    assert (man.status, man.end_step, man.note) == ("done", 6, "stream exhausted at step 6")
    assert len(res.losses) == 6 and np.isfinite(res.final_loss)
    assert res.checkpoint_path.exists()


@pytest.mark.parametrize("lens,min_len,message", [
    ([40, 40], "1000", "data error: empty corpus stream\n"),
    ([20, 20], "0", "data error: document stream ended before the first step\n"),
], ids=["empty", "shorter_than_a_batch"])
def test_cli_train_on_a_corpus_without_a_step_is_data_error(lens, min_len, message, tmp_path):
    out = tmp_path / "run"
    code, _, err = run_cli(
        "train", "--preset", "desk-byte", "--override", "task=corpus",
        "--override", f"corpus_path={_corpus(tmp_path, lens)}", "--override", f"min_doc_len={min_len}",
        "--override", "model.n_layers=2", "--override", "model.d_model=16",
        "--override", "model.n_heads=2", "--override", "model.head_dim=8",
        "--override", "model.ff_dim=32", "--override", "model.local_ctx_len=16",
        "--override", "model.memory_layers=1", "--override", "b_s=2", "--override", "d=2",
        "--out", str(out))
    assert code == 3 and err == message
    assert RunManifest.read(out / "manifest.json").status == "failed"
    assert not (out / "final.fotc").exists()


def test_train_writes_manifest_before_metrics(tmp_path):
    cfg = small_train_cfg(steps=2)
    res = train(cfg, tmp_path / "run")
    man = RunManifest.read(res.manifest_path)
    assert man.status == "done"
    assert man.end_step == 2
    assert str(res.metrics_path) in man.metric_files
    assert str(res.checkpoint_path) in man.checkpoint_files
    # config round-trips from the emitted file
    back = parse_config(Path(man.config_path).read_text())
    assert back == cfg


def test_metrics_rows_reach_disk_before_a_failure(tmp_path, monkeypatch):
    real, calls = training.crossbatch_grad_step, []

    def nan_at_step_4(*args, **kw):
        calls.append(1)
        loss, recs = real(*args, **kw)
        return (float("nan") if len(calls) == 5 else loss), recs

    monkeypatch.setattr(training, "crossbatch_grad_step", nan_at_step_4)
    with pytest.raises(NumericError):
        train(small_train_cfg(steps=6, log_every=2), tmp_path / "run")
    rows = read_metrics_csv(tmp_path / "run" / "metrics.csv")
    assert [(r.metric, r.axis_value) for r in rows] == [("train_loss", 0.0), ("train_loss", 2.0)]
    man = RunManifest.read(tmp_path / "run" / "manifest.json")
    assert (man.status, man.end_step) == ("failed", 4)
    assert man.note.startswith("NumericError: non-finite loss")
    assert (tmp_path / "run" / "diagnostic.json").exists()


def test_missing_init_checkpoint_marks_the_run_failed(tmp_path):
    code, _, err = run_cli("train", "--preset", "dict-small", "--override",
                           f"init_checkpoint={tmp_path / 'absent.fotc'}",
                           "--out", str(tmp_path / "run"))
    assert code == 3 and err.startswith("data error: ")
    man = RunManifest.read(tmp_path / "run" / "manifest.json")
    assert (man.status, man.end_step) == ("failed", 0)
    assert man.note.startswith("DataError: cannot read checkpoint")


def test_train_resumes_from_checkpoint(tmp_path):
    cfg = small_train_cfg(steps=2)
    first = train(cfg, tmp_path / "a")
    cfg2 = small_train_cfg(steps=1, warmup_steps=1)
    cfg2.init_checkpoint = str(first.checkpoint_path)
    second = train(cfg2, tmp_path / "b")
    assert second.checkpoint_path.exists()
    bad = small_train_cfg(steps=1, warmup_steps=1)
    bad.model.d_model = 64
    bad.model.n_heads = 4
    bad.init_checkpoint = str(first.checkpoint_path)
    with pytest.raises(ConfigError):
        train(bad, tmp_path / "c")


# ---------------------------------------------------------------------------
# config round-trip
# ---------------------------------------------------------------------------

def test_config_roundtrip_identity():
    cfg = get_preset("desk")
    cfg.steps = 123
    cfg.model.memory_layers = (1, 3)
    cfg.segments = "0.5:1:1,0.5:0:0"
    back = parse_config(emit_config(cfg))
    assert back == cfg
    assert config_hash(back) == config_hash(cfg)
    for name in ("desk", "desk-byte", "dict-small", "ref-37m", "ref-184m"):
        assert parse_config(emit_config(get_preset(name))) == get_preset(name)


def test_config_overrides():
    cfg = get_preset("desk")
    apply_overrides(cfg, ["model.n_layers=2", "steps=77", "train.max_lr=0.5",
                          "model.memory_layers=0,1"])
    assert cfg.model.n_layers == 2 and cfg.steps == 77
    assert cfg.max_lr == 0.5 and cfg.model.memory_layers == (0, 1)
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["bogus_key=1"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["steps;77"])


BAD_SETTINGS = [("override", "schedule=x"), ("override", "model.validate=1"),
                ("config", "[train]\nchunk_slots = 8\n"), ("config", "[train]\nprecision = f32\n"),
                ("override", "model.temperature_init=1.0"),
                ("config", "[model]\ntemperature_init = 1.0\n")]


@pytest.mark.parametrize("source,text", BAD_SETTINGS,
                         ids=["method", "model_method", "chunk_slots", "precision",
                              "temperature_init_override", "temperature_init_config"])
def test_setting_names_only_fields(source, text, tmp_path):
    """A key naming a method or a removed field is a ConfigError, not a crash."""
    with pytest.raises(ConfigError):
        if source == "override":
            apply_overrides(get_preset("desk"), [text])
        else:
            parse_config(text)
    if source == "override":
        argv = ["--override", text]
    else:
        (tmp_path / "c.ini").write_text(text)
        argv = ["--config", str(tmp_path / "c.ini")]
    code, _, err = run_cli("train", *argv, "--out", str(tmp_path / "out"))
    assert code == 2 and err.startswith("config error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_a_repeated_grid_key(tmp_path):
    """A dict keyed by grid key used to keep only the last d=... part."""
    code, _, err = run_cli("sweep", "--preset", "desk", "--grid", "d=1;d=2",
                           "--out", str(tmp_path / "sweep"))
    assert code == 2 and err.startswith("config error: ") and "'d' appears twice" in err
    assert not (tmp_path / "sweep").exists()


def test_sweep_records_a_method_cell_as_config_error(tmp_path):
    out = tmp_path / "sweep"
    code, _, err = run_cli("sweep", "--preset", "desk", "--grid", "schedule=1;d=1,2",
                           "--out", str(out))
    assert code == 0, err
    rows = (out / "summary.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 2 and all(",failed(ConfigError)," in r for r in rows)


def test_config_validation_errors():
    cfg = get_preset("desk")
    cfg.warmup_steps = cfg.steps + 1
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = get_preset("desk")
    cfg.min_lr = cfg.max_lr * 10
    with pytest.raises(ConfigError):
        cfg.validate()
    # NaN passes every comparison: a NaN max_lr trained to a NaN loss, a NaN
    # grad_clip silently turned clipping off
    for key, value in (("max_lr", float("nan")), ("max_lr", float("inf")), ("min_lr", float("nan")),
                       ("grad_clip", float("nan")), ("grad_clip", float("inf")),
                       ("grad_clip", -1.0), ("warmup_steps", -1),
                       # Adam divides by 1 - beta**t and by sqrt(v) + eps: beta 1
                       # gave NaN weights, and a negative checkpoint_every
                       # checkpointed every |n| steps
                       ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("beta2", float("nan")),
                       ("adam_eps", 0.0), ("adam_eps", -1e-9), ("adam_eps", float("inf")),
                       ("adam_eps", float("nan")), ("checkpoint_every", -1)):
        cfg = get_preset("desk")
        setattr(cfg, key, value)
        with pytest.raises(ConfigError):
            cfg.validate()
    cfg = get_preset("desk")
    cfg.grad_clip = 0.0  # no clipping
    cfg.validate()
    with pytest.raises(ConfigError):
        get_preset("nope")


def test_presets_validate():
    for name in ("desk", "desk-byte", "dict-small", "ref-37m", "ref-184m"):
        get_preset(name).validate()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_cli(*argv):
    from fot.cli import main
    import io
    from contextlib import redirect_stdout, redirect_stderr
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_cli_train_and_inspect(tmp_path):
    out = tmp_path / "run"
    code, stdout, _ = run_cli(
        "train", "--preset", "desk",
        "--override", "model.n_layers=2", "--override", "model.d_model=32",
        "--override", "model.n_heads=2", "--override", "model.head_dim=16",
        "--override", "model.ff_dim=64", "--override", "model.local_ctx_len=32",
        "--override", "model.memory_layers=1", "--override", "dict_doc_len=64",
        "--override", "steps=2", "--override", "warmup_steps=1",
        "--override", "b_s=2", "--override", "d=2",
        "--out", str(out))
    assert code == 0, stdout
    ck = out / "final.fotc"
    code, stdout, _ = run_cli("inspect", "--checkpoint", str(ck))
    assert code == 0
    assert "parameters" in stdout and "memory" in stdout
    # inspect agrees with the analytic count
    cfg, params = load_checkpoint(ck)
    total = sum(p.data.size for p in params.values())
    assert f"parameters {total} (analytic {total})" in stdout
    assert f"format     FOTC v{CHECKPOINT_VERSION}\n" in stdout


def test_cli_bad_checkpoint_exit_code(tmp_path):
    bad = tmp_path / "bad.fotc"
    bad.write_bytes(b"XXXXgarbage")
    code, _, err = run_cli("inspect", "--checkpoint", str(bad))
    assert code == 2 and err.startswith("format error: ") and "bad magic" in err
    code, _, err = run_cli("inspect", "--checkpoint", str(tmp_path / "missing.fotc"))
    assert code == 3


@pytest.mark.parametrize("argv", [
    ("eval", "--checkpoint", "{missing}", "--suite", "ppl", "--axis", "memory=0",
     "--out", "{tmp}/m.csv"),
    ("train", "--override", "init_checkpoint={missing}", "--out", "{tmp}/run"),
], ids=["eval", "train"])
def test_cli_missing_checkpoint_is_data_error(argv, tmp_path):
    missing = tmp_path / "missing.fotc"
    code, _, err = run_cli(*(a.format(tmp=tmp_path, missing=missing) for a in argv))
    assert code == 3 and err.startswith("data error: ") and str(missing) in err


def test_cli_eval_on_ids_outside_the_vocabulary_is_data_error(tmp_path):
    """Byte-level synthetic text (ids up to 255) against a vocab-64 model."""
    cfg = small_train_cfg().model
    ck = tmp_path / "dict.fotc"
    save_checkpoint(ck, cfg, Transformer(cfg).params)
    code, _, err = run_cli("eval", "--checkpoint", str(ck), "--suite", "distraction",
                           "--axis", "d=2", "--out", str(tmp_path / "d.csv"))
    assert code == 3 and err.startswith("data error: token id ")
    assert "vocabulary of 64 ids" in err


CLI_EXIT_CODES = {ConfigError: 2, UsageError: 2, FormatError: 2, ShapeError: 2,
                  DataError: 3, NumericError: 4}
CLI_LABELS = {ConfigError: "config error", UsageError: "usage error", FormatError: "format error",
              ShapeError: "shape error", DataError: "data error", NumericError: "numeric failure"}


@pytest.mark.parametrize("exc", FotError.__subclasses__(), ids=lambda c: c.__name__)
def test_cli_maps_every_error_to_its_exit_code(exc, monkeypatch):
    from fot import cli

    def fail(args):
        raise exc("boom")
    monkeypatch.setattr(cli, "cmd_inspect", fail)
    code, _, err = run_cli("inspect", "--checkpoint", "unused.fotc")
    assert code == CLI_EXIT_CODES[exc]
    assert err == f"{CLI_LABELS[exc]}: boom\n"


def test_documented_exit_codes_match_the_cli():
    """The exit codes the ``fot.cli`` and ``fot.errors`` docstrings list are
    the ones ``cli.EXIT_CODES`` maps to, plus 0 for success."""
    from fot import cli, errors

    codes = {code for _, code, _ in cli.EXIT_CODES}
    listed = cli.__doc__.split("Exit codes:")[1].split(".")[0]
    assert {int(c) for c in re.findall(r"\b\d+\b", listed)} == codes | {0}
    documented = {name: int(code) for names, code in re.findall(r"([^>]*)-> (\d+)", errors.__doc__)
                  for name in re.findall(r"\w+Error", names)}
    assert documented == {exc.__name__: CLI_EXIT_CODES[exc] for exc in FotError.__subclasses__()}
    assert set(documented.values()) == codes


@pytest.mark.parametrize("override,key", [("d=17", "d = 17"), ("d_kind=random", "d_choices = 128"),
                                          ("d_kind=staged", "d_large = 64")],
                         ids=["constant", "random", "staged"])
def test_cli_train_rejects_a_d_above_b_s(override, key, tmp_path):
    """The dict-small preset has b_S 16; d_choices (2,128) and d_large 64 are
    the random and staged schedules' defaults."""
    code, _, err = run_cli("train", "--preset", "dict-small", "--override", override,
                           "--out", str(tmp_path / "run"))
    assert code == 2 and err.startswith("config error: ") and "Traceback" not in err
    assert key in err and "b_S = 16" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("overrides,message", [
    (["model.memory_layers=2,2"], "memory_layers (2, 2) names a layer twice"),
    (["model.d_model=0", "model.head_dim=0"], "d_model, n_heads and head_dim must be positive"),
    (["model.d_model=0", "model.n_heads=0"], "d_model, n_heads and head_dim must be positive"),
    (["model.n_layers=0"], "n_layers, local_ctx_len, vocab_size and ff_dim must be at least 1"),
    (["model.vocab_size=0"], "n_layers, local_ctx_len, vocab_size and ff_dim must be at least 1"),
    (["model.ff_dim=0"], "n_layers, local_ctx_len, vocab_size and ff_dim must be at least 1"),
    (["model.rotary_base=0"], "rotary_base must be finite and positive"),
    (["model.rotary_base=nan"], "rotary_base must be finite and positive"),
    (["beta2=1.0"], "need beta1 and beta2 in [0, 1)"),
], ids=["memory_layer_repeated", "zero_head_dim", "zero_heads", "zero_layers", "zero_vocab",
        "zero_ff_dim", "zero_rotary_base", "nan_rotary_base", "beta2_one"])
def test_cli_train_rejects_a_model_it_cannot_build(overrides, message, tmp_path):
    """A repeated memory layer used to fail an assertion in init_params and a
    zero width to divide by zero; a zero rotary base trained to a NaN loss
    (exit 4), a zero vocabulary failed on its first token (exit 3),
    ff_dim=0 wrote a checkpoint, and beta2 = 1 zeroed Adam's bias
    correction, so the run ended "done" with NaN weights. All are config
    errors before the run starts."""
    argv = [a for o in overrides for a in ("--override", o)]
    code, _, err = run_cli("train", "--preset", "dict-small", *argv, "--out", str(tmp_path / "run"))
    assert code == 2 and err.startswith("config error: ") and "Traceback" not in err
    assert message in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ("train", "--override", "d_kind=segments", "--override", "segments=1:1", "--out", "{tmp}"),
    ("train", "--override", "d_kind=random", "--override", "d_choices=2,x", "--out", "{tmp}"),
    ("train", "--override", "model.memory_layers=2,x", "--out", "{tmp}"),
    ("sweep", "--grid", "d=1,2;steps", "--out", "{tmp}"),
    ("eval", "--checkpoint", "{ck}", "--suite", "ppl", "--axis", "d=x", "--out", "{tmp}/m.csv"),
    ("train", "--override", "grad_clip=nan", "--out", "{tmp}"),
], ids=["segments", "d_choices", "memory_layers", "sweep_grid", "eval_axis", "nan_grad_clip"])
def test_cli_bad_config_value_is_config_error(argv, tmp_path):
    cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, head_dim=8, ff_dim=32,
                      vocab_size=64, memory_layers=(0,), local_ctx_len=16)
    ck = tmp_path / "m.fotc"
    save_checkpoint(ck, cfg, Transformer(cfg, seed=0).params)
    code, _, err = run_cli(*(a.format(tmp=tmp_path / "out", ck=ck) for a in argv))
    assert code == 2 and err.startswith("config error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_sweep_rejects_a_bad_worker_count(monkeypatch, tmp_path):
    monkeypatch.setenv("FOT_NUM_WORKERS", "two")
    code, _, err = run_cli("sweep", "--preset", "desk", "--grid", "d=1,2",
                           "--out", str(tmp_path / "sweep"))
    assert code == 2 and err == "config error: FOT_NUM_WORKERS: expected an integer, got 'two'\n"
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("suite,axis", [("dict", "memory=16"), ("passkey", "len=96")])
def test_cli_eval_rejects_a_negative_k(suite, axis, tmp_path):
    """k is checked where retrieval is set up, before any window is ingested."""
    cfg = ModelConfig(n_layers=3, d_model=16, n_heads=2, head_dim=8, ff_dim=32,
                      vocab_size=256, memory_layers=(1, 2), local_ctx_len=16)
    ck = tmp_path / "m.fotc"
    save_checkpoint(ck, cfg, Transformer(cfg, seed=0).params)
    code, _, err = run_cli("eval", "--checkpoint", str(ck), "--suite", suite, "--axis", axis,
                           "--k", "-1", "--n-docs", "1", "--out", str(tmp_path / "e.csv"))
    assert code == 2 and err == "usage error: k must be >= 0, got -1\n"
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("suite,axis,message", [
    ("dict", "memory=100", "memory must be a positive multiple of 16 (local_ctx_len), got 100"),
    ("dict", "memory=0", "memory must be a positive multiple of 16 (local_ctx_len), got 0"),
    ("dict", "memory=100.7", "axis spec 'memory=100.7': 100.7 is not a whole number"),
    ("distraction", "d=2.5", "axis spec 'd=2.5': 2.5 is not a whole number"),
    ("ppl", "memory=64,-5", "memory must be 0 or more (a memory cap in tokens), got -5"),
], ids=["dict-misaligned", "dict-zero", "dict-fraction", "distraction-fraction", "ppl-negative"])
def test_cli_eval_rejects_an_axis_value_it_cannot_use(suite, axis, message, tmp_path):
    """Every suite reads its axis as a whole count, so a fraction is refused
    rather than truncated; the dict and ppl suites name their rules in the
    axis' terms, and a ppl run refuses a negative cap before its first row."""
    cfg = ModelConfig(n_layers=3, d_model=16, n_heads=2, head_dim=8, ff_dim=32,
                      vocab_size=256, memory_layers=(1, 2), local_ctx_len=16)
    ck = tmp_path / "m.fotc"
    save_checkpoint(ck, cfg, Transformer(cfg, seed=0).params)
    code, _, err = run_cli("eval", "--checkpoint", str(ck), "--suite", suite, "--axis", axis,
                           "--n-docs", "1", "--out", str(tmp_path / "e.csv"))
    assert code == 2 and err == f"config error: {message}\n"
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_cli_eval_ppl_rejects_a_token_budget_below_one(budget, tmp_path):
    """A budget of no tokens once scored only the first document and
    exited 0; it is refused before the checkpoint's first window."""
    cfg = ModelConfig(n_layers=3, d_model=16, n_heads=2, head_dim=8, ff_dim=32,
                      vocab_size=256, memory_layers=(1, 2), local_ctx_len=16)
    ck = tmp_path / "m.fotc"
    save_checkpoint(ck, cfg, Transformer(cfg, seed=0).params)
    code, _, err = run_cli("eval", "--checkpoint", str(ck), "--suite", "ppl", "--axis",
                           "memory=64", "--token-budget", budget, "--out", str(tmp_path / "e.csv"))
    assert code == 2 and err == f"config error: --token-budget must be positive, got {budget}\n"
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("task", ["dict", "passkey", "text"])
@pytest.mark.parametrize("n_docs", ["0", "-1"])
def test_cli_gen_data_rejects_a_doc_count_below_one(task, n_docs, tmp_path):
    """No documents once wrote an empty file and exited 0."""
    out = tmp_path / "data" / "docs.txt"
    code, _, err = run_cli("gen-data", "--task", task, "--n-docs", n_docs, "--out", str(out))
    assert code == 2 and err == f"config error: --n-docs must be positive, got {n_docs}\n"
    assert not out.parent.exists()


@pytest.mark.parametrize("doc_len", ["0", "-1"])
def test_cli_gen_data_rejects_a_text_doc_length_below_one(doc_len, tmp_path):
    """Empty text documents once made a file of separators and exited 0."""
    out = tmp_path / "data" / "docs.txt"
    code, _, err = run_cli("gen-data", "--task", "text", "--n-docs", "2", "--doc-len", doc_len,
                           "--out", str(out))
    assert code == 2 and err == f"config error: --doc-len must be positive, got {doc_len}\n"
    assert not out.parent.exists()


@pytest.mark.parametrize("suite,axis", [("dict", "memory=16"), ("passkey", "len=96"),
                                        ("ppl", "memory=64"), ("distraction", "d=2")])
@pytest.mark.parametrize("n_docs", ["0", "-1"])
def test_cli_eval_rejects_a_doc_count_below_one(suite, axis, n_docs, byte_checkpoint, tmp_path):
    """--n-docs 0 once still scored 16 generated documents on the ppl suite."""
    code, _, err = run_cli("eval", "--checkpoint", str(byte_checkpoint), "--suite", suite,
                           "--axis", axis, "--n-docs", n_docs, "--out", str(tmp_path / "e.csv"))
    assert code == 2 and err == f"config error: --n-docs must be positive, got {n_docs}\n"
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("n_docs", [None, "1", "3"])
def test_cli_eval_ppl_scores_n_docs_generated_documents(n_docs, byte_checkpoint, tmp_path,
                                                        monkeypatch):
    """Without --corpus the ppl suite scores --n-docs generated documents of
    four windows each (8 by default), not a fixed 16."""
    from fot import analysis
    scored, evaluate = [], analysis.perplexity_eval
    monkeypatch.setattr(analysis, "perplexity_eval",
                        lambda model, docs, *a, **kw: scored.append(docs) or evaluate(
                            model, docs, *a, **kw))
    extra = [] if n_docs is None else ["--n-docs", n_docs]
    code, _, err = run_cli("eval", "--checkpoint", str(byte_checkpoint), "--suite", "ppl",
                           "--axis", "memory=64", "--token-budget", "64", *extra, "--seed", "5",
                           "--out", str(tmp_path / "e.csv"))
    assert code == 0, err
    want = tasks.gen_text_corpus(int(n_docs or 8), 4 * 16, seed=5)
    ((docs,),) = [scored]
    assert [i for i, _ in docs] == list(range(len(want)))
    for (_, toks), text in zip(docs, want, strict=True):
        np.testing.assert_array_equal(toks, tasks.encode_bytes(text))


def test_cli_eval_distraction_generates_n_docs_documents(byte_checkpoint, tmp_path):
    """Three generated documents give d=4 no step with a previous window in
    every slot; the suite once ignored --n-docs and always generated 512."""
    code, _, err = run_cli("eval", "--checkpoint", str(byte_checkpoint), "--suite", "distraction",
                           "--axis", "d=4", "--n-docs", "3", "--out", str(tmp_path / "e.csv"))
    assert code == 3 and err.startswith("data error: no step of the documents gave all 4 slots"), err
    assert not (tmp_path / "e.csv").exists()


def test_cli_eval_distraction_generates_512_documents_by_default(byte_checkpoint, tmp_path,
                                                                  monkeypatch):
    """Without --n-docs the suite still asks for 512 documents, which README's
    `--axis d=4,8,64` example needs (three are generated here to keep it short)."""
    asked, generate = [], tasks.gen_text_corpus
    monkeypatch.setattr(tasks, "gen_text_corpus",
                        lambda n, *a, **kw: asked.append(n) or generate(3, *a, **kw))
    code, _, err = run_cli("eval", "--checkpoint", str(byte_checkpoint), "--suite", "distraction",
                           "--axis", "d=4", "--out", str(tmp_path / "e.csv"))
    assert code == 3 and asked == [512], err


def test_cli_gen_data_and_eval(tmp_path):
    code, _, _ = run_cli("gen-data", "--task", "text", "--out", str(tmp_path / "c.txt"),
                         "--n-docs", "4", "--doc-len", "300")
    assert code == 0
    code, _, _ = run_cli("gen-data", "--task", "passkey", "--out",
                         str(tmp_path / "p.txt"), "--n-docs", "3", "--prompt-len", "128")
    assert code == 0
    assert (tmp_path / "p.answers.txt").read_text().count("\n") == 3

    out = tmp_path / "run"
    run_cli("train", "--preset", "desk",
            "--override", "model.n_layers=2", "--override", "model.d_model=32",
            "--override", "model.n_heads=2", "--override", "model.head_dim=16",
            "--override", "model.ff_dim=64", "--override", "model.local_ctx_len=32",
            "--override", "model.memory_layers=1", "--override", "dict_doc_len=64",
            "--override", "steps=2", "--override", "warmup_steps=1",
            "--override", "b_s=2", "--override", "d=2", "--out", str(out))
    csv_path = tmp_path / "m.csv"
    # --no-memory reads a 320-token document as one context: two blocks of 256 rows
    for axis, extra in (("memory=64", ["--k", "8"]), ("memory=288", ["--no-memory"])):
        code, stdout, err = run_cli("eval", "--checkpoint", str(out / "final.fotc"),
                                    "--suite", "dict", "--axis", axis, "--n-docs", "1",
                                    *extra, "--out", str(csv_path))
        assert code == 0, err
        rows = read_metrics_csv(csv_path)
        assert rows and rows[0].metric == "dict_accuracy"


@pytest.fixture
def byte_checkpoint(tmp_path):
    cfg = byte_train_cfg().model
    ck = tmp_path / "byte.fotc"
    save_checkpoint(ck, cfg, Transformer(cfg, seed=0).params)
    return ck


@pytest.mark.parametrize("suite,axis,extra,metric", [
    ("ppl", "memory=64", ["--token-budget", "256"], "perplexity"),
    ("passkey", "len=96", ["--n-docs", "1", "--k", "8"], "passkey_accuracy"),
    ("distraction", "d=2", ["--min-queries", "64"], "positive_attention_mass"),
], ids=["ppl", "passkey", "distraction"])
def test_cli_eval_suites_write_their_rows(suite, axis, extra, metric, byte_checkpoint, tmp_path):
    csv_path = tmp_path / "e.csv"
    code, stdout, err = run_cli("eval", "--checkpoint", str(byte_checkpoint), "--suite", suite,
                                "--axis", axis, *extra, "--out", str(csv_path))
    assert code == 0, err
    (row,) = read_metrics_csv(csv_path)
    assert (row.metric, row.axis_value) == (metric, float(axis.split("=")[1]))
    if suite == "ppl":  # the zero-initialised head predicts uniformly over 256 bytes
        assert row.value == pytest.approx(256.0, rel=1e-4)
    else:
        assert 0.0 <= row.value <= 1.0
    assert f"wrote {csv_path}" in stdout


def test_cli_eval_distraction_on_an_empty_corpus_is_data_error(byte_checkpoint, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, _, err = run_cli("eval", "--checkpoint", str(byte_checkpoint), "--suite", "distraction",
                           "--axis", "d=2", "--corpus", str(empty), "--out", str(tmp_path / "e.csv"))
    assert code == 3 and err == "data error: empty corpus stream\n"


@pytest.mark.parametrize("suite,axis,doc,extra", [
    ("ppl", "memory=64", "x" * 100, ["--min-doc-len", "1000"]),
    ("distraction", "d=2", "x" * 20, []),
], ids=["ppl-all_filtered", "distraction-no_previous_window"])
def test_cli_eval_on_an_unusable_corpus_is_data_error(suite, axis, doc, extra, byte_checkpoint,
                                                      tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text(doc)
    code, _, err = run_cli("eval", "--checkpoint", str(byte_checkpoint), "--suite", suite,
                           "--axis", axis, "--corpus", str(corpus), *extra,
                           "--out", str(tmp_path / "e.csv"))
    assert code == 3 and err.startswith("data error: "), err
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("argv", [
    ("train", "--preset", "desk-byte", "--override", "task=corpus",
     "--override", "corpus_path={corpus}", "--out", "{tmp}/run"),
    ("eval", "--checkpoint", "{ck}", "--suite", "ppl", "--axis", "memory=64",
     "--corpus", "{corpus}", "--out", "{tmp}/e.csv"),
], ids=["train", "eval"])
def test_cli_on_a_corpus_that_is_not_utf8_is_data_error(argv, byte_checkpoint, tmp_path):
    corpus = tmp_path / "latin1.txt"
    corpus.write_bytes("caf\u00e9 au lait\n".encode("latin-1") * 20)
    code, _, err = run_cli(*(a.format(corpus=corpus, ck=byte_checkpoint, tmp=tmp_path)
                             for a in argv))
    assert code == 3 and err.startswith(f"data error: corpus {corpus} is not UTF-8"), err
    assert not (tmp_path / "e.csv").exists()


def test_cli_gen_data_dict(tmp_path):
    out = tmp_path / "dict.txt"
    code, stdout, _ = run_cli("gen-data", "--task", "dict", "--n-docs", "2", "--out", str(out))
    assert code == 0 and stdout == f"wrote {out}\n"
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    doc = np.array(lines[0].split(), dtype=np.int64)
    np.testing.assert_array_equal(doc, tasks.gen_dict_lookup(
        DictTaskConfig(), rng=np.random.default_rng(0)).tokens)


@pytest.mark.parametrize("n_docs", ["0", "-2"])
@pytest.mark.parametrize("suite", ["dict", "passkey"])
def test_cli_eval_without_documents_is_usage_error(suite, n_docs, tmp_path):
    cfg = small_train_cfg().model
    ck = tmp_path / "m.fotc"
    save_checkpoint(ck, cfg, Transformer(cfg).params)
    code, _, err = run_cli("eval", "--checkpoint", str(ck), "--suite", suite, "--axis", "x=64",
                           "--n-docs", n_docs, "--out", str(tmp_path / "e.csv"))
    assert code == 2 and "Traceback" not in err, err
    assert not (tmp_path / "e.csv").exists()


def test_cli_sweep_reduces_to_train(tmp_path):
    out = tmp_path / "sweep"
    code, stdout, err = run_cli(
        "sweep", "--preset", "desk",
        "--override", "model.n_layers=2", "--override", "model.d_model=32",
        "--override", "model.n_heads=2", "--override", "model.head_dim=16",
        "--override", "model.ff_dim=64", "--override", "model.local_ctx_len=32",
        "--override", "model.memory_layers=1", "--override", "dict_doc_len=64",
        "--override", "steps=2", "--override", "warmup_steps=1",
        "--override", "b_s=2",
        "--grid", "d=1,2", "--out", str(out))
    assert code == 0, err
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert len(summary) == 3  # header + 2 cells
    assert (out / "cell000" / "final.fotc").exists()
    assert (out / "cell001" / "final.fotc").exists()
    # distinct config hashes per cell
    h0 = json.loads((out / "cell000" / "manifest.json").read_text())["config_hash"]
    h1 = json.loads((out / "cell001" / "manifest.json").read_text())["config_hash"]
    assert h0 != h1


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "fot.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "train" in proc.stdout and "sweep" in proc.stdout
