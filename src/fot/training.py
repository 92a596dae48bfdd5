"""Optimizers, learning-rate schedule, and the training loop."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import EvalResult, write_metrics_csv
from .config import TrainConfig, config_hash, emit_config
from .errors import ConfigError, DataError, FotError, NumericError
from .model import Transformer, crossbatch_grad_step, load_checkpoint, save_checkpoint
from .numerics import Tensor
from .pipeline import CrossbatchPipeline
from .tasks import (CorpusStream, DictTaskConfig, corpus_training_stream, dict_training_stream,
                    encode_bytes, gen_text_corpus, load_corpus)


def inverse_sqrt_lr(step: int, max_lr: float, min_lr: float, warmup: int) -> float:
    """Linear warmup into a step^-1/2 decay, clamped into [min_lr, max_lr]."""
    if warmup > 0:
        base = max_lr * min((step + 1) / warmup, (warmup / (step + 1)) ** 0.5)
    else:
        base = max_lr * (1.0 / (step + 1)) ** 0.5
    return float(np.clip(base, min_lr, max_lr))


class Adam:
    def __init__(self, params: dict[str, Tensor], beta1=0.9, beta2=0.98, eps=1e-9):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[k], self.v[k]
            m += (1 - b1) * (g - m)
            v += (1 - b2) * (g * g - v)
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


class AdaFactor:
    """Factored second moments with momentum and RMS-1 update clipping."""

    def __init__(self, params: dict[str, Tensor], beta1=0.9, eps=1e-30, clip=1.0):
        self.params = params
        self.beta1, self.eps, self.clip = beta1, eps, clip
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.row = {k: np.zeros(p.data.shape[0], dtype=np.float64)
                    for k, p in params.items() if p.data.ndim == 2}
        self.col = {k: np.zeros(p.data.shape[1], dtype=np.float64)
                    for k, p in params.items() if p.data.ndim == 2}
        self.full = {k: np.zeros_like(p.data, dtype=np.float64)
                     for k, p in params.items() if p.data.ndim != 2}
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        b2 = 1.0 - self.t ** -0.8
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            g2 = g.astype(np.float64) ** 2 + self.eps
            if p.data.ndim == 2:
                r, c = self.row[k], self.col[k]
                r += (1 - b2) * (g2.mean(axis=1) - r)
                c += (1 - b2) * (g2.mean(axis=0) - c)
                denom = np.sqrt(np.outer(r / max(r.mean(), self.eps), c))
            else:
                f = self.full[k]
                f += (1 - b2) * (g2 - f)
                denom = np.sqrt(f)
            u = g / np.maximum(denom, self.eps).astype(g.dtype)
            rms = float(np.sqrt((u * u).mean()))
            if rms > self.clip:
                u = u * (self.clip / rms)
            m = self.m[k]
            m += (1 - self.beta1) * (u - m)
            p.data -= (lr * m).astype(p.data.dtype)


def make_optimizer(cfg: TrainConfig, params: dict[str, Tensor]):
    if cfg.optimizer == "adam":
        return Adam(params, cfg.beta1, cfg.beta2, cfg.adam_eps)
    return AdaFactor(params, beta1=cfg.beta1)


def clip_global_norm(params: dict[str, Tensor], max_norm: float) -> float:
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = total ** 0.5
    if max_norm > 0 and norm > max_norm:
        s = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= s
    return norm


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------

@dataclass
class RunManifest:
    run_id: str
    config_hash: str
    code_version: str
    seed: int
    status: str = "running"
    start_step: int = 0
    end_step: int | None = None
    config_path: str = ""
    metric_files: list[str] = field(default_factory=list)
    checkpoint_files: list[str] = field(default_factory=list)
    note: str = ""

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.__dict__, indent=2) + "\n")

    @classmethod
    def read(cls, path: Path) -> "RunManifest":
        return cls(**json.loads(Path(path).read_text()))


@dataclass
class TrainResult:
    checkpoint_path: Path
    metrics_path: Path
    manifest_path: Path
    final_loss: float
    losses: list[float]


def make_doc_stream(cfg: TrainConfig):
    if cfg.task == "dict":
        task = DictTaskConfig(doc_len=cfg.dict_doc_len)
        return dict_training_stream(task, cfg.seed)
    if cfg.task == "text-synth":
        docs = gen_text_corpus(cfg.synth_docs, cfg.synth_doc_len, seed=cfg.seed)
        stream = CorpusStream([encode_bytes(d) for d in docs], list(range(len(docs))))
        return corpus_training_stream(stream, loop=True)
    stream = load_corpus(cfg.corpus_path, cfg.min_doc_len, cfg.corpus_delimiter)
    return corpus_training_stream(stream, loop=False)


def train(cfg: TrainConfig, out_dir) -> TrainResult:
    """Run the loop: next_batch -> build_plan -> forward -> backward -> step.

    Data steps whose loss mask is all zero advance the pipeline but consume
    no optimizer step. A document stream that ends before the first step is
    a DataError; one that ends later ends the run early, "done" with a note.
    NaN/Inf loss aborts with a diagnostic dump. Each logged row is appended
    to metrics.csv as it is logged, so a failed run keeps the rows logged
    before the failure; any FotError after the manifest is first written
    marks it "failed" before it propagates.
    """
    cfg.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run_id = f"run-{cfg.seed}-{config_hash(cfg)}"
    chash = config_hash(cfg)

    config_path = out / "config.ini"
    config_path.write_text(emit_config(cfg))
    manifest_path = out / "manifest.json"
    metrics_path = out / "metrics.csv"
    manifest = RunManifest(run_id, chash, __version__, cfg.seed,
                           config_path=str(config_path))
    manifest.metric_files.append(str(metrics_path))
    manifest.write(manifest_path)
    write_metrics_csv(metrics_path, [])

    opt_step = 0
    try:
        if cfg.init_checkpoint:
            ck_cfg, params = load_checkpoint(cfg.init_checkpoint)
            if ck_cfg != cfg.model:
                raise ConfigError("init checkpoint geometry differs from model config")
            model = Transformer(cfg.model, params=params)
        else:
            model = Transformer(cfg.model, seed=cfg.seed)

        pipe = CrossbatchPipeline(make_doc_stream(cfg), cfg.b_s, cfg.model.local_ctx_len,
                                  cfg.schedule(), w=cfg.w, seed=cfg.seed)
        optimizer = make_optimizer(cfg, model.params)

        losses: list[float] = []
        skipped_in_row = 0
        ended_early = ""
        t0 = time.time()
        while opt_step < cfg.steps:
            try:
                batch = pipe.next_batch()
            except DataError:
                if opt_step == 0:
                    raise DataError("document stream ended before the first step") from None
                ended_early = f"stream exhausted at step {opt_step}"
                break
            if batch.cur_mask.sum() == 0:
                skipped_in_row += 1
                if skipped_in_row > 1000:
                    raise DataError("1000 consecutive data steps carried no loss mask")
                continue
            skipped_in_row = 0
            plan = pipe.build_plan(opt_step, batch)
            model.zero_grads()
            loss, _ = crossbatch_grad_step(model, batch, plan,
                                           differentiable=not cfg.stop_gradient)
            if not np.isfinite(loss):
                diag = {"step": opt_step, "loss": float(loss), "grad_norms": {
                    k: float(np.abs(p.grad).max()) if p.grad is not None else 0.0
                    for k, p in model.params.items()}}
                (out / "diagnostic.json").write_text(json.dumps(diag, indent=2))
                raise NumericError(f"non-finite loss {loss} at step {opt_step}")
            clip_global_norm(model.params, cfg.grad_clip)
            optimizer.step(inverse_sqrt_lr(opt_step, cfg.max_lr, cfg.min_lr, cfg.warmup_steps))
            losses.append(loss)
            if opt_step % max(1, cfg.log_every) == 0 or opt_step == cfg.steps - 1:
                write_metrics_csv(metrics_path, [EvalResult(
                    run_id, "train_loss", "step", float(opt_step), loss, cfg.seed, chash)],
                    append=True)
            if cfg.checkpoint_every and opt_step and opt_step % cfg.checkpoint_every == 0:
                ck = out / f"step{opt_step:06d}.fotc"
                save_checkpoint(ck, cfg.model, model.params)
                manifest.checkpoint_files.append(str(ck))
                manifest.write(manifest_path)
            opt_step += 1
    except FotError as e:
        manifest.status = "failed"
        manifest.end_step = opt_step
        manifest.note = f"{type(e).__name__}: {e}"
        manifest.write(manifest_path)
        raise

    final_ck = out / "final.fotc"
    save_checkpoint(final_ck, cfg.model, model.params)
    manifest.checkpoint_files.append(str(final_ck))
    manifest.status = "done"
    manifest.end_step = opt_step
    manifest.note = ended_early or f"{time.time() - t0:.1f}s"
    manifest.write(manifest_path)
    return TrainResult(final_ck, metrics_path, manifest_path,
                       losses[-1] if losses else float("nan"), losses)
