"""Run configuration: flat key=value text with section headers.

TrainConfig round-trips losslessly through emit_config/parse_config; the
config hash fingerprints the emitted text. Presets cover the desk-scale
defaults plus the reference-table model sizes for users with more compute.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .model import ModelConfig
from .pipeline import DSchedule
from .tasks import DEFAULT_DOC_DELIMITER


@dataclass
class TrainConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    # data
    task: str = "dict"                 # dict | corpus | text-synth
    corpus_path: str = ""
    corpus_delimiter: str = DEFAULT_DOC_DELIMITER
    min_doc_len: int = 0
    dict_doc_len: int = 512
    synth_docs: int = 256
    synth_doc_len: int = 2048
    # crossbatch
    b_s: int = 16
    w: int = 1
    d_kind: str = "constant"           # constant | staged | random | segments
    d: int = 1
    d_small: int = 2
    d_large: int = 64
    d_switch_step: int = 0
    d_choices: str = "2,128"
    segments: str = ""                 # frac:pos:neg comma-separated
    # optimization
    steps: int = 200
    optimizer: str = "adam"            # adam | adafactor
    beta1: float = 0.9
    beta2: float = 0.98
    adam_eps: float = 1e-9
    max_lr: float = 1e-3
    min_lr: float = 1e-5
    warmup_steps: int = 100
    grad_clip: float = 1.0
    # run control
    seed: int = 0
    checkpoint_every: int = 0          # 0: final checkpoint only
    log_every: int = 25
    stop_gradient: bool = False
    init_checkpoint: str = ""

    def validate(self) -> None:
        self.model.validate()
        if self.task not in ("dict", "corpus", "text-synth"):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.task == "corpus" and not self.corpus_path:
            raise ConfigError("task=corpus needs corpus_path")
        if self.optimizer not in ("adam", "adafactor"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if not 0 <= self.warmup_steps <= self.steps:
            raise ConfigError(f"need 0 <= warmup_steps <= steps, got {self.warmup_steps}, {self.steps}")
        if not (math.isfinite(self.max_lr) and 0 < self.min_lr <= self.max_lr):
            raise ConfigError(f"need finite 0 < min_lr <= max_lr, got {self.min_lr}, {self.max_lr}")
        if not (math.isfinite(self.grad_clip) and self.grad_clip >= 0):
            raise ConfigError(f"grad_clip must be finite and >= 0 (0: no clipping), got {self.grad_clip}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1 and 0 < self.adam_eps < math.inf):
            raise ConfigError(f"need beta1 and beta2 in [0, 1) and a finite adam_eps > 0, got "
                              f"{self.beta1}, {self.beta2}, {self.adam_eps}")
        if self.b_s < 1 or self.w < 1 or self.steps < 1:
            raise ConfigError("b_s, w, steps must be positive")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every must be >= 0 (0: final only), got {self.checkpoint_every}")
        self.schedule().validate(self.b_s, self.w)

    def schedule(self) -> DSchedule:
        return DSchedule(self.d_kind, self.d, self.d_small, self.d_large, self.d_switch_step,
                         _parse_ints(self.d_choices, "d_choices"), _parse_segments(self.segments))


_BOOLS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _decode(raw: str, kind: type, key: str):
    raw = raw.strip()
    if kind is tuple:
        return _parse_ints(raw, key)
    if kind is bool:
        if raw.lower() not in _BOOLS:
            raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
        return _BOOLS[raw.lower()]
    if kind in (int, float):
        try:
            return kind(raw)
        except ValueError as e:
            raise ConfigError(f"{key}: expected {'an integer' if kind is int else 'a float'}, "
                              f"got {raw!r}") from e
    return raw


def _parse_ints(raw: str, name: str) -> tuple[int, ...]:
    """A comma-separated integer list; empty parts are skipped."""
    try:
        return tuple(int(x) for x in raw.split(",") if x.strip() != "")
    except ValueError as e:
        raise ConfigError(f"{name}: expected comma-separated integers, got {raw!r}") from e


def _parse_segments(raw: str) -> tuple[tuple[float, int, int], ...]:
    """Comma-separated frac:pos:neg triples; empty parts are skipped."""
    try:
        return tuple((float(f), int(p), int(n)) for f, p, n in
                     (part.split(":") for part in raw.split(",") if part.strip() != ""))
    except ValueError as e:
        raise ConfigError(f"segments: expected comma-separated frac:pos:neg, got {raw!r}") from e


def _assign(cfg: TrainConfig, key: str, raw: str) -> None:
    """Set the setting ``key`` (``name``, ``train.name`` or ``model.name``)
    from its text ``raw``, decoded by the type of the field's default."""
    section, _, name = key.rpartition(".")
    if section not in ("", "train", "model"):
        raise ConfigError(f"unknown setting {key!r}")
    target = cfg.model if section == "model" else cfg
    f = next((f for f in fields(target) if f.name == name and f.name != "model"), None)
    if f is None:
        raise ConfigError(f"unknown setting {key!r}")
    setattr(target, name, _decode(raw, type(f.default), key))


def _text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def emit_config(cfg: TrainConfig) -> str:
    cp = configparser.ConfigParser()
    for section, target in (("model", cfg.model), ("train", cfg)):
        cp[section] = {f.name: _text(getattr(target, f.name))
                       for f in fields(target) if f.name != "model"}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def parse_config(text: str) -> TrainConfig:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}") from e
    cfg = TrainConfig(model=ModelConfig())
    for section in cp.sections():
        if section not in ("model", "train"):
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in cp[section].items():
            _assign(cfg, f"{section}.{key}", raw)
    return cfg


def apply_overrides(cfg: TrainConfig, overrides: list[str]) -> TrainConfig:
    """Apply repeatable --override entries like model.n_layers=2 or steps=50."""
    for item in overrides:
        key, eq, raw = item.partition("=")
        if not eq:
            raise ConfigError(f"override {item!r} is not key=value")
        _assign(cfg, key.strip(), raw)
    return cfg


def config_hash(cfg: TrainConfig) -> str:
    return hashlib.sha256(emit_config(cfg).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _desk_model(**kw) -> ModelConfig:
    base = dict(n_layers=4, d_model=256, n_heads=4, head_dim=64, ff_dim=1024,
                vocab_size=64, memory_layers=(2,), local_ctx_len=256)
    base.update(kw)
    return ModelConfig(**base)


def get_preset(name: str) -> TrainConfig:
    if name == "desk":
        return TrainConfig(model=_desk_model())
    if name == "desk-byte":
        return TrainConfig(model=_desk_model(vocab_size=256), task="text-synth")
    if name == "dict-small":
        # compact dictionary-task model: enough depth for one aggregation
        # layer below the memory layer and one integration layer above it
        return TrainConfig(model=_desk_model(
            n_layers=3, d_model=128, n_heads=4, head_dim=32, ff_dim=512,
            memory_layers=(1,)))
    if name == "ref-37m":
        return TrainConfig(
            model=ModelConfig(n_layers=12, d_model=512, n_heads=8, head_dim=64,
                              ff_dim=2048, vocab_size=256, memory_layers=(8,),
                              local_ctx_len=256),
            optimizer="adafactor", max_lr=0.02, min_lr=0.01, warmup_steps=1000,
            steps=5000, task="text-synth")
    if name == "ref-184m":
        return TrainConfig(
            model=ModelConfig(n_layers=12, d_model=1024, n_heads=8, head_dim=128,
                              ff_dim=4096, vocab_size=256, memory_layers=(8,),
                              local_ctx_len=512),
            optimizer="adafactor", max_lr=0.01, min_lr=0.0005, warmup_steps=1000,
            steps=500_000, task="text-synth")
    raise ConfigError(f"unknown preset {name!r}; have desk, desk-byte, dict-small, "
                      "ref-37m, ref-184m")
