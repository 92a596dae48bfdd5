"""Run configuration: flat key=value text with section headers.

TrainConfig round-trips losslessly through emit_config/parse_config; the
config hash fingerprints the emitted text. Presets cover the desk-scale
defaults plus the reference-table model sizes for users with more compute.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .model import ModelConfig
from .pipeline import DSchedule, SegmentSchedule
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
    precision: str = "f32"             # f32 | f64
    checkpoint_every: int = 0          # 0: final checkpoint only
    log_every: int = 25
    chunk_slots: int = 8
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
        if self.precision not in ("f32", "f64"):
            raise ConfigError(f"unknown precision {self.precision!r}")
        if self.warmup_steps > self.steps:
            raise ConfigError(f"warmup {self.warmup_steps} exceeds steps {self.steps}")
        if self.max_lr <= 0 or self.min_lr <= 0 or self.min_lr > self.max_lr:
            raise ConfigError("need 0 < min_lr <= max_lr")
        if self.b_s < 1 or self.w < 1 or self.steps < 1:
            raise ConfigError("b_s, w, steps must be positive")
        self.schedule().validate(self.b_s, self.w)

    def schedule(self) -> SegmentSchedule:
        if self.d_kind == "segments":
            if not self.segments:
                raise ConfigError("d_kind=segments needs a segments spec")
            segs = []
            for part in self.segments.split(","):
                try:
                    frac, pos, neg = part.split(":")
                    segs.append((float(frac), int(pos), int(neg)))
                except ValueError as e:
                    raise ConfigError(f"segments part {part!r} is not frac:pos:neg") from e
            return SegmentSchedule(DSchedule("constant", d=0), tuple(segs))
        if self.d_kind == "random":
            choices = _parse_ints(self.d_choices, "d_choices")
            return SegmentSchedule(DSchedule("random", choices=choices))
        if self.d_kind == "staged":
            return SegmentSchedule(DSchedule("staged", d_small=self.d_small,
                                             d_large=self.d_large,
                                             switch_step=self.d_switch_step))
        if self.d_kind == "constant":
            return SegmentSchedule(DSchedule("constant", d=self.d))
        raise ConfigError(f"unknown d_kind {self.d_kind!r}")


_BOOLS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_value(raw: str, target_type, name: str):
    raw = raw.strip()
    if target_type is bool:
        if raw.lower() not in _BOOLS:
            raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
        return _BOOLS[raw.lower()]
    if target_type is int:
        try:
            return int(raw)
        except ValueError as e:
            raise ConfigError(f"{name}: expected an integer, got {raw!r}") from e
    if target_type is float:
        try:
            return float(raw)
        except ValueError as e:
            raise ConfigError(f"{name}: expected a float, got {raw!r}") from e
    return raw


def _parse_ints(raw: str, name: str) -> tuple[int, ...]:
    """A comma-separated integer list; empty parts are skipped."""
    try:
        return tuple(int(x) for x in raw.split(",") if x.strip() != "")
    except ValueError as e:
        raise ConfigError(f"{name}: expected comma-separated integers, got {raw!r}") from e


def emit_config(cfg: TrainConfig) -> str:
    cp = configparser.ConfigParser()
    cp["model"] = {}
    for f in fields(ModelConfig):
        v = getattr(cfg.model, f.name)
        if f.name == "memory_layers":
            v = ",".join(str(m) for m in v)
        cp["model"][f.name] = str(v)
    cp["train"] = {}
    for f in fields(TrainConfig):
        if f.name == "model":
            continue
        cp["train"][f.name] = str(getattr(cfg, f.name))
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
    model_fields = {f.name: f for f in fields(ModelConfig)}
    train_fields = {f.name: f for f in fields(TrainConfig) if f.name != "model"}
    for section in cp.sections():
        if section == "model":
            for key, raw in cp["model"].items():
                if key not in model_fields:
                    raise ConfigError(f"unknown model key {key!r}")
                if key == "memory_layers":
                    v = _parse_ints(raw, "model.memory_layers")
                else:
                    v = _parse_value(raw, type(getattr(cfg.model, key)), f"model.{key}")
                setattr(cfg.model, key, v)
        elif section == "train":
            for key, raw in cp["train"].items():
                if key not in train_fields:
                    raise ConfigError(f"unknown train key {key!r}")
                setattr(cfg, key, _parse_value(raw, type(getattr(cfg, key)), f"train.{key}"))
        else:
            raise ConfigError(f"unknown config section [{section}]")
    return cfg


def apply_overrides(cfg: TrainConfig, overrides: list[str]) -> TrainConfig:
    """Apply repeatable --override entries like model.n_layers=2 or steps=50."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key.startswith("model."):
            attr = key[len("model."):]
            if not hasattr(cfg.model, attr):
                raise ConfigError(f"unknown override target {key!r}")
            if attr == "memory_layers":
                v = _parse_ints(raw, key)
            else:
                v = _parse_value(raw, type(getattr(cfg.model, attr)), key)
            setattr(cfg.model, attr, v)
        else:
            attr = key[len("train."):] if key.startswith("train.") else key
            if attr == "model" or not hasattr(cfg, attr):
                raise ConfigError(f"unknown override target {key!r}")
            setattr(cfg, attr, _parse_value(raw, type(getattr(cfg, attr)), key))
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
