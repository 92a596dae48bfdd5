"""Command-line entry points: train, eval, sweep, gen-data, inspect.

Exit codes: 0 success, 2 config, usage, format or shape error, 3 data error,
4 numeric failure.
FOT_NUM_WORKERS caps sweep parallelism.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, tasks
from .config import (TrainConfig, _decode, apply_overrides, config_hash, emit_config, get_preset,
                     parse_config)
from .errors import ConfigError, DataError, FormatError, FotError, NumericError, ShapeError, UsageError
from .model import CHECKPOINT_VERSION, Transformer, load_checkpoint, param_count
from .tasks import DictTaskConfig, PasskeyTaskConfig
from .training import train


def _load_train_config(args) -> TrainConfig:
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        cfg = parse_config(path.read_text())
    else:
        cfg = get_preset(args.preset or "desk")
    cfg = apply_overrides(cfg, args.override or [])
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.validate()
    return cfg


def cmd_train(args) -> int:
    cfg = _load_train_config(args)
    result = train(cfg, args.out)
    print(f"final loss {result.final_loss:.4f}")
    print(f"checkpoint {result.checkpoint_path}")
    print(f"metrics    {result.metrics_path}")
    return 0


def _load_model(path: str) -> tuple[Transformer, str]:
    cfg, params = load_checkpoint(path)
    return Transformer(cfg, params=params), path


def _parse_axis(spec: str) -> tuple[str, list[float]]:
    if "=" not in spec:
        raise ConfigError(f"axis spec {spec!r} is not name=v1,v2,...")
    name, vals = spec.split("=", 1)
    try:
        values = [float(v) for v in vals.split(",")]
    except ValueError as e:
        raise ConfigError(f"axis spec {spec!r}: values must be numbers") from e
    bad = [v for v in values if not v.is_integer()]  # every suite counts tokens or windows
    if bad:
        raise ConfigError(f"axis spec {spec!r}: {bad[0]:g} is not a whole number")
    return name.strip(), values


def cmd_eval(args) -> int:
    axis_name, axis_vals = _parse_axis(args.axis)
    model, ck_path = _load_model(args.checkpoint)
    t = model.cfg.local_ctx_len
    if args.suite == "dict":
        bad = [v for v in axis_vals if v <= 0 or v % t]
        need = f"a positive multiple of {t} (local_ctx_len)"
    else:
        bad = [v for v in axis_vals if v < 0] if args.suite == "ppl" else []
        need = "0 or more (a memory cap in tokens)"
    if bad:
        raise ConfigError(f"{axis_name} must be {need}, got {bad[0]:g}")
    chash = config_hash(TrainConfig(model=model.cfg))
    run_id = f"eval-{Path(ck_path).stem}"
    rows: list[analysis.EvalResult] = []
    for v in axis_vals:
        if args.suite == "dict":
            res = analysis.dict_eval_accuracy(model, int(v) + t, n_docs=args.n_docs, k=args.k,
                                              seed=args.seed, use_memory=not args.no_memory)
            rows.append(analysis.EvalResult(run_id, "dict_accuracy", axis_name, v,
                                            res.accuracy, args.seed, chash))
        elif args.suite == "passkey":
            rng = np.random.default_rng(args.seed)
            prompts = [tasks.gen_passkey(PasskeyTaskConfig(prompt_len=int(v)), rng)
                       for _ in range(args.n_docs)]
            conts = [analysis.greedy_continuation(model, p.tokens, 8, k=args.k)
                     for p in prompts]
            acc = analysis.passkey_accuracy(prompts, conts)
            rows.append(analysis.EvalResult(run_id, "passkey_accuracy", axis_name, v,
                                            acc, args.seed, chash))
        elif args.suite == "ppl":
            docs = _eval_docs(args, model)
            res = analysis.perplexity_eval(model, docs, args.mode, k=args.k,
                                           memory_token_cap=int(v),
                                           token_budget=args.token_budget)
            rows.append(analysis.EvalResult(run_id, "perplexity", axis_name, v,
                                            res.ppl, args.seed, chash))
        elif args.suite == "distraction":
            docs = _distraction_docs(args, model)
            rep = analysis.distraction_eval(model, docs, int(v), min_queries=args.min_queries)
            rows.append(analysis.EvalResult(run_id, "positive_attention_mass",
                                            axis_name, v, rep.r, args.seed, chash))
        else:
            raise ConfigError(f"unknown suite {args.suite!r}")
    analysis.write_metrics_csv(args.out, rows)
    for r in rows:
        print(f"{r.metric} {r.axis_name}={r.axis_value:g} -> {r.value:.4f}")
    print(f"wrote {args.out}")
    return 0


def _eval_docs(args, model):
    if args.corpus:
        docs = list(tasks.load_corpus(args.corpus, args.min_doc_len))
        if not any(len(toks) > 1 for _, toks in docs):
            raise DataError(f"{args.corpus}: no document of {max(2, args.min_doc_len)}+ bytes to score")
        return docs
    docs = tasks.gen_text_corpus(16, 4 * model.cfg.local_ctx_len, seed=args.seed)
    return [(i, tasks.encode_bytes(d)) for i, d in enumerate(docs)]


def _distraction_docs(args, model):
    t = model.cfg.local_ctx_len
    if args.corpus:
        stream = tasks.load_corpus(args.corpus, args.min_doc_len)
    else:
        texts = tasks.gen_text_corpus(512, 3 * t, seed=args.seed)
        stream = tasks.CorpusStream([tasks.encode_bytes(x)[: 2 * t] for x in texts],
                                    list(range(len(texts))))
    return tasks.corpus_training_stream(stream)


def cmd_sweep(args) -> int:
    base = _load_train_config(args)
    grid: dict[str, list[str]] = {}
    for part in args.grid.split(";"):
        if "=" not in part:
            raise ConfigError(f"grid part {part!r} is not key=v1,v2,...")
        key, vals = part.split("=", 1)
        grid[key.strip()] = vals.split(",")
    keys = sorted(grid)
    cells = list(itertools.product(*(grid[k] for k in keys)))
    workers = _decode(os.environ.get("FOT_NUM_WORKERS", "1"), int, "FOT_NUM_WORKERS")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    jobs = []
    for i, cell in enumerate(cells):
        overrides = [f"{k}={v}" for k, v in zip(keys, cell)]
        cell_dir = out / f"cell{i:03d}"
        jobs.append((emit_config(base), overrides, str(cell_dir)))
    if workers > 1:
        import multiprocessing as mp
        with mp.get_context("spawn").Pool(min(workers, len(jobs))) as pool:
            results = pool.map(_sweep_cell, jobs)
    else:
        results = [_sweep_cell(j) for j in jobs]
    summary = out / "summary.csv"
    with open(summary, "w", encoding="ascii") as f:
        f.write("cell,overrides,status,final_loss,config_hash,checkpoint\n")
        for i, (job, res) in enumerate(zip(jobs, results)):
            f.write(f"cell{i:03d},\"{' '.join(job[1])}\",{res['status']},"
                    f"{res['final_loss']},{res['config_hash']},{res['checkpoint']}\n")
            print(f"cell{i:03d} [{res['status']}] {' '.join(job[1])} "
                  f"loss={res['final_loss']}")
    print(f"wrote {summary}")
    return 0


def _sweep_cell(job: tuple[str, list[str], str]) -> dict:
    text, overrides, cell_dir = job
    try:
        cfg = apply_overrides(parse_config(text), overrides)
        cfg.validate()
        res = train(cfg, cell_dir)
        return {"status": "ok", "final_loss": f"{res.final_loss:.6f}",
                "config_hash": config_hash(cfg), "checkpoint": str(res.checkpoint_path)}
    except FotError as e:  # partial failures recorded, sweep continues
        return {"status": f"failed({type(e).__name__})", "final_loss": "",
                "config_hash": "", "checkpoint": ""}


def cmd_gen_data(args) -> int:
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.task == "dict":
        rng = np.random.default_rng(args.seed)
        docs = [tasks.gen_dict_lookup(DictTaskConfig(), rng=rng).tokens
                for _ in range(args.n_docs)]
        tasks.dump_token_file(docs, out)
    elif args.task == "passkey":
        rng = np.random.default_rng(args.seed)
        prompts = [tasks.gen_passkey(PasskeyTaskConfig(prompt_len=args.prompt_len), rng)
                   for _ in range(args.n_docs)]
        tasks.dump_token_file([p.tokens for p in prompts], out)
        answers = out.with_suffix(".answers.txt")
        answers.write_text("".join(p.answer + "\n" for p in prompts))
        print(f"wrote {answers}")
    elif args.task == "text":
        docs = tasks.gen_text_corpus(args.n_docs, args.doc_len, seed=args.seed)
        tasks.save_corpus(docs, out)
    else:
        raise ConfigError(f"unknown gen-data task {args.task!r}")
    print(f"wrote {out}")
    return 0


def cmd_inspect(args) -> int:
    cfg, params = load_checkpoint(args.checkpoint)
    total = sum(p.data.size for p in params.values())
    print(f"checkpoint {args.checkpoint}")
    print(f"format     FOTC v{CHECKPOINT_VERSION}")
    print(f"parameters {total} (analytic {param_count(cfg)})")
    print("config:")
    for k, v in sorted(cfg.to_dict().items()):
        print(f"  {k} = {v}")
    print("per-layer parameter L2 norms:")
    for li in range(cfg.n_layers):
        sq = sum(float((p.data.astype(np.float64) ** 2).sum())
                 for name, p in params.items() if name.startswith(f"layers.{li}."))
        tag = " [memory]" if li in cfg.memory_layers else ""
        print(f"  layer {li:2d}: {sq ** 0.5:10.4f}{tag}")
    for name in ("embed", "final_ln", "lm_head"):
        norm = float(np.linalg.norm(params[name].data.astype(np.float64)))
        print(f"  {name:8s}: {norm:10.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fot", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="config file (key = value with sections)")
        sp.add_argument("--preset", help="named preset (desk, desk-byte, dict-small, ref-37m, ref-184m)")
        sp.add_argument("--override", action="append", metavar="KEY=VALUE",
                        help="config override, repeatable (e.g. model.n_layers=2)")
        sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("train", help="run a training loop")
    common(sp)
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--suite", required=True, choices=["dict", "passkey", "ppl", "distraction"])
    sp.add_argument("--axis", required=True, metavar="NAME=V1,V2,...",
                    help="e.g. memory=512,2048,8192,16384 or d=4,8,64")
    sp.add_argument("--out", required=True, help="metrics CSV path")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--k", type=int, default=32)
    sp.add_argument("--n-docs", type=int, default=8)
    sp.add_argument("--mode", default="single_doc", choices=["single_doc", "multi_doc"])
    sp.add_argument("--no-memory", action="store_true",
                    help="dict suite: local-only long-context baseline path")
    sp.add_argument("--corpus", default="", help="ppl/distraction: corpus file")
    sp.add_argument("--min-doc-len", type=int, default=0)
    sp.add_argument("--token-budget", type=int, default=100_000)
    sp.add_argument("--min-queries", type=int, default=1000)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("sweep", help="grid of training runs")
    common(sp)
    sp.add_argument("--grid", required=True, metavar="KEY=V1,V2;KEY2=...",
                    help="semicolon-separated config paths with comma value lists")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("gen-data", help="dump generator output")
    sp.add_argument("--task", required=True, choices=["dict", "passkey", "text"])
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n-docs", type=int, default=16)
    sp.add_argument("--doc-len", type=int, default=2048)
    sp.add_argument("--prompt-len", type=int, default=1024)
    sp.set_defaults(fn=cmd_gen_data)

    sp = sub.add_parser("inspect", help="human-readable checkpoint report")
    sp.add_argument("--checkpoint", required=True)
    sp.set_defaults(fn=cmd_inspect)
    return p


# (error class, exit code, message prefix); the first class that matches wins
EXIT_CODES = ((DataError, 3, "data error"), (NumericError, 4, "numeric failure"),
              (FormatError, 2, "format error"), (UsageError, 2, "usage error"),
              (ShapeError, 2, "shape error"), (FotError, 2, "config error"))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FotError as e:
        code, label = next((c, lab) for cls, c, lab in EXIT_CODES if isinstance(e, cls))
        print(f"{label}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
