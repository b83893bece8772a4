"""Command-line entry point wiring all modules into reproducible pipelines.

Configuration comes from an INI-style file (sections of key=value pairs);
unknown sections or keys are rejected.  Command-line flags override file
values.  Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numeric
error.  The MVLI_CONFIG environment variable supplies a default config path.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import augment as aug
from . import datagen as dg
from . import evaluation as ev
from . import index as idx
from . import synth as sy
from .core import ConfigError, DataError, EngineError, NumericError, write_text
from .encoder import (
    ABLATION_ROWS,
    EncoderConfig,
    EncoderFlags,
    QueryInput,
    SeededEmbeddingProvider,
    encode_corpus,
    encode_query,
    init_encoder_params,
    load_params,
    params_checksum,
    save_params,
)
from .train import TrainConfig, train

CONFIG_ENV_VAR = "MVLI_CONFIG"

_SCHEMA: dict[str, dict[str, type]] = {
    "engine": {
        "dim": int, "text_dim": int, "image_dim": int, "n_patches": int,
        "n_heads": int, "attn_dim": int, "ff_dim": int, "n_mm_tokens": int,
    },
    "index": {
        "k_centroids": int, "kmeans_iters": int, "nbits": int,
        "nprobe": int, "candidate_doc_cap": int,
    },
    "train": {
        "batch_size": int, "learning_rate": float, "epochs": int,
        "flags": str, "adam": bool, "image_only": bool,
    },
    "synth": {
        "n_docs": int, "entities_per_doc": float, "fraction_shortcut": float,
        "typemap_size": int, "samples_per_doc": int, "unseen_doc_fraction": float,
        "n_train": int, "n_test_seen": int, "n_test_unseen": int,
    },
    "run": {"seed": int},
}


class RunConfig:
    """Validated key/value configuration with typed accessors."""

    def __init__(self, values: dict[tuple[str, str], object]):
        self.values = values

    @staticmethod
    def load(path: str | None, overrides: list[str] | None = None) -> "RunConfig":
        values: dict[tuple[str, str], object] = {}
        if path:
            if not Path(path).is_file():
                raise ConfigError(f"config file not found: {path}")
            parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
            try:
                parser.read(path)
            except configparser.Error as exc:
                raise ConfigError(f"unreadable config file {path}: {exc}") from exc
            for section in parser.sections():
                if section not in _SCHEMA:
                    raise ConfigError(f"unknown config section [{section}]")
                for key, raw in parser.items(section):
                    values[(section, key)] = _parse_value(section, key, raw)
        for item in overrides or []:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                raise ConfigError(f"override must look like section.key=value: {item!r}")
            dotted, raw = item.split("=", 1)
            section, key = dotted.split(".", 1)
            values[(section, key)] = _parse_value(section, key, raw)
        return RunConfig(values)

    def get(self, section: str, key: str, default=None):
        return self.values.get((section, key), default)

    def section(self, name: str, keys: tuple[str, ...] = ()) -> dict:
        """Values set in one section (or in its `keys`); unset keys keep library defaults."""
        return {key: self.values[(name, key)] for key in (keys or _SCHEMA[name])
                if (name, key) in self.values}

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(**self.section("engine"))

    def train_config(self, seed: int) -> TrainConfig:
        kwargs = self.section("train")
        if "flags" in kwargs:
            kwargs["flags"] = EncoderFlags.parse(kwargs["flags"])
        return TrainConfig(seed=seed, **kwargs)

    def synth_config(self, seed: int) -> sy.SynthConfig:
        return sy.SynthConfig(seed=seed, **self.section("synth"))

    def seed(self, args_seed: int | None) -> int:
        if args_seed is not None:
            return args_seed
        return int(self.get("run", "seed", 0))


def _parse_value(section: str, key: str, raw: str):
    schema = _SCHEMA.get(section)
    if schema is None:
        raise ConfigError(f"unknown config section [{section}]")
    if key not in schema:
        raise ConfigError(f"unknown config key {section}.{key}")
    kind = schema[key]
    raw = raw.strip()
    try:
        if kind is bool:
            lowered = raw.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc


def _require_files(*paths: str | None) -> None:
    for path in paths:
        if path is not None and not Path(path).is_file():
            raise DataError(f"input file not found: {path}")


def _flags(args, cfg: RunConfig) -> EncoderFlags:
    if getattr(args, "flags", None) is not None:
        return EncoderFlags.parse(args.flags)
    configured = cfg.get("train", "flags")
    return EncoderFlags.parse(configured) if configured is not None else EncoderFlags()


def _load_world(kb_path: str, cap: int | None = None):
    kb = aug.load_kb(kb_path)
    kb_aug = aug.augment_kb(kb, cap=cap)
    return kb, kb_aug


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_synth(args, cfg: RunConfig) -> int:
    seed = cfg.seed(args.seed)
    scfg = cfg.synth_config(seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    kb = sy.generate_kb(scfg)
    typemap = sy.assign_typemap([d.title for d in kb.values()], scfg)
    splits = sy.generate_benchmark(kb, scfg, typemap, augmented=aug.augment_kb(kb))
    aug.save_kb(kb, out_dir / "kb.jsonl")
    dg.save_typemap(typemap, out_dir / "typemap.json")
    dg.save_samples(splits.train, out_dir / "train.jsonl")
    dg.save_samples(splits.test_seen, out_dir / "test_seen.jsonl")
    dg.save_samples(splits.test_unseen, out_dir / "test_unseen.jsonl")
    dg.save_rejected(splits.rejected, out_dir / "rejected.jsonl")
    print(
        f"synth: {len(kb)} docs, {len(splits.train)} train / "
        f"{len(splits.test_seen)} seen / {len(splits.test_unseen)} unseen samples, "
        f"{len(splits.rejected)} rejected -> {out_dir}"
    )
    return 0


def cmd_augment(args, cfg: RunConfig) -> int:
    _require_files(args.kb)
    _, augmented = _load_world(args.kb, args.cap)
    aug.save_augmented(augmented, args.out)
    total = sum(len(a.related) for a in augmented.values())
    print(f"augment: {len(augmented)} docs, {total} related-entity images -> {args.out}")
    return 0


def cmd_datagen(args, cfg: RunConfig) -> int:
    _require_files(args.kb, args.typemap)
    seed = cfg.seed(args.seed)
    _, kb_aug = _load_world(args.kb)
    typemap = dg.load_typemap(args.typemap)
    samples, rejected = dg.generate_samples(
        kb_aug, typemap, seed, samples_per_doc=args.samples_per_doc
    )
    dg.save_samples(samples, args.out)
    rejected_path = args.rejected or str(Path(args.out).with_suffix(".rejected.jsonl"))
    dg.save_rejected(rejected, rejected_path)
    print(f"datagen: kept {len(samples)}, rejected {len(rejected)} -> {args.out}")
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    _require_files(args.kb, args.samples)
    seed = cfg.seed(args.seed)
    encoder_config = cfg.encoder_config()
    tcfg = cfg.train_config(seed)
    tcfg = dataclasses.replace(tcfg, flags=_flags(args, cfg))
    kb, kb_aug = _load_world(args.kb)
    samples = dg.load_samples(args.samples)
    provider = SeededEmbeddingProvider(encoder_config)
    params = init_encoder_params(encoder_config, seed)
    params, stats = train(samples, kb_aug, tcfg, params, encoder_config, provider)
    save_params(params, encoder_config, args.out)
    checksum = params_checksum(params)
    if args.stats:
        write_text(args.stats, json.dumps(
            {"losses": stats.losses, "grad_norms": stats.grad_norms, "final_checksum": checksum},
            sort_keys=True, indent=2) + "\n")
    first = stats.losses[0] if stats.losses else float("nan")
    last = stats.losses[-1] if stats.losses else float("nan")
    print(f"train: {len(stats.losses)} steps, loss {first:.4f} -> {last:.4f}, "
          f"checksum {checksum} -> {args.out}")
    return 0


def cmd_index(args, cfg: RunConfig) -> int:
    _require_files(args.kb, args.params)
    seed = cfg.seed(args.seed)
    params, encoder_config = load_params(args.params)
    kb, kb_aug = _load_world(args.kb)
    provider = SeededEmbeddingProvider(encoder_config)
    corpus = encode_corpus(kb_aug, params, encoder_config, provider, _flags(args, cfg))
    built = idx.build_index(
        corpus, seed=seed, **cfg.section("index", ("k_centroids", "kmeans_iters", "nbits"))
    )
    idx.save_index(built, args.out)
    print(f"index: {built.n_vectors} vectors, {built.centroids.shape[0]} centroids "
          f"-> {args.out}")
    return 0


def _search_params(cfg: RunConfig, k: int) -> idx.SearchParams:
    """The [index] search settings for a top-k search."""
    return idx.SearchParams.at_depth(k, **cfg.section("index", ("nprobe", "candidate_doc_cap")))


def cmd_search(args, cfg: RunConfig) -> int:
    _require_files(args.index, args.params)
    params, encoder_config = load_params(args.params)
    built = idx.load_index(args.index)
    provider = SeededEmbeddingProvider(encoder_config)
    query = encode_query(
        QueryInput(args.query_text or "", args.image_key),
        params, encoder_config, provider, image_only=not args.query_text,
    )
    ranked = idx.search(built, query, _search_params(cfg, args.k))
    for rank, scored in enumerate(ranked, start=1):
        print(f"{rank}\t{scored.doc_id}\t{scored.score:.6f}")
    return 0


def _write_report(report, path: str) -> None:
    """The report's CSV to path, its table to stdout."""
    write_text(path, report.to_csv_text())
    print(report.to_table_text(), end="")


def cmd_eval(args, cfg: RunConfig) -> int:
    _require_files(args.kb, args.params, args.samples, args.index)
    params, encoder_config = load_params(args.params)
    kb, kb_aug = _load_world(args.kb)
    samples = dg.load_samples(args.samples)
    provider = SeededEmbeddingProvider(encoder_config)
    built = search_params = None
    if args.index:
        built = idx.load_index(args.index)
        search_params = _search_params(cfg, max(ev.DEFAULT_KS))
    report = ev.evaluate_model(
        kb, kb_aug, params, encoder_config, provider, samples, _flags(args, cfg),
        benchmark=args.benchmark, index=built, search_params=search_params,
    )
    _write_report(report, args.report_out)
    print(f"eval: report -> {args.report_out}")
    return 0


def cmd_ablate(args, cfg: RunConfig) -> int:
    _require_files(args.kb, args.train_samples, args.test_samples)
    seed = cfg.seed(args.seed)
    encoder_config = cfg.encoder_config()
    tcfg = cfg.train_config(seed)
    kb, kb_aug = _load_world(args.kb)
    train_samples = dg.load_samples(args.train_samples)
    test_samples = dg.load_samples(args.test_samples)
    report = ev.run_ablation(
        kb, kb_aug, train_samples, test_samples, ABLATION_ROWS,
        encoder_config, tcfg, benchmark=args.benchmark,
    )
    _write_report(report, args.report_out)
    return 0


def cmd_probe(args, cfg: RunConfig) -> int:
    _require_files(args.kb, args.train_samples, args.test_samples)
    seed = cfg.seed(args.seed)
    encoder_config = cfg.encoder_config()
    tcfg = cfg.train_config(seed)
    kb, kb_aug = _load_world(args.kb)
    train_samples = dg.load_samples(args.train_samples)
    test_samples = dg.load_samples(args.test_samples)
    report = ev.run_shortcut_probe(
        kb, kb_aug, train_samples, test_samples, args.mode, _flags(args, cfg),
        encoder_config, tcfg, benchmark=args.benchmark,
    )
    _write_report(report, args.report_out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvli",
        description="Multi-vector late-interaction retrieval engine and benchmark tools.",
    )
    parser.add_argument(
        "--config",
        default=os.environ.get(CONFIG_ENV_VAR),
        help=f"INI config file (default from ${CONFIG_ENV_VAR})",
    )
    parser.add_argument(
        "--set", dest="overrides", action="append", metavar="SECTION.KEY=VALUE",
        help="override a config value (repeatable; wins over the file)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic KB and benchmark splits")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("augment", help="attach related-entity images to a KB")
    p.add_argument("--kb", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cap", type=int)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("datagen", help="run the sample-generation pipeline")
    p.add_argument("--kb", required=True)
    p.add_argument("--typemap", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rejected")
    p.add_argument("--samples-per-doc", type=int, default=4)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("train", help="train encoder parameters")
    p.add_argument("--kb", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats")
    p.add_argument("--flags")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("index", help="encode documents and build the index")
    p.add_argument("--kb", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--flags")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("search", help="search an index for one query")
    p.add_argument("--index", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--query-text", default="")
    p.add_argument("--image-key", required=True)
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="evaluate retrieval over a sample file")
    p.add_argument("--kb", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--report-out", required=True)
    p.add_argument("--index", help="use a saved index instead of exact scoring")
    p.add_argument("--flags")
    p.add_argument("--benchmark", default="synthetic")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train and evaluate the four flag rows")
    p.add_argument("--kb", required=True)
    p.add_argument("--train-samples", required=True)
    p.add_argument("--test-samples", required=True)
    p.add_argument("--report-out", required=True)
    p.add_argument("--benchmark", default="synthetic")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("probe", help="image-only vs image+text probe")
    p.add_argument("--kb", required=True)
    p.add_argument("--train-samples", required=True)
    p.add_argument("--test-samples", required=True)
    p.add_argument("--report-out", required=True)
    p.add_argument("--mode", required=True, choices=["image_only", "image_text"])
    p.add_argument("--flags")
    p.add_argument("--benchmark", default="synthetic")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_probe)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.load(args.config, args.overrides)
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except EngineError as exc:  # pragma: no cover - defensive catch-all
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
