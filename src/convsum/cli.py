"""Command-line harness: build-vocab, train, summarize, evaluate, leadtail.

Every command validates its configuration before touching data, is
deterministic given (config, seed, inputs), and exits nonzero with a
categorized error message on failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from . import data
from .checkpoint import load_checkpoint, restore_model
from .config import SCHEMA, RunConfig, check_arch_compatible, load_config, parse_value
from .decoding import DecodingConfig, beam_search
from .errors import (
    ConfigError,
    ContractError,
    ConvsumError,
    DataError,
    DegenerateInputError,
    NonFiniteError,
)
from .rouge import format_report, lead_tail_analysis, split_sentences
from .tokenizer import Vocab, build_vocab, detokenize
from .trainer import Trainer, evaluate_model

_DECODING_KEYS = tuple(f.name for f in fields(DecodingConfig))


def _add_config_flags(parser: argparse.ArgumentParser, keys=None) -> None:
    for key in keys if keys is not None else SCHEMA:
        parser.add_argument(
            "--" + key.replace("_", "-"), dest=f"cfg_{key}", default=None,
            metavar=SCHEMA[key].upper(),
        )


def _apply_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    values = cfg.to_dict()
    for key in SCHEMA:
        raw = getattr(args, f"cfg_{key}", None)
        if raw is not None:
            values[key] = parse_value(key, raw, SCHEMA[key])
    return RunConfig.from_dict(values).validate()


def _load_model(args: argparse.Namespace):
    ckpt = load_checkpoint(args.checkpoint)
    if getattr(args, "config", None):
        check_arch_compatible(ckpt.run_config, load_config(args.config))
    model, _ = restore_model(ckpt)
    cfg = _apply_flags(ckpt.run_config, args)
    return model, cfg


def cmd_build_vocab(args: argparse.Namespace) -> int:
    if args.size <= 0:
        raise ConfigError("--size must be positive")
    docs = data.load_jsonl(args.corpus)
    vocab = build_vocab(data.iter_texts(docs), args.size)
    vocab.save(args.out)
    print(f"wrote {len(vocab)} tokens to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _apply_flags(load_config(args.config), args)
    if not cfg.vocab:
        raise ConfigError("config must set 'vocab'")
    if not cfg.corpus:
        raise ConfigError("config must set 'corpus'")
    vocab = Vocab.load(cfg.vocab)
    pairs = data.encode_pairs(data.load_jsonl(cfg.corpus), vocab, cfg)
    trainer = Trainer(cfg, vocab, pairs, resume_from=args.resume)
    rows = trainer.run()
    if rows:
        step, lr, loss = rows[-1]
        print(f"trained to step {step} (lr {lr:.6e}, loss {loss:.6f})")
    print(f"checkpoints in {cfg.checkpoint_dir}")
    return 0


def cmd_summarize(args: argparse.Namespace) -> int:
    model, cfg = _load_model(args)
    if args.text is not None:
        text = args.text
    else:
        try:
            with open(args.input, encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            raise DataError(f"cannot read input file {args.input}: {e}") from e
    src = data.encode_source(text, model.vocab, cfg)
    ids = beam_search(model, src, cfg.decoding_config())
    print(detokenize(ids, model.vocab))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    model, cfg = _load_model(args)
    docs = data.load_jsonl(args.test)
    test_pairs = []
    for doc in docs:
        src = data.encode_source(doc["source"], model.vocab, cfg)
        ref_ids = data.encode_target(doc["summary"], model.vocab)[1:-1]
        test_pairs.append((src, [model.vocab.token(i) for i in ref_ids]))
    scores = evaluate_model(model, test_pairs, cfg.decoding_config(), words=args.words)
    print(format_report(scores))
    return 0


def cmd_leadtail(args: argparse.Namespace) -> int:
    docs = data.load_jsonl(args.corpus)
    corpus = [(split_sentences(d["source"]), d["summary"]) for d in docs]
    scores = lead_tail_analysis(corpus, args.direction)
    print(format_report(scores))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convsum",
        description="Desk-scale abstractive summarization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build a vocab file from a JSONL corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("summarize", help="summarize one text with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", default=None, help="optional config to cross-check")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--text", default=None)
    group.add_argument("--input", default=None)
    _add_config_flags(p, _DECODING_KEYS)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("evaluate", help="ROUGE of beam output on a test JSONL")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", default=None, help="optional config to cross-check")
    p.add_argument("--test", required=True)
    p.add_argument("--words", action="store_true",
                   help="score whitespace words instead of subword tokens")
    _add_config_flags(p, _DECODING_KEYS)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("leadtail", help="head/tail positional ROUGE baseline")
    p.add_argument("--corpus", required=True)
    p.add_argument("--direction", choices=("head", "tail"), required=True)
    p.set_defaults(func=cmd_leadtail)

    return parser


_EXIT_CODES = (
    (ConfigError, 2, "config"),
    (DataError, 3, "data"),
    ((ContractError, DegenerateInputError), 4, "contract"),
    (NonFiniteError, 5, "numeric"),
    (ConvsumError, 1, "error"),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConvsumError as e:
        for types, code, label in _EXIT_CODES:
            if isinstance(e, types):
                print(f"error[{label}]: {e}", file=sys.stderr)
                return code
        raise  # unreachable


if __name__ == "__main__":
    sys.exit(main())
