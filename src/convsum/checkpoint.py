"""Versioned checkpoint container: run config, vocab, parameters, optimizer
moments, and the training RNG state, in one .npz with a JSON meta record.
Round-trips are bit-exact (float64 arrays stored losslessly)."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, build_model
from .errors import ConfigError, ContractError, DataError
from .model import Summarizer
from .optim import OptimizerState
from .tokenizer import Vocab

FORMAT_VERSION = 1
# Each meta key and the JSON kind of its value; `load_state` checks that the
# model's generator accepts the RNG state.
_META_KEYS = {"run_config": dict, "vocab": list, "opt_step": int, "rng_state": dict}


@dataclass
class Checkpoint:
    run_config: RunConfig
    vocab: Vocab
    params: dict[str, np.ndarray]
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    opt_step: int
    rng_state: dict


def save_checkpoint(
    path: str, model: Summarizer, opt: OptimizerState, run_config: RunConfig
) -> None:
    """Write the checkpoint atomically: into `path + ".tmp"`, synced to disk,
    then renamed over `path`. A crash leaves either the old file or the new
    one at `path`, never a partial one."""
    named = {"param": {name: t.data for name, t in model.params.items()}, "m": opt.m, "v": opt.v}
    arrays = {f"{kind}:{name}": arr for kind, arrs in named.items() for name, arr in arrs.items()}
    meta = {
        "version": FORMAT_VERSION,
        "run_config": run_config.to_dict(),
        "vocab": model.vocab.tokens(),
        "opt_step": opt.step,
        "rng_state": model.rng.bit_generator.state,
    }
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            np.savez(f, __meta__=np.array(json.dumps(meta)), **arrays)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; its run config is validated like a config file's,
    and its vocab like a vocab file's."""
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from e
    with data:
        if "__meta__" not in data:
            raise DataError(f"not a checkpoint file: {path}")
        try:
            meta = json.loads(str(data["__meta__"]))
        except ValueError:
            meta = None
        if not isinstance(meta, dict):
            raise DataError(f"checkpoint {path}: meta record is not a JSON object")
        if meta.get("version") != FORMAT_VERSION:
            raise ConfigError(
                f"unsupported checkpoint version {meta.get('version')} in {path}"
            )
        missing = [key for key in _META_KEYS if key not in meta]
        if missing:
            raise DataError(f"checkpoint {path}: meta record has no {missing}")
        malformed = [key for key, kind in _META_KEYS.items() if not isinstance(meta[key], kind)]
        if malformed:
            raise DataError(f"checkpoint {path}: meta record has malformed {malformed}")
        try:
            vocab = Vocab(meta["vocab"])
        except ContractError as e:
            raise DataError(f"checkpoint {path}: meta record has malformed ['vocab']: {e}") from None
        named = {"param": {}, "m": {}, "v": {}}
        for key in data.files:
            kind, _, name = key.partition(":")
            if kind in named:
                named[kind][name] = data[key]
    return Checkpoint(
        run_config=RunConfig.from_dict(meta["run_config"]).validate(),
        vocab=vocab,
        params=named["param"],
        m=named["m"],
        v=named["v"],
        opt_step=meta["opt_step"],
        rng_state=meta["rng_state"],
    )


def restore_model(ckpt: Checkpoint) -> tuple[Summarizer, OptimizerState]:
    """Rebuild the model/optimizer a checkpoint describes and load its state."""
    model, opt = build_model(ckpt.run_config, ckpt.vocab)
    load_state(ckpt, model, opt)
    return model, opt


def load_state(ckpt: Checkpoint, model: Summarizer, opt: OptimizerState) -> None:
    """Load a checkpoint's parameters, Adam moments and step, and RNG state
    into a built model and optimizer, whose settings stay their own."""
    expected = set(model.params)
    if expected != set(ckpt.params):
        missing = sorted(expected - set(ckpt.params))[:3]
        extra = sorted(set(ckpt.params) - expected)[:3]
        raise ConfigError(
            f"checkpoint parameters do not match the configured model "
            f"(missing {missing}, unexpected {extra})"
        )
    for name, arr in ckpt.params.items():
        view = model.params[name].data
        if view.shape != arr.shape:
            raise ConfigError(
                f"checkpoint/config mismatch: parameter '{name}' has shape "
                f"{arr.shape}, model expects {view.shape}"
            )
        view[...] = arr
    opt.m, opt.v = ckpt.m, ckpt.v
    try:
        opt.bind(model.params)  # copies the moments into the optimizer's flat buffers
    except ContractError as e:
        raise ConfigError(f"checkpoint/config mismatch: {e}") from None
    opt.step = ckpt.opt_step
    try:
        model.rng.bit_generator.state = ckpt.rng_state
    except (TypeError, ValueError, KeyError, OverflowError) as e:
        raise DataError(f"checkpoint meta record has malformed ['rng_state']: {e}") from None
