"""Versioned checkpoint container: run config, vocab, parameters, optimizer
moments, and the training RNG state, in one .npz with a JSON meta record.
Round-trips are bit-exact (float64 arrays stored losslessly)."""

from __future__ import annotations

import json
import tokenize
import zipfile
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, build_model
from .errors import ConfigError, ContractError, DataError
from .files import write_atomically
from .model import Summarizer
from .optim import OptimizerState
from .tokenizer import Vocab

FORMAT_VERSION = 1
# Each meta key and the JSON kind of its value (`opt_step` is also >= 0, and
# a bool is not an int); `load_state` checks that the model's generator
# accepts the RNG state.
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
    """Write the checkpoint, replacing `path` atomically (`write_atomically`).
    Each flat buffer is written as one array per parameter, its view of the
    buffer; the Adam moments not at all before a step (or a restore) has
    allocated them."""
    flats = {"param": model.params.theta, "m": opt.m, "v": opt.v}
    arrays = {f"{kind}:{name}": model.params.view(flat, name)
              for kind, flat in flats.items() if flat is not None for name in model.params}
    meta = {
        "version": FORMAT_VERSION,
        "run_config": run_config.to_dict(),
        "vocab": model.vocab.tokens(),
        "opt_step": opt.step,
        "rng_state": model.rng.bit_generator.state,
    }
    write_atomically(path, lambda f: np.savez(f, __meta__=np.array(json.dumps(meta)), **arrays),
                     "wb")


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; its run config is validated like a config file's,
    its vocab like a vocab file's, and each parameter or moment array must
    be float64."""
    key = None  # the array being read, if any
    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):  # a lone .npy array
            raise DataError(f"not a checkpoint file: {path}")
        arrays = {}
        with data:  # members are read, and their CRCs checked, here
            for key in data.files:
                arrays[key] = data[key]
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, NotImplementedError,
            tokenize.TokenError) as e:  # TokenError: a .npy header that does not parse
        raise DataError(f"cannot read checkpoint {path}: {e}"
                        + ("" if key is None else f" (array '{key}')")) from e
    if "__meta__" not in arrays:
        raise DataError(f"not a checkpoint file: {path}")
    try:
        meta = json.loads(str(arrays.pop("__meta__")))
    except ValueError:
        meta = None
    if not isinstance(meta, dict):
        raise DataError(f"checkpoint {path}: meta record is not a JSON object")
    if meta.get("version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {meta.get('version')} in {path}")
    missing = [key for key in _META_KEYS if key not in meta]
    if missing:
        raise DataError(f"checkpoint {path}: meta record has no {missing}")
    malformed = [key for key, kind in _META_KEYS.items() if type(meta[key]) is not kind]
    if not malformed and meta["opt_step"] < 0:
        malformed = ["opt_step"]
    if malformed:
        raise DataError(f"checkpoint {path}: meta record has malformed {malformed}")
    try:
        vocab = Vocab(meta["vocab"])
    except ContractError as e:
        raise DataError(f"checkpoint {path}: meta record has malformed ['vocab']: {e}") from None
    named = {"param": {}, "m": {}, "v": {}}
    for key, arr in arrays.items():
        kind, _, name = key.partition(":")
        if kind in named:
            named[kind][name] = arr
            if not isinstance(arr, np.ndarray):  # numpy hands back a non-.npy member's bytes
                raise DataError(f"cannot read checkpoint {path}: array '{key}' is not .npy data")
            if arr.dtype != np.float64:
                raise DataError(f"checkpoint {path}: array '{key}' has dtype {arr.dtype}, "
                                "expected float64")
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
    into a built model and optimizer, whose settings stay their own. The
    parameters and each moment must cover every parameter in its shape;
    only a step-0 checkpoint may hold no moments, which load as zeros."""
    params = model.params
    want = {name: shape for name, (_, _, shape) in params.slots.items()}
    held = {"parameter": ckpt.params, "Adam moment m": ckpt.m, "Adam moment v": ckpt.v}
    if ckpt.opt_step == 0 and not ckpt.m and not ckpt.v:
        held = {"parameter": ckpt.params}
    for kind, arrays in held.items():
        got = {name: arr.shape for name, arr in arrays.items()}
        if got != want:
            name = next(n for n in [*want, *got] if got.get(n) != want.get(n))
            raise ConfigError(f"checkpoint/config mismatch: {kind} '{name}' has shape "
                              f"{got.get(name)}, model expects {want.get(name)}")
    opt.bind(params)
    for flat, arrays in ((params.theta, ckpt.params), (opt.m, ckpt.m), (opt.v, ckpt.v)):
        for name in params:
            params.view(flat, name)[...] = arrays.get(name, 0.0)
    opt.step = ckpt.opt_step
    try:
        model.rng.bit_generator.state = ckpt.rng_state
    except (TypeError, ValueError, KeyError, OverflowError) as e:
        raise DataError(f"checkpoint meta record has malformed ['rng_state']: {e}") from None
