"""Versioned checkpoint container: the parameter arena `theta` and the Adam
moments `m` and `v` as flat float64 arrays, a JSON meta record of run
config, vocab, slot table and RNG state, and `digest`, a sha256 checksum
of the meta text and the arrays. Round-trips are bit-exact. The checksum
catches damage and edits by tools that do not know the format (a re-zip
makes every CRC valid again), not deliberate ones: it is unkeyed."""

from __future__ import annotations

import hashlib
import json
import math
import tokenize
import zipfile
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .config import RunConfig, build_model
from .errors import ConfigError, ContractError, DataError
from .files import write_atomically
from .model import Summarizer
from .optim import OptimizerState
from .tokenizer import Vocab

FORMAT_VERSION = 2
# Each meta key and the JSON kind of its value (a bool is not an int), and
# what else some values must be; `load_state` checks that the model's
# generator accepts the RNG state.
_META_KEYS = {"run_config": dict, "vocab": list, "opt_step": int, "rng_state": dict,
              "slots": list}
_META_CHECKS = {"opt_step": lambda n: n >= 0, "slots": lambda slots: all(
    type(s) is list and len(s) == 2 and type(s[0]) is str and type(s[1]) is list
    and all(type(n) is int and n >= 0 for n in s[1]) for s in slots)}
_FLATS = ("theta", "m", "v")


@dataclass
class Checkpoint:
    run_config: RunConfig
    vocab: Vocab
    slots: list  # [name, shape] of each parameter, in arena order
    theta: np.ndarray
    m: np.ndarray | None
    v: np.ndarray | None
    opt_step: int
    rng_state: dict


def state_digest(theta: np.ndarray, m: np.ndarray | None, v: np.ndarray | None,
                 meta: str = "") -> str:
    """sha256 over the meta text, then theta's bytes, then m's and v's once
    allocated; with a checkpoint's meta text, its `digest`."""
    h = hashlib.sha256(meta.encode("utf-8", "surrogatepass"))
    for flat in (theta, m, v):
        if flat is not None:
            h.update(flat)
    return h.hexdigest()


def save_checkpoint(
    path: str, model: Summarizer, opt: OptimizerState, run_config: RunConfig
) -> None:
    """Write the checkpoint, replacing `path` atomically (`write_atomically`);
    the Adam moments not at all before a step (or a restore) has allocated
    them."""
    flats = {"theta": model.params.theta, "m": opt.m, "v": opt.v}
    meta = json.dumps({
        "version": FORMAT_VERSION,
        "run_config": run_config.to_dict(),
        "vocab": model.vocab.tokens(),
        "opt_step": opt.step,
        "rng_state": model.rng.bit_generator.state,
        "slots": [[name, list(shape)] for name, (_, _, shape) in model.params.slots.items()],
    })
    digest = state_digest(*flats.values(), meta)
    arrays = {key: flat for key, flat in flats.items() if flat is not None}
    write_atomically(path, lambda f: np.savez(f, __meta__=np.array(meta),
                                              digest=np.array(digest), **arrays), "wb")


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint. Its meta text and arrays must match its digest
    before more of it is read; then its run config is validated like a
    config file's, its vocab like a vocab file's, and its arrays' sizes
    against its slot table."""
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
    text = str(arrays["__meta__"])
    try:
        meta = json.loads(text)
    except (ValueError, RecursionError):  # RecursionError: arrays nested too deep
        meta = None
    if not isinstance(meta, dict):
        raise DataError(f"checkpoint {path}: meta record is not a JSON object")
    if meta.get("version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {meta.get('version')} in {path}")
    if set(arrays) not in ({"__meta__", "digest", "theta"}, {"__meta__", "digest", *_FLATS}):
        raise DataError(f"checkpoint {path}: members {sorted(arrays)}, expected __meta__, "
                        "digest and theta, and m and v or neither")
    flats = [arrays.get(key) for key in _FLATS]
    for key, flat in zip(_FLATS, flats):  # numpy hands back a non-.npy member's bytes
        if flat is not None and not (isinstance(flat, np.ndarray) and flat.ndim == 1
                                     and flat.dtype == np.float64):
            raise DataError(f"cannot read checkpoint {path}: array '{key}' is not a float64 vector")
    if str(arrays["digest"]) != state_digest(*flats, text):
        raise DataError(f"checkpoint {path}: content does not match its digest")
    missing = [key for key in _META_KEYS if key not in meta]
    if missing:
        raise DataError(f"checkpoint {path}: meta record has no {missing}")
    malformed = [key for key, kind in _META_KEYS.items() if type(meta[key]) is not kind
                 or key in _META_CHECKS and not _META_CHECKS[key](meta[key])]
    if malformed:
        raise DataError(f"checkpoint {path}: meta record has malformed {malformed}")
    try:
        vocab = Vocab(meta["vocab"])
    except ContractError as e:
        raise DataError(f"checkpoint {path}: meta record has malformed ['vocab']: {e}") from None
    size = sum(math.prod(shape) for _, shape in meta["slots"])
    for key, flat in zip(_FLATS, flats):
        if (flat is None and meta["opt_step"] > 0) or (flat is not None and flat.size != size):
            raise DataError(f"checkpoint {path}: array '{key}' does not hold the {size} "
                            f"values of its slot table at step {meta['opt_step']}")
    return Checkpoint(RunConfig.from_dict(meta["run_config"]).validate(), vocab, meta["slots"],
                      *flats, meta["opt_step"], meta["rng_state"])


def restore_model(ckpt: Checkpoint) -> tuple[Summarizer, OptimizerState]:
    """Rebuild the model/optimizer a checkpoint describes and load its state."""
    model, opt = build_model(ckpt.run_config, ckpt.vocab)
    load_state(ckpt, model, opt)
    return model, opt


def load_state(ckpt: Checkpoint, model: Summarizer, opt: OptimizerState) -> None:
    """Load a checkpoint's parameters, Adam moments and step, and RNG state
    into a built model and optimizer, whose settings stay their own. The
    checkpoint's slot table must be the model's; moments a step-0
    checkpoint does not hold load as zeros."""
    want = [[name, list(shape)] for name, (_, _, shape) in model.params.slots.items()]
    if ckpt.slots != want:
        got, expected = next(pair for pair in zip_longest(ckpt.slots, want) if pair[0] != pair[1])
        raise ConfigError(f"checkpoint/config mismatch: slot {got}, model expects {expected}")
    opt.bind(model.params)
    for flat, held in zip((model.params.theta, opt.m, opt.v), (ckpt.theta, ckpt.m, ckpt.v)):
        flat[...] = 0.0 if held is None else held
    opt.step = ckpt.opt_step
    try:
        model.rng.bit_generator.state = ckpt.rng_state
    except (TypeError, ValueError, KeyError, OverflowError) as e:
        raise DataError(f"checkpoint meta record has malformed ['rng_state']: {e}") from None
