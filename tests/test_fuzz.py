"""Checkpoint bytes cannot crash the CLI.

One tiny real checkpoint is built once, then mutated as a fuzzer would:
flipped bytes, truncations, member bytes changed and the zip written anew
(so every CRC is valid, as after a foreign tool), and members spliced from
two others. Each mutant goes through `cli.main summarize`, which must exit 0,
2 or 3, and print `error[...]` when it does not exit 0; when it exits 0, it
restored the state digest and meta the file was saved with. The runs are
derandomized with a fixed example budget, so the suite stays deterministic;
a mutant that once escaped is an explicit `@example`.
"""

from __future__ import annotations

import contextlib
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import make_lead_corpus, rewrite_members, save_jsonl
from convsum import cli
from convsum.checkpoint import state_digest

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=25)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """(directory, bytes, member names, what it restores as `_restored` reads
    it) of a one-step checkpoint of a d=16 model."""
    root = tmp_path_factory.mktemp("fuzz")
    save_jsonl(str(root / "corpus.jsonl"), make_lead_corpus(8, seed=3))
    config = [f"vocab = {root / 'vocab.txt'}", f"corpus = {root / 'corpus.jsonl'}",
              f"checkpoint_dir = {root / 'ckpt'}", "d_model = 16", "enc_layers = 1",
              "dec_layers = 1", "ff_size = 32", "heads = 2", "min_length = 1", "max_length = 4",
              "beam_size = 2", "checkpoint_every = 1"]
    (root / "run.cfg").write_text("\n".join(config) + "\n")
    quiet = contextlib.redirect_stdout(io.StringIO())
    with quiet, contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["build-vocab", "--corpus", str(root / "corpus.jsonl"), "--size", "100",
                         "--out", str(root / "vocab.txt")]) == 0
        assert cli.main(["train", "--config", str(root / "run.cfg"), "--steps", "1"]) == 0
    raw = (root / "ckpt" / "ckpt-1.npz").read_bytes()
    names: list[str] = []
    rewrite_members(raw, lambda name, data: names.append(name) or data)
    with np.load(root / "ckpt" / "ckpt-1.npz") as saved:
        meta = json.loads(str(saved["__meta__"]))
        digest = state_digest(saved["theta"], saved["m"], saved["v"])
    saved = (digest, {key: meta[key] for key in _META})
    return root, raw, names, saved


_META = ("run_config", "vocab", "opt_step", "rng_state", "slots")


def _restored(ckpt) -> tuple:
    """The state digest and meta, as JSON reads it, of the checkpoint
    `restore_model` is given."""
    meta = {"run_config": ckpt.run_config.to_dict(), "vocab": ckpt.vocab.tokens(),
            "opt_step": ckpt.opt_step, "rng_state": ckpt.rng_state, "slots": ckpt.slots}
    return state_digest(ckpt.theta, ckpt.m, ckpt.v), json.loads(json.dumps(meta))


def _summarize(checkpoint, raw: bytes) -> None:
    """Run `summarize` on raw as a checkpoint file; it exits 0, 2 or 3, and
    prints an error line unless it exits 0, when it restored what was saved."""
    root, saved = checkpoint[0], checkpoint[3]
    path = root / "fuzzed.npz"
    path.write_bytes(raw)
    out, err, restored = io.StringIO(), io.StringIO(), []
    restore = cli.restore_model

    def spy(ckpt):
        restored.append(_restored(ckpt))
        return restore(ckpt)

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(cli, "restore_model", spy):
        code = cli.main(["summarize", "--checkpoint", str(path), "--text", "alpine basket ."])
    assert code in (0, 2, 3), err.getvalue()
    assert code == 0 or "error[" in err.getvalue()
    assert code != 0 or restored == [saved]


def _flipped(data: bytes, flips) -> bytes:
    data = bytearray(data)
    for at, mask in flips:
        data[at % len(data)] ^= mask
    return bytes(data)


_FLIPS = st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(1, 255)), min_size=1, max_size=8)


@FUZZ
@given(flips=_FLIPS)
def test_flipped_bytes(checkpoint, flips):
    _summarize(checkpoint, _flipped(checkpoint[1], flips))


@FUZZ
@given(keep=st.floats(0.0, 1.0, exclude_max=True))
def test_truncation(checkpoint, keep):
    raw = checkpoint[1]
    _summarize(checkpoint, raw[:int(keep * len(raw))])


@FUZZ
@given(member=st.integers(0, 1 << 10), flips=_FLIPS)
# numpy hands back a member without the .npy magic as raw bytes
@example(member="theta.npy", flips=[(5, 0xFF)])
# a header dict that numpy's tokenizer rejects
@example(member="m.npy", flips=[(64, 0xFF)])
def test_member_rewritten_with_valid_crcs(checkpoint, member, flips):
    names = checkpoint[2]
    name = member if isinstance(member, str) else names[member % len(names)]
    _summarize(checkpoint, rewrite_members(
        checkpoint[1], lambda n, data: _flipped(data, flips) if n == name else data))


@FUZZ
@given(into=st.integers(0, 1 << 10), source=st.integers(0, 1 << 10),
       cut=st.floats(0.0, 1.0))
def test_spliced_member(checkpoint, into, source, cut):
    """Member `into` keeps its bytes up to a cut and takes member `source`'s after it."""
    raw, names = checkpoint[1], checkpoint[2]
    members = {}
    rewrite_members(raw, lambda n, data: members.setdefault(n, data))
    a, b = names[into % len(names)], names[source % len(names)]
    at = int(cut * min(len(members[a]), len(members[b])))
    spliced = members[a][:at] + members[b][at:]
    _summarize(checkpoint, rewrite_members(raw, lambda n, data: spliced if n == a else data))
