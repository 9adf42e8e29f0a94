"""convsum reads text files and replaces files through `convsum.files` alone.

`test_every_reader_on_each_kind_of_file` runs each reader through its public
entry point on a missing file, bytes that are not UTF-8, CRLF line endings,
no final newline, and the reader's own edge (a vocab's trailing blank line, a
raw U+2028 inside a corpus JSON string, a loss-log step "²" that `str.isdigit`
accepts and `int` does not). `test_no_file_access_outside_files`
fails on a file access anywhere else in src/ that is not on its allowlist.
"""

from __future__ import annotations

import errno
import os
import re
import stat
from pathlib import Path
from unittest import mock

import pytest

from _helpers import make_lead_corpus
from convsum import cli, data
from convsum.config import RunConfig, load_config
from convsum.data import encode_pairs, iter_texts, load_jsonl
from convsum.errors import ConfigError, DataError
from convsum.files import write_atomically
from convsum.tokenizer import RESERVED, Vocab, build_vocab
from convsum.trainer import DirectoryLock, Trainer, _truncate_log

SRC = Path(__file__).resolve().parent.parent / "src" / "convsum"
FILE_ACCESS = re.compile(r"open\(|os\.replace|UnicodeDecodeError|np\.load\(")
# The accesses the two rules leave out, each where it is: the lock's O_EXCL
# create and its pid write, the per-step loss-log append, and the checkpoint's
# np.load, which reads an .npz, not text.
ALLOWED = {
    "trainer.py": ["os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)",
                   'os.fdopen(fd, "w")', 'open(log_path, "a", encoding="utf-8")'],
    "checkpoint.py": ["np.load(path, allow_pickle=False)"],
}


def test_no_file_access_outside_files():
    modules = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert "files.py" in modules and set(ALLOWED) <= set(modules)
    stray = []
    for name, text in modules.items():
        if name == "files.py":
            continue
        for allowed in ALLOWED.get(name, []):
            assert text.count(allowed) == 1, f"allowlist entry gone from {name}: {allowed}"
            text = text.replace(allowed, "")
        stray += [f"{name}:{i}: {line.strip()}" for i, line in enumerate(text.split("\n"), 1)
                  if FILE_ACCESS.search(line)]
    assert not stray, "file access outside convsum/files.py:\n" + "\n".join(stray)


# --------------------------------------------------------------------------
# readers
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A tiny run config, its vocab and pairs, and a step-0 checkpoint."""
    tmp = tmp_path_factory.mktemp("files_run")
    docs = make_lead_corpus(6, seed=3)
    vocab = build_vocab(iter_texts(docs), 120)
    cfg = RunConfig(d_model=16, enc_layers=1, dec_layers=1, ff_size=16, heads=2,
                    conv_layers=(), steps=2, min_length=1, max_length=3, beam_size=1).validate()
    pairs = encode_pairs(docs, vocab, cfg)
    ckpt = str(tmp / "ckpt-0.npz")
    Trainer(cfg, vocab, pairs).save(ckpt)
    return cfg, vocab, pairs, ckpt


class Raises:
    def __init__(self, cls, match):
        self.cls, self.match = cls, match


def _config(path, run):
    cfg = load_config(path)
    return cfg.seed, cfg.steps


def _corpus(path, run):
    return load_jsonl(path)


def _vocab(path, run):
    return Vocab.load(path).tokens()[len(RESERVED):]


def _input(path, run):
    """`summarize --input`: its exit code and the text it passed on."""
    seen, encode = [], data.encode_source
    with mock.patch.object(data, "encode_source",
                           lambda text, *a: (seen.append(text), encode(text, *a))[1]):
        return cli.main(["summarize", "--checkpoint", run[3], "--input", path]), seen


def _loss_log(path, run):
    """`Trainer.run` of a run at its last step, which only trims the log."""
    cfg, vocab, pairs, _ = run
    directory = os.path.dirname(path)
    trainer = Trainer(RunConfig(**{**cfg.to_dict(), "checkpoint_dir": directory}), vocab, pairs)
    trainer.opt.step = cfg.steps
    trainer.run()
    return Path(path).read_bytes().decode("utf-8")


def _lock(path, run):
    with DirectoryLock(os.path.dirname(path)):
        return "acquired"


READERS = {  # reader -> (file name, read)
    "config": ("run.cfg", _config),
    "corpus": ("c.jsonl", _corpus),
    "vocab": ("vocab.txt", _vocab),
    "input": ("input.txt", _input),
    "loss-log": ("loss.tsv", _loss_log),
    "lock": ("LOCK", _lock),
}
UNDECODABLE = "'utf-8' codec can't decode byte 0xe9"
PID = os.getpid()
VOCAB = "\n".join([*RESERVED, "a", "b"])
DOCS = [{"source": "a b", "summary": "a"}, {"source": "c d", "summary": "c"}]
JSONL = '{"source": "a b", "summary": "a"}\n{"source": "c d", "summary": "c"}'
CASES = [  # (reader, case, file bytes or None for no file, expected result)
    ("config", "missing", None, Raises(ConfigError, "cannot read config file .*No such file")),
    ("config", "non-utf8", b"seed = 3  # caf\xe9\n", Raises(ConfigError, UNDECODABLE)),
    ("config", "crlf", b"seed = 3\r\nsteps = 7\r\n", (3, 7)),
    ("config", "no-final-newline", b"seed = 3\nsteps = 7", (3, 7)),
    ("corpus", "missing", None, Raises(DataError, "cannot read corpus file .*No such file")),
    ("corpus", "non-utf8", b'{"source": "caf\xe9", "summary": "a"}\n',
     Raises(DataError, UNDECODABLE)),
    ("corpus", "crlf", JSONL.replace("\n", "\r\n").encode() + b"\r\n", DOCS),
    ("corpus", "no-final-newline", JSONL.encode(), DOCS),
    ("corpus", "raw-u2028-in-a-string", '{"source": "a\u2028b", "summary": "a"}\n'.encode(),
     [{"source": "a\u2028b", "summary": "a"}]),
    ("vocab", "missing", None, Raises(DataError, "cannot read vocab file .*No such file")),
    ("vocab", "non-utf8", VOCAB.encode() + b"\ncaf\xe9\n", Raises(DataError, UNDECODABLE)),
    ("vocab", "crlf", VOCAB.replace("\n", "\r\n").encode() + b"\r\n", ["a", "b"]),
    ("vocab", "no-final-newline", VOCAB.encode(), ["a", "b"]),
    ("vocab", "trailing-blank-line", VOCAB.encode() + b"\n\n", ["a", "b"]),
    ("input", "missing", None, (3, [])),
    ("input", "non-utf8", b"caf\xe9 .", (3, [])),
    ("input", "crlf", b"a b .\r\nc .\r\n", (0, ["a b .\nc .\n"])),
    ("input", "no-final-newline", b"a b .", (0, ["a b ."])),
    ("loss-log", "missing", None, ""),
    ("loss-log", "non-utf8", b"1\t1\t1\n\xe9\n",
     Raises(DataError, "cannot write to checkpoint directory .*cannot read loss log")),
    ("loss-log", "crlf", b"1\tx\ty\r\n2\tx\ty\r\n3\tx\ty\r\n", "1\tx\ty\n2\tx\ty\n"),
    ("loss-log", "no-final-newline", b"1\tx\ty\n2\tx\ty", "1\tx\ty\n"),
    ("loss-log", "non-ascii-digit-step", "1\tx\ty\n\u00b2\tx\ty\n".encode(), "1\tx\ty\n"),
    ("lock", "missing", None, "acquired"),
    ("lock", "non-utf8", b"\xe9", Raises(DataError, f"LOCK \\(lock file unreadable: {UNDECODABLE}")),
    ("lock", "crlf", f"{PID}\r\n".encode(), Raises(DataError, f"pid {PID} is running")),
    ("lock", "no-final-newline", f"{PID}".encode(), Raises(DataError, f"pid {PID} is running")),
]


@pytest.mark.parametrize("reader,content,expected", [(r, c, e) for r, _, c, e in CASES],
                         ids=[f"{r}-{case}" for r, case, _, _ in CASES])
def test_every_reader_on_each_kind_of_file(reader, content, expected, tmp_path, run):
    name, read = READERS[reader]
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    if isinstance(expected, Raises):
        with pytest.raises(expected.cls, match=expected.match):
            read(str(path), run)
    else:
        assert read(str(path), run) == expected


# --------------------------------------------------------------------------
# writers
# --------------------------------------------------------------------------

def _disk_full(fd):
    raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_vocab_save_leaves_the_old_file_and_no_tmp(tmp_path, monkeypatch):
    path = tmp_path / "vocab.txt"
    Vocab([*RESERVED, "a"]).save(str(path))
    before = path.read_bytes()
    monkeypatch.setattr(os, "fsync", _disk_full)  # the new file is written, not yet synced
    with pytest.raises(DataError, match="cannot write vocab file .*No space left"):
        Vocab([*RESERVED, "a", "b"]).save(str(path))
    assert path.read_bytes() == before and os.listdir(tmp_path) == ["vocab.txt"]


def test_failed_log_rewrite_leaves_the_old_log_and_no_tmp(tmp_path, monkeypatch):
    path = tmp_path / "loss.tsv"
    path.write_text("1\tx\ty\n2\tx\ty\n")
    monkeypatch.setattr(os, "fsync", _disk_full)
    with pytest.raises(OSError, match="No space left"):
        _truncate_log(str(path), 1)
    assert path.read_text() == "1\tx\ty\n2\tx\ty\n" and os.listdir(tmp_path) == ["loss.tsv"]


def test_write_atomically_syncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    events, fsync, replace = [], os.fsync, os.replace

    def spy_fsync(fd):  # what was synced: a directory or not, and its inode
        st = os.fstat(fd)
        events.append(("fsync", stat.S_ISDIR(st.st_mode), st.st_ino))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", lambda a, b: (events.append(("replace",)), replace(a, b)))
    write_atomically(str(tmp_path / "f.txt"), lambda f: f.write("x"))
    assert [e[:2] for e in events] == [("fsync", False), ("replace",), ("fsync", True)]
    assert events[-1][2] == os.stat(tmp_path).st_ino and (tmp_path / "f.txt").read_text() == "x"
