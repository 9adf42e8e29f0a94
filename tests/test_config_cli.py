import errno
import json
import os
import re
import struct
import subprocess
import sys
import zipfile
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from _helpers import WORD_POOL, make_lead_corpus, save_jsonl
from convsum import cli
from convsum.attention import AttentionConfig
from convsum.checkpoint import load_checkpoint
from convsum.config import SCHEMA, RunConfig, load_config, parse_config_text, parse_value
from convsum.decoding import DecodingConfig
from convsum.data import encode_pairs, iter_texts, load_jsonl
from convsum.errors import ConfigError, DataError
from convsum.model import ModelConfig
from convsum.optim import OptimizerState, noam_rate
from convsum.tokenizer import RESERVED, build_vocab
from convsum.trainer import DirectoryLock, Trainer
from convsum.windowing import WindowingConfig

SUB_CONFIGS = (ModelConfig, AttentionConfig, WindowingConfig, DecodingConfig, OptimizerState)


class TestConfigFile:
    def test_parse_with_comments_and_blanks(self):
        cfg = parse_config_text(
            """
            # training setup
            d_model = 32
            heads = 2          # inline comment
            conv_layers = 0,1
            copy = false
            dropout = 0.0
            """
        )
        assert cfg.d_model == 32
        assert cfg.conv_layers == (0, 1)
        assert cfg.copy is False

    def test_unknown_key_is_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("d_modell = 32")

    def test_duplicate_key_is_error(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("d_model = 32\nd_model = 64")

    def test_bad_value_is_error(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config_text("d_model = many")
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config_text("copy = maybe")

    def test_invalid_combination_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            parse_config_text("d_model = 30\nheads = 4")

    def test_conv_layers_outside_encoder_rejected(self):
        for bad in ((5, -1), (2,), (0, 0)):
            with pytest.raises(ConfigError, match="conv_layers"):
                RunConfig(enc_layers=2, conv_layers=bad).validate()
        with pytest.raises(ConfigError, match="conv_layers"):
            parse_config_text("enc_layers = 2\nconv_layers = 0,2")
        RunConfig().validate()
        RunConfig(enc_layers=2, conv_layers=(0, 1)).validate()
        RunConfig(enc_layers=3, conv_layers=(0, 2)).validate()

    def test_dict_roundtrip(self):
        cfg = RunConfig(d_model=64, conv_layers=(0, 2))
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("key,value", [
        ("seed", "abc"), ("seed", True), ("seed", 1.0), ("copy", "yes"), ("copy", 1),
        ("steps", True), ("dropout", "0.1"), ("dropout", False), ("vocab", 3),
        ("conv_layers", 0), ("conv_layers", [0, "1"]), ("conv_layers", [True]),
    ])
    def test_from_dict_rejects_a_value_of_the_wrong_kind(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            RunConfig.from_dict({key: value})

    def test_from_dict_takes_an_int_float_and_a_json_int_list(self):
        cfg = RunConfig.from_dict({"dropout": 0, "conv_layers": [0, 1], "copy": False})
        assert cfg.dropout == 0.0 and cfg.conv_layers == (0, 1) and cfg.copy is False
        cfg.validate()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.cfg"))

    def test_non_utf8_file_is_config_error(self, tmp_path):
        p = tmp_path / "latin1.cfg"
        p.write_bytes("seed = 3  # caf\xe9\n".encode("latin-1"))
        with pytest.raises(ConfigError, match="latin1.cfg"):
            load_config(str(p))


class TestOneDeclarationPerSetting:
    def _shared(self):
        """(RunConfig field, sub-config class, its field) for every shared setting."""
        own = {{"adam_eps": "eps"}.get(f.name, f.name): f.name for f in fields(RunConfig)}
        return [(own[f.name], cls, f) for cls in SUB_CONFIGS for f in fields(cls)
                if f.name in own]

    def test_shared_defaults_are_the_owners(self):
        run_defaults = {f.name: f.default for f in fields(RunConfig)}
        with_default = [(run, cls, f) for run, cls, f in self._shared() if f.default is not MISSING]
        assert len(with_default) == 24
        assert ("adam_eps", OptimizerState, "eps") in [(r, c, f.name) for r, c, f in with_default]
        for run, cls, f in with_default:
            assert run_defaults[run] == f.default, f"{run} vs {cls.__name__}.{f.name}"

    def test_sub_configs_get_every_shared_value(self):
        cfg = RunConfig(d_model=96, heads=3, token_kernel=5, head_kernel=1, circular=True,
                        conv_layers=(1,), enc_layers=2, dec_layers=4, ff_size=40,
                        dropout=0.2, label_smoothing=0.05, integration="stacking", copy=False,
                        decoder_conditioned=True, provider="stub", provider_width=8,
                        window=64, stride=16, warmup=7, beta1=0.8, beta2=0.9,
                        adam_eps=1e-6, beam_size=3, min_length=2, max_length=9,
                        coverage_beta=0.5).validate()
        built = {ModelConfig: cfg.model_config(), AttentionConfig: cfg.attention_config(),
                 WindowingConfig: cfg.windowing_config(), DecodingConfig: cfg.decoding_config(),
                 OptimizerState: cfg.optimizer_state()}
        assert cfg.model_config().attention == built[AttentionConfig]
        for run, cls, f in self._shared():
            assert getattr(built[cls], f.name) == getattr(cfg, run), f"{run} -> {f.name}"

    def test_readme_schema_table_lists_every_key_with_its_default(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("## Configuration schema", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| (\w+) \| ([^|]+?) \|", section, re.M)
        assert [key for key, _, _ in rows] == list(SCHEMA)
        defaults = RunConfig()
        for key, kind, cell in rows:
            assert kind == SCHEMA[key], key
            raw = "" if cell == "(empty)" else cell.strip("`")
            assert parse_value(key, raw, kind) == getattr(defaults, key), key


class TestJsonl:
    def test_load_valid(self, tmp_path):
        p = tmp_path / "c.jsonl"
        save_jsonl(str(p), [{"source": "a b", "summary": "a"}])
        docs = load_jsonl(str(p))
        assert docs[0]["summary"] == "a"

    def test_invalid_line_names_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"source": "a", "summary": "b"}\nnot json\n')
        with pytest.raises(DataError, match="line 2"):
            load_jsonl(str(p))

    def test_missing_fields_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"source": "a"}\n')
        with pytest.raises(DataError, match="line 1"):
            load_jsonl(str(p))

    def test_missing_file_names_path(self, tmp_path):
        path = str(tmp_path / "absent.jsonl")
        with pytest.raises(DataError, match="absent.jsonl"):
            load_jsonl(path)

    @pytest.mark.parametrize("key", ["source", "summary"])
    def test_lone_surrogate_is_data_error_naming_the_line(self, tmp_path, key):
        p = tmp_path / "c.jsonl"
        bad = {"source": "a b .", "summary": "a", key: "a \ud800 b ."}
        save_jsonl(str(p), [{"source": "a b .", "summary": "a"}, bad])  # as the escape \ud800
        with pytest.raises(DataError, match="c.jsonl line 2: text that is not UTF-8"):
            load_jsonl(str(p))

    def test_non_utf8_file_is_data_error(self, tmp_path):
        p = tmp_path / "latin1.jsonl"
        p.write_bytes('{"source": "caf\xe9", "summary": "a"}\n'.encode("latin-1"))
        with pytest.raises(DataError, match="latin1.jsonl"):
            load_jsonl(str(p))


def _toy_setup(tmp_path, n_docs=12, steps=10, **cfg_kw):
    docs = make_lead_corpus(n_docs, seed=5, n_sentences=(2, 3), sentence_len=(3, 5),
                            pool=WORD_POOL[:12])
    corpus = tmp_path / "train.jsonl"
    save_jsonl(str(corpus), docs)
    vocab = build_vocab(iter_texts(docs), 200)
    vocab_path = tmp_path / "vocab.txt"
    vocab.save(str(vocab_path))
    base = dict(
        seed=3, vocab=str(vocab_path), corpus=str(corpus),
        checkpoint_dir=str(tmp_path / "ckpt"), steps=steps, batch_size=4,
        checkpoint_every=5, d_model=16, enc_layers=1, dec_layers=1, ff_size=32,
        heads=2, token_kernel=3, head_kernel=1, conv_layers=(), dropout=0.1,
        label_smoothing=0.1, copy=True, warmup=20, beam_size=2, min_length=1,
        max_length=10,
    )
    base.update(cfg_kw)
    cfg = RunConfig(**base)
    return docs, vocab, cfg


class TestTrainer:
    def test_loss_log_rates_match_schedule(self, tmp_path):
        docs, vocab, cfg = _toy_setup(tmp_path, steps=10)
        tr = Trainer(cfg, vocab, encode_pairs(docs, vocab, cfg))
        rows = tr.train()
        assert len(rows) == 10
        for step, lr, loss in rows:
            assert lr == noam_rate(cfg.d_model, cfg.warmup, step)
            assert np.isfinite(loss)

    def test_same_seed_identical_loss_logs(self, tmp_path):
        docs, vocab, cfg = _toy_setup(tmp_path, steps=8)
        r1 = Trainer(cfg, vocab, encode_pairs(docs, vocab, cfg)).train()
        r2 = Trainer(cfg, vocab, encode_pairs(docs, vocab, cfg)).train()
        assert r1 == r2

    def test_resume_matches_uninterrupted(self, tmp_path):
        docs, vocab, cfg = _toy_setup(tmp_path, steps=10)
        pairs = encode_pairs(docs, vocab, cfg)

        solo = Trainer(cfg, vocab, pairs)
        full_rows = solo.train(until_step=10)

        first = Trainer(cfg, vocab, pairs)
        head_rows = first.train(until_step=5)
        ck = tmp_path / "mid.npz"
        first.save(str(ck))

        second = Trainer(cfg, vocab, pairs, resume_from=str(ck))
        assert second.step == 5
        tail_rows = second.train(until_step=10)
        assert head_rows + tail_rows == full_rows
        for k in solo.model.params:
            assert np.array_equal(second.model.params[k].data, solo.model.params[k].data)

    def test_resume_runs_with_the_requested_training_settings(self, tmp_path):
        docs, vocab, cfg = _toy_setup(tmp_path, steps=8)
        pairs = encode_pairs(docs, vocab, cfg)
        first = Trainer(cfg, vocab, pairs)
        first.train(until_step=4)
        ck = tmp_path / "mid.npz"
        first.save(str(ck))
        same = Trainer(cfg, vocab, pairs, resume_from=str(ck)).train()

        changed = RunConfig(**{**cfg.to_dict(), "dropout": 0.5, "warmup": 100, "beta1": 0.5})
        resumed = Trainer(changed, vocab, pairs, resume_from=str(ck))
        assert resumed.model.cfg.dropout == 0.5
        assert (resumed.opt.warmup, resumed.opt.beta1) == (100, 0.5)
        for name, p in resumed.model.params.items():  # the checkpoint's state is loaded
            assert np.array_equal(p.data, first.model.params[name].data)
        rows = resumed.train()
        assert [step for step, _, _ in rows] == [5, 6, 7, 8]
        assert [lr for _, lr, _ in rows] == [noam_rate(cfg.d_model, 100, s) for s in range(5, 9)]
        assert rows[0][2] != same[0][2]  # same batch and RNG state, other dropout

    def test_resume_from_earlier_checkpoint_keeps_one_log_row_per_step(self, tmp_path):
        docs, vocab, cfg = _toy_setup(tmp_path, steps=10)
        pairs = encode_pairs(docs, vocab, cfg)
        Trainer(cfg, vocab, pairs).run()
        log = tmp_path / "ckpt" / "loss.tsv"
        first = log.read_text().splitlines()
        assert [int(r.split("\t")[0]) for r in first] == list(range(1, 11))

        resumed = Trainer(cfg, vocab, pairs, resume_from=str(tmp_path / "ckpt" / "ckpt-5.npz"))
        resumed.run()
        assert log.read_text().splitlines() == first
        assert not (tmp_path / "ckpt" / "loss.tsv.tmp").exists()

    def test_resume_with_wrong_arch_refused(self, tmp_path):
        docs, vocab, cfg = _toy_setup(tmp_path, steps=4)
        pairs = encode_pairs(docs, vocab, cfg)
        tr = Trainer(cfg, vocab, pairs)
        tr.train(until_step=2)
        ck = tmp_path / "a.npz"
        tr.save(str(ck))
        other = RunConfig(**{**cfg.to_dict(), "d_model": 32, "conv_layers": ()})
        with pytest.raises(ConfigError, match="d_model"):
            Trainer(other, vocab, pairs, resume_from=str(ck))

    def test_directory_lock(self, tmp_path):
        with DirectoryLock(str(tmp_path)):
            with pytest.raises(DataError, match="locked"):
                with DirectoryLock(str(tmp_path)):
                    pass
        # released: can lock again
        with DirectoryLock(str(tmp_path)):
            pass

    def test_lock_of_an_exited_run_is_reported_stale(self, tmp_path):
        done = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                              capture_output=True, text=True, check=True)
        pid = int(done.stdout)
        (tmp_path / "LOCK").write_text(str(pid))
        with pytest.raises(DataError, match=f"locked.*pid {pid} is not running"):
            with DirectoryLock(str(tmp_path)):
                pass
        assert (tmp_path / "LOCK").read_text() == str(pid)  # no takeover

    def test_lock_of_a_live_run_names_it_running(self, tmp_path):
        with DirectoryLock(str(tmp_path)):
            with pytest.raises(DataError, match=f"locked.*pid {os.getpid()} is running"):
                with DirectoryLock(str(tmp_path)):
                    pass

    def test_failed_pid_write_leaves_no_lock(self, tmp_path, monkeypatch):
        docs, vocab, cfg = _toy_setup(tmp_path, steps=2)
        pairs = encode_pairs(docs, vocab, cfg)
        fdopen = os.fdopen

        def full_disk(fd, *args, **kwargs):  # the lock's pid write finds no space
            f = fdopen(fd, *args, **kwargs)

            def write(text):
                raise OSError(errno.ENOSPC, "No space left on device")

            f.write = write
            return f

        with monkeypatch.context() as m:
            m.setattr(os, "fdopen", full_disk)
            with pytest.raises(DataError, match="cannot write to checkpoint directory"):
                Trainer(cfg, vocab, pairs).run()
        assert not (tmp_path / "ckpt" / "LOCK").exists()
        assert len(Trainer(cfg, vocab, pairs).run()) == 2  # the next run takes the lock

    @pytest.mark.parametrize("text,why", [("", "empty"), ("12ab", "no pid"), ("0", "no pid"), ("²", "no pid")])
    def test_lock_without_a_pid_says_so(self, tmp_path, text, why):
        (tmp_path / "LOCK").write_text(text)
        with pytest.raises(DataError, match=f"locked.*{why}"):
            with DirectoryLock(str(tmp_path)):
                pass


class TestCliVocab:
    def _corpus(self, tmp_path):
        docs = make_lead_corpus(10, seed=2)
        p = tmp_path / "c.jsonl"
        save_jsonl(str(p), docs)
        return p

    def test_build_vocab_file_layout(self, tmp_path, capsys):
        corpus = self._corpus(tmp_path)
        out = tmp_path / "v.txt"
        code = cli.main(["build-vocab", "--corpus", str(corpus), "--size", "200",
                         "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 200
        assert lines[: len(RESERVED)] == list(RESERVED)

    def test_rerun_byte_identical(self, tmp_path):
        corpus = self._corpus(tmp_path)
        o1, o2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        cli.main(["build-vocab", "--corpus", str(corpus), "--size", "150", "--out", str(o1)])
        cli.main(["build-vocab", "--corpus", str(corpus), "--size", "150", "--out", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()

    @pytest.mark.parametrize("size", ["0", "20"])
    def test_size_below_reserved_plus_alphabet_is_config_error(self, tmp_path, capsys, size):
        # 6 reserved tokens plus 2 entries per letter of the corpus's alphabet
        code = cli.main(["build-vocab", "--corpus", str(self._corpus(tmp_path)), "--size", size,
                         "--out", str(tmp_path / "v.txt")])
        assert code == 2 and "error[config]" in capsys.readouterr().err
        assert not (tmp_path / "v.txt").exists()

    def test_missing_corpus_exit_code_names_path(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.jsonl")
        code = cli.main(["build-vocab", "--corpus", missing, "--size", "100",
                         "--out", str(tmp_path / "v.txt")])
        assert code == 3
        assert missing in capsys.readouterr().err

    def test_unwritable_out_is_data_error(self, tmp_path, capsys):
        corpus = self._corpus(tmp_path)
        out = str(corpus / "v.txt")  # under a regular file
        code = cli.main(["build-vocab", "--corpus", str(corpus), "--size", "100", "--out", out])
        err = capsys.readouterr().err
        assert code == 3 and "error[data]" in err and out in err


def _write_config(path: str, cfg: RunConfig) -> None:
    lines = []
    for key, value in cfg.to_dict().items():
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli_train")
    docs, vocab, cfg = _toy_setup(tmp_path, steps=10)
    cfg_path = tmp_path / "run.cfg"
    _write_config(str(cfg_path), cfg)
    code = cli.main(["train", "--config", str(cfg_path)])
    assert code == 0
    return tmp_path, docs, vocab, cfg


class TestCliTrainAndUse:
    def test_train_writes_log_and_checkpoints(self, trained):
        tmp_path, docs, vocab, cfg = trained
        log = (tmp_path / "ckpt" / "loss.tsv").read_text().splitlines()
        assert len(log) == 10
        for i, line in enumerate(log, start=1):
            step, lr, loss = line.split("\t")
            assert int(step) == i
            assert float(lr) == pytest.approx(noam_rate(cfg.d_model, cfg.warmup, i))
        assert (tmp_path / "ckpt" / "ckpt-5.npz").exists()
        assert (tmp_path / "ckpt" / "ckpt-10.npz").exists()
        assert not (tmp_path / "ckpt" / "LOCK").exists()

    def test_summarize_respects_min_length(self, trained, capsys):
        tmp_path, docs, vocab, cfg = trained
        ck = str(tmp_path / "ckpt" / "ckpt-10.npz")
        code = cli.main(["summarize", "--checkpoint", ck, "--text", docs[0]["source"],
                         "--min-length", "3", "--max-length", "8"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert len(out.split()) >= 3

    def test_summarize_deterministic(self, trained, capsys):
        tmp_path, docs, vocab, cfg = trained
        ck = str(tmp_path / "ckpt" / "ckpt-10.npz")
        args = ["summarize", "--checkpoint", ck, "--text", docs[1]["source"]]
        cli.main(args)
        first = capsys.readouterr().out
        cli.main(args)
        assert capsys.readouterr().out == first

    def test_summarize_non_utf8_input_is_data_error(self, trained, capsys):
        tmp_path = trained[0]
        ck, text = str(tmp_path / "ckpt" / "ckpt-10.npz"), tmp_path / "latin1.txt"
        text.write_bytes("caf\xe9 .".encode("latin-1"))
        assert cli.main(["summarize", "--checkpoint", ck, "--input", str(text)]) == 3
        err = capsys.readouterr().err
        assert "error[data]" in err and "latin1.txt" in err

    def test_config_mismatch_refused(self, trained, capsys):
        tmp_path, docs, vocab, cfg = trained
        ck = str(tmp_path / "ckpt" / "ckpt-10.npz")
        bad = RunConfig(**{**cfg.to_dict(), "heads": 4, "d_model": 32, "conv_layers": ()})
        bad_path = tmp_path / "bad.cfg"
        _write_config(str(bad_path), bad)
        code = cli.main(["summarize", "--checkpoint", ck, "--config", str(bad_path),
                         "--text", "anything"])
        assert code == 2
        assert "mismatch" in capsys.readouterr().err

    def test_evaluate_runs_and_reports(self, trained, capsys):
        tmp_path, docs, vocab, cfg = trained
        ck = str(tmp_path / "ckpt" / "ckpt-10.npz")
        test_path = tmp_path / "test.jsonl"
        save_jsonl(str(test_path), docs[:3])
        code = cli.main(["evaluate", "--checkpoint", ck, "--test", str(test_path),
                         "--max-length", "10"])
        assert code == 0
        out = capsys.readouterr().out
        for key in ("rouge1_p=", "rouge1_r=", "rouge1_f1=", "rouge2_f1=", "rougeL_f1="):
            assert key in out

    def test_evaluate_on_words_flag(self, trained, capsys):
        tmp_path, docs, vocab, cfg = trained
        ck = str(tmp_path / "ckpt" / "ckpt-10.npz")
        test_path = tmp_path / "test_words.jsonl"
        save_jsonl(str(test_path), docs[:2])
        code = cli.main(["evaluate", "--checkpoint", ck, "--test", str(test_path),
                         "--words", "--max-length", "8"])
        assert code == 0
        assert "rouge1_f1=" in capsys.readouterr().out

    def test_invalid_sub_config_value_is_config_error(self, trained, capsys):
        # The attention and decoding configs reject these values themselves;
        # reached from a config file or a flag they are config errors (exit 2).
        tmp_path, docs, vocab, cfg = trained
        test_path = tmp_path / "test_bad_flag.jsonl"
        save_jsonl(str(test_path), docs[:1])
        for argv in (
            ["train", "--config", str(tmp_path / "run.cfg"), "--token-kernel", "4"],
            ["evaluate", "--checkpoint", str(tmp_path / "ckpt" / "ckpt-10.npz"),
             "--test", str(test_path), "--beam-size", "0"],
        ):
            assert cli.main(argv) == 2
            assert "error[config]" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,named", [
        ("--checkpoint-every", "-1", "checkpoint_every"),
        ("--checkpoint-every", "0", "checkpoint_every"),
        ("--steps", "-3", "steps"),
        ("--batch-size", "0", "batch_size"),
        ("--max-source-len", "0", "max_source_len"),
        ("--warmup", "0", "warmup"),
        ("--beta1", "1", "beta1"),  # zeroes Adam's bias correction 1 - beta1**step
        ("--beta1", "nan", "beta1"),
        ("--beta2", "-0.5", "beta2"),
        ("--adam-eps", "0", "eps"),
        ("--adam-eps", "nan", "eps"),
        ("--d-model", "0", "d_model"),  # 0 heads divide it; noam_rate divided by 0
        ("--ff-size", "0", "ff_size"),
        ("--seed", "-1", "seed"),
        ("--provider-seed", "-1", "provider_seed"),
        ("--provider-window", "4", "provider_window"),  # below the window of 512
        ("--provider-width", "0", "provider_width"),  # StubProvider rejected it only in build_model
    ])
    def test_invalid_run_setting_exits_2_before_data_is_read(self, trained, tmp_path,
                                                            capsys, flag, value, named):
        # The vocab and corpus do not exist: reading either would exit 3. The
        # run names a provider (a valid one) so that its settings are checked.
        _, _, _, cfg = trained
        absent = RunConfig(**{**cfg.to_dict(), "vocab": str(tmp_path / "no-vocab.txt"),
                              "corpus": str(tmp_path / "no-corpus.jsonl"),
                              "checkpoint_dir": str(tmp_path / "ckpt"), "provider": "stub"})
        cfg_path = tmp_path / "run.cfg"
        _write_config(str(cfg_path), absent)
        assert cli.main(["train", "--config", str(cfg_path), flag, value]) == 2
        err = capsys.readouterr().err
        assert "error[config]" in err and named in err
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("flags", [
        ["--integration", "stacking"],
        ["--integration", "concatenation", "--enc-layers", "2", "--conv-layers", "0"],
        ["--decoder-conditioned", "true"],
    ], ids=["stacking", "concatenation", "decoder-conditioned"])
    def test_conditioning_without_a_provider_exits_2_before_data_is_read(self, trained, tmp_path,
                                                                        capsys, flags):
        _, _, _, cfg = trained
        absent = RunConfig(**{**cfg.to_dict(), "vocab": str(tmp_path / "no-vocab.txt"),
                              "corpus": str(tmp_path / "no-corpus.jsonl"),
                              "checkpoint_dir": str(tmp_path / "ckpt")})
        cfg_path = tmp_path / "run.cfg"
        _write_config(str(cfg_path), absent)
        assert cli.main(["train", "--config", str(cfg_path), *flags]) == 2
        err = capsys.readouterr().err
        assert "error[config]" in err and "provider" in err
        assert not (tmp_path / "ckpt").exists()

    @staticmethod
    def _tampered(trained, tmp_path, edit) -> str:
        """A copy of the trained run's checkpoint whose meta text is edit(meta text)."""
        ck = tmp_path / "tampered.npz"
        with np.load(trained[0] / "ckpt" / "ckpt-10.npz") as saved:
            arrays = {name: saved[name] for name in saved.files}
        arrays["__meta__"] = np.array(edit(str(arrays["__meta__"])))
        np.savez(ck, **arrays)
        return str(ck)

    @pytest.mark.parametrize("key,value", [
        ("seed", -1),  # numpy generators take no negative seed
        ("token_kernel", 4),  # AttentionConfig takes only odd kernels
        ("beam_size", 0),
        ("seed", "abc"),  # values of the wrong type: each key has its schema kind
        ("copy", "yes"),
        ("steps", True),
    ])
    def test_invalid_checkpoint_run_config_is_config_error(self, trained, tmp_path, capsys,
                                                           key, value):
        def edit(text):
            meta = json.loads(text)
            meta["run_config"][key] = value
            return json.dumps(meta)

        ck = self._tampered(trained, tmp_path, edit)
        assert cli.main(["summarize", "--checkpoint", ck, "--text", "anything"]) == 2
        err = capsys.readouterr().err
        assert "error[config]" in err and key in err

    @pytest.mark.parametrize("edit,named", [
        (lambda text: text[:-1], "not a JSON object"),  # cut short: not JSON
        (lambda text: json.dumps([json.loads(text)]), "not a JSON object"),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "vocab"}),
         "'vocab'"),
        (lambda text: json.dumps({**json.loads(text), "vocab": 5}), "'vocab'"),
        (lambda text: json.dumps({**json.loads(text), "vocab": ["a", "b"]}), "'vocab'"),
        (lambda text: json.dumps({**json.loads(text), "vocab": [*RESERVED, "a", "a"]}),
         "'vocab'"),
        (lambda text: json.dumps({**json.loads(text), "opt_step": "x"}), "'opt_step'"),
        (lambda text: json.dumps({**json.loads(text), "opt_step": -1}), "'opt_step'"),
        (lambda text: json.dumps({**json.loads(text), "opt_step": True}), "'opt_step'"),
        (lambda text: json.dumps({**json.loads(text), "run_config": []}), "'run_config'"),
        (lambda text: json.dumps({**json.loads(text), "rng_state": {}}), "'rng_state'"),
    ], ids=["cut-short", "a-list", "no-vocab", "vocab-int", "vocab-no-reserved-head",
            "vocab-repeated-token", "opt-step-str", "opt-step-negative", "opt-step-bool",
            "run-config-list", "rng-state-empty"])
    def test_malformed_checkpoint_meta_is_data_error(self, trained, tmp_path, capsys,
                                                     edit, named):
        ck = self._tampered(trained, tmp_path, edit)
        assert cli.main(["summarize", "--checkpoint", ck, "--text", "anything"]) == 3
        err = capsys.readouterr().err
        assert "error[data]" in err and named in err

    @pytest.mark.parametrize("key,bad", [
        ("param:gen.b", lambda a: np.full(a.shape, "x")),  # a string array of the right shape
        ("m:gen.w", lambda a: a.astype(np.float32)),
        ("v:copy.bq", lambda a: a.astype(np.int64)),
    ], ids=["param-str", "m-float32", "v-int64"])
    def test_non_float64_checkpoint_array_is_data_error(self, trained, tmp_path, capsys,
                                                        key, bad):
        ck = tmp_path / "bad-dtype.npz"
        with np.load(trained[0] / "ckpt" / "ckpt-10.npz") as saved:
            arrays = {name: saved[name] for name in saved.files}
        arrays[key] = bad(arrays[key])
        np.savez(ck, **arrays)
        with pytest.raises(DataError, match=re.escape(f"'{key}'")):
            load_checkpoint(str(ck))
        assert cli.main(["summarize", "--checkpoint", str(ck), "--text", "anything"]) == 3
        err = capsys.readouterr().err
        assert "error[data]" in err and key in err

    @staticmethod
    def _corrupted(trained, tmp_path, damage) -> Path:
        """A copy of the trained run's checkpoint with one byte of an array's
        data flipped, or cut to half its length; or a lone .npy array."""
        saved = trained[0] / "ckpt" / "ckpt-10.npz"
        raw = bytearray(saved.read_bytes())
        ck = tmp_path / "corrupted.npz"
        if damage == "flipped-byte":
            with zipfile.ZipFile(saved) as z:
                info = z.getinfo("param:gen.w.npy")
            # a local header is 30 bytes, then the member's name and extra field
            name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
            raw[info.header_offset + 30 + name_len + extra_len + info.compress_size - 1] ^= 0xFF
        elif damage == "truncated":
            raw = raw[:len(raw) // 2]
        else:
            with open(ck, "wb") as f:
                np.save(f, np.zeros(3))
            return ck
        ck.write_bytes(bytes(raw))
        return ck

    @pytest.mark.parametrize("command", ["summarize", "evaluate", "train-resume"])
    @pytest.mark.parametrize("damage,named", [
        ("flipped-byte", "cannot read checkpoint {}: Bad CRC-32"),
        ("truncated", "cannot read checkpoint {}: File is not a zip file"),
        ("lone-array", "not a checkpoint file: {}"),
    ], ids=["flipped-byte", "truncated", "lone-array"])
    def test_corrupted_checkpoint_exits_3(self, trained, tmp_path, capsys, command, damage,
                                          named):
        root = trained[0]
        ck = self._corrupted(trained, tmp_path, damage)
        argv = {
            "summarize": ["summarize", "--checkpoint", str(ck), "--text", "anything"],
            "evaluate": ["evaluate", "--checkpoint", str(ck), "--test", str(root / "train.jsonl")],
            "train-resume": ["train", "--config", str(root / "run.cfg"), "--resume", str(ck),
                             "--checkpoint-dir", str(tmp_path / "ckpt")],
        }[command]
        assert cli.main(argv) == 3
        assert "error[data]: " + named.format(ck) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["build-vocab", "train", "evaluate", "leadtail"])
    def test_lone_surrogate_in_a_corpus_exits_3(self, trained, tmp_path, capsys, command):
        root = trained[0]
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"source": "a \\ud800 b .", "summary": "a"}\n')
        argv = {
            "build-vocab": ["--corpus", str(corpus), "--size", "100",
                            "--out", str(tmp_path / "v.txt")],
            "train": ["--config", str(root / "run.cfg"), "--corpus", str(corpus),
                      "--checkpoint-dir", str(tmp_path / "ckpt")],
            "evaluate": ["--checkpoint", str(root / "ckpt" / "ckpt-10.npz"),
                         "--test", str(corpus)],
            "leadtail": ["--corpus", str(corpus), "--direction", "head"],
        }[command]
        assert cli.main([command, *argv]) == 3
        err = capsys.readouterr().err
        assert f"error[data]: {corpus} line 1: text that is not UTF-8" in err
        assert os.listdir(tmp_path) == ["c.jsonl"]  # no vocab, .tmp or checkpoint directory

    def test_leadtail_empty_summary_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        save_jsonl(str(corpus), [{"source": "a b . c d .", "summary": ""}])
        assert cli.main(["leadtail", "--corpus", str(corpus), "--direction", "head"]) == 3
        assert f"error[data]: {corpus}: lead_tail_analysis: empty summary" in (
            capsys.readouterr().err)

    def test_leadtail_head_beats_tail(self, trained, capsys):
        tmp_path, docs, vocab, cfg = trained
        corpus = tmp_path / "lead.jsonl"
        save_jsonl(str(corpus), make_lead_corpus(25, seed=9))

        def f1(direction):
            assert cli.main(["leadtail", "--corpus", str(corpus),
                             "--direction", direction]) == 0
            out = capsys.readouterr().out
            return float(next(l for l in out.splitlines() if l.startswith("rougeL_f1="))
                         .split("=")[1])

        assert f1("head") > f1("tail")


class TestCliTrainFlags:
    def test_flags_override_config_file(self, tmp_path):
        docs, vocab, cfg = _toy_setup(tmp_path, steps=10)
        cfg_path = tmp_path / "run.cfg"
        _write_config(str(cfg_path), cfg)
        code = cli.main(["train", "--config", str(cfg_path), "--steps", "3",
                         "--warmup", "50"])
        assert code == 0
        log = (tmp_path / "ckpt" / "loss.tsv").read_text().splitlines()
        assert len(log) == 3
        step, lr, _ = log[0].split("\t")
        assert float(lr) == pytest.approx(noam_rate(cfg.d_model, 50, 1))

    @pytest.mark.parametrize("tokens", [["a", "b"], [*RESERVED, "a", "b", "a"]],
                             ids=["no-reserved-head", "repeated-token"])
    def test_malformed_vocab_file_is_data_error(self, tmp_path, capsys, tokens):
        docs, vocab, cfg = _toy_setup(tmp_path, steps=2)
        (tmp_path / "vocab.txt").write_text("\n".join(tokens) + "\n")
        cfg_path = tmp_path / "run.cfg"
        _write_config(str(cfg_path), cfg)
        assert cli.main(["train", "--config", str(cfg_path)]) == 3
        assert "error[data]" in capsys.readouterr().err

    def test_bad_flag_value_is_config_error(self, tmp_path, capsys):
        docs, vocab, cfg = _toy_setup(tmp_path, steps=2)
        cfg_path = tmp_path / "run.cfg"
        _write_config(str(cfg_path), cfg)
        code = cli.main(["train", "--config", str(cfg_path), "--steps", "soon"])
        assert code == 2
        assert "cannot parse" in capsys.readouterr().err


def _file_in_the_way(tmp_path, monkeypatch):
    return str(tmp_path / "run.cfg" / "ckpt")  # a directory under a regular file


def _lock_refused(tmp_path, monkeypatch):
    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(os, "open", refuse)  # the lock is the one file made with os.open
    return str(tmp_path / "ckpt")


def _directory_named(name):
    def block(tmp_path, monkeypatch):
        (tmp_path / "ckpt" / name).mkdir(parents=True)
        return str(tmp_path / "ckpt")
    return block


class TestCliUnwritableOutput:
    @pytest.mark.parametrize("block", [
        _file_in_the_way, _lock_refused, _directory_named("loss.tsv"),
        _directory_named("ckpt-2.npz"),
    ], ids=["dir-under-a-file", "lock", "loss-log", "checkpoint"])
    def test_train_output_that_cannot_be_written_is_data_error(self, tmp_path, capsys,
                                                               monkeypatch, block):
        docs, vocab, cfg = _toy_setup(tmp_path, steps=2)
        cfg_path = tmp_path / "run.cfg"
        _write_config(str(cfg_path), cfg)
        ckpt_dir = block(tmp_path, monkeypatch)
        code = cli.main(["train", "--config", str(cfg_path), "--checkpoint-dir", ckpt_dir])
        err = capsys.readouterr().err
        assert code == 3 and f"error[data]: cannot write to checkpoint directory {ckpt_dir}" in err
        if os.path.isdir(ckpt_dir):  # the lock is released and no partial checkpoint is left
            assert not {"LOCK", "ckpt-2.npz.tmp"} & set(os.listdir(ckpt_dir))


class TestCliNonUtf8File:
    """A file `convsum train` reads that is not UTF-8 exits with its reader's
    code and names the file; a loss log or lock is a data error, not a crash."""

    @pytest.mark.parametrize("name,code,named", [
        ("train.jsonl", 3, "error.data.: cannot read corpus file .*train.jsonl"),
        ("run.cfg", 2, "error.config.: cannot read config file .*run.cfg"),
        ("ckpt/loss.tsv", 3, "error.data.: cannot write to checkpoint directory .*cannot read loss"),
        ("ckpt/LOCK", 3, "error.data.: .*locked by another run: .*LOCK \\(lock file unreadable"),
    ], ids=["corpus", "config", "loss-log", "lock"])
    def test_non_utf8_file_exits_with_its_code(self, tmp_path, capsys, name, code, named):
        docs, vocab, cfg = _toy_setup(tmp_path, steps=2)
        cfg_path = tmp_path / "run.cfg"
        _write_config(str(cfg_path), cfg)
        (tmp_path / "ckpt").mkdir()
        (tmp_path / name).write_bytes(b"1\t0.1\t2.0\ncaf\xe9\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == code
        err = capsys.readouterr().err
        assert re.search(named, err), err


class TestCliProviderModes:
    @pytest.mark.parametrize("mode", ["stacking", "concatenation"])
    def test_conditioned_training_and_summarize(self, tmp_path, mode, capsys):
        docs, vocab, cfg = _toy_setup(
            tmp_path, steps=4, checkpoint_every=4, batch_size=3,
            enc_layers=2, dropout=0.0, label_smoothing=0.0,
            integration=mode, decoder_conditioned=True, provider="stub",
            provider_width=12, provider_window=64, window=64, stride=32,
            conv_layers=(0,),
        )
        cfg_path = tmp_path / "run.cfg"
        _write_config(str(cfg_path), cfg)
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        ck = str(tmp_path / "ckpt" / "ckpt-4.npz")
        assert cli.main(["summarize", "--checkpoint", ck, "--text",
                         docs[0]["source"], "--max-length", "6"]) == 0
        assert capsys.readouterr().out.strip()


class TestCliEvaluateMemorized:
    def test_memorized_set_scores_perfect_rouge(self, tmp_path, capsys):
        docs, vocab, cfg = _toy_setup(
            tmp_path, n_docs=5, steps=300, d_model=32, ff_size=64, token_kernel=5,
            dropout=0.0, label_smoothing=0.0, warmup=100, batch_size=5, beam_size=4,
            max_length=12, checkpoint_every=300,
        )
        pairs = encode_pairs(docs, vocab, cfg)
        tr = Trainer(cfg, vocab, pairs)
        tr.train()
        ck = tmp_path / "memorized.npz"
        tr.save(str(ck))
        test_path = tmp_path / "test.jsonl"
        save_jsonl(str(test_path), docs)
        code = cli.main(["evaluate", "--checkpoint", str(ck), "--test", str(test_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "rouge1_f1=1.0000" in out
        assert "rougeL_f1=1.0000" in out
