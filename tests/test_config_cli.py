import json
import os

import numpy as np
import pytest

from _helpers import WORD_POOL, make_lead_corpus
from convsum import cli
from convsum.config import RunConfig, load_config, parse_config_text
from convsum.data import encode_pairs, iter_texts, load_jsonl, save_jsonl
from convsum.errors import ConfigError, DataError
from convsum.optim import noam_rate
from convsum.tokenizer import RESERVED, Vocab, build_vocab
from convsum.trainer import DirectoryLock, Trainer, evaluate_model


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

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.cfg"))


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

    def test_missing_corpus_exit_code_names_path(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.jsonl")
        code = cli.main(["build-vocab", "--corpus", missing, "--size", "100",
                         "--out", str(tmp_path / "v.txt")])
        assert code == 3
        assert missing in capsys.readouterr().err


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

    def test_bad_flag_value_is_config_error(self, tmp_path, capsys):
        docs, vocab, cfg = _toy_setup(tmp_path, steps=2)
        cfg_path = tmp_path / "run.cfg"
        _write_config(str(cfg_path), cfg)
        code = cli.main(["train", "--config", str(cfg_path), "--steps", "soon"])
        assert code == 2
        assert "cannot parse" in capsys.readouterr().err


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
