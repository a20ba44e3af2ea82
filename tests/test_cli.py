import csv
import dataclasses
import hashlib
import importlib
import json
import os
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from conftest import jira_issue

from storypoint import baselines, cli
from storypoint.cli import main
from storypoint.corpus import (
    IssueRecord,
    _unescape_token,
    build_vocabulary,
    dataset_stats,
    filter_issues,
    load_bundled_corpus,
    load_vocabulary,
    read_corpus,
    save_vocabulary,
    split_chronological,
    tokenize,
    write_corpus,
)
from storypoint.model import ModelConfig, init_params, load_checkpoint, save_checkpoint


def run(*argv):
    return main([str(a) for a in argv])


def make_corpus(path, n=10, bad_points=0):
    t0 = datetime(2021, 1, 1, tzinfo=timezone.utc)
    records = [
        IssueRecord(project="P", issue_key=f"P-{i}", created_at=t0 + timedelta(days=i),
                    title=f"issue number {i} with words", description="some text",
                    story_points=float(1 + i % 5))
        for i in range(n)
    ]
    for i in range(bad_points):
        records.append(
            IssueRecord(project="P", issue_key=f"P-bad{i}", created_at=t0,
                        title="broken", story_points=0.0)
        )
    write_corpus(records, path)
    return records


@pytest.fixture
def prepared(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(load_bundled_corpus(), corpus_path)
    out = tmp_path / "out"
    assert run("prepare", "--in", corpus_path, "--out-dir", out,
               "--min-project-size", 0) == 0
    return out


@pytest.fixture
def prepared_characters(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(load_bundled_corpus(), corpus_path)
    out = tmp_path / "characters"
    assert run("prepare", "--in", corpus_path, "--out-dir", out,
               "--min-project-size", 0, "--mode", "character") == 0
    return out


class TestPrepare:
    def test_split_manifest_six_two_two(self, tmp_path, capsys):
        corpus_path = tmp_path / "ten.jsonl"
        make_corpus(corpus_path, n=10)
        assert run("prepare", "--in", corpus_path, "--out-dir", tmp_path / "o",
                   "--min-project-size", 0) == 0
        report = json.loads((tmp_path / "o" / "stats.json").read_text())
        assert report["split"] == {"train": 6, "valid": 2, "test": 2}
        assert len(read_corpus(tmp_path / "o" / "train.jsonl")) == 6

    def test_removed_issue_reported(self, tmp_path):
        corpus_path = tmp_path / "bad.jsonl"
        make_corpus(corpus_path, n=10, bad_points=1)
        assert run("prepare", "--in", corpus_path, "--out-dir", tmp_path / "o",
                   "--min-project-size", 0) == 0
        report = json.loads((tmp_path / "o" / "stats.json").read_text())
        assert report["removed"] == 1
        assert report["removed_fraction"] == pytest.approx(1 / 11, abs=1e-6)

    def test_stats_block_matches_dataset_stats(self, tmp_path):
        corpus_path = tmp_path / "c.jsonl"
        records = make_corpus(corpus_path, n=12)
        assert run("prepare", "--in", corpus_path, "--out-dir", tmp_path / "o",
                   "--min-project-size", 0) == 0
        report = json.loads((tmp_path / "o" / "stats.json").read_text())
        assert report["story_points"] == dataset_stats(records)

    # sha256 of stats.json for the bundled corpus, as written before the
    # word counts of train and valid were taken from the vocabulary pass
    STATS_PINS = {
        "word": "9e53cb637f2481a7725c1ae38beaec5dd7e2b09ba23bbf4953e232a4c98ee7c0",
        "character": "dd3230a05f50a6544c2e1cb812ad072bb9b1f8dbb12fb870d97c3c5f5231b8f0",
    }

    @pytest.mark.parametrize("mode", ["word", "character"])
    def test_stats_json_bytes_pinned(self, tmp_path, mode):
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(load_bundled_corpus(), corpus_path)
        assert run("prepare", "--in", corpus_path, "--out-dir", tmp_path / "o",
                   "--min-project-size", 0, "--mode", mode) == 0
        digest = hashlib.sha256((tmp_path / "o" / "stats.json").read_bytes()).hexdigest()
        assert digest == self.STATS_PINS[mode]

    def test_word_mode_tokenizes_each_issue_once(self, tmp_path, monkeypatch):
        import storypoint.corpus as corpus_module

        calls = []
        real = corpus_module.tokenize

        def counting(text, mode="word"):
            calls.append(mode)
            return real(text, mode)

        monkeypatch.setattr(cli, "tokenize", counting)
        monkeypatch.setattr(corpus_module, "tokenize", counting)
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(load_bundled_corpus(), corpus_path)
        assert run("prepare", "--in", corpus_path, "--out-dir", tmp_path / "o",
                   "--min-project-size", 0) == 0
        assert len(calls) == len(load_bundled_corpus())

    # sha256 of vocab.txt and stats.json for mixed_corpus, as written before
    # prepare serialized each record once for all its files
    MIXED_PINS = {
        "word": ("d58d488f9c85a90ddf90d6a86c880b53f6c084fa3e20abe0a969ba6224b6ba54",
                 "b236e6abd1f93d9f4564046f998d0c6dc642cb61d6773e99db02995e426940fe"),
        "character": ("05625b9d89bb2bf49584deff5a2333090146accbfc94569fa5a3d3742233c3e4",
                      "a24a00a42022c4d7980c46bff781c893acf38921dc30a561c2531c21136f56e1"),
    }

    @staticmethod
    def mixed_corpus():
        """The bundled corpus with unlabeled copies of a quarter of it (quotes,
        non-ASCII, a tab) and one issue the point filter drops."""
        labeled = load_bundled_corpus()
        unlabeled = [dataclasses.replace(r, issue_key=r.issue_key + "-U", story_points=None,
                                         title=r.title + ' «draft» "ß"\tend')
                     for r in labeled[::4]]
        dropped = dataclasses.replace(labeled[0], issue_key="DROP-1", story_points=0.0)
        return labeled[:32] + unlabeled + labeled[32:] + [dropped]

    @pytest.mark.parametrize("mode", ["word", "character"])
    def test_files_are_those_write_corpus_writes(self, tmp_path, mode):
        records = self.mixed_corpus()
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(records, corpus_path)
        out = tmp_path / "o"
        assert run("prepare", "--in", corpus_path, "--out-dir", out,
                   "--min-project-size", 0, "--mode", mode) == 0
        kept, _ = filter_issues(records, 0)
        split = split_chronological([r for r in kept if r.story_points is not None])
        unlabeled = [r for r in kept if r.story_points is None]
        assert len(unlabeled) == 16 and len(kept) == len(records) - 1
        expected = {"filtered": kept, "unlabeled": unlabeled,
                    "train": split.train, "valid": split.valid, "test": split.test}
        for name, part in expected.items():
            write_corpus(part, tmp_path / f"{name}.jsonl")
            assert (out / f"{name}.jsonl").read_bytes() == (tmp_path / f"{name}.jsonl").read_bytes()
        digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in ("vocab.txt", "stats.json"))
        assert digests == self.MIXED_PINS[mode]

    def test_line_separators_in_text_survive_prepare(self, tmp_path):
        records = make_corpus(tmp_path / "plain.jsonl", n=10)
        records = [dataclasses.replace(r, title=r.title + sep, description="a" + sep + "b")
                   for r, sep in zip(records, ["\u2028", "\u2029", "\u0085"] * 4)]
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(records, corpus_path)
        assert run("prepare", "--in", corpus_path, "--out-dir", tmp_path / "o",
                   "--min-project-size", 0) == 0
        assert read_corpus(tmp_path / "o" / "filtered.jsonl") == records
        assert sum(len(read_corpus(tmp_path / "o" / f"{name}.jsonl"))
                   for name in ("train", "valid", "test")) == 10

    def test_vocab_is_reusable(self, prepared):
        vocab = load_vocabulary(prepared / "vocab.txt")
        assert "easy" in vocab.index


class TestIngestCli:
    def test_importing_the_cli_does_not_load_requests(self):
        # only ingest needs the HTTP client; every other command skips its import
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, storypoint.cli; print('requests' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr[-3000:]
        assert proc.stdout.strip() == "False"

    def test_missing_base_url_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("ingest", "--jql", "x", "--sp-field", "f", "--out", "o.jsonl")
        assert exc.value.code == 2

    def test_mock_server_seventy_records(self, mock_jira, tmp_path):
        mock_jira.script["issues"] = [jira_issue(f"ME-{i}") for i in range(70)]
        out = tmp_path / "fetched.jsonl"
        url = f"http://127.0.0.1:{mock_jira.server_address[1]}"
        assert run("ingest", "--base-url", url, "--jql", "project = ME",
                   "--sp-field", "customfield_10002", "--out", out,
                   "--rate-limit", 1e6) == 0
        assert len(read_corpus(out)) == 70

    def test_max_issues_cap(self, mock_jira, tmp_path):
        mock_jira.script["issues"] = [jira_issue(f"ME-{i}") for i in range(30)]
        out = tmp_path / "capped.jsonl"
        url = f"http://127.0.0.1:{mock_jira.server_address[1]}"
        assert run("ingest", "--base-url", url, "--jql", "q",
                   "--sp-field", "customfield_10002", "--out", out,
                   "--max-issues", 10, "--rate-limit", 1e6) == 0
        assert len(read_corpus(out)) <= 10

    def test_skip_reasons_printed_by_reason(self, mock_jira, tmp_path, capsys):
        mock_jira.script["issues"] = [
            jira_issue("ME-1", points="five"),
            {"key": "ME-2", "fields": {"summary": "", "created": "2016-01-12T10:00:00.000+0000"}},
            jira_issue("ME-3"),
            jira_issue("ME-4", points=True),
        ]
        out = tmp_path / "fetched.jsonl"
        url = f"http://127.0.0.1:{mock_jira.server_address[1]}"
        assert run("ingest", "--base-url", url, "--jql", "q", "--sp-field", "customfield_10002",
                   "--out", out, "--page-size", 3, "--rate-limit", 1e6) == 0
        assert capsys.readouterr().out == (
            f"ingest: wrote 1 issues to {out} (3 skipped: 1 missing key/summary/created, "
            "2 non-numeric story points; 2 requests)\n")

    def test_nothing_skipped_prints_the_total(self, mock_jira, tmp_path, capsys):
        mock_jira.script["issues"] = [jira_issue("ME-1")]
        out = tmp_path / "fetched.jsonl"
        url = f"http://127.0.0.1:{mock_jira.server_address[1]}"
        assert run("ingest", "--base-url", url, "--jql", "q", "--sp-field", "customfield_10002",
                   "--out", out, "--rate-limit", 1e6) == 0
        assert capsys.readouterr().out.endswith("(0 skipped; 1 requests)\n")

    @pytest.mark.parametrize("max_issues", [0, -5])
    def test_max_issues_below_one_exits_1(self, mock_jira, tmp_path, capsys, max_issues):
        mock_jira.script["issues"] = [jira_issue("ME-1")]
        out = tmp_path / "capped.jsonl"
        url = f"http://127.0.0.1:{mock_jira.server_address[1]}"
        assert run("ingest", "--base-url", url, "--jql", "q", "--sp-field", "customfield_10002",
                   "--out", out, "--max-issues", max_issues, "--rate-limit", 1e6) == 1
        assert "max_issues must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_rate_limit_exits_1(self, mock_jira, tmp_path, capsys):
        mock_jira.script["issues"] = [jira_issue("ME-1")]
        out = tmp_path / "fetched.jsonl"
        url = f"http://127.0.0.1:{mock_jira.server_address[1]}"
        assert run("ingest", "--base-url", url, "--jql", "q", "--sp-field", "customfield_10002",
                   "--out", out, "--rate-limit", "nan") == 1
        assert "rate_limit must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_auth_error_exits_1(self, mock_jira, tmp_path, capsys):
        mock_jira.script["status"] = 403
        url = f"http://127.0.0.1:{mock_jira.server_address[1]}"
        assert run("ingest", "--base-url", url, "--jql", "q",
                   "--sp-field", "f", "--out", tmp_path / "x.jsonl",
                   "--rate-limit", 1e6) == 1
        assert "auth/query error" in capsys.readouterr().err


class TestTrainCli:
    def test_train_twice_identical_artifacts(self, prepared, tmp_path):
        dirs = [tmp_path / "run1", tmp_path / "run2"]
        for d in dirs:
            assert run("train", "--split-dir", prepared, "--out-dir", d,
                       "--dim", 8, "--depth", 2, "--epochs", 5,
                       "--batch-size", 16, "--seed", 7) == 0
        assert (dirs[0] / "model.ckpt").read_bytes() == (dirs[1] / "model.ckpt").read_bytes()
        assert (dirs[0] / "train_log.csv").read_text() == (dirs[1] / "train_log.csv").read_text()

    def test_estimate_roundtrip(self, prepared, tmp_path):
        model_dir = tmp_path / "model"
        assert run("train", "--split-dir", prepared, "--out-dir", model_dir,
                   "--dim", 8, "--depth", 2, "--epochs", 5, "--batch-size", 16) == 0
        out = tmp_path / "est.csv"
        assert run("estimate", "--checkpoint", model_dir / "model.ckpt",
                   "--vocab", prepared / "vocab.txt",
                   "--in", prepared / "test.jsonl", "--out", out) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 13
        assert all(float(r["estimate"]) >= 0 for r in rows)

    def test_pretrain_then_train_handoff(self, prepared, tmp_path):
        pre_dir = tmp_path / "pre"
        assert run("pretrain", "--corpus", prepared / "train.jsonl",
                   "--vocab", prepared / "vocab.txt", "--out-dir", pre_dir,
                   "--dim", 8, "--depth", 2, "--epochs", 3,
                   "--batch-size", 16, "--nce-samples", 5) == 0
        log = (pre_dir / "pretrain_log.csv").read_text().splitlines()
        assert log[0] == "epoch,train_loss,valid_perplexity,best_perplexity"
        assert len(log) == 4
        model_dir = tmp_path / "model"
        assert run("train", "--split-dir", prepared, "--out-dir", model_dir,
                   "--dim", 8, "--depth", 2, "--epochs", 2, "--batch-size", 16,
                   "--pretrained", pre_dir / "pretrain.ckpt") == 0

    @pytest.mark.parametrize("objective", ["nce", "softmax"])
    def test_pretrain_log_cells_are_plain_numbers(self, prepared, tmp_path, objective):
        pre_dir = tmp_path / "pre"
        assert run("pretrain", "--corpus", prepared / "train.jsonl",
                   "--vocab", prepared / "vocab.txt", "--out-dir", pre_dir,
                   "--dim", 8, "--depth", 2, "--epochs", 2, "--batch-size", 16,
                   "--nce-samples", 5, "--objective", objective) == 0
        with (pre_dir / "pretrain_log.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            for name, cell in row.items():
                assert np.isfinite(float(cell)), (name, cell)

    def test_pretrain_blow_up_keeps_checkpoint_and_log(self, prepared, tmp_path, capsys):
        # a step size this large overflows the weights on the first update
        pre_dir = tmp_path / "pre"
        with np.errstate(all="ignore"):
            assert run("pretrain", "--corpus", prepared / "train.jsonl",
                       "--vocab", prepared / "vocab.txt", "--out-dir", pre_dir,
                       "--dim", 8, "--depth", 2, "--epochs", 3, "--batch-size", 16,
                       "--nce-samples", 5, "--learning-rate", 1e308) == 0
        assert "(aborted: epoch " in capsys.readouterr().out
        log = (pre_dir / "pretrain_log.csv").read_text().splitlines()
        assert log[0] == "epoch,train_loss,valid_perplexity,best_perplexity"
        assert len(log) < 4
        checkpoint = load_checkpoint(pre_dir / "pretrain.ckpt")
        assert all(np.all(np.isfinite(t)) for t in checkpoint.tensors.values())

    def test_estimate_refuses_a_pretraining_checkpoint(self, prepared, tmp_path, capsys):
        # it lacks the highway and regressor weights an estimate needs
        pre_dir = tmp_path / "pre"
        assert run("pretrain", "--corpus", prepared / "train.jsonl",
                   "--vocab", prepared / "vocab.txt", "--out-dir", pre_dir,
                   "--dim", 8, "--depth", 2, "--epochs", 1,
                   "--batch-size", 16, "--nce-samples", 5) == 0
        out = tmp_path / "est.csv"
        assert run("estimate", "--checkpoint", pre_dir / "pretrain.ckpt",
                   "--vocab", prepared / "vocab.txt",
                   "--in", prepared / "test.jsonl", "--out", out) == 1
        assert "'pretrain'" in capsys.readouterr().err
        assert not out.exists()

    def test_estimate_refuses_a_non_finite_tensor(self, prepared, tmp_path, capsys):
        vocab = load_vocabulary(prepared / "vocab.txt")
        config = ModelConfig(embedding_dim=8, highway_depth=2)
        params = init_params(len(vocab), config, np.random.default_rng(0))
        params.reg_w[3] = np.nan
        checkpoint = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint, "model", config, vocab.content_hash(), params.tensors())
        out = tmp_path / "est.csv"
        assert run("estimate", "--checkpoint", checkpoint, "--vocab", prepared / "vocab.txt",
                   "--in", prepared / "test.jsonl", "--out", out) == 1
        assert "tensor reg_w has a non-finite value" in capsys.readouterr().err
        assert not out.exists()

    def test_estimate_refuses_an_incomplete_model_checkpoint(self, prepared, tmp_path, capsys):
        # missing weights are not read as zeros, which would score every issue 0.0
        vocab = load_vocabulary(prepared / "vocab.txt")
        config = ModelConfig(embedding_dim=8, highway_depth=2)
        params = init_params(len(vocab), config, np.random.default_rng(0))
        checkpoint = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint, "model", config, vocab.content_hash(), {"emb": params.emb})
        out = tmp_path / "est.csv"
        assert run("estimate", "--checkpoint", checkpoint, "--vocab", prepared / "vocab.txt",
                   "--in", prepared / "test.jsonl", "--out", out) == 1
        assert ("model checkpoint lacks lstm_wx, lstm_wh, lstm_b, hw_gate_w, hw_gate_b, "
                "hw_trans_w, hw_trans_b, reg_w, reg_b") in capsys.readouterr().err
        assert not out.exists()

    def test_missing_vocab_file_fails(self, prepared, tmp_path, capsys):
        missing = tmp_path / "no-such-vocab.txt"
        assert run("train", "--split-dir", prepared, "--out-dir", tmp_path / "m",
                   "--dim", 6, "--depth", 2, "--epochs", 1, "--vocab", missing) == 1
        assert str(missing) in capsys.readouterr().err
        assert not (tmp_path / "m" / "model.ckpt").exists()

    def test_nan_learning_rate_fails(self, prepared, tmp_path, capsys):
        # a NaN rate used to train nothing and save the initial weights
        assert run("train", "--split-dir", prepared, "--out-dir", tmp_path / "m",
                   "--dim", 6, "--depth", 2, "--epochs", 1, "--learning-rate", "nan") == 1
        assert "learning_rate must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "m" / "model.ckpt").exists()

    @pytest.mark.parametrize("command", ["cross-project", "pretrain"])
    def test_learning_rate_reaches_the_config(self, prepared, tmp_path, monkeypatch, command):
        name = "TrainConfig" if command == "cross-project" else "PretrainConfig"
        config_class, made = getattr(cli, name), []

        def spy(**kwargs):
            made.append(config_class(**kwargs))
            return made[-1]

        monkeypatch.setattr(cli, name, spy)
        assert run(*self._training_command(command, prepared, tmp_path),
                   "--learning-rate", "0.05") == 0
        assert [config.learning_rate for config in made] == [0.05]

    @pytest.mark.parametrize("command", ["cross-project", "pretrain"])
    def test_nan_learning_rate_fails_on_every_training_command(self, prepared, tmp_path,
                                                               capsys, command):
        assert run(*self._training_command(command, prepared, tmp_path),
                   "--learning-rate", "nan") == 1
        assert "learning_rate must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @staticmethod
    def _training_command(command, prepared, tmp_path):
        flags = ("--out-dir", tmp_path / "run", "--dim", 6, "--depth", 1, "--epochs", 1,
                 "--batch-size", 16)
        if command == "pretrain":
            return ("pretrain", "--corpus", prepared / "train.jsonl",
                    "--vocab", prepared / "vocab.txt", "--nce-samples", 5, *flags)
        return ("cross-project", "--source-dir", prepared, "--target-dir", prepared, *flags)

    def test_negative_patience_fails(self, prepared, tmp_path, capsys):
        # -1 would stop training silently after the first epoch
        assert run("train", "--split-dir", prepared, "--out-dir", tmp_path / "m",
                   "--dim", 6, "--depth", 2, "--epochs", 3, "--patience", -1) == 1
        assert "patience must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "m" / "model.ckpt").exists()
        assert run("pretrain", "--corpus", prepared / "train.jsonl",
                   "--vocab", prepared / "vocab.txt", "--out-dir", tmp_path / "p",
                   "--dim", 6, "--depth", 2, "--epochs", 3, "--patience", -1) == 1
        assert "patience must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "p" / "pretrain.ckpt").exists()

    def test_character_mode_on_word_vocabulary_fails(self, prepared, prepared_characters,
                                                     tmp_path, capsys):
        # the vocabulary hash a checkpoint records covers the tokenizer mode
        assert run("train", "--split-dir", prepared_characters, "--out-dir", tmp_path / "m",
                   "--dim", 6, "--depth", 2, "--epochs", 1) == 0
        assert run("estimate", "--checkpoint", tmp_path / "m" / "model.ckpt",
                   "--vocab", prepared / "vocab.txt", "--in", prepared / "test.jsonl",
                   "--out", tmp_path / "est.csv") == 1
        assert "vocabulary does not match the checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "est.csv").exists()

    def test_nce_samples_above_the_vocabulary_size_fail(self, prepared, tmp_path, capsys):
        # the default of 100 noise samples exceeds the 39 entries
        assert run("pretrain", "--corpus", prepared / "train.jsonl",
                   "--vocab", prepared / "vocab.txt", "--out-dir", tmp_path / "p",
                   "--dim", 6, "--depth", 2, "--epochs", 1) == 1
        assert "nce_samples may not exceed the vocabulary size" in capsys.readouterr().err
        assert not (tmp_path / "p" / "pretrain.ckpt").exists()

    def test_pretrained_dim_mismatch_fails(self, prepared, tmp_path, capsys):
        pre_dir = tmp_path / "pre"
        assert run("pretrain", "--corpus", prepared / "train.jsonl",
                   "--vocab", prepared / "vocab.txt", "--out-dir", pre_dir,
                   "--dim", 6, "--depth", 2, "--epochs", 1,
                   "--batch-size", 16, "--nce-samples", 5) == 0
        assert run("train", "--split-dir", prepared, "--out-dir", tmp_path / "m",
                   "--dim", 8, "--depth", 2, "--epochs", 1,
                   "--pretrained", pre_dir / "pretrain.ckpt") == 1
        assert "error" in capsys.readouterr().err


class TestTokenizerMode:
    """The vocabulary file's #mode= header is the one source of the mode."""

    def test_character_pipeline_takes_the_mode_from_the_vocabulary(
            self, prepared_characters, tmp_path):
        split, vocab_path = prepared_characters, prepared_characters / "vocab.txt"
        vocab = load_vocabulary(vocab_path)
        assert vocab.mode == "character" and all(len(t) == 1 for t in vocab.tokens[2:])
        model = ("--dim", 6, "--depth", 2, "--epochs", 1, "--batch-size", 16)
        assert run("pretrain", "--corpus", split / "train.jsonl", "--vocab", vocab_path,
                   "--out-dir", tmp_path / "pre", "--nce-samples", 5, *model) == 0
        assert run("train", "--split-dir", split, "--out-dir", tmp_path / "m",
                   "--pretrained", tmp_path / "pre" / "pretrain.ckpt", *model) == 0
        for name in ("pre/pretrain.ckpt", "m/model.ckpt"):
            assert load_checkpoint(tmp_path / name).vocab_hash == vocab.content_hash()
        assert (tmp_path / "m" / "vocab.txt").read_bytes() == vocab_path.read_bytes()
        assert run("estimate", "--checkpoint", tmp_path / "m" / "model.ckpt",
                   "--vocab", vocab_path, "--in", split / "test.jsonl",
                   "--out", tmp_path / "est.csv") == 0
        assert run("baseline", "--model", "bow-rf", "--split-dir", split,
                   "--in", split / "test.jsonl", "--out", tmp_path / "bow.csv") == 0
        test_keys = [r.issue_key for r in read_corpus(split / "test.jsonl")]
        for name in ("est.csv", "bow.csv"):
            with (tmp_path / name).open() as fh:
                assert [row["issue_key"] for row in csv.DictReader(fh)] == test_keys

    UNRECOGNIZED = "unrecognized arguments: --mode word"

    @pytest.mark.parametrize("command, argv, message", [
        ("pretrain", ("--corpus", "c.jsonl", "--vocab", "v.txt", "--out-dir", "o"),
         UNRECOGNIZED),
        ("train", ("--split-dir", "s", "--out-dir", "o"), UNRECOGNIZED),
        ("cross-project", ("--source-dir", "s", "--target-dir", "t", "--out-dir", "o"),
         UNRECOGNIZED),
        # not an abbreviation of baseline's --model
        ("baseline", ("--model", "mean", "--split-dir", "s", "--in", "t.jsonl",
                      "--out", "o.csv"), UNRECOGNIZED),
    ])
    def test_mode_flag_exits_2(self, command, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            run(command, *argv, "--mode", "word")
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_vocabulary_without_a_mode_header_fails(self, prepared, tmp_path, capsys):
        headless = tmp_path / "vocab.txt"
        lines = (prepared / "vocab.txt").read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[0] == "#mode=word\n"
        headless.write_text("".join(lines[1:]), encoding="utf-8")
        assert run("train", "--split-dir", prepared, "--out-dir", tmp_path / "m",
                   "--vocab", headless, "--dim", 6, "--depth", 2, "--epochs", 1) == 1
        assert "does not start with a line #mode=word or #mode=character" in (
            capsys.readouterr().err)
        assert not (tmp_path / "m").exists()

    def test_checkpoint_that_records_a_tokenizer_mode_still_loads(self, prepared, tmp_path):
        # checkpoints written while ModelConfig held the mode name it in the header
        assert run("train", "--split-dir", prepared, "--out-dir", tmp_path / "m",
                   "--dim", 6, "--depth", 2, "--epochs", 1) == 0
        current = tmp_path / "m" / "model.ckpt"
        data = current.read_bytes()
        end = 16 + int.from_bytes(data[8:16], "big")
        header = json.loads(data[16:end])
        header["config"]["tokenizer_mode"] = "word"
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        older = tmp_path / "older.ckpt"
        older.write_bytes(data[:8] + len(blob).to_bytes(8, "big") + blob + data[end:])
        assert b',"tokenizer_mode":"word"}' in older.read_bytes()
        assert load_checkpoint(older).config == load_checkpoint(current).config
        for ckpt, out in ((current, "new.csv"), (older, "old.csv")):
            assert run("estimate", "--checkpoint", ckpt, "--vocab", prepared / "vocab.txt",
                       "--in", prepared / "test.jsonl", "--out", tmp_path / out) == 0
        assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()

    def test_model_checkpoint_with_a_pretraining_head_still_loads(self, prepared, tmp_path):
        # model checkpoints written while ModelParams held the head lm_u carry
        # it too; it is ignored
        assert run("train", "--split-dir", prepared, "--out-dir", tmp_path / "m",
                   "--dim", 6, "--depth", 2, "--epochs", 1) == 0
        current = tmp_path / "m" / "model.ckpt"
        loaded = load_checkpoint(current)
        assert "lm_u" not in loaded.tensors
        head = np.random.default_rng(0).uniform(-0.05, 0.05, loaded.tensors["emb"].shape)
        older = tmp_path / "older.ckpt"
        save_checkpoint(older, "model", loaded.config, loaded.vocab_hash,
                        {**loaded.tensors, "lm_u": head})
        assert set(load_checkpoint(older).tensors) == {*loaded.tensors, "lm_u"}
        for ckpt, out in ((current, "new.csv"), (older, "old.csv")):
            assert run("estimate", "--checkpoint", ckpt, "--vocab", prepared / "vocab.txt",
                       "--in", prepared / "test.jsonl", "--out", tmp_path / out) == 0
        assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()


class TestBaselineCli:
    def test_unknown_model_exits_2(self, prepared, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("baseline", "--model", "oracle", "--split-dir", prepared,
                "--in", prepared / "test.jsonl", "--out", tmp_path / "x.csv")
        assert exc.value.code == 2

    def test_mean_then_evaluate_row(self, prepared, tmp_path, capsys):
        est = tmp_path / "mean.csv"
        assert run("baseline", "--model", "mean", "--split-dir", prepared,
                   "--in", prepared / "test.jsonl", "--out", est) == 0
        assert run("evaluate", "--split-dir", prepared,
                   "--estimates", f"mean={est}") == 0
        table = capsys.readouterr().out
        assert "mean" in table and "MAE" in table and "SA" in table

    def test_random_uses_seed(self, prepared, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run("baseline", "--model", "random", "--split-dir", prepared,
                       "--in", prepared / "test.jsonl", "--out", out,
                       "--seed", 5) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_feature_models_need_features(self, prepared, tmp_path, capsys):
        assert run("baseline", "--model", "cart", "--split-dir", prepared,
                   "--in", prepared / "test.jsonl", "--out", tmp_path / "x.csv") == 1
        assert "--features" in capsys.readouterr().err

    def test_lstm_rf_needs_checkpoint(self, prepared, tmp_path, capsys):
        assert run("baseline", "--model", "lstm-rf", "--split-dir", prepared,
                   "--in", prepared / "test.jsonl", "--out", tmp_path / "x.csv") == 1
        assert "--checkpoint" in capsys.readouterr().err

    def test_feature_baseline_pipeline(self, prepared, tmp_path):
        features = tmp_path / "features.csv"
        with features.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["issue_key", "issue_type", "n_subtasks", "assignee_tested"])
            for name in ("train", "valid", "test"):
                for r in read_corpus(prepared / f"{name}.jsonl"):
                    easy = r.story_points == 1.0
                    writer.writerow([r.issue_key, "Task" if easy else "Epic",
                                     0 if easy else 4, ""])
        for model in ("cbr", "cart", "ols", "lasso"):
            out = tmp_path / f"{model}.csv"
            assert run("baseline", "--model", model, "--split-dir", prepared,
                       "--in", prepared / "test.jsonl", "--out", out,
                       "--features", features) == 0
            with out.open() as fh:
                assert len(list(csv.DictReader(fh))) == 13


def write_feature_table(prepared, path):
    """A feature table with a row for every issue of the split, some
    without an assignee."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["issue_key", "issue_type", "n_subtasks", "n_issue_links",
                         "assignee_tested"])
        for name in ("train", "valid", "test"):
            for r in read_corpus(prepared / f"{name}.jsonl"):
                words = len(r.title.split()) + len(r.description.split())
                writer.writerow([r.issue_key, "Bug" if "easy" in r.title else "Task",
                                 words % 7, len(r.description.split()),
                                 "" if words % 3 else words % 5])
    return path


def pretrain_checkpoint(prepared, out_dir):
    assert run("pretrain", "--corpus", prepared / "train.jsonl", "--vocab", prepared / "vocab.txt",
               "--out-dir", out_dir, "--dim", 4, "--depth", 1, "--epochs", 1,
               "--batch-size", 16, "--nce-samples", 5) == 0
    return out_dir / "pretrain.ckpt"


class TestBaselineTable:
    @pytest.mark.parametrize("model", ["mean", "median", "random", "bow-rf", "lstm-rf",
                                       "cbr", "cart", "ols", "lasso"])
    def test_empty_input_gives_a_header_only_csv(self, prepared, tmp_path, capsys, model):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "out.csv"
        flags = []
        if model == "lstm-rf":
            flags = ["--checkpoint", pretrain_checkpoint(prepared, tmp_path)]
        elif model in ("cbr", "cart", "ols", "lasso"):
            flags = ["--features", write_feature_table(prepared, tmp_path / "f.csv")]
        argv = ["baseline", "--model", model, "--split-dir", prepared, "--in", empty, "--out", out]
        if flags:  # the flag checks come first, whatever the input
            assert run(*argv) == 1
            assert flags[0] in capsys.readouterr().err
            assert not out.exists()
        assert run(*argv, *flags) == 0
        assert out.read_text() == "issue_key,estimate\n"

    def test_non_finite_estimate_is_refused(self, prepared, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(baselines, "mean_effort", lambda points: float("nan"))
        out = tmp_path / "mean.csv"
        assert run("baseline", "--model", "mean", "--split-dir", prepared,
                   "--in", prepared / "test.jsonl", "--out", out) == 1
        assert "non-finite estimate" in capsys.readouterr().err
        assert not out.exists()

    def test_steps_call_the_module_functions_of_the_run(self, prepared, tmp_path, monkeypatch):
        # a tracer or a test patches module attributes; the table must see them
        calls = []

        def spy(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        for name in ("rf_fit", "bow_vectorize", "feature_matrix", "cart_fit", "cart_predict"):
            spy(baselines, name)
        spy(cli, "document_vectors")
        checkpoint = pretrain_checkpoint(prepared, tmp_path)
        features = write_feature_table(prepared, tmp_path / "f.csv")
        n_train, n_test = (len(read_corpus(prepared / f"{p}.jsonl")) for p in ("train", "test"))
        expected = {  # only lasso builds rows for the valid partition
            "bow-rf": ["bow_vectorize"] * (n_train + n_test) + ["rf_fit"],
            "lstm-rf": ["document_vectors"] * 2 + ["rf_fit"],
            "cbr": ["feature_matrix"] * 2,
            "cart": ["feature_matrix"] * 2 + ["cart_fit", "cart_predict"],  # every row at once
            "lasso": ["feature_matrix"] * 3,
        }
        for model, want in expected.items():
            calls.clear()
            assert run("baseline", "--model", model, "--split-dir", prepared,
                       "--in", prepared / "test.jsonl", "--out", tmp_path / "x.csv",
                       "--checkpoint", checkpoint, "--features", features) == 0
            assert calls == want, model


class TestFeatureTableRows:
    @pytest.mark.parametrize("bad_row, message", [
        ("SYN-2,Task", "not the header's 3 cells"),
        ("SYN-2,Task,1,7", "not the header's 3 cells"),
        ("SYN-1,Bug,2", "issue_key 'SYN-1' is repeated"),
    ])
    def test_bad_row_named_by_file_and_line(self, prepared, tmp_path, capsys, bad_row, message):
        features = tmp_path / "features.csv"
        features.write_text(f"issue_key,issue_type,n_subtasks\nSYN-1,Bug,1\n{bad_row}\n")
        assert run("baseline", "--model", "cbr", "--split-dir", prepared,
                   "--in", prepared / "test.jsonl", "--out", tmp_path / "x.csv",
                   "--features", features) == 1
        assert f"{features} line 3: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("table, message", [
        ("key,issue_type\nSYN-1,Bug\n", "{}: no issue_key column"),
        ("issue_key,colour\nSYN-1,red\n", "{}: unknown feature column 'colour'"),
        ("issue_key,n_subtasks\nSYN-1,x\n", "{} line 2: column n_subtasks: 'x' is not an integer"),
    ])
    def test_bad_table_named_by_file(self, prepared, tmp_path, capsys, table, message):
        features = tmp_path / "features.csv"
        features.write_text(table)
        assert run("baseline", "--model", "cbr", "--split-dir", prepared,
                   "--in", prepared / "test.jsonl", "--out", tmp_path / "x.csv",
                   "--features", features) == 1
        assert capsys.readouterr().err == f"error: {message.format(features)}\n"


class TestTreeBaselineBytes:
    # sha256 of the estimates CSVs. None of these paths makes a BLAS call,
    # so the bytes are the same on every machine; they change only if a
    # split or a fit does. On the 38-row training split cart grows one
    # split, which its five pruned levels remove, so the cart pin covers the
    # fit-prune-predict path; the oracle tests in test_baselines.py cover
    # its splits.
    PINS = {
        "mean": "a5ca11e5cce99928aea7ac5f3e6278f90c3a550c146ff350047a9aed9280a604",
        "median": "a5ca11e5cce99928aea7ac5f3e6278f90c3a550c146ff350047a9aed9280a604",
        "random": "2b69b7e62e774f5a8bda84d949decd9869c6ae2f909650725b8fc70152a29a01",
        "bow-rf": "9074682dfb006511c679ba1c6ae6c8b9159c495b80bc8838431e2029447c89a8",
        "cart": "a5ca11e5cce99928aea7ac5f3e6278f90c3a550c146ff350047a9aed9280a604",
        "cbr": "cf9c037637627d8f9998bd2b9ebbda645070e217947caa7755110017345a31ca",
    }

    def test_estimates_match_pinned_bytes(self, prepared, tmp_path):
        features = write_feature_table(prepared, tmp_path / "features.csv")
        for model, digest in self.PINS.items():
            out = tmp_path / f"{model}.csv"
            assert run("baseline", "--model", model, "--split-dir", prepared,
                       "--in", prepared / "test.jsonl", "--out", out,
                       "--features", features) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, model


class TestTreeArtifactBytes:
    # sha256 of the three tree baselines' estimates and of the report that
    # compares them. The count columns are seeded draws: with seed 238
    # cart's unpruned tree on the 38 training rows is six levels deep, so
    # its root split outlives the five pruned levels. lstm-rf's checkpoint
    # and document vectors go through BLAS matmuls (float64), and so does
    # every report.csv cell that reads lstm-rf's estimates.
    PINS = {
        "cart.csv": "3e8520b45841f9294073c154a80c967eae3c75cbd7ea3ffb382b1d868968852c",
        "bow-rf.csv": "9074682dfb006511c679ba1c6ae6c8b9159c495b80bc8838431e2029447c89a8",
        "lstm-rf.csv": "c4a35aaabebe14e0b55aaeeeb52d460f40e9e493ea39a3fad8a2c5276af63d85",
        "report.csv": "29770149b0ed4ced521c405d88ab05eb2ca2416664fef9c7aad1fdb1853432fe",
    }

    def test_tree_estimates_and_report_match_pinned_bytes(self, prepared, tmp_path):
        records = [r for name in ("train", "valid", "test")
                   for r in read_corpus(prepared / f"{name}.jsonl")]
        counts = np.random.default_rng(238).integers(0, 6, size=(len(records), 9))
        features = tmp_path / "features.csv"
        with features.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["issue_key", *baselines.COUNT_FIELDS])
            for r, row in zip(records, counts.tolist()):
                writer.writerow([r.issue_key, *row])
        checkpoint = pretrain_checkpoint(prepared, tmp_path)
        models = ("cart", "bow-rf", "lstm-rf")
        for model in models:
            assert run("baseline", "--model", model, "--split-dir", prepared,
                       "--in", prepared / "test.jsonl", "--out", tmp_path / f"{model}.csv",
                       "--features", features, "--checkpoint", checkpoint) == 0
        assert run("evaluate", "--split-dir", prepared,
                   "--estimates", *[f"{m}={tmp_path / (m + '.csv')}" for m in models],
                   "--pairs", "cart:bow-rf,bow-rf:lstm-rf",
                   "--out", tmp_path / "report.csv") == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.PINS}
        assert digests == self.PINS


class TestEvaluateCli:
    def test_pairwise_and_csv_output(self, prepared, tmp_path, capsys):
        est_mean = tmp_path / "mean.csv"
        est_median = tmp_path / "median.csv"
        run("baseline", "--model", "mean", "--split-dir", prepared,
            "--in", prepared / "test.jsonl", "--out", est_mean)
        run("baseline", "--model", "median", "--split-dir", prepared,
            "--in", prepared / "test.jsonl", "--out", est_median)
        report = tmp_path / "report.csv"
        assert run("evaluate", "--split-dir", prepared,
                   "--estimates", f"mean={est_mean}", f"median={est_median}",
                   "--pairs", "mean:median", "--out", report) == 0
        out = capsys.readouterr().out
        assert "mean vs median: p=" in out
        with report.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["model", "mae", "sa", "mre", "pred", "n"]
        assert len(rows) == 4  # header, two models, one pair

    def test_incomplete_estimates_fail(self, prepared, tmp_path, capsys):
        bad = tmp_path / "partial.csv"
        bad.write_text("issue_key,estimate\nSYN-52,3.0\n")
        assert run("evaluate", "--split-dir", prepared,
                   "--estimates", f"bad={bad}") == 1
        assert "lacks estimates" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, line, message", [
        # the probes of a mean baseline's 13 test estimates, edited
        (lambda rows: rows + [f"{rows[1].split(',')[0]},99.0"], 15, "is repeated"),
        (lambda rows: rows[:3] + [rows[3].split(",")[0] + ",nan"] + rows[4:], 4,
         "is not finite"),
        (lambda rows: rows[:3] + [rows[3].split(",")[0] + ",three"] + rows[4:], 4,
         "is not a number"),
        (lambda rows: rows[:3] + [rows[3].split(",")[0]] + rows[4:], 4, "is not a number"),
        (lambda rows: rows[:3] + [rows[3] + ",junk"] + rows[4:], 4,
         "more than the header's 2 cells"),
        (lambda rows: rows[:5] + ["NOT-IN-SPLIT-1,3.0"] + rows[5:], 6,
         "issue_key 'NOT-IN-SPLIT-1' is not in the test split"),
        (lambda rows: ["issue_key,est"] + rows[1:], None, "no estimate column"),
        (lambda rows: ["key,estimate"] + rows[1:], None, "no issue_key column"),
        (lambda rows: [], None, "no issue_key column"),
    ], ids=["duplicate-key", "nan", "unparsable", "short-row", "long-row", "stray-key",
            "no-estimate-column", "no-key-column", "empty"])
    def test_malformed_estimates_are_refused(self, prepared, tmp_path, capsys, edit, line,
                                             message):
        est = tmp_path / "mean.csv"
        assert run("baseline", "--model", "mean", "--split-dir", prepared,
                   "--in", prepared / "test.jsonl", "--out", est) == 0
        rows = est.read_text().splitlines()
        assert len(rows) == 14
        est.write_text("".join(row + "\n" for row in edit(rows)))
        report = tmp_path / "report.csv"
        assert run("evaluate", "--split-dir", prepared, "--estimates", f"mean={est}",
                   "--out", report) == 1
        err = capsys.readouterr().err
        assert message in err and str(est) in err
        assert line is None or f"line {line}:" in err
        assert not report.exists()

    def test_zero_runs_fail(self, prepared, tmp_path, capsys):
        est = tmp_path / "mean.csv"
        run("baseline", "--model", "mean", "--split-dir", prepared,
            "--in", prepared / "test.jsonl", "--out", est)
        report = tmp_path / "report.csv"
        assert run("evaluate", "--split-dir", prepared, "--estimates", f"mean={est}",
                   "--runs", 0, "--out", report) == 1
        assert "runs must be >= 1" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("level", ["-5", "nan"])
    def test_bad_pred_level_fails(self, prepared, tmp_path, capsys, level):
        est = tmp_path / "mean.csv"
        run("baseline", "--model", "mean", "--split-dir", prepared,
            "--in", prepared / "test.jsonl", "--out", est)
        report = tmp_path / "report.csv"
        assert run("evaluate", "--split-dir", prepared, "--estimates", f"mean={est}",
                   "--pred-level", level, "--out", report) == 1
        assert "pred level must be finite and >= 0" in capsys.readouterr().err
        assert not report.exists()

    def test_duplicate_names_fail(self, prepared, tmp_path, capsys):
        est = tmp_path / "mean.csv"
        run("baseline", "--model", "mean", "--split-dir", prepared,
            "--in", prepared / "test.jsonl", "--out", est)
        assert run("evaluate", "--split-dir", prepared,
                   "--estimates", f"a={est}", f"a={est}", "--pairs", "a:a") == 1
        assert "'a' twice" in capsys.readouterr().err


class TestCrossProjectCli:
    def test_writes_errors_and_estimates(self, tmp_path):
        records = load_bundled_corpus()
        for name, chunk in (("a", records[:32]), ("b", records[32:])):
            corpus_path = tmp_path / f"{name}.jsonl"
            write_corpus(chunk, corpus_path)
            assert run("prepare", "--in", corpus_path, "--out-dir", tmp_path / name,
                       "--min-project-size", 0) == 0
        out = tmp_path / "cross"
        assert run("cross-project", "--source-dir", tmp_path / "a",
                   "--target-dir", tmp_path / "b", "--out-dir", out,
                   "--dim", 8, "--depth", 2, "--epochs", 5, "--batch-size", 16) == 0
        with (out / "abs_errors.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7  # 32-issue split leaves 7 test issues
        assert all(float(r["abs_error"]) >= 0 for r in rows)

    def test_trains_on_the_source_split_vocabulary(self, tmp_path):
        # a 20-entry vocabulary, not the one train would build from the text:
        # cross-project reads it as train does, so a checkpoint pre-trained
        # on it loads, and its estimates are those of train, then estimate
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(load_bundled_corpus(), corpus_path)
        split, pre = tmp_path / "split", tmp_path / "pre"
        assert run("prepare", "--in", corpus_path, "--out-dir", split,
                   "--min-project-size", 0, "--vocab-max-size", 20) == 0
        assert run("pretrain", "--corpus", split / "train.jsonl", "--vocab", split / "vocab.txt",
                   "--out-dir", pre, "--dim", 8, "--depth", 1, "--epochs", 1,
                   "--nce-samples", 4) == 0
        flags = ("--pretrained", pre / "pretrain.ckpt", "--dim", 8, "--depth", 1,
                 "--epochs", 3, "--batch-size", 16, "--seed", 5)
        assert run("train", "--split-dir", split, "--out-dir", tmp_path / "model", *flags) == 0
        assert run("estimate", "--checkpoint", tmp_path / "model" / "model.ckpt",
                   "--vocab", split / "vocab.txt", "--in", split / "test.jsonl",
                   "--out", tmp_path / "estimates.csv") == 0
        assert run("cross-project", "--source-dir", split, "--target-dir", split,
                   "--out-dir", tmp_path / "cross", *flags) == 0
        assert ((tmp_path / "cross" / "estimates.csv").read_bytes()
                == (tmp_path / "estimates.csv").read_bytes())

    def test_vocab_flag_as_train_takes_it(self, tmp_path):
        # a 20-entry vocabulary outside the split: cross-project --vocab gives
        # the estimates of train --vocab, then estimate
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(load_bundled_corpus(), corpus_path)
        split, small = tmp_path / "split", tmp_path / "small"
        for out, size in ((split, 50000), (small, 20)):
            assert run("prepare", "--in", corpus_path, "--out-dir", out,
                       "--min-project-size", 0, "--vocab-max-size", size) == 0
        vocab = tmp_path / "vocab.txt"
        vocab.write_bytes((small / "vocab.txt").read_bytes())
        flags = ("--vocab", vocab, "--dim", 8, "--depth", 1, "--epochs", 3,
                 "--batch-size", 16, "--seed", 5)
        assert run("train", "--split-dir", split, "--out-dir", tmp_path / "model", *flags) == 0
        assert (tmp_path / "model" / "vocab.txt").read_bytes() == vocab.read_bytes()
        assert run("estimate", "--checkpoint", tmp_path / "model" / "model.ckpt",
                   "--vocab", vocab, "--in", split / "test.jsonl",
                   "--out", tmp_path / "estimates.csv") == 0
        assert run("cross-project", "--source-dir", split, "--target-dir", split,
                   "--out-dir", tmp_path / "cross", *flags) == 0
        assert ((tmp_path / "cross" / "estimates.csv").read_bytes()
                == (tmp_path / "estimates.csv").read_bytes())


class TestTrainingFlagTable:
    REQUIRED = {
        "train": ("--split-dir", "{split}", "--out-dir", "{out}"),
        "cross-project": ("--source-dir", "{split}", "--target-dir", "{split}",
                          "--out-dir", "{out}"),
        "pretrain": ("--corpus", "{split}/train.jsonl", "--vocab", "{vocab}",
                     "--out-dir", "{out}"),
    }

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_required_flags_alone_give_the_default_config(self, prepared, tmp_path,
                                                          monkeypatch, command):
        name = "PretrainConfig" if command == "pretrain" else "TrainConfig"
        config_class, made = getattr(cli, name), []

        def spy(**kwargs):  # record the config, then stop before any training
            made.append(config_class(**kwargs))
            raise cli.CliError("stopped")

        monkeypatch.setattr(cli, name, spy)
        vocab = tmp_path / "vocab.txt"  # more words than the default noise samples
        save_vocabulary(build_vocabulary([[f"w{i}" for i in range(150)]]), vocab)
        argv = [a.format(split=prepared, vocab=vocab, out=tmp_path / "run")
                for a in self.REQUIRED[command]]
        assert run(command, *argv) == 1
        assert made == [config_class()]

    def test_train_and_cross_project_take_the_same_training_flags(self):
        subcommands = cli.build_parser()._subparsers._group_actions[0].choices

        def flags(command, *own):
            return {opt for action in subcommands[command]._actions
                    for opt in action.option_strings} - set(own)

        assert (flags("train", "--split-dir")
                == flags("cross-project", "--source-dir", "--target-dir"))
        assert {"--vocab", "--pretrained", "--learning-rate", "--seed"} <= flags("train")


class TestHelp:
    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: storypoint {command}")


class TestNoAbbreviations:
    @pytest.mark.parametrize("argv, flag", [
        (["baseline", "--mode", "bow-rf", "--split-dir", "s", "--in", "i", "--out", "o"],
         "--mode"),
        (["train", "--epoch", "3", "--split-dir", "s", "--out-dir", "o"], "--epoch"),
        (["--conf", "c.json", "train", "--split-dir", "s", "--out-dir", "o"], "--conf"),
    ], ids=["baseline-mode", "train-epoch", "config"])
    def test_an_abbreviated_flag_is_a_bad_flag(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_every_benchmark_argv_parses(self, tmp_path, monkeypatch):
        # the argv perfbench/workload.py builds for every workload, timed and
        # smoke sizes, main and probe passes
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        bench = importlib.import_module("run")
        workload = importlib.import_module("workload")
        parser = cli.build_parser()
        argvs = []
        for sizes in (bench.SIZES, bench.SMOKE_SIZES):
            for name, size in sizes.items():
                spec = {"workload": name, "work": str(tmp_path),
                        "baselines": bench.SMOKE_BASELINES,
                        "sizes": {"dim": 50, "depth": 10, "min_project_size": 300, **size}}
                argvs.append(workload._prepare_argv(spec, tmp_path / "split"))
                for probe in (False, True):
                    argvs += [argv for _, argv in workload._stages(
                        spec, tmp_path / "split", tmp_path / "out", probe)]
        assert {argv[0] for argv in argvs} == {"prepare", "train", "estimate", "pretrain",
                                              "baseline", "evaluate"}
        for argv in argvs:
            assert parser.parse_args(argv).command == argv[0]


class TestCsvCells:
    def test_every_numeric_cell_reads_back_as_a_float(self, prepared, tmp_path):
        # every CSV the commands write: curves, estimates, the report and
        # cross-project's absolute errors; only key and name columns are text
        out = tmp_path / "run"
        checkpoint = pretrain_checkpoint(prepared, out)
        assert run("train", "--split-dir", prepared, "--out-dir", out, "--dim", 4,
                   "--depth", 1, "--epochs", 2, "--batch-size", 16,
                   "--pretrained", checkpoint) == 0
        assert run("estimate", "--checkpoint", out / "model.ckpt", "--vocab", out / "vocab.txt",
                   "--in", prepared / "test.jsonl", "--out", out / "lstm.csv") == 0
        for model in ("mean", "bow-rf"):
            assert run("baseline", "--model", model, "--split-dir", prepared,
                       "--in", prepared / "test.jsonl", "--out", out / f"{model}.csv") == 0
        assert run("evaluate", "--split-dir", prepared, "--estimates",
                   *[f"{m}={out / (m + '.csv')}" for m in ("lstm", "mean", "bow-rf")],
                   "--pairs", "lstm:mean,mean:bow-rf", "--out", out / "report.csv") == 0
        assert run("cross-project", "--source-dir", prepared, "--target-dir", prepared,
                   "--out-dir", out / "cross", "--dim", 4, "--depth", 1, "--epochs", 1,
                   "--batch-size", 16) == 0
        written = sorted(out.rglob("*.csv"))
        assert {path.name for path in written} == {
            "pretrain_log.csv", "train_log.csv", "lstm.csv", "mean.csv", "bow-rf.csv",
            "report.csv", "estimates.csv", "abs_errors.csv"}
        cells = 0
        for path in written:
            with path.open(newline="") as fh:
                header, *rows = list(csv.reader(fh))
            assert rows, path.name
            numeric = [i for i, name in enumerate(header) if name not in ("issue_key", "model")]
            for row in rows:
                for i in numeric:
                    if row[i]:  # report.csv leaves mre and pred empty on pair rows
                        float(row[i])
                        cells += 1
        assert cells > 50


class TestClusterWordsCli:
    def test_cluster_file_shape(self, prepared, tmp_path):
        pre_dir = tmp_path / "pre"
        assert run("pretrain", "--corpus", prepared / "train.jsonl",
                   "--vocab", prepared / "vocab.txt", "--out-dir", pre_dir,
                   "--dim", 8, "--depth", 2, "--epochs", 1,
                   "--batch-size", 16, "--nce-samples", 5) == 0
        out = tmp_path / "clusters.txt"
        assert run("cluster-words", "--checkpoint", pre_dir / "pretrain.ckpt",
                   "--vocab", prepared / "vocab.txt", "--top", 15, "--k", 3,
                   "--out", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 15
        clusters = {int(line.split("\t")[1]) for line in lines}
        assert clusters <= {0, 1, 2}
        for top in (-4, 0):  # -4 used to cluster all words but the last two
            bad = tmp_path / f"clusters{top}.txt"
            assert run("cluster-words", "--checkpoint", pre_dir / "pretrain.ckpt",
                       "--vocab", prepared / "vocab.txt", "--top", top, "--k", 3,
                       "--out", bad) == 1
            assert not bad.exists()

    def test_character_tokens_are_escaped_two_fields_a_line(self, tmp_path):
        # "\n" and "\t" are tokens of a character vocabulary
        vocab = build_vocabulary([tokenize("ab c\nd\te\n", "character")], mode="character")
        config = ModelConfig(embedding_dim=4, highway_depth=1)
        params = init_params(len(vocab), config, np.random.default_rng(0))
        checkpoint, vocab_path = tmp_path / "m.ckpt", tmp_path / "vocab.txt"
        save_checkpoint(checkpoint, "model", config, vocab.content_hash(), params.tensors())
        save_vocabulary(vocab, vocab_path)
        out = tmp_path / "clusters.txt"
        assert run("cluster-words", "--checkpoint", checkpoint, "--vocab", vocab_path,
                   "--top", 100, "--k", 2, "--out", out) == 0
        lines = out.read_bytes().decode("utf-8").split("\n")
        assert lines.pop() == ""
        fields = [line.split("\t") for line in lines]
        assert all(len(f) == 2 for f in fields)
        assert [_unescape_token(token) for token, _ in fields] == vocab.tokens[2:]
        assert {"\n", "\t"} <= set(vocab.tokens)


class TestUndecodableInput:
    """A byte that is not UTF-8 in a file a command reads fails the command,
    naming the file and the byte's offset."""

    @pytest.mark.parametrize("reader", ["vocabulary", "corpus", "estimates", "features"])
    def test_names_the_file_and_the_offset(self, prepared, tmp_path, capsys, reader):
        estimates, features = tmp_path / "mean.csv", tmp_path / "features.csv"
        write_feature_table(prepared, features)
        test = ("--split-dir", prepared, "--in", prepared / "test.jsonl")
        assert run("baseline", "--model", "mean", *test, "--out", estimates) == 0
        path, argv = {
            "vocabulary": (prepared / "vocab.txt",
                           ("train", "--split-dir", prepared, "--out-dir", tmp_path / "m",
                            "--dim", 4, "--depth", 1, "--epochs", 1)),
            "corpus": (prepared / "test.jsonl",
                       ("baseline", "--model", "mean", *test, "--out", tmp_path / "x.csv")),
            "estimates": (estimates, ("evaluate", "--split-dir", prepared,
                                      "--estimates", f"mean={estimates}",
                                      "--out", tmp_path / "report.csv")),
            "features": (features, ("baseline", "--model", "cart", *test,
                                    "--out", tmp_path / "x.csv", "--features", features)),
        }[reader]
        data = path.read_bytes()
        offset = data.index(b"\n") + 3  # inside the second line
        path.write_bytes(data[:offset] + b"\xff" + data[offset:])
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert f"{path}: not UTF-8 at byte {offset} " in err
        assert "Traceback" not in err


class TestTestSetIsolation:
    def test_train_and_baseline_never_open_test_manifest(self, prepared, tmp_path):
        hidden = prepared / "test.jsonl"
        stash = hidden.read_bytes()
        hidden.unlink()
        try:
            assert run("train", "--split-dir", prepared, "--out-dir", tmp_path / "m",
                       "--dim", 6, "--depth", 2, "--epochs", 2, "--batch-size", 16) == 0
            assert run("baseline", "--model", "mean", "--split-dir", prepared,
                       "--in", prepared / "valid.jsonl",
                       "--out", tmp_path / "v.csv") == 0
        finally:
            hidden.write_bytes(stash)


class TestFullPipelineSmoke:
    def test_bundled_corpus_end_to_end_under_five_minutes(self, tmp_path):
        import time

        start = time.monotonic()
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(load_bundled_corpus(), corpus_path)
        split = tmp_path / "split"
        out = tmp_path / "artifacts"
        assert run("prepare", "--in", corpus_path, "--out-dir", split,
                   "--min-project-size", 0) == 0
        assert run("pretrain", "--corpus", split / "train.jsonl",
                   "--vocab", split / "vocab.txt", "--out-dir", out,
                   "--dim", 10, "--depth", 2, "--epochs", 5, "--batch-size", 16,
                   "--nce-samples", 5) == 0
        assert run("train", "--split-dir", split, "--out-dir", out,
                   "--dim", 10, "--depth", 2, "--epochs", 60, "--batch-size", 16,
                   "--patience", 60, "--pretrained", out / "pretrain.ckpt") == 0
        assert run("estimate", "--checkpoint", out / "model.ckpt",
                   "--vocab", split / "vocab.txt", "--in", split / "test.jsonl",
                   "--out", out / "net.csv") == 0
        for model in ("mean", "median", "random"):
            assert run("baseline", "--model", model, "--split-dir", split,
                       "--in", split / "test.jsonl",
                       "--out", out / f"{model}.csv") == 0
        assert run("baseline", "--model", "lstm-rf", "--split-dir", split,
                   "--in", split / "test.jsonl", "--out", out / "lstmrf.csv",
                   "--checkpoint", out / "pretrain.ckpt") == 0
        assert run("baseline", "--model", "bow-rf", "--split-dir", split,
                   "--in", split / "test.jsonl", "--out", out / "bowrf.csv") == 0
        assert run("evaluate", "--split-dir", split, "--estimates",
                   f"net={out / 'net.csv'}", f"mean={out / 'mean.csv'}",
                   f"median={out / 'median.csv'}", f"random={out / 'random.csv'}",
                   f"lstm-rf={out / 'lstmrf.csv'}", f"bow-rf={out / 'bowrf.csv'}",
                   "--pairs", "net:mean,net:median,net:random",
                   "--out", out / "report.csv") == 0
        assert run("cluster-words", "--checkpoint", out / "pretrain.ckpt",
                   "--vocab", split / "vocab.txt", "--top", 20, "--k", 4,
                   "--out", out / "clusters.txt") == 0
        assert time.monotonic() - start < 300


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, prepared, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dim": 6, "depth": 2, "epochs": 2,
                                      "batch-size": 16, "seed": 3}))
        d1 = tmp_path / "from-config"
        assert run("--config", config, "train", "--split-dir", prepared,
                   "--out-dir", d1) == 0
        from storypoint.model import load_checkpoint

        assert load_checkpoint(d1 / "model.ckpt").config.embedding_dim == 6
        d2 = tmp_path / "flag-wins"
        assert run("--config", config, "train", "--split-dir", prepared,
                   "--out-dir", d2, "--dim", 7) == 0
        assert load_checkpoint(d2 / "model.ckpt").config.embedding_dim == 7

    def test_config_supplies_a_required_flag(self, prepared, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": "mean"}))
        est = tmp_path / "mean.csv"
        assert run("--config", config, "baseline", "--split-dir", prepared,
                   "--in", prepared / "test.jsonl", "--out", est) == 0
        flagged = tmp_path / "flagged.csv"
        assert run("baseline", "--model", "mean", "--split-dir", prepared,
                   "--in", prepared / "test.jsonl", "--out", flagged) == 0
        assert est.read_bytes() == flagged.read_bytes()

    def test_required_flag_still_required_without_a_config_value(self, prepared, tmp_path,
                                                                 capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 3}))
        with pytest.raises(SystemExit) as exc:
            run("--config", config, "baseline", "--split-dir", prepared,
                "--in", prepared / "test.jsonl", "--out", tmp_path / "x.csv")
        assert exc.value.code == 2
        assert "--model" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, other", [("model", ("--out", "x.csv")),
                                             ("out", ("--model", "mean"))])
    def test_null_leaves_a_required_flag_required(self, prepared, tmp_path, capsys, flag,
                                                  other):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({flag: None}))
        with pytest.raises(SystemExit) as exc:
            run("--config", config, "baseline", "--split-dir", prepared,
                "--in", prepared / "test.jsonl", *other)
        assert exc.value.code == 2
        assert f"--{flag}" in capsys.readouterr().err

    def test_null_is_taken_by_a_flag_that_defaults_to_none(self, prepared, tmp_path):
        # an explicit flag also wins over a null
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"vocab": None, "pretrained": None, "seed": None}))
        assert run("--config", config, "train", "--split-dir", prepared,
                   "--out-dir", tmp_path / "m", "--dim", 6, "--depth", 2, "--epochs", 1,
                   "--seed", 3) == 0

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        for content in (b"{not json", b'{"seed": "\xff"}'):  # broken JSON, then not UTF-8
            config.write_bytes(content)
            with pytest.raises(SystemExit) as exc:
                run("--config", config, "prepare", "--in", "x", "--out-dir", "y")
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "cannot read config file: " in err and str(config) in err

    @pytest.mark.parametrize("content, message", [
        ("[1, 2]", "must hold a JSON object, not list"),
        ('{"epochs": 1.5}', "argument --epochs: invalid int value: '1.5'"),
        ('{"seed": null}', "argument --seed: null in the config file"),
        ('{"epochs": null}', "argument --epochs: null in the config file"),
        ('{"epochs": 1, "epochs": 2}', "config file key 'epochs' names --epochs a second time"),
        ('{"batch-size": 1, "batch_size": 2}',
         "config file key 'batch_size' names --batch-size a second time"),
        ('{"dim": [6]}', "config file key 'dim': --dim takes no list"),
        ('{"seed": {"value": 3}}', "config file key 'seed': --seed takes no object"),
    ])
    def test_malformed_config_exits_2(self, prepared, tmp_path, capsys, content, message):
        config = tmp_path / "config.json"
        config.write_text(content)
        with pytest.raises(SystemExit) as exc:
            run("--config", config, "train", "--split-dir", prepared,
                "--out-dir", tmp_path / "m")
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        ('{"mode": "bogus"}', "argument --mode: invalid choice: 'bogus'"),
        ('{"mode": null}', "argument --mode: null in the config file"),
    ])
    def test_malformed_mode_on_prepare_exits_2(self, tmp_path, capsys, content, message):
        config = tmp_path / "config.json"
        config.write_text(content)
        with pytest.raises(SystemExit) as exc:
            run("--config", config, "prepare", "--in", tmp_path / "c.jsonl",
                "--out-dir", tmp_path / "o")
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_keys_are_flag_names_with_dashes_or_underscores(self, tmp_path):
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(load_bundled_corpus(), corpus_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"in": str(corpus_path), "out-dir": str(tmp_path / "a"),
                                      "min_project_size": 0}))
        assert run("--config", config, "prepare") == 0
        assert run("prepare", "--in", corpus_path, "--out-dir", tmp_path / "b",
                   "--min-project-size", 0) == 0
        for name in ("vocab.txt", "stats.json", "train.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("command, overrides", [
        ("prepare", {"input": "c.jsonl"}),
        ("prepare", {"min-project-sise": 0}),
        ("train", {"mode": "word"}),
    ])
    def test_key_that_names_no_flag_exits_2(self, tmp_path, capsys, command, overrides):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(overrides))
        argv = {"prepare": ("--in", "c.jsonl", "--out-dir", "o"),
                "train": ("--split-dir", "s", "--out-dir", "o")}[command]
        with pytest.raises(SystemExit) as exc:
            run("--config", config, command, *argv)
        assert exc.value.code == 2
        key, = overrides
        assert f"config file key {key!r} names no flag of {command}" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("overrides, message", [
        ({"pairs": ["mean:mean"]}, "config file key 'pairs': --pairs takes no list"),
        ({"estimates": [None]}, "config file key 'estimates': --estimates takes no null"),
        ({"estimates": [["mean=x.csv"]]},
         "config file key 'estimates': --estimates takes no list"),
    ], ids=["list-for-pairs", "null-entry", "list-entry"])
    def test_evaluate_refuses_a_value_its_flag_cannot_take(self, prepared, tmp_path, capsys,
                                                           overrides, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"estimates": ["mean=x.csv"], **overrides}))
        with pytest.raises(SystemExit) as exc:
            run("--config", config, "evaluate", "--split-dir", prepared)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_a_string_is_one_estimates_entry(self, prepared, tmp_path):
        # and one --estimates=value token, so its leading dash is no flag
        est = tmp_path / "mean.csv"
        assert run("baseline", "--model", "mean", "--split-dir", prepared,
                   "--in", prepared / "test.jsonl", "--out", est) == 0
        config = tmp_path / "config.json"
        reports = [tmp_path / "string.csv", tmp_path / "flagged.csv", tmp_path / "list.csv"]
        config.write_text(json.dumps({"estimates": f"-m={est}", "runs": 10}))
        assert run("--config", config, "evaluate", "--split-dir", prepared,
                   "--out", reports[0]) == 0
        assert run("evaluate", "--split-dir", prepared, f"--estimates=-m={est}",
                   "--runs", 10, "--out", reports[1]) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()
        config.write_text(json.dumps({"estimates": [f"m={est}", f"n={est}"], "runs": 10}))
        assert run("--config", config, "evaluate", "--split-dir", prepared,
                   "--out", reports[2]) == 0
        assert [row[0] for row in csv.reader(reports[2].open())] == ["model", "m", "n"]


def _config_text(pairs) -> bytes:
    """A JSON object of (key, JSON text of the value) pairs, in order."""
    return ("{" + ", ".join(f"{json.dumps(key)}: {value}" for key, value in pairs)
            + "}").encode()


def _config_mutants(pairs, path, seed):
    """(bytes, must_exit_2, names) mutants of the config `pairs` at `path`,
    drawn from `seed`; an error must name one of `names`. The config reader
    refuses the first kind itself: a truncation, a flag named twice, a list
    or an object for a single-valued flag, a byte that is not UTF-8, an
    empty file. It passes the second kind on as flags: null, true, NaN,
    Infinity, 1e400."""
    rng = np.random.default_rng(seed)
    valid = _config_text(pairs)

    def draw(items):
        return items[int(rng.integers(len(items)))]

    def spellings(key):
        return [key, key.replace("-", "_"), "--" + key]

    def replaced(text):
        at = int(rng.integers(len(pairs)))
        key, old = pairs[at]
        value = text.format(old)
        return (_config_text(pairs[:at] + [(key, value)] + pairs[at + 1:]), value,
                spellings(key))

    cut, byte = int(rng.integers(1, len(valid))), int(rng.integers(len(valid) + 1))
    key, value = draw(pairs)
    other, value_of_other = draw([(k, v) for k, v in pairs if "-" in k])
    mutants = [(valid[:cut], True, [str(path)]),
               (_config_text(pairs + [(key, value)]), True, spellings(key)),
               (_config_text(pairs + [(other.replace("-", "_"), value_of_other)]), True,
                spellings(other)),
               (valid[:byte] + b"\xff" + valid[byte:], True, [str(path)]),
               (b"", True, [str(path)])]
    for shape in ("[{}]", '{{"value": {}}}'):
        content, _, names = replaced(shape)
        mutants.append((content, True, names))
    for literal in ("null", "true", "NaN", "Infinity", "1e400"):
        content, value, names = replaced(literal)
        mutants.append((content, False, names + [value]))
    return mutants


class TestConfigMutations:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_mutated_config_fails_loudly_or_works(self, prepared, tmp_path, capsys,
                                                   monkeypatch, seed):
        # main returns 0 or 1 or exits 2 and raises nothing else; the error
        # line names the config file, the key or the value as written
        monkeypatch.chdir(tmp_path)  # a mutated --out-dir lands here
        pairs = [("split-dir", json.dumps(str(prepared))), ("out-dir", '"m"'),
                 ("dim", "4"), ("depth", "1"), ("epochs", "1"), ("batch-size", "16"),
                 ("learning-rate", "0.01"), ("seed", "3")]
        config = tmp_path / "config.json"
        for content, must_exit_2, names in _config_mutants(pairs, config, seed):
            config.write_bytes(content)
            try:
                code = run("--config", config, "train")
            except SystemExit as exc:
                code = exc.code
            err = capsys.readouterr().err
            assert code in ((2,) if must_exit_2 else (0, 1, 2)), (content, code, err)
            if code != 0:
                line = err.strip().splitlines()[-1]
                assert "error: " in line and any(n in line for n in names), (content, err)
