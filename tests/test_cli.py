import collections
import hashlib
import json
import logging
import math
import re
import struct
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import iurkit.cli as cli_module
import iurkit.rewrite as rewrite_module
import iurkit.supervision as supervision_module
from iurkit import scoring
from iurkit.cli import RunConfig, _prepare, main
from iurkit.datamodel import DataFormat, load_dialogues
from iurkit.querygen import PronounLexicon, read_conllu
from iurkit.rewrite import rewrite, rewrite_batch, train_em
from iurkit.scoring import (CHUNK_TOKENS, _token_chunks, build_vocab, encode,
                            grad, init_model, load_model, read_ctxvec, save_model,
                            with_imported_vectors, write_ctxvec)
from iurkit.supervision import OPS, EditMatrix, diff_spans
from synthetic import lengthen, make_corpus, write_corpus_files

# cuts the 10 dialogues of ``corpus_dir`` (155 input tokens) into several chunks
SMALL_BUDGET = 64

@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    examples = make_corpus(10, seed=21)
    write_corpus_files(examples, root / "data.jsonl", root / "parses.conllu",
                       root / "lexicon.txt")
    (root / "config.ini").write_text(
        "# toy run\n"
        f"data = {root / 'data.jsonl'}\n"
        f"lexicon = {root / 'lexicon.txt'}\n"
        f"parses = {root / 'parses.conllu'}\n"
        f"model = {root / 'model.bin'}\n"
        f"out = {root / 'out'}\n"
        "lang = en\n"
        "d_model = 8\n"
        "d_head = 4\n"
        "lr = 0.001\n"
        "batch_size = 4\n"
        "epochs = 40\n"
        "seed = 5\n")
    return root


@pytest.fixture(scope="module")
def trained(corpus_dir):
    assert main(["train", "--config", str(corpus_dir / "config.ini")]) == 0
    return corpus_dir / "model.bin"


class TestRunConfig:
    def test_file_parsing_and_types(self, corpus_dir):
        cfg = RunConfig.from_file(corpus_dir / "config.ini")
        assert cfg.lang == "en"
        assert cfg.d_model == 8 and isinstance(cfg.d_model, int)
        assert cfg.lr == pytest.approx(1e-3)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        for key in ("nonsense", "beta1", "beta2", "eps"):
            p.write_text(f"{key} = 1\n")
            with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
                RunConfig.from_file(p)

    def test_missing_equals_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("just a line\n")
        with pytest.raises(ValueError, match="line 1"):
            RunConfig.from_file(p)

    def test_bool_coercion(self):
        cfg = RunConfig()
        cfg.set("mixer", "yes")
        assert cfg.mixer is True
        cfg.set("mixer", "0")
        assert cfg.mixer is False

    def test_comments_and_quotes(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text('lang = "zh"  # chinese\n\n')
        cfg = RunConfig.from_file(p)
        assert cfg.lang == "zh"

    @pytest.mark.parametrize("line", ['data = "runs/my #1/d.jsonl"', """lang = 'zh\""""],
                             ids=["cut-by-comment", "mismatched"])
    def test_unmatched_quote_names_file_line_and_key(self, line, tmp_path, capsys):
        """A value that starts or ends with a quote mark is one matching
        pair around the rest, or an error: no quote mark is dropped alone."""
        p = tmp_path / "c.ini"
        p.write_text(f"# run\n{line}  # comment\n")
        key = line.split()[0]
        with pytest.raises(ValueError, match=f"line 2: config key '{key}': unmatched quote"):
            RunConfig.from_file(p)
        assert main(["make-query", "--config", str(p)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {p}: line 2: config key '{key}': unmatched quote in ")

    def test_matching_quotes_are_one_pair(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("""data = "bob's file.jsonl"\nlexicon = ''\n""")
        cfg = RunConfig.from_file(p)
        assert (cfg.data, cfg.lexicon) == ("bob's file.jsonl", "")

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        """A ``#`` starts a comment only at the start of a line or after
        whitespace, so a path that holds one is read whole."""
        p = tmp_path / "c.ini"
        p.write_text("#run\ndata = runs/odd#dir/d.jsonl\t# the data\n")
        assert RunConfig.from_file(p).data == "runs/odd#dir/d.jsonl"

    def test_hash_path_from_file_reads_the_file(self, tmp_path, capsys):
        (tmp_path / "odd#dir").mkdir()
        data = tmp_path / "odd#dir" / "d.jsonl"
        data.write_text('{"history": ["tom came"], "incomplete": "he left"}\n')
        (tmp_path / "c.ini").write_text(f"data = {data}\nlang = en\n")
        assert main(["make-query", "--config", str(tmp_path / "c.ini")]) == 0
        assert capsys.readouterr().err == ""

    def test_readme_keys_are_the_config_fields(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        sentence = re.search(r"^Keys: (.*?)\.\s", readme, re.M | re.S).group(1)
        keys = [k.strip() for group in re.findall(r"`([^`]*)`", sentence)
                for k in group.split(",")]
        assert sorted(keys) == sorted(f.name for f in fields(RunConfig))

    def test_readme_states_the_chunk_budget(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        stated = re.findall(r"`CHUNK_TOKENS`\s+\((\d+)\b", readme)
        assert stated and all(int(n) == CHUNK_TOKENS for n in stated)
        assert "INFERENCE_CHUNK" not in readme and "TRAIN_CHUNK_TOKENS" not in readme

    @pytest.mark.parametrize("key, value", [
        ("format", "json"), ("lang", "fr"), ("query_mode", "gld"), ("mixer", "maybe"),
        ("unify", "2"), ("epochs", "x"), ("batch_size", "1.5"), ("lr", "fast"),
        ("lr", "nan"), ("theta", "inf")])
    def test_bad_value_names_key_file_and_line(self, key, value, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(f"# run\n{key} = {value}\n")
        with pytest.raises(ValueError) as exc:
            RunConfig.from_file(p)
        message = str(exc.value)
        assert f"{p}: line 2" in message
        assert repr(key) in message and repr(value) in message

    def test_allowed_values(self):
        cfg = RunConfig()
        for key, value in [("format", "tsv"), ("lang", "zh"), ("query_mode", "gold"),
                           ("mixer", "on"), ("unify", "FALSE")]:
            cfg.set(key, value)
        assert (cfg.format, cfg.lang, cfg.query_mode, cfg.mixer, cfg.unify) == \
            ("tsv", "zh", "gold", True, False)


class TestMakeQuery:
    def test_writes_records(self, corpus_dir, tmp_path):
        out = tmp_path / "queries.jsonl"
        rc = main(["make-query", "--config", str(corpus_dir / "config.ini"),
                   "--out", str(out)])
        assert rc == 0
        recs = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(recs) == 10
        assert all("[UNK]" in r["query"] for r in recs)
        assert {r["kind"] for r in recs} <= {"coref_only", "ellipsis_only"}

    def test_stdout_default(self, corpus_dir, capsys):
        assert main(["make-query", "--config", str(corpus_dir / "config.ini")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10


class TestBuildSupervision:
    def test_report_and_matrices(self, corpus_dir, capsys):
        rc = main(["build-supervision", "--config", str(corpus_dir / "config.ini")])
        assert rc == 0
        assert "full=10" in capsys.readouterr().out
        report = json.loads((corpus_dir / "out" / "report.json").read_text())
        assert report["full"] == 10 and report["failed"] == 0
        matrices = list((corpus_dir / "out" / "matrices").glob("*.json"))
        assert len(matrices) == 10

    def test_partial_example_counted(self, tmp_path, capsys):
        # a novel word appended to one rewrite cannot be copied from history
        examples = make_corpus(4, seed=21)
        write_corpus_files(examples, tmp_path / "d.jsonl", tmp_path / "p.conllu",
                           tmp_path / "lex.txt")
        recs = [json.loads(l) for l in (tmp_path / "d.jsonl").read_text().splitlines()]
        recs[0]["rewritten"] += " novelword"
        (tmp_path / "d.jsonl").write_text("".join(json.dumps(r) + "\n" for r in recs))
        (tmp_path / "c.ini").write_text(
            f"data = {tmp_path / 'd.jsonl'}\nparses = {tmp_path / 'p.conllu'}\n"
            f"lexicon = {tmp_path / 'lex.txt'}\nout = {tmp_path / 'out'}\nlang = en\n")
        assert main(["build-supervision", "--config", str(tmp_path / "c.ini")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert (report["full"], report["partial"], report["failed"]) == (3, 1, 0)
        assert report["examples"][0]["skipped_spans"] == ["novelword"]

    def test_missing_gold_is_user_error(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        data.write_text('{"history":["a b"],"incomplete":"c d","lang":"en"}\n')
        rc = main(["build-supervision", "--data", str(data),
                   "--out", str(tmp_path / "out")])
        assert rc == 1

    @pytest.mark.parametrize("bad", ["", ".", "..", "../escaped", "a\\b", "a\0b"])
    def test_id_that_is_no_file_name_writes_nothing(self, bad, corpus_dir, tmp_path,
                                                     capsys):
        recs = [json.loads(l) for l in (corpus_dir / "data.jsonl").read_text().splitlines()]
        recs[1]["id"] = bad
        data = tmp_path / "d.jsonl"
        data.write_text("".join(json.dumps(r) + "\n" for r in recs))
        out = tmp_path / "out"
        assert main(["build-supervision", "--config", str(corpus_dir / "config.ini"),
                     "--data", str(data), "--out", str(out)]) == 1
        assert f"example {bad!r}: id cannot be a file name" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl"]


class TestTrain:
    def test_outputs_model_and_log(self, trained, capsys):
        assert trained.exists()
        log = json.loads((trained.parent / "model.bin.log.json").read_text())
        assert sorted(log) == ["dev_em", "epoch_losses", "start_epoch"]
        assert log["dev_em"] == []
        assert len(log["epoch_losses"]) == 40
        assert log["epoch_losses"][-1] < log["epoch_losses"][0]

    def test_byte_identical_across_runs(self, corpus_dir, trained, tmp_path):
        other = tmp_path / "again.bin"
        rc = main(["train", "--config", str(corpus_dir / "config.ini"),
                   "--model", str(other)])
        assert rc == 0
        assert other.read_bytes() == trained.read_bytes()

    def test_resume_matches_straight_run(self, corpus_dir, trained, tmp_path):
        cfgf = str(corpus_dir / "config.ini")
        part = tmp_path / "part.bin"
        assert main(["train", "--config", cfgf, "--model", str(part),
                     "--epochs", "15"]) == 0
        assert main(["train", "--config", cfgf, "--model", str(part),
                     "--epochs", "40", "--resume"]) == 0
        assert part.read_bytes() == trained.read_bytes()

    def test_resume_without_checkpoint_state(self, corpus_dir, tmp_path):
        missing = tmp_path / "nope.bin"
        rc = main(["train", "--config", str(corpus_dir / "config.ini"),
                   "--model", str(missing), "--resume"])
        assert rc == 1


def _sha256(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


class TestGoldQueryMode:
    """``query_mode = gold`` end to end. The lexicon lacks 'this' and 'that',
    so coreference slots of those examples come only from the gold rewrite.
    The digests pin the outputs of the earlier, loop-built templates."""

    DIGESTS = {
        "supervision": "cdafb10c21c6272668cb0c152f366811bbc8d365cb91aa9fe7f81af59e132b6a",
        "model": "616f3397f7b15a729d9ab83403d9653186edc6e1a2f69d0f53ab01d5f9082e27",
        "query --unify": "c4ab38515ced4ee2b630ff617586310700e453fd7ce0a03d79afce5f964a4ea0",
        "query --no-unify": "0b57dc508c09620fe7fe35468249f98a0ff5b49b7d945394ec8f94a5dd89b674"}

    @staticmethod
    def write_run(tmp_path) -> Path:
        """The corpus, lexicon and config the digests were recorded from."""
        examples = make_corpus(40, seed=5)
        write_corpus_files(examples, tmp_path / "data.jsonl", tmp_path / "parses.conllu")
        (tmp_path / "lexicon.txt").write_text("he\nshe\nit\nthey\n", encoding="utf-8")
        cfg = tmp_path / "gold.ini"
        cfg.write_text(f"data = {tmp_path / 'data.jsonl'}\n"
                       f"parses = {tmp_path / 'parses.conllu'}\n"
                       f"lexicon = {tmp_path / 'lexicon.txt'}\n"
                       f"model = {tmp_path / 'model.bin'}\n"
                       f"out = {tmp_path / 'out'}\n"
                       "query_mode = gold\nd_model = 8\nd_head = 4\nlr = 0.001\n"
                       "batch_size = 4\nepochs = 1\nseed = 3\n")
        return cfg

    def test_outputs_match_recorded_digests(self, tmp_path):
        common = ["--config", str(self.write_run(tmp_path))]
        assert main(["build-supervision", *common]) == 0
        assert main(["train", *common]) == 0
        for flag in ("--unify", "--no-unify"):
            assert main(["make-query", *common, flag,
                         "--out", str(tmp_path / f"query{flag}.jsonl")]) == 0
        out = tmp_path / "out"
        matrices = sorted((out / "matrices").iterdir(), key=lambda p: int(p.stem))
        digests = {"supervision": _sha256(out / "report.json", *matrices),
                   "model": _sha256(tmp_path / "model.bin", tmp_path / "model.bin.log.json"),
                   "query --unify": _sha256(tmp_path / "query--unify.jsonl"),
                   "query --no-unify": _sha256(tmp_path / "query--no-unify.jsonl")}
        assert digests == self.DIGESTS

    def test_train_never_decodes_gold(self, tmp_path, monkeypatch):
        """Neither ``iurkit build-supervision`` nor ``iurkit train`` decodes
        a gold matrix; the supervision and model are the recorded ones."""
        def spans(*args):
            raise AssertionError("a gold matrix was decoded")

        monkeypatch.setattr(rewrite_module, "_spans", spans)
        cfg = self.write_run(tmp_path)
        assert main(["build-supervision", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        matrices = sorted((out / "matrices").iterdir(), key=lambda p: int(p.stem))
        assert _sha256(out / "report.json", *matrices) == self.DIGESTS["supervision"]
        assert main(["train", "--config", str(cfg)]) == 0
        assert _sha256(tmp_path / "model.bin", tmp_path / "model.bin.log.json") == \
            self.DIGESTS["model"]
        assert main(["train", "--config", str(cfg), "--epochs", "2", "--resume"]) == 0
        with pytest.raises(AssertionError, match="decoded"):  # the stand-in is live
            rewrite_module.cells_to_spans(EditMatrix.from_cells(1, 1, []))

    def test_each_example_is_diffed_once(self, tmp_path, monkeypatch):
        """The gold slots of the query and the gold matrix share one
        ``diff_spans`` of each example; the supervision is the recorded one."""
        calls = []

        def counted(incomplete, rewritten):
            calls.append(incomplete)
            return diff_spans(incomplete, rewritten)

        monkeypatch.setattr(cli_module, "diff_spans", counted)
        monkeypatch.setattr(supervision_module, "diff_spans", counted)
        assert main(["build-supervision", "--config", str(self.write_run(tmp_path))]) == 0
        assert len(calls) == 40
        out = tmp_path / "out"
        matrices = sorted((out / "matrices").iterdir(), key=lambda p: int(p.stem))
        assert _sha256(out / "report.json", *matrices) == self.DIGESTS["supervision"]


def test_mixer_training_on_mixed_lengths_matches_recorded_digest(tmp_path):
    """``iurkit train`` with a mixer on short and ~210-token dialogues, so
    that batches outgrow one token-bounded pass. The digest pins the model
    of the earlier one-example-per-pass training loop."""
    rng = np.random.default_rng(9)
    examples = [lengthen(e, rng) if i % 2 else e
                for i, e in enumerate(make_corpus(16, seed=13))]
    write_corpus_files(examples, tmp_path / "data.jsonl", tmp_path / "parses.conllu",
                       tmp_path / "lexicon.txt")
    cfg = tmp_path / "mixer.ini"
    cfg.write_text(f"data = {tmp_path / 'data.jsonl'}\n"
                   f"parses = {tmp_path / 'parses.conllu'}\n"
                   f"lexicon = {tmp_path / 'lexicon.txt'}\n"
                   f"model = {tmp_path / 'model.bin'}\n"
                   "mixer = true\nd_model = 16\nd_head = 8\nlr = 0.001\n"
                   "batch_size = 8\nepochs = 3\nseed = 2\n")
    assert main(["train", "--config", str(cfg)]) == 0
    assert _sha256(tmp_path / "model.bin", tmp_path / "model.bin.log.json") == \
        "5af8f519f4d42dd6854c4a255fa40ea422177d81aab07932235dc92cf12e3c56"


class TestRewrite:
    def test_writes_jsonl(self, corpus_dir, trained, tmp_path):
        out = tmp_path / "hyp.jsonl"
        rc = main(["rewrite", "--config", str(corpus_dir / "config.ini"),
                   "--out", str(out)])
        assert rc == 0
        recs = [json.loads(l) for l in out.read_text().splitlines()]
        assert [r["id"] for r in recs] == [str(i) for i in range(10)]
        assert all(r["rewritten"] for r in recs)

    def test_missing_model_is_user_error(self, corpus_dir):
        rc = main(["rewrite", "--config", str(corpus_dir / "config.ini"),
                   "--model", "/no/such/model.bin"])
        assert rc == 1


@pytest.mark.parametrize("command", [["rewrite"], ["inspect-matrix", "bad"]])
def test_record_error_names_example(command, corpus_dir, trained, tmp_path, capsys):
    # a 4-token parse for a 2-token incomplete utterance
    (tmp_path / "bad.jsonl").write_text(json.dumps(
        {"history": ["word001 word002"], "incomplete": "word003 word004",
         "lang": "en", "id": "bad"}) + "\n")
    (tmp_path / "bad.conllu").write_text(
        "".join(f"{i}\tw{i}\t{int(i > 1)}\tdep\n" for i in range(1, 5)) + "\n")
    cfg = tmp_path / "bad.ini"
    cfg.write_text((corpus_dir / "config.ini").read_text()
                   + f"data = {tmp_path / 'bad.jsonl'}\n"
                   + f"parses = {tmp_path / 'bad.conllu'}\n")
    assert main([*command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "example 'bad'" in err and "parse length 4" in err


@pytest.mark.parametrize("command", ["make-query", "train", "build-supervision"])
def test_no_pronoun_and_no_parse_names_example(command, tmp_path, capsys):
    """Every command that builds queries names the record whose query
    cannot be built, and writes nothing."""
    (tmp_path / "d.jsonl").write_text("".join(json.dumps(rec) + "\n" for rec in [
        {"history": ["tom came"], "incomplete": "he left", "rewritten": "tom left"},
        {"history": ["tom came"], "incomplete": "then left",
         "rewritten": "then tom left", "id": "k"}]))
    out = tmp_path / "out"
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"data = {tmp_path / 'd.jsonl'}\nmodel = {tmp_path / 'm.bin'}\n"
                   f"out = {out}\nlang = en\n")
    flags = ["--out", str(out)] if command == "make-query" else []
    assert main([command, "--config", str(cfg), *flags]) == 1
    assert capsys.readouterr().err.startswith("error: example 'k': no pronoun matched")
    assert not out.exists() and not (tmp_path / "m.bin").exists()


def _config_with_parses(corpus_dir, tmp_path, blocks):
    (tmp_path / "p.conllu").write_text("".join(b + "\n\n" for b in blocks))
    cfg = tmp_path / "p.ini"
    cfg.write_text((corpus_dir / "config.ini").read_text()
                   + f"parses = {tmp_path / 'p.conllu'}\n")
    return cfg


def _parse_blocks(corpus_dir):
    return (corpus_dir / "parses.conllu").read_text().strip().split("\n\n")


class TestParsesFile:
    @pytest.mark.parametrize("command", ["make-query", "rewrite", "build-supervision"])
    def test_two_roots_names_file_and_sentence(self, command, corpus_dir, trained,
                                               tmp_path, capsys):
        blocks = _parse_blocks(corpus_dir)
        blocks[1] = "1\tx\t0\troot\n2\ty\t0\troot"
        cfg = _config_with_parses(corpus_dir, tmp_path, blocks)
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'p.conllu'}: sentence 2: parse must have exactly one root" in err

    @pytest.mark.parametrize("count", [9, 11])
    @pytest.mark.parametrize("command", ["make-query", "rewrite", "train"])
    def test_count_mismatch_names_counts_and_file(self, command, count, corpus_dir,
                                                  trained, tmp_path, capsys):
        blocks = _parse_blocks(corpus_dir)
        blocks = (blocks * 2)[:count]
        cfg = _config_with_parses(corpus_dir, tmp_path, blocks)
        args = [command, "--config", str(cfg)]
        if command == "train":
            args += ["--model", str(tmp_path / "m.bin")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'p.conllu'}: {count} parse sentences for 10 dialogues" in err

    @pytest.mark.parametrize("command", ["make-query", "rewrite"])
    def test_form_mismatch_names_example(self, command, corpus_dir, trained,
                                         tmp_path, capsys):
        (tmp_path / "d.jsonl").write_text(json.dumps(
            {"history": ["word001 word002"], "incomplete": "word003 word004",
             "lang": "en", "id": "odd"}) + "\n")
        cfg = _config_with_parses(corpus_dir, tmp_path,
                                  ["1\tword003\t0\troot\n2\tword005\t1\tdep"])
        cfg.write_text(cfg.read_text() + f"data = {tmp_path / 'd.jsonl'}\n")
        out = tmp_path / "out.jsonl"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "example 'odd'" in err
        assert "parse form 'word005' at token 1 does not match utterance token 'word004'" in err
        assert not out.exists()  # a failed record leaves no partial output


class TestEvaluate:
    def test_identical_files(self, tmp_path, capsys):
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("a b c\nd e\n")
        ref.write_text("a b c\nd e\n")
        rc = main(["evaluate", str(hyp), str(ref), "--json"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["em"] == 1.0
        assert obj["bleu"]["4"] == pytest.approx(100.0)

    def test_table_output(self, tmp_path, capsys):
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("a b\n")
        ref.write_text("a c\n")
        assert main(["evaluate", str(hyp), str(ref)]) == 0
        out = capsys.readouterr().out
        assert "EM" in out and "ROUGE-L" in out

    def test_length_mismatch(self, tmp_path):
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("a\nb\n")
        ref.write_text("a\n")
        assert main(["evaluate", str(hyp), str(ref)]) == 1

    @pytest.mark.parametrize("brk", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"])
    def test_lines_break_at_newline_only(self, brk, tmp_path, capsys):
        """A line break other than "\\n" inside a line does not start
        another line (once "line counts differ: 2 vs 1")."""
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text(f"x{brk}y z\n", encoding="utf-8")
        ref.write_text("x y z\n", encoding="utf-8")
        assert main(["evaluate", str(hyp), str(ref), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["em"] == 1.0


def _evaluate_em(path, capsys):
    """EM of ``path`` as hypothesis against a reference without a BOM."""
    ref = path.with_name("ref.txt")
    ref.write_text("hello world\n", encoding="utf-8")
    assert main(["evaluate", str(path), str(ref), "--json"]) == 0
    return json.loads(capsys.readouterr().out)["em"]


# reader -> (file text, how it is read, what it reads)
BOM_READERS = {
    "lexicon": ("he\nshe\n", lambda p, _: PronounLexicon.from_file(p).entries,
                (("he",), ("she",))),
    "tsv": ("hi there\the said\tthey said\n",
            lambda p, _: load_dialogues(p, DataFormat.TAB_SEPARATED)[0].history[0].tokens,
            ("hi", "there")),
    "jsonl": ('{"history": ["hi"], "incomplete": "he said"}\n',
              lambda p, _: load_dialogues(p, DataFormat.CANONICAL_JSONL)[0].history[0].tokens,
              ("hi",)),
    "conllu": ("1\the\t2\tnsubj\n2\tsaid\t0\troot\n",
               lambda p, _: read_conllu(p)[0].forms, ("he", "said")),
    "config": ("theta = 0.3\n", lambda p, _: RunConfig.from_file(p).theta, 0.3),
    "evaluate": ("hello world\n", _evaluate_em, 1.0),
}


@pytest.mark.parametrize("bom", [False, True], ids=["plain", "bom"])
@pytest.mark.parametrize("reader", list(BOM_READERS))
def test_leading_bom_is_ignored(reader, bom, tmp_path, capsys):
    """Every text reader reads a file the same with or without one leading
    UTF-8 byte-order mark."""
    text, read, want = BOM_READERS[reader]
    path = tmp_path / "input.txt"
    path.write_text("\ufeff" * bom + text, encoding="utf-8")
    assert read(path, capsys) == want


class TestInspectMatrix:
    def test_json_diagnostics(self, corpus_dir, trained, capsys):
        rc = main(["inspect-matrix", "3",
                   "--config", str(corpus_dir / "config.ini")])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert "grids" in obj and set(obj["grids"]) == {"S", "I"}
        assert obj["matrix"] is not None

    def test_grid_and_score_numbers_round_trip(self, corpus_dir, trained, capsys):
        """Grid cells and span scores are written as JSON numbers, never as
        strings, and parse back to exactly the float64 that rewrite scored."""
        cfg = RunConfig.from_file(corpus_dir / "config.ini")
        lexicon, inputs = cfg.load_inputs()
        model, _ = load_model(trained)
        n_spans = 0
        for dlg, parse in inputs:
            _, diag = rewrite(dlg, model, cfg.theta, lexicon, parse)
            assert main(["inspect-matrix", dlg.example_id,
                         "--config", str(corpus_dir / "config.ini")]) == 0
            obj = json.loads(capsys.readouterr().out)
            for op, grid in zip(OPS, diag.scores):
                assert all(type(v) is float for row in obj["grids"][op.value] for v in row)
                cells = np.array(obj["grids"][op.value], dtype=np.float64)
                assert np.array_equal(cells, grid)
            assert [s["score"] for s in obj["spans"]] == [s.score for s in diag.spans]
            n_spans += len(diag.spans)
        assert n_spans > 0

    def test_unknown_id(self, corpus_dir, trained):
        rc = main(["inspect-matrix", "no-such-id",
                   "--config", str(corpus_dir / "config.ini")])
        assert rc == 1


class TestChunkDecode:
    """``iurkit rewrite`` decodes each chunk at once and builds no
    diagnostics it discards; the diagnostics read later are those of the
    per-example decoder."""

    # SHA-256 of the output of every test-corpus example in turn, recorded
    # with the per-example decoder (one threshold, ``EditMatrix`` and
    # labeling per example, diagnostics built eagerly)
    DIGESTS = {"inspect-matrix": "14a421cf56d171def04a101014ed50994237ab625972b8545b42731275a0eaaf",
               "to_json": "13d4451a05f574cfd2129c0a1b76f024d6ad70de364b3232afa5b30debe9e396"}

    def test_rewrite_builds_no_matrix_and_labels_once_per_op_per_chunk(
            self, corpus_dir, trained, tmp_path, monkeypatch):
        monkeypatch.setattr(scoring, "CHUNK_TOKENS", SMALL_BUDGET)  # several chunks
        examples, _ = _prepare(RunConfig.from_file(corpus_dir / "config.ini"))
        events, forward, label = [], scoring._forward, rewrite_module._components
        post_init = EditMatrix.__post_init__
        monkeypatch.setattr(EditMatrix, "__post_init__",
                            lambda self: events.append("matrix") or post_init(self))
        monkeypatch.setattr(scoring, "_forward",
                            lambda *a, **kw: events.append("forward") or forward(*a, **kw))
        monkeypatch.setattr(rewrite_module, "_components",
                            lambda *a, **kw: events.append("label") or label(*a, **kw))
        assert main(["rewrite", "--config", str(corpus_dir / "config.ini"),
                     "--out", str(tmp_path / "hyp.jsonl")]) == 0
        assert "matrix" not in events
        per_chunk = [chunk.count("label") for chunk in
                     " ".join(events).split("forward")[1:]]
        assert len(per_chunk) == len(list(_token_chunks(examples, lambda ex: ex.input))) > 1
        assert sum(per_chunk) > 0 and max(per_chunk) <= 2  # two operations

    def test_rewrite_builds_no_score_grid(self, corpus_dir, trained, tmp_path,
                                          monkeypatch):
        """Each input's scores stay one array from scoring to diagnostics."""
        built = []  # every construction, however made, sets ``op``
        monkeypatch.setattr(scoring.ScoreGrid, "__setattr__", lambda grid, name, value:
                            built.append(name) or object.__setattr__(grid, name, value))
        scoring.ScoreGrid(OPS[0], np.zeros((1, 1)))
        assert built.count("op") == 1  # the count sees a construction
        built.clear()
        assert main(["rewrite", "--config", str(corpus_dir / "config.ini"),
                     "--out", str(tmp_path / "hyp.jsonl")]) == 0
        assert built.count("op") == 0

    def test_diagnostics_scores_are_views_of_the_chunk_scores(self, corpus_dir, trained,
                                                              monkeypatch):
        monkeypatch.setattr(scoring, "CHUNK_TOKENS", SMALL_BUDGET)  # several chunks
        cfg = RunConfig.from_file(corpus_dir / "config.ini")
        lexicon, inputs = cfg.load_inputs()
        model, _ = load_model(trained)
        diags = [diag for _, diag in rewrite_batch(inputs, model, cfg.theta, lexicon)]
        first = len(next(_token_chunks([diag.input for diag in diags], lambda inp: inp)))
        assert 1 < first < len(inputs)
        scores = [diag.scores for diag in diags]
        for diag, s in zip(diags, scores, strict=True):
            assert s.dtype == np.float64
            assert s.shape == (len(OPS), diag.input.context_length,
                               diag.input.incomplete_length + 1)
        chunk = scores[0].base  # the first chunk's padded (n_ops, B, R, C) scores
        assert chunk.shape[:2] == (len(OPS), first) and scores[1].base is chunk
        assert np.shares_memory(chunk, scores[0]) and np.shares_memory(chunk, scores[1])
        assert not np.shares_memory(chunk, scores[first])

    def test_diagnostics_match_recorded_digests(self, corpus_dir, trained, capsys):
        cfg = RunConfig.from_file(corpus_dir / "config.ini")
        lexicon, inputs = cfg.load_inputs()
        model, _ = load_model(trained)
        inspect, to_json = hashlib.sha256(), hashlib.sha256()
        for dlg, parse in inputs:
            assert main(["inspect-matrix", dlg.example_id,
                         "--config", str(corpus_dir / "config.ini")]) == 0
            inspect.update(capsys.readouterr().out.encode("utf-8"))
            _, diag = rewrite(dlg, model, cfg.theta, lexicon, parse)
            to_json.update(diag.to_json().encode("utf-8"))
        assert {"inspect-matrix": inspect.hexdigest(),
                "to_json": to_json.hexdigest()} == self.DIGESTS


@pytest.mark.parametrize("key, value", [("format", "json"), ("lang", "fr"),
                                        ("query_mode", "gld"), ("mixer", "maybe"),
                                        ("epochs", "x")])
def test_bad_config_value_is_user_error(key, value, corpus_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text((corpus_dir / "config.ini").read_text() + f"{key} = {value}\n")
    assert main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert str(cfg) in err and repr(key) in err


@pytest.mark.parametrize("d_model", [0, -2])
def test_non_positive_d_model_is_user_error(d_model, corpus_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text((corpus_dir / "config.ini").read_text()
                   + f"model = {tmp_path / 'm.bin'}\nd_model = {d_model}\n")
    assert main(["train", "--config", str(cfg)]) == 1
    assert "error: d_model must be positive and even" in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("setting, message", [
    ("seed = -1", "seed must be non-negative, got -1"),
    ("--seed -3", "seed must be non-negative, got -3"),
    ("lr = 0", "learning_rate must be positive, got 0.0"),
    ("batch_size = 0", "batch_size must be positive, got 0"),
    ("epochs = -1", "epochs must be non-negative, got -1")],
    ids=["seed-key", "seed-flag", "lr", "batch_size", "epochs"])
def test_training_key_out_of_range_names_key(setting, message, tmp_path, capsys):
    """The key's error comes before any data is read: the data file does not exist."""
    cfg = tmp_path / "c.ini"
    keys = f"data = {tmp_path / 'missing.jsonl'}\nmodel = {tmp_path / 'm.bin'}\n"
    flags = setting.split() if setting.startswith("--") else []
    cfg.write_text(keys if flags else keys + setting + "\n")
    assert main(["train", "--config", str(cfg), *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("args", [[], ["--epochs", "0"], ["--resume"]],
                         ids=["train", "zero-epochs", "resume"])
def test_train_without_dialogues_is_user_error(args, tmp_path, capsys):
    """An empty data file is refused before any model file is read or written."""
    data, model = tmp_path / "data.jsonl", tmp_path / "m.bin"
    data.write_text("")
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"data = {data}\nmodel = {model}\nlang = en\nepochs = 2\n")
    assert main(["train", "--config", str(cfg), *args]) == 1
    assert f"{data}: no dialogue to train on\n" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted([cfg, data])


def _reshape(name, new_shape):
    """A header edit that gives tensor ``name`` the shape ``new_shape(shape)``."""
    return lambda h: {**h, "tensors": [[n, new_shape(s) if n == name else s]
                                       for n, s in h["tensors"]]}


class TestStrictHeaders:
    """A malformed model or sidecar header, or a tensor whose shape does not
    fit its role, is a user error naming the file."""

    @pytest.mark.parametrize("edit, keep_tensors, message", [
        (lambda h: [h], True, "header is not a JSON object"),
        (lambda h: {"format": "iurkit-model", "version": 1}, False,
         "header lacks mode, d_model, has_mixer, vocab, tensors"),
        (lambda h: {**h, "tensors": []}, False, "missing tensor 'emb'"),
        (lambda h: {**h, "tensors": [["emb", [-1, 8]]]}, False,
         "a dimension of tensor 'emb' must be a non-negative integer"),
        (lambda h: {**h, "tensors": [["emb", [2.5, 8]]]}, False,
         "a dimension of tensor 'emb' must be a non-negative integer"),
        (lambda h: {**h, "tensors": {"emb": [2, 8]}}, False,
         "tensors must be a list of [name, shape] pairs"),
        (lambda h: {**h, "d_model": "8"}, True, "d_model must be a non-negative integer"),
        (lambda h: {**h, "d_model": -8}, True, "d_model must be a non-negative integer"),
        (lambda h: {**h, "vocab": {"a": 0}}, True, "vocab must be a list of strings"),
        (lambda h: {**h, "optimizer": {}}, True, "optimizer step must be"),
        (_reshape("emb", lambda s: [math.prod(s)]), True, "tensor 'emb' has shape"),
        (lambda h: {**h, "vocab": h["vocab"][:-1]}, True, "tensor 'emb' has shape"),
        (_reshape("head.S.wq", lambda s: s[::-1]), True,
         "tensor 'head.S.wq' has shape [8, 4], expected [4, 8]"),
        (_reshape("adam.m.head.I.wk", lambda s: s[::-1]), True,
         "tensor 'adam.m.head.I.wk' has shape [8, 4], expected [4, 8]"),
        (lambda h: {**h, "mode": "trainablX"}, True,
         "mode must be 'trainable' or 'imported', got 'trainablX'"),
        (lambda h: {**h, "tensors": h["tensors"] + [["foo", [1]]]}, b"\0\0\0\0",
         "unexpected tensor 'foo'"),
        (lambda h: {**h, "optimizer": [1]}, True, "optimizer must be a JSON object"),
        (lambda h: {**h, "d_model": 0}, True, "d_model must be positive and even"),
        (lambda h: {**h, "has_mixer": True, "d_ff": 0}, True, "d_ff must be positive"),
        (lambda h: {**h, "has_mixer": "false"}, True,
         "has_mixer must be true or false, got 'false'"),
        (lambda h: {**h, "has_mixer": 0}, True, "has_mixer must be true or false, got 0"),
        (lambda h: {**h, "vocab": []}, True, "vocab must start with '[UNK]'"),
        (lambda h: {**h, "vocab": h["vocab"][1:] + h["vocab"][:1]}, True,
         "vocab must start with '[UNK]'"),
        (lambda h: {**h, "vocab": h["vocab"][:-1] + h["vocab"][1:2]}, True,
         "vocab repeats '[END]'"),
        (lambda h: {k: v for k, v in h.items() if k != "d_out"}, True, "header lacks d_out"),
        (lambda h: {**{k: v for k, v in h.items() if k != "d_ff"}, "has_mixer": True}, True,
         "header lacks d_ff"),
    ], ids=["list", "missing-keys", "missing-tensor", "negative-shape", "float-shape",
            "tensor-map", "string-d_model", "negative-d_model", "vocab-map",
            "optimizer-step", "1d-emb", "emb-rows-vs-vocab", "swapped-head-wq",
            "swapped-adam-moment", "misspelled-mode", "extra-tensor", "optimizer-list",
            "zero-d_model", "zero-d_ff", "string-has_mixer", "int-has_mixer",
            "empty-vocab", "vocab-without-unk-first", "repeated-vocab-word",
            "missing-d_out", "missing-d_ff"])
    def test_malformed_model_header(self, edit, keep_tensors, message, corpus_dir,
                                    trained, tmp_path, capsys):
        header, tensors = trained.read_bytes().split(b"\n", 1)
        bad = tmp_path / "bad.bin"
        # ``keep_tensors`` may also be bytes to append after the tensors
        extra = keep_tensors if isinstance(keep_tensors, bytes) else b""
        bad.write_bytes(json.dumps(edit(json.loads(header))).encode() + b"\n"
                        + (tensors + extra if keep_tensors else b""))
        assert main(["rewrite", "--config", str(corpus_dir / "config.ini"),
                     "--model", str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"{bad}: {message}" in err

    def test_model_with_empty_vocab_is_a_user_error(self, corpus_dir, tmp_path, capsys):
        # its tensors fit its header (``emb`` has no row), so only the vocab
        # rule stops the token lookup from indexing an empty table;
        # ``init_model`` refuses an empty vocab, so the file drops the one
        # ``[UNK]`` row of a saved model
        bad = tmp_path / "bad.bin"
        save_model(bad, init_model({"[UNK]": 0}, 8, 4, seed=0))
        header, tensors = bad.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        assert header["tensors"][0] == ["emb", [1, 8]]
        header["vocab"], header["tensors"][0][1] = [], [0, 8]
        bad.write_bytes(json.dumps(header).encode() + b"\n" + tensors[4 * 8:])
        assert main(["rewrite", "--config", str(corpus_dir / "config.ini"),
                     "--model", str(bad)]) == 1
        assert f"{bad}: vocab must start with '[UNK]'" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["emb", "head.S.wq", "adam.v.head.I.bk"])
    def test_non_finite_tensor_names_file_and_tensor(self, name, corpus_dir, trained,
                                                     tmp_path, capsys):
        header, tensors = trained.read_bytes().split(b"\n", 1)
        offset = 0
        for n, shape in json.loads(header)["tensors"]:
            if n == name:
                break
            offset += 4 * math.prod(shape)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(header + b"\n" + tensors[:offset] + struct.pack("<f", math.nan)
                        + tensors[offset + 4:])
        assert main(["rewrite", "--config", str(corpus_dir / "config.ini"),
                     "--model", str(bad)]) == 1
        assert f"{bad}: tensor {name!r} is not finite" in capsys.readouterr().err

    def test_duplicate_tensor_names_file_and_tensor(self, corpus_dir, trained,
                                                    tmp_path, capsys):
        """A second ``emb`` entry with its payload no longer overwrites the first."""
        header, tensors = trained.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        name, shape = header["tensors"][0]
        header["tensors"].insert(0, [name, shape])
        bad = tmp_path / "bad.bin"
        bad.write_bytes(json.dumps(header).encode() + b"\n"
                        + tensors[:4 * math.prod(shape)] + tensors)
        assert main(["rewrite", "--config", str(corpus_dir / "config.ini"),
                     "--model", str(bad)]) == 1
        assert f"{bad}: duplicate tensor 'emb'" in capsys.readouterr().err

    @pytest.mark.parametrize("header, message", [
        (b"not json", "header is not JSON"),
        (b"[]", "header is not a JSON object"),
        (b'{"count": 0}', "header lacks d_model"),
        (b'{"d_model": "8", "count": 0}', "d_model must be a non-negative integer"),
        (b'{"d_model": 8, "count": -1}', "count must be a non-negative integer"),
        (b'{"d_model": 8, "count": 1.5}', "count must be a non-negative integer"),
    ], ids=["not-json", "list", "missing-d_model", "string-d_model", "negative-count",
            "float-count"])
    def test_malformed_ctxvec_header(self, header, message, corpus_dir, trained,
                                     tmp_path, capsys):
        vectors = tmp_path / "bad.ctxvec"
        vectors.write_bytes(header + b"\n")
        assert main(["rewrite", "--config", str(corpus_dir / "config.ini"),
                     "--vectors", str(vectors)]) == 1
        err = capsys.readouterr().err
        assert f"{vectors}: {message}" in err


@pytest.fixture(scope="module")
def vectors(corpus_dir, trained):
    """The trained model's own contextual vectors of every dialogue."""
    model, _ = load_model(trained)
    examples, _ = _prepare(RunConfig.from_file(corpus_dir / "config.ini"))
    path = corpus_dir / "vectors.ctxvec"
    write_ctxvec(path, model.encoder.d_model,
                 {ex.example_id: encode(ex.input, model.encoder) for ex in examples})
    return path


def test_duplicate_vector_id_is_user_error(corpus_dir, trained, vectors, tmp_path,
                                          capsys):
    """A second record with id '0' no longer silently replaces the first."""
    header, records = vectors.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    (id_len,) = struct.unpack("<I", records[:4])
    (n,) = struct.unpack("<I", records[4 + id_len:8 + id_len])
    first = records[:8 + id_len + 4 * n * header["d_model"]]
    assert first[4:4 + id_len] == b"0"
    bad = tmp_path / "dup.ctxvec"
    bad.write_bytes(json.dumps({**header, "count": header["count"] + 1}).encode()
                    + b"\n" + records + first)
    out = tmp_path / "hyp.jsonl"
    assert main(["rewrite", "--config", str(corpus_dir / "config.ini"),
                 "--vectors", str(bad), "--out", str(out)]) == 1
    assert f"{bad}: record '0': duplicate id" in capsys.readouterr().err
    assert not out.exists()


class TestRewriteChunks:
    """``iurkit rewrite`` scores runs of at most ``CHUNK_TOKENS`` input
    tokens per forward pass (``_token_chunks``); its output is that of
    rewriting each dialogue on its own."""

    # a budget of 1 scores each dialogue alone; the whole corpus fits in 512
    @pytest.mark.parametrize("budget", [1, SMALL_BUDGET, CHUNK_TOKENS])
    @pytest.mark.parametrize("imported", [False, True])
    def test_output_equals_per_dialogue_rewrite(self, budget, imported, corpus_dir,
                                                trained, vectors, tmp_path, monkeypatch):
        monkeypatch.setattr(scoring, "CHUNK_TOKENS", budget)
        cfg = RunConfig.from_file(corpus_dir / "config.ini")
        lexicon, inputs = cfg.load_inputs()
        model, _ = load_model(trained)
        flags = []
        if imported:
            model = with_imported_vectors(model, read_ctxvec(vectors)[1])
            flags = ["--vectors", str(vectors)]
        want = "".join(json.dumps({"id": dlg.example_id, "rewritten": rewrite(
            dlg, model, cfg.theta, lexicon, parse)[0].text(" ")}) + "\n"
            for dlg, parse in inputs)
        out = tmp_path / "hyp.jsonl"
        assert main(["rewrite", "--config", str(corpus_dir / "config.ini"), *flags,
                     "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == want

    def test_missing_vectors_mid_chunk_names_example(self, corpus_dir, trained, vectors,
                                                     tmp_path, capsys):
        d_model, records = read_ctxvec(vectors)
        del records["3"]
        partial = tmp_path / "partial.ctxvec"
        write_ctxvec(partial, d_model, records)
        out = tmp_path / "hyp.jsonl"
        assert main(["rewrite", "--config", str(corpus_dir / "config.ini"),
                     "--vectors", str(partial), "--out", str(out)]) == 1
        assert "no imported vectors for example '3'" in capsys.readouterr().err
        assert not out.exists()

    def test_form_mismatch_mid_chunk_names_example(self, corpus_dir, trained, tmp_path,
                                                   capsys):
        blocks = _parse_blocks(corpus_dir)
        blocks[3] = blocks[3].replace("\tword131\t", "\tword999\t")
        cfg = _config_with_parses(corpus_dir, tmp_path, blocks)
        out = tmp_path / "hyp.jsonl"
        assert main(["rewrite", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "example '3': parse form 'word999' at token 0 does not match" in err
        assert not out.exists()

    def test_empty_data_file(self, corpus_dir, trained, tmp_path):
        (tmp_path / "empty.jsonl").write_text("")
        cfg = tmp_path / "empty.ini"
        cfg.write_text((corpus_dir / "config.ini").read_text()
                       + f"data = {tmp_path / 'empty.jsonl'}\nparses =\n")
        out = tmp_path / "hyp.jsonl"
        assert main(["rewrite", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text() == ""

    def test_logs_counts_and_wall_time_at_info(self, corpus_dir, trained, tmp_path,
                                               caplog):
        caplog.set_level(logging.INFO, logger="iurkit")
        assert main(["rewrite", "--config", str(corpus_dir / "config.ini"),
                     "--out", str(tmp_path / "hyp.jsonl")]) == 0
        [record] = [r for r in caplog.records if r.name == "iurkit"]
        assert record.levelno == logging.INFO
        assert re.fullmatch(rf"rewrote 10 dialogues in passes of up to {CHUNK_TOKENS} "
                            rf"tokens in \d+\.\d{{3}} s", record.getMessage())

    def test_quiet_at_default_level(self, corpus_dir, trained, tmp_path, caplog, capsys):
        assert main(["rewrite", "--config", str(corpus_dir / "config.ini"),
                     "--out", str(tmp_path / "hyp.jsonl")]) == 0
        assert not [r for r in caplog.records if r.name == "iurkit"]
        assert capsys.readouterr().err == ""


def test_rewrite_batch_builds_inputs_as_scoring_reaches_them(corpus_dir, trained,
                                                              monkeypatch):
    """Records are pulled from a one-shot iterable, and their queries and
    inputs built, a chunk (and one record past it) at a time, not all up
    front; the results are those of ``rewrite`` of each record."""
    monkeypatch.setattr(scoring, "CHUNK_TOKENS", SMALL_BUDGET)  # several chunks
    cfg = RunConfig.from_file(corpus_dir / "config.ini")
    lexicon, inputs = cfg.load_inputs()
    examples, _ = _prepare(cfg)
    run = len(next(_token_chunks(examples, lambda ex: ex.input)))
    assert run + 1 < len(inputs)
    built, build = [], rewrite_module.build_input_sequence
    monkeypatch.setattr(rewrite_module, "build_input_sequence",
                        lambda query, dlg: built.append(dlg) or build(query, dlg))
    pulled = []

    def records():
        for record in inputs:
            pulled.append(record)
            yield record

    model, _ = load_model(trained)
    stream = rewrite_batch(records(), model, cfg.theta, lexicon)
    first = next(stream)
    assert pulled == inputs[:run + 1]
    assert built == [d for d, _ in inputs[:run + 1]]
    outputs = [out for out, _ in (first, *stream)]
    assert pulled == inputs and built == [d for d, _ in inputs]
    assert outputs == [rewrite(d, model, cfg.theta, lexicon, p)[0] for d, p in inputs]


@pytest.mark.parametrize("imported", [False, True])
def test_train_em_is_exact_match_of_rewrite_batch(imported, corpus_dir, trained, vectors,
                                                  monkeypatch):
    """``train_em`` of the prepared examples is the exact match of
    ``rewrite_batch``'s outputs on the same records, over several chunks."""
    monkeypatch.setattr(scoring, "CHUNK_TOKENS", SMALL_BUDGET)  # several chunks
    cfg = RunConfig.from_file(corpus_dir / "config.ini")
    lexicon, inputs = cfg.load_inputs()
    examples, _ = _prepare(cfg)
    assert len(list(_token_chunks(examples, lambda ex: ex.input))) > 1
    model, _ = load_model(trained)
    if imported:
        model = with_imported_vectors(model, read_ctxvec(vectors)[1])
    for theta in (cfg.theta, 0.05):
        batch = rewrite_batch(inputs, model, theta, lexicon)
        hits = [out.texts() == dlg.rewritten.texts()
                for (dlg, _), (out, _) in zip(inputs, batch, strict=True)]
        assert 0 < sum(hits) < len(hits)  # neither bound, so a mismatch would show
        assert train_em(model, examples, theta) == sum(hits) / len(hits)


def test_rewrite_batch_of_no_records_yields_nothing(trained):
    model, _ = load_model(trained)
    assert list(rewrite_batch(iter(()), model, 0.1, PronounLexicon.default("en"))) == []


def _stream_run(tmp_path, n):
    """A config over ``n`` synthetic dialogues, their prepared examples and
    a small model saved where the config names it."""
    write_corpus_files(make_corpus(n, seed=4), tmp_path / "d.jsonl",
                       tmp_path / "p.conllu", tmp_path / "lex.txt")
    config = tmp_path / "c.ini"
    config.write_text(f"data = {tmp_path / 'd.jsonl'}\nparses = {tmp_path / 'p.conllu'}\n"
                      f"lexicon = {tmp_path / 'lex.txt'}\nmodel = {tmp_path / 'm.bin'}\n"
                      "lang = en\n")
    cfg = RunConfig.from_file(config)
    examples, _ = _prepare(cfg)
    model = init_model(build_vocab(ex.input for ex in examples), 8, 4, seed=0)
    save_model(cfg.model, model)
    return config, cfg, examples, model


@pytest.mark.parametrize("caller", ["rewrite_batch", "train_em", "iurkit rewrite", "grad"])
def test_forward_never_passed_more_than_a_chunk(caller, tmp_path, monkeypatch):
    """Whatever the number of inputs, every caller scores them in
    consecutive ``_forward`` passes of at most ``CHUNK_TOKENS`` input
    tokens (an input longer than that alone), each cut only where the next
    input would not fit."""
    n = 80  # about 1200 input tokens
    config, cfg, examples, model = _stream_run(tmp_path, n)
    passes, forward = [], scoring._forward

    def recording_forward(model, inputs, *args, **kwargs):
        passes.append([inp.tokens for inp in inputs])
        return forward(model, inputs, *args, **kwargs)

    monkeypatch.setattr(scoring, "_forward", recording_forward)
    if caller == "rewrite_batch":
        lexicon, inputs = cfg.load_inputs()
        assert len(list(rewrite_batch(inputs, model, cfg.theta, lexicon))) == n
    elif caller == "train_em":
        train_em(model, examples, cfg.theta)
    elif caller == "grad":
        grad(model, examples)
    else:
        out = tmp_path / "hyp.jsonl"
        assert main(["rewrite", "--config", str(config), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == n
    assert [t for p in passes for t in p] == [ex.input.tokens for ex in examples]
    sizes = [[len(t) for t in p] for p in passes]
    for p, later in zip(sizes, sizes[1:] + [None]):
        assert len(p) == 1 or sum(p) <= CHUNK_TOKENS
        if later is not None:
            assert sum(p) + later[0] > CHUNK_TOKENS
    assert len(passes) >= 2


@pytest.mark.parametrize("caller", ["rewrite_batch", "train_em", "iurkit rewrite"])
def test_one_chunk_of_scores_alive_at_a_time(caller, tmp_path, monkeypatch):
    """When a chunk is scored, no earlier chunk's scores are still held,
    whether or not the caller keeps the diagnostics it was handed."""
    n = 80
    config, cfg, examples, model = _stream_run(tmp_path, n)
    alive, forward = [], scoring._forward

    def recording_forward(*args, **kwargs):
        assert [ref for ref in alive if ref() is not None] == []
        out = forward(*args, **kwargs)
        alive.append(weakref.ref(out[0]))
        return out

    monkeypatch.setattr(scoring, "_forward", recording_forward)
    if caller == "rewrite_batch":
        lexicon, inputs = cfg.load_inputs()
        collections.deque(rewrite_batch(iter(inputs), model, cfg.theta, lexicon), maxlen=0)
    elif caller == "train_em":
        train_em(model, examples, cfg.theta)
    else:
        assert main(["rewrite", "--config", str(config),
                     "--out", str(tmp_path / "hyp.jsonl")]) == 0
    assert len(alive) >= 2


@pytest.mark.parametrize("fmt, record, message", [
    ("jsonl", '{"history": [], "incomplete": "a"', "invalid JSON"),
    ("tsv", "one column", "need at least incomplete and rewritten columns")],
    ids=["jsonl", "tsv"])
def test_bad_data_record_names_file_and_line(fmt, record, message, tmp_path, capsys):
    bad = tmp_path / f"bad.{fmt}"
    bad.write_text(record + "\n")
    config = tmp_path / "c.ini"
    config.write_text(f"format = {fmt}\nlang = en\n")
    assert main(["make-query", "--config", str(config), "--data", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: line 1: {message}")


def _corrupt(data: bytes, kind: str, at: int, value: int) -> bytes:
    """``data`` with one header byte set to ``value``, one payload bit
    flipped, or cut short; ``at`` picks the place."""
    body = data.index(b"\n") + 1
    if kind == "header":
        i = at % (body - 1)
        return data[:i] + bytes([value]) + data[i + 1:]
    if kind == "bit":
        i = body + at % (len(data) - body)
        return data[:i] + bytes([data[i] ^ (1 << value % 8)]) + data[i + 1:]
    return data[:at % len(data)]


@given(target=st.sampled_from(["model", "vectors"]),
       kind=st.sampled_from(["header", "bit", "truncate"]),
       at=st.integers(0, 2**32), value=st.integers(32, 126))
@settings(max_examples=60, deadline=None)
def test_corrupt_model_or_vectors_is_result_or_user_error(target, kind, at, value,
                                                          corpus_dir, trained, vectors):
    """A damaged model file or sidecar gives a rewrite or exit 1, never an
    internal error (exit 2)."""
    clean = vectors if target == "vectors" else trained
    bad = corpus_dir / f"corrupt.{target}"
    bad.write_bytes(_corrupt(clean.read_bytes(), kind, at, value))
    files = ["--model", str(trained), "--vectors", str(bad)] if target == "vectors" \
        else ["--model", str(bad)]
    assert main(["rewrite", "--config", str(corpus_dir / "config.ini"), *files,
                 "--out", str(corpus_dir / "corrupt.jsonl")]) in (0, 1)


@given(kind=st.sampled_from(["set", "flip", "delete", "truncate"]),
       at=st.integers(0, 2**32), value=st.integers(32, 126))
@settings(max_examples=200, deadline=None)
def test_corrupt_jsonl_is_result_or_user_error(kind, at, value, corpus_dir, trained):
    """A damaged dialogue file (one byte set to printable ASCII, one bit
    flipped, one byte deleted, or the file cut short) gives a result or
    exit 1 from every command that reads it, never exit 2."""
    data = (corpus_dir / "data.jsonl").read_bytes()
    i = at % len(data)
    bad = corpus_dir / "corrupt-data.jsonl"
    bad.write_bytes({"set": data[:i] + bytes([value]) + data[i + 1:],
                     "flip": data[:i] + bytes([data[i] ^ (1 << value % 8)]) + data[i + 1:],
                     "delete": data[:i] + data[i + 1:],
                     "truncate": data[:i]}[kind])
    common = ["--config", str(corpus_dir / "config.ini"), "--data", str(bad)]
    out = corpus_dir / "corrupt-out"
    out.mkdir(exist_ok=True)
    for argv in (["rewrite", "--model", str(trained), "--out", str(out / "rewrite.jsonl")],
                 ["build-supervision", "--out", str(out)],
                 ["make-query", "--out", str(out / "queries.jsonl")],
                 ["train", "--model", str(out / "model.bin"), "--epochs", "1"]):
        assert main([*argv, *common]) in (0, 1), argv[0]


def test_out_of_memory_is_a_user_error(corpus_dir, tmp_path, monkeypatch, capsys):
    """An allocation the machine cannot make, such as that of a huge
    ``d_model``, is exit 1 (once an internal error, exit 2)."""
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 88.7 GiB for an array")

    monkeypatch.setattr(cli_module, "init_model", no_memory)
    assert main(["train", "--config", str(corpus_dir / "config.ini"),
                 "--model", str(tmp_path / "m.bin")]) == 1
    assert capsys.readouterr().err == \
        "error: out of memory (Unable to allocate 88.7 GiB for an array)\n"


def test_comments_only_lexicon_names_file(corpus_dir, tmp_path, capsys):
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("# pronouns to come\n\n", encoding="utf-8")
    cfg = _config_with(corpus_dir, tmp_path, lexicon=lexicon)
    assert main(["make-query", "--config", str(cfg), "--out", str(tmp_path / "q.jsonl")]) == 1
    assert f"error: {lexicon}: pronoun lexicon must be non-empty" in capsys.readouterr().err


def _config_with(corpus_dir, tmp_path, **keys):
    cfg = tmp_path / "with.ini"
    cfg.write_text((corpus_dir / "config.ini").read_text()
                   + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    return cfg


def _bad_byte(path, lineno: int) -> None:
    """Put the byte 0xff at the start of line ``lineno`` of ``path``."""
    lines = path.read_bytes().split(b"\n")
    lines[lineno - 1] = b"\xff" + lines[lineno - 1]
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("target", ["data", "tsv", "lexicon", "parses", "config",
                                    "hyp", "ref", "ctxvec"])
def test_invalid_utf8_names_file_and_line(target, corpus_dir, trained, vectors, tmp_path,
                                          capsys):
    """Bytes that are not UTF-8 are a user error naming the file and the line
    (or the sidecar record) that holds them."""
    bad = tmp_path / f"bad.{target}"
    where = f"{bad}: line 3: "
    out = ["--out", str(tmp_path / "out.jsonl")]
    if target == "ctxvec":  # the id of the first record, '0', becomes b"\xff"
        header, records = vectors.read_bytes().split(b"\n", 1)
        assert records[:5] == struct.pack("<I", 1) + b"0"
        bad.write_bytes(header + b"\n" + records[:4] + b"\xff" + records[5:])
        where = f"{bad}: record 0: id is not UTF-8"
        argv = ["rewrite", "--config", str(corpus_dir / "config.ini"), "--vectors", str(bad),
                *out]
    elif target in ("hyp", "ref"):
        good = tmp_path / "good.txt"
        good.write_text("a b\nc d\ne f\n", encoding="utf-8")
        bad.write_bytes(good.read_bytes())
        _bad_byte(bad, 3)
        argv = ["evaluate", *((bad, good) if target == "hyp" else (good, bad))]
    elif target == "tsv":
        bad.write_text("".join(f"word00{i} word01{i}\tit\tword00{i} word01{i}\n"
                               for i in range(5)), encoding="utf-8")
        _bad_byte(bad, 3)
        cfg = _config_with(corpus_dir, tmp_path, data=bad, format="tsv", parses="")
        argv = ["make-query", "--config", str(cfg), *out]
    else:
        source = {"data": "data.jsonl", "lexicon": "lexicon.txt",
                  "parses": "parses.conllu", "config": "config.ini"}[target]
        bad.write_bytes((corpus_dir / source).read_bytes())
        _bad_byte(bad, 3)
        cfg = bad if target == "config" else _config_with(corpus_dir, tmp_path,
                                                          **{target: bad})
        argv = ["make-query", "--config", str(cfg), *out]
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert where in err and "can't decode byte 0xff" in err


class TestFlagValidation:
    """Flags go through the same validation as config-file values."""

    @pytest.mark.parametrize("command, key, value", [
        (["train"], "seed", "1.5"), (["train"], "epochs", "two"),
        (["rewrite"], "theta", "abc"), (["inspect-matrix", "0"], "theta", "abc")],
        ids=["seed", "epochs", "rewrite-theta", "inspect-theta"])
    def test_flag_fails_as_its_config_line(self, command, key, value, tmp_path, capsys):
        """The data file does not exist: the value fails first, either way."""
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"{key} = {value}\n")
        data = str(tmp_path / "missing.jsonl")
        assert main([*command, "--data", data, f"--{key}", value]) == 1
        from_flag = capsys.readouterr().err
        assert main([*command, "--config", str(cfg), "--data", data]) == 1
        from_file = capsys.readouterr().err
        assert from_flag == f"error: config key {key!r}: expected a finite " \
            f"{'float' if key == 'theta' else 'int'}, got {value!r}\n"
        assert from_file == from_flag.replace("error: ", f"error: {cfg}: line 1: ", 1)
        assert sorted(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command, key", [
        (["make-query"], "data"), (["build-supervision"], "data"), (["train"], "data"),
        (["rewrite"], "model"), (["inspect-matrix", "0"], "model")],
        ids=["make-query", "build-supervision", "train", "rewrite", "inspect-matrix"])
    def test_missing_file_fails_as_from_the_config(self, command, key, corpus_dir,
                                                   tmp_path, capsys):
        """The reader that opens the path names it, whichever way it came."""
        missing = tmp_path / "missing"
        out = {"train": ["--model", str(tmp_path / "m.bin")],
               "inspect-matrix": []}.get(command[0], ["--out", str(tmp_path / "out")])
        base = ["--config", str(corpus_dir / "config.ini"), *out]
        assert main([*command, *base, f"--{key}", str(missing)]) == 1
        from_flag = capsys.readouterr().err
        cfg = _config_with(corpus_dir, tmp_path, **{key: missing})
        assert main([*command, "--config", str(cfg), *out]) == 1
        assert capsys.readouterr().err == from_flag == \
            f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
        assert sorted(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command", [["rewrite"], ["inspect-matrix", "0"]])
    def test_nan_theta_flag_is_user_error(self, command, corpus_dir, trained, capsys):
        assert main([*command, "--config", str(corpus_dir / "config.ini"),
                     "--theta", "nan"]) == 1
        assert "config key 'theta': expected a finite float, got 'nan'" in \
            capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--config", "--data", "--vectors"])
def test_empty_path_flag_is_read_as_a_path(flag, corpus_dir, trained, tmp_path, capsys):
    """An empty path is not "no path": its reader refuses it, as the
    directory '.' where it goes through ``Path``."""
    config = [] if flag == "--config" else ["--config", str(corpus_dir / "config.ini")]
    out = tmp_path / "out.jsonl"
    assert main(["rewrite", *config, flag, "", "--out", str(out)]) == 1
    assert capsys.readouterr().err in ("error: [Errno 2] No such file or directory: ''\n",
                                       "error: [Errno 21] Is a directory: '.'\n")
    assert not out.exists()


def _user_error_case(case, corpus_dir, trained, tmp_path):
    """argv of a command that fails on its input, and what its error says."""
    config = str(corpus_dir / "config.ini")
    data, model = tmp_path / "d.jsonl", tmp_path / "m.bin"
    recs = [json.loads(l) for l in (corpus_dir / "data.jsonl").read_text().splitlines()]
    out = ["--out", str(tmp_path / "out")]
    if case == "missing-gold":
        del recs[1]["rewritten"]
        argv, message = ["build-supervision", "--config", config, *out], \
            "example '1' has no gold rewritten utterance"
    elif case == "id-no-file-name":
        recs[1]["id"] = "a/b"
        argv, message = ["build-supervision", "--config", config, *out], \
            "example 'a/b': id cannot be a file name"
    elif case == "none-fully-expressible":
        recs = [{**r, "rewritten": r["rewritten"] + " novelword"} for r in recs]
        argv, message = ["build-supervision", "--config", config, *out], \
            "no fully-expressible example in the corpus"
    elif case == "no-dialogue":
        recs, config = [], str(_config_with(corpus_dir, tmp_path, parses=""))
        argv, message = ["train", "--config", config, "--model", str(model)], \
            f"{data}: no dialogue to train on"
    elif case == "resume-without-state":
        save_model(model, load_model(trained)[0])
        argv, message = ["train", "--config", config, "--model", str(model), "--resume"], \
            f"{model}: checkpoint carries no optimizer state"
    elif case == "ctxvec-d_model":
        vectors = tmp_path / "v.ctxvec"
        write_ctxvec(vectors, 16, {})
        argv, message = ["rewrite", "--config", config, "--vectors", str(vectors), *out], \
            f"{vectors}: d_model 16 does not match model 8"
    elif case in ("evaluate-counts", "evaluate-empty"):
        hyp, ref = tmp_path / "h.txt", tmp_path / "r.txt"
        hyp.write_text("a\nb\n" if case == "evaluate-counts" else "")
        ref.write_text("a\n" if case == "evaluate-counts" else "")
        counts = "2 and 1" if case == "evaluate-counts" else "0 and 0"
        argv, message = ["evaluate", str(hyp), str(ref)], \
            f"need equally many hypotheses and references, at least one; got {counts}"
    else:
        argv, message = ["inspect-matrix", "nope", "--config", config], \
            f"example id 'nope' not found in {data}"
    data.write_text("".join(json.dumps(r) + "\n" for r in recs))
    return [*argv, "--data", str(data)] if argv[0] != "evaluate" else argv, message


@pytest.mark.parametrize("case", [
    "missing-gold", "id-no-file-name", "none-fully-expressible", "no-dialogue",
    "resume-without-state", "ctxvec-d_model", "evaluate-counts", "evaluate-empty",
    "unknown-example-id"])
def test_user_error_is_one_error_line(case, corpus_dir, trained, tmp_path, capsys):
    """Every user error leaves as one ``error: `` line on stderr and exit 1."""
    argv, message = _user_error_case(case, corpus_dir, trained, tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_diverging_training_is_user_error(corpus_dir, tmp_path, capsys):
    cfg = tmp_path / "diverge.ini"
    cfg.write_text((corpus_dir / "config.ini").read_text()
                   + f"model = {tmp_path / 'm.bin'}\nlr = 1e30\nbatch_size = 2\n")
    assert main(["train", "--config", str(cfg)]) == 1
    assert "error: epoch 0, batch 3: non-finite loss on example '0'" in \
        capsys.readouterr().err


def test_divergence_in_the_last_update_saves_no_model(tmp_path, capsys):
    """One batch, one epoch: no later loss sees the non-finite parameters."""
    write_corpus_files(make_corpus(16, seed=21), tmp_path / "data.jsonl",
                       tmp_path / "parses.conllu", tmp_path / "lexicon.txt")
    cfg = tmp_path / "diverge.ini"
    cfg.write_text(f"data = {tmp_path / 'data.jsonl'}\n"
                   f"lexicon = {tmp_path / 'lexicon.txt'}\n"
                   f"parses = {tmp_path / 'parses.conllu'}\n"
                   f"model = {tmp_path / 'm.bin'}\n"
                   "d_model = 8\nd_head = 4\nlr = 1e39\nbatch_size = 16\nepochs = 1\n")
    assert main(["train", "--config", str(cfg)]) == 1
    assert "error: epoch 0, batch 0: tensor 'emb' is non-finite after the update" in \
        capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


class TestExitCodes:
    def test_unknown_command(self):
        assert main(["frobnicate"]) != 0

    def test_help_is_success(self):
        assert main(["--help"]) == 0
