import json

import pytest

from iurkit.cli import RunConfig, main
from synthetic import make_corpus, write_corpus_files


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
        p.write_text("nonsense = 1\n")
        with pytest.raises(ValueError, match="nonsense"):
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

    def test_missing_gold_is_user_error(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        data.write_text('{"history":["a b"],"incomplete":"c d","lang":"en"}\n')
        rc = main(["build-supervision", "--data", str(data),
                   "--out", str(tmp_path / "out")])
        assert rc == 1


class TestTrain:
    def test_outputs_model_and_log(self, trained, capsys):
        assert trained.exists()
        log = json.loads((trained.parent / "model.bin.log.json").read_text())
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


class TestInspectMatrix:
    def test_json_diagnostics(self, corpus_dir, trained, capsys):
        rc = main(["inspect-matrix", "3",
                   "--config", str(corpus_dir / "config.ini")])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert "grids" in obj and set(obj["grids"]) == {"S", "I"}
        assert obj["matrix"] is not None

    def test_precise_grid_strings(self, corpus_dir, trained, capsys):
        rc = main(["inspect-matrix", "0", "--precise",
                   "--config", str(corpus_dir / "config.ini")])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        cell = obj["grids"]["S"][0][0]
        assert isinstance(cell, str)
        float(cell)

    def test_unknown_id(self, corpus_dir, trained):
        rc = main(["inspect-matrix", "no-such-id",
                   "--config", str(corpus_dir / "config.ini")])
        assert rc == 1


class TestExitCodes:
    def test_unknown_command(self):
        assert main(["frobnicate"]) != 0

    def test_help_is_success(self):
        assert main(["--help"]) == 0
