import json
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from iurkit.cli import RunConfig, _prepare, main
from iurkit.scoring import encode, load_model, write_ctxvec
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
    ], ids=["list", "missing-keys", "missing-tensor", "negative-shape", "float-shape",
            "tensor-map", "string-d_model", "negative-d_model", "vocab-map",
            "optimizer-step", "1d-emb", "emb-rows-vs-vocab", "swapped-head-wq",
            "swapped-adam-moment", "misspelled-mode", "extra-tensor", "optimizer-list",
            "zero-d_model", "zero-d_ff"])
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


class TestFlagValidation:
    """Flags go through the same validation as config-file values."""

    @pytest.mark.parametrize("command", [["rewrite"], ["inspect-matrix", "0"]])
    def test_nan_theta_flag_is_user_error(self, command, corpus_dir, trained, capsys):
        assert main([*command, "--config", str(corpus_dir / "config.ini"),
                     "--theta", "nan"]) == 1
        assert "config key 'theta': expected a finite float, got 'nan'" in \
            capsys.readouterr().err


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
