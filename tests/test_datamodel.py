import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from iurkit.datamodel import (DataFormat, Dialogue, InputSequence, Utterance,
                              build_input_sequence, load_dialogues, read_lines,
                              read_text, tokenize)
from iurkit.querygen import (DependencyParse, KindSummary, PronounLexicon, QueryTemplate,
                             build_query, read_conllu)
from iurkit.rewrite import EditSpan
from iurkit.scoring import TrainExample
from iurkit.supervision import AddedSpan, EditMatrix


def char_loop_tokenize(text):
    """Reference: one character at a time, whitespace ends a Latin/digit
    run, every other character is a token of its own."""
    texts, run = [], []
    for ch in text:
        if ch.isspace():
            if run:
                texts.append("".join(run))
                run = []
        elif re.fullmatch(r"[A-Za-z0-9À-ɏ]", ch):
            run.append(ch)
        else:
            if run:
                texts.append("".join(run))
                run = []
            texts.append(ch)
    if run:
        texts.append("".join(run))
    return texts


class TestTokenize:
    def test_cjk_char_per_codepoint(self):
        assert tokenize("他不关心") == ["他", "不", "关", "心"]

    def test_empty(self):
        assert tokenize("") == []

    def test_whitespace_punct(self):
        # frozen from hand application of the splitting rule
        assert tokenize("Who is she?") == ["Who", "is", "she", "?"]

    def test_cjk_groups_latin_runs(self):
        assert tokenize("考IELTS口语") == ["考", "IELTS", "口", "语"]

    @given(st.text(alphabet="ab 汉字，。x3", max_size=30))
    def test_idempotent_on_token_texts(self, s):
        once = tokenize(s)
        assert tokenize(" ".join(once)) == once

    @given(st.text())
    def test_matches_char_loop_reference(self, s):
        assert tokenize(s) == char_loop_tokenize(s)


class TestTokenInvariants:
    def test_rejects_empty_text(self):
        with pytest.raises(ValueError):
            Utterance(("",))


def test_read_text_drops_one_leading_bom_only(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("\ufeff\ufeffa\ufeffb\r\n", encoding="utf-8")
    assert read_text(p) == "\ufeffa\ufeffb\n"


OTHER_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # str.splitlines breaks at these too


@pytest.mark.parametrize("text, lines", [
    ("", []), ("\n", [""]), ("a", ["a"]), ("a\n", ["a"]), ("a\n\n", ["a", ""]),
    ("a\r\nb\rc", ["a", "b", "c"]), (f"a{OTHER_BREAKS}b\n", [f"a{OTHER_BREAKS}b"])])
def test_read_lines_breaks_at_newline_only(text, lines, tmp_path):
    """A final newline ends the last line; no other break than a newline
    (after ``read_text`` translates "\\r\\n" and "\\r") ends one."""
    p = tmp_path / "t.txt"
    p.write_bytes(text.encode("utf-8"))
    assert read_lines(p) == lines


class TestLoadDialogues:
    def test_jsonl_basic(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"history":["A"],"incomplete":"B","rewritten":"B A","lang":"en"}\n')
        (d,) = load_dialogues(p, DataFormat.CANONICAL_JSONL)
        assert len(d.history) == 1
        assert d.rewritten is not None
        assert d.rewritten.texts() == ["B", "A"]

    def test_tsv_positional(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("u1\tu2\tinc\trew\n")
        (d,) = load_dialogues(p, DataFormat.TAB_SEPARATED)
        assert [u.text() for u in d.history] == ["u1", "u2"]
        assert d.incomplete.text() == "inc"
        assert d.rewritten.text() == "rew"

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("")
        assert load_dialogues(p, DataFormat.CANONICAL_JSONL) == []

    def test_malformed_record_names_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"history":["A"],"incomplete":"B"}\n{"history":[]}\n')
        with pytest.raises(ValueError, match="line 2.*incomplete"):
            load_dialogues(p, DataFormat.CANONICAL_JSONL)

    def test_mixed_language_loads_as_either_lang(self, tmp_path):
        record = {"history": ["hello there 世界"], "incomplete": "ok then"}
        p = tmp_path / "d.jsonl"
        p.write_text("".join(json.dumps({**record, **lang}) + "\n"
                             for lang in ({}, {"lang": "zh"}, {"lang": "en"})))
        loaded = [[u.tokens for u in (*d.history, d.incomplete)]
                  for d in load_dialogues(p, DataFormat.CANONICAL_JSONL)]
        assert loaded[0] == [("hello", "there", "世", "界"), ("ok", "then")]
        assert loaded[0] == loaded[1] == loaded[2]

    @pytest.mark.parametrize("lang", [[], {}, 1, "fr"], ids=["list", "map", "int", "fr"])
    def test_bad_lang_names_line(self, tmp_path, lang):
        p = tmp_path / "d.jsonl"
        p.write_text(json.dumps({"history": [], "incomplete": "B", "lang": lang}) + "\n")
        with pytest.raises(ValueError, match="line 1: field 'lang' must be 'zh' or 'en'"):
            load_dialogues(p, DataFormat.CANONICAL_JSONL)

    @pytest.mark.parametrize("record, message", [
        (5, "record is not an object"),
        (None, "record is not an object"),
        ("history", "record is not an object"),
        ({"history": [1], "incomplete": "a b", "rewritten": "a b"},
         "field 'history' must hold strings"),
        ({"history": [], "incomplete": "a b", "rewritten": 5},
         "field 'rewritten' has wrong type"),
        *(({"history": [], "incomplete": "a b", "id": bad},
           "field 'id' must be a string or an integer")
          for bad in (None, True, 1.5, [1], {"a": 1})),
    ], ids=["int", "null", "string", "history-int", "rewritten-int",
            "id-null", "id-bool", "id-float", "id-list", "id-map"])
    def test_malformed_record_type_names_line(self, tmp_path, record, message):
        p = tmp_path / "d.jsonl"
        p.write_text('{"history": [], "incomplete": "a"}\n' + json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: line 2: {message}$"):
            load_dialogues(p, DataFormat.CANONICAL_JSONL)

    @pytest.mark.parametrize("first, second", [
        ({"id": "dup"}, {"id": "dup"}),
        ({"id": 7}, {"id": "7"}),
        ({"id": "1"}, {}),  # line 2's default id is its index, 1
    ], ids=["string", "int-and-string", "default"])
    def test_repeated_id_names_both_lines(self, tmp_path, first, second):
        p = tmp_path / "d.jsonl"
        p.write_text("".join(json.dumps({"history": [], "incomplete": "a", **extra}) + "\n"
                             for extra in (first, second)))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: line 2: field 'id' "
                                             rf"'\w+' repeats the id of line 1$"):
            load_dialogues(p, DataFormat.CANONICAL_JSONL)

    def test_lang_field_selects_mode(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"history":[],"incomplete":"你好","lang":"zh"}\n')
        (d,) = load_dialogues(p, DataFormat.CANONICAL_JSONL)
        assert d.incomplete.texts() == ["你", "好"]

    @given(st.lists(st.fixed_dictionaries(
        {"history": st.lists(st.text(alphabet="ab 汉字，。x3?", max_size=12), max_size=3),
         "incomplete": st.text(alphabet="ab 汉字，。x3?", max_size=12),
         "rewritten": st.text(alphabet="ab 汉字，。x3?", max_size=12),
         "lang": st.sampled_from(["zh", "en"])}), max_size=4))
    def test_utterances_hold_tokenized_texts(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "d.jsonl"
            p.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
            dialogues = load_dialogues(p, DataFormat.CANONICAL_JSONL)
        assert len(dialogues) == len(records)
        for d, rec in zip(dialogues, records):
            fields = [*rec["history"], rec["incomplete"], rec["rewritten"]]
            utts = [*d.history, d.incomplete, d.rewritten]
            for u, field in zip(utts, fields, strict=True):
                assert u.tokens == tuple(tokenize(field))
                assert all(type(t) is str for t in u.tokens)


class TestSharedStrings:
    """A loaded corpus holds one string object per distinct token."""

    @pytest.mark.parametrize("fmt, text", [
        (DataFormat.CANONICAL_JSONL, "".join(
            json.dumps({"history": ["the cat sat", "a cat and the mat"],
                        "incomplete": incomplete, "rewritten": f"the cat {incomplete}"}) + "\n"
            for incomplete in ("sat there", "and then"))),
        (DataFormat.TAB_SEPARATED, "".join(
            f"the cat sat\ta cat and the mat\t{incomplete}\tthe cat {incomplete}\n"
            for incomplete in ("sat there", "and then"))),
    ], ids=["jsonl", "tsv"])
    def test_equal_tokens_are_one_object(self, tmp_path, fmt, text):
        p = tmp_path / "d.txt"
        p.write_text(text)
        dialogues = load_dialogues(p, fmt)
        tokens = [t for d in dialogues for u in (*d.history, d.incomplete, d.rewritten)
                  for t in u.tokens]
        # "cat" recurs across turns and records, "sat" and "and" across an
        # utterance and the other record's incomplete one; ``tokens`` keeps
        # every string alive, so distinct ids are distinct objects
        assert tokens.count("cat") == 2 * 3 and tokens.count("the") == 2 * 3
        assert len({id(t) for t in tokens}) == len(set(tokens))

    def test_parse_forms_are_the_utterance_tokens(self, tmp_path):
        data, parses = tmp_path / "d.jsonl", tmp_path / "p.conllu"
        data.write_text("".join(json.dumps({"history": ["who ate the cake"],
                                            "incomplete": incomplete}) + "\n"
                                for incomplete in ("Tom ate", "Ann ate")))
        parses.write_text("1\tTom\t2\tnsubj\n2\tate\t0\troot\n\n"
                          "1\tAnn\t2\tnsubj\n2\tate\t0\troot\n")
        dialogues, parsed = load_dialogues(data, DataFormat.CANONICAL_JSONL), read_conllu(parses)
        for d, parse in zip(dialogues, parsed, strict=True):
            assert all(f is t for f, t in zip(parse.forms, d.incomplete.tokens, strict=True))
        assert parsed[0].forms[1] is parsed[1].forms[1] is dialogues[0].history[0].tokens[1]
        assert parsed[0].deprels[0] is parsed[1].deprels[0]
        assert parsed[0].deprels[1] is parsed[1].deprels[1]


def test_record_types_have_no_instance_dict():
    """The per-record types are slotted: no per-instance ``__dict__``, so
    no attribute can be added to a record."""
    utt = Utterance(("a", "b"))
    dialogue = Dialogue((utt,), utt, utt)
    seq = build_input_sequence(utt, dialogue)
    records = [utt, dialogue, seq, QueryTemplate(("a",), KindSummary.COREF_ONLY),
               DependencyParse((0,), ("root",), ("a",)), AddedSpan(("a",), (0, 1)),
               EditSpan((0, 1), (0, 1)),
               TrainExample(seq, EditMatrix.from_cells(seq.context_length,
                                                       seq.incomplete_length + 1, []))]
    assert [type(r) for r in records] == [Utterance, Dialogue, InputSequence, QueryTemplate,
                                          DependencyParse, AddedSpan, EditSpan, TrainExample]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
        with pytest.raises(AttributeError):
            object.__setattr__(record, "extra", 1)


WORD = st.text(alphabet="ab汉[]", min_size=1, max_size=3)


def _dlg(history_texts, inc_texts, rew_texts=None):
    hist = tuple(Utterance.from_texts(h, i) for i, h in enumerate(history_texts))
    rew = Utterance.from_texts(rew_texts, len(hist)) if rew_texts else None
    return Dialogue(hist, Utterance.from_texts(inc_texts, len(hist)), rew)


class TestBuildInputSequence:
    def test_length_bookkeeping(self):
        d = _dlg([["h"] * 3, ["h"] * 4], ["i"] * 4)
        q = Utterance.from_texts(["q"] * 5, 0)
        seq = build_input_sequence(q, d)
        assert len(seq.tokens) == 17
        assert seq.sentinel_index == 16
        assert seq.query_range == (0, 5)
        assert seq.history_range == (5, 12)
        assert seq.incomplete_range == (12, 16)

    def test_empty_history(self):
        d = _dlg([], ["a", "b"])
        q = Utterance.from_texts(["q"], 0)
        seq = build_input_sequence(q, d)
        assert seq.history_range == (1, 1)
        assert seq.incomplete_range == (1, 3)

    def test_table1_incomplete_range_covers_7_tokens(self):
        h1 = Utterance.from_text("史密斯需要在附近找一家昂贵的餐馆。", speaker_turn=0)
        h2 = Utterance.from_text("史密斯关心菜肴的类型吗？", speaker_turn=1)
        inc = Utterance.from_text("不，他不关心。", speaker_turn=2)
        d = Dialogue((h1, h2), inc)
        q = build_query(inc, PronounLexicon.default("zh"), None, unify=True)
        seq = build_input_sequence(q, d)
        assert seq.incomplete_range[1] - seq.incomplete_range[0] == 7

    def test_preserves_texts_and_order(self):
        d = _dlg([["x", "y"]], ["a", "b"])
        q = Utterance.from_texts(["p"], 0)
        seq = build_input_sequence(q, d)
        assert seq.texts() == ["p", "x", "y", "a", "b", "[END]"]

    def test_range_arithmetic(self):
        d = _dlg([["x"], ["y", "z"]], ["a"])
        q = Utterance.from_texts(["p", "q"], 0)
        seq = build_input_sequence(q, d)
        spans = [seq.query_range, seq.history_range, seq.incomplete_range]
        assert sum(b - a for a, b in spans) + 1 == len(seq.tokens)

    @given(st.lists(WORD, max_size=5),
           st.lists(st.lists(WORD, max_size=4), max_size=4),
           st.lists(WORD, max_size=5))
    def test_concatenation_and_turn_intervals(self, query, history, incomplete):
        d = _dlg(history, incomplete)
        seq = build_input_sequence(Utterance.from_texts(query, 0), d)
        flat = [t for turn in history for t in turn]
        assert seq.texts() == query + flat + incomplete + ["[END]"]
        assert seq.query_range == (0, len(query))
        assert seq.history_range == (len(query), len(query) + len(flat))
        assert len(seq.history_turns) == len(history)
        for (a, b), turn in zip(seq.history_turns, history):
            assert seq.texts()[a:b] == turn
        assert seq.texts()[slice(*seq.incomplete_range)] == incomplete
