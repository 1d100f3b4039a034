import json

import pytest
from hypothesis import given, strategies as st

from iurkit.datamodel import (DataFormat, Dialogue, Role, Token, TokenizeMode,
                              Utterance, build_input_sequence, load_dialogues,
                              tokenize)
from iurkit.querygen import PronounLexicon, build_query


def texts(tokens):
    return [t.text for t in tokens]


class TestTokenize:
    def test_cjk_char_per_codepoint(self):
        assert texts(tokenize("他不关心", TokenizeMode.CHAR_CJK)) == ["他", "不", "关", "心"]

    def test_empty(self):
        assert tokenize("", TokenizeMode.CHAR_CJK) == []
        assert tokenize("", TokenizeMode.WHITESPACE_PUNCT) == []

    def test_whitespace_punct(self):
        # frozen from hand application of the splitting rule
        assert texts(tokenize("Who is she?", TokenizeMode.WHITESPACE_PUNCT)) == \
            ["Who", "is", "she", "?"]

    def test_cjk_groups_latin_runs(self):
        assert texts(tokenize("考IELTS口语", TokenizeMode.CHAR_CJK)) == \
            ["考", "IELTS", "口", "语"]

    def test_positions_consecutive(self):
        toks = tokenize("a b c", TokenizeMode.WHITESPACE_PUNCT)
        assert [t.position for t in toks] == [0, 1, 2]

    @given(st.text(alphabet="ab 汉字，。x3", max_size=30),
           st.sampled_from(list(TokenizeMode)))
    def test_idempotent_on_token_texts(self, s, mode):
        once = texts(tokenize(s, mode))
        again = texts(tokenize(" ".join(once), mode))
        assert once == again


class TestTokenInvariants:
    def test_rejects_empty_text(self):
        with pytest.raises(ValueError):
            Token("", 0)

    def test_rejects_negative_position(self):
        with pytest.raises(ValueError):
            Token("x", -1)


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

    def test_mixed_language_without_lang_errors(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(json.dumps({"history": ["hello there 世界"],
                                 "incomplete": "ok then"}) + "\n")
        with pytest.raises(ValueError, match="lang"):
            load_dialogues(p, DataFormat.CANONICAL_JSONL)

    def test_lang_field_selects_mode(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"history":[],"incomplete":"你好","lang":"zh"}\n')
        (d,) = load_dialogues(p, DataFormat.CANONICAL_JSONL)
        assert d.incomplete.texts() == ["你", "好"]


WORD = st.text(alphabet="ab汉[]", min_size=1, max_size=3)


def _dlg(history_texts, inc_texts, rew_texts=None):
    hist = tuple(Utterance.from_texts(h, i, Role.HISTORY)
                 for i, h in enumerate(history_texts))
    rew = Utterance.from_texts(rew_texts, len(hist)) if rew_texts else None
    return Dialogue(hist, Utterance.from_texts(inc_texts, len(hist)), rew)


class TestBuildInputSequence:
    def test_length_bookkeeping(self):
        d = _dlg([["h"] * 3, ["h"] * 4], ["i"] * 4)
        q = Utterance.from_texts(["q"] * 5, 0, Role.QUERY)
        seq = build_input_sequence(q, d)
        assert len(seq.tokens) == 17
        assert seq.sentinel_index == 16
        assert seq.query_range == (0, 5)
        assert seq.history_range == (5, 12)
        assert seq.incomplete_range == (12, 16)

    def test_empty_history(self):
        d = _dlg([], ["a", "b"])
        q = Utterance.from_texts(["q"], 0, Role.QUERY)
        seq = build_input_sequence(q, d)
        assert seq.history_range == (1, 1)
        assert seq.incomplete_range == (1, 3)

    def test_table1_incomplete_range_covers_7_tokens(self):
        mode = TokenizeMode.CHAR_CJK
        h1 = Utterance.from_text("史密斯需要在附近找一家昂贵的餐馆。", mode, 0, Role.HISTORY)
        h2 = Utterance.from_text("史密斯关心菜肴的类型吗？", mode, 1, Role.HISTORY)
        inc = Utterance.from_text("不，他不关心。", mode, 2)
        d = Dialogue((h1, h2), inc)
        q = build_query(inc, PronounLexicon.default("zh"), None, unify=True)
        seq = build_input_sequence(q, d)
        assert seq.incomplete_range[1] - seq.incomplete_range[0] == 7

    def test_preserves_texts_and_order(self):
        d = _dlg([["x", "y"]], ["a", "b"])
        q = Utterance.from_texts(["p"], 0, Role.QUERY)
        seq = build_input_sequence(q, d)
        assert seq.texts() == ["p", "x", "y", "a", "b", "[END]"]

    def test_range_arithmetic(self):
        d = _dlg([["x"], ["y", "z"]], ["a"])
        q = Utterance.from_texts(["p", "q"], 0, Role.QUERY)
        seq = build_input_sequence(q, d)
        spans = [seq.query_range, seq.history_range, seq.incomplete_range]
        assert sum(b - a for a, b in spans) + 1 == len(seq.tokens)

    @given(st.lists(WORD, max_size=5),
           st.lists(st.lists(WORD, max_size=4), max_size=4),
           st.lists(WORD, max_size=5))
    def test_concatenation_and_turn_intervals(self, query, history, incomplete):
        d = _dlg(history, incomplete)
        seq = build_input_sequence(Utterance.from_texts(query, 0, Role.QUERY), d)
        flat = [t for turn in history for t in turn]
        assert seq.texts() == query + flat + incomplete + ["[END]"]
        assert seq.query_range == (0, len(query))
        assert seq.history_range == (len(query), len(query) + len(flat))
        assert len(seq.history_turns) == len(history)
        for (a, b), turn in zip(seq.history_turns, history):
            assert seq.texts()[a:b] == turn
        assert seq.texts()[slice(*seq.incomplete_range)] == incomplete
