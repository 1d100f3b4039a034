import re
from typing import Sequence

import pytest

from iurkit.datamodel import Utterance
from iurkit.querygen import (DependencyParse, KindSummary, MarkerKind,
                             PronounLexicon, build_query, coref_from_gold,
                             detect_ellipsis, match_coref, read_conllu)


def utt(text):
    return Utterance.from_text(text)


@pytest.fixture
def zh_lexicon():
    return PronounLexicon.default("zh")


class TestLexicon:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PronounLexicon(())

    def test_from_file_with_comments(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("# pronouns\n他\n她  # she\n\n", encoding="utf-8")
        lex = PronounLexicon.from_file(p)
        assert ("他",) in lex.entries and ("她",) in lex.entries

    def test_longest_first(self):
        lex = PronounLexicon.from_surface_forms(["这", "这样"])
        assert lex.longest_first()[0] == ("这", "样")


class TestMatchCoref:
    def test_paper_example(self, zh_lexicon):
        q = match_coref(utt("不，他不关心。"), zh_lexicon)
        assert q.texts() == ["不", "，", "[COREF]", "不", "关", "心", "。"]
        assert q.kind_summary is KindSummary.COREF_ONLY

    def test_no_pronoun_returns_none(self, zh_lexicon):
        assert match_coref(utt("李明曾经是"), zh_lexicon) is None

    def test_multiple_matches_left_to_right(self):
        lex = PronounLexicon.from_surface_forms(["她"])
        q = match_coref(utt("她说她来"), lex)
        assert q.texts() == ["[COREF]", "说", "[COREF]", "来"]
        assert [p for p, _ in q.markers] == [0, 2]

    def test_longest_entry_wins(self):
        lex = PronounLexicon.from_surface_forms(["这", "这样"])
        q = match_coref(utt("这样好"), lex)
        assert q.texts() == ["[COREF]", "好"]

    def test_coref_length_identity(self, zh_lexicon):
        inc = utt("不，他不关心。")
        q = match_coref(inc, zh_lexicon)
        consumed = 1  # "他"
        assert len(q.tokens) == len(inc) - consumed + len(q.markers)


class TestCorefFromGold:
    def test_gold_intervals(self):
        q = coref_from_gold(utt("不，他不关心。"), [(2, 3)])
        assert q.texts() == ["不", "，", "[COREF]", "不", "关", "心", "。"]

    def test_empty_intervals_returns_none(self):
        assert coref_from_gold(utt("abc"), []) is None


def parse_of(utterance, deprels):
    n = len(utterance)
    heads = tuple([0] + [1] * (n - 1))
    return DependencyParse(heads, tuple(deprels), tuple(utterance.texts()))


class TestDetectEllipsis:
    def test_missing_object_appends(self):
        inc = utt("李明曾经是")
        parse = parse_of(inc, ["root", "dep", "dep", "nsubj", "dep"][:len(inc)])
        q = detect_ellipsis(inc, parse)
        assert q.texts() == ["李", "明", "曾", "经", "是", "[ELLIP]"]

    def test_missing_subject_prepends(self):
        inc = utt("考口语啊")
        parse = parse_of(inc, ["root", "obj", "dep", "dep"])
        q = detect_ellipsis(inc, parse)
        assert q.texts()[0] == "[ELLIP]"
        assert q.texts()[1:] == ["考", "口", "语", "啊"]

    def test_missing_both_markers_both_ends(self):
        inc = utt("关心")
        parse = parse_of(inc, ["root", "dep"])
        q = detect_ellipsis(inc, parse)
        assert q.texts()[0] == "[ELLIP]" and q.texts()[-1] == "[ELLIP]"

    def test_full_svo_markers_both_ends(self):
        inc = utt("他关心类型")
        parse = parse_of(inc, ["nsubj", "root", "dep", "obj", "dep"])
        q = detect_ellipsis(inc, parse)
        assert q.texts()[0] == "[ELLIP]" and q.texts()[-1] == "[ELLIP]"

    def test_length_identity(self):
        inc = utt("关心")
        q = detect_ellipsis(inc, parse_of(inc, ["root", "dep"]))
        assert len(q.tokens) == len(inc) + len(q.markers)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length"):
            detect_ellipsis(utt("关心"), parse_of(utt("关"), ["root"]))

    def test_form_mismatch_names_first_token(self):
        with pytest.raises(ValueError, match="'爱' at token 1 .* '心'"):
            detect_ellipsis(utt("关心它"), parse_of(utt("关爱他"), ["root", "dep", "dep"]))


class TestBuildQuery:
    def test_unified_coref(self, zh_lexicon):
        q = build_query(utt("不，他不关心。"), zh_lexicon, None, unify=True)
        assert q.texts() == ["不", "，", "[UNK]", "不", "关", "心", "。"]
        assert q.markers[0][1] is MarkerKind.COREF
        assert q.unified

    def test_unified_ellipsis(self, zh_lexicon):
        inc = utt("李明曾经是")
        parse = parse_of(inc, ["dep", "dep", "dep", "nsubj", "root"])
        q = build_query(inc, zh_lexicon, parse, unify=True)
        assert q.texts() == ["李", "明", "曾", "经", "是", "[UNK]"]

    def test_coref_suppresses_ellipsis(self, zh_lexicon):
        # missing object, but the pronoun match wins: no [ELLIP] appended
        inc = utt("不，他不关心。")
        parse = parse_of(inc, ["dep", "dep", "nsubj", "dep", "root", "dep", "dep"])
        q = build_query(inc, zh_lexicon, parse, unify=False)
        assert q.texts() == ["不", "，", "[COREF]", "不", "关", "心", "。"]
        assert q.kind_summary is KindSummary.COREF_ONLY

    def test_never_mixes_marker_kinds(self, zh_lexicon):
        inc = utt("不，他不关心。")
        parse = parse_of(inc, ["dep"] * 7)
        for unify in (False, True):
            q = build_query(inc, zh_lexicon, parse, unify)
            kinds = {k for _, k in q.markers}
            assert len(kinds) == 1

    def test_no_parse_when_needed_raises(self, zh_lexicon):
        with pytest.raises(ValueError, match="parse"):
            build_query(utt("李明曾经是"), zh_lexicon, None, unify=True)

    def test_deterministic(self, zh_lexicon):
        a = build_query(utt("不，他不关心。"), zh_lexicon, None, True)
        b = build_query(utt("不，他不关心。"), zh_lexicon, None, True)
        assert a == b


class TestConllu:
    def test_four_column_subset(self, tmp_path):
        p = tmp_path / "p.conllu"
        p.write_text("1\t李\t2\tnsubj\n2\t是\t0\troot\n\n1\tx\t0\troot\n")
        parses = read_conllu(p)
        assert len(parses) == 2
        assert parses[0].heads == (2, 0)
        assert parses[0].deprels == ("nsubj", "root")

    def test_ten_column_standard(self, tmp_path):
        p = tmp_path / "p.conllu"
        line = "\t".join(["1", "he", "he", "PRON", "_", "_", "2", "nsubj", "_", "_"])
        line2 = "\t".join(["2", "ran", "run", "VERB", "_", "_", "0", "root", "_", "_"])
        p.write_text(f"# sent_id = 1\n{line}\n{line2}\n")
        (parse,) = read_conllu(p)
        assert parse.forms == ("he", "ran")
        assert parse.heads == (2, 0)

    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="cycle|root"):
            DependencyParse((2, 1), ("a", "b"), ("x", "y"))

    def test_rejects_two_roots(self):
        with pytest.raises(ValueError, match="root"):
            DependencyParse((0, 0), ("root", "root"), ("x", "y"))

    @pytest.mark.parametrize("trailing", ["", "\n"])
    def test_bad_sentence_names_file_and_sentence(self, tmp_path, trailing):
        p = tmp_path / "p.conllu"
        p.write_text("1\tx\t0\troot\n\n1\tx\t0\troot\n2\ty\t0\troot\n" + trailing)
        with pytest.raises(ValueError, match=re.escape(f"{p}: sentence 2: ") + ".*exactly one root"):
            read_conllu(p)


def heuristic_parse(incomplete: Utterance, verbs: Sequence[str]) -> DependencyParse:
    """Degraded-mode parse: the first known verb is the root; any pre-verbal
    token counts as subject, any post-verbal token as object."""
    texts = incomplete.texts()
    verb_set = set(verbs)
    v = next((i for i, t in enumerate(texts) if t in verb_set), None)
    heads = [0] * len(texts)
    deprels = ["dep"] * len(texts)
    if v is None:
        if texts:
            heads = [1] * len(texts)
            heads[0] = 0
            deprels[0] = "root"
    else:
        for i in range(len(texts)):
            heads[i] = v + 1
        heads[v] = 0
        deprels[v] = "root"
        if v > 0:
            deprels[0] = "nsubj"
        if v < len(texts) - 1:
            deprels[v + 1] = "obj"
    return DependencyParse(tuple(heads), tuple(deprels), tuple(texts))


class TestHeuristicParse:
    def test_sv_structure(self):
        inc = Utterance.from_text("Li was")
        parse = heuristic_parse(inc, ["was", "is"])
        assert "nsubj" in parse.deprels
        assert "obj" not in parse.deprels
