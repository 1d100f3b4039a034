import re
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from iurkit.datamodel import COREF_TOKEN, ELLIP_TOKEN, UNK_TOKEN, Utterance
from iurkit.querygen import (OBJECT_LABELS, SUBJECT_LABELS, DependencyParse,
                             KindSummary, MarkerKind, PronounLexicon, QueryTemplate,
                             build_query, coref_from_gold, detect_ellipsis,
                             match_coref, read_conllu)


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

    def test_comments_only_file_is_named(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("# pronouns\n\n  # none yet\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{p}: pronoun lexicon must be")):
            PronounLexicon.from_file(p)

    def test_longest_first(self):
        lex = PronounLexicon.from_surface_forms(["这", "这样"])
        assert match_coref(utt("这样"), lex).markers == ((0, MarkerKind.COREF),)


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

    @pytest.mark.parametrize("intervals, named", [
        ([(1, 1)], "gold interval (1, 1) is empty"),
        ([(2, 1)], "gold interval (2, 1) is empty"),
        ([(0, 2), (1, 3)], "slot (1, 3) is unsorted, overlapping or out of range"),
        ([(0, 2), (0, 1)], "slot (0, 1) is unsorted, overlapping or out of range"),
        ([(2, 3), (0, 1)], "slot (0, 1) is unsorted, overlapping or out of range"),
        ([(1, 4)], "slot (1, 4) is unsorted, overlapping or out of range for 3 tokens"),
        ([(-1, 1)], "slot (-1, 1) is unsorted, overlapping or out of range")])
    @pytest.mark.parametrize("via", ["coref_from_gold", "build_query"])
    def test_bad_interval_is_named(self, intervals, named, via):
        inc = Utterance(("a", "b", "c"))
        with pytest.raises(ValueError, match=re.escape(named)):
            if via == "coref_from_gold":
                coref_from_gold(inc, intervals)
            else:
                build_query(inc, PronounLexicon.default("en"), None, True, intervals)

    def test_adjacent_intervals(self):
        q = coref_from_gold(Utterance(("a", "b", "c")), [(0, 1), (1, 3)])
        assert q.texts() == ["[COREF]", "[COREF]"]
        assert q.markers == ((0, MarkerKind.COREF), (1, MarkerKind.COREF))


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


# Reference copies of the loop-built templates that the slot placer
# replaced, kept as an oracle for the property below.

def ref_match_coref(incomplete: Utterance, lexicon: PronounLexicon) -> Optional[QueryTemplate]:
    texts = incomplete.texts()
    entries = sorted(lexicon.entries, key=lambda e: (-len(e), e))
    out: list[str] = []
    markers: list[tuple[int, MarkerKind]] = []
    i = 0
    while i < len(texts):
        hit = None
        for entry in entries:
            if tuple(texts[i:i + len(entry)]) == entry:
                hit = entry
                break
        if hit is not None:
            markers.append((len(out), MarkerKind.COREF))
            out.append(COREF_TOKEN)
            i += len(hit)
        else:
            out.append(texts[i])
            i += 1
    if not markers:
        return None
    return QueryTemplate(tuple(out), tuple(markers), KindSummary.COREF_ONLY)


def ref_coref_from_gold(incomplete: Utterance, replace_intervals: Sequence[tuple[int, int]]
                        ) -> Optional[QueryTemplate]:
    if not replace_intervals:
        return None
    texts = incomplete.texts()
    replaced = sorted(replace_intervals)
    out: list[str] = []
    markers: list[tuple[int, MarkerKind]] = []
    i = 0
    while i < len(texts):
        interval = next((iv for iv in replaced if iv[0] == i), None)
        if interval is not None:
            markers.append((len(out), MarkerKind.COREF))
            out.append(COREF_TOKEN)
            i = interval[1]
        else:
            out.append(texts[i])
            i += 1
    return QueryTemplate(tuple(out), tuple(markers), KindSummary.COREF_ONLY)


def ref_detect_ellipsis(incomplete: Utterance, parse: DependencyParse) -> QueryTemplate:
    texts = incomplete.texts()
    has_subj = any(d in SUBJECT_LABELS for d in parse.deprels)
    has_obj = any(d in OBJECT_LABELS for d in parse.deprels)
    at_begin = not has_subj or (has_subj and has_obj)
    at_end = not has_obj or (has_subj and has_obj)
    markers: list[tuple[int, MarkerKind]] = []
    out: list[str] = []
    if at_begin:
        markers.append((0, MarkerKind.ELLIP))
        out.append(ELLIP_TOKEN)
    out.extend(texts)
    if at_end:
        markers.append((len(out), MarkerKind.ELLIP))
        out.append(ELLIP_TOKEN)
    return QueryTemplate(tuple(out), tuple(markers), KindSummary.ELLIPSIS_ONLY)


def ref_unify(template: QueryTemplate) -> QueryTemplate:
    marker_positions = {p for p, _ in template.markers}
    toks = tuple(UNK_TOKEN if i in marker_positions else t
                 for i, t in enumerate(template.tokens))
    return QueryTemplate(toks, template.markers, template.kind_summary, unified=True)


def fields_of(template: Optional[QueryTemplate]):
    if template is None:
        return None
    return template.tokens, template.markers, template.kind_summary, template.unified


ALPHABET = ["a", "b", "c"]
DEPRELS = ["root", "dep", "nsubj", "SBV", "obj", "VOB"]


@st.composite
def query_inputs(draw):
    tokens = draw(st.lists(st.sampled_from(ALPHABET), max_size=9))
    entries = draw(st.lists(st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=3)
                            .map(" ".join), min_size=1, max_size=5))
    deprels = draw(st.lists(st.sampled_from(DEPRELS), min_size=len(tokens),
                            max_size=len(tokens)))
    parse = DependencyParse(tuple([0] + [1] * (len(tokens) - 1))[:len(tokens)],
                            tuple(deprels), tuple(tokens))
    gold, pos = [], 0  # disjoint, non-empty, possibly adjacent
    for gap, length in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3)),
                                     max_size=4)):
        if pos + gap + length > len(tokens):
            break
        gold.append((pos + gap, pos + gap + length))
        pos += gap + length
    return (Utterance(tuple(tokens)), PronounLexicon.from_surface_forms(entries),
            parse, gold, draw(st.booleans()))


@given(query_inputs())
@settings(max_examples=300, deadline=None)
def test_slot_placer_equals_loop_built_templates(case):
    inc, lexicon, parse, gold, unify = case
    assert fields_of(match_coref(inc, lexicon)) == fields_of(ref_match_coref(inc, lexicon))
    assert fields_of(coref_from_gold(inc, gold)) == fields_of(ref_coref_from_gold(inc, gold))
    assert fields_of(detect_ellipsis(inc, parse)) == fields_of(ref_detect_ellipsis(inc, parse))
    for gold_arg in (None, gold):
        # empty gold falls back to the lexicon, as the command line always did
        want = (ref_coref_from_gold(inc, gold_arg) if gold_arg
                else ref_match_coref(inc, lexicon)) or ref_detect_ellipsis(inc, parse)
        got = build_query(inc, lexicon, parse, unify, gold_replace_intervals=gold_arg)
        assert fields_of(got) == fields_of(ref_unify(want) if unify else want)
