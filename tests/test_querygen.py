import re
from typing import Sequence

import pytest
from hypothesis import example, given, settings, strategies as st

from iurkit.datamodel import COREF_TOKEN, ELLIP_TOKEN, UNK_TOKEN, Utterance
from iurkit.querygen import (OBJECT_LABELS, SUBJECT_LABELS, DependencyParse,
                             KindSummary, PronounLexicon, QueryTemplate,
                             _lexicon_slots, build_query, read_conllu)

MARKERS = (COREF_TOKEN, ELLIP_TOKEN, UNK_TOKEN)
# matches nothing in the test utterances, so build_query takes the parse path
NO_MATCH = PronounLexicon.from_surface_forms(["zzz"])


def utt(text):
    return Utterance.from_text(text)


def markers_of(template):
    """(index, token) of each marker, read from the template's tokens."""
    return [(i, t) for i, t in enumerate(template.tokens) if t in MARKERS]


def ellipsis(incomplete, parse):
    return build_query(incomplete, NO_MATCH, parse, False)


def from_gold(incomplete, intervals):
    return build_query(incomplete, NO_MATCH, None, False, intervals)


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
        assert build_query(utt("这样"), lex, None, False).tokens == (COREF_TOKEN,)


def brute_force_slots(tokens, entries):
    """Scan left to right; at each position try every entry, longest first,
    and after a match go on past it."""
    slots, i = [], 0
    while i < len(tokens):
        for e in sorted(entries, key=len, reverse=True):
            if tuple(tokens[i:i + len(e)]) == e:
                slots.append((i, i + len(e)))
                i += len(e)
                break
        else:
            i += 1
    return slots


@given(st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=3).map(tuple),
                min_size=1, max_size=6),
       st.lists(st.sampled_from("abcd"), max_size=12))
@example([("a", "b"), ("a", "c", "d"), ("a",)], list("acdabaxa"))  # one first token
@settings(max_examples=300, deadline=None)
def test_lexicon_slots_equal_brute_force(entries, tokens):
    """``_lexicon_slots``, which tries only positions whose token starts an
    entry, finds the matches of a scan of every position."""
    lexicon = PronounLexicon(tuple(entries))
    assert _lexicon_slots(Utterance(tuple(tokens)), lexicon) == \
        brute_force_slots(tokens, set(entries))


class TestMatchCoref:
    def test_paper_example(self, zh_lexicon):
        q = build_query(utt("不，他不关心。"), zh_lexicon, None, False)
        assert q.texts() == ["不", "，", "[COREF]", "不", "关", "心", "。"]
        assert q.kind_summary is KindSummary.COREF_ONLY

    def test_no_pronoun_falls_back_to_ellipsis(self, zh_lexicon):
        inc = utt("李明曾经是")
        q = build_query(inc, zh_lexicon, parse_of(inc, ["root"] + ["dep"] * 4), False)
        assert q.kind_summary is KindSummary.ELLIPSIS_ONLY
        assert COREF_TOKEN not in q.tokens

    def test_multiple_matches_left_to_right(self):
        lex = PronounLexicon.from_surface_forms(["她"])
        q = build_query(utt("她说她来"), lex, None, False)
        assert q.texts() == ["[COREF]", "说", "[COREF]", "来"]
        assert [p for p, _ in markers_of(q)] == [0, 2]

    def test_longest_entry_wins(self):
        lex = PronounLexicon.from_surface_forms(["这", "这样"])
        q = build_query(utt("这样好"), lex, None, False)
        assert q.texts() == ["[COREF]", "好"]

    def test_coref_length_identity(self, zh_lexicon):
        inc = utt("不，他不关心。")
        q = build_query(inc, zh_lexicon, None, False)
        consumed = 1  # "他"
        assert len(q.tokens) == len(inc) - consumed + len(markers_of(q))


class TestCorefFromGold:
    def test_gold_intervals(self):
        q = from_gold(utt("不，他不关心。"), [(2, 3)])
        assert q.texts() == ["不", "，", "[COREF]", "不", "关", "心", "。"]
        assert q.kind_summary is KindSummary.COREF_ONLY

    def test_empty_intervals_fall_back_to_lexicon(self):
        lex = PronounLexicon.from_surface_forms(["b"])
        q = build_query(Utterance(("a", "b", "c")), lex, None, False, [])
        assert q.texts() == ["a", "[COREF]", "c"]

    @pytest.mark.parametrize("intervals, named", [
        ([(1, 1)], "gold interval (1, 1) is empty"),
        ([(2, 1)], "gold interval (2, 1) is empty"),
        ([(0, 2), (1, 3)], "slot (1, 3) is unsorted, overlapping or out of range"),
        ([(0, 2), (0, 1)], "slot (0, 1) is unsorted, overlapping or out of range"),
        ([(2, 3), (0, 1)], "slot (0, 1) is unsorted, overlapping or out of range"),
        ([(1, 4)], "slot (1, 4) is unsorted, overlapping or out of range for 3 tokens"),
        ([(-1, 1)], "slot (-1, 1) is unsorted, overlapping or out of range")])
    @pytest.mark.parametrize("via", ["build_query_with_parse", "build_query"])
    def test_bad_interval_is_named(self, intervals, named, via):
        # a parse that could place [ELLIP] slots does not hide a bad gold interval
        inc = Utterance(("a", "b", "c"))
        parse = None if via == "build_query" else parse_of(inc, ["root", "dep", "dep"])
        with pytest.raises(ValueError, match=re.escape(named)):
            build_query(inc, PronounLexicon.default("en"), parse, True, intervals)

    def test_adjacent_intervals(self):
        q = from_gold(Utterance(("a", "b", "c")), [(0, 1), (1, 3)])
        assert q.texts() == ["[COREF]", "[COREF]"]
        assert markers_of(q) == [(0, COREF_TOKEN), (1, COREF_TOKEN)]


def parse_of(utterance, deprels):
    n = len(utterance)
    heads = tuple([0] + [1] * (n - 1))
    return DependencyParse(heads, tuple(deprels), tuple(utterance.texts()))


class TestDetectEllipsis:
    def test_missing_object_appends(self):
        inc = utt("李明曾经是")
        parse = parse_of(inc, ["root", "dep", "dep", "nsubj", "dep"][:len(inc)])
        q = ellipsis(inc, parse)
        assert q.texts() == ["李", "明", "曾", "经", "是", "[ELLIP]"]

    def test_missing_subject_prepends(self):
        inc = utt("考口语啊")
        parse = parse_of(inc, ["root", "obj", "dep", "dep"])
        q = ellipsis(inc, parse)
        assert q.texts()[0] == "[ELLIP]"
        assert q.texts()[1:] == ["考", "口", "语", "啊"]

    def test_missing_both_markers_both_ends(self):
        inc = utt("关心")
        parse = parse_of(inc, ["root", "dep"])
        q = ellipsis(inc, parse)
        assert q.texts()[0] == "[ELLIP]" and q.texts()[-1] == "[ELLIP]"

    def test_full_svo_markers_both_ends(self):
        inc = utt("他关心类型")
        parse = parse_of(inc, ["nsubj", "root", "dep", "obj", "dep"])
        q = ellipsis(inc, parse)
        assert q.texts()[0] == "[ELLIP]" and q.texts()[-1] == "[ELLIP]"

    def test_length_identity(self):
        inc = utt("关心")
        q = ellipsis(inc, parse_of(inc, ["root", "dep"]))
        assert len(q.tokens) == len(inc) + len(markers_of(q))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length"):
            ellipsis(utt("关心"), parse_of(utt("关"), ["root"]))

    def test_form_mismatch_names_first_token(self):
        with pytest.raises(ValueError, match="'爱' at token 1 .* '心'"):
            ellipsis(utt("关心它"), parse_of(utt("关爱他"), ["root", "dep", "dep"]))


class TestBuildQuery:
    def test_unified_coref(self, zh_lexicon):
        q = build_query(utt("不，他不关心。"), zh_lexicon, None, unify=True)
        assert q.texts() == ["不", "，", "[UNK]", "不", "关", "心", "。"]
        assert q.kind_summary is KindSummary.COREF_ONLY

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
        q = build_query(inc, zh_lexicon, parse, False)
        assert {t for _, t in markers_of(q)} == {COREF_TOKEN}
        unified = build_query(inc, zh_lexicon, parse, True)
        assert markers_of(unified) == [(i, UNK_TOKEN) for i, _ in markers_of(q)]

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

    @pytest.mark.parametrize("ids, line, token_id, expected", [
        (("2", "1"), 1, "2", 1), (("1", "3"), 2, "3", 2), (("x", "2"), 1, "x", 1)],
        ids=["swapped", "skipped", "non-integer"])
    def test_token_id_must_be_next_integer(self, tmp_path, ids, line, token_id, expected):
        p = tmp_path / "p.conllu"
        p.write_text(f"{ids[0]}\ta\t0\troot\n{ids[1]}\tb\t1\tobj\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{p}: line {line}: token id '{token_id}', expected {expected}")):
            read_conllu(p)

    @pytest.mark.parametrize("width", [3, 5, 9, 11])
    def test_other_column_counts_rejected(self, tmp_path, width):
        # an 11-column line once loaded as if it had 10
        cols = ["1", "a", "a", "X", "_", "_", "0", "root", "_", "_", "extra"]
        p = tmp_path / "p.conllu"
        p.write_text("1\ta\t0\troot\n\n" + "\t".join((cols * 2)[:width]) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{p}: line 3: expected 4 or 10 columns")):
            read_conllu(p)

    @pytest.mark.parametrize("brk", ["\u2028", "\x1c", "\x85", "\f"])
    def test_line_break_in_comment_is_not_a_new_line(self, tmp_path, brk):
        """Lines break at "\\n" only: a comment holding another break is one
        line, and a bad line after it is named by its own number."""
        p = tmp_path / "p.conllu"
        text = f"# text = he{brk}ran\n1\the\t2\tnsubj\n2\tran\t0\troot\n"
        p.write_text(text, encoding="utf-8")
        (parse,) = read_conllu(p)
        assert parse.forms == ("he", "ran")
        p.write_text(text + "3\tbad\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"{p}: line 4: expected 4 or 10 columns")):
            read_conllu(p)

    def test_ranges_and_empty_nodes_skipped(self, tmp_path):
        p = tmp_path / "p.conllu"
        p.write_text("1-2\tab\t_\t_\n1\ta\t0\troot\n1.1\te\t_\t_\n2\tb\t1\tobj\n")
        (parse,) = read_conllu(p)
        assert parse.forms == ("a", "b") and parse.heads == (0, 1)

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
# replaced, kept as an oracle for the property below. Each returns
# ``(tokens, kind_summary)``, the lexicon and gold ones None without a slot.

def ref_lexicon_template(incomplete: Utterance, lexicon: PronounLexicon):
    texts = incomplete.texts()
    entries = sorted(lexicon.entries, key=lambda e: (-len(e), e))
    out: list[str] = []
    i = 0
    while i < len(texts):
        hit = None
        for entry in entries:
            if tuple(texts[i:i + len(entry)]) == entry:
                hit = entry
                break
        if hit is not None:
            out.append(COREF_TOKEN)
            i += len(hit)
        else:
            out.append(texts[i])
            i += 1
    if COREF_TOKEN not in out:
        return None
    return tuple(out), KindSummary.COREF_ONLY


def ref_gold_template(incomplete: Utterance, replace_intervals: Sequence[tuple[int, int]]):
    if not replace_intervals:
        return None
    texts = incomplete.texts()
    replaced = sorted(replace_intervals)
    out: list[str] = []
    i = 0
    while i < len(texts):
        interval = next((iv for iv in replaced if iv[0] == i), None)
        if interval is not None:
            out.append(COREF_TOKEN)
            i = interval[1]
        else:
            out.append(texts[i])
            i += 1
    return tuple(out), KindSummary.COREF_ONLY


def ref_ellipsis_template(incomplete: Utterance, parse: DependencyParse):
    texts = incomplete.texts()
    has_subj = any(d in SUBJECT_LABELS for d in parse.deprels)
    has_obj = any(d in OBJECT_LABELS for d in parse.deprels)
    at_begin = not has_subj or (has_subj and has_obj)
    at_end = not has_obj or (has_subj and has_obj)
    out = [ELLIP_TOKEN] * at_begin + texts + [ELLIP_TOKEN] * at_end
    return tuple(out), KindSummary.ELLIPSIS_ONLY


def ref_unify(template):
    """Unified markers are exactly the [UNK] tokens (the test alphabet has
    no marker-like token)."""
    tokens, kind = template
    return tuple(UNK_TOKEN if t in (COREF_TOKEN, ELLIP_TOKEN) else t for t in tokens), kind


def fields_of(template: QueryTemplate):
    return template.tokens, template.kind_summary


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
    assert fields_of(ellipsis(inc, parse)) == ref_ellipsis_template(inc, parse)
    for gold_arg in (None, gold):
        # empty gold falls back to the lexicon, as the command line always did
        want = (ref_gold_template(inc, gold_arg) if gold_arg
                else ref_lexicon_template(inc, lexicon)) or ref_ellipsis_template(inc, parse)
        got = build_query(inc, lexicon, parse, unify, gold_replace_intervals=gold_arg)
        assert fields_of(got) == (ref_unify(want) if unify else want)
