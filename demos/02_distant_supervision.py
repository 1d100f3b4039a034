"""Derive edit-operation supervision from a gold rewrite.

The incomplete and rewritten utterances are aligned by longest common
subsequence; tokens the rewrite adds are located in the dialogue history
and become labeled cells: Substitute rectangles over replaced intervals
and Pre-Insert stripes at insertion columns. Applying the decoded spans
must reproduce the gold rewrite exactly.
"""

from iurkit import (PronounLexicon, apply_edits, build_edit_matrix,
                    build_input_sequence, build_query, cells_to_spans,
                    resolve_conflicts)
from iurkit.datamodel import Dialogue, Role, TokenizeMode, Utterance

ZH = TokenizeMode.CHAR_CJK

history = (
    Utterance.from_text("史密斯需要在附近找一家昂贵的餐馆。", ZH, 0, Role.HISTORY),
    Utterance.from_text("史密斯关心菜肴的类型吗？", ZH, 1, Role.HISTORY),
)
dialogue = Dialogue(history,
                    Utterance.from_text("不，他不关心。", ZH, 2),
                    Utterance.from_text("不，史密斯不关心菜肴的类型。", ZH, 2),
                    "demo")

query = build_query(dialogue.incomplete, PronounLexicon.default("zh"),
                    parse=None, unify=True)
inp = build_input_sequence(query, dialogue)
matrix, report = build_edit_matrix(dialogue, inp)

print("input length     :", len(inp.tokens))
print("fully expressible:", report.fully_expressible)
for r, c, op in sorted(matrix.cells, key=lambda cell: (cell[1], cell[0])):
    print(f"  {op.value}  row {r:2d} ({inp.tokens[r]})  col {c}")

spans = resolve_conflicts(cells_to_spans(matrix))
out = apply_edits(dialogue.incomplete, spans, inp)
print("round trip       :", out.text())
assert out.texts() == dialogue.rewritten.texts()
