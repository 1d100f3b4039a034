"""Build query templates for an incomplete utterance.

A pronoun match produces a coreference template; when no pronoun is
found, the dependency parse decides where ellipsis markers go. Both
marker kinds can be rendered as a single unified [UNK] placeholder.
"""

from iurkit import DependencyParse, PronounLexicon, build_query
from iurkit.datamodel import Utterance

lexicon = PronounLexicon.default("zh")

# pronoun present: "他" becomes a coreference slot
inc = Utterance.from_text("不，他不关心。")
q = build_query(inc, lexicon, parse=None, unify=False)
print("coreference  :", " ".join(q.texts()))
q = build_query(inc, lexicon, parse=None, unify=True)
print("unified      :", " ".join(q.texts()))

# no pronoun: the parse says the subject is missing, so a marker is
# prepended (a missing object would append one instead)
inc = Utterance.from_text("考口语啊")
parse = DependencyParse((0, 1, 1, 1), ("root", "obj", "dep", "dep"),
                        tuple(inc.texts()))
q = build_query(inc, lexicon, parse, unify=False)
print("ellipsis     :", " ".join(q.texts()))
print("marker kinds :", q.kind_summary.value)
