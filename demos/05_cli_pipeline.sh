#!/bin/sh
# End-to-end CLI walkthrough on a generated toy corpus:
# supervision -> training -> rewriting -> evaluation.
# Run from the repository root; without an installed package, set
# PYTHONPATH=src. PYTHON picks the interpreter (default python3).
set -e
py=${PYTHON:-python3}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$py" - "$work" <<'EOF'
import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).resolve().parent / "tests"))
sys.path.insert(0, "tests")
from synthetic import make_corpus, write_corpus_files
root = Path(sys.argv[1])
write_corpus_files(make_corpus(20, seed=1), root / "data.jsonl",
                   root / "parses.conllu", root / "lexicon.txt")
refs = [ex.dialogue.rewritten.text(" ") for ex in make_corpus(20, seed=1)]
(root / "refs.txt").write_text("\n".join(refs) + "\n")
EOF

cat > "$work/config.ini" <<EOF
data = $work/data.jsonl
lexicon = $work/lexicon.txt
parses = $work/parses.conllu
model = $work/model.bin
out = $work/supervision
lang = en
d_model = 16
d_head = 8
lr = 0.001
batch_size = 8
epochs = 150
seed = 0
EOF

"$py" -m iurkit.cli build-supervision --config "$work/config.ini"
"$py" -m iurkit.cli train --config "$work/config.ini"
"$py" -m iurkit.cli rewrite --config "$work/config.ini" --out "$work/hyp.jsonl"
"$py" -c "import json,sys
for line in open('$work/hyp.jsonl'):
    print(json.loads(line)['rewritten'])" > "$work/hyp.txt"
"$py" -m iurkit.cli evaluate "$work/hyp.txt" "$work/refs.txt"
"$py" -m iurkit.cli inspect-matrix 0 --config "$work/config.ini" \
    > "$work/inspect.json"
head -c 300 "$work/inspect.json"
echo
