"""Incomplete-utterance rewriting toolkit.

Pipeline: query-template construction -> LCS distant supervision ->
rotary token-pair scoring trained with a pairwise log-sum-exp loss ->
threshold decoding into edit spans -> edit application -> BLEU/ROUGE/EM
evaluation.
"""

from .datamodel import (DataFormat, Dialogue, InputSequence, Utterance,
                        build_input_sequence, load_dialogues, tokenize)
from .metrics import EvalResult, bleu, evaluate, exact_match, rouge_l, rouge_n
from .querygen import (DependencyParse, KindSummary, MarkerKind,
                       PronounLexicon, QueryTemplate, build_query,
                       detect_ellipsis, match_coref, read_conllu)
from .rewrite import (Diagnostics, EditSpan, apply_edits, cells_to_spans,
                      decode_labels, merge_matrices, resolve_conflicts,
                      rewrite)
from .scoring import (AdamState, EncoderParams, HeadParams, ModelParams,
                      ScoreGrid, TrainConfig, TrainExample, TrainingLog,
                      build_vocab, circle_loss, encode, grad, init_model,
                      load_model, project, read_ctxvec, rope_rotate,
                      save_model, score_all, score_grid, train,
                      with_imported_vectors, write_ctxvec)
from .supervision import (AddedSpan, EditMatrix, EditOp, SupervisionReport,
                          build_edit_matrix, diff_spans, lcs_align,
                          locate_in_context)

__version__ = "0.1.0"
