"""Edit-operation scoring network.

A pluggable encoder (trainable embedding table with an optional single
self-attention + feed-forward mixer block, or imported per-token
contextual vectors) feeds per-operation linear projections. Query/key
vectors are rotated by position (rotary embedding) before the dot
product, so scores depend only on relative position. Training minimizes
a pairwise log-sum-exp loss that pushes labeled cells above zero and the
rest below, with hand-derived reverse-mode gradients and bias-corrected
Adam.

Parameters are kept at float32 precision (in one float64 vector whose
views are the named tensors, quantized after every update) so checkpoints
round-trip bit-exactly; all arithmetic runs in float64.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import struct
from dataclasses import dataclass, field
from itertools import accumulate, islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .datamodel import COREF_TOKEN, ELLIP_TOKEN, END_TOKEN, UNK_TOKEN, Dialogue, InputSequence
from .supervision import OPS, EditMatrix, EditOp

UNK_ID = 0


class TrainingDiverged(ValueError):
    """The loss became non-finite: a hyperparameter problem, not a bug."""


# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class MixerParams:
    """Single pre-softmax self-attention block plus a two-layer relu FFN,
    both with residual connections (no layer norm)."""

    wq: np.ndarray  # (d, d)
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray  # (d, d_ff)
    b1: np.ndarray  # (d_ff,)
    w2: np.ndarray  # (d_ff, d)
    b2: np.ndarray  # (d,)


@dataclass
class EncoderParams:
    vocab: dict[str, int]
    embedding: np.ndarray  # (|V|, d_model)
    mixer: Optional[MixerParams] = None
    # when set, ``encode`` serves these vectors instead of the embedding
    imported: Optional[dict[str, np.ndarray]] = None

    @property
    def d_model(self) -> int:
        return self.embedding.shape[1]

    def token_ids(self, texts: Sequence[str]) -> np.ndarray:
        return np.array([self.vocab.get(t, UNK_ID) for t in texts], dtype=np.intp)


@dataclass
class OpHead:
    """Separate q-side and k-side affine projections for one edit operation."""

    wq: np.ndarray  # (d_out, d_model)
    bq: np.ndarray  # (d_out,)
    wk: np.ndarray
    bk: np.ndarray


@dataclass
class HeadParams:
    """Every edit operation's ``OpHead``, stacked in ``OPS`` order (leading
    axis) so one call per side projects every operation. ``per_op`` hands
    out views of these arrays: update them in place."""

    wq: np.ndarray  # (n_ops, d_out, d_model)
    bq: np.ndarray  # (n_ops, d_out)
    wk: np.ndarray
    bk: np.ndarray

    @property
    def d_out(self) -> int:
        return self.bq.shape[1]

    @property
    def per_op(self) -> dict[EditOp, OpHead]:
        return {op: OpHead(self.wq[o], self.bq[o], self.wk[o], self.bk[o])
                for o, op in enumerate(OPS)}

    @property
    def size(self) -> int:
        return sum(a.size for a in (self.wq, self.bq, self.wk, self.bk))

    def views_of(self, vec: np.ndarray) -> "HeadParams":
        """These tensors' places in ``vec``, a vector in ``ModelParams.flat``'s
        layout, whose tail holds the heads one operation to a row."""
        rows = vec[len(vec) - self.size:].reshape(len(OPS), -1)
        return HeadParams(*_views(rows, [a.shape[1:] for a in
                                         (self.wq, self.bq, self.wk, self.bk)]))


@dataclass
class ModelParams:
    encoder: EncoderParams
    head: HeadParams
    flat: np.ndarray  # the trainable parameters: ``params_items`` are views of it

    def __deepcopy__(self, memo) -> "ModelParams":
        """A copy whose tensors are views of its own copy of ``flat``."""
        enc, mix = self.encoder, self.encoder.mixer
        model = _build_model(enc.vocab, enc.d_model, self.head.d_out, mix is not None,
                             len(mix.b1) if mix else None, lambda *shape: np.zeros(shape))
        model.encoder.embedding[...] = enc.embedding  # outside ``flat`` if imported
        model.flat[-self.flat.size:] = self.flat
        return model if enc.imported is None else with_imported_vectors(
            model, {k: v.copy() for k, v in enc.imported.items()})


@dataclass
class TrainConfig:
    learning_rate: float = 1e-5
    batch_size: int = 16
    epochs: int = 1
    theta: float = 0.1  # 0.1 preset; 0.05 for the longer-context presets
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("batch_size", "epochs", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name, ok, rule in (("learning_rate", self.learning_rate > 0, "positive"),
                               ("batch_size", self.batch_size > 0, "positive"),
                               ("epochs", self.epochs >= 0, "non-negative"),
                               ("seed", self.seed >= 0, "non-negative")):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass(frozen=True)
class TrainExample:
    input: InputSequence
    gold: EditMatrix
    example_id: str = ""
    dialogue: Optional[Dialogue] = None


@dataclass
class TrainingLog:
    epoch_losses: list[float] = field(default_factory=list)
    dev_em: list[float] = field(default_factory=list)
    start_epoch: int = 0

    def to_json(self) -> str:
        return json.dumps({"start_epoch": self.start_epoch,
                           "epoch_losses": self.epoch_losses,
                           "dev_em": self.dev_em})


# ---------------------------------------------------------------------------
# initialization

def _q32(a: np.ndarray) -> np.ndarray:
    """Quantize to float32 values held in a float64 array (see module note)."""
    return a.astype(np.float32).astype(np.float64)


def build_vocab(inputs: Iterable[InputSequence]) -> dict[str, int]:
    reserved = [UNK_TOKEN, END_TOKEN, COREF_TOKEN, ELLIP_TOKEN]
    seen = set(reserved)
    extra = sorted({t for inp in inputs for t in inp.tokens} - seen)
    return {t: i for i, t in enumerate(reserved + extra)}


def _views(vec: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """``vec`` cut along its last axis into views shaped ``vec.shape[:-1] +
    shape``, one per shape in turn; a -1 in the last shape takes the rest."""
    c = [0, *accumulate(math.prod(s) for s in shapes[:-1]), None]  # cut points
    return [vec[..., a:b].reshape(vec.shape[:-1] + s) for a, b, s in zip(c, c[1:], shapes)]


def _build_model(vocab: dict[str, int], d_model: int, d_head: int, mixer: bool,
                 d_ff: Optional[int], fill) -> ModelParams:
    """The one statement of the model's tensors and their shapes. Every
    weight is ``fill(*shape)``, called in this order; biases start at zero.
    All are views of ``flat`` in ``params_items`` order; each head is a row
    in ``OPS`` order, but Substitute's are filled first (a seeded init's draws)."""
    for name, width in (("d_model", d_model), ("d_head", d_head)):
        if width <= 0 or width % 2:
            raise ValueError(f"{name} must be positive and even")
    body = [fill(len(vocab), d_model)]
    if mixer:
        if d_ff <= 0:
            raise ValueError("d_ff must be positive")
        body += [*(fill(d_model, d_model) for _ in range(4)), fill(d_model, d_ff),
                 np.zeros(d_ff), fill(d_ff, d_model), np.zeros(d_model)]
    heads = {op: [fill(d_head, d_model), np.zeros(d_head), fill(d_head, d_model),
                  np.zeros(d_head)] for op in (EditOp.SUBSTITUTE, EditOp.PRE_INSERT)}
    flat = np.concatenate([a.ravel() for a in body + [a for op in OPS for a in heads[op]]])
    emb, *mix, rows = _views(flat, [a.shape for a in body] + [(len(OPS), -1)])
    head = HeadParams(*_views(rows, [a.shape for a in heads[EditOp.SUBSTITUTE]]))
    enc = EncoderParams(dict(vocab), emb, MixerParams(*mix) if mix else None)
    return ModelParams(encoder=enc, head=head, flat=flat)


def init_model(vocab: dict[str, int], d_model: int, d_head: int, seed: int = 0,
               mixer: bool = False) -> ModelParams:
    """Uniform init scaled by 1/sqrt(d_model); biases zero; seed-controlled.

    ``d_head`` is the width of each operation's q/k projection, which the
    rotary embedding rotates as a whole. The mixer's ``d_ff`` is 2 * d_model.
    """
    rng = np.random.default_rng(seed)

    def u(*shape):
        s = 1.0 / np.sqrt(d_model)  # after _build_model has checked d_model
        return _q32(rng.uniform(-s, s, size=shape))

    return _build_model(vocab, d_model, d_head, mixer, 2 * d_model, u)


def params_items(model: ModelParams, vec: Optional[np.ndarray] = None
                 ) -> list[tuple[str, np.ndarray]]:
    """Trainable tensors in a fixed order (the declared serialization order
    and their order in ``model.flat``); given ``vec``, a vector in that
    layout such as ``grad``'s, the same names for views of ``vec``."""
    items: list[tuple[str, np.ndarray]] = []
    if model.encoder.imported is None:
        items.append(("emb", model.encoder.embedding))
        if model.encoder.mixer is not None:
            items += [(f"mixer.{k}", a) for k, a in vars(model.encoder.mixer).items()]
    items += [(f"head.{op.value}.{k}", a) for op, h in model.head.per_op.items()
              for k, a in vars(h).items()]
    if vec is not None:
        items = list(zip([n for n, _ in items], _views(vec, [a.shape for _, a in items])))
    return items


# ---------------------------------------------------------------------------
# forward pieces


# Inputs per padded forward pass in ``score_batch``. Larger chunks pay the
# per-call numpy cost less often, but a chunk of ~200-row inputs then
# outgrows the CPU's L2 cache and holds more memory.
INFERENCE_CHUNK = 8
# Input tokens per padded forward and backward pass in ``grad``: enough for
# a batch of short inputs, two ~200-token ones at a time.
TRAIN_CHUNK_TOKENS = 512

# Rotary factors for positions 0..n-1, one table per rotary width, shared by
# every ``_forward``/``_backward`` call and grown by doubling.
_ROPE_FIRST_ROWS = 64
_rope_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rope_factors(pos, d: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of pos * omega_m, each repeated over pair m (full width)."""
    omega = 10000.0 ** (-2.0 * np.arange(d // 2) / d)
    ang = np.multiply.outer(np.asarray(pos, dtype=np.float64), omega)
    return np.repeat(np.cos(ang), 2, axis=-1), np.repeat(np.sin(ang), 2, axis=-1)


def _build_rope_table(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    cos, sin = _rope_factors(np.arange(n), d)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


def _rope_table(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The cached factors of width ``d`` for at least positions 0..n-1."""
    table = _rope_tables.get(d)
    if table is None or len(table[0]) < n:
        rows = len(table[0]) if table is not None else _ROPE_FIRST_ROWS
        while rows < n:
            rows *= 2
        table = _rope_tables[d] = _build_rope_table(d, rows)
    return table


def _rotate(v: np.ndarray, cos: np.ndarray, sin: np.ndarray,
            inverse: bool = False) -> np.ndarray:
    """v * cos + swap(v) * sin, where swap maps each pair (e, o) to (-o, e);
    the inverse rotation subtracts. Per pair this is (e cos - o sin,
    o cos + e sin) bit for bit, since -(o sin) is exact."""
    out = np.empty_like(v)
    np.negative(v[..., 1::2], out=out[..., 0::2])
    out[..., 1::2] = v[..., 0::2]
    out *= sin
    return (np.subtract if inverse else np.add)(v * cos, out, out=out)


def rope_rotate(v: np.ndarray, pos) -> np.ndarray:
    """Rotate consecutive pairs (2m, 2m+1) by angle pos * 10000^(-2m/d).

    ``pos`` may be a scalar or an array matching the leading shape of ``v``;
    negative positions undo the corresponding forward rotation. Shares
    ``_rotate`` with ``_forward``/``_backward``, which read the factors of
    positions 0, 1, ... from a cached table instead of computing them.
    """
    v = np.asarray(v, dtype=np.float64)
    d = v.shape[-1]
    if d % 2:
        raise ValueError("rotary dimension must be even")
    return _rotate(v, *_rope_factors(pos, d))


def _mixer_forward(x: np.ndarray, p: MixerParams):
    d = x.shape[1]
    q, k, v = x @ p.wq, x @ p.wk, x @ p.wv
    z = q @ k.T / np.sqrt(d)
    z -= z.max(axis=1, keepdims=True)
    a = np.exp(z)
    a /= a.sum(axis=1, keepdims=True)
    av = a @ v
    x1 = x + av @ p.wo
    pre = x1 @ p.w1 + p.b1
    f = np.maximum(pre, 0.0)
    x2 = x1 + f @ p.w2 + p.b2
    cache = (x, q, k, v, a, av, x1, pre, f)
    return x2, cache


def _mixer_backward(dx2: np.ndarray, p: MixerParams, cache, grads: dict):
    x, q, k, v, a, av, x1, pre, f = cache
    d = x.shape[1]
    grads["mixer.w2"] += f.T @ dx2
    grads["mixer.b2"] += dx2.sum(axis=0)
    dpre = (dx2 @ p.w2.T) * (pre > 0)
    grads["mixer.w1"] += x1.T @ dpre
    grads["mixer.b1"] += dpre.sum(axis=0)
    dx1 = dx2 + dpre @ p.w1.T
    grads["mixer.wo"] += av.T @ dx1
    dav = dx1 @ p.wo.T
    da = dav @ v.T
    dv = a.T @ dav
    dz = a * (da - (da * a).sum(axis=1, keepdims=True))
    dq = dz @ k / np.sqrt(d)
    dk = dz.T @ q / np.sqrt(d)
    grads["mixer.wq"] += x.T @ dq
    grads["mixer.wk"] += x.T @ dk
    grads["mixer.wv"] += x.T @ dv
    return dx1 + dq @ p.wq.T + dk @ p.wk.T + dv @ p.wv.T


def _encode(input: InputSequence, params: EncoderParams,
            example_id: Optional[str] = None):
    """``encode`` plus what the backward pass needs: the token ids (None for
    imported vectors) and the mixer cache (None without a mixer)."""
    if params.imported is not None:
        if example_id not in params.imported:
            raise ValueError(f"no imported vectors for example {example_id!r}")
        # C order: ``_forward`` slices rows of h, and matmul bits depend on layout
        h = np.ascontiguousarray(params.imported[example_id], dtype=np.float64)
        if h.shape != (len(input.tokens), params.d_model):
            raise ValueError(
                f"imported vectors for {example_id!r} have shape {h.shape}, "
                f"expected {(len(input.tokens), params.d_model)}")
        return h, None, None
    ids = params.token_ids(input.texts())
    h = params.embedding[ids]
    cache = None
    if params.mixer is not None:
        h, cache = _mixer_forward(h, params.mixer)
    return h, ids, cache


def encode(input: InputSequence, params: EncoderParams,
           example_id: Optional[str] = None) -> np.ndarray:
    """One d_model vector per token, sentinel included."""
    return _encode(input, params, example_id)[0]


# ScoreGrid, project, score_grid and rewrite's _stacked, decode_labels,
# merge_matrices and cells_to_spans(matrix, grids) are on no library path.
# They stay only because bench/spans.py calls them, and are removed in the
# benchmark-only change that re-spells that file.
@dataclass
class ScoreGrid:
    op: EditOp
    values: np.ndarray  # (n_rows, n_cols)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("score grid must be finite")


def project(h: np.ndarray, params: HeadParams, op: EditOp
            ) -> tuple[np.ndarray, np.ndarray]:
    """Affine q-side and k-side projections of every vector in ``h``."""
    o = OPS.index(op)
    return h @ params.wq[o].T + params.bq[o], h @ params.wk[o].T + params.bk[o]


def score_grid(q: np.ndarray, k: np.ndarray, row_positions, col_positions,
               op: EditOp) -> ScoreGrid:
    """Rotated dot products: values[i][j] = <R(p_i) q_i, R(p_j) k_j>."""
    rq = rope_rotate(q, np.asarray(row_positions))
    rk = rope_rotate(k, np.asarray(col_positions))
    return ScoreGrid(op=op, values=rq @ rk.T)


def _forward(model: ModelParams, inputs: Sequence[InputSequence],
             example_ids: Sequence[Optional[str]], for_backward: bool = False):
    """Raw scores of a batch of inputs, shape (n_ops, B, R, C) with the
    operations in ``OPS`` order; the ``(rows, cols)`` each input fills of
    them; and the cache ``_backward`` reads.

    Each input is encoded on its own. Input b's context rows fill
    ``[:, b, :ctx_b]`` and its incomplete positions plus sentinel fill
    ``[:, b, :, :T_b - ctx_b]``; positions are absolute indices, so its
    columns rotate from ``ctx_b``. Bias and rotation run on the whole
    batch, but every matmul runs on one input's own rows and columns, into
    its place in the batch: BLAS may pick another kernel, and so round
    differently, for another matrix shape. The padding stays zero, and a
    batch of one has none. The mixer caches are kept only
    ``for_backward``."""
    encoded = []
    for inp, ex_id in zip(inputs, example_ids):
        h, ids, mix_cache = _encode(inp, model.encoder, ex_id)
        encoded.append((h, ids, mix_cache if for_backward else None))
    head, n_ops, batch = model.head, len(OPS), len(encoded)
    ctxs = [inp.context_length for inp in inputs]
    widths = [len(h) - ctx for (h, _, _), ctx in zip(encoded, ctxs)]
    rows, cols = max(ctxs), max(widths)
    # column j of input b sits at position ctx_b + j; a batch of one has no
    # padding to zero, and its columns are one slice of the table
    alloc = np.empty if batch == 1 else np.zeros
    at = slice(rows, rows + cols) if batch == 1 else \
        np.arange(cols) + np.array(ctxs)[:, None]
    pq = alloc((n_ops, batch, rows, head.d_out))
    pk = alloc((n_ops, batch, cols, head.d_out))
    for b, ((h, _, _), ctx) in enumerate(zip(encoded, ctxs)):
        np.matmul(h[:ctx], head.wq.transpose(0, 2, 1), out=pq[:, b, :ctx])
        np.matmul(h[ctx:], head.wk.transpose(0, 2, 1), out=pk[:, b, :len(h) - ctx])
    pq += head.bq[:, None, None]
    pk += head.bk[:, None, None]
    cos, sin = _rope_table(head.d_out, rows + cols)
    row_rot, col_rot = (cos[:rows], sin[:rows]), (cos[at], sin[at])
    rq, rk = _rotate(pq, *row_rot), _rotate(pk, *col_rot)
    values, shapes = alloc((n_ops, batch, rows, cols)), list(zip(ctxs, widths))
    for b, (ctx, width) in enumerate(shapes):
        np.matmul(rq[:, b, :ctx], rk[:, b, :width].swapaxes(-1, -2),
                  out=values[:, b, :ctx, :width])
    return values, shapes, (encoded, shapes, row_rot, col_rot, rq, rk)


def _backward(model: ModelParams, cache, dvalues: np.ndarray,
              grads: dict[str, np.ndarray], dhead: HeadParams) -> None:
    """Accumulate into ``grads`` (by name) and ``dhead`` (the heads' views of
    the same vector) the gradients of a loss whose derivatives with respect
    to ``_forward``'s padded scores are ``dvalues``. The score matmuls write
    into padded arrays, so the inverse rotation runs once over the batch;
    the rest runs per input, in batch order, in stacked calls over the
    operations, which issue the same per-operation matmuls and sums as a
    loop over them would. One ``np.add.at`` then adds every input's rows to
    the embedding, cell by cell on its flat view (faster than adding
    rows): it adds in index order, so input by input and row by row, as
    one call per input would."""
    encoded, shapes, row_rot, col_rot, rq, rk = cache
    head = model.head
    gq, gk = np.zeros_like(rq), np.zeros_like(rk)
    for b, (ctx, width) in enumerate(shapes):
        ds = dvalues[:, b, :ctx, :width]
        np.matmul(ds, rk[:, b, :width], out=gq[:, b, :ctx])
        np.matmul(ds.swapaxes(-1, -2), rq[:, b, :ctx], out=gk[:, b, :width])
    # rotations are orthogonal: R^T = R(-pos)
    dq_all = _rotate(gq, *row_rot, inverse=True)
    dk_all = _rotate(gk, *col_rot, inverse=True)
    all_ids, all_dh = [], []
    for b, ((h, ids, mix_cache), (ctx, width)) in enumerate(zip(encoded, shapes)):
        hq, hk = h[:ctx], h[ctx:]
        dq, dk = dq_all[:, b, :ctx], dk_all[:, b, :width]  # (n_ops, rows, d_out)
        dhead.wq += np.matmul(dq.swapaxes(1, 2), hq)
        dhead.bq += dq.sum(axis=1)
        dhead.wk += np.matmul(dk.swapaxes(1, 2), hk)
        dhead.bk += dk.sum(axis=1)
        dh = np.zeros_like(h)
        dh[:ctx] += np.matmul(dq, head.wq).sum(axis=0)
        dh[ctx:] += np.matmul(dk, head.wk).sum(axis=0)
        if ids is not None:
            if mix_cache is not None:
                dh = _mixer_backward(dh, model.encoder.mixer, mix_cache, grads)
            all_ids.append(ids)
            all_dh.append(dh)
    if all_ids:
        emb, ids = grads["emb"], np.concatenate(all_ids)
        cells = (ids[:, None] * emb.shape[1] + np.arange(emb.shape[1])).ravel()
        np.add.at(emb.reshape(-1), cells, np.concatenate(all_dh).ravel())


def _score_chunks(inputs: Iterable[InputSequence], model: ModelParams,
                  example_ids: Optional[Iterable[Optional[str]]] = None
                  ) -> Iterator[tuple[np.ndarray, list[tuple[int, int]], list[np.ndarray]]]:
    """``_forward`` over consecutive chunks of at most ``INFERENCE_CHUNK``
    inputs, each taken from the iterables only when the stream reaches it,
    so the inputs and score arrays in memory are one chunk's whatever the
    number of inputs. Yields per chunk its padded scores (n_ops, B, R, C)
    in ``OPS`` order, the ``(rows, cols)`` each input fills of them, and
    each input's scores (n_ops, rows, cols), a view of its cells.
    Raises on a non-finite score, naming the example, and on running out
    of ``example_ids`` before inputs."""
    inputs = iter(inputs)
    example_ids = repeat(None) if example_ids is None else iter(example_ids)
    seen = 0
    while chunk := list(islice(inputs, INFERENCE_CHUNK)):
        ids = list(islice(example_ids, len(chunk)))
        if len(ids) < len(chunk):
            raise ValueError(f"{seen + len(ids)} example ids for at least "
                             f"{seen + len(chunk)} inputs")
        seen += len(chunk)
        values, shapes, _ = _forward(model, chunk, ids)
        if not np.isfinite(values).all():
            b = int(np.argmin(np.isfinite(values).all(axis=(0, 2, 3))))
            raise ValueError(f"score grid of example {ids[b]!r} is not finite")
        yield values, shapes, [values[:, b, :rows, :cols]
                               for b, (rows, cols) in enumerate(shapes)]
        del values  # not held while the next chunk is scored


def score_batch(inputs: Iterable[InputSequence], model: ModelParams,
                example_ids: Optional[Iterable[Optional[str]]] = None
                ) -> Iterator[np.ndarray]:
    """Each input's scores in turn: float64 (len(OPS), context_length,
    incomplete_length + 1) in ``OPS`` order, a view of its chunk's (``_score_chunks``)."""
    for _, _, scores in _score_chunks(inputs, model, example_ids):
        yield from scores


def score_all(input: InputSequence, model: ModelParams,
              example_id: Optional[str] = None) -> np.ndarray:
    """One input's scores (see ``score_batch``): a batch of one."""
    return next(score_batch([input], model, [example_id]))


# ---------------------------------------------------------------------------
# loss and gradients


def _circle_loss_grad(values: np.ndarray, shapes: Sequence[tuple[int, ...]],
                      golds: Sequence[EditMatrix], example_ids: Sequence[Optional[str]]
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Each input's loss, summed over the operations of
    log(1 + sum_pos e^-s) + log(1 + sum_neg e^s), and its derivative, for
    padded scores (n_ops, B, R, C) in ``OPS`` order, of which input b fills
    the top-left ``shapes[b]`` of each grid. Overflow-safe; padding is
    neither positive nor negative, and the sums and ``exp`` skip it. A gold
    that does not fit its grid raises, naming its example when one is given."""
    pos = np.zeros(values.shape, dtype=bool)
    valid = np.zeros_like(pos)
    for b, ((rows, cols), gold, ex_id) in enumerate(zip(shapes, golds, example_ids)):
        if gold.labels.shape[1:] != (rows, cols):
            where = "" if ex_id is None else f"example {ex_id!r}: "
            raise ValueError(f"{where}grid shape {(rows, cols)} does not match "
                             f"gold {gold.labels.shape[1:]}")
        pos[:, b, :rows, :cols] = gold.labels
        valid[:, b, :rows, :cols] = True
    signed = np.where(pos, -values, values)
    flat = (*values.shape[:2], -1)
    t_pos, t_neg = (np.logaddexp.reduce(signed.reshape(flat), axis=-1, initial=0.0,
                                        where=mask.reshape(flat))
                    for mask in (pos, valid & ~pos))
    ds = np.zeros_like(values)
    np.exp(signed - np.where(pos, t_pos[..., None, None], t_neg[..., None, None]),
           out=ds, where=valid)
    np.negative(ds, out=ds, where=pos)
    return (t_pos + t_neg).sum(axis=0), ds


def circle_loss(scores: np.ndarray, gold: EditMatrix) -> float:
    """Total loss over ``scores`` (n_ops, rows, cols) in ``OPS`` order;
    labeled cells are the positives, every other cell is a negative."""
    values = np.asarray(scores, dtype=np.float64)[:, None]
    if not np.isfinite(values).all():
        raise ValueError("scores must be finite")
    return float(_circle_loss_grad(values, [values.shape[2:]], [gold], [None])[0][0])


def _token_chunks(batch: Sequence[TrainExample]) -> Iterator[Sequence[TrainExample]]:
    """Consecutive runs of ``batch`` of at most ``TRAIN_CHUNK_TOKENS`` input
    tokens in total; a longer input is a run of its own."""
    c0, tokens = 0, 0
    for i, ex in enumerate(batch):
        tokens += len(ex.input.tokens)
        if i > c0 and tokens > TRAIN_CHUNK_TOKENS:
            yield batch[c0:i]
            c0, tokens = i, len(ex.input.tokens)
    if batch:
        yield batch[c0:]


def grad(model: ModelParams, batch: Sequence[TrainExample]
         ) -> tuple[float, np.ndarray]:
    """Mean loss over the batch and the exact gradient vector (named by
    ``params_items(model, grads)``), one padded forward and backward pass
    per token-bounded chunk. Raises on a non-finite loss, naming the example."""
    grads = np.zeros_like(model.flat)
    named, dhead = dict(params_items(model, grads)), model.head.views_of(grads)
    total = 0.0
    for chunk in _token_chunks(batch):
        ids = [ex.example_id for ex in chunk]
        values, shapes, cache = _forward(model, [ex.input for ex in chunk], ids,
                                         for_backward=True)
        losses, dvalues = _circle_loss_grad(values, shapes, [ex.gold for ex in chunk], ids)
        finite = np.isfinite(losses)
        if not finite.all():
            raise TrainingDiverged(f"non-finite loss on example "
                                   f"{ids[int(np.argmin(finite))]!r}")
        _backward(model, cache, dvalues, named, dhead)
        for loss in losses.tolist():
            total += loss
    grads /= len(batch)
    return total / len(batch), grads


# ---------------------------------------------------------------------------
# training


@dataclass
class AdamState:
    m: np.ndarray  # the moments, in ``model.flat``'s layout
    v: np.ndarray
    step: int = 0
    epochs_done: int = 0

    @classmethod
    def for_model(cls, model: ModelParams) -> "AdamState":
        return cls(np.zeros_like(model.flat), np.zeros_like(model.flat))


# Adam's published defaults (Kingma & Ba, ICLR 2015)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def _adam_step(model: ModelParams, grads: np.ndarray, state: AdamState,
               cfg: TrainConfig) -> None:
    state.step += 1
    t = state.step
    p, m, v = model.flat, state.m, state.v
    m[...] = _BETA1 * m + (1 - _BETA1) * grads
    v[...] = _BETA2 * v + (1 - _BETA2) * grads * grads
    m_hat = m / (1 - _BETA1 ** t)
    v_hat = v / (1 - _BETA2 ** t)
    p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + _EPS)
    p[...] = _q32(p)
    m[...] = _q32(m)
    v[...] = _q32(v)


def train_em(model: ModelParams, examples: Sequence[TrainExample],
             theta: float) -> float:
    """Exact match of the rewrites of ``examples`` at ``theta``; ValueError
    on an empty set."""
    if not examples:
        raise ValueError("no dev example")
    from .rewrite import _decode_chunks, apply_edits  # rewrite imports this module

    decoded = _decode_chunks([ex.input for ex in examples], model, theta,
                             [ex.example_id for ex in examples])
    return sum(apply_edits(ex.dialogue.incomplete, spans, ex.input).texts()
               == ex.dialogue.rewritten.texts()
               for ex, (_, spans) in zip(examples, decoded)) / len(examples)


@np.errstate(over="ignore", invalid="ignore")  # a divergence is reported below
def train(dataset: Sequence[TrainExample], config: TrainConfig,
          model: ModelParams, dev: Optional[Sequence[TrainExample]] = None,
          start_epoch: int = 0, opt_state: Optional[AdamState] = None
          ) -> tuple[TrainingLog, AdamState]:
    """Adam over shuffled batches; shuffle order is keyed by (seed, epoch)
    so a run resumed from a checkpoint retraces the uninterrupted one.
    Raises ``TrainingDiverged`` on a non-finite loss, or on a non-finite
    tensor after an epoch's last update, and ValueError on an empty dataset."""
    if not dataset:
        raise ValueError("no training example")
    state = opt_state or AdamState.for_model(model)
    log = TrainingLog(start_epoch=start_epoch)
    for epoch in range(start_epoch, config.epochs):
        rng = np.random.default_rng([config.seed, epoch])
        order = rng.permutation(len(dataset))
        epoch_loss = 0.0
        for n, b0 in enumerate(range(0, len(order), config.batch_size)):
            batch = [dataset[i] for i in order[b0:b0 + config.batch_size]]
            try:
                loss, grads = grad(model, batch)
            except TrainingDiverged as exc:
                raise TrainingDiverged(f"epoch {epoch}, batch {n}: {exc}") from exc
            _adam_step(model, grads, state, config)
            epoch_loss += loss
        if not all(np.isfinite(a).all() for a in (model.flat, state.m, state.v)):
            name = next(t for t, a in _saved_tensors(model, state)
                        if not np.isfinite(a).all())
            raise TrainingDiverged(f"epoch {epoch}, batch {n}: "
                                   f"tensor {name!r} is non-finite after the update")
        log.epoch_losses.append(epoch_loss / (n + 1))
        state.epochs_done = epoch + 1
        if dev:
            log.dev_em.append(train_em(model, dev, config.theta))
    return log, state


# ---------------------------------------------------------------------------
# persistence


def _saved_tensors(model: ModelParams, opt_state: Optional[AdamState]
                   ) -> list[tuple[str, np.ndarray]]:
    """The parameters, then each one's Adam moments, as a model file holds them."""
    items = params_items(model)
    if opt_state is not None:
        for (n, m), (_, v) in zip(params_items(model, opt_state.m),
                                  params_items(model, opt_state.v)):
            items += [(f"adam.m.{n}", m), (f"adam.v.{n}", v)]
    return items


def save_model(path: str | Path, model: ModelParams,
               opt_state: Optional[AdamState] = None) -> None:
    """Versioned JSON header line + float32 little-endian tensors in the
    order declared by the header."""
    items = _saved_tensors(model, opt_state)
    vocab_list = [t for t, _ in sorted(model.encoder.vocab.items(), key=lambda kv: kv[1])]
    mix = model.encoder.mixer
    header = {
        "format": "iurkit-model", "version": 1,
        "mode": "trainable" if model.encoder.imported is None else "imported",
        "d_model": model.encoder.d_model,
        "d_out": model.head.d_out,
        "has_mixer": mix is not None,
        "d_ff": int(mix.b1.shape[0]) if mix is not None else None,
        "optimizer": ({"step": opt_state.step, "epochs_done": opt_state.epochs_done}
                      if opt_state is not None else None),
        "vocab": vocab_list,
        "tensors": [[n, list(a.shape)] for n, a in items],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, ensure_ascii=False).encode("utf-8") + b"\n")
        for _, a in items:
            fh.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def _read_header(fh, path) -> dict:
    """The JSON object on the first line of a model or sidecar file."""
    try:
        header = json.loads(fh.readline().decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: header is not JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    return header


def _require(header: dict, path, *keys: str) -> None:
    missing = [k for k in keys if k not in header]
    if missing:
        raise ValueError(f"{path}: header lacks {', '.join(missing)}")


def _count(value, path, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{path}: {what} must be a non-negative integer, got {value!r}")
    return value


def _bytes_left(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def load_model(path: str | Path) -> tuple[ModelParams, Optional[AdamState]]:
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        if header.get("format") != "iurkit-model" or header.get("version") != 1:
            raise ValueError(f"{path}: not an iurkit model file")
        # older version-1 headers also carry "heads", which never changed the model
        _require(header, path, "mode", "d_model", "has_mixer", "vocab", "tensors")
        entries = header["tensors"]
        if not isinstance(entries, list) or not all(
                isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
                and isinstance(e[1], list) for e in entries):
            raise ValueError(f"{path}: tensors must be a list of [name, shape] pairs")
        tensors, left = {}, _bytes_left(fh)
        for name, shape in entries:
            if name in tensors:
                raise ValueError(f"{path}: duplicate tensor {name!r}")
            shape = [_count(n, path, f"a dimension of tensor {name!r}") for n in shape]
            size = 4 * math.prod(shape)
            if size > left:
                raise ValueError(f"{path}: truncated tensor {name}")
            left -= size
            data = np.frombuffer(fh.read(size), dtype="<f4")
            if not np.isfinite(data).all():
                raise ValueError(f"{path}: tensor {name!r} is not finite")
            tensors[name] = data.astype(np.float64).reshape(shape)
        if left:
            raise ValueError(f"{path}: trailing bytes after the last tensor")
    words = header["vocab"]
    if not (isinstance(words, list) and all(isinstance(t, str) for t in words)):
        raise ValueError(f"{path}: vocab must be a list of strings")
    if not words or words[0] != UNK_TOKEN:  # unknown tokens take row UNK_ID
        raise ValueError(f"{path}: vocab must start with {UNK_TOKEN!r}")
    vocab: dict[str, int] = {}
    for i, t in enumerate(words):
        if vocab.setdefault(t, i) != i:
            raise ValueError(f"{path}: vocab repeats {t!r}")
    mode, has_mixer = header["mode"], header["has_mixer"]
    if mode not in ("trainable", "imported"):
        raise ValueError(f"{path}: mode must be 'trainable' or 'imported', got {mode!r}")
    if not isinstance(has_mixer, bool):
        raise ValueError(f"{path}: has_mixer must be true or false, got {has_mixer!r}")
    d_model = _count(header["d_model"], path, "d_model")
    d_out = _count(header.get("d_out"), path, "d_out")
    d_ff = _count(header.get("d_ff"), path, "d_ff") if has_mixer else None
    try:
        model = _build_model(vocab, d_model, d_out, has_mixer, d_ff,
                             lambda *shape: np.zeros(shape))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if mode == "imported":  # the file holds the heads only
        model = with_imported_vectors(model, {})
    opt_state, opt = None, header.get("optimizer")
    if opt is not None:
        if not isinstance(opt, dict):
            raise ValueError(f"{path}: optimizer must be a JSON object")
        opt_state = AdamState(np.zeros_like(model.flat), np.zeros_like(model.flat),
                              step=_count(opt.get("step"), path, "optimizer step"),
                              epochs_done=_count(opt.get("epochs_done", 0), path,
                                                 "optimizer epochs_done"))
    for name, a in _saved_tensors(model, opt_state):
        if name not in tensors:
            raise ValueError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != a.shape:
            raise ValueError(f"{path}: tensor {name!r} has shape "
                             f"{list(tensors[name].shape)}, expected {list(a.shape)}")
        a[...] = tensors.pop(name)
    if tensors:
        raise ValueError(f"{path}: unexpected tensor {next(iter(tensors))!r}")
    return model, opt_state


def write_ctxvec(path: str | Path, d_model: int,
                 records: dict[str, np.ndarray]) -> None:
    """Imported-vector sidecar: JSON header line {d_model, count}, then per
    record: u32 id length, UTF-8 id, u32 position count, float32 LE vectors."""
    with open(path, "wb") as fh:
        fh.write(json.dumps({"d_model": d_model, "count": len(records)}).encode() + b"\n")
        for ex_id in sorted(records):
            vecs = np.ascontiguousarray(records[ex_id], dtype="<f4")
            if vecs.ndim != 2 or vecs.shape[1] != d_model:
                raise ValueError(f"record {ex_id!r}: expected (n, {d_model}) vectors")
            raw = ex_id.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)) + raw)
            fh.write(struct.pack("<I", vecs.shape[0]))
            fh.write(vecs.tobytes())


def read_ctxvec(path: str | Path) -> tuple[int, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        _require(header, path, "d_model", "count")
        d_model = _count(header["d_model"], path, "d_model")
        records: dict[str, np.ndarray] = {}

        def read(size: int, what: str) -> bytes:
            if size > _bytes_left(fh):
                raise ValueError(f"{where}: truncated {what}")
            return fh.read(size)

        for i in range(_count(header["count"], path, "count")):
            where = f"{path}: record {i}"
            (id_len,) = struct.unpack("<I", read(4, "id length"))
            try:
                ex_id = read(id_len, "id").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{where}: id is not UTF-8 ({exc})") from None
            where = f"{path}: record {ex_id!r}"
            if ex_id in records:
                raise ValueError(f"{where}: duplicate id")
            (n,) = struct.unpack("<I", read(4, "position count"))
            vecs = np.frombuffer(read(4 * n * d_model, "vectors"), dtype="<f4")
            if not np.isfinite(vecs).all():  # before the cast, which a signaling NaN fails
                raise ValueError(f"{where}: non-finite vector")
            records[ex_id] = vecs.astype(np.float64).reshape(n, d_model)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last record")
    return d_model, records


def with_imported_vectors(model: ModelParams,
                          records: dict[str, np.ndarray]) -> ModelParams:
    """``model`` (sharing its tensors) with an encoder that serves the given
    contextual vectors; its ``flat`` is the tail of ``model.flat``: the heads."""
    enc = EncoderParams(vocab=model.encoder.vocab, embedding=model.encoder.embedding,
                        mixer=None, imported=records)
    return ModelParams(encoder=enc, head=model.head, flat=model.flat[-model.head.size:])
