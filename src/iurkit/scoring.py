"""Edit-operation scoring network.

A pluggable encoder (trainable embedding table with an optional single
self-attention + feed-forward mixer block, or imported per-token
contextual vectors) feeds per-operation linear projections. Query/key
vectors are rotated by position (rotary embedding) before the dot
product, so scores depend only on relative position. Training minimizes
a pairwise log-sum-exp loss that pushes labeled cells above zero and the
rest below, with hand-derived reverse-mode gradients and bias-corrected
Adam.

Parameters are kept at float32 precision (stored in float64 arrays,
quantized after every update) so checkpoints round-trip bit-exactly;
all arithmetic runs in float64.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .datamodel import END_TOKEN, UNK_TOKEN, Dialogue, InputSequence
from .supervision import EditMatrix, EditOp

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

    def __post_init__(self):
        d = self.embedding.shape[1]
        if d <= 0 or d % 2:
            raise ValueError("d_model must be positive and even")
        if not np.all(np.isfinite(self.embedding)):
            raise ValueError("embedding table must be finite")

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


class HeadParams:
    """Each edit operation's ``OpHead``, held as one array per tensor that
    stacks it over the operations in ``_in_order`` (leading axis), so one
    call per side projects every operation. ``per_op`` hands out views of
    those arrays: update them in place."""

    def __init__(self, per_op: dict[EditOp, OpHead]):
        self.ops = _in_order(per_op)
        self.wq, self.bq, self.wk, self.bk = (
            np.stack([getattr(per_op[op], name) for op in self.ops])
            for name in ("wq", "bq", "wk", "bk"))

    @property
    def d_out(self) -> int:
        return self.bq.shape[1]

    @property
    def per_op(self) -> dict[EditOp, OpHead]:
        return {op: OpHead(self.wq[o], self.bq[o], self.wk[o], self.bk[o])
                for o, op in enumerate(self.ops)}


@dataclass
class ModelParams:
    encoder: EncoderParams
    head: HeadParams


@dataclass
class ScoreGrid:
    op: EditOp
    values: np.ndarray  # (n_rows, n_cols)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("score grid must be finite")

    @classmethod
    def checked(cls, op: EditOp, values: np.ndarray) -> "ScoreGrid":
        """A grid over float64 values the caller has already found finite."""
        grid = object.__new__(cls)
        grid.op, grid.values = op, values
        return grid


@dataclass
class TrainConfig:
    learning_rate: float = 1e-5
    batch_size: int = 16
    epochs: int = 1
    theta: float = 0.1  # 0.1 preset; 0.05 for the longer-context presets
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size <= 0 or self.epochs < 0:
            raise ValueError("learning_rate/batch_size must be positive, epochs >= 0")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1 and self.eps > 0):
            raise ValueError("invalid Adam hyperparameters")


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
    reserved = [UNK_TOKEN, END_TOKEN, "[COREF]", "[ELLIP]"]
    seen = set(reserved)
    extra = sorted({t for inp in inputs for t in inp.tokens} - seen)
    return {t: i for i, t in enumerate(reserved + extra)}


def _build_model(vocab: dict[str, int], d_model: int, d_head: int, mixer: bool,
                 d_ff: Optional[int], fill) -> ModelParams:
    """The one statement of the model's tensors and their shapes. Every
    weight is ``fill(*shape)``, called in this order; biases start at zero."""
    for name, width in (("d_model", d_model), ("d_head", d_head)):
        if width <= 0 or width % 2:
            raise ValueError(f"{name} must be positive and even")
    embedding = fill(len(vocab), d_model)
    mix = None
    if mixer:
        d_ff = 2 * d_model if d_ff is None else d_ff
        if d_ff <= 0:
            raise ValueError("d_ff must be positive")
        mix = MixerParams(wq=fill(d_model, d_model), wk=fill(d_model, d_model),
                          wv=fill(d_model, d_model), wo=fill(d_model, d_model),
                          w1=fill(d_model, d_ff), b1=np.zeros(d_ff),
                          w2=fill(d_ff, d_model), b2=np.zeros(d_model))
    per_op = {}
    for op in (EditOp.SUBSTITUTE, EditOp.PRE_INSERT):
        per_op[op] = OpHead(wq=fill(d_head, d_model), bq=np.zeros(d_head),
                            wk=fill(d_head, d_model), bk=np.zeros(d_head))
    enc = EncoderParams(vocab=dict(vocab), embedding=embedding, mixer=mix)
    return ModelParams(encoder=enc, head=HeadParams(per_op))


def init_model(vocab: dict[str, int], d_model: int, d_head: int, seed: int = 0,
               mixer: bool = False, d_ff: Optional[int] = None) -> ModelParams:
    """Uniform init scaled by 1/sqrt(d_model); biases zero; seed-controlled.

    ``d_head`` is the width of each operation's q/k projection, which the
    rotary embedding rotates as a whole. ``d_ff`` defaults to 2 * d_model.
    """
    rng = np.random.default_rng(seed)

    def u(*shape):
        s = 1.0 / np.sqrt(d_model)  # after _build_model has checked d_model
        return _q32(rng.uniform(-s, s, size=shape))

    return _build_model(vocab, d_model, d_head, mixer, d_ff, u)


def _in_order(ops: Iterable[EditOp]) -> list[EditOp]:
    """Operations in the one fixed order that serialization, the loss sum
    and the backward pass's accumulation follow."""
    return sorted(ops, key=lambda o: o.value)


def params_items(model: ModelParams) -> list[tuple[str, np.ndarray]]:
    """Trainable tensors in a fixed order (the declared serialization order)."""
    items: list[tuple[str, np.ndarray]] = []
    if model.encoder.imported is None:
        items.append(("emb", model.encoder.embedding))
        mix = model.encoder.mixer
        if mix is not None:
            for name in ("wq", "wk", "wv", "wo", "w1", "b1", "w2", "b2"):
                items.append((f"mixer.{name}", getattr(mix, name)))
    for op, h in model.head.per_op.items():
        for name in ("wq", "bq", "wk", "bk"):
            items.append((f"head.{op.value}.{name}", getattr(h, name)))
    return items


# ---------------------------------------------------------------------------
# forward pieces


# Inputs per padded forward pass in ``score_batch``. Larger chunks pay the
# per-call numpy cost less often, but a chunk of ~200-row inputs then
# outgrows the CPU's L2 cache and holds more memory.
INFERENCE_CHUNK = 8

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


def _mixer_backward(dx2: np.ndarray, p: MixerParams, cache, grads: dict, prefix="mixer."):
    x, q, k, v, a, av, x1, pre, f = cache
    d = x.shape[1]
    grads[prefix + "w2"] += f.T @ dx2
    grads[prefix + "b2"] += dx2.sum(axis=0)
    dpre = (dx2 @ p.w2.T) * (pre > 0)
    grads[prefix + "w1"] += x1.T @ dpre
    grads[prefix + "b1"] += dpre.sum(axis=0)
    dx1 = dx2 + dpre @ p.w1.T
    grads[prefix + "wo"] += av.T @ dx1
    dav = dx1 @ p.wo.T
    da = dav @ v.T
    dv = a.T @ dav
    dz = a * (da - (da * a).sum(axis=1, keepdims=True))
    dq = dz @ k / np.sqrt(d)
    dk = dz.T @ q / np.sqrt(d)
    grads[prefix + "wq"] += x.T @ dq
    grads[prefix + "wk"] += x.T @ dk
    grads[prefix + "wv"] += x.T @ dv
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


def project(h: np.ndarray, params: HeadParams, op: EditOp
            ) -> tuple[np.ndarray, np.ndarray]:
    """Affine q-side and k-side projections of every vector in ``h``."""
    o = params.ops.index(op)
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
    operations in ``_in_order``; each input's score array per operation
    (views of its cells); and the cache ``_backward`` reads.

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
    head, n_ops, batch = model.head, len(model.head.ops), len(encoded)
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
    rq = _rotate(pq, cos[:rows], sin[:rows])
    rk = _rotate(pk, cos[at], sin[at])
    values, scores = alloc((n_ops, batch, rows, cols)), []
    for b, (ctx, width) in enumerate(zip(ctxs, widths)):
        cells = values[:, b, :ctx, :width]
        np.matmul(rq[:, b, :ctx], rk[:, b, :width].swapaxes(-1, -2), out=cells)
        scores.append(dict(zip(head.ops, cells)))
    return values, scores, (encoded, ctxs, cos, sin, rq, rk)


def _backward(model: ModelParams, cache,
              dvalues: Sequence[dict[EditOp, np.ndarray]],
              grads: dict[str, np.ndarray]) -> None:
    """Accumulate into ``grads`` the gradients of a loss whose derivatives
    with respect to each input's score arrays from ``_forward`` are
    ``dvalues``, one input at a time."""
    encoded, ctxs, cos, sin, rq_all, rk_all = cache
    head = model.head
    for b, ((h, ids, mix_cache), ctx, ds_of) in enumerate(zip(encoded, ctxs, dvalues)):
        n = len(h)
        row_rot, col_rot = (cos[:ctx], sin[:ctx]), (cos[ctx:n], sin[ctx:n])
        hq, hk = h[:ctx], h[ctx:]
        dh = np.zeros_like(h)
        for o, op in enumerate(head.ops):
            rq, rk = rq_all[o, b, :ctx], rk_all[o, b, :n - ctx]
            ds = ds_of[op]
            # rotations are orthogonal: R^T = R(-pos)
            dq = _rotate(ds @ rk, *row_rot, inverse=True)
            dk = _rotate(ds.T @ rq, *col_rot, inverse=True)
            pre = f"head.{op.value}."
            grads[pre + "wq"] += dq.T @ hq
            grads[pre + "bq"] += dq.sum(axis=0)
            grads[pre + "wk"] += dk.T @ hk
            grads[pre + "bk"] += dk.sum(axis=0)
            dh[:ctx] += dq @ head.wq[o]
            dh[ctx:] += dk @ head.wk[o]
        if ids is not None:
            if mix_cache is not None:
                dh = _mixer_backward(dh, model.encoder.mixer, mix_cache, grads)
            np.add.at(grads["emb"], ids, dh)


def score_batch(inputs: Sequence[InputSequence], model: ModelParams,
                example_ids: Optional[Sequence[Optional[str]]] = None
                ) -> Iterator[dict[EditOp, ScoreGrid]]:
    """Both operations' grids for each input, in order. ``_forward`` scores
    consecutive chunks of at most ``INFERENCE_CHUNK`` inputs, so the score
    arrays in memory are one chunk's whatever the number of inputs. Raises
    on a non-finite score, naming the example."""
    example_ids = [None] * len(inputs) if example_ids is None else example_ids
    for c0 in range(0, len(inputs), INFERENCE_CHUNK):
        ids = example_ids[c0:c0 + INFERENCE_CHUNK]
        values, scores, _ = _forward(model, inputs[c0:c0 + INFERENCE_CHUNK], ids)
        if not np.isfinite(values).all():
            b = int(np.argmin(np.isfinite(values).all(axis=(0, 2, 3))))
            raise ValueError(f"score grid of example {ids[b]!r} is not finite")
        for per_op in scores:
            yield {op: ScoreGrid.checked(op, v) for op, v in per_op.items()}


def score_all(input: InputSequence, model: ModelParams,
              example_id: Optional[str] = None) -> dict[EditOp, ScoreGrid]:
    """Both operations' grids for one input: a batch of one."""
    return next(score_batch([input], model, [example_id]))


# ---------------------------------------------------------------------------
# loss and gradients


def _op_loss_grad(s: np.ndarray, pos_mask: np.ndarray) -> tuple[float, np.ndarray]:
    """log(1 + sum_pos e^-s) + log(1 + sum_neg e^s) and d/ds, overflow-safe."""
    sp = s[pos_mask]
    sn = s[~pos_mask]
    t_pos = np.logaddexp.reduce(np.concatenate(([0.0], -sp))) if sp.size else 0.0
    t_neg = np.logaddexp.reduce(np.concatenate(([0.0], sn))) if sn.size else 0.0
    ds = np.zeros_like(s)
    if sp.size:
        ds[pos_mask] = -np.exp(-sp - t_pos)
    if sn.size:
        ds[~pos_mask] = np.exp(sn - t_neg)
    return float(t_pos + t_neg), ds


def _loss_grad(values: dict[EditOp, np.ndarray], gold: EditMatrix
               ) -> tuple[float, dict[EditOp, np.ndarray]]:
    """Total loss over the operations and its derivative per score array."""
    total = 0.0
    dvalues = {}
    for op in _in_order(values):
        s, positives = values[op], gold.mask(op)
        if s.shape != positives.shape:
            raise ValueError(f"grid shape {s.shape} does not match gold {positives.shape}")
        loss, dvalues[op] = _op_loss_grad(s, positives)
        total += loss
    return total, dvalues


def circle_loss(grids: dict[EditOp, ScoreGrid], gold: EditMatrix) -> float:
    """Total loss over both operations; labeled cells are the positives,
    every other in-range cell is a negative."""
    return _loss_grad({op: g.values for op, g in grids.items()}, gold)[0]


def _zero_grads(model: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params_items(model)}


def grad(model: ModelParams, batch: Sequence[TrainExample]
         ) -> tuple[float, dict[str, np.ndarray]]:
    """Mean loss over the batch and exact gradients for every trainable
    parameter. Raises on a non-finite loss, naming the example."""
    grads = _zero_grads(model)
    total = 0.0
    for ex in batch:  # one example per pass: see ROADMAP item 1
        _, (scores,), cache = _forward(model, [ex.input], [ex.example_id],
                                       for_backward=True)
        loss, dvalues = _loss_grad(scores, ex.gold)
        _backward(model, cache, [dvalues], grads)
        if not np.isfinite(loss):
            raise TrainingDiverged(f"non-finite loss on example {ex.example_id!r}")
        total += loss
    n = len(batch)
    for g in grads.values():
        g /= n
    return total / n, grads


# ---------------------------------------------------------------------------
# training


@dataclass
class AdamState:
    step: int = 0
    epochs_done: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_model(cls, model: ModelParams) -> "AdamState":
        return cls(step=0,
                   m={n: np.zeros_like(a) for n, a in params_items(model)},
                   v={n: np.zeros_like(a) for n, a in params_items(model)})


def _adam_step(model: ModelParams, grads: dict[str, np.ndarray],
               state: AdamState, cfg: TrainConfig) -> None:
    state.step += 1
    t = state.step
    for name, p in params_items(model):
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m[...] = cfg.beta1 * m + (1 - cfg.beta1) * g
        v[...] = cfg.beta2 * v + (1 - cfg.beta2) * g * g
        m_hat = m / (1 - cfg.beta1 ** t)
        v_hat = v / (1 - cfg.beta2 ** t)
        p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
        p[...] = _q32(p)
        m[...] = _q32(m)
        v[...] = _q32(v)


def train_em(model: ModelParams, examples: Sequence[TrainExample],
             theta: float) -> float:
    from .rewrite import decode  # rewrite imports this module

    batch = score_batch([ex.input for ex in examples], model,
                        [ex.example_id for ex in examples])
    return sum(decode(grids, ex.input, ex.dialogue.incomplete, theta)[2].texts()
               == ex.dialogue.rewritten.texts()
               for ex, grids in zip(examples, batch)) / len(examples)


@np.errstate(over="ignore", invalid="ignore")  # a divergence is reported below
def train(dataset: Sequence[TrainExample], config: TrainConfig,
          model: ModelParams, dev: Optional[Sequence[TrainExample]] = None,
          start_epoch: int = 0, opt_state: Optional[AdamState] = None
          ) -> tuple[TrainingLog, AdamState]:
    """Adam over shuffled batches; shuffle order is keyed by (seed, epoch)
    so a run resumed from a checkpoint retraces the uninterrupted one.
    Raises ``TrainingDiverged`` on a non-finite loss, or on a non-finite
    tensor after an epoch's last update."""
    state = opt_state or AdamState.for_model(model)
    log = TrainingLog(start_epoch=start_epoch)
    for epoch in range(start_epoch, config.epochs):
        rng = np.random.default_rng([config.seed, epoch])
        order = rng.permutation(len(dataset))
        epoch_loss = 0.0
        n_batches = 0
        for b0 in range(0, len(order), config.batch_size):
            batch = [dataset[i] for i in order[b0:b0 + config.batch_size]]
            try:
                loss, grads = grad(model, batch)
            except TrainingDiverged as exc:
                raise TrainingDiverged(
                    f"epoch {epoch}, batch {n_batches}: {exc}") from exc
            _adam_step(model, grads, state, config)
            epoch_loss += loss
            n_batches += 1
        for name, a in _saved_tensors(model, state):
            if not np.isfinite(a).all():
                raise TrainingDiverged(f"epoch {epoch}, batch {n_batches - 1}: "
                                       f"tensor {name!r} is non-finite after the update")
        log.epoch_losses.append(epoch_loss / max(n_batches, 1))
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
        for n, _ in list(items):
            items.append((f"adam.m.{n}", opt_state.m[n]))
            items.append((f"adam.v.{n}", opt_state.v[n]))
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
    mode, has_mixer = header["mode"], header["has_mixer"]
    if mode not in ("trainable", "imported"):
        raise ValueError(f"{path}: mode must be 'trainable' or 'imported', got {mode!r}")
    d_model = _count(header["d_model"], path, "d_model")
    d_out = _count(header.get("d_out"), path, "d_out")
    d_ff = _count(header.get("d_ff"), path, "d_ff") if has_mixer else None
    try:
        model = _build_model({t: i for i, t in enumerate(words)}, d_model, d_out,
                             has_mixer, d_ff, lambda *shape: np.zeros(shape))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if mode == "imported":  # the file holds the heads only
        model = with_imported_vectors(model, {})

    def tensor(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name not in tensors:
            raise ValueError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise ValueError(f"{path}: tensor {name!r} has shape "
                             f"{list(tensors[name].shape)}, expected {list(shape)}")
        return tensors.pop(name)

    for name, a in params_items(model):
        a[...] = tensor(name, a.shape)
    opt_state = None
    opt = header.get("optimizer")
    if opt is not None:
        if not isinstance(opt, dict):
            raise ValueError(f"{path}: optimizer must be a JSON object")
        opt_state = AdamState(step=_count(opt.get("step"), path, "optimizer step"),
                              epochs_done=_count(opt.get("epochs_done", 0), path,
                                                 "optimizer epochs_done"),
                              m={n: tensor(f"adam.m.{n}", a.shape)
                                 for n, a in params_items(model)},
                              v={n: tensor(f"adam.v.{n}", a.shape)
                                 for n, a in params_items(model)})
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
            vecs = np.frombuffer(read(4 * n * d_model, "vectors"), dtype="<f4") \
                .astype(np.float64).reshape(n, d_model)
            if not np.isfinite(vecs).all():
                raise ValueError(f"{where}: non-finite vector")
            records[ex_id] = vecs
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last record")
    return d_model, records


def with_imported_vectors(model: ModelParams,
                          records: dict[str, np.ndarray]) -> ModelParams:
    """A copy of ``model`` whose encoder serves the given contextual vectors."""
    enc = EncoderParams(vocab=model.encoder.vocab,
                        embedding=model.encoder.embedding,
                        mixer=None, imported=records)
    return ModelParams(encoder=enc, head=model.head)
