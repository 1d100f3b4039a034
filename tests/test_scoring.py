import copy
import json
import math
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iurkit.datamodel import ELLIP_TOKEN, END_TOKEN, build_input_sequence
from iurkit.querygen import PronounLexicon, _template, build_query
import iurkit.rewrite as rewrite_module
from iurkit.rewrite import train_em
from iurkit import scoring
from iurkit.scoring import (AdamState, EncoderParams, HeadParams, MixerParams,
                            ModelParams, ScoreGrid, TrainConfig,
                            TrainExample, TrainingDiverged, _encode, _forward,
                            _mixer_backward, _mixer_forward, _rope_table, _rotate,
                            _score_chunks,
                            build_vocab, circle_loss, encode, grad,
                            init_model, load_model, params_items, project,
                            read_ctxvec, rope_rotate, save_model, score_all,
                            score_grid, train,
                            with_imported_vectors, write_ctxvec)
from iurkit.supervision import OPS, EditMatrix, EditOp, build_edit_matrix
from synthetic import PRONOUNS, lengthen, make_corpus

@pytest.fixture(scope="module")
def en_lexicon():
    return PronounLexicon.from_surface_forms(PRONOUNS)


def prepare(ex, lexicon):
    query = build_query(ex.dialogue.incomplete, lexicon, ex.parse, unify=True)
    inp = build_input_sequence(query, ex.dialogue)
    matrix, report = build_edit_matrix(ex.dialogue, inp)
    assert report.fully_expressible
    return TrainExample(inp, matrix, ex.dialogue.example_id, ex.dialogue)


@pytest.fixture(scope="module")
def small_set(en_lexicon):
    return [prepare(e, en_lexicon) for e in make_corpus(6, seed=11)]


@pytest.fixture(scope="module")
def long_set(en_lexicon):
    rng = np.random.default_rng(2)
    return [prepare(lengthen(e, rng), en_lexicon) for e in make_corpus(40, seed=17)]


@pytest.fixture(scope="module")
def small_model(small_set):
    vocab = build_vocab([e.input for e in small_set])
    return init_model(vocab, d_model=8, d_head=4, seed=0)


def reference_rope_rotate(v, pos):
    """Reference: the pair form with angles computed on every call."""
    v = np.asarray(v, dtype=np.float64)
    d = v.shape[-1]
    omega = 10000.0 ** (-2.0 * np.arange(d // 2) / d)
    ang = np.multiply.outer(np.asarray(pos, dtype=np.float64), omega)
    cos, sin = np.cos(ang), np.sin(ang)
    even, odd = v[..., 0::2], v[..., 1::2]
    out = np.empty_like(v)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def reference_forward(model, input, example_id=None):
    """Reference: ``_forward`` with index arrays for the rows and columns."""
    h, ids, mix_cache = _encode(input, model.encoder, example_id)
    rows = np.arange(input.context_length)
    cols = np.array(list(range(*input.incomplete_range)) + [input.sentinel_index])
    hq, hk = h[rows], h[cols]
    values, rotated = {}, {}
    for op in OPS:
        head = model.head.per_op[op]
        rq = reference_rope_rotate(hq @ head.wq.T + head.bq, rows)
        rk = reference_rope_rotate(hk @ head.wk.T + head.bk, cols)
        values[op] = rq @ rk.T
        rotated[op] = rq, rk
    return values, (h, ids, mix_cache, rows, cols, hq, hk, rotated)


def reference_op_loss_grad(s, pos_mask):
    """Reference: one operation's loss and d/ds through boolean indexing."""
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


def reference_grad(model, ex, grads=None):
    """Reference: loss and gradients of one example through index arrays,
    added into ``grads`` (fresh zeros when None)."""
    values, (h, ids, mix_cache, rows, cols, hq, hk, rotated) = \
        reference_forward(model, ex.input, ex.example_id)
    loss, dvalues = 0.0, {}
    for op in OPS:
        op_loss, dvalues[op] = reference_op_loss_grad(values[op], ex.gold.mask(op))
        loss += op_loss
    if grads is None:
        grads = {name: np.zeros_like(a) for name, a in params_items(model)}
    dh = np.zeros_like(h)
    for op in OPS:
        head = model.head.per_op[op]
        rq, rk = rotated[op]
        ds = dvalues[op]
        dq = reference_rope_rotate(ds @ rk, -rows)
        dk = reference_rope_rotate(ds.T @ rq, -cols)
        pre = f"head.{op.value}."
        grads[pre + "wq"] += dq.T @ hq
        grads[pre + "bq"] += dq.sum(axis=0)
        grads[pre + "wk"] += dk.T @ hk
        grads[pre + "bk"] += dk.sum(axis=0)
        dh[rows] += dq @ head.wq
        dh[cols] += dk @ head.wk
    if ids is not None:
        if mix_cache is not None:
            dh = _mixer_backward(dh, model.encoder.mixer, mix_cache, MixerParams(
                *(grads[f"mixer.{f.name}"] for f in fields(MixerParams))))
        np.add.at(grads["emb"], ids, dh)
    return loss, grads


def reference_batch_grad(model, batch):
    """Reference: the per-example training loop, one forward, loss and
    backward per example, all adding into one set of gradients."""
    grads = {name: np.zeros_like(a) for name, a in params_items(model)}
    total = 0.0
    for ex in batch:
        total += reference_grad(model, ex, grads)[0]
    for g in grads.values():
        g /= len(batch)
    return total / len(batch), grads


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def mixed_lengths(small_set, long_set):
    """The short inputs, then six ~210-token ones, with distinct ids."""
    return [replace(e, example_id=str(i)) for i, e in enumerate(small_set + long_set[:6])]


def bit_test_model(encoder, examples, order="F", d_head=16):
    """A d_model 32 model with non-zero biases; ``imported`` serves random
    vectors for every example, in ``order`` (Fortran order, as the API allows)."""
    model = init_model(build_vocab([e.input for e in examples]), d_model=32,
                       d_head=d_head, seed=1, mixer=encoder == "mixer")
    rng = np.random.default_rng(5)
    for head in model.head.per_op.values():  # views: updates reach the model
        head.bq[...] = rng.uniform(-0.5, 0.5, head.bq.shape)
        head.bk[...] = rng.uniform(-0.5, 0.5, head.bk.shape)
    if encoder == "imported":
        model = with_imported_vectors(model, {
            e.example_id: np.asarray(rng.normal(size=(len(e.input.tokens), 32)), order=order)
            for e in examples})
    return model


@pytest.mark.parametrize("as_list", [False, True], ids=["tuple", "list"])
@pytest.mark.parametrize("encoder", ["embedding", "mixer"])
def test_encode_gathers_embedding_rows(encoder, as_list, small_set, long_set):
    """``_encode`` returns a C-contiguous float64 array, bit-equal to
    indexing the embedding with the token ids (an unknown token takes the
    [UNK] row), whether the input holds its tokens in a tuple or a list."""
    examples = mixed_lengths(small_set, long_set)
    enc = bit_test_model(encoder, examples).encoder
    for ex in examples:
        tokens = ["never-seen", *ex.input.tokens[1:]]
        inp = replace(ex.input, tokens=tokens if as_list else tuple(tokens))
        ids = np.array([enc.vocab.get(t, scoring.UNK_ID) for t in tokens], dtype=np.intp)
        want = enc.embedding[ids]
        if enc.mixer is not None:
            want = _mixer_forward(want, enc.mixer)[0]
        h, got_ids, _ = _encode(inp, enc)
        assert inp.tokens[-1] == END_TOKEN and got_ids[0] == scoring.UNK_ID
        assert h.dtype == np.float64 and h.flags.c_contiguous
        assert np.array_equal(got_ids, ids) and np.array_equal(bits(h), bits(want))


class TestRope:
    def test_d2_angle_equals_position(self):
        # with d=2 the single frequency is 10000^0 = 1, so the rotation
        # angle is the position itself
        out = rope_rotate(np.array([1.0, 0.0]), 1.0)
        assert np.allclose(out, [math.cos(1.0), math.sin(1.0)])

    def test_position_zero_is_identity(self):
        v = np.arange(6, dtype=float)
        assert np.allclose(rope_rotate(v, 0), v)

    def test_negative_position_inverts(self):
        v = np.array([0.3, -1.2, 0.7, 2.0])
        assert np.allclose(rope_rotate(rope_rotate(v, 17), -17), v)

    def test_norm_preserved(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(5, 8))
        out = rope_rotate(v, np.arange(5))
        assert np.allclose(np.linalg.norm(out, axis=1), np.linalg.norm(v, axis=1))

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            rope_rotate(np.zeros(3), 1)

    @given(st.integers(-500, 500), st.integers(-500, 500), st.integers(-200, 200))
    @settings(max_examples=80)
    def test_scores_shift_invariant(self, i, j, delta):
        rng = np.random.default_rng(abs(i) + 7 * abs(j) + 13 * abs(delta))
        q = rng.normal(size=8)
        k = rng.normal(size=8)
        s1 = rope_rotate(q, i) @ rope_rotate(k, j)
        s2 = rope_rotate(q, i + delta) @ rope_rotate(k, j + delta)
        assert abs(s1 - s2) < 1e-9 * max(1.0, abs(s1))


class TestRotaryTable:
    """``_forward``/``_backward`` rotate by slicing one cached table per
    rotary width; they must agree bit for bit with the index-array reference."""

    @given(st.sampled_from([2, 4, 16, 64]), st.integers(0, 300), st.integers(0, 300),
           st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_slice_equals_reference(self, d, a, length, inverse, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(length, d)) * 10.0 ** rng.integers(-3, 4, size=(length, d))
        cos, sin = _rope_table(d, a + length)
        pos = np.arange(a, a + length)
        got = _rotate(v, cos[a:a + length], sin[a:a + length], inverse)
        want = reference_rope_rotate(v, -pos if inverse else pos)
        assert np.array_equal(bits(got), bits(want))

    @given(st.sampled_from([2, 8, 16]), st.lists(st.integers(-2000, 2000), max_size=20),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rope_rotate_equals_reference(self, d, positions, seed):
        v = np.random.default_rng(seed).normal(size=(len(positions), d))
        assert np.array_equal(bits(rope_rotate(v, positions)),
                              bits(reference_rope_rotate(v, positions)))
        if positions:
            assert np.array_equal(bits(rope_rotate(v[0], positions[0])),
                                  bits(reference_rope_rotate(v[0], positions[0])))

    @pytest.mark.parametrize("encoder", ["embedding", "mixer", "imported"])
    def test_score_all_and_grad_bit_identical(self, encoder, small_set, long_set,
                                              monkeypatch):
        # an empty cache: the short inputs build the first table, the
        # ~210-token ones grow it
        monkeypatch.setattr(scoring, "_rope_tables", {})
        examples = mixed_lengths(small_set, long_set)
        assert max(len(e.input.tokens) for e in examples) > scoring._ROPE_FIRST_ROWS
        model = bit_test_model(encoder, examples)
        for ex in examples:
            want_values, _ = reference_forward(model, ex.input, ex.example_id)
            for op, g in zip(OPS, score_all(ex.input, model, ex.example_id)):
                assert np.array_equal(bits(g), bits(want_values[op]))
            want_loss, want_grads = reference_grad(model, ex)
            loss, grads = grad(model, [ex])
            grads = dict(params_items(model.views(grads)))
            assert np.array_equal(bits(loss), bits(want_loss))
            assert grads.keys() == want_grads.keys()
            for name in grads:
                assert np.array_equal(bits(grads[name]), bits(want_grads[name])), name
        assert len(scoring._rope_tables[16][0]) > scoring._ROPE_FIRST_ROWS

    def test_table_built_once_per_doubling(self, small_set, long_set, monkeypatch):
        monkeypatch.setattr(scoring, "_rope_tables", {})
        builds = []
        build = scoring._build_rope_table
        monkeypatch.setattr(scoring, "_build_rope_table",
                            lambda d, n: builds.append((d, n)) or build(d, n))
        model = init_model(build_vocab([e.input for e in small_set + long_set]),
                           d_model=8, d_head=4, seed=0)
        inputs = [(long_set[i % len(long_set)] if i % 2 else small_set[i % len(small_set)])
                  .input for i in range(200)]
        for inp in inputs:
            score_all(inp, model)
        longest = max(len(inp.tokens) for inp in inputs)
        bound = math.ceil(math.log2(longest / scoring._ROPE_FIRST_ROWS)) + 1
        assert {d for d, _ in builds} == {4}
        assert 1 < len(builds) <= bound
        cos, sin = scoring._rope_tables[4]
        assert len(cos) >= longest
        assert not cos.flags.writeable and not sin.flags.writeable


class TestBatchedScoring:
    """``_forward`` scores a padded batch. Every input's cells must equal the
    per-example reference bit for bit, whatever else shares its batch."""

    # a 64-wide head makes a padded score matmul big enough for BLAS to
    # switch kernels, which rounds differently
    @pytest.mark.parametrize("d_head", [16, 64])
    @pytest.mark.parametrize("encoder, order", [
        ("embedding", "C"), ("mixer", "C"), ("imported", "C"), ("imported", "F")])
    def test_batches_bit_identical_to_reference(self, encoder, order, d_head, small_set,
                                                long_set):
        examples = mixed_lengths(small_set, long_set)
        # short and long inputs side by side in the batches below
        examples = [examples[i] for i in np.random.default_rng(3).permutation(len(examples))]
        model = bit_test_model(encoder, examples, order, d_head)
        want = {ex.example_id: reference_forward(model, ex.input, ex.example_id)[0]
                for ex in examples}
        for size in (1, 2, 5, len(examples)):
            for c0 in range(0, len(examples), size):
                chunk = examples[c0:c0 + size]
                inputs, ids = [e.input for e in chunk], [e.example_id for e in chunk]
                values, shapes, _ = _forward(model, inputs, ids)
                rows = max(inp.context_length for inp in inputs)
                assert values.shape[:3] == (2, len(chunk), rows)
                streamed = [s for _, _, scores in _score_chunks(zip(inputs, ids), model)
                            for s in scores]
                for b, (ex, (r, c), scores) in enumerate(zip(chunk, shapes, streamed)):
                    for op, v in want[ex.example_id].items():
                        assert np.array_equal(bits(values[OPS.index(op), b, :r, :c]), bits(v))
                        assert np.array_equal(bits(scores[OPS.index(op)]), bits(v))

    def test_empty_batch(self, small_model):
        assert list(_score_chunks([], small_model)) == []

    def test_non_finite_score_names_example(self, small_set, small_model):
        records = {e.example_id: encode(e.input, small_model.encoder) for e in small_set}
        records[small_set[2].example_id] = records[small_set[2].example_id] * 1e200
        model = with_imported_vectors(small_model, records)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=rf"score grid of example "
                                                 rf"'{small_set[2].example_id}' is not finite"):
                list(_score_chunks([(e.input, e.example_id) for e in small_set], model))

    def test_non_finite_score_in_a_later_chunk_names_example(self, long_set,
                                                            small_model):
        examples = long_set[:scoring.INFERENCE_CHUNK + 2]
        bad = examples[-1].example_id
        records = {e.example_id: encode(e.input, small_model.encoder) for e in examples}
        records[bad] = records[bad] * 1e200
        model = with_imported_vectors(small_model, records)
        chunks = _score_chunks(((e.input, e.example_id) for e in examples), model)
        with np.errstate(over="ignore", invalid="ignore"):
            next(chunks)  # the first chunk is finite
            with pytest.raises(ValueError,
                               match=rf"score grid of example '{bad}' is not finite"):
                next(chunks)


class TestProject:
    def test_fixture_by_hand(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([1.0, 1.0])
        wq, bq = np.zeros((len(OPS), 2, 2)), np.zeros((len(OPS), 2))
        wq[OPS.index(EditOp.SUBSTITUTE)], bq[OPS.index(EditOp.SUBSTITUTE)] = w, b
        head = HeadParams(wq=wq, bq=bq, wk=2 * wq, bk=bq)
        h = np.array([[1.0, 1.0]])
        q, k = project(h, head, EditOp.SUBSTITUTE)
        assert np.allclose(q, [[4.0, 8.0]])
        assert np.allclose(k, [[7.0, 15.0]])

    def test_separate_q_and_k_sides(self, small_model):
        h = np.ones((2, small_model.encoder.d_model))
        q, k = project(h, small_model.head, EditOp.PRE_INSERT)
        assert not np.allclose(q, k)


class TestVocabAndInit:
    def test_reserved_ids_first(self, small_set):
        vocab = build_vocab([e.input for e in small_set])
        assert vocab["[UNK]"] == 0 and vocab["[END]"] == 1
        assert vocab["[COREF]"] == 2 and vocab["[ELLIP]"] == 3

    def test_deterministic(self, small_set):
        vocab = build_vocab([e.input for e in small_set])
        a = init_model(vocab, 8, 4, seed=3)
        b = init_model(vocab, 8, 4, seed=3)
        for (_, pa), (_, pb) in zip(params_items(a), params_items(b)):
            assert np.array_equal(pa, pb)

    def test_odd_head_dim_rejected(self, small_set):
        vocab = build_vocab([e.input for e in small_set])
        with pytest.raises(ValueError):
            init_model(vocab, 8, 3)

    @pytest.mark.parametrize("d_model", [0, -2])
    def test_bad_width_rejected_before_drawing(self, d_model, small_set):
        vocab = build_vocab([e.input for e in small_set])
        with pytest.raises(ValueError, match="d_model must be positive and even"):
            init_model(vocab, d_model, 4, mixer=True)

    @pytest.mark.parametrize("vocab", [{"[UNK]": 0, "a": 5}, {"a": 0, "[UNK]": 1}, {},
                                       {"[UNK]": 0, "a": 0}],
                             ids=["gap", "unk-not-first", "empty", "repeated-id"])
    def test_malformed_vocab_rejected(self, vocab):
        # each once built a model: an id past the table, a word in
        # [UNK]'s row, no rows at all, or two words in one row
        with pytest.raises(ValueError, match=re.escape(
                "vocab ids must be 0..n-1 for its n tokens, with '[UNK]' at 0")):
            init_model(vocab, 8, 4)

    def test_unknown_token_maps_to_unk(self, small_model):
        ids = small_model.encoder.token_ids(["definitely-not-in-vocab"])
        assert ids.tolist() == [0]


def named_tensors(model):
    """Every tensor a model's code reads or updates: ``params_items``, the
    stacked heads, and the embedding and mixer unless vectors are imported."""
    head = model.head
    tensors = [a for _, a in params_items(model)] + [head.wq, head.bq, head.wk, head.bk]
    if model.encoder.imported is None:
        tensors.append(model.encoder.embedding)
        mix = model.encoder.mixer
        tensors += [getattr(mix, f.name) for f in fields(mix)] if mix is not None else []
    return tensors


class TestParameterVector:
    """Every named tensor is a view of the model's one vector ``flat``, laid
    out in ``params_items`` order, and stays one through a deep copy."""

    def assert_views_of_flat(self, model):
        for a in named_tensors(model):
            assert np.shares_memory(a, model.flat)
        # the layout ``params_items(model.views(vec))`` names is the model's own
        for (n, a), (m, b) in zip(params_items(model),
                                  params_items(model.views(model.flat))):
            assert n == m and a.__array_interface__ == b.__array_interface__
        assert model.flat.size == sum(a.size for _, a in params_items(model))

    @pytest.mark.parametrize("mixer", [False, True])
    def test_init_and_load(self, mixer, small_set, tmp_path):
        model = init_model(build_vocab([e.input for e in small_set]), 8, 4, mixer=mixer)
        self.assert_views_of_flat(model)
        save_model(tmp_path / "m.bin", model, AdamState.for_model(model))
        loaded, state = load_model(tmp_path / "m.bin")
        self.assert_views_of_flat(loaded)
        assert np.array_equal(loaded.flat, model.flat)
        assert state.m.shape == state.v.shape == loaded.flat.shape

    def test_imported_vector_holds_heads_only(self, small_model):
        imported = with_imported_vectors(small_model, {})
        self.assert_views_of_flat(imported)
        assert all(n.startswith("head.") for n, _ in params_items(imported))
        assert not np.shares_memory(imported.encoder.embedding, imported.flat)

    @pytest.mark.parametrize("encoder", ["embedding", "mixer", "imported"])
    def test_deep_copy_trains_its_own_vector(self, encoder, small_set, tmp_path):
        model = bit_test_model(encoder, small_set, order="C", d_head=4)
        twin = copy.deepcopy(model)
        self.assert_views_of_flat(twin)
        assert np.array_equal(bits(twin.encoder.embedding), bits(model.encoder.embedding))
        for a in named_tensors(twin) + [twin.flat]:
            assert not np.shares_memory(a, model.flat)
            assert not np.shares_memory(a, model.encoder.embedding)
        before = model.flat.copy()
        _, grads = grad(twin, small_set)
        scoring._adam_step(twin, grads, AdamState.for_model(twin), TrainConfig(1e-2))
        assert np.array_equal(model.flat, before)
        # ``_forward`` reads the updated vector: the copy scores as the same
        # parameters do once saved and loaded afresh
        save_model(tmp_path / "twin.bin", twin)
        fresh, _ = load_model(tmp_path / "twin.bin")
        if encoder == "imported":
            fresh = with_imported_vectors(fresh, twin.encoder.imported)
        for e in small_set:
            got = score_all(e.input, twin, e.example_id)
            for o, g in enumerate(score_all(e.input, fresh, e.example_id)):
                assert np.array_equal(bits(got[o]), bits(g))
                assert not np.array_equal(got[o], score_all(e.input, model, e.example_id)[o])


class TestEncode:
    def test_shape_covers_sentinel(self, small_set, small_model):
        inp = small_set[0].input
        h = encode(inp, small_model.encoder)
        assert h.shape == (len(inp.tokens), 8)

    def test_no_mixer_identical_tokens_identical_vectors(self, small_set, small_model):
        inp = small_set[0].input
        h = encode(inp, small_model.encoder)
        texts = inp.texts()
        for i, t in enumerate(texts):
            j = texts.index(t)
            assert np.array_equal(h[i], h[j])

    def test_mixer_is_context_dependent(self, small_set):
        vocab = build_vocab([e.input for e in small_set])
        model = init_model(vocab, 8, 4, seed=0, mixer=True)
        a, b = small_set[0].input, small_set[1].input
        ha = encode(a, model.encoder)
        hb = encode(b, model.encoder)
        # the sentinel token appears in both inputs but its vector differs
        assert not np.allclose(ha[a.sentinel_index], hb[b.sentinel_index])

    def test_imported_requires_record(self, small_set, small_model):
        imp = with_imported_vectors(small_model, {})
        with pytest.raises(ValueError, match="imported"):
            encode(small_set[0].input, imp.encoder, "missing-id")

    def test_imported_shape_checked(self, small_set, small_model):
        imp = with_imported_vectors(small_model, {"x": np.zeros((2, 8))})
        with pytest.raises(ValueError, match="shape"):
            encode(small_set[0].input, imp.encoder, "x")

    def test_imported_served_verbatim(self, small_set, small_model):
        inp = small_set[0].input
        vecs = np.arange(len(inp.tokens) * 8, dtype=float).reshape(-1, 8)
        imp = with_imported_vectors(small_model, {"a": vecs})
        assert np.array_equal(encode(inp, imp.encoder, "a"), vecs)


class TestTemplateInvariance:
    """Every history-row x column score is the same whether the [ELLIP]
    marker opens or closes the query (the query keeps its length): the
    embedding encoder maps each token on its own, and the mixer's attention
    carries no position, so history rows never see where the marker is.
    The mixer differs only by summation order. So today's encoders cannot
    tell a prepending template from an appending one; a position- or
    segment-aware mixer (ROADMAP item 2) is expected to flip the mixer case."""

    @pytest.mark.parametrize("mixer, tol", [(False, 0.0), (True, 1e-12)],
                             ids=["embedding", "mixer"])
    def test_history_scores_ignore_marker_position(self, mixer, tol, small_set):
        model = init_model(build_vocab([e.input for e in small_set]), 8, 4, seed=0,
                           mixer=mixer)
        for ex in small_set:
            incomplete = ex.dialogue.incomplete
            start, end = (build_input_sequence(_template(incomplete, [(c, c)], False),
                                               ex.dialogue)
                          for c in (0, len(incomplete)))
            assert start.tokens[0] == end.tokens[start.query_length - 1] == ELLIP_TOKEN
            assert start.query_length == end.query_length
            a, b = score_all(start, model), score_all(end, model)
            history = slice(start.query_length, start.context_length)
            for sa, sb in zip(a, b):  # one operation at a time
                assert not np.array_equal(sa, sb)
                np.testing.assert_allclose(sa[history], sb[history], rtol=0, atol=tol)


class TestScoreAll:
    def test_grid_shapes(self, small_set, small_model):
        inp = small_set[0].input
        scores = score_all(inp, small_model)
        for g in scores:
            assert g.shape == (inp.context_length, inp.incomplete_length + 1)
        assert len(scores) == len(OPS) and set(OPS) == {EditOp.SUBSTITUTE, EditOp.PRE_INSERT}

    def test_non_finite_grid_rejected(self):
        with pytest.raises(ValueError):
            ScoreGrid(EditOp.SUBSTITUTE, np.array([[np.inf]]))


class TestCircleLoss:
    def scores_of(self, values):
        v = np.asarray(values, dtype=float)
        scores = np.full((len(OPS), *v.shape), -50.0)
        scores[OPS.index(EditOp.SUBSTITUTE)] = v
        return scores

    def test_zero_score_single_positive(self):
        # one positive at s=0 contributes log(1 + e^0) = log 2; the
        # insert grid at -50 contributes ~0
        gold = EditMatrix.from_cells(1, 2, frozenset({(0, 0, EditOp.SUBSTITUTE)}))
        loss = circle_loss(self.scores_of([[0.0, -50.0]]), gold)
        assert abs(loss - math.log(2.0)) < 1e-12

    def test_zero_score_single_negative(self):
        gold = EditMatrix.from_cells(1, 2, frozenset())
        loss = circle_loss(self.scores_of([[0.0, -50.0]]), gold)
        assert abs(loss - math.log(2.0)) < 1e-12

    def test_saturated_cells_near_zero_loss(self):
        gold = EditMatrix.from_cells(1, 2, frozenset({(0, 0, EditOp.SUBSTITUTE)}))
        loss = circle_loss(self.scores_of([[40.0, -40.0]]), gold)
        assert 0.0 < loss < 1e-15

    def test_extreme_scores_stay_finite(self):
        gold = EditMatrix.from_cells(1, 2, frozenset())
        loss = circle_loss(self.scores_of([[700.0, 700.0]]), gold)
        # log(1 + 2 e^700) = 700 + log 2 up to an e^-700 correction; naive
        # exponentiation would overflow here
        assert abs(loss - (700.0 + math.log(2.0))) < 1e-9

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_scores_rejected(self, bad):
        gold = EditMatrix.from_cells(1, 2, frozenset())
        with pytest.raises(ValueError, match="^scores must be finite$"):
            circle_loss(self.scores_of([[0.0, bad]]), gold)

    def test_shape_mismatch_rejected(self):
        gold = EditMatrix.from_cells(2, 2, frozenset())
        with pytest.raises(ValueError, match="shape"):
            circle_loss(self.scores_of([[0.0]]), gold)

    def test_monotone_in_positive_score(self):
        gold = EditMatrix.from_cells(1, 2, frozenset({(0, 0, EditOp.SUBSTITUTE)}))
        losses = [circle_loss(self.scores_of([[s, -50.0]]), gold)
                  for s in (-1.0, 0.0, 1.0, 2.0)]
        assert losses == sorted(losses, reverse=True)


def fd_check(model, batch, h=1e-4):
    """Central finite differences over every trainable scalar."""
    analytic = dict(params_items(model.views(grad(model, batch)[1])))
    worst = 0.0
    for name, p in params_items(model):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp = grad(model, batch)[0]
            p[idx] = orig - h
            lm = grad(model, batch)[0]
            p[idx] = orig
            fd = (lp - lm) / (2 * h)
            rel = abs(analytic[name][idx] - fd) / max(abs(fd), 1e-6)
            worst = max(worst, rel)
    return worst


class TestGradients:
    def test_matches_finite_differences(self, small_set, small_model):
        model = copy.deepcopy(small_model)
        worst = fd_check(model, small_set[:3])
        assert worst < 1e-5

    def test_mixer_backward_isolated(self):
        # seed 3 keeps every relu preactivation at least 1e-2 from zero, so
        # central differences are valid; loss is 0.5 * sum(out^2)
        rng = np.random.default_rng(3)
        d, d_ff, n = 4, 8, 5
        u = lambda *s: rng.uniform(-0.5, 0.5, size=s)
        p = MixerParams(wq=u(d, d), wk=u(d, d), wv=u(d, d), wo=u(d, d),
                        w1=u(d, d_ff), b1=u(d_ff), w2=u(d_ff, d), b2=u(d))
        x = u(n, d)
        out, cache = _mixer_forward(x, p)
        assert np.min(np.abs(cache[7])) > 1e-2
        names = ("wq", "wk", "wv", "wo", "w1", "b1", "w2", "b2")
        grads = MixerParams(*(np.zeros_like(getattr(p, k)) for k in names))
        _mixer_backward(out.copy(), p, cache, grads)
        step = 1e-5
        for k in names:
            a = getattr(p, k)
            it = np.nditer(a, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = a[idx]
                a[idx] = orig + step
                lp = 0.5 * np.sum(_mixer_forward(x, p)[0] ** 2)
                a[idx] = orig - step
                lm = 0.5 * np.sum(_mixer_forward(x, p)[0] ** 2)
                a[idx] = orig
                fd = (lp - lm) / (2 * step)
                assert abs(getattr(grads, k)[idx] - fd) < 1e-5 * max(abs(fd), 1.0)

    def test_loss_equals_circle_loss_of_score_all(self, long_set):
        # training and inference share one forward pass, so the loss that
        # grad reports is bit-equal to the loss of the inference grids
        vocab = build_vocab([e.input for e in long_set])
        model = init_model(vocab, d_model=32, d_head=16, seed=0, mixer=True)
        for ex in long_set:
            assert ex.input.context_length > 150
            loss, _ = grad(model, [ex])
            assert loss == circle_loss(score_all(ex.input, model), ex.gold)

    def test_mean_over_batch(self, small_set, small_model):
        l1, g1 = grad(small_model, small_set[:1])
        l2, g2 = grad(small_model, small_set[:1] * 3)
        g1, g2 = (dict(params_items(small_model.views(g))) for g in (g1, g2))
        assert abs(l1 - l2) < 1e-12
        for name in g1:
            assert np.allclose(g1[name], g2[name])


class TestBatchedTraining:
    """``grad`` runs one padded forward, loss and backward pass per run of
    consecutive examples of at most ``TRAIN_CHUNK_TOKENS`` input tokens;
    it must equal the per-example loop bit for bit."""

    @pytest.mark.parametrize("encoder", ["embedding", "mixer", "imported"])
    def test_grad_bit_identical_to_per_example_loop(self, encoder, small_set, long_set):
        examples = mixed_lengths(small_set, long_set)
        order = np.random.default_rng(4).permutation(len(examples))
        examples = [examples[i] for i in order]
        assert sum(len(e.input.tokens) for e in examples) > 2 * scoring.TRAIN_CHUNK_TOKENS
        model = bit_test_model(encoder, examples)
        for batch in (examples, examples[:5], examples[5:6]):
            want_loss, want_grads = reference_batch_grad(model, batch)
            loss, grads = grad(model, batch)
            grads = dict(params_items(model.views(grads)))
            assert np.array_equal(bits(loss), bits(want_loss))
            assert grads.keys() == want_grads.keys()
            for name in grads:
                assert np.array_equal(bits(grads[name]), bits(want_grads[name])), name

    @pytest.mark.parametrize("encoder", ["embedding", "mixer"])
    def test_one_embedding_scatter_per_chunk_is_bit_identical(self, encoder, small_set):
        # one pass whose inputs share tokens with each other and repeat
        # tokens within themselves: the order in which the pass's single
        # np.add.at adds the rows of a repeated token decides its bits
        batch = [replace(e, example_id=str(i)) for i, e in enumerate(small_set)]
        assert sum(len(e.input.tokens) for e in batch) <= scoring.TRAIN_CHUNK_TOKENS
        model = bit_test_model(encoder, batch)
        ids = [model.encoder.token_ids(e.input.texts()) for e in batch]
        assert all(len(set(i.tolist())) < len(i) for i in ids)
        assert set(ids[0].tolist()) & set(ids[1].tolist())
        want_loss, want_grads = reference_batch_grad(model, batch)
        loss, grads = grad(model, batch)
        grads = dict(params_items(model.views(grads)))
        assert np.array_equal(bits(loss), bits(want_loss))
        for name in grads:
            assert np.array_equal(bits(grads[name]), bits(want_grads[name])), name

    def test_gold_shape_mismatch_names_example(self, small_set, small_model):
        a, b, c = small_set[:3]
        assert b.gold.mask(EditOp.SUBSTITUTE).shape != c.gold.mask(EditOp.SUBSTITUTE).shape
        bad = TrainExample(b.input, c.gold, "b", b.dialogue)
        with pytest.raises(ValueError, match=r"^example 'b': grid shape \(\d+, \d+\) "
                                             r"does not match gold \(\d+, \d+\)$"):
            grad(small_model, [a, bad])

    def test_passes_are_token_bounded_and_in_order(self, small_set, long_set, en_lexicon,
                                                   monkeypatch):
        oversized = prepare(lengthen(make_corpus(1, seed=8)[0], np.random.default_rng(1),
                                     turns=40), en_lexicon)
        assert len(oversized.input.tokens) > scoring.TRAIN_CHUNK_TOKENS
        batch = small_set[:3] + long_set[:3] + [oversized] + small_set[3:] + long_set[3:5]
        model = init_model(build_vocab([e.input for e in batch]), d_model=8, d_head=4)
        passes, forward = [], scoring._forward

        def recording_forward(model, inputs, *args, **kwargs):
            assert kwargs == {"for_backward": True}
            passes.append(list(inputs))
            return forward(model, inputs, *args, **kwargs)

        monkeypatch.setattr(scoring, "_forward", recording_forward)
        grad(model, batch)
        assert [inp for p in passes for inp in p] == [e.input for e in batch]
        assert [oversized.input] in passes
        sizes = [[len(inp.tokens) for inp in p] for p in passes]
        for p, later in zip(sizes, sizes[1:] + [None]):
            assert len(p) == 1 or sum(p) <= scoring.TRAIN_CHUNK_TOKENS
            if later is not None:  # a pass stops only where the next input would not fit
                assert sum(p) + later[0] > scoring.TRAIN_CHUNK_TOKENS
        assert len(passes) >= 4

    def test_non_finite_loss_in_a_later_chunk_names_example(self, small_set, long_set,
                                                            small_model):
        # passes [long, long] and [long, short, short, short]: the bad
        # example is inside the second
        examples = long_set[:3] + [replace(e, example_id=f"s{i}")
                                   for i, e in enumerate(small_set[:3])]
        lengths = [len(e.input.tokens) for e in examples]
        assert sum(lengths[:2]) <= scoring.TRAIN_CHUNK_TOKENS < sum(lengths[:3])
        assert sum(lengths[2:]) <= scoring.TRAIN_CHUNK_TOKENS
        bad = examples[3].example_id
        records = {e.example_id: encode(e.input, small_model.encoder) for e in examples}
        records[bad] = records[bad] * 1e200
        model = with_imported_vectors(small_model, records)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged,
                               match=rf"^non-finite loss on example '{bad}'$"):
                grad(model, examples)


class TestTraining:
    def cfg(self, **kw):
        base = dict(learning_rate=1e-3, batch_size=4, epochs=3, seed=1)
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_epochs_leaves_params(self, small_set, small_model):
        model = copy.deepcopy(small_model)
        log, state = train(small_set, self.cfg(epochs=0), model)
        assert log.epoch_losses == []
        assert state.step == 0
        for (_, a), (_, b) in zip(params_items(model), params_items(small_model)):
            assert np.array_equal(a, b)

    def test_empty_dataset_rejected_before_any_update(self, small_model):
        model = copy.deepcopy(small_model)
        state = AdamState.for_model(model)
        state.m += 0.5
        before = (model.flat.copy(), state.m.copy(), state.v.copy())
        with pytest.raises(ValueError, match="no training example"):
            train([], self.cfg(epochs=2), model, opt_state=state)
        assert (state.step, state.epochs_done) == (0, 0)
        for a, b in zip((model.flat, state.m, state.v), before):
            assert np.array_equal(a, b)

    def test_empty_dev_set_rejected(self, small_model):
        with pytest.raises(ValueError, match="^no dev example$"):
            train_em(small_model, [], 0.1)

    @pytest.mark.parametrize("gap", ["no-dialogue", "no-rewrite"])
    def test_dev_example_without_rewrite_rejected(self, gap, small_set, small_model,
                                                  monkeypatch):
        """An example that EM cannot be taken of is a ValueError naming it,
        raised before any decoding (once an AttributeError)."""
        ex = small_set[0]
        bad = replace(ex, example_id="bad", dialogue=None if gap == "no-dialogue"
                      else replace(ex.dialogue, rewritten=None))
        monkeypatch.setattr(rewrite_module, "_decode_chunks", None)
        message = "^example 'bad' has no gold rewrite$"
        with pytest.raises(ValueError, match=message):
            train_em(small_model, [small_set[1], bad], 0.1)

    def test_loss_decreases(self, small_set, small_model):
        model = copy.deepcopy(small_model)
        log, _ = train(small_set, self.cfg(epochs=20), model)
        assert log.epoch_losses[-1] < log.epoch_losses[0]

    def test_deterministic_given_seed(self, small_set, small_model):
        runs = []
        for _ in range(2):
            model = copy.deepcopy(small_model)
            train(small_set, self.cfg(), model)
            runs.append([a.copy() for _, a in params_items(model)])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_dev_em_per_epoch_leaves_model_unchanged(self, small_set, small_model,
                                                      tmp_path):
        """The per-epoch dev EM recipe: ``train`` one epoch at a time, passing
        its state on, and ``train_em`` after each call. Decoding changes
        nothing: the saved model is byte-identical to one ``train`` call's."""
        cfg = self.cfg(learning_rate=3e-2, epochs=10)
        stepped, state, em = copy.deepcopy(small_model), None, []
        for epoch in range(cfg.epochs):
            _, state = train(small_set, replace(cfg, epochs=epoch + 1), stepped,
                             opt_state=state)
            em.append(train_em(stepped, small_set, 0.1))
        assert len(em) == cfg.epochs and max(em) > 0
        plain = copy.deepcopy(small_model)
        _, plain_state = train(small_set, cfg, plain)
        save_model(tmp_path / "stepped", stepped, state)
        save_model(tmp_path / "plain", plain, plain_state)
        assert (tmp_path / "stepped").read_bytes() == (tmp_path / "plain").read_bytes()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        # NaN passes ``<= 0``; it must fail before any update, not after an epoch
        for name, value in (("learning_rate", math.nan), ("learning_rate", math.inf)):
            with pytest.raises(ValueError, match=rf"^{name} must be finite, got"):
                TrainConfig(**{name: value})
        # 2.5 and NaN pass ``<= 0`` and True is an int: each fails here, not in ``train``
        for name, value in (("batch_size", 2.5), ("epochs", math.nan), ("epochs", True),
                            ("batch_size", False), ("epochs", "2")):
            with pytest.raises(ValueError, match=rf"^{name} must be an integer, got"):
                TrainConfig(**{name: value})
        assert TrainConfig(batch_size=np.int64(2), epochs=np.int32(0)).batch_size == 2

    @pytest.mark.parametrize("name, value, message", [
        ("learning_rate", 0.0, "learning_rate must be positive, got 0.0"),
        ("learning_rate", -1e-3, "learning_rate must be positive, got -0.001"),
        ("batch_size", 0, "batch_size must be positive, got 0"),
        ("epochs", -1, "epochs must be non-negative, got -1"),
        ("seed", -1, "seed must be non-negative, got -1"),
        ("seed", np.int64(-3), "seed must be non-negative, got -3"),
        ("seed", True, "seed must be an integer, got True"),
        ("seed", 1.5, "seed must be an integer, got 1.5")],
        ids=["lr-zero", "lr-negative", "batch_size", "epochs", "seed", "seed-numpy",
             "seed-bool", "seed-float"])
    def test_range_error_names_field_and_value(self, name, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainConfig(**{name: value})


class TestPersistence:
    def test_round_trip_bit_exact(self, small_set, small_model, tmp_path):
        model = copy.deepcopy(small_model)
        log, state = train(small_set, TrainConfig(learning_rate=1e-3, epochs=2,
                                                  batch_size=4, seed=0), model)
        p = tmp_path / "m.bin"
        save_model(p, model, state)
        loaded, lstate = load_model(p)
        for (na, a), (nb, b) in zip(params_items(model), params_items(loaded)):
            assert na == nb and np.array_equal(a, b)
        assert lstate.step == state.step
        assert lstate.epochs_done == state.epochs_done
        m, v = (dict(params_items(model.views(a))) for a in (state.m, state.v))
        lm, lv = (dict(params_items(loaded.views(a))) for a in (lstate.m, lstate.v))
        for n in m:
            assert np.array_equal(m[n], lm[n])
            assert np.array_equal(v[n], lv[n])
        assert loaded.encoder.vocab == model.encoder.vocab
        # version-1 headers written before the head count was removed carry
        # "heads"; such files still load to the same parameters
        header, tensors = p.read_bytes().split(b"\n", 1)
        old = tmp_path / "old.bin"
        old.write_bytes(json.dumps({**json.loads(header), "heads": 1}).encode()
                        + b"\n" + tensors)
        again, _ = load_model(old)
        for (na, a), (nb, b) in zip(params_items(loaded), params_items(again)):
            assert na == nb and np.array_equal(a, b)

    def test_imported_vector_model_round_trip(self, small_set, small_model, tmp_path):
        """A model saved from ``with_imported_vectors`` holds its heads only;
        loaded and given the same records back, it scores bit-equally."""
        records = {e.example_id: encode(e.input, small_model.encoder) for e in small_set}
        imported = with_imported_vectors(small_model, records)
        p = tmp_path / "imported.bin"
        save_model(p, imported)
        header = json.loads(p.read_bytes().split(b"\n", 1)[0])
        assert header["mode"] == "imported"
        assert [n for n, _ in header["tensors"]] == [n for n, _ in params_items(imported)]
        assert all(n.startswith("head.") for n, _ in header["tensors"])
        loaded, state = load_model(p)
        assert state is None
        with pytest.raises(ValueError, match="no imported vectors for example"):
            encode(small_set[0].input, loaded.encoder, small_set[0].example_id)
        again = with_imported_vectors(loaded, records)
        for e in small_set:
            g0 = score_all(e.input, imported, e.example_id)
            g1 = score_all(e.input, again, e.example_id)
            assert g0.shape == g1.shape
            for a, b in zip(g0, g1):
                assert np.array_equal(bits(a), bits(b))

    def test_resume_matches_uninterrupted(self, small_set, small_model, tmp_path):
        cfg = TrainConfig(learning_rate=1e-3, epochs=4, batch_size=4, seed=7)
        straight = copy.deepcopy(small_model)
        train(small_set, cfg, straight)

        half = copy.deepcopy(small_model)
        cfg_half = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4, seed=7)
        _, state = train(small_set, cfg_half, half)
        p = tmp_path / "ckpt.bin"
        save_model(p, half, state)
        resumed, rstate = load_model(p)
        train(small_set, cfg, resumed, opt_state=rstate)
        for (_, a), (_, b) in zip(params_items(straight), params_items(resumed)):
            assert np.array_equal(a, b)

    def test_imported_model_trains_heads_only_and_resumes(self, small_set, small_model,
                                                           tmp_path):
        """An imported-vector model trains its heads and nothing else; its
        checkpoint holds the heads and their moments, and resuming from it
        with the same records retraces the uninterrupted run."""
        records = {e.example_id: encode(e.input, small_model.encoder) for e in small_set}
        cfg = TrainConfig(learning_rate=1e-3, epochs=4, batch_size=4, seed=7)
        source = copy.deepcopy(small_model)
        straight = with_imported_vectors(source, records)
        train(small_set, cfg, straight)
        for (n, a), (_, b) in zip(params_items(source), params_items(small_model)):
            changed = not np.array_equal(a, b)
            assert changed == n.startswith("head."), n
        assert np.array_equal(bits(source.encoder.embedding),
                              bits(small_model.encoder.embedding))

        half = with_imported_vectors(copy.deepcopy(small_model), records)
        _, state = train(small_set, replace(cfg, epochs=2), half)
        p = tmp_path / "ckpt.bin"
        save_model(p, half, state)
        names = [n for n, _ in json.loads(p.read_bytes().split(b"\n", 1)[0])["tensors"]]
        heads = [n for n, _ in params_items(half)]
        assert all(n.startswith("head.") for n in heads)
        assert sorted(names) == sorted(heads + [f"adam.{k}.{n}" for n in heads
                                                for k in ("m", "v")])
        loaded, lstate = load_model(p)
        resumed = with_imported_vectors(loaded, records)
        train(small_set, cfg, resumed, opt_state=lstate)
        for (_, a), (_, b) in zip(params_items(straight), params_items(resumed)):
            assert np.array_equal(bits(a), bits(b))

    def test_saved_bytes_identical_across_runs(self, small_set, small_model, tmp_path):
        blobs = []
        for i in range(2):
            model = copy.deepcopy(small_model)
            _, state = train(small_set, TrainConfig(learning_rate=1e-3, epochs=2,
                                                    batch_size=4, seed=3), model)
            p = tmp_path / f"m{i}.bin"
            save_model(p, model, state)
            blobs.append(p.read_bytes())
        assert blobs[0] == blobs[1]

    def test_rejects_trailing_bytes(self, small_model, tmp_path):
        p = tmp_path / "m.bin"
        save_model(p, small_model)
        load_model(p)
        p.write_bytes(p.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing"):
            load_model(p)

    def test_save_refuses_non_finite_tensor_before_opening(self, small_model, tmp_path):
        """A model that ``load_model`` would reject is not written."""
        model = copy.deepcopy(small_model)
        model.encoder.embedding[3, 1] = math.nan
        p = tmp_path / "m.bin"
        with pytest.raises(ValueError, match=r"^tensor 'emb' is not finite$"):
            save_model(p, model)
        assert not p.exists()

    def test_rejects_foreign_file(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b'{"format": "other"}\n')
        with pytest.raises(ValueError, match="model"):
            load_model(p)


class TestCtxVec:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        records = {"a": rng.normal(size=(3, 4)).astype(np.float32).astype(float),
                   "b": rng.normal(size=(7, 4)).astype(np.float32).astype(float)}
        p = tmp_path / "v.ctxvec"
        write_ctxvec(p, 4, records)
        d, back = read_ctxvec(p)
        assert d == 4 and set(back) == {"a", "b"}
        for k in records:
            assert np.array_equal(back[k], records[k])

    @pytest.fixture
    def ctxvec_bytes(self, tmp_path):
        records = {"a": np.ones((3, 4)), "b": np.zeros((7, 4))}
        p = tmp_path / "v.ctxvec"
        write_ctxvec(p, 4, records)
        return p, p.read_bytes()

    def test_rejects_truncated_file(self, ctxvec_bytes):
        p, data = ctxvec_bytes
        p.write_bytes(data[:-6])
        with pytest.raises(ValueError, match=r"v\.ctxvec: record 'b': truncated vectors"):
            read_ctxvec(p)

    def test_rejects_trailing_bytes(self, ctxvec_bytes):
        p, data = ctxvec_bytes
        p.write_bytes(data + b"\0")
        with pytest.raises(ValueError, match=r"v\.ctxvec: trailing"):
            read_ctxvec(p)

    def test_rejects_non_finite_vectors(self, tmp_path):
        p = tmp_path / "v.ctxvec"
        # the writer refuses NaN, so record b's float32 2.0s become quiet NaNs
        write_ctxvec(p, 4, {"a": np.ones((2, 4)), "b": np.full((2, 4), 2.0)})
        two, quiet, signaling = b"\x00\x00\x00\x40", b"\x00\x00\xc0\x7f", b"\x01\x00\x80\x7f"
        assert p.read_bytes().count(two) == 8
        p.write_bytes(p.read_bytes().replace(two, quiet))
        with pytest.raises(ValueError, match=r"v\.ctxvec: record 'b': non-finite"):
            read_ctxvec(p)
        # signaling NaNs, on which a float64 cast before the check would fail
        assert p.read_bytes().count(quiet) == 8
        p.write_bytes(p.read_bytes().replace(quiet, signaling))
        with pytest.raises(ValueError, match=r"v\.ctxvec: record 'b': non-finite"):
            read_ctxvec(p)

    @pytest.mark.parametrize("value", [math.nan, 1e300], ids=["nan", "float32-overflow"])
    def test_writer_refuses_non_finite_before_opening(self, tmp_path, value):
        """A record that would not read back is refused with no warning and
        no file written (an existing one would have been truncated)."""
        p = tmp_path / "v.ctxvec"
        vecs = np.zeros((2, 4))
        vecs[1, 2] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^record 'x' is not finite$"):
                write_ctxvec(p, 4, {"a": np.ones((1, 4)), "x": vecs})
        assert not p.exists()

    def test_rejects_duplicate_id(self, tmp_path):
        """Two records with one id: the second no longer silently wins."""
        p = tmp_path / "v.ctxvec"
        records = []
        for vecs in (np.ones((3, 4)), np.zeros((2, 4))):
            write_ctxvec(p, 4, {"a": vecs})
            records.append(p.read_bytes().split(b"\n", 1)[1])
        p.write_bytes(b'{"d_model": 4, "count": 2}\n' + b"".join(records))
        with pytest.raises(ValueError, match=r"v\.ctxvec: record 'a': duplicate id"):
            read_ctxvec(p)

    def test_rejects_wrong_width(self, tmp_path):
        with pytest.raises(ValueError, match="vectors"):
            write_ctxvec(tmp_path / "v.ctxvec", 4, {"a": np.zeros((2, 3))})

    def test_export_reimport_scores_identical(self, small_set, small_model, tmp_path):
        records = {e.example_id: encode(e.input, small_model.encoder)
                   for e in small_set}
        p = tmp_path / "v.ctxvec"
        write_ctxvec(p, small_model.encoder.d_model, records)
        _, back = read_ctxvec(p)
        imported = with_imported_vectors(small_model, back)
        for e in small_set:
            g0 = score_all(e.input, small_model)
            g1 = score_all(e.input, imported, e.example_id)
            for a, b in zip(g0, g1):
                # vectors pass through float32 on disk; so do the params
                assert np.allclose(a, b, atol=1e-5)
