import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iurkit.datamodel import Dialogue, Utterance, build_input_sequence
from iurkit.querygen import PronounLexicon, build_query
from iurkit import scoring
from iurkit.scoring import (AdamState, EncoderParams, HeadParams, MixerParams,
                            ModelParams, OpHead, ScoreGrid, TrainConfig,
                            TrainExample, _encode, _forward, _in_order, _loss_grad,
                            _mixer_backward, _mixer_forward, _rope_table, _rotate,
                            build_vocab, circle_loss, encode, grad,
                            init_model, load_model, params_items, project,
                            read_ctxvec, rope_rotate, save_model, score_all,
                            score_batch, score_grid, train, with_imported_vectors,
                            write_ctxvec)
from iurkit.supervision import EditMatrix, EditOp, build_edit_matrix
from synthetic import PRONOUNS, VOCAB, make_corpus

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


def lengthen(ex, rng, turns=12, turn_len=16):
    """Prepend distractor history turns (~200 context rows), drawn from
    vocabulary words the dialogue does not use."""
    d = ex.dialogue
    used = {t for u in (*d.history, d.incomplete, d.rewritten) for t in u.texts()}
    pool = [w for w in VOCAB if w not in used]
    extra = tuple(Utterance.from_texts(list(rng.choice(pool, size=turn_len)), turn)
                  for turn in range(turns))
    history = extra + tuple(Utterance(u.tokens, u.speaker_turn + turns)
                            for u in d.history)
    n = len(history)
    return replace(ex, dialogue=Dialogue(history, Utterance(d.incomplete.tokens, n),
                                         Utterance(d.rewritten.tokens, n), d.example_id))


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
    for op in _in_order(model.head.per_op):
        head = model.head.per_op[op]
        rq = reference_rope_rotate(hq @ head.wq.T + head.bq, rows)
        rk = reference_rope_rotate(hk @ head.wk.T + head.bk, cols)
        values[op] = rq @ rk.T
        rotated[op] = rq, rk
    return values, (h, ids, mix_cache, rows, cols, hq, hk, rotated)


def reference_grad(model, ex):
    """Reference: loss and gradients of one example through index arrays."""
    values, (h, ids, mix_cache, rows, cols, hq, hk, rotated) = \
        reference_forward(model, ex.input, ex.example_id)
    loss, dvalues = _loss_grad(values, ex.gold)
    grads = {name: np.zeros_like(a) for name, a in params_items(model)}
    dh = np.zeros_like(h)
    for op in _in_order(dvalues):
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
            dh = _mixer_backward(dh, model.encoder.mixer, mix_cache, grads)
        np.add.at(grads["emb"], ids, dh)
    return loss, grads


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
            for op, g in score_all(ex.input, model, ex.example_id).items():
                assert np.array_equal(bits(g.values), bits(want_values[op]))
            want_loss, want_grads = reference_grad(model, ex)
            loss, grads = grad(model, [ex])
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
                values, per_input, _ = _forward(model, inputs, ids)
                rows = max(inp.context_length for inp in inputs)
                assert values.shape[:3] == (2, len(chunk), rows)
                for ex, scores, grids in zip(chunk, per_input,
                                             score_batch(inputs, model, ids)):
                    for op, v in want[ex.example_id].items():
                        assert np.array_equal(bits(scores[op]), bits(v))
                        assert np.array_equal(bits(grids[op].values), bits(v))

    def test_empty_batch(self, small_model):
        assert list(score_batch([], small_model)) == []

    def test_non_finite_score_names_example(self, small_set, small_model):
        records = {e.example_id: encode(e.input, small_model.encoder) for e in small_set}
        records[small_set[2].example_id] = records[small_set[2].example_id] * 1e200
        model = with_imported_vectors(small_model, records)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=rf"score grid of example "
                                                 rf"'{small_set[2].example_id}' is not finite"):
                list(score_batch([e.input for e in small_set], model,
                                 [e.example_id for e in small_set]))

    def test_non_finite_score_in_a_later_chunk_names_example(self, long_set,
                                                            small_model):
        examples = long_set[:scoring.INFERENCE_CHUNK + 2]
        bad = examples[-1].example_id
        records = {e.example_id: encode(e.input, small_model.encoder) for e in examples}
        records[bad] = records[bad] * 1e200
        model = with_imported_vectors(small_model, records)
        grids = score_batch([e.input for e in examples], model,
                            [e.example_id for e in examples])
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(scoring.INFERENCE_CHUNK):  # the first chunk is finite
                next(grids)
            with pytest.raises(ValueError,
                               match=rf"score grid of example '{bad}' is not finite"):
                next(grids)


class TestProject:
    def test_fixture_by_hand(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([1.0, 1.0])
        head = HeadParams({EditOp.SUBSTITUTE: OpHead(wq=w, bq=b, wk=2 * w, bk=b)})
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

    @pytest.mark.parametrize("d_model, d_ff, message", [
        (0, None, "d_model must be positive and even"),
        (-2, None, "d_model must be positive and even"),
        (8, 0, "d_ff must be positive")])
    def test_bad_width_rejected_before_drawing(self, d_model, d_ff, message, small_set):
        vocab = build_vocab([e.input for e in small_set])
        with pytest.raises(ValueError, match=message):
            init_model(vocab, d_model, 4, mixer=True, d_ff=d_ff)

    def test_unknown_token_maps_to_unk(self, small_model):
        ids = small_model.encoder.token_ids(["definitely-not-in-vocab"])
        assert ids.tolist() == [0]


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


class TestScoreAll:
    def test_grid_shapes(self, small_set, small_model):
        inp = small_set[0].input
        grids = score_all(inp, small_model)
        for g in grids.values():
            assert g.values.shape == (inp.context_length, inp.incomplete_length + 1)
        assert set(grids) == {EditOp.SUBSTITUTE, EditOp.PRE_INSERT}

    def test_non_finite_grid_rejected(self):
        with pytest.raises(ValueError):
            ScoreGrid(EditOp.SUBSTITUTE, np.array([[np.inf]]))


class TestCircleLoss:
    def grids_of(self, values):
        v = np.asarray(values, dtype=float)
        return {EditOp.SUBSTITUTE: ScoreGrid(EditOp.SUBSTITUTE, v),
                EditOp.PRE_INSERT: ScoreGrid(EditOp.PRE_INSERT, np.full_like(v, -50.0))}

    def test_zero_score_single_positive(self):
        # one positive at s=0 contributes log(1 + e^0) = log 2; the
        # insert grid at -50 contributes ~0
        gold = EditMatrix.from_cells(1, 2, frozenset({(0, 0, EditOp.SUBSTITUTE)}))
        loss = circle_loss(self.grids_of([[0.0, -50.0]]), gold)
        assert abs(loss - math.log(2.0)) < 1e-12

    def test_zero_score_single_negative(self):
        gold = EditMatrix.from_cells(1, 2, frozenset())
        loss = circle_loss(self.grids_of([[0.0, -50.0]]), gold)
        assert abs(loss - math.log(2.0)) < 1e-12

    def test_saturated_cells_near_zero_loss(self):
        gold = EditMatrix.from_cells(1, 2, frozenset({(0, 0, EditOp.SUBSTITUTE)}))
        loss = circle_loss(self.grids_of([[40.0, -40.0]]), gold)
        assert 0.0 < loss < 1e-15

    def test_extreme_scores_stay_finite(self):
        gold = EditMatrix.from_cells(1, 2, frozenset())
        loss = circle_loss(self.grids_of([[700.0, 700.0]]), gold)
        # log(1 + 2 e^700) = 700 + log 2 up to an e^-700 correction; naive
        # exponentiation would overflow here
        assert abs(loss - (700.0 + math.log(2.0))) < 1e-9

    def test_shape_mismatch_rejected(self):
        gold = EditMatrix.from_cells(2, 2, frozenset())
        with pytest.raises(ValueError, match="shape"):
            circle_loss(self.grids_of([[0.0]]), gold)

    def test_monotone_in_positive_score(self):
        gold = EditMatrix.from_cells(1, 2, frozenset({(0, 0, EditOp.SUBSTITUTE)}))
        losses = [circle_loss(self.grids_of([[s, -50.0]]), gold)
                  for s in (-1.0, 0.0, 1.0, 2.0)]
        assert losses == sorted(losses, reverse=True)


def fd_check(model, batch, h=1e-4):
    """Central finite differences over every trainable scalar."""
    _, analytic = grad(model, batch)
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
        import copy
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
        grads = {f"mixer.{k}": np.zeros_like(getattr(p, k)) for k in names}
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
                assert abs(grads[f"mixer.{k}"][idx] - fd) < 1e-5 * max(abs(fd), 1.0)

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
        assert abs(l1 - l2) < 1e-12
        for name in g1:
            assert np.allclose(g1[name], g2[name])


class TestTraining:
    def cfg(self, **kw):
        base = dict(learning_rate=1e-3, batch_size=4, epochs=3, seed=1)
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_epochs_leaves_params(self, small_set, small_model):
        import copy
        model = copy.deepcopy(small_model)
        log, state = train(small_set, self.cfg(epochs=0), model)
        assert log.epoch_losses == []
        assert state.step == 0
        for (_, a), (_, b) in zip(params_items(model), params_items(small_model)):
            assert np.array_equal(a, b)

    def test_loss_decreases(self, small_set, small_model):
        import copy
        model = copy.deepcopy(small_model)
        log, _ = train(small_set, self.cfg(epochs=20), model)
        assert log.epoch_losses[-1] < log.epoch_losses[0]

    def test_deterministic_given_seed(self, small_set, small_model):
        import copy
        runs = []
        for _ in range(2):
            model = copy.deepcopy(small_model)
            train(small_set, self.cfg(), model)
            runs.append([a.copy() for _, a in params_items(model)])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(beta1=1.5)


class TestPersistence:
    def test_round_trip_bit_exact(self, small_set, small_model, tmp_path):
        import copy
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
        for n in state.m:
            assert np.array_equal(state.m[n], lstate.m[n])
            assert np.array_equal(state.v[n], lstate.v[n])
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
            assert g0.keys() == g1.keys()
            for op in g0:
                assert np.array_equal(bits(g0[op].values), bits(g1[op].values))

    def test_resume_matches_uninterrupted(self, small_set, small_model, tmp_path):
        import copy
        cfg = TrainConfig(learning_rate=1e-3, epochs=4, batch_size=4, seed=7)
        straight = copy.deepcopy(small_model)
        train(small_set, cfg, straight)

        half = copy.deepcopy(small_model)
        cfg_half = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4, seed=7)
        _, state = train(small_set, cfg_half, half)
        p = tmp_path / "ckpt.bin"
        save_model(p, half, state)
        resumed, rstate = load_model(p)
        train(small_set, cfg, resumed, start_epoch=rstate.epochs_done,
              opt_state=rstate)
        for (_, a), (_, b) in zip(params_items(straight), params_items(resumed)):
            assert np.array_equal(a, b)

    def test_saved_bytes_identical_across_runs(self, small_set, small_model, tmp_path):
        import copy
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
        write_ctxvec(p, 4, {"a": np.ones((2, 4)), "b": np.full((2, 4), np.nan)})
        with pytest.raises(ValueError, match=r"v\.ctxvec: record 'b': non-finite"):
            read_ctxvec(p)

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
            for op in g0:
                # vectors pass through float32 on disk; so do the params
                assert np.allclose(g0[op].values, g1[op].values, atol=1e-5)
