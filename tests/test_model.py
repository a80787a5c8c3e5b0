import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from docnmt import bpe as B
from docnmt import corpus as C
from docnmt import tensor as T
from docnmt.model import (CONTEXTS, ModelConfig, Previous, TranslationModel,
                          VARIANTS, context_attention, load_checkpoint,
                          param_count, parameter_shapes, save_checkpoint)

from model_helpers import position_cache, tiny_task, variant_family
from oracles import (decoder_loss_reference, finite_difference_grads,
                     max_relative_error)


@pytest.fixture(scope="module")
def task():
    docs, seg, metas, src_v, trg_v = tiny_task()
    batch = C.build_batch(seg, src_v, trg_v)
    return seg, batch, src_v, trg_v


def make_model(variant, src_v, trg_v, emb=8, hidden=8, seed=0, dropout=0.0,
               dtype=np.float32):
    cfg = ModelConfig(variant, emb, hidden, len(src_v), len(trg_v),
                      dropout=dropout)
    return TranslationModel(cfg, rng=T.make_rng(seed, 0), dtype=dtype)


class TestConfig:
    def test_odd_hidden_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig("baseline", 8, 7, 10, 10)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig("fancy", 8, 8, 10, 10)

    @pytest.mark.parametrize("field,value", [
        ("emb_dim", -4), ("emb_dim", 0), ("hidden_dim", -2),
        ("hidden_dim", 0), ("src_vocab_size", 0), ("trg_vocab_size", -1)])
    def test_size_below_one_rejected(self, field, value):
        sizes = {"emb_dim": 8, "hidden_dim": 8, "src_vocab_size": 10,
                 "trg_vocab_size": 10, field: value}
        with pytest.raises(ValueError, match=rf"{field} must be >= 1, "
                                             rf"got {value}\b"):
            ModelConfig("baseline", **sizes)

    @pytest.mark.parametrize("dropout", [-0.5, 1.0, 7.0, float("nan")])
    def test_dropout_outside_unit_interval_rejected(self, dropout):
        # T.dropout would refuse it only at the first training batch
        with pytest.raises(ValueError, match=rf"dropout must be in \[0, 1\), "
                                             rf"got {dropout}$"):
            ModelConfig("baseline", 8, 8, 10, 10, dropout=dropout)


# The checkpoint layout at E=3, H=4, V_src=5, V_trg=7: every name, shape
# and position.  Existing checkpoints only load while this holds.
LAYOUT_HEAD = [
    ("src_emb", (5, 3)), ("trg_emb", (7, 3)),
    ("enc_l1_fwd_wx", (3, 8)), ("enc_l1_fwd_wh", (2, 8)),
    ("enc_l1_fwd_b", (8,)),
    ("enc_l1_bwd_wx", (3, 8)), ("enc_l1_bwd_wh", (2, 8)),
    ("enc_l1_bwd_b", (8,)),
    ("enc_l2_fwd_wx", (4, 8)), ("enc_l2_fwd_wh", (2, 8)),
    ("enc_l2_fwd_b", (8,)),
    ("enc_l2_bwd_wx", (4, 8)), ("enc_l2_bwd_wh", (2, 8)),
    ("enc_l2_bwd_b", (8,)),
    ("dec_l1_wx", (3, 16)), ("dec_l1_wh", (4, 16)), ("dec_l1_b", (16,)),
    ("dec_l2_wx", (4, 16)), ("dec_l2_wh", (4, 16)), ("dec_l2_b", (16,)),
]
LAYOUT_CTX = [
    ("ctx_l1_wx", (3, 16)), ("ctx_l1_wh", (4, 16)), ("ctx_l1_b", (16,)),
    ("ctx_l2_wx", (4, 16)), ("ctx_l2_wh", (4, 16)), ("ctx_l2_b", (16,)),
]
LAYOUT = {
    "baseline": LAYOUT_HEAD + [("attn_out", (8, 4)), ("out_proj", (4, 7))],
    "separated-source": LAYOUT_HEAD + [("attn_out", (12, 4)),
                                       ("out_proj", (4, 7))] + LAYOUT_CTX,
    "separated-target": LAYOUT_HEAD + [("attn_out", (12, 4)),
                                       ("out_proj", (4, 7))] + LAYOUT_CTX,
    "shared-source": LAYOUT_HEAD + [("attn_out", (12, 4)),
                                    ("out_proj", (4, 7))],
    "shared-target": LAYOUT_HEAD + [("attn_out", (12, 4)),
                                    ("out_proj", (4, 7))],
    "shared-mix": LAYOUT_HEAD + [("attn_out", (12, 4)), ("out_proj", (4, 7))],
}


class TestParameterLayout:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_golden_layout(self, variant):
        cfg = ModelConfig(variant, 3, 4, 5, 7)
        assert list(parameter_shapes(cfg).items()) == LAYOUT[variant]


class TestParamCount:
    @pytest.mark.parametrize("emb,hidden,vs,vt", [(8, 8, 12, 12),
                                                  (6, 10, 17, 23),
                                                  (32, 32, 500, 600)])
    def test_identities(self, emb, hidden, vs, vt):
        counts = {v: param_count(ModelConfig(v, emb, hidden, vs, vt))
                  for v in VARIANTS}
        assert counts["shared-source"] == counts["shared-target"] \
            == counts["shared-mix"]
        assert counts["shared-source"] - counts["baseline"] == hidden * hidden
        ctx_stack = (emb * 4 * hidden + hidden * 4 * hidden + 4 * hidden) \
            + (hidden * 4 * hidden + hidden * 4 * hidden + 4 * hidden)
        assert counts["separated-source"] - counts["shared-source"] == ctx_stack
        assert counts["separated-target"] == counts["separated-source"]

    def test_count_matches_allocated_parameters(self, task):
        _, _, src_v, trg_v = task
        for variant in VARIANTS:
            model = make_model(variant, src_v, trg_v)
            total = sum(p.size for p in model.param_list())
            assert total == param_count(model.cfg)


class TestEncoder:
    def test_single_token_shape(self, task):
        _, _, src_v, trg_v = task
        model = make_model("baseline", src_v, trg_v)
        enc = model.encode(np.array([[4]]), np.ones((1, 1), dtype=np.float32))
        assert enc.states.shape == (1, 1, 8)

    def test_zero_weights_give_zero_states(self, task):
        _, _, src_v, trg_v = task
        model = make_model("baseline", src_v, trg_v)
        for p in model.param_list():
            p.data[:] = 0.0
        enc = model.encode(np.array([[4, 5, 6]]),
                           np.ones((1, 3), dtype=np.float32))
        assert (enc.states.data == 0).all()

    def test_matches_manual_two_token_simulation(self, task):
        _, _, src_v, trg_v = task
        model = make_model("baseline", src_v, trg_v, seed=3)
        ids = np.array([[4, 6]])
        mask = np.ones((1, 2), dtype=np.float32)
        enc = model.encode(ids, mask)

        p = model.params
        half = 4
        emb = p["src_emb"].data[ids[0]]

        def scan(x_seq, stem):
            h = np.zeros((1, half), dtype=np.float32)
            c = np.zeros((1, half), dtype=np.float32)
            outs = []
            for x in x_seq:
                ht, ct = T.lstm_cell(
                    T.Tensor(x[None, :]), T.Tensor(h), T.Tensor(c),
                    p[f"{stem}_wx"], p[f"{stem}_wh"], p[f"{stem}_b"])
                h, c = ht.data, ct.data
                outs.append(h)
            return outs

        l1f = scan([emb[0], emb[1]], "enc_l1_fwd")
        l1b = scan([emb[1], emb[0]], "enc_l1_bwd")
        layer1 = [np.concatenate([l1f[0], l1b[1]], axis=1),
                  np.concatenate([l1f[1], l1b[0]], axis=1)]
        l2f = scan([layer1[0][0], layer1[1][0]], "enc_l2_fwd")
        l2b = scan([layer1[1][0], layer1[0][0]], "enc_l2_bwd")
        expected = np.stack([np.concatenate([l2f[0], l2b[1]], axis=1)[0],
                             np.concatenate([l2f[1], l2b[0]], axis=1)[0]])
        np.testing.assert_allclose(enc.states.data[0], expected, atol=1e-6)

    def test_reverse_scan_mirrors_forward_scan(self, task):
        # one weight set: the right-to-left cell, reading the reversed
        # input, must retrace the forward trajectory position by position
        _, _, src_v, trg_v = task
        model = make_model("baseline", src_v, trg_v, seed=4)
        ids = np.array([[4, 7, 5]])
        mask = np.ones((1, 3), dtype=np.float32)
        cell = tuple(model.params[f"enc_l1_fwd_{part}"]
                     for part in ("wx", "wh", "b"))
        with T.no_grad():
            emb = T.embedding(model.params["src_emb"], ids)
            emb_rev = T.embedding(model.params["src_emb"], ids[:, ::-1].copy())
            fwd, h_fwd, c_fwd = T.lstm_scan(emb, mask, [cell])
            both, h_both, c_both = T.lstm_scan(emb_rev, mask, [cell, cell])
        bwd = both.data[:, :, 4:]
        np.testing.assert_array_equal(fwd.data, bwd[:, ::-1])
        np.testing.assert_array_equal(h_fwd.data, h_both.data[:, 4:])
        np.testing.assert_array_equal(c_fwd.data, c_both.data[:, 4:])


class TestContextStates:
    def test_first_sentence_is_empty_cache(self, task):
        _, _, src_v, trg_v = task
        for variant in VARIANTS:
            model = make_model(variant, src_v, trg_v)
            assert model.context_states() == []

    def test_shared_source_reuses_encoder_states_bitwise(self, task):
        _, batch, src_v, trg_v = task
        model = make_model("shared-source", src_v, trg_v)
        pos = batch.positions[0]
        with T.no_grad():
            enc = model.encode(pos.src, pos.src_mask)
        [(states, mask)] = model.context_states(
            Previous(enc=(enc.states.data, enc.mask)),
            np.arange(len(pos.src)))
        np.testing.assert_array_equal(states.data, enc.states.data)
        assert not states.requires_grad

    @pytest.mark.parametrize("variant", [v for v in VARIANTS
                                         if v != "baseline"])
    def test_cache_detached_and_copied(self, task, variant):
        # the gather masks rows that name no previous sentence on a copy,
        # and nothing returned aliases, or is later changed through, `left`
        _, batch, src_v, trg_v = task
        model = make_model(variant, src_v, trg_v)
        pos = batch.positions[0]
        with T.no_grad():
            _, _, left, _ = model.forward_loss(pos, model.context_states())
        given = [a for field in left for a in field]
        before = [a.copy() for a in given]
        prev = np.arange(len(pos.src)) - 1  # row 0 is a first sentence
        context = model.context_states(left, prev)
        assert len(context) == len(CONTEXTS[variant])
        for a, b in zip(given, before):
            np.testing.assert_array_equal(a, b)
        returned = [a for states, mask in context for a in (states.data, mask)]
        for _, mask in context:
            assert (mask[0] == 0).all() and (mask[1:].sum(axis=1) > 0).all()
        assert not any(np.shares_memory(a, b) for a in returned for b in given)
        kept = [a.copy() for a in returned]
        for a in given:
            a[...] = 7  # later mutation must not reach the context
        for a, b in zip(returned, kept):
            np.testing.assert_array_equal(a, b)

    def test_zeroed_context_encoder_contributes_zero(self, task):
        _, batch, src_v, trg_v = task
        model = make_model("separated-source", src_v, trg_v)
        for name, p in model.params.items():
            if name.startswith("ctx_"):
                p.data[:] = 0.0
        pos = batch.positions[0]
        context = model.context_states(Previous(src=(pos.src, pos.src_mask)),
                                       np.arange(len(pos.src)))
        [(states, _)] = context
        assert (states.data == 0).all()
        ctx, _ = context_attention(T.Tensor(np.ones((4, 8), dtype=np.float32)),
                                   context)
        assert (ctx.data == 0).all()

    def test_missing_target_context_rejected(self, task):
        _, batch, src_v, trg_v = task
        model = make_model("shared-target", src_v, trg_v)
        pos = batch.positions[0]
        with pytest.raises(ValueError, match="shared-target reads the "
                                             "previous sentence's dec"):
            model.context_states(Previous(src=(pos.src, pos.src_mask),
                                          trg=(pos.trg, pos.trg_mask)),
                                 np.arange(len(pos.src)))


class TestContextAttention:
    def test_empty_cache_gives_exact_zero(self):
        h = T.Tensor(np.random.default_rng(0).normal(size=(3, 8)))
        ctx, betas = context_attention(h, [])
        assert (ctx.data == 0.0).all() and betas == []

    def test_zero_states_give_uniform_weights_and_zero_vector(self):
        h = T.Tensor(np.random.default_rng(1).normal(size=(2, 8)))
        context = [(T.Tensor(np.zeros((2, 5, 8), dtype=np.float32)),
                    np.ones((2, 5), dtype=np.float32))]
        ctx, betas = context_attention(h, context)
        np.testing.assert_allclose(betas[0].data, 0.2, atol=1e-7)
        assert (ctx.data == 0.0).all()

    def test_shared_mix_sums_source_and_target_bitwise(self, task):
        _, batch, src_v, trg_v = task
        models = variant_family(src_v, trg_v)
        with T.no_grad():
            _, _, prev, _ = models["shared-mix"].forward_loss(
                batch.positions[0], [])
        h = T.Tensor(np.random.default_rng(2).normal(
            size=(batch.positions[0].src.shape[0], 8)).astype(np.float32))
        ctx = {v: context_attention(h, models[v].context_states(
                   prev, np.arange(len(batch.positions[0].src))))[0]
               for v in ("shared-mix", "shared-source", "shared-target")}
        summed = T.add(ctx["shared-source"], ctx["shared-target"])
        assert ctx["shared-mix"].data.tobytes() == summed.data.tobytes()
        assert (ctx["shared-target"].data != 0).any()


class TestDecodeStep:
    def test_distribution_sums_to_one(self, task):
        _, batch, src_v, trg_v = task
        model = make_model("shared-target", src_v, trg_v, seed=6)
        pos = batch.positions[1]
        cache = position_cache(model, batch, 1)
        with T.no_grad():
            enc = model.encode(pos.src, pos.src_mask)
            res = model.decode_step(pos.trg_in[:, 0], model.init_carry(enc),
                                    enc, cache)
        sums = res.probs.data.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)
        assert (res.probs.data > 0).all()

    def test_single_source_token_gives_unit_attention(self, task):
        _, _, src_v, trg_v = task
        model = make_model("baseline", src_v, trg_v, seed=7)
        with T.no_grad():
            enc = model.encode(np.array([[5]]),
                               np.ones((1, 1), dtype=np.float32))
            res = model.decode_step(np.array([B.BOS]), model.init_carry(enc),
                                    enc, [])
        np.testing.assert_array_equal(res.alpha.data, [[1.0]])

    def test_zeroed_context_block_matches_baseline(self, task):
        _, batch, src_v, trg_v = task
        models = variant_family(src_v, trg_v, zero_ctx_block=True)
        pos = batch.positions[1]
        with T.no_grad():
            enc_b = models["baseline"].encode(pos.src, pos.src_mask)
            base = models["baseline"].decode_step(
                pos.trg_in[:, 0], models["baseline"].init_carry(enc_b), enc_b,
                [])
            for variant in VARIANTS:
                if variant == "baseline":
                    continue
                model = models[variant]
                cache = position_cache(model, batch, 1)
                enc = model.encode(pos.src, pos.src_mask)
                res = model.decode_step(pos.trg_in[:, 0],
                                        model.init_carry(enc), enc, cache)
                np.testing.assert_allclose(res.probs.data, base.probs.data,
                                           atol=1e-6)


class TestForwardLoss:
    def test_uniform_model_loss_is_log_vocab(self, task):
        _, batch, src_v, trg_v = task
        model = make_model("baseline", src_v, trg_v)
        for p in model.param_list():
            p.data[:] = 0.0
        loss, _, _, _ = model.forward_loss(batch.positions[0],
                                           [])
        np.testing.assert_allclose(float(loss.data), np.log(len(trg_v)),
                                   rtol=1e-6)

    def test_loss_decreases_on_memorizable_pair(self):
        doc = C.Document("d", [(["w1", "w2", "."], ["w1", "w2", "."])])
        vocab = B.build_vocab([["w1", "w2", "."]])
        batch = C.build_batch([doc], vocab, vocab)
        model = make_model("baseline", vocab, vocab, seed=2)
        opt = T.AdaGrad(model.param_list(), lr=0.1)
        first = None
        for step in range(50):
            opt.zero_grad()
            loss, _, _, _ = model.forward_loss(batch.positions[0],
                                               [])
            T.backward(loss)
            opt.step()
            first = first if first is not None else float(loss.data)
        assert float(loss.data) < first * 0.5

    def test_masked_rows_contribute_exactly_zero(self, task):
        # the readout keeps only counted rows, so whatever a padded or
        # empty row's target is leaves loss and gradients bit for bit
        _, batch, src_v, trg_v = task
        model = make_model("shared-target", src_v, trg_v, seed=4)
        pos = batch.positions[-1]
        assert not pos.src_mask.any(axis=1).all()  # an exhausted document
        assert (pos.out_mask == 0).any()
        context = position_cache(model, batch, len(batch.positions) - 1)

        def run(trg_out):
            model.zero_grad()
            rows = dataclasses.replace(pos, trg_out=trg_out)
            loss, _, _, _ = model.forward_loss(rows, context)
            T.backward(loss, params=model.param_list())
            return [loss.data] + [p.grad for p in model.param_list()]

        noise = np.random.default_rng(0).integers(0, len(trg_v),
                                                  pos.trg_out.shape)
        counted = pos.out_mask > 0
        for got, want in zip(run(np.where(counted, pos.trg_out, noise)),
                             run(pos.trg_out)):
            assert got.tobytes() == want.tobytes()

    def test_masked_rows_do_not_change_loss_or_grads(self, task):
        # an exhausted document in the batch leaves loss and gradients as if
        # it were absent (up to BLAS summation grouping)
        _, _, src_v, trg_v = task
        long_doc = C.Document("a", [(["pro", "w1", "w2", "."],
                                     ["syna", "w1", "w2", "."])] * 2)
        short_doc = C.Document("b", [(["pro", "w1", "w2", "."],
                                      ["syna", "w1", "w2", "."])])
        both = C.build_batch([long_doc, short_doc], src_v, trg_v)
        alone = C.build_batch([long_doc], src_v, trg_v)
        model = make_model("baseline", src_v, trg_v, seed=9)

        def run(pos):
            model.zero_grad()
            loss, _, _, _ = model.forward_loss(pos, [])
            T.backward(loss, params=model.param_list())
            return float(loss.data), [p.grad.copy() for p in model.param_list()]

        loss_pair, grads_pair = run(both.positions[1])  # short doc exhausted
        loss_alone, grads_alone = run(alone.positions[1])
        assert loss_pair == loss_alone
        for a, b in zip(grads_pair, grads_alone):
            np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(variant=st.sampled_from(VARIANTS),
           picks=st.lists(st.integers(0, 3), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_batch_loss_is_token_weighted_sum_of_documents(self, task, variant,
                                                           picks, seed):
        # context chained through each position's Previous, as in training
        seg, _, src_v, trg_v = task
        model = TranslationModel(
            ModelConfig(variant, 4, 4, len(src_v), len(trg_v), dropout=0.0),
            rng=T.make_rng(seed, 0), dtype=np.float64)

        def summed_loss(docs):
            total, prev = 0.0, None
            with T.no_grad():
                for pos in C.build_batch(docs, src_v, trg_v).positions:
                    loss, _, prev, ntok = model.forward_loss(
                        pos, model.context_states(prev,
                                                  np.arange(len(pos.src))))
                    total += float(loss.data) * ntok
            return total

        docs = [seg[i] for i in picks]
        np.testing.assert_allclose(summed_loss(docs),
                                   sum(summed_loss([d]) for d in docs),
                                   rtol=1e-12)

    @pytest.mark.parametrize("variant", [v for v in VARIANTS
                                         if v != "baseline"])
    def test_rows_without_prev_need_a_context(self, task, variant):
        # one sentence index's rows name no previous sentences
        _, batch, src_v, trg_v = task
        model = make_model(variant, src_v, trg_v)
        assert batch.positions[1].prev is None
        with pytest.raises(ValueError, match=rf"^{variant} needs a context"):
            model.forward_loss(batch.positions[1])

    def test_empty_position_rejected(self, task):
        _, batch, src_v, trg_v = task
        model = make_model("baseline", src_v, trg_v)
        pos = batch.positions[0]
        hollow = dataclasses.replace(pos, out_mask=np.zeros_like(pos.out_mask))
        with pytest.raises(ValueError):
            model.forward_loss(hollow, [])


class TestFirstSentenceInvariance:
    def test_all_variants_identical_on_first_sentence(self, task):
        _, batch, src_v, trg_v = task
        models = variant_family(src_v, trg_v, seed=11)
        pos = batch.positions[0]
        reference = None
        for variant in VARIANTS:
            model = models[variant]
            with T.no_grad():
                enc = model.encode(pos.src, pos.src_mask)
                res = model.decode_step(pos.trg_in[:, 0],
                                        model.init_carry(enc), enc,
                                        model.context_states())
            if reference is None:
                reference = res.probs.data
            else:
                np.testing.assert_array_equal(res.probs.data, reference)


class TestGradientFlowBoundary:
    def test_zero_block_variant_grads_match_baseline(self, task):
        _, batch, src_v, trg_v = task
        models = variant_family(src_v, trg_v, zero_ctx_block=True)

        def two_position_grads(model):
            model.zero_grad()
            loss1, _, prev, n1 = model.forward_loss(
                batch.positions[0], model.context_states())
            T.backward(T.mul(loss1, n1))
            loss2, _, _, n2 = model.forward_loss(
                batch.positions[1],
                model.context_states(prev,
                                     np.arange(len(batch.positions[0].src))))
            T.backward(T.mul(loss2, n2))
            return {n: p.grad.copy() for n, p in model.params.items()}

        base_grads = two_position_grads(models["baseline"])
        for variant in ("shared-source", "shared-target", "shared-mix"):
            grads = two_position_grads(models[variant])
            for name, g in base_grads.items():
                if name == "attn_out":
                    np.testing.assert_array_equal(grads[name][:16], g)
                else:
                    np.testing.assert_array_equal(grads[name], g)

    def test_cache_states_have_no_graph_parents(self, task):
        _, batch, src_v, trg_v = task
        model = make_model("shared-mix", src_v, trg_v)
        first, second = batch.positions[0], batch.positions[1]
        _, enc, prev, _ = model.forward_loss(first, [])
        context = model.context_states(prev, np.arange(len(first.src)))
        assert len(context) == 2
        for states, _ in context:
            assert not states.requires_grad
        loss, _, _, _ = model.forward_loss(second, context)
        T.backward(loss)  # also clears the first position's records
        assert model.params["attn_out"].grad is not None
        assert enc.states.grad is None


class TestGradients:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_forward_loss_matches_finite_differences(self, task, variant):
        seg, _, src_v, trg_v = task
        cfg = ModelConfig(variant, 4, 4, len(src_v), len(trg_v), dropout=0.0)
        model = TranslationModel(cfg, rng=T.make_rng(13, 0), dtype=np.float64)
        batch = C.build_batch(seg[:2], src_v, trg_v)
        cache = position_cache(model, batch, 1)
        pos = batch.positions[1]

        if variant in ("separated-source", "separated-target"):
            first = batch.positions[0]
            tokens = Previous(src=(first.src, first.src_mask),
                              trg=(first.trg, first.trg_mask))

            def loss_tensor():
                fresh = model.context_states(tokens,
                                             np.arange(len(first.src)))
                return model.forward_loss(pos, fresh)[0]
        else:
            def loss_tensor():
                return model.forward_loss(pos, cache)[0]

        params = model.param_list()
        T.backward(loss_tensor(), params=params)
        analytic = [p.grad.copy() for p in params]

        def loss_value():
            with T.no_grad():
                return float(loss_tensor().data)

        numeric = finite_difference_grads(loss_value,
                                          [p.data for p in params])
        assert max_relative_error(analytic, numeric) < 1e-5
        model.zero_grad()


class TestDecoderOracle:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_forward_loss_matches_per_step_decoder(self, task, variant):
        # float64 with dropout on: the scans and the one readout give the
        # per-step decoder's loss, gradients and saved states up to the
        # order gradients are summed in
        seg, _, src_v, trg_v = task
        cfg = ModelConfig(variant, 6, 8, len(src_v), len(trg_v), dropout=0.3)
        model = TranslationModel(cfg, rng=T.make_rng(17, 0), dtype=np.float64)
        batch = C.build_batch(seg, src_v, trg_v)
        first, pos = batch.positions[0], batch.positions[1]
        with T.no_grad():
            _, _, prev, _ = model.forward_loss(first, [])

        def run(forward):
            rng = T.make_rng(17, 2)
            model.zero_grad()
            loss, dec = forward(pos, model.context_states(
                prev, np.arange(len(pos.src)), rng), rng)
            T.backward(loss, params=model.param_list())
            return [loss.data, dec] + [p.grad.copy()
                                       for p in model.param_list()]

        def scans(pos, context, rng):
            loss, _, prev, _ = model.forward_loss(pos, context, rng)
            return loss, prev.dec[0]

        def reference(pos, context, rng):
            loss, dec = decoder_loss_reference(model, pos, context, rng)
            return loss, dec.data

        got = run(scans)
        want = run(reference)
        assert got[0] != 0.0 and len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            np.testing.assert_allclose(g, w, rtol=1e-12,
                                       atol=1e-12 * np.abs(w).max())


class TestCheckpoint:
    @settings(max_examples=100, deadline=None)
    @given(variant=st.sampled_from(VARIANTS), emb=st.integers(1, 5),
           half=st.integers(1, 4), src_vocab=st.integers(4, 12),
           trg_vocab=st.integers(4, 12), dropout=st.floats(0.0, 0.9),
           seed=st.integers(0, 2**32 - 1))
    def test_round_trip(self, variant, emb, half, src_vocab, trg_vocab,
                        dropout, seed):
        # bitwise, for every variant at small random dimensions
        cfg = ModelConfig(variant, emb, 2 * half, src_vocab, trg_vocab,
                          dropout=dropout)
        model = TranslationModel(cfg, rng=T.make_rng(seed, 0))
        rng = np.random.default_rng(seed)
        for p in model.param_list():  # any float32 bit pattern, NaNs too
            p.data[...] = rng.integers(0, 2**32, size=p.shape,
                                       dtype=np.uint32).view(np.float32)
        with tempfile.TemporaryDirectory() as tmp:
            prefix = str(Path(tmp) / "ckpt")
            save_checkpoint(model, prefix)
            loaded = load_checkpoint(prefix)
        assert loaded.cfg == cfg
        assert list(loaded.params) == list(model.params)
        for name, p in model.params.items():
            assert loaded.params[name].data.dtype == np.float32
            assert loaded.params[name].data.tobytes() == p.data.tobytes()

    def test_resave_is_byte_identical(self, task, tmp_path):
        _, _, src_v, trg_v = task
        model = make_model("shared-mix", src_v, trg_v, seed=22)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        save_checkpoint(model, a)
        save_checkpoint(load_checkpoint(a), b)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        a_manifest = (tmp_path / "a.manifest").read_text()
        b_manifest = (tmp_path / "b.manifest").read_text()
        assert a_manifest == b_manifest

    def test_blob_size_mismatch_detected(self, task, tmp_path):
        _, _, src_v, trg_v = task
        model = make_model("baseline", src_v, trg_v)
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(model, prefix)
        with open(f"{prefix}.bin", "ab") as f:
            f.write(b"\x00\x00\x00\x00")
        with pytest.raises(ValueError):
            load_checkpoint(prefix)

    @pytest.mark.parametrize("edit,message", [
        ("extra", r"ckpt\.manifest: parameter extra_w is not part of a "
                  r"baseline model"),
        ("missing", r"ckpt\.manifest: parameter out_proj is missing"),
        ("misshaped", r"ckpt\.manifest: parameter attn_out has shape "
                      r"\(8, 16\), the config needs \(16, 8\)"),
        ("truncated", r"ckpt\.bin holds \d+ values, the config needs \d+"),
        ("layers", r"ckpt\.manifest: layers=3, only the two-layer "
                   r"architecture is supported"),
    ])
    def test_parameters_checked_against_config(self, task, tmp_path, edit,
                                               message):
        _, _, src_v, trg_v = task
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(make_model("baseline", src_v, trg_v), prefix)
        manifest = tmp_path / "ckpt.manifest"
        lines = manifest.read_text().splitlines()
        if edit == "extra":
            lines.append("param\textra_w\t2,2")
        elif edit == "missing":
            lines.remove(next(ln for ln in lines if "\tout_proj\t" in ln))
        elif edit == "misshaped":
            lines = [ln.replace("16,8", "8,16") if "\tattn_out\t" in ln
                     else ln for ln in lines]
        elif edit == "layers":
            lines = ["layers=3" if ln == "layers=2" else ln for ln in lines]
        else:
            blob = (tmp_path / "ckpt.bin").read_bytes()
            (tmp_path / "ckpt.bin").write_bytes(blob[:-8])
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            load_checkpoint(prefix)

    @pytest.mark.parametrize("start,new,message", [
        ("variant=", None, r"ckpt\.manifest: needs variant= as str, got None"),
        ("emb_dim=", "emb_dim=four",
         r"ckpt\.manifest: needs emb_dim= as int, got 'four'"),
        ("dropout=", "dropout=high",
         r"ckpt\.manifest: needs dropout= as float, got 'high'"),
        ("dropout=", "dropout=7.0",
         r"ckpt\.manifest: dropout must be in \[0, 1\), got 7\.0"),
        ("variant=", "variant=sideways",
         r"ckpt\.manifest: unknown variant: sideways"),
        ("hidden_dim=", "hidden_dim",
         r"ckpt\.manifest, line 3: cannot read 'hidden_dim'"),
        ("param\tout_proj\t", "param\tout_proj",
         r"ckpt\.manifest, line \d+: cannot read 'param\\tout_proj'"),
        ("param\tattn_out\t", "param\tattn_out\t16,x",
         r"ckpt\.manifest, line \d+: cannot read "
         r"'param\\tattn_out\\t16,x'"),
    ])
    def test_manifest_errors_name_file_and_line_or_key(self, task, tmp_path,
                                                       start, new, message):
        # the line starting with `start` is replaced by `new`, or dropped
        _, _, src_v, trg_v = task
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(make_model("baseline", src_v, trg_v), prefix)
        manifest = tmp_path / "ckpt.manifest"
        lines = [new if ln.startswith(start) else ln
                 for ln in manifest.read_text().splitlines()]
        manifest.write_text("".join(f"{ln}\n" for ln in lines if ln))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(prefix)

    def test_unknown_manifest_keys_accepted(self, task, tmp_path):
        # manifests written before the seed setting was dropped carry seed=
        _, _, src_v, trg_v = task
        model = make_model("baseline", src_v, trg_v)
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(model, prefix)
        manifest = tmp_path / "ckpt.manifest"
        manifest.write_text("seed=3\n" + manifest.read_text())
        assert load_checkpoint(prefix).cfg == model.cfg
