import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from docnmt import bpe as B
from docnmt import corpus as C
from docnmt import evaluation as E
from docnmt import tensor as T
from docnmt.model import CONTEXTS, ModelConfig, TranslationModel, VARIANTS

from model_helpers import tiny_task, variant_family
from oracles import (beam_reference, bootstrap_reference, greedy_reference,
                     sentence_stats)


@pytest.fixture(scope="module")
def task():
    docs, seg, metas, src_v, trg_v = tiny_task(n_docs=5, seed=12,
                                               sentences=(2, 4))
    return docs, seg, metas, src_v, trg_v


def eos_prone_model(variant, src_v, trg_v, seed):
    """Random model whose larger EOS weights end some hypotheses before the
    length cap (an untrained model otherwise never emits EOS)."""
    model = TranslationModel(
        ModelConfig(variant, 12, 12, len(src_v), len(trg_v)),
        rng=T.make_rng(seed, 0))
    model.params["out_proj"].data[:, B.EOS] *= 8.0
    return model


def recording(model, docs):
    """A model sharing `model`'s weights that keeps the probabilities of
    every `decode_step` of greedy decoding `docs` in one group, keyed by
    (document, sentence index): a list of steps each.

    Sentence index i decodes the documents that have an i-th sentence, in
    order, all against one slice of encoder states."""
    copy = TranslationModel(model.cfg, params=model.params)
    steps, seen = {}, []

    def decode_step(y_prev, carry, enc, context):
        res = TranslationModel.decode_step(copy, y_prev, carry, enc, context)
        if not seen or enc is not seen[-1]:
            seen.append(enc)  # kept alive, so an `is` test cannot misfire
        i = len(seen) - 1
        held = [d for d, doc in enumerate(docs) if len(doc) > i]
        for row, d in enumerate(held):
            steps.setdefault((d, i), []).append(res.probs.data[row].copy())
        return res
    copy.decode_step = decode_step
    return copy, steps


class TestBleu:
    def test_identity_scores_100(self):
        report = E.bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d"]])
        assert abs(report.bleu - 100.0) < 1e-6

    def test_clipping_and_zero_bigram(self):
        report = E.bleu([["the"] * 5], [["the", "cat"]])
        assert report.precisions[0] == pytest.approx(1 / 5)
        assert report.bleu == 0.0

    def test_brevity_penalty_hand_value(self):
        report = E.bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]])
        expected = 100.0 * math.exp(1.0 - 5.0 / 4.0)
        assert abs(report.bleu - expected) < 1e-6
        assert report.precisions == [1.0, 1.0, 1.0, 1.0]
        assert report.brevity_penalty == pytest.approx(math.exp(-0.25))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            E.bleu([["a"]], [["a"], ["b"]])

    def test_self_bleu_is_100_for_random_corpora(self):
        rng = np.random.default_rng(1)
        words = [f"t{i}" for i in range(30)]
        for _ in range(100):
            sents = [[words[i] for i in rng.integers(0, 30,
                                                     size=rng.integers(4, 12))]
                     for _ in range(rng.integers(1, 6))]
            assert E.bleu(sents, sents).bleu == pytest.approx(100.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        hyps = [[f"w{i}" for i in rng.integers(0, 9, size=6)]
                for _ in range(10)]
        refs = [[f"w{i}" for i in rng.integers(0, 9, size=6)]
                for _ in range(10)]
        base = E.bleu(hyps, refs).bleu
        order = rng.permutation(10)
        shuffled = E.bleu([hyps[i] for i in order],
                          [refs[i] for i in order]).bleu
        assert shuffled == pytest.approx(base)

    def test_empty_hypothesis_scores_zero(self):
        report = E.bleu([[]], [["a", "b"]])
        assert report.bleu == 0.0


class TestPairStats:
    # the sides share "c" and "d" and no other token; sentences may be
    # empty or shorter than 4 tokens, and three letters repeat n-grams
    PAIR = st.tuples(st.lists(st.sampled_from("abcd"), max_size=7),
                     st.lists(st.sampled_from("cdef"), max_size=7))
    SIZES = (E.STATS_BLOCK - 1, E.STATS_BLOCK, E.STATS_BLOCK + 1,
             2 * E.STATS_BLOCK + 3)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(),
           n_pairs=st.one_of(st.integers(0, 10), st.sampled_from(SIZES)))
    def test_matches_counter_oracle(self, data, n_pairs):
        pairs = data.draw(st.lists(self.PAIR, min_size=min(n_pairs, 1),
                                   max_size=min(n_pairs, 10)))
        if n_pairs > len(pairs):  # corpora of a block or more repeat the
            # drawn pairs in a random order
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            pairs = [pairs[i] for i in rng.integers(0, len(pairs),
                                                    size=n_pairs)]
        hyps, refs = [h for h, _ in pairs], [r for _, r in pairs]
        got = E.pair_stats(hyps, refs)
        assert got.dtype == np.int64 and got.shape == (n_pairs, 10)
        for row, hyp, ref in zip(got, hyps, refs):
            assert row.tolist() == sentence_stats(hyp, ref).tolist()


class TestBootstrap:
    @pytest.mark.parametrize("n", [0, -3])
    def test_non_positive_resamples_rejected(self, n):
        # 0 would divide by zero in the p-value
        hyps = [["a", "b"], ["c"]]
        with pytest.raises(ValueError, match=rf"n_resamples .*got {n}"):
            E.bootstrap_significance(hyps, hyps, hyps, n_resamples=n)

    def test_identical_systems_p_is_one(self):
        hyps = [["a", "b", "c"], ["d", "e"]] * 5
        refs = [["a", "b", "x"], ["d", "y"]] * 5
        result = E.bootstrap_significance(hyps, hyps, refs, n_resamples=200,
                                          seed=0)
        assert result.p_value == 1.0

    def test_reference_system_beats_random(self):
        rng = np.random.default_rng(3)
        refs = [[f"w{i}" for i in rng.integers(0, 10, size=8)]
                for _ in range(60)]
        random_sys = [[f"x{i}" for i in rng.integers(0, 10, size=8)]
                      for _ in range(60)]
        result = E.bootstrap_significance(random_sys, refs, refs,
                                          n_resamples=1000, seed=7)
        assert result.p_value < 0.01

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        refs = [[f"w{i}" for i in rng.integers(0, 6, size=7)]
                for _ in range(25)]
        a = [r[:-1] + ["zz"] for r in refs]
        b = [r[:-2] + ["q", "q"] for r in refs]
        r1 = E.bootstrap_significance(a, b, refs, n_resamples=300, seed=11)
        r2 = E.bootstrap_significance(a, b, refs, n_resamples=300, seed=11)
        assert r1 == r2

    def test_alignment_required(self):
        with pytest.raises(ValueError,
                           match="1 and 2 hypotheses, 1 references"):
            E.bootstrap_significance([["a"]], [["a"], ["b"]], [["a"]])

    def test_no_sentences_rejected(self):
        with pytest.raises(ValueError, match="no sentences"):
            E.bootstrap_significance([], [], [])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n_sents=st.integers(1, 8),
           same=st.booleans(), n_resamples=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_row_summing_bootstrap(self, data, n_sents, same,
                                           n_resamples, seed):
        # sentences may be empty on either side; a system copies some
        # references, so that BLEU is often above 0
        sents = st.lists(st.lists(st.sampled_from("abc"), max_size=6),
                         min_size=n_sents, max_size=n_sents)
        copies = st.lists(st.booleans(), min_size=n_sents, max_size=n_sents)
        refs = data.draw(sents)

        def system():
            return [r if c else h for r, h, c in
                    zip(refs, data.draw(sents), data.draw(copies))]
        hyps_a = system()
        hyps_b = hyps_a if same else system()
        got = E.bootstrap_significance(hyps_a, hyps_b, refs,
                                       n_resamples=n_resamples, seed=seed)
        assert (got.p_value, got.mean_delta, got.wins_b, got.ties) == \
            bootstrap_reference(hyps_a, hyps_b, refs, n_resamples, seed)
        assert got.bleu_a == E.bleu(hyps_a, refs).bleu
        assert got.bleu_b == E.bleu(hyps_b, refs).bleu


class TestTranslate:
    def test_single_sentence_identical_across_variants(self, task):
        _, seg, _, src_v, trg_v = task
        models = variant_family(src_v, trg_v, seed=3)
        doc = C.Document("one", [seg[0].pairs[0]])
        outputs = []
        for variant in VARIANTS:
            hyps, _ = E.translate_corpus(models[variant], [doc], src_v, trg_v)
            outputs.append(hyps)
        assert all(o == outputs[0] for o in outputs)

    @pytest.mark.parametrize("gold", [False, True])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_beam_one_equals_greedy(self, task, variant, gold):
        _, seg, _, src_v, trg_v = task
        model = eos_prone_model(variant, src_v, trg_v, seed=9)
        batched, _ = E.translate_corpus(model, seg, src_v, trg_v,
                                        beam_size=1, gold_context=gold)
        assert batched == [greedy_reference(model, doc, src_v, trg_v,
                                            gold_context=gold)
                           for doc in seg]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_beam_matches_reference(self, task, variant):
        _, seg, _, src_v, trg_v = task
        model = eos_prone_model(variant, src_v, trg_v, seed=19)
        # every other target token gets a twin with the same embedding and
        # output column, so candidates and whole beams tie exactly
        for t in range(B.UNK + 2, len(trg_v), 2):
            model.params["trg_emb"].data[t] = model.params["trg_emb"].data[t - 1]
            model.params["out_proj"].data[:, t] = \
                model.params["out_proj"].data[:, t - 1]
        for beam in (2, 4):
            hyps, _ = E.translate_corpus(model, seg, src_v, trg_v,
                                         beam_size=beam)
            assert hyps == [beam_reference(model, doc, src_v, trg_v, beam)
                            for doc in seg]

    def test_wider_beam_runs_and_respects_length_cap(self, task):
        _, seg, _, src_v, trg_v = task
        model = TranslationModel(
            ModelConfig("separated-target", 12, 12, len(src_v), len(trg_v)),
            rng=T.make_rng(10, 0))
        doc = seg[1]
        [hyp], _ = E.translate_corpus(model, [doc], src_v, trg_v, beam_size=4)
        assert len(hyp) == len(doc)
        for sent, (src, _) in zip(hyp, doc.pairs):
            assert len(sent) <= math.ceil(E.MAX_RATIO * len(src))

    @pytest.mark.parametrize("beam_size", [0, -1])
    def test_beam_size_zero_rejected(self, task, beam_size):
        _, seg, _, src_v, trg_v = task
        model = TranslationModel(
            ModelConfig("baseline", 12, 12, len(src_v), len(trg_v)),
            rng=T.make_rng(11, 0))
        with pytest.raises(ValueError, match=rf"^beam_size must be >= 1, "
                                             rf"got {beam_size}$"):
            E.translate_corpus(model, seg, src_v, trg_v, beam_size=beam_size)

    @pytest.mark.parametrize("batch_docs", [0, -1])
    def test_non_positive_batch_docs_rejected(self, task, batch_docs):
        # -1 would return no hypotheses without an error
        _, seg, _, src_v, trg_v = task
        model = TranslationModel(
            ModelConfig("baseline", 12, 12, len(src_v), len(trg_v)),
            rng=T.make_rng(11, 0))
        with pytest.raises(ValueError, match=rf"batch_docs .*got {batch_docs}"):
            E.translate_corpus(model, seg, src_v, trg_v, batch_docs=batch_docs)

    @pytest.mark.parametrize("variant", ["shared-source", "shared-target"])
    def test_cache_hits_equal_sentence_count_minus_one(self, task, variant):
        _, seg, _, src_v, trg_v = task
        model = TranslationModel(
            ModelConfig(variant, 12, 12, len(src_v), len(trg_v)),
            rng=T.make_rng(12, 0))
        hyps, stats = E.translate_corpus(model, seg, src_v, trg_v)
        expected = sum(len(d) - 1 for d in seg)
        assert stats.cache_reuses == expected
        assert stats.context_recomputes == 0

    @pytest.mark.parametrize("variant", ["separated-source", "separated-target"])
    def test_separated_variants_recompute(self, task, variant):
        _, seg, _, src_v, trg_v = task
        model = TranslationModel(
            ModelConfig(variant, 12, 12, len(src_v), len(trg_v)),
            rng=T.make_rng(13, 0))
        hyps, stats = E.translate_corpus(model, seg, src_v, trg_v)
        assert stats.context_recomputes == sum(len(d) - 1 for d in seg)
        assert stats.cache_reuses == 0

    @pytest.mark.parametrize("variant,gold,per_sentence", [
        ("shared-target", True, (0, 1, 0)),
        ("shared-mix", False, (2, 0, 0)),
        ("shared-mix", True, (1, 1, 0)),
        ("separated-target", True, (0, 0, 1)),
    ])
    def test_every_context_entry_counted_by_origin(self, task, variant, gold,
                                                   per_sentence):
        _, seg, _, src_v, trg_v = task
        model = TranslationModel(
            ModelConfig(variant, 12, 12, len(src_v), len(trg_v)),
            rng=T.make_rng(17, 0))
        _, stats = E.translate_corpus(model, seg, src_v, trg_v,
                                      gold_context=gold)
        n = sum(len(d) - 1 for d in seg)
        assert (stats.cache_reuses, stats.teacher_forced,
                stats.context_recomputes) == tuple(c * n for c in per_sentence)

    @pytest.mark.parametrize("beam", [1, 3])
    @pytest.mark.parametrize("gold", [False, True])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_encoding_and_at_most_one_gold_pass_per_group(
            self, task, variant, gold, beam):
        """Each group of `batch_docs` documents, whatever their lengths, is
        encoded once; the decoder runs over gold text once per group when
        the variant reads decoder states under gold context, else never."""
        _, seg, _, src_v, trg_v = task
        model = eos_prone_model(variant, src_v, trg_v, seed=21)
        calls = {"encode": 0, "_decoder": 0}
        for name in calls:
            def counted(*args, name=name):
                calls[name] += 1
                return getattr(TranslationModel, name)(model, *args)
            setattr(model, name, counted)
        assert len({len(doc) for doc in seg}) > 1
        E.translate_corpus(model, seg, src_v, trg_v, beam_size=beam,
                           gold_context=gold, batch_docs=2)
        groups = math.ceil(len(seg) / 2)
        gold_pass = gold and "dec" in CONTEXTS[variant]
        assert calls == {"encode": groups,
                         "_decoder": groups if gold_pass else 0}

    def test_greedy_deterministic(self, task):
        _, seg, _, src_v, trg_v = task
        model = TranslationModel(
            ModelConfig("shared-mix", 12, 12, len(src_v), len(trg_v)),
            rng=T.make_rng(14, 0))
        a, _ = E.translate_corpus(model, seg, src_v, trg_v)
        b, _ = E.translate_corpus(model, seg, src_v, trg_v)
        assert a == b

    @pytest.mark.parametrize("gold", [False, True])
    @pytest.mark.parametrize("beam", [1, 4])
    @settings(max_examples=20, deadline=None)
    @given(variant=st.sampled_from(VARIANTS), data=st.data())
    def test_batched_and_per_document_translation_agree(self, task, beam,
                                                        gold, variant, data):
        """Any subset of the documents, in any order and batched by any
        `batch_docs`, translates as each document does alone."""
        _, seg, _, src_v, trg_v = task
        docs = [seg[i] for i in data.draw(st.lists(
            st.integers(0, len(seg) - 1), min_size=1, unique=True))]
        batch_docs = data.draw(st.integers(1, len(docs)))
        model = eos_prone_model(variant, src_v, trg_v, seed=15)
        batched, _ = E.translate_corpus(model, docs, src_v, trg_v,
                                        beam_size=beam, gold_context=gold,
                                        batch_docs=batch_docs)
        alone = [E.translate_corpus(model, [doc], src_v, trg_v,
                                    beam_size=beam, gold_context=gold)[0][0]
                 for doc in docs]
        assert batched == alone

    @settings(max_examples=8, deadline=None)
    @given(order=st.permutations(range(5)), seed=st.integers(0, 2**16))
    def test_batch_of_four_within_float32_rounding_at_h64(self, task, order,
                                                          seed):
        """At E=H=64 a document decoded alone is not bitwise its decoding in
        a batch (OpenBLAS rounds a one-row product differently): every
        `decode_step` probability stays within 4 float32 epsilons, relative,
        of the batched one, and no greedy hypothesis flips."""
        _, seg, _, src_v, trg_v = task
        docs = [seg[i] for i in order[:4]]
        model = TranslationModel(
            ModelConfig("shared-target", 64, 64, len(src_v), len(trg_v)),
            rng=T.make_rng(seed, 0))
        batch_model, batch_steps = recording(model, docs)
        batched, _ = E.translate_corpus(batch_model, docs, src_v, trg_v)
        for d, doc in enumerate(docs):
            alone_model, alone_steps = recording(model, [doc])
            alone, _ = E.translate_corpus(alone_model, [doc], src_v, trg_v)
            assert alone[0] == batched[d]
            assert len(alone_steps) == len(doc)
            for (_, i), steps in alone_steps.items():
                for k, probs in enumerate(steps):
                    np.testing.assert_allclose(
                        probs, batch_steps[d, i][k],
                        rtol=4 * np.finfo(np.float32).eps, atol=0)

    @pytest.mark.parametrize("hidden", [12, 64])
    @pytest.mark.parametrize("batch_docs", [1, 2, 5])
    @pytest.mark.parametrize("beam", [1, 3])
    @pytest.mark.parametrize("variant", ["shared-target", "shared-mix"])
    def test_saved_states_are_teacher_forced_states_of_the_hypothesis(
            self, task, monkeypatch, variant, beam, batch_docs, hidden):
        """What free decoding saves for the next sentence is the decoder
        run teacher-forced over BOS + the emitted hypothesis from the same
        encoder finals, so shared-target needs no second pass.  A row keeps
        one state per token fed back: all of an EOS-ended hypothesis, all
        but the last token of a length-capped one.  Bitwise where the beam
        call has two or more rows; a one-row call can take OpenBLAS's gemv
        path, so there within 4 float32 epsilons of the row's largest
        state."""
        _, seg, _, src_v, trg_v = task
        # an empty source caps its hypothesis at its first token
        docs = seg + [C.Document("hollow", [seg[0].pairs[0], ([], [])])]
        model = TranslationModel(
            ModelConfig(variant, hidden, hidden, len(src_v), len(trg_v)),
            rng=T.make_rng(23, 0))
        # rows end both ways: at EOS, and at the length cap
        model.params["out_proj"].data[:, B.EOS] *= 2.0
        search, calls = E._beam_search, []

        def recorded(model, enc, context, beam_size, keep_states):
            hyps, states = search(model, enc, context, beam_size, keep_states)
            calls.append((enc, hyps, states))
            return hyps, states
        monkeypatch.setattr(E, "_beam_search", recorded)
        E.translate_corpus(model, docs, src_v, trg_v, beam_size=beam,
                           batch_docs=batch_docs)
        rows = ends = 0
        for enc, hyps, states in calls:
            limits = np.ceil(E.MAX_RATIO * enc.mask.sum(axis=1))
            ids, _ = C.pad_rows([[B.BOS] + hyp for hyp in hyps])
            with T.no_grad():
                want = model._decoder(ids, model.init_carry(enc), None).data
            for row, (hyp, got) in enumerate(zip(hyps, states)):
                capped = len(hyp) >= max(1, limits[row])
                assert len(got) == len(hyp) - capped
                expected = want[row, 1:1 + len(got)]
                if len(hyps) > 1:
                    assert got.tobytes() == expected.tobytes()
                else:
                    scale = 4 * np.finfo(np.float32).eps * \
                        np.abs(expected).max(initial=0.0)
                    np.testing.assert_allclose(got, expected, rtol=0,
                                               atol=scale)
                rows, ends = rows + 1, ends + (not capped)
        assert rows == sum(len(doc) for doc in docs)
        assert 0 < ends < rows  # both kinds of ending were checked

    def test_gold_context_accepts_documents_with_gold_targets(self, task):
        _, seg, _, src_v, trg_v = task
        model = TranslationModel(
            ModelConfig("shared-target", 12, 12, len(src_v), len(trg_v)),
            rng=T.make_rng(16, 0))
        hyps, _ = E.translate_corpus(model, seg, src_v, trg_v,
                                     gold_context=True)
        assert [len(h) for h in hyps] == [len(d) for d in seg]


class TestSlotScoring:
    def test_hand_built_case(self):
        metas = [C.SlotMeta("d0", "syna", [1, 2]),
                 C.SlotMeta("d1", "synb", [1])]
        hyp_docs = [
            [["syna", "w1"], ["syna", "w2"], ["synb", "w3"]],  # 1 of 2 right
            [["synb", "w1"], ["synb", "w4"]],                  # right
        ]
        report = E.score_slots(hyp_docs, metas)
        assert report.n_slots == 3
        assert report.slot_accuracy == pytest.approx(2 / 3)
        # doc 0 anchors on syna: slots match 1/2; doc 1 anchors synb: 1/1
        assert report.self_consistency == pytest.approx(2 / 3)

    def test_missing_synonym_counts_as_wrong(self):
        metas = [C.SlotMeta("d0", "syna", [1])]
        report = E.score_slots([[["syna", "w1"], ["w2", "w3"]]], metas)
        assert report.slot_accuracy == 0.0

    def test_slot_past_document_end_rejected(self):
        metas = [C.SlotMeta("d0", "syna", [1, 2])]
        with pytest.raises(ValueError, match=r"document d0: slot index 2 "
                                             r"is past its 2 sentences"):
            E.score_slots([[["syna", "w1"], ["syna", "w3"]]], metas)

    def test_alignment_required(self):
        with pytest.raises(ValueError):
            E.score_slots([], [C.SlotMeta("d0", "syna", [1])])


class TestDebpe:
    def test_joins_continuation_pieces(self):
        assert B.remove_bpe(["a@@", "b", "c@@", "d@@", "e"]) == ["ab", "cde"]
