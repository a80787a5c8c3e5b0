import math
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from docnmt import bpe as B
from docnmt import corpus as C
from docnmt import evaluation as E
from docnmt import tensor as T
from docnmt import training as TR
from docnmt.model import (ModelConfig, TranslationModel, VARIANTS,
                          load_checkpoint, save_checkpoint)

from model_helpers import all_on_worker, tiny_task
from oracles import position_walk


def copy_corpus(n_docs=10, seed=0):
    rng = np.random.default_rng(seed)
    docs = []
    for d in range(n_docs):
        toks = [f"w{int(k)}" for k in rng.integers(0, 8,
                                                   size=int(rng.integers(3, 6)))]
        toks.append(".")
        docs.append(C.Document(f"d{d}", [(toks, toks)]))
    vocab = B.build_vocab([s for d in docs for s in d.src_sentences])
    return docs, vocab


@pytest.fixture(scope="module")
def synth_setup():
    docs, seg, metas, src_v, trg_v = tiny_task(n_docs=6, seed=8)
    return seg, src_v, trg_v


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TR.TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TR.TrainConfig(lr=0.0)

    @pytest.mark.parametrize("setting,value", [
        ("epochs", 0), ("batch_docs", 0), ("batch_docs", -2),
        ("grad_clip", 0.0), ("grad_clip", -1.0), ("grad_clip", math.nan),
        ("lr", math.nan), ("lr", math.inf)])
    def test_non_positive_batch_and_clip_rejected(self, setting, value):
        # -2 documents per batch would train nothing, and a clip norm <= 0
        # or NaN would turn clipping off, all silently; a NaN or infinite
        # learning rate writes NaN into the parameters at the first step
        with pytest.raises(ValueError, match=rf"{setting} .*got {value}"):
            TR.TrainConfig(**{setting: value})


class TestSelectBest:
    """`TrainLog.best_epoch` is the one rule `train_model` snapshots by."""

    def _log(self, scores):
        return TR.TrainLog([TR.EpochRecord(i + 1, 1.0, s, 0.1)
                            for i, s in enumerate(scores)])

    def test_monotone_improving_takes_last(self):
        assert self._log([1.0, 2.0, 3.0]).best_epoch == 3

    def test_single_epoch(self):
        assert self._log([5.0]).best_epoch == 1

    def test_tie_takes_earliest(self):
        assert self._log([10.0, 12.0, 12.0]).best_epoch == 2

    def test_train_model_returns_the_best_epoch(self, synth_setup,
                                                monkeypatch):
        seg, src_v, trg_v = synth_setup
        scores, seen = iter([1.0, 3.0, 3.0, 2.0]), []

        def fake_dev_bleu(model, *args):
            seen.append({n: p.data.copy() for n, p in model.params.items()})
            return next(scores)

        monkeypatch.setattr(TR, "_dev_bleu", fake_dev_bleu)
        model = TranslationModel(
            ModelConfig("baseline", 8, 8, len(src_v), len(trg_v)),
            rng=T.make_rng(0, 0))
        best, log = TR.train_model(model, seg, seg, src_v, trg_v,
                                   TR.TrainConfig(epochs=4, lr=0.1, seed=3))
        assert log.best_epoch == 2
        for name, p in best.params.items():
            np.testing.assert_array_equal(p.data, seen[1][name])
            assert not np.array_equal(p.data, seen[3][name])


class TestTrainLogFile:
    def test_round_trip(self, tmp_path):
        """One `epoch<TAB>loss<TAB>dev_bleu<TAB>seconds` line per epoch."""
        log = TR.TrainLog([TR.EpochRecord(1, 2.5, 10.0, 3.25),
                           TR.EpochRecord(2, 1.25, 12.5, 3.5)])
        path = tmp_path / "log.tsv"
        log.save(path)
        assert path.read_text(encoding="utf-8") == \
            "1\t2.500000\t10.0000\t3.250\n2\t1.250000\t12.5000\t3.500\n"


class TestPretrain:
    def test_initial_loss_near_log_vocab(self, synth_setup):
        seg, src_v, trg_v = synth_setup
        model = TranslationModel(
            ModelConfig("baseline", 32, 32, len(src_v), len(trg_v)),
            rng=T.make_rng(0, 0))
        batch = C.build_batch(seg, src_v, trg_v)
        loss, _, _, _ = model.forward_loss(batch.positions[0], [])
        T.backward(loss)
        assert abs(float(loss.data) - np.log(len(trg_v))) < 0.05 * np.log(len(trg_v))

    def test_memorization_smoke(self):
        docs, vocab = copy_corpus()
        mcfg = ModelConfig("baseline", 32, 32, len(vocab), len(vocab))
        tcfg = TR.TrainConfig(epochs=60, lr=0.1, batch_docs=1, seed=5)
        best, log = TR.train_model(
            TranslationModel(mcfg, rng=T.make_rng(tcfg.seed, 0)),
            docs, docs, vocab, vocab, tcfg)
        assert log.records[-1].loss < 0.1
        assert max(r.dev_bleu for r in log.records) > 99.0

    def test_fixed_seed_reproduces_log(self, synth_setup):
        seg, src_v, trg_v = synth_setup
        mcfg = ModelConfig("baseline", 16, 16, len(src_v), len(trg_v))
        tcfg = TR.TrainConfig(epochs=2, lr=0.1, batch_docs=4, seed=9)
        log_a, log_b = (
            TR.train_model(TranslationModel(mcfg, rng=T.make_rng(tcfg.seed, 0)),
                           seg, seg, src_v, trg_v, tcfg)[1] for _ in range(2))
        assert [(r.loss, r.dev_bleu) for r in log_a.records] == \
            [(r.loss, r.dev_bleu) for r in log_b.records]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self, synth_setup):
        seg, src_v, trg_v = synth_setup
        model = TranslationModel(
            ModelConfig("baseline", 16, 16, len(src_v), len(trg_v)),
            rng=T.make_rng(1, 0))
        model.params["out_proj"].data[:, 0] = np.inf
        tcfg = TR.TrainConfig(epochs=1, lr=0.1, batch_docs=4, seed=1)
        with pytest.raises(TR.TrainingDiverged, match="epoch 1"):
            TR.train_model(model, seg, seg, src_v, trg_v, tcfg)

    def test_non_finite_gradient_stops_before_the_update(self, synth_setup,
                                                         monkeypatch):
        seg, src_v, trg_v = synth_setup
        model = TranslationModel(
            ModelConfig("baseline", 16, 16, len(src_v), len(trg_v)),
            rng=T.make_rng(1, 0))
        original = T.clip_global_norm

        def poison(params, max_norm):
            model.params["out_proj"].grad[0, 0] = np.nan
            return original(params, max_norm)

        monkeypatch.setattr(TR.T, "clip_global_norm", poison)
        tcfg = TR.TrainConfig(epochs=1, lr=0.1, batch_docs=4, seed=1)
        with pytest.raises(TR.TrainingDiverged, match=r"epoch 1, batch 0$"):
            TR.train_model(model, seg, seg, src_v, trg_v, tcfg)
        for p in model.param_list():
            assert np.isfinite(p.data).all()


class TestGradientClipping:
    def test_norm_bounded_after_every_backward(self, synth_setup, monkeypatch):
        seg, src_v, trg_v = synth_setup
        seen = []
        original = T.clip_global_norm

        def spy(params, max_norm):
            before = original(params, max_norm)
            after = np.sqrt(sum(float((p.grad.astype(np.float64) ** 2).sum())
                                for p in params if p.grad is not None))
            seen.append((before, after, max_norm))
            return before

        monkeypatch.setattr(TR.T, "clip_global_norm", spy)
        mcfg = ModelConfig("baseline", 16, 16, len(src_v), len(trg_v))
        tcfg = TR.TrainConfig(epochs=1, lr=0.1, batch_docs=2, seed=2,
                              grad_clip=0.01)
        TR.train_model(
            TranslationModel(mcfg, rng=T.make_rng(2, 0)),
            seg, seg, src_v, trg_v, tcfg)
        assert seen
        assert any(before > 0.01 for before, _, _ in seen)  # clip engaged
        for before, after, max_norm in seen:
            assert max_norm == 0.01
            assert after <= max_norm * (1 + 1e-5)


class TestContextBuildOrder:
    @settings(max_examples=50, deadline=None)
    @given(lengths=st.lists(st.integers(1, 5), min_size=1, max_size=8),
           max_docs=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_every_row_reads_its_documents_previous_sentence(
            self, lengths, max_docs, seed):
        # each sentence's source names its document and index, so a row
        # can be traced back to the sentence it holds
        docs = [C.Document(f"d{d}", [([f"d{d}", f"s{i}"], [f"s{i}"])
                                     for i in range(n)])
                for d, n in enumerate(lengths)]
        src_v = B.build_vocab([s for d in docs for s in d.src_sentences])
        trg_v = B.build_vocab([t for d in docs for t in d.trg_sentences])
        batches = C.make_batches(docs, src_v, trg_v, max_docs=max_docs,
                                 rng=np.random.default_rng(seed))
        held = []
        for rows in batches:
            sentences = [src_v.decode(ids[mask > 0].tolist())
                         for ids, mask in zip(rows.src, rows.src_mask)]
            assert rows.src_mask.any(axis=1).all()  # no empty rows
            for (doc, index), prev in zip(sentences, rows.prev.tolist()):
                if index == "s0":
                    assert prev == -1
                else:
                    assert sentences[prev] == [doc, f"s{int(index[1:]) - 1}"]
            held += [tuple(s) for s in sentences]
        assert sorted(held) == sorted(tuple(s) for d in docs
                                      for s in d.src_sentences)


class TestOnePass:
    """Training's one teacher-forced pass per batch against the position
    walk it replaced (`oracles.position_walk`)."""

    @pytest.fixture(scope="class")
    def pool(self):
        docs, seg, metas, src_v, trg_v = tiny_task(n_docs=6, seed=8,
                                                   sentences=(5, 5))
        return seg, src_v, trg_v

    @pytest.mark.parametrize("variant", VARIANTS)
    @settings(max_examples=8, deadline=None)
    @given(picks=st.lists(st.tuples(st.integers(0, 5), st.integers(1, 5)),
                          min_size=1, max_size=4),
           seed=st.integers(0, 2**16))
    @example(picks=[(0, 3)], seed=0)  # one document
    def test_matches_position_walk(self, pool, variant, picks, seed):
        # float64, dropout off: the loss and every gradient agree up to
        # the order the gradient sums are taken in; documents are cut to
        # uneven lengths
        seg, src_v, trg_v = pool
        docs = [C.Document(seg[i].doc_id, seg[i].pairs[:n]) for i, n in picks]
        model = TranslationModel(
            ModelConfig(variant, 4, 6, len(src_v), len(trg_v), dropout=0.0),
            rng=T.make_rng(seed, 0), dtype=np.float64)
        want_loss = position_walk(model, docs, src_v, trg_v)
        want = [p.grad.copy() for p in model.param_list()]
        model.zero_grad()
        loss, _, _, ntok = model.forward_loss(
            C.flat_batch(docs, src_v, trg_v))
        T.backward(loss, params=model.param_list())
        assert ntok == sum(len(t) + 1 for d in docs for t in d.trg_sentences)
        np.testing.assert_allclose(float(loss.data), want_loss, rtol=1e-12)
        for (name, p), w in zip(model.params.items(), want):
            np.testing.assert_allclose(p.grad, w, rtol=1e-12,
                                       atol=1e-12 * np.abs(w).max(),
                                       err_msg=name)


@pytest.fixture(scope="module")
def baseline(synth_setup):
    seg, src_v, trg_v = synth_setup
    mcfg = ModelConfig("baseline", 16, 16, len(src_v), len(trg_v))
    tcfg = TR.TrainConfig(epochs=3, lr=0.1, batch_docs=4, seed=6)
    return TR.train_model(TranslationModel(mcfg, rng=T.make_rng(tcfg.seed, 0)),
                          seg, seg, src_v, trg_v, tcfg)


class TestFineTune:
    def test_zero_block_init_matches_baseline_dev_bleu(self, synth_setup,
                                                       baseline):
        seg, src_v, trg_v = synth_setup
        base, _ = baseline
        base_bleu = TR._dev_bleu(base, seg, src_v, trg_v)
        for variant in VARIANTS:
            if variant == "baseline":
                continue
            model = TR.init_from_baseline(base, variant, T.make_rng(0, 3))
            assert TR._dev_bleu(model, seg, src_v, trg_v) == base_bleu

    def test_all_variants_accept_the_same_checkpoint(self, synth_setup,
                                                     baseline, tmp_path):
        seg, src_v, trg_v = synth_setup
        base, _ = baseline
        prefix = str(tmp_path / "base")
        save_checkpoint(base, prefix)
        tcfg = TR.TrainConfig(epochs=1, lr=0.1, batch_docs=4, seed=7)
        for variant in VARIANTS:
            if variant == "baseline":
                continue
            model = TR.init_from_baseline(load_checkpoint(prefix), variant,
                                          T.make_rng(tcfg.seed, 3))
            best, log = TR.train_model(model, seg, seg, src_v, trg_v, tcfg)
            assert best.cfg.variant == variant
            assert len(log.records) == 1

    def test_never_mutates_baseline_checkpoint(self, synth_setup, baseline,
                                               tmp_path):
        seg, src_v, trg_v = synth_setup
        base, _ = baseline
        prefix = str(tmp_path / "frozen")
        save_checkpoint(base, prefix)
        before = (tmp_path / "frozen.bin").read_bytes()
        model = TR.init_from_baseline(load_checkpoint(prefix), "shared-target",
                                      T.make_rng(8, 3))
        TR.train_model(model, seg, seg, src_v, trg_v,
                       TR.TrainConfig(epochs=1, lr=0.1, batch_docs=4,
                                      seed=8))
        assert (tmp_path / "frozen.bin").read_bytes() == before

    def test_vocab_mismatch_rejected(self, synth_setup, baseline):
        seg, src_v, trg_v = synth_setup
        base, _ = baseline
        small = B.build_vocab([["a"]])
        model = TR.init_from_baseline(base, "shared-target", T.make_rng(0, 3))
        with pytest.raises(ValueError, match=(
                rf"source {len(small)}, target {len(trg_v)}\) do not match "
                rf"the model's \(source {len(src_v)}, target {len(trg_v)}\)")):
            TR.train_model(model, seg, seg, small, trg_v,
                           TR.TrainConfig(epochs=1))

    def test_frozen_zero_context_matches_continued_baseline(self, synth_setup,
                                                            baseline,
                                                            monkeypatch):
        seg, src_v, trg_v = synth_setup
        base, _ = baseline
        tcfg = TR.TrainConfig(epochs=3, lr=0.1, batch_docs=4, seed=11)

        cont = TranslationModel(
            base.cfg, params={n: T.Tensor(p.data.copy(), requires_grad=True)
                              for n, p in base.params.items()})
        _, log_base = TR.train_model(cont, seg, seg, src_v, trg_v, tcfg)

        frozen = TR.init_from_baseline(base, "shared-target",
                                       T.make_rng(tcfg.seed, 3))
        original = T.clip_global_norm

        def freeze(params, max_norm):
            """Zero the gradients of everything the baseline does not have."""
            frozen.params["attn_out"].grad[2 * base.cfg.hidden_dim:] = 0.0
            for name, p in frozen.params.items():
                if name.startswith("ctx_") and p.grad is not None:
                    p.grad[:] = 0.0
            return original(params, max_norm)

        monkeypatch.setattr(TR.T, "clip_global_norm", freeze)
        _, log_frozen = TR.train_model(frozen, seg, seg, src_v, trg_v, tcfg)
        for rb, rf in zip(log_base.records, log_frozen.records):
            np.testing.assert_allclose(rf.loss, rb.loss, rtol=1e-5)
            np.testing.assert_allclose(rf.dev_bleu, rb.dev_bleu, atol=1e-9)

    def test_init_from_baseline_rejects_a_context_model(self, baseline):
        # its output projection has a context block the copy cannot take
        base, _ = baseline
        shared = TR.init_from_baseline(base, "shared-target", T.make_rng(0, 3))
        with pytest.raises(ValueError, match="not shared-source from a "
                                             "shared-target model"):
            TR.init_from_baseline(shared, "shared-source", T.make_rng(0, 3))

    def test_init_from_baseline_rejects_baseline(self, baseline):
        base, _ = baseline
        with pytest.raises(ValueError):
            TR.init_from_baseline(base, "baseline", T.make_rng(0, 3))


class TestWorkerThread:
    @pytest.mark.parametrize("variant", ["separated-target", "shared-target"])
    def test_worker_trains_and_decodes_bit_for_bit(self, synth_setup, variant,
                                                   monkeypatch):
        # one epoch of two batches, then greedy decoding, inline and with
        # the size rule at 0, which sends every product to the worker
        seg, src_v, trg_v = synth_setup
        cfg = ModelConfig(variant, 8, 8, len(src_v), len(trg_v))

        def run():
            model = TranslationModel(cfg, rng=T.make_rng(3, 0))
            model, log = TR.train_model(model, seg, seg, src_v, trg_v,
                                        TR.TrainConfig(epochs=1, batch_docs=3,
                                                       lr=0.1, seed=3))
            hyps, _ = E.translate_corpus(model, seg, src_v, trg_v)
            return ([r.loss for r in log.records],
                    [p.data.tobytes() for p in model.param_list()], hyps)

        inline = run()
        handed = all_on_worker(monkeypatch)
        assert run() == inline and handed

    def test_desk_sizes_never_start_the_worker(self, monkeypatch):
        # a training step and greedy decoding at E=H=32 on a desk batch of
        # 16 documents run every product inline
        monkeypatch.setattr(T, "_worker", None)
        threads = threading.active_count()
        _, seg, _, src_v, trg_v = tiny_task(n_docs=16, merges=200)
        model = TranslationModel(
            ModelConfig("separated-target", 32, 32, len(src_v), len(trg_v)),
            rng=T.make_rng(0, 0))
        opt = T.AdaGrad(model.param_list(), lr=0.1)
        [rows] = C.make_batches(seg, src_v, trg_v, max_docs=16,
                                rng=T.make_rng(0, 1))
        loss, _, _, _ = model.forward_loss(rows, rng=T.make_rng(0, 2))
        T.backward(loss)
        opt.step()
        E.translate_corpus(model, seg, src_v, trg_v)
        assert T._worker is None
        assert threading.active_count() == threads
