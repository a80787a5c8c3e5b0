"""Acceptance suite: nine criteria, one test and one printed verdict each.

The context-mechanism criteria train real models at the desk profile
(32-dim, 200 BPE merges, 16-document batches, lr 0.1, 10+10 epochs), so
this module takes a few minutes.  Ambiguous-slot accuracy and the BLEU
significance comparison are measured with gold previous-sentence context:
the hidden per-document choice is independent of every source sentence,
so no decoder relying on its own first-sentence guess can beat chance
against the metadata, while the gold-context probe directly measures
whether a variant can exploit the context channel.
"""

import math
import time

import numpy as np
import pytest

from docnmt import bpe as B
from docnmt import cli
from docnmt import corpus as C
from docnmt import evaluation as E
from docnmt import tensor as T
from docnmt.model import (ModelConfig, Previous, TranslationModel, VARIANTS,
                          context_attention, param_count)
from docnmt.training import TrainConfig, init_from_baseline, train_model

from minigraphs import build_minigraph
from model_helpers import position_cache, tiny_task, variant_family
from oracles import finite_difference_grads, max_relative_error

DESK = dict(emb_dim=32, hidden_dim=32, merges=200, batch_docs=16,
            epochs=10, lr=0.1)
SEED_BUDGET_SECONDS = 900.0


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# desk-scale experiment machinery (criteria 7 and 8)


def _prepare_corpus(mode: str):
    train_docs, _ = C.generate_synthetic(
        C.SynthConfig(mode, num_documents=2000, seed=100))
    dev_docs, _ = C.generate_synthetic(
        C.SynthConfig(mode, num_documents=150, seed=101))
    test_docs, test_meta = C.generate_synthetic(
        C.SynthConfig(mode, num_documents=200, seed=102))
    src_model = B.learn_bpe(
        [s for d in train_docs for s in d.src_sentences], DESK["merges"])
    trg_model = B.learn_bpe(
        [t for d in train_docs for t in d.trg_sentences], DESK["merges"])

    def seg(docs):
        return C.segment_documents(docs, src_model, trg_model)

    train_s, dev_s, test_s = seg(train_docs), seg(dev_docs), seg(test_docs)
    src_v = B.build_vocab([s for d in train_s for s in d.src_sentences])
    trg_v = B.build_vocab([t for d in train_s for t in d.trg_sentences])
    return train_s, dev_s, test_s, test_docs, test_meta, src_v, trg_v


def _score(model, test_seg, test_docs, test_meta, src_v, trg_v, gold_context):
    hyps, _ = E.translate_corpus(model, test_seg, src_v, trg_v,
                                 gold_context=gold_context)
    hyp_docs = [[B.remove_bpe(sent) for sent in doc] for doc in hyps]
    hyp_sents, ref_sents = [], []
    for doc, hyp_doc in zip(test_docs, hyp_docs):
        for (_, trg), hyp in zip(doc.pairs, hyp_doc):
            hyp_sents.append(hyp)
            ref_sents.append(trg)
    return (E.bleu(hyp_sents, ref_sents).bleu,
            E.score_slots(hyp_docs, test_meta), hyp_sents, ref_sents)


def _run_seed(mode: str, variant: str, seed: int):
    train_s, dev_s, test_s, test_docs, test_meta, src_v, trg_v = \
        _prepare_corpus(mode)
    tcfg = TrainConfig(epochs=DESK["epochs"], lr=DESK["lr"],
                       batch_docs=DESK["batch_docs"], seed=seed)
    started = time.monotonic()
    base_cfg = ModelConfig("baseline", DESK["emb_dim"], DESK["hidden_dim"],
                           len(src_v), len(trg_v))
    baseline, _ = train_model(
        TranslationModel(base_cfg, rng=T.make_rng(seed, 0)),
        train_s, dev_s, src_v, trg_v, tcfg)
    context, _ = train_model(
        init_from_baseline(baseline, variant, T.make_rng(seed, 3)),
        train_s, dev_s, src_v, trg_v, tcfg)
    gold = variant in ("shared-target", "shared-mix", "separated-target")
    base_bleu, base_slots, base_h, refs = _score(
        baseline, test_s, test_docs, test_meta, src_v, trg_v, gold)
    ctx_bleu, ctx_slots, ctx_h, _ = _score(
        context, test_s, test_docs, test_meta, src_v, trg_v, gold)
    sig = E.bootstrap_significance(base_h, ctx_h, refs, n_resamples=1000,
                                   seed=seed)
    return {
        "seconds": time.monotonic() - started,
        "baseline_bleu": base_bleu,
        "baseline_slot": base_slots.slot_accuracy,
        "context_bleu": ctx_bleu,
        "context_slot": ctx_slots.slot_accuracy,
        "p_value": sig.p_value,
    }


@pytest.fixture(scope="module")
def target_side_runs():
    return {seed: _run_seed("trg-informative", "shared-target", seed)
            for seed in (1, 2, 3)}


@pytest.fixture(scope="module")
def source_side_run():
    return _run_seed("src-informative", "shared-source", 1)


# ---------------------------------------------------------------------------
# criteria


class TestCriterion1GradientOracle:
    def test_autodiff_matches_finite_differences(self):
        started = time.monotonic()
        worst = 0.0
        for seed in range(24):
            params, forward = build_minigraph(seed)
            T.backward(forward(), params=params)
            analytic = [p.grad.copy() for p in params]

            def value(forward=forward):
                with T.no_grad():
                    return float(forward().data)

            numeric = finite_difference_grads(value, [p.data for p in params])
            worst = max(worst, max_relative_error(analytic, numeric))

        docs, seg, _, src_v, trg_v = tiny_task(n_docs=3, seed=5, fillers=5)
        assert len(src_v) <= 16 and len(trg_v) <= 16
        batch = C.build_batch(seg[:2], src_v, trg_v)
        for variant in VARIANTS:
            cfg = ModelConfig(variant, 4, 4, len(src_v), len(trg_v),
                              dropout=0.0)
            model = TranslationModel(cfg, rng=T.make_rng(13, 0),
                                     dtype=np.float64)
            pos = batch.positions[1]
            if variant in ("separated-source", "separated-target"):
                first = batch.positions[0]
                tokens = Previous(src=(first.src, first.src_mask),
                                  trg=(first.trg, first.trg_mask))

                def loss_tensor(model=model, tokens=tokens, pos=pos):
                    cache = model.context_states(
                        tokens, np.arange(len(first.src)))
                    return model.forward_loss(pos, cache)[0]
            else:
                cache = position_cache(model, batch, 1)

                def loss_tensor(model=model, cache=cache, pos=pos):
                    return model.forward_loss(pos, cache)[0]

            params = model.param_list()
            T.backward(loss_tensor(), params=params)
            analytic = [p.grad.copy() for p in params]

            def value(loss_tensor=loss_tensor):
                with T.no_grad():
                    return float(loss_tensor().data)

            numeric = finite_difference_grads(value, [p.data for p in params])
            worst = max(worst, max_relative_error(analytic, numeric))
            model.zero_grad()

        elapsed = time.monotonic() - started
        _verdict("criterion 1 (gradient oracle)",
                 worst < 1e-5 and elapsed < 60.0,
                 f"max relative error {worst:.2e} over 24 mini-graphs and "
                 f"6 variants in {elapsed:.1f}s")


class TestCriterion2AttentionNormalization:
    def test_attention_rows_normalize(self):
        rows_checked = 0
        worst_dev = 0.0
        for seed in range(8):
            docs, seg, _, src_v, trg_v = tiny_task(n_docs=8, seed=seed,
                                                   sentences=(2, 3))
            batch = C.build_batch(seg, src_v, trg_v)
            model = TranslationModel(
                ModelConfig("shared-mix", 16, 16, len(src_v), len(trg_v)),
                rng=T.make_rng(seed, 42))
            cache = position_cache(model, batch, 1)
            pos = batch.positions[1]
            with T.no_grad():
                enc = model.encode(pos.src, pos.src_mask)
                carry = model.init_carry(enc)
                rng = np.random.default_rng(seed)
                for _ in range(12):
                    y = rng.integers(0, len(trg_v), size=pos.src.shape[0])
                    res = model.decode_step(y, carry, enc, cache)
                    carry = res.carry
                    for weights, mask in [(res.alpha.data, pos.src_mask)] + [
                            (beta.data, entry[1])
                            for beta, entry in zip(res.betas, cache)]:
                        live = mask.sum(axis=1) > 0
                        sums = weights.sum(axis=1)[live]
                        worst_dev = max(worst_dev,
                                        float(np.abs(sums - 1.0).max()))
                        assert (weights[live] >= 0).all()
                        assert (weights[live][mask[live] == 0.0] == 0.0).all()
                        rows_checked += int(live.sum())
        _verdict("criterion 2 (attention normalization)",
                 rows_checked >= 1000 and worst_dev <= 1e-6,
                 f"{rows_checked} attention rows, max |sum-1| = {worst_dev:.2e}")


class TestCriterion3ParameterIdentities:
    def test_exact_identities(self):
        ok = True
        for emb, hidden, vs, vt in [(32, 32, 500, 600), (8, 12, 40, 50),
                                    (512, 512, 32000, 32000)]:
            counts = {v: param_count(ModelConfig(v, emb, hidden, vs, vt))
                      for v in VARIANTS}
            ctx_stack = (emb + hidden) * 4 * hidden + 4 * hidden \
                + 2 * hidden * 4 * hidden + 4 * hidden
            ok &= counts["shared-source"] == counts["shared-target"] \
                == counts["shared-mix"]
            ok &= counts["shared-source"] - counts["baseline"] \
                == hidden * hidden
            ok &= counts["separated-source"] - counts["shared-source"] \
                == ctx_stack
            ok &= counts["separated-target"] - counts["shared-target"] \
                == ctx_stack
        _verdict("criterion 3 (parameter identities)", ok,
                 "shared counts equal; shared-baseline = H^2; "
                 "separated-shared = context stack, exactly")


class TestCriterion4ZeroContextEquivalences:
    def test_equivalences(self):
        docs, seg, _, src_v, trg_v = tiny_task(n_docs=4, seed=5)
        batch = C.build_batch(seg, src_v, trg_v)
        pos0, pos1 = batch.positions[0], batch.positions[1]

        # (a) first sentence: any cache state, identical output
        models = variant_family(src_v, trg_v, seed=11)
        first = None
        ok_a = True
        for variant in VARIANTS:
            model = models[variant]
            with T.no_grad():
                enc = model.encode(pos0.src, pos0.src_mask)
                res = model.decode_step(pos0.trg_in[:, 0],
                                        model.init_carry(enc), enc,
                                        model.context_states())
            if first is None:
                first = res.probs.data
            else:
                ok_a &= bool(np.array_equal(res.probs.data, first))

        # (b) from one previous sentence, shared-mix's context vector is
        # shared-source's plus shared-target's, bitwise
        with T.no_grad():
            _, _, prev, _ = models["shared-mix"].forward_loss(pos0, [])
        query = T.Tensor(np.random.default_rng(3).normal(
            size=(pos0.src.shape[0], 8)).astype(np.float32))
        ctx = {v: context_attention(query, models[v].context_states(
                   prev, np.arange(len(pos0.src))))[0]
               for v in ("shared-mix", "shared-source", "shared-target")}
        summed = T.add(ctx["shared-source"], ctx["shared-target"])
        ok_b = ctx["shared-mix"].data.tobytes() == summed.data.tobytes()

        # (c) zeroed context block reproduces baseline distributions
        zeroed = variant_family(src_v, trg_v, seed=11, zero_ctx_block=True)
        with T.no_grad():
            enc_b = zeroed["baseline"].encode(pos1.src, pos1.src_mask)
            base = zeroed["baseline"].decode_step(
                pos1.trg_in[:, 0], zeroed["baseline"].init_carry(enc_b),
                enc_b, [])
        worst_c = 0.0
        for variant in VARIANTS:
            if variant == "baseline":
                continue
            model = zeroed[variant]
            cache = position_cache(model, batch, 1)
            with T.no_grad():
                enc = model.encode(pos1.src, pos1.src_mask)
                res = model.decode_step(pos1.trg_in[:, 0],
                                        model.init_carry(enc), enc, cache)
            worst_c = max(worst_c,
                          float(np.abs(res.probs.data - base.probs.data).max()))
        ok_c = worst_c <= 1e-6
        _verdict("criterion 4 (zero-context equivalences)",
                 ok_a and ok_b and ok_c,
                 f"first-sentence bitwise: {ok_a}; mix==source+target bitwise: "
                 f"{ok_b}; zero-block vs baseline max dev {worst_c:.2e}")


class TestCriterion5BleuOracle:
    def test_hand_values_and_identity(self):
        near = E.bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]]).bleu
        expected = 100.0 * math.exp(1.0 - 5.0 / 4.0)
        ok = abs(near - expected) < 1e-6
        ok &= E.bleu([["the"] * 5], [["the", "cat"]]).bleu == 0.0
        ok &= abs(E.bleu([["x", "y", "z", "w"]],
                         [["x", "y", "z", "w"]]).bleu - 100.0) < 1e-6
        rng = np.random.default_rng(0)
        words = [f"t{i}" for i in range(40)]
        for _ in range(100):
            sents = [[words[i] for i in rng.integers(0, 40,
                                                     size=rng.integers(4, 11))]
                     for _ in range(rng.integers(1, 5))]
            ok &= abs(E.bleu(sents, sents).bleu - 100.0) < 1e-9
        _verdict("criterion 5 (BLEU oracle)", ok,
                 f"77.88 case = {near:.4f}; clipped case = 0; "
                 "identity = 100 on 100 random corpora")


class TestCriterion6BootstrapSanity:
    def test_endpoints(self):
        hyps = [["a", "b", "c"], ["d", "e", "f"]] * 10
        refs = [["a", "b", "x"], ["d", "y", "f"]] * 10
        p_same = E.bootstrap_significance(hyps, hyps, refs, n_resamples=1000,
                                          seed=3).p_value
        rng = np.random.default_rng(5)
        refs2 = [[f"w{i}" for i in rng.integers(0, 12, size=8)]
                 for _ in range(80)]
        noise = [[f"x{i}" for i in rng.integers(0, 12, size=8)]
                 for _ in range(80)]
        p_extreme = E.bootstrap_significance(noise, refs2, refs2,
                                             n_resamples=1000, seed=9).p_value
        _verdict("criterion 6 (bootstrap sanity)",
                 p_same == 1.0 and p_extreme < 0.01,
                 f"identical systems p = {p_same}; reference vs noise "
                 f"p = {p_extreme}")


class TestCriterion7TargetSideContext:
    def test_shared_target_beats_baseline(self, target_side_runs):
        ok = True
        details = []
        wins = 0
        for seed, run in target_side_runs.items():
            ok &= run["baseline_slot"] <= 0.60
            ok &= run["context_slot"] >= 0.90
            ok &= run["seconds"] < SEED_BUDGET_SECONDS
            wins += run["p_value"] < 0.05
            details.append(
                f"seed {seed}: baseline slot {run['baseline_slot']:.3f} "
                f"BLEU {run['baseline_bleu']:.1f}; shared-target slot "
                f"{run['context_slot']:.3f} BLEU {run['context_bleu']:.1f}, "
                f"p {run['p_value']:.3f}, {run['seconds']:.0f}s")
        ok &= wins >= 2
        _verdict("criterion 7 (target-side context, 3 seeds)", ok,
                 "; ".join(details) + f"; significant on {wins}/3 seeds")


class TestCriterion8SourceSideContext:
    def test_shared_source_resolves_slots(self, source_side_run):
        run = source_side_run
        ok = run["context_slot"] >= 0.90 \
            and run["seconds"] < SEED_BUDGET_SECONDS
        _verdict("criterion 8 (source-side context)", ok,
                 f"shared-source slot {run['context_slot']:.3f} "
                 f"(baseline {run['baseline_slot']:.3f}), BLEU "
                 f"{run['context_bleu']:.1f} vs {run['baseline_bleu']:.1f}, "
                 f"{run['seconds']:.0f}s")


class TestCriterion9Determinism:
    def test_repeated_commands_are_byte_identical(self, tmp_path):
        def run(argv):
            assert cli.run(argv) == 0

        data = tmp_path / "data"
        for _ in range(2):
            run(["synth", "--mode", "trg-informative", "--docs", "30",
                 "--seed", "5", "--out-dir", str(data), "--name", "c"])
            run(["preprocess", "--train-src", str(data / "c.src"),
                 "--train-trg", str(data / "c.trg"), "--merges", "40",
                 "--out-dir", str(data), "--name", "c"])
        corpus_bytes = [(data / n).read_bytes()
                        for n in ("c.src", "c.trg", "c.meta", "c.train.src",
                                  "c.train.trg", "c.vocab.src", "c.vocab.trg",
                                  "c.codes.src", "c.codes.trg")]

        common = ["--train-src", str(data / "c.train.src"),
                  "--train-trg", str(data / "c.train.trg"),
                  "--dev-src", str(data / "c.train.src"),
                  "--dev-trg", str(data / "c.train.trg"),
                  "--src-vocab", str(data / "c.vocab.src"),
                  "--trg-vocab", str(data / "c.vocab.trg")]
        snapshots = []
        for tag in ("one", "two"):
            prefix = tmp_path / tag / "ckpt"
            run(["train-baseline", *common, "--epochs", "2", "--emb-dim",
                 "12", "--hidden-dim", "12", "--out", str(prefix),
                 "--seed", "4"])
            run(["translate", "--ckpt", str(prefix),
                 "--src", str(data / "c.train.src"),
                 "--src-vocab", str(data / "c.vocab.src"),
                 "--trg-vocab", str(data / "c.vocab.trg"),
                 "--out", str(tmp_path / tag / "out.hyp")])
            run(["evaluate", "--hyp", str(tmp_path / tag / "out.hyp"),
                 "--ref", str(data / "c.trg"),
                 "--out", str(tmp_path / tag / "report.txt")])
            run(["compare", str(tmp_path / tag / "out.hyp"),
                 str(tmp_path / tag / "out.hyp"), str(data / "c.trg"),
                 "--n", "100", "--seed", "2",
                 "--out", str(tmp_path / tag / "sig.txt")])
            snapshots.append({
                "ckpt.bin": (tmp_path / tag / "ckpt.bin").read_bytes(),
                "ckpt.manifest":
                    (tmp_path / tag / "ckpt.manifest").read_bytes(),
                "out.hyp": (tmp_path / tag / "out.hyp").read_bytes(),
                "report.txt": (tmp_path / tag / "report.txt").read_bytes(),
                "sig.txt": (tmp_path / tag / "sig.txt").read_bytes(),
            })
        ok = all(corpus_bytes) and snapshots[0] == snapshots[1]
        _verdict("criterion 9 (determinism)", ok,
                 "checkpoints, hypotheses, and reports byte-identical "
                 "across same-seed reruns")
