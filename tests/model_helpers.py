"""Builders shared by the model tests and the acceptance suite."""

import numpy as np

from docnmt import bpe as B
from docnmt import corpus as C
from docnmt import tensor as T
from docnmt.model import (ModelConfig, TranslationModel, VARIANTS,
                          parameter_shapes)


def tiny_task(mode="trg-informative", n_docs=4, seed=5, merges=25,
              sentences=(2, 3), fillers=5):
    """Small segmented corpus with vocabularies, ready for batching."""
    docs, metas = C.generate_synthetic(C.SynthConfig(
        mode=mode, num_documents=n_docs, sentences_per_doc=sentences,
        num_fillers=fillers, seed=seed))
    src_model = B.learn_bpe([s for d in docs for s in d.src_sentences], merges)
    trg_model = B.learn_bpe([t for d in docs for t in d.trg_sentences], merges)
    seg = C.segment_documents(docs, src_model, trg_model)
    src_v = B.build_vocab([s for d in seg for s in d.src_sentences])
    trg_v = B.build_vocab([t for d in seg for t in d.trg_sentences])
    return docs, seg, metas, src_v, trg_v


def variant_family(src_vocab, trg_vocab, emb=8, hidden=8, seed=0,
                   zero_ctx_block=False, dtype=np.float32, dropout=0.0):
    """All six variants sharing every weight the baseline has.

    Context variants get the baseline's output projection in their first
    two blocks; the third block is fresh random unless zero_ctx_block.
    """
    models = {}
    base_cfg = ModelConfig("baseline", emb, hidden, len(src_vocab),
                           len(trg_vocab), dropout=dropout)
    base = TranslationModel(base_cfg, rng=T.make_rng(seed, 0), dtype=dtype)
    models["baseline"] = base
    extra_rng = T.make_rng(seed, 1)
    for variant in VARIANTS:
        if variant == "baseline":
            continue
        cfg = ModelConfig(variant, emb, hidden, len(src_vocab),
                          len(trg_vocab), dropout=dropout)
        params = {}
        for name, shape in parameter_shapes(cfg).items():
            if name == "attn_out":
                data = np.zeros(shape, dtype=dtype)
                data[:2 * hidden] = base.params["attn_out"].data
                if not zero_ctx_block:
                    data[2 * hidden:] = extra_rng.uniform(
                        -0.08, 0.08, size=(hidden, hidden))
                params[name] = T.Tensor(data, requires_grad=True, dtype=dtype)
            elif name.startswith("ctx_"):
                data = extra_rng.uniform(-0.08, 0.08, size=shape)
                params[name] = T.Tensor(data, requires_grad=True, dtype=dtype)
            else:
                params[name] = T.Tensor(base.params[name].data.copy(),
                                        requires_grad=True, dtype=dtype)
        models[variant] = TranslationModel(cfg, params=params, dtype=dtype)
    return models


def position_cache(model, batch, pos_idx):
    """Context for batch position pos_idx, chained from position 0 through
    each position's `Previous`.

    The producing forward passes run untracked, so shared states are plain
    constants (the semantics training relies on).
    """
    if pos_idx == 0 or model.cfg.variant == "baseline":
        return model.context_states()
    with T.no_grad():
        _, _, prev, _ = model.forward_loss(
            batch.positions[pos_idx - 1],
            position_cache(model, batch, pos_idx - 1))
    return model.context_states(
        prev, np.arange(len(batch.positions[pos_idx].src)))


def all_on_worker(monkeypatch):
    """Set `tensor`'s size rule to 0, which sends every product to the
    worker thread; returns the list of the sizes handed to it."""
    monkeypatch.setattr(T, "WORKER_MIN_MACS", 0)
    handed = []
    worker_for = T._worker_for

    def spy(macs):
        handed.append(macs)
        return worker_for(macs)

    monkeypatch.setattr(T, "_worker_for", spy)
    return handed
