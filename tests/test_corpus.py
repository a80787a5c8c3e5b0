import re

import numpy as np
import pytest

from docnmt import bpe as B
from docnmt import corpus as C


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDocuments:
    def test_blank_line_blocks(self, tmp_path):
        src = write(tmp_path / "x.src", "a\nb\n\nc\n")
        trg = write(tmp_path / "x.trg", "d\ne\n\nf\n")
        docs = C.load_documents(src, trg)
        assert [len(d) for d in docs] == [2, 1]
        assert docs[0].pairs[0] == (["a"], ["d"])

    def test_trailing_blank_lines_ignored(self, tmp_path):
        src = write(tmp_path / "x.src", "a\n\nb\n\n\n")
        trg = write(tmp_path / "x.trg", "c\n\nd\n\n")
        docs = C.load_documents(src, trg)
        assert [len(d) for d in docs] == [1, 1]

    def test_misaligned_block_names_document(self, tmp_path):
        src = write(tmp_path / "x.src", "a\nb\n\nc\nd\n")
        trg = write(tmp_path / "x.trg", "a\nb\n\nc\nd\ne\n")
        with pytest.raises(ValueError, match="document 1"):
            C.load_documents(src, trg)

    def test_block_count_mismatch(self, tmp_path):
        src = write(tmp_path / "x.src", "a\n\nb\n")
        trg = write(tmp_path / "x.trg", "a\n")
        with pytest.raises(ValueError, match="count mismatch"):
            C.load_documents(src, trg)

    def test_save_load_round_trip(self, tmp_path):
        docs, _ = C.generate_synthetic(C.SynthConfig(num_documents=5, seed=3))
        C.save_documents(docs, tmp_path / "r.src", tmp_path / "r.trg")
        loaded = C.load_documents(tmp_path / "r.src", tmp_path / "r.trg")
        assert [d.pairs for d in loaded] == [d.pairs for d in docs]


class TestFilter:
    def _doc(self, lengths):
        pairs = [(["s"] * n, ["t"] * n) for n in lengths]
        return C.Document("d", pairs)

    def test_long_sentence_drops_whole_document(self):
        docs = [self._doc([3, 101]), self._doc([4])]
        kept = C.filter_documents(docs, max_len=100)
        assert len(kept) == 1 and kept[0] is docs[1]

    def test_all_short_kept(self):
        docs = [self._doc([5, 7])]
        assert C.filter_documents(docs) == docs

    def test_exactly_max_len_kept(self):
        docs = [self._doc([100])]
        assert C.filter_documents(docs, max_len=100) == docs

    def test_target_side_counts_too(self):
        doc = C.Document("d", [(["s"], ["t"] * 101)])
        assert C.filter_documents([doc]) == []


class TestBatching:
    def _vocab(self, docs):
        src_v = B.build_vocab([s for d in docs for s in d.src_sentences])
        trg_v = B.build_vocab([t for d in docs for t in d.trg_sentences])
        return src_v, trg_v

    def test_batch_sizes(self):
        docs, _ = C.generate_synthetic(C.SynthConfig(num_documents=3, seed=0))
        src_v, trg_v = self._vocab(docs)
        batches = C.make_batches(docs, src_v, trg_v, max_docs=2,
                                 rng=np.random.default_rng(0))
        # one row per sentence, one first sentence per document
        assert [int((b.prev == -1).sum()) for b in batches] == [2, 1]
        assert sum(len(b.prev) for b in batches) == sum(map(len, docs))

    def test_shorter_documents_masked_out(self):
        d1 = C.Document("a", [(["x"], ["y"])] * 2)
        d2 = C.Document("b", [(["x"], ["y"])] * 5)
        src_v, trg_v = self._vocab([d1, d2])
        batch = C.build_batch([d1, d2], src_v, trg_v)
        assert len(batch.positions) == 5
        for i, pos in enumerate(batch.positions):
            np.testing.assert_array_equal(
                pos.active, [1.0 if i < 2 else 0.0, 1.0])

    def test_pad_mask_correspondence(self):
        docs, _ = C.generate_synthetic(C.SynthConfig(num_documents=8, seed=5))
        src_v, trg_v = self._vocab(docs)
        batch = C.build_batch(docs, src_v, trg_v)
        for pos in batch.positions:
            np.testing.assert_array_equal(pos.src_mask == 0.0, pos.src == B.PAD)
            np.testing.assert_array_equal(pos.trg_mask == 0.0, pos.trg == B.PAD)
            assert pos.out_mask.sum(axis=1)[pos.active == 1.0].min() >= 2

    def test_teacher_forcing_layout(self):
        doc = C.Document("a", [(["x"], ["u", "v"])])
        src_v, trg_v = self._vocab([doc])
        pos = C.build_batch([doc], src_v, trg_v).positions[0]
        u, v = trg_v.encode(["u", "v"])
        np.testing.assert_array_equal(pos.trg_in[0], [B.BOS, u, v])
        np.testing.assert_array_equal(pos.trg_out[0], [u, v, B.EOS])

    def test_shuffle_requires_rng(self):
        docs, _ = C.generate_synthetic(C.SynthConfig(num_documents=2, seed=0))
        src_v, trg_v = self._vocab(docs)
        with pytest.raises(ValueError):
            C.make_batches(docs, src_v, trg_v)


class TestSynthetic:
    def test_trg_informative_structure(self):
        cfg = C.SynthConfig("trg-informative", num_documents=40, seed=1)
        docs, metas = C.generate_synthetic(cfg)
        for doc, meta in zip(docs, metas):
            assert meta.slot_indices == list(range(1, len(doc)))
            register = "w" if meta.choice == C.SYNONYMS[0] else "v"
            for i, (src, trg) in enumerate(doc.pairs):
                assert 4 <= len(src) <= 8 and src[-1] == C.PERIOD
                assert src[0] == (C.SRC_ENTITY if i == 0 else C.PRONOUN)
                assert trg[0] == meta.choice
                assert all(t.startswith(register) for t in trg[1:-1])
                # nothing on the source side reveals the document's choice
                assert all(t.startswith("w") for t in src[1:-1])

    def test_src_informative_structure(self):
        cfg = C.SynthConfig("src-informative", num_documents=40, seed=2)
        docs, metas = C.generate_synthetic(cfg)
        for doc, meta in zip(docs, metas):
            marker = C.SRC_MARKERS[C.SYNONYMS.index(meta.choice)]
            assert meta.slot_indices == [i for i in range(len(doc)) if i % 2]
            for i, (src, trg) in enumerate(doc.pairs):
                if i % 2 == 0:
                    assert src[0] == marker
                else:
                    assert src[0] == C.PRONOUN
                    assert not any(t in C.SRC_MARKERS for t in src)
                assert trg[0] == meta.choice

    def test_choice_split_is_balanced(self):
        _, metas = C.generate_synthetic(
            C.SynthConfig(num_documents=1000, seed=9))
        share = sum(m.choice == C.SYNONYMS[0] for m in metas) / len(metas)
        assert abs(share - 0.5) < 0.05

    def test_deterministic_given_seed(self):
        cfg = C.SynthConfig(num_documents=10, seed=4)
        docs_a, metas_a = C.generate_synthetic(cfg)
        docs_b, metas_b = C.generate_synthetic(cfg)
        assert [d.pairs for d in docs_a] == [d.pairs for d in docs_b]
        assert metas_a == metas_b

    def test_meta_round_trip(self, tmp_path):
        _, metas = C.generate_synthetic(C.SynthConfig(num_documents=6, seed=7))
        C.save_meta(metas, tmp_path / "m.meta")
        assert C.load_meta(tmp_path / "m.meta") == metas

    @pytest.mark.parametrize("bad", ["d1\tsyna", "d1\tsyna\t1,two",
                                     "d1\tsyna\t1\t2"])
    def test_bad_meta_line_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "m.meta"
        path.write_text(f"d0\tsynb\t1,2\n\n{bad}\n")
        with pytest.raises(ValueError, match=rf"m\.meta, line 3: cannot read "
                                             rf"{re.escape(repr(bad))}"):
            C.load_meta(path)

    def test_negative_slot_index_names_file_and_line(self, tmp_path):
        # -1 would score the document's last sentence
        path = tmp_path / "m.meta"
        path.write_text("d0\tsynb\t1,2\nd1\tsyna\t1,-1\n")
        with pytest.raises(ValueError, match=r"m\.meta, line 2: negative "
                                             r"slot index in '1,-1'"):
            C.load_meta(path)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            C.SynthConfig(mode="sideways")

    @pytest.mark.parametrize("name,value", [
        ("num_documents", 0), ("num_documents", -3), ("num_fillers", 0)])
    def test_empty_corpus_rejected(self, name, value):
        with pytest.raises(ValueError, match=rf"{name} must be >= 1, "
                                             rf"got {value}\b"):
            C.SynthConfig(**{name: value})
