import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from docnmt import bpe as B

from oracles import learn_bpe_reference

# Whitespace-free tokens, rich in the characters of the "@@" marker and the
# "</w>" end-of-word symbol.  A token that itself ends in "@@" does not
# survive de-segmentation (the marker scheme cannot tell it from a joint),
# so those are left out.
TOKENS = st.text(st.sampled_from("ab@</w>") | st.characters(
    exclude_categories=("Z", "C")), min_size=1, max_size=8).filter(
    lambda t: t.split() == [t] and not t.endswith("@@"))


class TestLearnBpe:
    def test_zero_merges_gives_characters(self):
        model = B.learn_bpe([["ab"]], 0)
        assert model.merges == []
        assert B.apply_bpe(["ab"], model) == ["a@@", "b"]

    def test_negative_merges_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^num_merges must be >= 0, got -1$"):
            B.learn_bpe([["ab"]], -1)

    def test_most_frequent_pair_first(self):
        model = B.learn_bpe([["aaab"]] * 5, 1)
        assert model.merges == [("a", "a")]

    def test_low_lower_merge_order(self):
        model = B.learn_bpe([["low", "lower"]] * 4, 2)
        assert model.merges == [("l", "o"), ("lo", "w")]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            B.learn_bpe([], 10)

    def test_deterministic(self):
        corpus = [["banana", "bandana"], ["ban", "and"]]
        a = B.learn_bpe(corpus, 8)
        b = B.learn_bpe(corpus, 8)
        assert a.merges == b.merges

    def test_merge_count_capped_by_possible_pairs(self):
        model = B.learn_bpe([["ab"]], 50)
        assert model.num_merges <= 3

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), types=st.lists(
        st.text(st.sampled_from("abc"), min_size=1, max_size=8),
        min_size=1, max_size=10, unique=True), scale=st.integers(1, 12))
    def test_matches_recounting_learner(self, data, types, scale):
        # Zipfian corpus: type k occurs about scale / (k + 1) times, so
        # counts tie often; repeated letters give overlapping pairs (aaaa)
        corpus = [[w] * max(1, scale // (k + 1)) for k, w in enumerate(types)]
        # no more merges are possible than symbols to join
        merges = data.draw(st.integers(0, sum(map(len, types)) + 3))
        got = B.learn_bpe(corpus, merges).merges
        assert got == learn_bpe_reference(corpus, merges).merges


class TestApplyBpe:
    def test_frequent_word_becomes_single_token(self):
        corpus = [["cat", "dog", "cat"]] * 10
        model = B.learn_bpe(corpus, 30)
        assert B.apply_bpe(["cat"], model) == ["cat"]
        assert B.apply_bpe(["dog"], model) == ["dog"]

    @settings(max_examples=200, deadline=None)
    @given(corpus=st.lists(st.lists(TOKENS, min_size=1, max_size=6),
                           min_size=1, max_size=4),
           unseen=st.lists(TOKENS, max_size=4), merges=st.integers(0, 30))
    def test_desegmentation_inverts_segmentation(self, corpus, unseen, merges):
        model = B.learn_bpe(corpus, merges)
        for sentence in corpus + [unseen]:
            assert B.remove_bpe(B.apply_bpe(sentence, model)) == sentence

    def test_resegmentation_is_stable(self):
        corpus = [["hello", "help", "hull"]] * 3
        model = B.learn_bpe(corpus, 5)
        first = B.apply_bpe(["hello", "hull"], model)
        again = B.apply_bpe(B.remove_bpe(first), model)
        assert first == again

    def test_unknown_characters_pass_through(self):
        model = B.learn_bpe([["ab"]], 2)
        pieces = B.apply_bpe(["xyz"], model)
        assert B.remove_bpe(pieces) == ["xyz"]


class TestBpeModelFile:
    def test_round_trip(self, tmp_path):
        model = B.learn_bpe([["low", "lower", "lowest"]] * 3, 6)
        path = tmp_path / "codes"
        model.save(path)
        assert path.read_text(encoding="utf-8") == (
            "l o\nlo w\nlow e\nlow </w>\nlowe r\nlowe s\n")


class TestVocabulary:
    def test_reserved_ids(self):
        vocab = B.build_vocab([["a", "b"], ["a"]])
        assert vocab.token_to_id["<pad>"] == B.PAD == 0
        assert vocab.token_to_id["<bos>"] == B.BOS == 1
        assert vocab.token_to_id["<eos>"] == B.EOS == 2
        assert vocab.token_to_id["<unk>"] == B.UNK == 3
        # "a" (freq 2) before "b" (freq 1)
        assert vocab.token_to_id["a"] == 4
        assert vocab.token_to_id["b"] == 5

    def test_empty_corpus_keeps_reserved_only(self):
        vocab = B.build_vocab([])
        assert len(vocab) == 4

    def test_frequency_then_lexicographic(self):
        vocab = B.build_vocab([["z", "z", "m", "a"]])
        assert vocab.tokens[4:] == ["z", "a", "m"]

    def test_oov_maps_to_unk(self):
        vocab = B.build_vocab([["a"]])
        assert vocab.encode(["a", "mystery"]) == [4, B.UNK]

    def test_round_trip_random_corpora(self):
        rng = np.random.default_rng(3)
        words = [f"tok{i}" for i in range(20)]
        for _ in range(20):
            corpus = [[words[i] for i in rng.integers(0, 20, size=6)]
                      for _ in range(4)]
            vocab = B.build_vocab(corpus)
            for sent in corpus:
                assert vocab.decode(vocab.encode(sent)) == sent

    @pytest.mark.parametrize("text,message", [
        ("a\nb\n\nc\nb\n", r"dup\.vocab, line 5: token 'b' repeats line 2"),
        ("a\n<unk>\n", r"dup\.vocab, line 2: token '<unk>' repeats a "
                        r"reserved token")])
    def test_repeated_token_names_file_and_line(self, tmp_path, text,
                                                message):
        path = tmp_path / "dup.vocab"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            B.Vocabulary.load(path)

    def test_ids_stable_across_save_load(self, tmp_path):
        vocab = B.build_vocab([["b", "a", "b"], ["c"]])
        path = tmp_path / "vocab"
        vocab.save(path)
        loaded = B.Vocabulary.load(path)
        assert loaded.tokens == vocab.tokens
        assert loaded.token_to_id == vocab.token_to_id
