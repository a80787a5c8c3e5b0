import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from docnmt import bpe as B
from docnmt import cli
from docnmt import corpus as C
from docnmt import evaluation as E
from docnmt import tensor as T
from docnmt.model import load_checkpoint, save_checkpoint
from docnmt.training import init_from_baseline

from oracles import bootstrap_reference, sentence_stats


def run_ok(argv):
    assert cli.run(argv) == 0


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> preprocess -> tiny baseline checkpoint, shared by tests."""
    root = tmp_path_factory.mktemp("pipe")
    data, prep, models = root / "data", root / "prep", root / "models"
    run_ok(["synth", "--mode", "trg-informative", "--docs", "24",
            "--seed", "7", "--out-dir", str(data), "--name", "train"])
    run_ok(["synth", "--mode", "trg-informative", "--docs", "8",
            "--seed", "8", "--out-dir", str(data), "--name", "dev"])
    run_ok(["synth", "--mode", "trg-informative", "--docs", "8",
            "--seed", "9", "--out-dir", str(data), "--name", "test"])
    run_ok(["preprocess",
            "--train-src", str(data / "train.src"),
            "--train-trg", str(data / "train.trg"),
            "--dev-src", str(data / "dev.src"),
            "--dev-trg", str(data / "dev.trg"),
            "--test-src", str(data / "test.src"),
            "--test-trg", str(data / "test.trg"),
            "--merges", "60", "--out-dir", str(prep), "--name", "syn"])
    common = ["--train-src", str(prep / "syn.train.src"),
              "--train-trg", str(prep / "syn.train.trg"),
              "--dev-src", str(prep / "syn.dev.src"),
              "--dev-trg", str(prep / "syn.dev.trg"),
              "--src-vocab", str(prep / "syn.vocab.src"),
              "--trg-vocab", str(prep / "syn.vocab.trg")]
    run_ok(["train-baseline", *common, "--epochs", "2", "--emb-dim", "12",
            "--hidden-dim", "12", "--out", str(models / "base"),
            "--seed", "1"])
    return root, data, prep, models, common


class TestSynthPreprocess:
    def test_outputs_are_loadable(self, pipeline):
        _, data, prep, _, _ = pipeline
        raw = C.load_documents(data / "train.src", data / "train.trg")
        seg = C.load_documents(prep / "syn.train.src", prep / "syn.train.trg")
        assert len(raw) == len(seg) == 24
        metas = C.load_meta(data / "train.meta")
        assert len(metas) == 24

    def test_synth_rerun_is_byte_identical(self, pipeline, tmp_path):
        _, data, _, _, _ = pipeline
        argv = ["synth", "--mode", "trg-informative", "--docs", "24",
                "--seed", "7", "--out-dir", str(tmp_path), "--name", "train"]
        run_ok(argv)
        for name in ("train.src", "train.trg", "train.meta"):
            assert (tmp_path / name).read_bytes() == (data / name).read_bytes()
        manifest = (tmp_path / "train.src.manifest.json").read_bytes()
        run_ok(argv)  # same destination: even the manifest matches
        assert (tmp_path / "train.src.manifest.json").read_bytes() == manifest

    def test_manifest_records_inputs_and_outputs(self, pipeline):
        _, _, prep, _, _ = pipeline
        manifest = json.loads(
            (prep / "syn.train.src.manifest.json").read_text())
        assert manifest["command"] == "preprocess"
        assert len(manifest["inputs"]) == 6
        assert any(p.endswith("syn.vocab.trg") for p in manifest["outputs"])

    def test_manifest_records_resolved_settings(self, pipeline):
        _, _, prep, _, _ = pipeline
        settings = json.loads(
            (prep / "syn.train.src.manifest.json").read_text())["settings"]
        assert settings["merges"] == "60"              # flag
        assert settings["max_len"] == str(cli.DESK_PROFILE["max_len"])
        assert "seed" not in settings                  # preprocess has none

    @pytest.mark.parametrize("token", ["x@@", "@@"])
    def test_bpe_marker_in_input_names_file_and_line(self, tmp_path, token):
        # de-segmenting would turn "x@@" into "x" and drop "@@"
        src, trg = tmp_path / "c.src", tmp_path / "c.trg"
        src.write_text("a b\nc d\n\ne f\n")
        trg.write_text(f"a b\nc d\n\ne {token} f\n")
        with pytest.raises(ValueError, match=rf"c\.trg, line 4: token "
                                             rf"'{token}' ends in the BPE"):
            cli.run(["preprocess", "--train-src", str(src),
                     "--train-trg", str(trg), "--out-dir", str(tmp_path)])
        assert not (tmp_path / "corpus.train.src").exists()

    @pytest.mark.parametrize("given", ["--dev-src", "--dev-trg",
                                       "--test-src", "--test-trg"])
    def test_half_a_pair_rejected_before_writing(self, pipeline, tmp_path,
                                                 given):
        _, data, _, _, _ = pipeline
        tag, side = given[2:].split("-")
        with pytest.raises(ValueError, match=f"--{tag}-src and --{tag}-trg"):
            cli.run(["preprocess", "--train-src", str(data / "train.src"),
                     "--train-trg", str(data / "train.trg"),
                     given, str(data / f"{tag}.{side}"),
                     "--out-dir", str(tmp_path / "prep")])
        assert not (tmp_path / "prep").exists()

    def test_empty_training_corpus_names_file(self, tmp_path):
        src, trg = tmp_path / "empty.src", tmp_path / "empty.trg"
        src.write_text("")
        trg.write_text("")
        with pytest.raises(ValueError, match=r"empty\.src: no documents"):
            cli.run(["preprocess", "--train-src", str(src),
                     "--train-trg", str(trg),
                     "--out-dir", str(tmp_path / "prep")])
        assert not (tmp_path / "prep").exists()

    def test_max_len_dropping_every_document_rejected_before_writing(
            self, pipeline, tmp_path):
        _, data, _, _, _ = pipeline
        match = r"train\.src / .*train\.trg: every document has a sentence " \
                r"longer than --max-len 1$"
        with pytest.raises(ValueError, match=match):
            cli.run(["preprocess", "--train-src", str(data / "train.src"),
                     "--train-trg", str(data / "train.trg"), "--max-len", "1",
                     "--out-dir", str(tmp_path / "prep")])
        assert not (tmp_path / "prep").exists()

    def test_negative_merges_rejected_before_writing(self, pipeline,
                                                     tmp_path):
        _, data, _, _, _ = pipeline
        with pytest.raises(ValueError, match=r"^--merges must be >= 0, "
                                             r"got -1$"):
            cli.run(["preprocess", "--train-src", str(data / "train.src"),
                     "--train-trg", str(data / "train.trg"), "--merges", "-1",
                     "--out-dir", str(tmp_path / "prep")])
        assert not (tmp_path / "prep").exists()

    @pytest.mark.parametrize("flag,value,setting", [
        ("--docs", "0", "num_documents"), ("--fillers", "0", "num_fillers")])
    def test_empty_corpus_rejected_before_writing(self, tmp_path, flag, value,
                                                  setting):
        argv = ["synth", "--mode", "trg-informative", "--docs", "5",
                "--out-dir", str(tmp_path / "data"), flag, value]
        with pytest.raises(ValueError, match=f"{setting} must be >= 1"):
            cli.run(argv)
        assert not (tmp_path / "data").exists()


class TestTraining:
    def test_checkpoint_rerun_is_byte_identical(self, pipeline, tmp_path):
        _, _, prep, models, common = pipeline
        run_ok(["train-baseline", *common, "--epochs", "2",
                "--emb-dim", "12", "--hidden-dim", "12",
                "--out", str(tmp_path / "again"), "--seed", "1"])
        assert (tmp_path / "again.bin").read_bytes() == \
            (models / "base.bin").read_bytes()
        assert (tmp_path / "again.manifest").read_bytes() == \
            (models / "base.manifest").read_bytes()

    def test_finetune_and_multi_seed_summary(self, pipeline, capsys):
        _, _, _, models, common = pipeline
        run_ok(["finetune", *common, "--variant", "shared-target",
                "--baseline", str(models / "base"), "--epochs", "1",
                "--out", str(models / "st"), "--seed", "1,2"])
        out = capsys.readouterr().out
        assert "mean" in out and "+-" in out
        assert (models / "st.s1.bin").exists()
        assert (models / "st.s2.bin").exists()
        manifest = json.loads((models / "st.s2.manifest.json").read_text())
        assert manifest["seed"] == 2
        assert manifest["settings"]["seed"] == "1,2"
        assert "seeds" not in manifest["settings"]

    def test_finetune_dropout_overrides_the_baseline(self, pipeline, tmp_path):
        _, _, _, models, common = pipeline
        run_ok(["finetune", *common, "--variant", "shared-source",
                "--baseline", str(models / "base"), "--epochs", "1",
                "--dropout", "0.1", "--out", str(tmp_path / "ss")])
        assert "dropout=0.2" in \
            (models / "base.manifest").read_text().splitlines()
        assert "dropout=0.1" in \
            (tmp_path / "ss.manifest").read_text().splitlines()

    def test_finetune_vocabulary_size_mismatch_names_both_sizes(
            self, pipeline, tmp_path):
        _, _, prep, models, common = pipeline
        n = len(B.Vocabulary.load(prep / "syn.vocab.trg"))
        bigger = tmp_path / "bigger.vocab.trg"
        bigger.write_text((prep / "syn.vocab.trg").read_text()
                          + "unseen-token\n")
        with pytest.raises(ValueError,
                           match=rf"target {n + 1}\).*target {n}\)"):
            cli.run(["finetune", *common, "--trg-vocab", str(bigger),
                     "--variant", "shared-target", "--epochs", "1",
                     "--baseline", str(models / "base"),
                     "--out", str(tmp_path / "st")])
        assert not (tmp_path / "st.bin").exists()

    def test_finetune_from_a_context_checkpoint_names_it(self, pipeline,
                                                         tmp_path):
        _, _, _, models, common = pipeline
        prefix = tmp_path / "st"
        save_checkpoint(init_from_baseline(load_checkpoint(models / "base"),
                                           "shared-target", T.make_rng(1, 3)),
                        prefix)
        with pytest.raises(ValueError, match=(
                rf"^--baseline {re.escape(str(prefix))}: .* not shared-source "
                "from a shared-target model")):
            cli.run(["finetune", *common, "--variant", "shared-source",
                     "--baseline", str(prefix), "--epochs", "1",
                     "--out", str(tmp_path / "ss")])
        assert not (tmp_path / "ss.bin").exists()

    @pytest.mark.parametrize("command", ["train-baseline", "finetune"])
    @pytest.mark.parametrize("side", ["train", "dev"])
    def test_empty_corpus_names_file(self, pipeline, tmp_path, command,
                                     side):
        # an empty dev set would read BLEU 0.00 every epoch and keep epoch 1
        _, _, _, models, common = pipeline
        src, trg = tmp_path / f"{side}.src", tmp_path / f"{side}.trg"
        src.write_text("")
        trg.write_text("")
        argv = [command, *common, f"--{side}-src", str(src),
                f"--{side}-trg", str(trg), "--epochs", "1",
                "--out", str(tmp_path / "m")]
        if command == "finetune":
            argv += ["--variant", "shared-target",
                     "--baseline", str(models / "base")]
        with pytest.raises(ValueError,
                           match=rf"{side}\.src: no documents"):
            cli.run(argv)
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("flag,value,setting", [
        ("--batch-docs", "-2", "batch_docs"),
        ("--grad-clip", "0", "grad_clip"), ("--grad-clip", "nan", "grad_clip"),
        ("--lr", "nan", "lr"), ("--lr", "inf", "lr")])
    def test_non_positive_setting_rejected_before_training(
            self, pipeline, tmp_path, flag, value, setting):
        # -2 documents per batch would write an untrained checkpoint, a
        # clip norm of 0 or NaN would turn clipping off, and a NaN or
        # infinite learning rate would write NaN into the parameters
        _, _, _, _, common = pipeline
        with pytest.raises(ValueError, match=rf"^{setting} .*got {value}"):
            cli.run(["train-baseline", *common, flag, value, "--epochs", "1",
                     "--out", str(tmp_path / "base")])
        assert not (tmp_path / "base.bin").exists()


    @pytest.mark.parametrize("command,value", [("train-baseline", "1.5"),
                                               ("finetune", "-0.5")])
    def test_dropout_outside_unit_interval_rejected_before_training(
            self, pipeline, tmp_path, command, value):
        _, _, _, models, common = pipeline
        argv = [command, *common, "--dropout", value, "--epochs", "1",
                "--out", str(tmp_path / "m")]
        if command == "finetune":
            argv += ["--variant", "shared-target",
                     "--baseline", str(models / "base")]
        with pytest.raises(ValueError, match=rf"^dropout must be in \[0, 1\), "
                                             rf"got {value}$"):
            cli.run(argv)
        assert not (tmp_path / "m.bin").exists()


class TestTranslateEvaluateCompare:
    def test_round_trip(self, pipeline, capsys):
        root, data, prep, models, _ = pipeline
        vocabs = ["--src-vocab", str(prep / "syn.vocab.src"),
                  "--trg-vocab", str(prep / "syn.vocab.trg")]
        hyp = root / "base.hyp"
        run_ok(["translate", "--ckpt", str(models / "base"),
                "--src", str(prep / "syn.test.src"), *vocabs,
                "--out", str(hyp)])
        hyp_docs = C.load_blocks(hyp)
        assert len(hyp_docs) == 8
        manifest = json.loads((root / "base.hyp.manifest.json").read_text())
        assert "seed" not in manifest["settings"]     # decoding is seedless

        run_ok(["evaluate", "--hyp", str(hyp), "--ref", str(data / "test.trg"),
                "--meta", str(data / "test.meta"),
                "--out", str(root / "report.txt")])
        out = capsys.readouterr().out
        assert "BLEU" in out and "slot accuracy" in out
        report = (root / "report.txt").read_text()
        assert report.startswith("bleu=")
        assert "slot_accuracy=" in report
        manifest = json.loads((root / "report.txt.manifest.json").read_text())
        assert "seed" not in manifest["settings"]

        run_ok(["compare", str(hyp), str(hyp), str(data / "test.trg"),
                "--n", "50", "--seed", "3"])
        out = capsys.readouterr().out
        assert "p = 1.0000" in out
        with pytest.raises(ValueError, match="n_resamples must be >= 1"):
            cli.run(["compare", str(hyp), str(hyp), str(data / "test.trg"),
                     "--n", "0"])

    def test_meta_count_mismatch_fails_before_bleu(self, pipeline, tmp_path,
                                                   capsys):
        _, data, _, _, _ = pipeline
        meta = tmp_path / "short.meta"
        meta.write_text("".join((data / "test.meta").read_text()
                                .splitlines(keepends=True)[:-1]))
        ref = data / "test.trg"
        with pytest.raises(ValueError, match=rf"short\.meta has 7 records, "
                                             rf"{re.escape(str(ref))} has 8 "
                                             rf"documents"):
            cli.run(["evaluate", "--hyp", str(ref), "--ref", str(ref),
                     "--meta", str(meta)])
        assert capsys.readouterr().out == ""

    def test_slot_past_document_end_fails_before_bleu(self, pipeline,
                                                      tmp_path, capsys):
        _, data, _, _, _ = pipeline
        ref = data / "test.trg"
        lines = (data / "test.meta").read_text().splitlines(keepends=True)
        doc_id, choice, _ = lines[2].rstrip("\n").split("\t")
        length = len(C.load_blocks(ref)[2])
        lines[2] = f"{doc_id}\t{choice}\t1,{length}\n"
        meta = tmp_path / "long.meta"
        meta.write_text("".join(lines))
        with pytest.raises(ValueError, match=(
                rf"long\.meta: document {doc_id}: slot index {length} is "
                rf"past its {length} sentences")):
            cli.run(["evaluate", "--hyp", str(ref), "--ref", str(ref),
                     "--meta", str(meta)])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("vocabs", ["short", "swapped"])
    def test_vocabulary_mismatch_fails_before_decoding(self, pipeline,
                                                       tmp_path, vocabs):
        _, _, prep, models, _ = pipeline
        src_vocab, trg_vocab = prep / "syn.vocab.src", prep / "syn.vocab.trg"
        if vocabs == "short":
            trg_vocab = tmp_path / "short.vocab"
            trg_vocab.write_text("".join(
                (prep / "syn.vocab.trg").read_text()
                .splitlines(keepends=True)[:10]))
        else:
            src_vocab = prep / "syn.vocab.trg"
        sizes = [len(B.Vocabulary.load(v)) for v in (src_vocab, trg_vocab)]
        model = [len(B.Vocabulary.load(prep / f"syn.vocab.{side}"))
                 for side in ("src", "trg")]
        assert sizes != model
        with pytest.raises(ValueError, match=re.escape(
                f"{src_vocab} / {trg_vocab}: vocabulary sizes (source "
                f"{sizes[0]}, target {sizes[1]}) do not match the model's "
                f"(source {model[0]}, target {model[1]})")):
            cli.run(["translate", "--ckpt", str(models / "base"),
                     "--src", str(prep / "syn.test.src"),
                     "--src-vocab", str(src_vocab),
                     "--trg-vocab", str(trg_vocab),
                     "--out", str(tmp_path / "base.hyp")])
        assert not (tmp_path / "base.hyp").exists()

    def test_empty_source_names_file(self, pipeline, tmp_path):
        _, _, prep, models, _ = pipeline
        src = tmp_path / "empty.src"
        src.write_text("")
        with pytest.raises(ValueError,
                           match=r"empty\.src: no source sentences"):
            cli.run(["translate", "--ckpt", str(models / "base"),
                     "--src", str(src),
                     "--src-vocab", str(prep / "syn.vocab.src"),
                     "--trg-vocab", str(prep / "syn.vocab.trg"),
                     "--out", str(tmp_path / "empty.hyp")])
        assert not (tmp_path / "empty.hyp").exists()

    @pytest.mark.parametrize("beam", ["0", "-1"])
    def test_non_positive_beam_rejected_before_loading(self, pipeline,
                                                       tmp_path, beam):
        # the checkpoint does not exist: the flag is checked first
        _, _, prep, _, _ = pipeline
        with pytest.raises(ValueError, match=rf"^--beam must be >= 1, "
                                             rf"got {beam}$"):
            cli.run(["translate", "--ckpt", str(tmp_path / "missing"),
                     "--src", str(prep / "syn.test.src"),
                     "--src-vocab", str(prep / "syn.vocab.src"),
                     "--trg-vocab", str(prep / "syn.vocab.trg"),
                     "--beam", beam, "--out", str(tmp_path / "beam.hyp")])
        assert not (tmp_path / "beam.hyp").exists()

    def test_gold_context_translation(self, pipeline, capsys):
        root, _, prep, models, _ = pipeline
        run_ok(["translate", "--ckpt", str(models / "st.s1"),
                "--src", str(prep / "syn.test.src"),
                "--gold-context", str(prep / "syn.test.trg"),
                "--src-vocab", str(prep / "syn.vocab.src"),
                "--trg-vocab", str(prep / "syn.vocab.trg"),
                "--out", str(root / "st.hyp")])
        assert (root / "st.hyp").exists()
        docs = C.load_blocks(prep / "syn.test.src")
        context = sum(len(d) - 1 for d in docs)
        assert (f"0 cached, {context} teacher-forced, 0 recomputed"
                in capsys.readouterr().out)

    def test_gold_context_sentence_count_mismatch_rejected(self, pipeline,
                                                           tmp_path):
        root, _, prep, models, _ = pipeline
        blocks = C.load_blocks(prep / "syn.test.trg")
        short = tmp_path / "short.trg"
        short.write_text("\n".join(
            "".join(" ".join(s) + "\n" for s in block)
            for block in [blocks[0]] + [blocks[1][:-1]] + blocks[2:]))
        with pytest.raises(ValueError, match=(
                rf"document 1 has {len(blocks[1]) - 1} sentences, "
                rf"the source has {len(blocks[1])}")):
            cli.run(["translate", "--ckpt", str(models / "st.s1"),
                     "--src", str(prep / "syn.test.src"),
                     "--gold-context", str(short),
                     "--src-vocab", str(prep / "syn.vocab.src"),
                     "--trg-vocab", str(prep / "syn.vocab.trg"),
                     "--out", str(tmp_path / "st.hyp")])


class TestHypothesisFiles:
    """Hypothesis files are read along the reference: one line per
    sentence, an empty hypothesis is an empty line."""

    REFS = [[["a", "b", "c", "d"], ["e", "f", "g", "h"], ["a", "c", "e"]],
            [["b", "d", "f", "h"], ["c", "d", "e", "f"], ["g", "h", "a"]],
            [["h", "g", "f", "e"], ["d", "c", "b", "a"]]]

    @pytest.fixture
    def files(self, tmp_path):
        ref = tmp_path / "ref.trg"
        C.save_blocks(self.REFS, ref)
        # empty hypotheses at the start, middle and end of a document
        hyps = [[[], *self.REFS[0][1:]],
                [self.REFS[1][0], [], self.REFS[1][2]],
                [self.REFS[2][0], []]]
        hyp = tmp_path / "empty.hyp"
        C.save_blocks(hyps, hyp)
        return ref, hyp, hyps

    def test_empty_hypotheses_are_scored(self, files, capsys):
        ref, hyp, hyps = files
        run_ok(["evaluate", "--hyp", str(hyp), "--ref", str(ref)])
        want = E.bleu([s for d in hyps for s in d],
                      [s for d in self.REFS for s in d])
        assert 0 < want.bleu < 100
        assert capsys.readouterr().out == want.pretty() + "\n"
        run_ok(["compare", str(hyp), str(hyp), str(ref), "--n", "20"])
        assert "p = 1.0000" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_empty_reference_names_file(self, tmp_path, command):
        ref, hyp = tmp_path / "empty.ref", tmp_path / "empty.hyp"
        ref.write_text("")
        hyp.write_text("")
        argv = {"evaluate": ["evaluate", "--hyp", str(hyp), "--ref", str(ref)],
                "compare": ["compare", str(hyp), str(hyp), str(ref)]}
        with pytest.raises(ValueError,
                           match=rf"{ref.name}: no reference sentences"):
            cli.run(argv[command])

    @pytest.mark.parametrize("edit,document", [
        ("missing separator", 0), ("extra line at the end", 2),
        ("extra line in a document", 1), ("missing last line", 2)])
    def test_misaligned_file_names_file_and_document(self, files, edit,
                                                     document):
        ref, hyp, _ = files
        lines = hyp.read_text().split("\n")[:-1]  # 3 + 1 + 3 + 1 + 2 lines
        if edit == "missing separator":
            del lines[3]
        elif edit == "extra line at the end":
            lines.append("x")
        elif edit == "extra line in a document":
            lines.insert(5, "x")
        else:
            del lines[-1]
        hyp.write_text("".join(line + "\n" for line in lines))
        match = rf"{hyp.name}: .*document {document}\b"
        with pytest.raises(ValueError, match=match):
            cli.run(["evaluate", "--hyp", str(hyp), "--ref", str(ref)])
        with pytest.raises(ValueError, match=match):
            cli.run(["compare", str(ref), str(hyp), str(ref)])


class TestReportsAgainstOracle:
    """`evaluate --out` and `compare --out` over more than one block of
    sentence pairs hold the records the `Counter` oracle's statistics give."""

    def test_records_match_oracle_statistics(self, tmp_path):
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(12)]
        n_docs = E.STATS_BLOCK // 5 + 10
        refs = [[rng.choice(words, size=rng.integers(1, 9)).tolist()
                 for _ in range(5)] for _ in range(n_docs)]

        def system(keep, empty):
            # each token kept with probability `keep`; some sentences empty
            return [[[] if rng.random() < empty else
                     [t if rng.random() < keep else str(rng.choice(words))
                      for t in sent] for sent in doc] for doc in refs]
        hyp_a, hyp_b = system(0.6, 0.1), system(0.61, 0.1)
        paths = {}
        for name, blocks in (("ref", refs), ("a", hyp_a), ("b", hyp_b)):
            paths[name] = str(tmp_path / f"{name}.txt")
            C.save_blocks(blocks, paths[name])
        flat = {name: [s for doc in blocks for s in doc] for name, blocks in
                (("ref", refs), ("a", hyp_a), ("b", hyp_b))}
        assert len(flat["ref"]) > E.STATS_BLOCK
        assert [] in flat["a"] and [] in flat["b"]

        def oracle_bleu(hyps):
            totals = sum(sentence_stats(h, r)
                         for h, r in zip(hyps, flat["ref"]))
            return totals, E._bleu_from_totals(totals)

        totals, (score, precisions, bp) = oracle_bleu(flat["a"])
        want = E.EvalReport(score, precisions, bp, int(totals[8]),
                            int(totals[9])).records()
        run_ok(["evaluate", "--hyp", paths["a"], "--ref", paths["ref"],
                "--out", str(tmp_path / "a.eval")])
        assert (tmp_path / "a.eval").read_text() == want

        p, mean_delta, wins_b, ties = bootstrap_reference(
            flat["a"], flat["b"], flat["ref"], 50, 3)
        want = E.SignificanceResult(
            p, 50, mean_delta, wins_b, ties, oracle_bleu(flat["a"])[1][0],
            oracle_bleu(flat["b"])[1][0])
        run_ok(["compare", paths["a"], paths["b"], paths["ref"], "--n", "50",
                "--seed", "3", "--out", str(tmp_path / "ab.compare")])
        assert (tmp_path / "ab.compare").read_text() == \
            f"bleu_a={want.bleu_a:.2f}\nbleu_b={want.bleu_b:.2f}\n" \
            + want.records()


class TestParams:
    def test_identities_in_table(self, capsys):
        run_ok(["params", "--emb-dim", "16", "--hidden-dim", "16",
                "--src-vocab-size", "100", "--trg-vocab-size", "120"])
        lines = capsys.readouterr().out.strip().splitlines()
        counts = {}
        for line in lines[2:]:
            name, total, delta = line.split()
            counts[name] = int(total)
        assert counts["shared-source"] == counts["shared-target"] \
            == counts["shared-mix"]
        assert counts["shared-source"] - counts["baseline"] == 16 * 16
        assert counts["separated-source"] > counts["shared-source"]

    def test_config_file_overrides_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "desk.cfg"
        cfg.write_text("emb_dim = 8\nhidden_dim = 8\n")
        run_ok(["params", "--config", str(cfg),
                "--src-vocab-size", "10", "--trg-vocab-size", "10"])
        assert "E=8 H=8" in capsys.readouterr().out

    def test_config_file_rejects_unknown_keys(self, tmp_path):
        # a key of another command (merges) is fine: one file serves all
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("# sizes\nmerges = 10\nhiden_dim = 8\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{cfg}, line 3: unknown key 'hiden_dim'")):
            cli.run(["params", "--config", str(cfg)])
        cfg.write_text("emb_dim = 8\nhidden_dim 8\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{cfg}, line 2: no '=' in 'hidden_dim 8'")):
            cli.run(["params", "--config", str(cfg)])
        cfg.write_text("emb_dim = 8\n\nepochs = 1.5\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{cfg}, line 3: epochs needs int, got '1.5'")):
            cli.run(["params", "--config", str(cfg)])

    def test_shipped_configs_resolve(self):
        configs = Path(__file__).resolve().parents[1] / "configs"
        # desk.cfg's header says it matches the built-in defaults
        desk = cli.resolve_profile(configs / "desk.cfg")
        assert desk == cli.DESK_PROFILE
        assert all(type(desk[k]) is type(v)
                   for k, v in cli.DESK_PROFILE.items())
        full = cli.resolve_profile(configs / "full-scale.cfg")
        assert full.keys() == cli.DESK_PROFILE.keys()
        assert all(type(full[k]) is type(v)
                   for k, v in cli.DESK_PROFILE.items())
        assert (full["emb_dim"], full["hidden_dim"], full["merges"]) == \
            (512, 512, 32000)

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError, match=r"emb_dim must be >= 1, got -4"):
            cli.run(["params", "--emb-dim", "-4", "--hidden-dim", "-2"])


class TestFlagSurface:
    """Each command takes only the flags it reads."""

    @pytest.mark.parametrize("argv,flag", [
        (["translate", "--ckpt", "m", "--src", "s", "--src-vocab", "v",
          "--trg-vocab", "v", "--out", "o", "--seed", "1"], "--seed"),
        (["evaluate", "--hyp", "h", "--ref", "r", "--config", "f"],
         "--config"),
        (["synth", "--mode", "trg-informative", "--docs", "5",
          "--config", "f"], "--config")])
    def test_unread_flag_is_a_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as info:
            cli.run(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_seed_list_must_be_integers(self, capsys):
        argv = ["train-baseline", "--seed", "1,x", "--out", "m"]
        for name in ("train-src", "train-trg", "dev-src", "dev-trg",
                     "src-vocab", "trg-vocab"):
            argv += [f"--{name}", "f"]
        with pytest.raises(SystemExit) as info:
            cli.run(argv)
        assert info.value.code == 2
        assert "argument --seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command,value", [
        ("synth", "-1"), ("train-baseline", "2,-1"), ("finetune", "-3"),
        ("compare", "-2")])
    def test_negative_seed_is_a_usage_error(self, capsys, tmp_path, command,
                                            value):
        # numpy would refuse it later with "expected non-negative integer"
        argv = {"synth": ["synth", "--mode", "trg-informative", "--docs", "2",
                          "--out-dir", str(tmp_path / "data")],
                "compare": ["compare", "a", "b", "c"]}.get(command)
        if argv is None:
            argv = [command, "--out", str(tmp_path / "m")]
            for name in ("train-src", "train-trg", "dev-src", "dev-trg",
                         "src-vocab", "trg-vocab"):
                argv += [f"--{name}", "f"]
            if command == "finetune":
                argv += ["--variant", "shared-target", "--baseline", "b"]
        with pytest.raises(SystemExit) as info:
            cli.run(argv + ["--seed", value])
        assert info.value.code == 2
        negative = value.split(",")[-1]
        assert f"argument --seed: seed must be >= 0, got {negative}" in \
            capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_repeated_seed_is_a_usage_error(self, capsys, tmp_path):
        # the second run of seed 3 would overwrite m.s3.* and the summary
        # would have no mean; argparse refuses it before anything is written
        argv = ["train-baseline", "--seed", "3,1,3", "--out",
                str(tmp_path / "m")]
        for name in ("train-src", "train-trg", "dev-src", "dev-trg",
                     "src-vocab", "trg-vocab"):
            argv += [f"--{name}", str(tmp_path / name)]
        with pytest.raises(SystemExit) as info:
            cli.run(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: seed 3 is repeated in '3,1,3'" in err
        assert list(tmp_path.iterdir()) == []


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as info:
            cli.run(["synth", "--docs", "5"])  # --mode missing
        assert info.value.code == 2

    def test_runtime_failure_is_1(self, monkeypatch):
        monkeypatch.setattr(sys, "argv",
                            ["docnmt", "evaluate", "--hyp", "nope.hyp",
                             "--ref", "nope.ref"])
        with pytest.raises(SystemExit) as info:
            cli.main()
        assert info.value.code == 1
