"""The three benchmark workloads: inputs, CLI sequences and output checks.

A workload writes its seeded inputs once per set-up, then runs whole
rounds of the same `docnmt.cli.run` sequence.  Every subcommand and every
check is one operation.  The checks compare against computations made
here (slot accuracy, pair counts, BLEU-4) or against properties the method
must have; none compares against a stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import shutil
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import docnmt.cli
from docnmt import bpe as B
from docnmt import corpus as C
from docnmt import evaluation as E
from docnmt import tensor as T
from docnmt.model import ModelConfig, TranslationModel, load_checkpoint
from docnmt.training import init_from_baseline

perf = time.perf_counter


class Harness:
    """Runs operations, counts them and times the CLI ones by phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []     # operations that failed
        self.problems: list[str] = []   # checks that found wrong output
        self.phase_s: defaultdict[str, float] = defaultdict(float)

    def cli(self, phase: str, *argv) -> str:
        """Run one docnmt subcommand in this process; returns its stdout."""
        self.attempted += 1
        out = io.StringIO()
        start = perf()
        try:
            with contextlib.redirect_stdout(out):
                code = docnmt.cli.run([str(a) for a in argv])
        except (Exception, SystemExit) as exc:
            code = f"{type(exc).__name__}: {exc}"
        self.phase_s[phase] += perf() - start
        if code != 0:
            self.failed += 1
            self.errors.append(f"docnmt {argv[0]} failed: {code}")
        return out.getvalue()

    def check(self, name: str, fn) -> None:
        """`fn` returns (ok, detail); a check that raises counts as failed."""
        self.attempted += 1
        try:
            ok, detail = fn()
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"check {name} raised "
                                 f"{type(exc).__name__}: {exc}")
            return
        if not ok:
            self.problems.append(f"check {name}: {detail}")


# ---------------------------------------------------------------------------
# reference computations, made apart from docnmt


def read_blocks(path) -> list[list[list[str]]]:
    """Documents as lists of token lists; blank lines separate documents."""
    docs, cur = [], []
    for line in Path(path).read_text(encoding="utf-8").split("\n"):
        if line.strip():
            cur.append(line.split())
        elif cur:
            docs.append(cur)
            cur = []
    if cur:
        docs.append(cur)
    return docs


def write_blocks(path, docs) -> None:
    Path(path).write_text("\n".join("".join(" ".join(s) + "\n" for s in d)
                                    for d in docs), encoding="utf-8")


def ref_bleu(hyps, refs) -> float:
    """Corpus BLEU-4: clipped n-gram precisions, brevity penalty, no smoothing."""
    match, total = [0] * 4, [0] * 4
    hyp_len = ref_len = 0
    for h, r in zip(hyps, refs):
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, 5):
            hc = Counter(tuple(h[i:i + n]) for i in range(len(h) - n + 1))
            rc = Counter(tuple(r[i:i + n]) for i in range(len(r) - n + 1))
            match[n - 1] += sum(min(c, rc[g]) for g, c in hc.items())
            total[n - 1] += max(len(h) - n + 1, 0)
    if hyp_len == 0 or 0 in match:
        return 0.0
    log_p = sum(math.log(m / t) for m, t in zip(match, total)) / 4
    bp = 1.0 if hyp_len > ref_len else math.exp(1 - ref_len / hyp_len)
    return 100 * bp * math.exp(log_p)


def most_frequent_pair(sentences) -> tuple[str, str]:
    """The first BPE merge: most frequent adjacent symbol pair over word
    types (end-of-word marker included), ties to the smallest pair."""
    words = Counter(w for s in sentences for w in s)
    pairs: Counter = Counter()
    for w, f in words.items():
        symbols = list(w) + ["</w>"]
        for p in zip(symbols, symbols[1:]):
            pairs[p] += f
    best = max(pairs.values())
    return min(p for p, c in pairs.items() if c == best)


def slot_accuracy(hyp_docs, ref_docs) -> float:
    """trg-informative slots: every non-first sentence must carry the
    synonym that the reference's first sentence opens with."""
    correct = total = 0
    for hyp, ref in zip(hyp_docs, ref_docs):
        choice = ref[0][0]
        for sent in hyp[1:]:
            total += 1
            got = next((t for t in sent if t in ("syna", "synb")), None)
            correct += got == choice
    return correct / total


def same_shape(hyp_path, src_path) -> tuple[bool, str]:
    """Each source document has one hypothesis line per sentence, and the
    documents are separated by one blank line.  The hypothesis file is read
    along the source's structure, because an empty hypothesis is written as
    a blank line too."""
    lines = Path(hyp_path).read_text(encoding="utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    at = 0
    for i, doc in enumerate(read_blocks(src_path)):
        if i:
            if at >= len(lines) or lines[at] != "":
                return False, f"{hyp_path}: no break before document {i}"
            at += 1
        at += len(doc)
    return at == len(lines), f"{hyp_path}: {len(lines)} lines, expected {at}"


def parse_float(pattern: str, text: str) -> float:
    m = re.search(pattern, text)
    if m is None:
        raise ValueError(f"{pattern!r} not in output {text!r}")
    return float(m.group(1))


def warm_up(emb: int, hidden: int, vocab: int, seed: int) -> None:
    """One forward, backward and decode step at the workload's dimensions,
    so BLAS threads and allocator pools exist before timing starts."""
    cfg = ModelConfig("shared-target", emb, hidden, vocab, vocab)
    model = TranslationModel(cfg, rng=T.make_rng(seed, 9))
    rng = np.random.default_rng(seed)
    words = [[f"t{k}" for k in rng.integers(0, vocab - 4, 8)] for _ in range(2)]
    vocab_obj = B.Vocabulary([f"t{k}" for k in range(vocab - 4)])
    docs = [C.Document(f"w{i}", [(s, s) for s in words]) for i in range(8)]
    batch = C.build_batch(docs, vocab_obj, vocab_obj)
    loss, enc, dec, _ = model.forward_loss(batch.positions[0],
                                           model.context_states())
    T.backward(loss)
    with T.no_grad():
        model.decode_step(batch.positions[1].trg_in[:, 0],
                          model.init_carry(enc), enc, model.context_states())


def greedy_hyps(model, docs, src_vocab, trg_vocab, **kwargs):
    hyps, _ = E.translate_corpus(model, docs, src_vocab, trg_vocab, **kwargs)
    return hyps


def source_docs(path) -> list[C.Document]:
    return [C.Document(f"d{i:05d}", [(s, []) for s in block])
            for i, block in enumerate(read_blocks(path))]


def target_tokens(trg_path) -> int:
    """Target tokens of a training file, one EOS per sentence included."""
    return sum(len(s) + 1 for d in read_blocks(trg_path) for s in d)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool):
        """`tiny` asks for small inputs, for the benchmark's own test."""
        self.seed = seed

    def prepare(self, inputs: Path) -> None:
        """Write the seeded inputs and warm up (part of set-up time)."""

    def run_round(self, h: Harness, inputs: Path, rd: Path) -> dict:
        """One CLI sequence plus its output checks; returns work counts."""
        raise NotImplementedError

    def library_checks(self, h: Harness, inputs: Path, rd: Path) -> None:
        """Checks through the library on the last round's outputs."""


class DeskTrg(Workload):
    """The paper's experiment at desk size on the trg-informative task."""

    name = "desk-trg"
    # The slot checks need this much training on every seed.  With 700
    # documents and 3+3 epochs, 2 seeds in 11 (207388624, 1974117618) still
    # fine-tune a shared-target whose dev BLEU reads 0 on every epoch, so
    # its first epoch is selected and it ignores the context; with 1000
    # documents 22 seeds in 22 pass, at dev BLEU 60-85.  So `tiny` changes
    # nothing here.
    train_docs, dev_docs, test_docs = 1000, 100, 400
    epochs_base = epochs_ft = 3
    beam_docs = 40

    def prepare(self, inputs):
        warm_up(32, 32, 40, self.seed)

    def run_round(self, h, inputs, rd):
        data, prep, models, hyp = (rd / d for d in ("data", "prep", "models",
                                                    "hyp"))
        for k, (name, docs) in enumerate((("train", self.train_docs),
                                          ("dev", self.dev_docs),
                                          ("test", self.test_docs))):
            h.cli("synth", "synth", "--mode", "trg-informative", "--docs", docs,
                  "--seed", 3 * self.seed + k, "--out-dir", data, "--name", name)
        h.cli("preprocess", "preprocess",
              *(f"--{s}-{side}={data}/{s}.{side}" for s in ("train", "dev", "test")
                for side in ("src", "trg")),
              "--out-dir", prep, "--name", "syn")
        common = [f"--{s}-{side}={prep}/syn.{s}.{side}" for s in ("train", "dev")
                  for side in ("src", "trg")]
        common += [f"--src-vocab={prep}/syn.vocab.src",
                   f"--trg-vocab={prep}/syn.vocab.trg", "--seed", self.seed]
        h.cli("train", "train-baseline", *common, "--out", models / "base",
              "--epochs", self.epochs_base)
        for short, variant in (("st", "shared-target"),
                               ("sep", "separated-target")):
            h.cli("train", "finetune", *common, "--variant", variant,
                  "--baseline", models / "base", "--out", models / short,
                  "--epochs", self.epochs_ft)
        vocabs = [f"--src-vocab={prep}/syn.vocab.src",
                  f"--trg-vocab={prep}/syn.vocab.trg"]
        test_src = prep / "syn.test.src"
        hyp.mkdir()
        write_blocks(prep / "beam.src", read_blocks(test_src)[:self.beam_docs])
        outputs = []
        for m in ("base", "st", "sep"):
            h.cli("greedy", "translate", "--ckpt", models / m, "--src", test_src,
                  *vocabs, "--out", hyp / f"{m}.greedy")
            h.cli("gold", "translate", "--ckpt", models / m, "--src", test_src,
                  "--gold-context", prep / "syn.test.trg", *vocabs,
                  "--out", hyp / f"{m}.gold")
            outputs += [(hyp / f"{m}.greedy", test_src),
                        (hyp / f"{m}.gold", test_src)]
        h.cli("beam", "translate", "--ckpt", models / "st", "--src",
              prep / "beam.src", *vocabs, "--beam", 5, "--out", hyp / "st.beam")
        outputs.append((hyp / "st.beam", prep / "beam.src"))
        for m in ("base", "st"):
            h.cli("score", "evaluate", "--hyp", hyp / f"{m}.gold",
                  "--ref", data / "test.trg", "--meta", data / "test.meta")
        h.cli("score", "compare", hyp / "base.gold", hyp / "st.gold",
              data / "test.trg", "--seed", self.seed)

        refs = read_blocks(data / "test.trg")
        h.check("shared-target gold slot accuracy >= 0.90", lambda: (
            (acc := slot_accuracy(read_blocks(hyp / "st.gold"), refs)) >= 0.90,
            f"{acc:.3f}"))
        h.check("baseline gold slot accuracy <= 0.60", lambda: (
            (acc := slot_accuracy(read_blocks(hyp / "base.gold"), refs)) <= 0.60,
            f"{acc:.3f}"))
        for out, src in outputs:
            h.check(f"{out.name} sentence counts", lambda: same_shape(out, src))

        test_sents = sum(len(d) for d in read_blocks(test_src))
        return {"train_tokens": target_tokens(prep / "syn.train.trg")
                * (self.epochs_base + 2 * self.epochs_ft),
                "greedy_sents": 3 * test_sents, "gold_sents": 3 * test_sents,
                "beam_sents": sum(len(d) for d in read_blocks(prep / "beam.src"))}

    def library_checks(self, h, inputs, rd):
        prep, models = rd / "prep", rd / "models"
        src_v = B.Vocabulary.load(prep / "syn.vocab.src")
        trg_v = B.Vocabulary.load(prep / "syn.vocab.trg")
        base = load_checkpoint(str(models / "base"))
        docs = C.load_documents(prep / "syn.test.src", prep / "syn.test.trg")
        for gold in (False, True):
            want = greedy_hyps(base, docs, src_v, trg_v, gold_context=gold)
            for variant in ("shared-target", "separated-target"):
                fresh = init_from_baseline(base, variant,
                                           T.make_rng(self.seed, 3))
                h.check(f"fresh {variant} decodes like the baseline "
                        f"(gold context {gold})", lambda: (
                            greedy_hyps(fresh, docs, src_v, trg_v,
                                        gold_context=gold) == want,
                            "hypotheses differ"))


class MidSrc(Workload):
    """Mid profile: matmuls and an 8k-wide output layer dominate."""

    name = "mid-src"
    epochs_base = epochs_ft = 1

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.dims, self.fillers = (64, 100) if tiny else (256, 4000)
        self.train_docs, self.dev_docs, self.test_docs = \
            (128, 8, 8) if tiny else (256, 32, 32)
        # Decoding lengths depend on the trained model, so decoding is
        # kept to a small share of the round: on 64 test documents and 8
        # beam documents its time ranged over 11% of the round across seeds.
        self.beam_docs = 2

    def _docs(self, rng, n):
        """src-informative documents of three sentences: marker, pronoun,
        marker.  Fillers follow a Zipf law; target fillers take the
        document's register, so the target side has 2 x fillers types.
        Every document has the same length so that the work of a round
        varies little with the seed."""
        weights = 1.0 / np.arange(1, self.fillers + 1)
        weights /= weights.sum()
        src_docs, trg_docs = [], []
        for _ in range(n):
            choice = int(rng.integers(2))
            reg = "wv"[choice]
            src_doc, trg_doc = [], []
            for i in range(3):
                fill = rng.choice(self.fillers, size=int(rng.integers(3, 9)),
                                  p=weights)
                head = ("mrka", "mrkb")[choice] if i % 2 == 0 else "pro"
                src_doc.append([head] + [f"w{k}" for k in fill] + ["."])
                trg_doc.append([("syna", "synb")[choice]]
                               + [f"{reg}{k}" for k in fill] + ["."])
            src_docs.append(src_doc)
            trg_docs.append(trg_doc)
        return src_docs, trg_docs

    def prepare(self, inputs):
        rng = np.random.default_rng([self.seed, 2])
        for name, n in (("train", self.train_docs), ("dev", self.dev_docs),
                        ("test", self.test_docs)):
            src, trg = self._docs(rng, n)
            write_blocks(inputs / f"{name}.src", src)
            write_blocks(inputs / f"{name}.trg", trg)
            if name == "test":
                write_blocks(inputs / "beam.src", src[:self.beam_docs])
        ks = range(self.fillers)
        (inputs / "vocab.src").write_text("".join(
            f"{t}\n" for t in ["mrka", "mrkb", "pro", "."]
            + [f"w{k}" for k in ks]), encoding="utf-8")
        (inputs / "vocab.trg").write_text("".join(
            f"{t}\n" for t in ["syna", "synb", "."]
            + [f"{r}{k}" for k in ks for r in "wv"]), encoding="utf-8")
        warm_up(self.dims, self.dims, 2 * self.fillers, self.seed)

    def run_round(self, h, inputs, rd):
        common = [f"--{s}-{side}={inputs}/{s}.{side}" for s in ("train", "dev")
                  for side in ("src", "trg")]
        vocabs = [f"--src-vocab={inputs}/vocab.src",
                  f"--trg-vocab={inputs}/vocab.trg"]
        common += vocabs + ["--seed", self.seed, "--lr", 0.01,
                            "--batch-docs", 32]
        h.cli("train", "train-baseline", *common, "--out", rd / "base",
              "--emb-dim", self.dims, "--hidden-dim", self.dims,
              "--epochs", self.epochs_base)
        for short, variant in (("ss", "shared-source"),
                               ("sep", "separated-source")):
            h.cli("train", "finetune", *common, "--variant", variant,
                  "--baseline", rd / "base", "--out", rd / short,
                  "--epochs", self.epochs_ft)
        for m in ("base", "ss", "sep"):
            h.cli("greedy", "translate", "--ckpt", rd / m,
                  "--src", inputs / "test.src", *vocabs,
                  "--out", rd / f"{m}.greedy")
        h.cli("beam", "translate", "--ckpt", rd / "ss",
              "--src", inputs / "beam.src", *vocabs, "--beam", 5,
              "--out", rd / "ss.beam")
        log_v = math.log(len(B.Vocabulary.load(inputs / "vocab.trg")))
        for m in ("base", "ss", "sep"):
            def losses_ok(m=m):
                losses = [float(line.split("\t")[1]) for line in
                          (rd / f"{m}.trainlog").read_text().splitlines()]
                ok = all(math.isfinite(x) and x < log_v for x in losses)
                return ok, f"epoch losses {losses} against log|V| {log_v:.2f}"
            h.check(f"{m} epoch losses finite and below log|V_trg|", losses_ok)
        test_sents = sum(len(d) for d in read_blocks(inputs / "test.src"))
        return {"train_tokens": target_tokens(inputs / "train.trg")
                * (self.epochs_base + 2 * self.epochs_ft),
                "greedy_sents": 3 * test_sents,
                "beam_sents": sum(len(d) for d in
                                  read_blocks(inputs / "beam.src"))}

    def library_checks(self, h, inputs, rd):
        src_v = B.Vocabulary.load(inputs / "vocab.src")
        trg_v = B.Vocabulary.load(inputs / "vocab.trg")
        docs = source_docs(inputs / "test.src")
        ss = load_checkpoint(str(rd / "ss"))
        h.check("greedy output does not depend on batch_docs", lambda: (
            greedy_hyps(ss, docs, src_v, trg_v, batch_docs=64)
            == greedy_hyps(ss, docs, src_v, trg_v, batch_docs=1),
            "batch_docs 64 and 1 disagree"))
        base = load_checkpoint(str(rd / "base"))
        want = greedy_hyps(base, docs, src_v, trg_v)
        for variant in ("shared-source", "separated-source"):
            fresh = init_from_baseline(base, variant, T.make_rng(self.seed, 3))
            h.check(f"zero context block: fresh {variant} decodes like the "
                    f"baseline", lambda: (
                        greedy_hyps(fresh, docs, src_v, trg_v) == want,
                        "hypotheses differ"))


class ManyTypes(Workload):
    """No model: BPE learning on many Zipfian word types, then scoring."""

    name = "many-types"

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.lexicon, self.train_sents, self.test_sents = \
            (3000, 2000, 500) if tiny else (25000, 15000, 10000)
        self.merges = 5 if tiny else 30
        self.resamples = 100 if tiny else 1000

    def _lexicon(self, rng):
        """`self.lexicon` distinct random lower-case words of 3-10 letters."""
        words: dict[str, None] = {}
        while len(words) < self.lexicon:
            lengths = rng.integers(3, 11, size=self.lexicon)
            letters = rng.integers(97, 123, size=int(lengths.sum()),
                                   dtype=np.uint8).tobytes().decode("ascii")
            ends = np.cumsum(lengths)
            for start, end in zip(ends - lengths, ends):
                words[letters[start:end]] = None
        return list(words)[:self.lexicon]

    def _sentences(self, rng, lexicon, weights, n):
        lengths = rng.integers(5, 16, size=n)
        flat = rng.choice(len(lexicon), size=int(lengths.sum()), p=weights)
        out, at = [], 0
        for length in lengths:
            out.append([lexicon[k] for k in flat[at:at + length]])
            at += length
        return out

    def prepare(self, inputs):
        rng = np.random.default_rng([self.seed, 3])
        weights = 1.0 / np.arange(1, self.lexicon + 1)
        weights /= weights.sum()
        src_lex, trg_lex = self._lexicon(rng), self._lexicon(rng)
        docs = lambda sents: [sents[i:i + 5] for i in range(0, len(sents), 5)]
        for side, lex in (("src", src_lex), ("trg", trg_lex)):
            write_blocks(inputs / f"train.{side}", docs(self._sentences(
                rng, lex, weights, self.train_sents)))
        refs = self._sentences(rng, trg_lex, weights, self.test_sents)
        write_blocks(inputs / "refs.trg", docs(refs))
        flat = [t for sent in refs for t in sent]
        for name, rate in (("sys1", 0.1), ("sys2", 0.3)):
            swap = rng.random(len(flat)) < rate
            fresh = rng.choice(len(trg_lex), size=len(flat), p=weights)
            tokens = iter([trg_lex[f] if s else t
                           for t, s, f in zip(flat, swap, fresh)])
            noisy = [[next(tokens) for _ in sent] for sent in refs]
            write_blocks(inputs / f"{name}.trg", docs(noisy))

    def run_round(self, h, inputs, rd):
        h.cli("preprocess", "preprocess", "--train-src", inputs / "train.src",
              "--train-trg", inputs / "train.trg", "--merges", self.merges,
              "--out-dir", rd, "--name", "many")
        refs = inputs / "refs.trg"
        printed = {s: h.cli("score", "evaluate", "--hyp", inputs / f"{s}.trg",
                            "--ref", refs) for s in ("sys1", "sys2")}
        pairs = {"sys1 vs itself": ("sys1", "sys1"),
                 "sys2 vs refs": ("sys2", None)}
        p_printed = {k: h.cli("score", "compare", inputs / f"{a}.trg",
                              inputs / f"{b}.trg" if b else refs, refs,
                              "--n", self.resamples, "--seed", self.seed)
                     for k, (a, b) in pairs.items()}

        for side in ("src", "trg"):
            raw = [s for d in read_blocks(inputs / f"train.{side}") for s in d]
            codes = (rd / f"many.codes.{side}").read_text().splitlines()
            seg = (rd / f"many.train.{side}").read_text().split("\n")
            seg = [line.split() for line in seg if line.strip()]
            h.check(f"{side}: segmented text round-trips", lambda: (
                [" ".join(s).replace("@@ ", "").split() for s in seg] == raw,
                "de-segmented training text differs from the input"))
            h.check(f"{side}: {self.merges} merges learned", lambda: (
                len(codes) == self.merges, f"{len(codes)} merges"))
            h.check(f"{side}: first merge is the most frequent pair", lambda: (
                tuple(codes[0].split(" ")) == (want := most_frequent_pair(raw)),
                f"{codes[0]!r} vs {want}"))
        ref_sents = [s for d in read_blocks(refs) for s in d]
        for s, text in printed.items():
            def bleu_ok(s=s, text=text):
                got = parse_float(r"BLEU = ([0-9.]+)", text)
                want = ref_bleu([x for d in read_blocks(inputs / f"{s}.trg")
                                 for x in d], ref_sents)
                return abs(got - want) <= 0.01, f"printed {got}, expected {want:.4f}"
            h.check(f"{s}: printed BLEU matches BLEU-4", bleu_ok)
        p_value = lambda k: parse_float(r"p = ([0-9.]+)", p_printed[k])
        h.check("p = 1.0 against itself", lambda: (
            (p := p_value("sys1 vs itself")) == 1.0, f"p = {p}"))
        h.check("p < 0.01 for the references against sys2", lambda: (
            (p := p_value("sys2 vs refs")) < 0.01, f"p = {p}"))
        return {}


WORKLOADS = {w.name: w for w in (DeskTrg, MidSrc, ManyTypes)}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
