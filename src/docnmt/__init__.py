"""docnmt: a desk-scale document-context neural machine translation toolkit.

Everything runs on a small numpy-backed autodiff engine: an attentional
two-layer LSTM encoder-decoder, five mechanisms for conditioning on the
previous sentence of a document, BPE preprocessing, document-wise
training, BLEU, and paired bootstrap significance testing.
"""

from .bpe import BpeModel, Vocabulary, apply_bpe, build_vocab, learn_bpe
from .corpus import (Document, SynthConfig, filter_documents,
                     generate_synthetic, load_documents, make_batches,
                     save_documents)
from .evaluation import (bleu, bootstrap_significance, score_slots,
                         translate_corpus)
from .model import (ModelConfig, TranslationModel, VARIANTS, load_checkpoint,
                    param_count, save_checkpoint)
from .training import (TrainConfig, TrainLog, init_from_baseline,
                       train_model)

__version__ = "0.1.0"

__all__ = [
    "BpeModel", "Vocabulary", "apply_bpe", "build_vocab", "learn_bpe",
    "Document", "SynthConfig", "filter_documents", "generate_synthetic",
    "load_documents", "make_batches", "save_documents",
    "bleu", "bootstrap_significance", "score_slots", "translate_corpus",
    "ModelConfig", "TranslationModel", "VARIANTS", "load_checkpoint",
    "param_count", "save_checkpoint",
    "TrainConfig", "TrainLog", "init_from_baseline", "train_model",
    "__version__",
]
