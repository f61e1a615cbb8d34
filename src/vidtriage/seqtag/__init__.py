"""Sequence taggers for medical-term extraction.

Two from-scratch models over the same BIO-labeled corpus: a bidirectional
LSTM with trained word embeddings and per-token softmax output, and a
linear-chain CRF baseline with hand-built feature templates and exact
dynamic-programming inference. Both train deterministically from a seed.

Each pipeline stage is its own process, so importing this package loads
only its numpy-free modules; a tagger or model-file name loads its own.
"""

import importlib

from ..artifacts import ModelFormatError
from .config import ARCH_BLSTM, ARCH_CRF, TrainConfig, TrainingDivergedError
from .metrics import TagMetrics, evaluate_tagger, evaluate_tagger_spans
from .vocab import UNK_ID, PAD_ID, build_vocab

# Each name the numpy submodules export, by the submodule defining it.
_LAZY = {
    **dict.fromkeys(("CrfParams", "crf_log_partition", "crf_sequence_score",
                     "crf_viterbi", "crf_loss_grad", "train_crf",
                     "tag_with_crf"), "crf"),
    **dict.fromkeys(("BlstmParams", "init_blstm", "blstm_loss_grad",
                     "train_blstm", "tag_with_blstm"), "blstm"),
    **dict.fromkeys(("load_model", "save_model", "tag_sentences"),
                    "model_io"),
    **dict.fromkeys(("label_names", "span_forms", "term_counts"),
                    "_trainutil"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
