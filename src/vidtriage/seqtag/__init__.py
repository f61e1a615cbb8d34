"""Sequence taggers for medical-term extraction.

Two from-scratch models over the same BIO-labeled corpus: a bidirectional
LSTM with trained word embeddings and per-token softmax output, and a
linear-chain CRF baseline with hand-built feature templates and exact
dynamic-programming inference. Both train deterministically from a seed.
"""

from .config import TrainConfig
from .vocab import UNK_ID, PAD_ID, build_vocab
from .metrics import TagMetrics, evaluate_tagger, evaluate_tagger_spans, repair_bio
from .crf import (
    CrfParams,
    crf_log_partition,
    crf_sequence_score,
    crf_viterbi,
    crf_loss_grad,
    train_crf,
    tag_with_crf,
)
from .blstm import (
    BlstmParams,
    init_blstm,
    blstm_loss_grad,
    train_blstm,
    tag_with_blstm,
)
from ._trainutil import TrainingDivergedError
from .model_io import (
    ARCH_BLSTM,
    ARCH_CRF,
    ModelFormatError,
    load_model,
    save_model,
    tag_sentences,
)
