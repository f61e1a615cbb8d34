"""Versioned JSON persistence for trained taggers.

One schema covers both architectures, inside the format marker and
version of :mod:`vidtriage.artifacts`: the training config, free-form
training metadata, the model-specific symbol table (feature index or
word vocabulary), and every weight block as a shape plus the base64 of
its float64 bytes, which load bit for bit and far faster than float
literals. On load every block must be base64 of the right byte count,
finite, and of the shape that the config and the symbol table imply,
and every symbol must be a distinct string.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..artifacts import (
    ModelFormatError, decode_array, encode_array, load_json_model,
    save_json_model,
)
from ._trainutil import N_LABELS
from .blstm import BlstmParams, PARAM_NAMES, tag_with_blstm
from .config import ARCH_BLSTM, ARCH_CRF, TrainConfig
from .crf import CrfParams, tag_with_crf
from .vocab import Vocab

FORMAT_NAME = "vidtriage-tagger"


@dataclass
class LoadedModel:
    arch: str
    params: Union[CrfParams, BlstmParams]
    config: TrainConfig
    vocab: Optional[Vocab]
    train_meta: dict


def save_model(
    path,
    params: Union[CrfParams, BlstmParams],
    config: TrainConfig,
    vocab: Optional[Vocab] = None,
    train_meta: Optional[dict] = None,
) -> None:
    """Write a tagger to disk; the params type sets the file's arch, and
    blstm models must include their vocab."""
    body = {"config": asdict(config), "train_meta": train_meta or {}}
    if isinstance(params, CrfParams):
        body["arch"] = ARCH_CRF
        index = params.feature_index
        body["feature_index"] = sorted(index, key=index.__getitem__)
        names = ("w_emit", "w_trans", "w_start")
    else:
        body["arch"] = ARCH_BLSTM
        body["vocab"] = list(vocab.id_to_word)
        names = PARAM_NAMES
    body["arrays"] = {name: encode_array(arr)
                      for name, arr in zip(names, params.arrays())}
    save_json_model(path, FORMAT_NAME, body)


def _weights(arrays: dict, shapes: dict) -> list[np.ndarray]:
    """Each named block of ``arrays``, checked against its expected shape."""
    return [decode_array(arrays[name], name, shape)
            for name, shape in shapes.items()]


def _symbols(names: list, key: str) -> list[str]:
    """``names`` if every entry is a string that occurs once; otherwise a
    ModelFormatError naming ``key`` and the first bad entry."""
    seen = set()
    for name in names:
        if not isinstance(name, str):
            raise ModelFormatError(f"{key}: entry {name!r} is not a string")
        if name in seen:
            raise ModelFormatError(f"{key}: entry {name!r} repeats")
        seen.add(name)
    return names


def _build(doc: dict) -> LoadedModel:
    config = TrainConfig(**doc["config"])
    train_meta = doc.get("train_meta") or {}
    arch = doc["arch"]
    if arch == ARCH_CRF:
        features = _symbols(doc["feature_index"], "feature_index")
        n = N_LABELS
        w_emit, w_trans, w_start = _weights(doc["arrays"], {
            "w_emit": (len(features), n), "w_trans": (n, n), "w_start": (n,),
        })
        params = CrfParams({f: i for i, f in enumerate(features)},
                           w_emit, w_trans, w_start)
        return LoadedModel(ARCH_CRF, params, config, None, train_meta)
    if arch == ARCH_BLSTM:
        vocab = Vocab(id_to_word=tuple(_symbols(doc["vocab"], "vocab")))
        d, h = config.d_emb, config.d_hid
        params = BlstmParams(*_weights(doc["arrays"], {
            "embed": (vocab.size, d),
            "w_fwd": (4 * h, d + h), "b_fwd": (4 * h,),
            "w_bwd": (4 * h, d + h), "b_bwd": (4 * h,),
            "w_out": (N_LABELS, 2 * h), "b_out": (N_LABELS,),
        }))
        return LoadedModel(ARCH_BLSTM, params, config, vocab, train_meta)
    raise ModelFormatError(f"unknown arch {arch!r}")


def load_model(path) -> LoadedModel:
    """Read a model file back, validating marker, version, and shapes."""
    return load_json_model(path, FORMAT_NAME, _build)


def tag_sentences(
    model: LoadedModel, sentences: Sequence[Sequence[str]]
) -> list[list[str]]:
    """Tag token sequences with whichever architecture the model holds."""
    if model.arch == ARCH_CRF:
        return tag_with_crf(model.params, sentences)
    if model.arch == ARCH_BLSTM:
        return tag_with_blstm(model.params, model.vocab, sentences)
    raise ValueError(f"unknown arch {model.arch!r}")
