"""
Training the CRF and BLSTM sequence taggers
===========================================

Builds a small BIO corpus by dictionary projection, trains both tagger
architectures from scratch, and compares token-level metrics on a held
out slice. Everything is seeded, so reruns print identical numbers.
"""

import numpy as np

from vidtriage.data_files import data_path
from vidtriage.medterm import LABELS, load_dictionary, project_labels
from vidtriage.seqtag import (
    TrainConfig,
    evaluate_tagger,
    label_names,
    tag_with_blstm,
    tag_with_crf,
    train_blstm,
    train_crf,
)

# A projected corpus: random sentences mixing dictionary terms with
# filler words, labeled by longest-match projection. Sentences lie end to
# end, as flat tokens, one label id per token and each sentence's length.
dictionary = load_dictionary(data_path("medical_terms.tsv"))
terms = ["colonoscopy", "polyp", "sedation", "biopsy", "colon", "cancer"]
filler = ["the", "doctor", "explains", "gently", "before", "visit",
          "water", "rest", "today", "clinic"]
rng = np.random.default_rng(42)
sentences = []
for _ in range(120):
    n = int(rng.integers(4, 9))
    sent = []
    for _ in range(n):
        pool = terms if rng.random() < 0.35 else filler
        sent.append(pool[int(rng.integers(len(pool)))])
    sentences.append(sent)
tokens = [t for s in sentences for t in s]
lengths = [len(s) for s in sentences]
labels = np.array([LABELS.index(lab)
                   for lab in project_labels(dictionary, tokens, lengths)])
cut = sum(lengths[:100])
train = tokens[:cut], labels[:cut], lengths[:100]
test = tokens[cut:], labels[cut:], lengths[100:]
print("train sentences:", len(train[2]), "test sentences:", len(test[2]))

config = TrainConfig(seed=42, epochs=15, batch_size=8)

# The CRF trains on hand-crafted token features with exact inference.
crf_params, crf_history = train_crf(*train, config)
print(f"crf: {len(crf_history)} epochs, "
      f"final loss {crf_history[-1]['train_loss']:.4f}")

# The BLSTM learns embeddings and recurrent gates by plain SGD.
blstm_params, vocab, blstm_history = train_blstm(*train, config)
print(f"blstm: {len(blstm_history)} epochs, "
      f"final loss {blstm_history[-1]['train_loss']:.4f}")

# Token-level precision/recall/F over the B-MED and I-MED labels; the
# taggers give one label id per token.
test_tokens, gold, test_lengths = test
for name, predicted in (
    ("crf", tag_with_crf(crf_params, test_tokens, test_lengths)),
    ("blstm", tag_with_blstm(blstm_params, vocab, test_tokens, test_lengths)),
):
    m = evaluate_tagger(predicted, gold)
    print(f"{name}: P={m.precision:.3f} R={m.recall:.3f} F={m.f_measure:.3f}")

# Both taggers generalize to sentences they never saw, including words
# outside the training vocabulary.
unseen = ["the", "nurse", "schedules", "a", "colonoscopy", "and",
          "a", "biopsy"]
print("crf tags:", label_names(tag_with_crf(crf_params, unseen,
                                           [len(unseen)])))
print("blstm tags:", label_names(tag_with_blstm(blstm_params, vocab, unseen,
                                                [len(unseen)])))
