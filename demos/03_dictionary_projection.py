"""
Medical term dictionary and BIO label projection
================================================

Loads the shipped term dictionary, filters it by semantic type, cleans
raw terms, and projects dictionary mentions onto tokenized sentences as
BIO labels ready for tagger training.
"""

import tempfile
from pathlib import Path

import numpy as np

from vidtriage.data_files import data_path
from vidtriage.medterm import (
    LABELS,
    SEMANTIC_TYPES,
    clean_terms,
    load_dictionary,
    project_labels,
    write_conll,
)
from vidtriage.seqtag import span_forms, term_counts
from vidtriage.textfeat import load_stopwords, tokenize

# The dictionary is a two-column TSV: term, semantic-type code. Each
# cleaned word is a key, and so is each whole multi-word term.
dictionary = load_dictionary(data_path("medical_terms.tsv"))
print("entries:", len(dictionary.entries), "of which phrases:",
      sum(" " in key for key in dictionary.entries))

# Semantic-type codes gate which rows load; restricting to procedures
# and diagnostics shrinks the dictionary.
procedures = ("diap", "topp")
print("allowed:", [SEMANTIC_TYPES[code] for code in procedures])
narrow = load_dictionary(data_path("medical_terms.tsv"),
                         allowed_types=procedures)
print("procedure/diagnostic entries only:", len(narrow.entries))

# Cleaning: split terms into words by the rule the tokenizer uses
# (an apostrophe inside a word stays), lowercase, drop stopwords and
# short words.
stopwords = load_stopwords(data_path("stopwords.txt"))
raw = ["Colon Cancer", "the scope", "gas", "BOWEL PREPARATION!",
       "Crohn's disease"]
print("cleaned:", sorted(clean_terms(raw, stopwords)))

# Projection marks dictionary mentions in token sequences with BIO
# labels. Every key, word or phrase, takes part, and the longest match
# wins, so "colon cancer" is one entity. One call takes every sentence
# end to end, as one token list and each sentence's length, and gives
# one label per token; no mention spans a sentence end.
text = ("The doctor explains colon cancer screening. "
        "A colonoscopy finds any polyp early.")
tok = tokenize(text)
tokens = list(tok.tokens)
lengths = [end - start for start, end in tok.sentences]
labels = project_labels(dictionary, tokens, lengths)
for start, end in tok.sentences:
    print(list(zip(tokens[start:end], labels[start:end])))

# The tag stage holds a call's sentences the same way, with each
# sentence's video id and one label id per token.
video_ids = ["demo"] * len(lengths)
label_ids = np.array([LABELS.index(lab) for lab in labels])

# The distinct span surface forms per video drive a classifier
# feature; span_forms recovers each span's sentence and form from the
# label ids of all sentences, and term_counts counts the forms per
# video, as the tag stage does with tagger output.
spans = [[] for _ in lengths]
for sentence, form in span_forms(tokens, lengths, label_ids):
    spans[sentence].append(form)
print("spans:", spans)
print("unique term count:",
      term_counts(tokens, lengths, label_ids, video_ids)["demo"])

# The same arrays serialize to CoNLL for the training commands.
with tempfile.TemporaryDirectory(prefix="vidtriage-demo-") as tmp:
    out = Path(tmp) / "corpus.conll"
    write_conll(out, tokens, labels, lengths, video_ids=video_ids)
    print(out.read_text().splitlines()[:6])
