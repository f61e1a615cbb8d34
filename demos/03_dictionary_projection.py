"""
Medical term dictionary and BIO label projection
================================================

Loads the shipped term dictionary, filters it by semantic type, cleans
raw terms, and projects dictionary mentions onto tokenized sentences as
BIO labels ready for tagger training.
"""

import tempfile
from pathlib import Path

from vidtriage.data_files import data_path
from vidtriage.medterm import (
    SEMANTIC_TYPES,
    clean_terms,
    load_dictionary,
    project_labels,
    unique_medical_terms,
    write_conll,
)
from vidtriage.textfeat import load_stopwords, tokenize

# The dictionary is a two-column TSV: term, semantic-type code.
dictionary = load_dictionary(data_path("medical_terms.tsv"))
print("entries:", len(dictionary.entries),
      "(single words:", len(dictionary.word_keys),
      "+ phrases:", len(dictionary.phrase_keys), ")")

# Semantic-type codes gate which rows load; restricting to procedures
# and diagnostics shrinks the dictionary.
procedures = ("diap", "topp")
print("allowed:", [SEMANTIC_TYPES[code] for code in procedures])
narrow = load_dictionary(data_path("medical_terms.tsv"),
                         allowed_types=procedures)
print("procedure/diagnostic entries only:", len(narrow.entries))

# Cleaning: split phrases, lowercase, drop stopwords and short words.
stopwords = load_stopwords(data_path("stopwords.txt"))
raw = ["Colon Cancer", "the scope", "gas", "BOWEL PREPARATION!"]
print("cleaned:", sorted(clean_terms(raw, stopwords)))

# Projection marks dictionary mentions in token sequences with BIO
# labels; the longest match wins, so "colon cancer" is one entity.
text = ("The doctor explains colon cancer screening. "
        "A colonoscopy finds any polyp early.")
sentences = tokenize(text).sentence_tokens()
tagged = project_labels(dictionary, sentences)
for sent in tagged:
    print(list(zip(sent.tokens, sent.labels)))

# The distinct span surface forms per document drive a classifier
# feature; spans() recovers them from the BIO labels.
print("spans:", [sent.spans() for sent in tagged])
print("unique term count:", unique_medical_terms(tagged))

# The tagged corpus serializes to CoNLL for the training commands.
with tempfile.TemporaryDirectory(prefix="vidtriage-demo-") as tmp:
    out = Path(tmp) / "corpus.conll"
    write_conll(tagged, out)
    print(out.read_text().splitlines()[:6])
