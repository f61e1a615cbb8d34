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
    unique_term_counts,
    write_conll,
)
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
# wins, so "colon cancer" is one entity.
text = ("The doctor explains colon cancer screening. "
        "A colonoscopy finds any polyp early.")
sentences = tokenize(text).sentence_tokens()
tagged = project_labels(dictionary, sentences)
for sent in tagged:
    print(list(zip(sent.tokens, sent.labels)))
labels = [sent.labels for sent in tagged]

# The distinct span surface forms per video drive a classifier
# feature; spans() recovers them from one sentence's BIO labels, and
# unique_term_counts counts them per video straight from parallel
# token and label sequences, as the tag stage does with tagger output.
print("spans:", [sent.spans() for sent in tagged])
video_ids = ["demo"] * len(sentences)
print("unique term count:",
      unique_term_counts(video_ids, sentences, labels)["demo"])

# The same sequences serialize to CoNLL for the training commands.
with tempfile.TemporaryDirectory(prefix="vidtriage-demo-") as tmp:
    out = Path(tmp) / "corpus.conll"
    write_conll(out, sentences, labels, video_ids=video_ids)
    print(out.read_text().splitlines()[:6])
