"""Medical term dictionary: cleaning, loading, and projection onto sentences.

The dictionary maps cleaned terms to coarse semantic-type categories and
replaces a full concept-mapping service: projecting its entries onto
tokenized sentences yields BIO-labeled training data for the taggers.
Terms split into words by ``textfeat.split_words``, as ``tokenize`` does,
so a term matches the tokens of its own text. ``unique_term_counts``
counts each video's distinct span surface forms (``span_forms``).
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .artifacts import atomic_open, read_lines
from .textfeat import PhraseIndex, load_stopwords, split_words

B_MED = "B-MED"
I_MED = "I-MED"
O = "O"
LABELS = (B_MED, I_MED, O)
# The (previous, next) label pairs BIO admits; O stands before a start.
_FOLLOWS = frozenset({(a, b) for a in LABELS for b in LABELS} - {(O, I_MED)})

MIN_WORD_LEN = 4  # cleaning keeps words of length strictly greater than 3


class DictionaryFormatError(ValueError):
    """Malformed dictionary row; message carries the line number."""


class DictionaryWarning(UserWarning):
    """Recoverable dictionary problem, e.g. an unknown semantic-type code."""


# Closed set of semantic-type categories admitted into the dictionary,
# code -> name.
SEMANTIC_TYPES = {
    "topp": "Therapeutic or Preventive Procedure",
    "dsyn": "Disease or Syndrome",
    "pshu": "Pharmacologic Substance",
    "bpoc": "Body Part, Organ, or Organ Component",
    "neop": "Neoplastic Process",
    "orch": "Organic Chemical",
    "diap": "Diagnostic Procedure",
    "hlca": "Health Care Activity",
    "chvf": "Chemical Viewed Functionally",
    "prog": "Professional or Occupational Group",
    "chvs": "Chemical Viewed Structurally",
    "lbpr": "Laboratory Procedure",
    "blor": "Body Location or Region",
    "inpo": "Injury or Poisoning",
    "mobd": "Mental or Behavioral Dysfunction",
    "aapp": "Amino Acid, Peptide, or Protein",
    "hcro": "Health Care Related Organization",
    "bodm": "Biomedical or Dental Material",
    "elii": "Element, Ion, or Isotope",
    "nnon": "Nucleic Acid, Nucleoside, or Nucleotide",
    "hops": "Hazardous or Poisonous Substance",
    "cgab": "Congenital Abnormality",
    "lbtr": "Laboratory or Test Result",
    "bacs": "Biologically Active Substance",
    "drdd": "Drug Delivery Device",
    "acab": "Acquired Abnormality",
    "enzy": "Enzyme",
    "bdsy": "Body System",
    "antb": "Antibiotic",
    "horm": "Hormone",
    "vita": "Vitamin",
    "clnd": "Clinical Drug",
    "chem": "Chemical",
    "medd": "Medical Device",
    "resa": "Research Activity",
    "sosy": "Sign or Symptom",
    "inch": "Inorganic Chemical",
    "patf": "Pathologic Function",
}


def clean_terms(raw_terms: Iterable[str], stopwords: frozenset[str] | set[str]) -> set[str]:
    """Reduce raw terms to a set of cleaned single words.

    Terms split into lowercased words as ``textfeat.split_words`` splits
    text, so "Crohn's" keeps its apostrophe; stopwords are dropped, and
    only words longer than three characters survive.
    """
    out: set[str] = set()
    for raw in raw_terms:
        for word in split_words(raw):
            if len(word) >= MIN_WORD_LEN and word not in stopwords:
                out.add(word)
    return out


@dataclass(frozen=True)
class TermDictionary:
    """Cleaned terms mapped to their semantic-type codes.

    Keys are either single cleaned words or whole multi-word phrases
    (space-joined, lowercase). Phrases are kept intact for projection even
    though cleaning splits terms into words: real entities are often
    multi-word, and projection marks the longest mention.
    """

    entries: dict[str, frozenset[str]] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class TaggedSentence:
    """Token sequence with aligned BIO labels over the single class MED."""

    tokens: tuple[str, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.labels):
            raise ValueError(
                f"{len(self.tokens)} tokens but {len(self.labels)} labels"
            )
        if not _FOLLOWS.issuperset(zip((O,) + self.labels, self.labels)):
            for prev, lab in zip((O,) + self.labels, self.labels):
                if lab not in LABELS:
                    raise ValueError(f"unknown label {lab!r}")
                if (prev, lab) not in _FOLLOWS:
                    raise ValueError("I-MED may not follow O or start a sentence")

    def spans(self) -> list[str]:
        """Surface forms of the sentence's spans, as ``span_forms``."""
        return span_forms(self.tokens, self.labels)


def span_offsets(labels: Sequence[str]) -> list[tuple[int, int]]:
    """``(start, end)`` token offsets of each span, in order.

    A B-MED opens a span and an O closes it; any other label continues
    the open span, so an I-MED with no span open starts none.
    """
    spans = []
    start = None
    for i, lab in enumerate(labels):
        if lab == B_MED:
            if start is not None:
                spans.append((start, i))
            start = i
        elif lab == O and start is not None:
            spans.append((start, i))
            start = None
    if start is not None:
        spans.append((start, len(labels)))
    return spans


def span_forms(tokens: Sequence[str], labels: Sequence[str]) -> list[str]:
    """Each span's tokens joined by single spaces, lowercased."""
    return [" ".join(tokens[a:b]).lower() for a, b in span_offsets(labels)]


def unique_term_counts(video_ids: Sequence[str],
                       sentences: Sequence[Sequence[str]],
                       labels: Sequence[Sequence[str]]) -> dict[str, int]:
    """Each video's number of distinct span surface forms (``span_forms``)."""
    forms: dict[str, set[str]] = {}
    for vid, tokens, labs in zip(video_ids, sentences, labels, strict=True):
        forms.setdefault(vid, set()).update(span_forms(tokens, labs))
    return {vid: len(f) for vid, f in forms.items()}


def load_dictionary(
    path,
    allowed_types: Optional[Iterable[str]] = None,
    stopwords: Optional[frozenset[str]] = None,
) -> TermDictionary:
    """Load a term dictionary from a TSV of ``term<TAB>semantic-type code``.

    Rows with codes outside :data:`SEMANTIC_TYPES` are skipped with a
    warning; rows whose code is valid but not in ``allowed_types`` (codes,
    default all) are silently filtered. An unknown code in
    ``allowed_types`` raises ValueError.
    Each surviving term contributes its cleaned words, and multi-word terms
    additionally contribute the whole phrase.
    """
    if stopwords is None:
        from .data_files import data_path
        stopwords = load_stopwords(data_path("stopwords.txt"))
    allowed = frozenset(SEMANTIC_TYPES if allowed_types is None
                        else allowed_types)
    unknown = sorted(allowed - SEMANTIC_TYPES.keys())
    if unknown:
        raise ValueError(f"unknown semantic-type codes {unknown}")

    entries: dict[str, set[str]] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DictionaryFormatError(
                f"{path}:{lineno}: expected 'term<TAB>code', got {line!r}"
            )
        term, code = parts[0].strip(), parts[1].strip()
        if code not in SEMANTIC_TYPES:
            warnings.warn(
                f"{path}:{lineno}: unknown semantic-type code {code!r}, row skipped",
                DictionaryWarning,
                stacklevel=2,
            )
            continue
        if code not in allowed:
            continue
        for word in clean_terms([term], stopwords):
            entries.setdefault(word, set()).add(code)
        phrase_words = split_words(term)
        if len(phrase_words) >= 2:
            entries.setdefault(" ".join(phrase_words), set()).add(code)
    return TermDictionary(entries={k: frozenset(v) for k, v in entries.items()})


def project_labels(
    dictionary: TermDictionary,
    sentences: Sequence[Sequence[str]],
) -> list[TaggedSentence]:
    """Mark dictionary mentions in tokenized sentences with BIO labels.

    Every key, word or phrase, is matched longest-first, left-to-right,
    and non-overlapping, so the candidate "colon cancer" beats the shorter
    "colon" at the same position. Tokens are non-empty and hold no
    whitespace, as ``textfeat.tokenize`` makes them. Pass every sentence
    of a stage in one call: the matcher is built once per call.
    """
    index = PhraseIndex(dictionary.entries)
    tagged = []
    for sent in sentences:
        tokens = [t.lower() for t in sent]
        labels = [O] * len(tokens)
        for i, width in index.matches(tokens):
            labels[i:i + width] = [B_MED] + [I_MED] * (width - 1)
        tagged.append(TaggedSentence(tokens=tuple(tokens), labels=tuple(labels)))
    return tagged


def write_conll(path, sentences: Sequence[Sequence[str]],
                labels: Sequence[Sequence[str]],
                video_ids: Optional[Sequence[str]] = None) -> None:
    """Write parallel token and label sequences as token<TAB>tag lines,
    with blank lines between sentences; unequal lengths raise ValueError.

    When ``video_ids`` is given (one per sentence), a ``# video_id = ...``
    comment precedes each sentence so training can split at video level.
    """
    ids = [None] * len(sentences) if video_ids is None else video_ids
    with atomic_open(path) as fh:
        for vid, tokens, labs in zip(ids, sentences, labels, strict=True):
            if vid is not None:
                fh.write(f"# video_id = {vid}\n")
            for tok, lab in zip(tokens, labs, strict=True):
                fh.write(f"{tok}\t{lab}\n")
            fh.write("\n")


def read_conll(path) -> tuple[list[TaggedSentence], list[Optional[str]]]:
    """Read a CoNLL-style file back into sentences plus per-sentence video ids.

    Sentences written without video comments come back with ``None`` ids.
    A malformed row, or one whose label is unknown or may not follow the
    row before, raises DictionaryFormatError naming the file and the row's
    line.
    """
    sentences: list[TaggedSentence] = []
    video_ids: list[Optional[str]] = []
    rows, rows_at = [], []  # the open sentence's rows and their lines
    current_vid: Optional[str] = None
    for lineno, line in enumerate(read_lines(path) + [""], start=1):
        if line.startswith("#"):
            m = re.match(r"#\s*video_id\s*=\s*(\S+)", line)
            if m:
                current_vid = m.group(1)
            continue
        if line.strip() and line.count("\t") == 1:
            rows.append(line)
            rows_at.append(lineno)
            continue
        # A blank line or a bad row ends the sentence, whose labels
        # TaggedSentence checks; the first bad label names its line.
        if rows:
            cells = "\t".join(rows).split("\t")
            labels = tuple(cells[1::2])
            try:
                sentences.append(TaggedSentence(tuple(cells[::2]), labels))
            except ValueError as exc:
                bad = [p in _FOLLOWS for p in zip((O,) + labels, labels)].index(False)
                raise DictionaryFormatError(f"{path}:{rows_at[bad]}: {exc}") from None
            video_ids.append(current_vid)
            rows, rows_at = [], []
        if line.strip():
            raise DictionaryFormatError(
                f"{path}:{lineno}: expected 'token<TAB>tag', got {line!r}"
            )
    return sentences, video_ids
