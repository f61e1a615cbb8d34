"""Medical term dictionary: cleaning, loading, and projection onto tokens.

The dictionary maps cleaned terms to coarse semantic-type categories and
replaces a full concept-mapping service: projecting its entries onto
tokenized sentences yields BIO-labeled training data for the taggers.
Terms split into words by ``textfeat.split_words``, as ``tokenize`` does,
so a term matches the tokens of its own text.
"""

from __future__ import annotations

import logging
import re
from array import array
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Optional, Sequence

from .artifacts import atomic_open, read_lines
from .textfeat import PhraseIndex, load_stopwords, split_words

log = logging.getLogger("vidtriage")

B_MED = "B-MED"
I_MED = "I-MED"
O = "O"
LABELS = (B_MED, I_MED, O)
# A label's id is its index in LABELS.
_LABEL_IDS = {lab: i for i, lab in enumerate(LABELS)}
_I_ID, _O_ID = _LABEL_IDS[I_MED], _LABEL_IDS[O]

MIN_WORD_LEN = 4  # cleaning keeps words of length strictly greater than 3


class DictionaryFormatError(ValueError):
    """Malformed dictionary row; message carries the line number."""


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


def load_dictionary(
    path,
    allowed_types: Optional[Iterable[str]] = None,
    stopwords: Optional[frozenset[str]] = None,
) -> TermDictionary:
    """Load a term dictionary from a TSV of ``term<TAB>semantic-type code``.

    Rows with codes outside :data:`SEMANTIC_TYPES` are skipped with a
    logged warning; rows whose code is valid but not in ``allowed_types`` (codes,
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
            log.warning("%s:%d: unknown semantic-type code %r, row skipped",
                        path, lineno, code)
            continue
        if code not in allowed:
            continue
        for word in clean_terms([term], stopwords):
            entries.setdefault(word, set()).add(code)
        phrase_words = split_words(term)
        if len(phrase_words) >= 2:
            entries.setdefault(" ".join(phrase_words), set()).add(code)
    return TermDictionary(entries={k: frozenset(v) for k, v in entries.items()})


def project_labels(dictionary: TermDictionary, tokens: Sequence[str],
                   lengths: Sequence[int]) -> list[str]:
    """BIO label names of dictionary mentions, in token order, for
    sentences of ``lengths`` tokens end to end in ``tokens``; sizes that
    do not add up raise ValueError.

    Every key, word or phrase, is matched longest-first, left-to-right,
    and non-overlapping within a sentence, so the candidate "colon
    cancer" beats the shorter "colon" at the same position, and no
    mention spans a sentence end. Tokens match in lowercase. They are
    non-empty and hold no whitespace, as ``textfeat.tokenize`` makes
    them. Pass every sentence of a stage in one call: the matcher is
    built once per call.
    """
    if sum(lengths) != len(tokens):
        raise ValueError(f"{len(tokens)} tokens but lengths add up to "
                         f"{sum(lengths)}")
    # One pass, and no token copied when all are lowercase (as tokenized).
    joined = "\n".join(tokens)
    lowered = joined.lower()
    if lowered != joined:
        tokens = lowered.split("\n")
    labels = [O] * len(tokens)
    for i, width in PhraseIndex(dictionary.entries).matches(tokens, lengths):
        labels[i] = B_MED
        if width > 1:
            labels[i + 1:i + width] = [I_MED] * (width - 1)
    return labels


def write_conll(path, tokens: Sequence[str], labels: Sequence[str],
                lengths: Sequence[int],
                video_ids: Optional[Sequence[str]] = None) -> None:
    """Write sentences of ``lengths`` tokens, end to end in ``tokens`` and
    ``labels``, as token<TAB>tag lines with a blank line after each;
    sizes that do not add up raise ValueError.

    When ``video_ids`` is given (one per sentence), a ``# video_id = ...``
    comment precedes each sentence so training can split at video level.
    """
    if not len(tokens) == len(labels) == sum(lengths) or (
            video_ids is not None and len(video_ids) != len(lengths)):
        raise ValueError("tokens, labels, lengths or video ids differ")
    lines = map("\t".join, zip(tokens, labels))
    with atomic_open(path) as fh:
        for lo in range(0, len(lengths), 512):  # sentences per write()
            chunk = []
            for k in range(lo, min(lo + 512, len(lengths))):
                if video_ids is not None:
                    chunk.append(f"# video_id = {video_ids[k]}")
                chunk += [*islice(lines, lengths[k]), ""]
            fh.write("\n".join(chunk) + "\n")


def read_conll(path) -> tuple[list[str], array, list[int],
                              list[Optional[str]]]:
    """Read a CoNLL-style file back as ``write_conll`` takes it: tokens,
    label ids (int8 indexes into LABELS), sentence lengths and each
    sentence's video id.

    Sentences written without video comments come back with ``None`` ids.
    A malformed row, or one whose label is unknown or may not follow the
    row before, raises DictionaryFormatError naming the file and the row's
    line.
    """
    tokens: list[str] = []
    labels = array("b")
    lengths: list[int] = []
    video_ids: list[Optional[str]] = []
    n = 0  # rows of the open sentence
    current_vid: Optional[str] = None
    for lineno, line in enumerate(read_lines(path) + [""], start=1):
        if line.startswith("#"):
            m = re.match(r"#\s*video_id\s*=\s*(\S+)", line)
            if m:
                current_vid = m.group(1)
            continue
        if line.strip() and line.count("\t") == 1:
            token, name = line.split("\t")
            label = _LABEL_IDS.get(name)
            if label is None:
                raise DictionaryFormatError(
                    f"{path}:{lineno}: unknown label {name!r}")
            if label == _I_ID and (not n or labels[-1] == _O_ID):
                raise DictionaryFormatError(
                    f"{path}:{lineno}: I-MED may not follow O or start a "
                    f"sentence")
            tokens.append(token)
            labels.append(label)
            n += 1
            continue
        # A blank line or a bad row ends the open sentence.
        if n:
            lengths.append(n)
            video_ids.append(current_vid)
            n = 0
        if line.strip():
            raise DictionaryFormatError(
                f"{path}:{lineno}: expected 'token<TAB>tag', got {line!r}"
            )
    return tokens, labels, lengths, video_ids
