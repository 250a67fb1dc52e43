"""CoNLL-U corpus ingestion and sentence matrix assembly.

Sentences arrive pre-tagged and pre-parsed in standard CoNLL-U (10
tab-separated columns, blank-line sentence separators, ``#`` comments).
Subject/verb/object positions are extracted from the dependency columns:

* subject: first token with deprel ``nsubj``
* verb: the ``root`` token when its UPOS is VERB, else the first VERB
  token not already claimed by another role
* object: first token with deprel ``obj``

A role is simply absent when nothing matches.  Multiword-token ranges
(IDs like ``1-2``) are skipped; any other non-integer ID is an error.

A ``# lang = xx`` comment inside a sentence block overrides the default
language for that sentence, which lets one file carry a multilingual
corpus.
"""

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import DimensionMismatchError, OovWordError, ParseError
from .embeddings import VocabStore

CONLLU_COLUMNS = 10
_ID, _FORM, _LEMMA, _UPOS, _XPOS, _FEATS, _HEAD, _DEPREL, _DEPS, _MISC = range(CONLLU_COLUMNS)


@dataclass(frozen=True)
class SentenceRecord:
    """Token sequence with language tag and optional SVO positions."""

    lang: str
    tokens: tuple[str, ...]
    subject: Optional[int] = None
    verb: Optional[int] = None
    object: Optional[int] = None

    def __post_init__(self):
        present = [i for i in (self.subject, self.verb, self.object) if i is not None]
        for i in present:
            if not 0 <= i < len(self.tokens):
                raise ValueError(f"SVO index {i} out of range for {len(self.tokens)} tokens")
        if len(set(present)) != len(present):
            raise ValueError("SVO indices must be pairwise distinct")

    @property
    def svo(self) -> tuple[Optional[int], Optional[int], Optional[int]]:
        return (self.subject, self.verb, self.object)

    def roles(self) -> list[tuple[str, int]]:
        """Present roles as (name, token index) pairs, in S, V, O order."""
        out = []
        for name, idx in zip(("subject", "verb", "object"), self.svo):
            if idx is not None:
                out.append((name, idx))
        return out


def _extract_svo(upos: list[str], deprel: list[str]) -> tuple[Optional[int], Optional[int], Optional[int]]:
    subject = next((i for i, rel in enumerate(deprel) if rel == "nsubj"), None)
    obj = next((i for i, rel in enumerate(deprel) if rel == "obj"), None)
    verb = None
    root = next((i for i, rel in enumerate(deprel) if rel == "root"), None)
    if root is not None and upos[root] == "VERB":
        verb = root
    else:
        # the fallback skips tokens already claimed by subject/object so
        # the three indices stay pairwise distinct
        taken = {subject, obj}
        verb = next((i for i, tag in enumerate(upos) if tag == "VERB" and i not in taken), None)
    return subject, verb, obj


def _parse_block(lines: list[tuple[int, str]], path, default_lang: str) -> SentenceRecord:
    tokens: list[str] = []
    upos: list[str] = []
    deprel: list[str] = []
    lang = default_lang
    for lineno, line in lines:
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("lang"):
                _, _, value = body.partition("=")
                if value.strip():
                    lang = value.strip()
            continue
        cols = line.split("\t")
        if len(cols) != CONLLU_COLUMNS:
            raise ParseError(
                f"expected {CONLLU_COLUMNS} tab-separated columns, got {len(cols)}",
                path=path,
                line=lineno,
            )
        token_id = cols[_ID]
        if "-" in token_id:
            continue  # multiword-token range
        try:
            int(token_id)
        except ValueError:
            raise ParseError(f"non-integer token id {token_id!r}", path=path, line=lineno) from None
        tokens.append(cols[_FORM])
        upos.append(cols[_UPOS])
        deprel.append(cols[_DEPREL])
    subject, verb, obj = _extract_svo(upos, deprel)
    return SentenceRecord(
        lang=lang, tokens=tuple(tokens), subject=subject, verb=verb, object=obj
    )


def _iter_blocks(path) -> Iterator[list[tuple[int, str]]]:
    block: list[tuple[int, str]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                if any(not l.startswith("#") for _, l in block):
                    yield block
                block = []
                continue
            block.append((lineno, line))
    if any(not l.startswith("#") for _, l in block):
        yield block


def iter_conllu_lenient(path, default_lang: str = "und") -> Iterator[tuple[Optional[SentenceRecord], Optional[str]]]:
    """Yield (record, None) per sentence, or (None, reason) for blocks that
    fail to parse.  Used by batch tooling that must not die on one bad
    sentence."""
    for block in _iter_blocks(path):
        try:
            yield _parse_block(block, path, default_lang), None
        except ParseError as exc:
            yield None, str(exc)


def collect_upos_tags(path) -> dict[str, str]:
    """Word -> UPOS map harvested from a CoNLL-U file.

    The first tag seen for a surface form wins, which keeps the map
    deterministic for a fixed file.  Unknown tag values are ignored.
    """
    from .embeddings import UPOS_INDEX

    tags: dict[str, str] = {}
    for block in _iter_blocks(path):
        for lineno, line in block:
            if line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != CONLLU_COLUMNS or "-" in cols[_ID]:
                continue
            form, tag = cols[_FORM], cols[_UPOS]
            if form not in tags and tag in UPOS_INDEX:
                tags[form] = tag
    return tags


def assemble_sentence(rec: SentenceRecord, store: VocabStore, oov_policy: str = "zero") -> np.ndarray:
    """Stack per-token vectors into the (|tokens|, d) sentence matrix.

    ``oov_policy`` is ``zero`` (out-of-vocabulary tokens become zero rows)
    or ``error``.
    """
    if rec.lang != store.lang:
        raise ValueError(f"record language {rec.lang!r} does not match store {store.lang!r}")
    if oov_policy not in ("zero", "error"):
        raise ValueError(f"unknown oov policy {oov_policy!r}")
    rows = np.zeros((len(rec.tokens), store.dim))
    for j, token in enumerate(rec.tokens):
        if token in store:
            vec = store[token]
            if vec.shape != (store.dim,):
                raise DimensionMismatchError(
                    f"vector for {token!r} has shape {vec.shape}, expected ({store.dim},)"
                )
            rows[j] = vec
        elif oov_policy == "error":
            raise OovWordError(f"token {token!r} not in {store.lang} vocabulary")
    return rows
