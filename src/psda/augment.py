"""Cross-lingual replacement of subject, verb and object embeddings.

A role token's row in the sentence matrix is overwritten with the raw
word vector of a different-language word that landed in the same
top-level (multi-language) cluster, drawn uniformly from that
cluster's runs of store rows, one run per other language.  Roles
outside the cluster model or with an empty pool are left in place and
recorded with a reason, so callers can audit exactly what changed.

Replacement happens in embedding space: the candidate's raw d-dim
vector goes into the matrix, never the POS-augmented vector, which
exists only for clustering.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import SentenceRecord
from .domino import ClusterModel
from .embeddings import VocabStore
from .errors import DimensionMismatchError, MissingChainError
from .util import derive_seed

SKIP_MISSING_CHAIN = "missing-chain"
SKIP_EMPTY_POOL = "empty-pool"


@dataclass(frozen=True)
class Replacement:
    position: int
    role: str
    source_word: str
    candidate_lang: str
    candidate_word: str
    multi_cluster: int


@dataclass(frozen=True)
class SkippedRole:
    position: int
    role: str
    word: str
    reason: str


def build_candidate_index(
    model: ClusterModel, stores: dict[str, VocabStore]
) -> dict[int, list[tuple[str, list[str], np.ndarray, list[int]]]]:
    """Group every store word by its multi-level cluster id.

    Returns ``{q: runs}``: one run ``(lang, words, store, rows)`` per
    language with words in cluster q, in sorted-language order, where
    ``words`` is that language's store words in row order and ``rows``
    the cluster's rows in vocabulary order.  The store gives a word's raw
    d-dim vector, and no row is read here.  A store word without a chain
    entry means the model was built from a different vocabulary, which is
    an error rather than a skip.
    """
    index: dict[int, list] = {}
    for lang in sorted(stores):
        store = stores[lang]
        words = store.words
        chain = model.chain.get(lang, {})
        try:
            clusters = np.array([chain[word][2] for word in words], dtype=np.int64)
        except KeyError as exc:
            raise MissingChainError(
                f"word {exc.args[0]!r} of language {lang!r} has no cluster chain"
            ) from None
        for q in np.flatnonzero(np.bincount(clusters)):
            rows = np.flatnonzero(clusters == q).tolist()
            index.setdefault(int(q), []).append((lang, words, store, rows))
    return index


def _draw(runs, exclude_lang: str, rng: np.random.Generator):
    """Draw one entry uniformly from the runs of every language but
    ``exclude_lang``: entry i is the i-th row over those runs, in order.
    Returns ``(lang, word, store)`` without reading the drawn row, or
    None without a draw when no row is left."""
    runs = [run for run in runs if run[0] != exclude_lang]
    total = sum(len(rows) for *_, rows in runs)
    if total == 0:
        return None
    i = int(rng.integers(total))
    for lang, words, store, rows in runs:
        if i < len(rows):
            return lang, words[rows[i]], store
        i -= len(rows)


@dataclass
class AugmentedSentence:
    """One augmented copy of a sentence matrix.

    ``original`` is the untouched input; ``augmented`` differs from it
    exactly at the recorded replacement positions.
    """

    source_lang: str
    tokens: tuple[str, ...]
    original: np.ndarray
    augmented: np.ndarray
    replacements: tuple[Replacement, ...]
    skipped: tuple[SkippedRole, ...]

    @property
    def changed(self) -> bool:
        return bool(self.replacements)


def augment_sentence(
    rec: SentenceRecord,
    mat: np.ndarray,
    model: ClusterModel,
    index: dict[int, list],
    seed: int,
) -> AugmentedSentence:
    """Produce one augmented copy of a sentence matrix.

    Subject, verb and object are visited in that order; each present
    role draws uniformly, with an RNG seeded by ``seed``, from the other
    languages' runs in its word's cluster of ``build_candidate_index``'s
    result.  Skipped roles consume no draw, so a rare word in one role
    cannot shift the replacements of the others.  Every role draws before
    any drawn row is read, and the drawn rows are read in one batch per
    store.  Rows outside the replaced positions are copied bit-exactly.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != len(rec.tokens):
        raise DimensionMismatchError(
            f"matrix with {mat.shape[0] if mat.ndim == 2 else '?'} rows does not "
            f"pair with {len(rec.tokens)} tokens"
        )
    rng = np.random.default_rng(seed)
    drawn = []
    skipped = []
    chain = model.chain.get(rec.lang, {})
    for role, pos in rec.roles():
        word = rec.tokens[pos]
        if word not in chain:
            skipped.append(SkippedRole(pos, role, word, SKIP_MISSING_CHAIN))
            continue
        q = chain[word][2]
        chosen = _draw(index.get(q, ()), rec.lang, rng)
        if chosen is None:
            skipped.append(SkippedRole(pos, role, word, SKIP_EMPTY_POOL))
            continue
        drawn.append((role, pos, word, q, *chosen))
    # the draws do not depend on vector values, so the drawn rows are
    # read after them, in one batch per store
    batches = {}
    for *_, candidate, store in drawn:
        batches.setdefault(store, []).append(candidate)
    for store, words in batches.items():
        store.parse(words)
    augmented = mat.copy()
    replacements = []
    for role, pos, word, q, lang, candidate, store in drawn:
        embedding = store[candidate]
        if embedding.shape != (mat.shape[1],):
            raise DimensionMismatchError(
                f"candidate {candidate!r} has dim {embedding.shape[0]}, "
                f"matrix has {mat.shape[1]}"
            )
        augmented[pos] = embedding
        replacements.append(
            Replacement(
                position=pos,
                role=role,
                source_word=word,
                candidate_lang=lang,
                candidate_word=candidate,
                multi_cluster=q,
            )
        )
    return AugmentedSentence(
        source_lang=rec.lang,
        tokens=rec.tokens,
        original=mat,
        augmented=augmented,
        replacements=tuple(replacements),
        skipped=tuple(skipped),
    )


def sentence_seed(base_seed: int, rec: SentenceRecord, copy: int) -> int:
    """Per-sentence, per-copy seed: base seed mixed with a stable hash
    of the sentence content.  Order-independent across the corpus."""
    return derive_seed(base_seed, rec.lang, rec.tokens, copy)
