"""Cross-lingual replacement of subject, verb and object embeddings.

A role token's row in the sentence matrix is overwritten with the raw
word vector of a different-language word that landed in the same
top-level (multi-language) cluster, drawn uniformly from that pool.
Roles outside the cluster model or with an empty pool are left in place
and recorded with a reason, so callers can audit exactly what changed.

Replacement happens in embedding space: the candidate's raw d-dim
vector goes into the matrix, never the POS-augmented vector, which
exists only for clustering.
"""

from dataclasses import dataclass, field

import numpy as np

from .corpus import SentenceRecord
from .domino import ClusterModel
from .embeddings import VocabStore
from .errors import DimensionMismatchError, MissingChainError
from .util import derive_seed

SKIP_MISSING_CHAIN = "missing-chain"
SKIP_EMPTY_POOL = "empty-pool"


@dataclass(frozen=True)
class Candidate:
    """One pool entry: a clustered word and its raw store vector."""

    lang: str
    word: str
    embedding: np.ndarray


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


@dataclass
class CandidateIndex:
    """Every clustered word grouped by its top-level cluster id.

    Pools hold (lang, word, raw embedding) entries in sorted-language,
    vocabulary order, so draws are identical across runs and processes.
    Each (cluster, excluded language) pool is filtered once, on first
    use, and shared by every later draw from it.
    """

    by_multi_cluster: dict[int, list[Candidate]] = field(default_factory=dict)
    _eligible: dict[tuple[int, str], list[Candidate]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def eligible(self, multi_cluster: int, exclude_lang: str) -> list[Candidate]:
        """Pool for one cluster, restricted to other languages.

        The returned list is shared; callers must not modify it.
        """
        key = (multi_cluster, exclude_lang)
        pool = self._eligible.get(key)
        if pool is None:
            everyone = self.by_multi_cluster.get(multi_cluster, [])
            pool = self._eligible[key] = [c for c in everyone if c.lang != exclude_lang]
        return pool


def build_candidate_index(
    model: ClusterModel, stores: dict[str, VocabStore]
) -> CandidateIndex:
    """Group every store word by its multi-level cluster id.

    Each entry carries the word's raw d-dim vector from its store.  A
    store word without a chain entry means the model was built from a
    different vocabulary, which is an error rather than a skip.
    """
    index = CandidateIndex()
    for lang in sorted(stores):
        store = stores[lang]
        for word in store.words:
            if not model.has_word(lang, word):
                raise MissingChainError(
                    f"word {word!r} of language {lang!r} has no cluster chain"
                )
            _, _, q = model.chain_of(lang, word)
            index.by_multi_cluster.setdefault(q, []).append(
                Candidate(lang, word, np.asarray(store[word], dtype=np.float64))
            )
    return index


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
    index: CandidateIndex,
    seed: int,
) -> AugmentedSentence:
    """Produce one augmented copy of a sentence matrix.

    Subject, verb and object are visited in that order; each present
    role draws uniformly from its different-language pool with an RNG
    seeded by ``seed``.  Skipped roles consume no draw, so a rare word
    in one role cannot shift the replacements of the others.  Rows
    outside the replaced positions are copied bit-exactly.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != len(rec.tokens):
        raise DimensionMismatchError(
            f"matrix with {mat.shape[0] if mat.ndim == 2 else '?'} rows does not "
            f"pair with {len(rec.tokens)} tokens"
        )
    rng = np.random.default_rng(seed)
    augmented = mat.copy()
    replacements = []
    skipped = []
    for role, pos in rec.roles():
        word = rec.tokens[pos]
        if not model.has_word(rec.lang, word):
            skipped.append(SkippedRole(pos, role, word, SKIP_MISSING_CHAIN))
            continue
        _, _, q = model.chain_of(rec.lang, word)
        pool = index.eligible(q, rec.lang)
        if not pool:
            skipped.append(SkippedRole(pos, role, word, SKIP_EMPTY_POOL))
            continue
        chosen = pool[int(rng.integers(len(pool)))]
        if chosen.embedding.shape != (mat.shape[1],):
            raise DimensionMismatchError(
                f"candidate {chosen.word!r} has dim {chosen.embedding.shape[0]}, "
                f"matrix has {mat.shape[1]}"
            )
        augmented[pos] = chosen.embedding
        replacements.append(
            Replacement(
                position=pos,
                role=role,
                source_word=word,
                candidate_lang=chosen.lang,
                candidate_word=chosen.word,
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
