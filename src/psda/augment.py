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

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .corpus import SentenceRecord
from .domino import ClusterModel
from .embeddings import VocabStore
from .errors import DimensionMismatchError, MissingChainError
from .util import derive_seed

SKIP_MISSING_CHAIN = "missing-chain"
SKIP_EMPTY_POOL = "empty-pool"


class Candidate(NamedTuple):
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


class CandidatePool:
    """The entries of one pool as runs of store rows, one run per language
    in sorted order: entry i is the i-th row over the runs, so entries
    come in sorted-language, vocabulary order.  A ``Candidate`` is made
    only for an entry that is read."""

    def __init__(self, runs: list[tuple[str, list[str], np.ndarray, list[int]]]):
        # (language, its store's words and matrix in row order, this pool's rows)
        self.runs = runs
        self._starts = list(accumulate((len(rows) for *_, rows in runs), initial=0))

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, i: int) -> Candidate:
        if not 0 <= i < self._starts[-1]:
            raise IndexError(f"pool entry {i} out of range for {len(self)} entries")
        r = bisect_right(self._starts, i) - 1
        lang, words, matrix, rows = self.runs[r]
        row = rows[i - self._starts[r]]
        return Candidate(lang, words[row], matrix[row])


@dataclass
class CandidateIndex:
    """Every clustered word grouped by its top-level cluster id.

    Pools hold (lang, word, raw embedding) entries in sorted-language,
    vocabulary order, so draws are identical across runs and processes.
    Each (cluster, excluded language) pool is the cluster's pool without
    that language's run, made once, on first use, and shared by every
    later draw from it.
    """

    by_multi_cluster: dict[int, CandidatePool] = field(default_factory=dict)
    _eligible: dict[tuple[int, str], CandidatePool] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def eligible(self, multi_cluster: int, exclude_lang: str) -> CandidatePool:
        """Pool for one cluster, restricted to other languages.

        The returned pool is shared; callers must not modify it.
        """
        key = (multi_cluster, exclude_lang)
        pool = self._eligible.get(key)
        if pool is None:
            everyone = self.by_multi_cluster.get(multi_cluster, CandidatePool([]))
            runs = [run for run in everyone.runs if run[0] != exclude_lang]
            pool = self._eligible[key] = CandidatePool(runs)
        return pool


def build_candidate_index(
    model: ClusterModel, stores: dict[str, VocabStore]
) -> CandidateIndex:
    """Group every store word by its multi-level cluster id.

    Each entry is a row of its store's matrix, the word's raw d-dim
    vector.  A store word without a chain entry means the model was built
    from a different vocabulary, which is an error rather than a skip.
    """
    runs: dict[int, list] = {}
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
            runs.setdefault(int(q), []).append((lang, words, store.matrix(), rows))
    return CandidateIndex({q: CandidatePool(runs[q]) for q in runs})


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
