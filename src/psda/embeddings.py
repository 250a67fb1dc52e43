"""Word vectors and POS-augmented final embeddings.

Embeddings arrive as word2vec text files (header ``N d``, then ``word v1
... vd`` per line).  Each word additionally carries a Universal
Dependencies UPOS tag; the tag's one-hot vector is pushed through a frozen
seeded linear projection and concatenated onto the word vector to form the
final embedding used for clustering.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DuplicateWordError,
    NonFiniteInputError,
    ParseError,
)
from .util import require_finite

# The 17 UD UPOS categories in a fixed alphabetical order, so one-hot
# indices are stable across runs.
UPOS_TAGS = (
    "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
    "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
)
UPOS_INDEX = {tag: i for i, tag in enumerate(UPOS_TAGS)}

# Fallback tag for words never seen with a tag.
DEFAULT_TAG = "X"


class VocabStore:
    """Per-language vocabulary, held as one matrix.

    Every vector sits in one read-only (n, dim) float64 matrix, in
    insertion (file) order; ``entries`` maps each word to a read-only
    view of its row.  Building a store from ``entries`` packs their
    vectors into that matrix.
    """

    def __init__(self, lang: str, dim: int, entries: dict[str, np.ndarray] | None = None):
        self.lang = lang
        self.dim = dim
        entries = dict(entries or {})
        if entries:
            vectors = np.stack([np.asarray(v, dtype=np.float64) for v in entries.values()])
        else:
            vectors = np.zeros((0, dim))
        self._hold(list(entries), vectors)

    @classmethod
    def from_matrix(cls, lang: str, words: list[str], vectors: np.ndarray) -> "VocabStore":
        """A store over ``vectors`` itself (no copy), row i holding ``words[i]``."""
        store = cls(lang, vectors.shape[1])
        store._hold(words, vectors)
        return store

    def _hold(self, words: list[str], vectors: np.ndarray) -> None:
        vectors.flags.writeable = False
        self._vectors = vectors
        self.entries = dict(zip(words, vectors))

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __getitem__(self, word: str) -> np.ndarray:
        return self.entries[word]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def words(self) -> list[str]:
        return list(self.entries)

    def matrix(self) -> np.ndarray:
        """All vectors in insertion (file) order, shape (n, dim), read-only."""
        return self._vectors


# Characters that str.isspace(), and so loadtxt's field trimming, counts
# as whitespace but numpy's cast of one string to float64 rejects: a file
# holding any of them is read line by line, which rejects them.
_CAST_REJECTS = "\x1c\x1d\x1e\x1f"


def _parse_header(header: str, path) -> tuple[int, int]:
    """The word count and dimension of an ``N d`` header line."""
    if not header.strip():
        raise ParseError("missing 'N d' header", path=path, line=1)
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"malformed header {header.strip()!r}", path=path, line=1)
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"malformed header {header.strip()!r}", path=path, line=1) from None
    if count < 0 or dim <= 0:
        raise ParseError(f"invalid header counts {header.strip()!r}", path=path, line=1)
    return count, dim


def load_vectors(path, lang: str) -> VocabStore:
    """Load a word2vec text file into a VocabStore.

    Validates the declared word count and dimension, rejects ragged rows,
    duplicate words, and non-finite components.

    The components of every row go through one C-level parse
    (``np.loadtxt`` over the text after each word, split on single
    spaces).  A file that parse or its checks do not take (a bad row, a
    duplicate word, a wrong count, or merely irregular spacing) is read
    again line by line, which loads it or raises the error that names the
    offending line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return _load_vectors_per_line(path, lang)
    castable = not any(c in text for c in _CAST_REJECTS)
    lines = text.split("\n")
    del text  # hold one copy of the file's text at a time
    count, dim = _parse_header(lines[0], path)
    words, rows = [], []
    for raw in lines[1:]:
        if raw.strip():
            word, _, row = raw.partition(" ")
            words.append(word)
            rows.append(row)
    del lines
    if castable and len(words) == count == len(set(words)) and all(rows):
        try:
            vectors = (
                np.loadtxt(rows, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
                if rows else np.zeros((0, dim))
            )
        except ValueError:
            pass
        else:
            if vectors.shape == (count, dim) and np.isfinite(vectors).all():
                return VocabStore.from_matrix(lang, words, vectors)
    return _load_vectors_per_line(path, lang)


def _load_vectors_per_line(path, lang: str) -> VocabStore:
    """``load_vectors`` one line at a time: the reference for the bulk
    parse, and the reader of files it does not take."""
    entries: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh:
        count, dim = _parse_header(fh.readline(), path)
        for lineno, raw in enumerate(fh, start=2):
            if not raw.strip():
                continue
            cols = raw.rstrip("\n").split(" ")
            word = cols[0]
            values = [c for c in cols[1:] if c]
            if len(values) != dim:
                raise DimensionMismatchError(
                    f"{path}:{lineno}: word {word!r} has {len(values)} components, expected {dim}"
                )
            if word in entries:
                raise DuplicateWordError(f"duplicate word {word!r}", path=path, line=lineno)
            try:
                vec = np.array(values, dtype=np.float64)
            except ValueError:
                raise ParseError(f"non-numeric component for word {word!r}", path=path, line=lineno) from None
            if not np.isfinite(vec).all():
                raise NonFiniteInputError(f"{path}:{lineno}: word {word!r} has NaN/Inf components")
            entries[word] = vec
    if len(entries) != count:
        raise ParseError(f"header declares {count} words, file has {len(entries)}", path=path)
    return VocabStore(lang=lang, dim=dim, entries=entries)


@dataclass
class PosTagging:
    """Word -> UPOS tags plus the frozen linear tag projection.

    ``projection`` is (p, 17) and ``bias`` has length p; both are drawn
    once from a seeded uniform(-0.1, 0.1) and never updated, keeping the
    pipeline deterministic.
    """

    tags: dict[str, str]
    projection: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.projection = np.asarray(self.projection, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.projection.ndim != 2 or self.projection.shape[1] != len(UPOS_TAGS):
            raise DimensionMismatchError(
                f"projection must be (p, {len(UPOS_TAGS)}), got {self.projection.shape}"
            )
        if self.bias.shape != (self.projection.shape[0],):
            raise DimensionMismatchError(
                f"bias length {self.bias.shape} does not match projection rows "
                f"{self.projection.shape[0]}"
            )
        for word, tag in self.tags.items():
            if tag not in UPOS_INDEX:
                raise ValueError(f"word {word!r} carries unknown UPOS tag {tag!r}")

    @property
    def projection_dim(self) -> int:
        return self.projection.shape[0]

    @classmethod
    def seeded(cls, tags: dict[str, str], projection_dim: int = 17, seed: int = 0) -> "PosTagging":
        """Build a tagging with a frozen seeded projection.

        Draw order is fixed (matrix first, then bias) so a given seed
        always yields the same map.
        """
        rng = np.random.default_rng(seed)
        projection = rng.uniform(-0.1, 0.1, size=(projection_dim, len(UPOS_TAGS)))
        bias = rng.uniform(-0.1, 0.1, size=projection_dim)
        return cls(tags=dict(tags), projection=projection, bias=bias)

    def tag_of(self, word: str) -> str:
        return self.tags.get(word, DEFAULT_TAG)

    def project(self, tag: str) -> np.ndarray:
        """Projected tag block: projection @ one_hot(tag) + bias."""
        return self.projection[:, UPOS_INDEX[tag]] + self.bias


def final_embedding(word_vec: np.ndarray, tag: str, pos: PosTagging) -> np.ndarray:
    """Concatenate the word vector with its projected POS block.

    The first ``d`` components are the word vector bit-exactly; the last
    ``p`` components are ``projection @ one_hot(tag) + bias``.
    """
    word_vec = np.asarray(word_vec, dtype=np.float64)
    require_finite(word_vec, "word vector")
    return np.concatenate([word_vec, pos.project(tag)])


def final_embeddings(store: VocabStore, pos: PosTagging) -> tuple[list[str], np.ndarray]:
    """Final embeddings for every word in a store, in store order.

    Returns the word list and an (n, d + p) matrix: the store's matrix
    next to each word's projected POS block, row for row what
    ``final_embedding`` gives.
    """
    words = store.words
    tag_idx = [UPOS_INDEX[pos.tag_of(w)] for w in words]
    matrix = np.hstack([store.matrix(), pos.projection[:, tag_idx].T + pos.bias])
    require_finite(matrix, "final embedding matrix")
    return words, matrix
