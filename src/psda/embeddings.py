"""Word vectors and POS-augmented final embeddings.

Embeddings arrive as word2vec text files (header ``N d``, then ``word v1
... vd`` per line).  ``load_vectors`` reads a file once as bytes, hashes
exactly those bytes (SHA-256) and checks the header, the word count and
duplicate words at once.  It parses every row then too, unless the caller
passes a digest equal to the file's: a file whose bytes a model was built
from has passed every check already, so its rows are parsed on first
read, in batches, with the bits and the errors of the full parse.

Each word additionally carries a Universal Dependencies UPOS tag; the
tag's one-hot vector is pushed through a frozen seeded linear projection
and concatenated onto the word vector to form the final embedding used
for clustering.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DuplicateWordError,
    NonFiniteInputError,
    ParseError,
    utf8_errors,
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
    insertion (file) order, and each word maps to a read-only view of its
    row.  Building a store from ``entries`` packs their vectors into that
    matrix.  A store ``load_vectors`` made may still hold rows as text:
    reading a word parses its row, ``parse`` parses the rows of many
    words in one batch, and ``matrix`` parses every row left.
    ``rows_parsed`` counts the rows parsed from text so far, and
    ``sha256`` is the hex digest of the file a store was loaded from
    (None for a store built in memory).
    """

    def __init__(self, lang: str, dim: int, entries: dict[str, np.ndarray] | None = None):
        self.lang = lang
        self.dim = dim
        entries = dict(entries or {})
        if entries:
            vectors = np.stack([np.asarray(v, dtype=np.float64) for v in entries.values()])
        else:
            vectors = np.zeros((0, dim))
        vectors.flags.writeable = False
        self._vectors = vectors
        self._rows = {word: i for i, word in enumerate(entries)}
        self._texts = None
        self.rows_parsed = 0
        self.sha256 = None

    @classmethod
    def _from_text(cls, lang, dim, words, texts, lines, path, castable, sha256) -> "VocabStore":
        """A store whose row i, for ``words[i]``, is the text ``texts[i]``
        from line ``lines[i]`` of ``path``, parsed on first read."""
        store = cls(lang, dim)
        store._vectors = np.empty((len(words), dim))
        store._vectors.flags.writeable = False
        store._words = words
        store._rows = dict(zip(words, range(len(words))))
        store._texts = texts or None
        store._lines = lines
        store._path = path
        store._castable = castable
        store.sha256 = sha256
        return store

    def __contains__(self, word: str) -> bool:
        return word in self._rows

    def __getitem__(self, word: str) -> np.ndarray:
        i = self._rows[word]
        if self._texts is not None and self._texts[i] is not None:
            self._parse([i])
        return self._vectors[i]

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def words(self) -> list[str]:
        return list(self._rows)

    def matrix(self) -> np.ndarray:
        """All vectors in insertion (file) order, shape (n, dim), read-only."""
        if self._texts is not None:
            self._parse([i for i, text in enumerate(self._texts) if text is not None])
        return self._vectors

    def parse(self, words) -> None:
        """Parse, in one batch, the rows still held as text of those of
        ``words`` the store holds."""
        texts = self._texts
        if texts is None:
            return
        rows = self._rows
        pending = dict.fromkeys(rows[w] for w in words if w in rows and texts[rows[w]] is not None)
        if pending:
            self._parse(list(pending))

    def _parse(self, rows: list[int]) -> None:
        """Parse the text of ``rows`` (distinct, each still text) through
        one ``np.loadtxt`` call, or row by row by ``_row_vector`` when that
        call does not take them: irregular spacing, a character only
        loadtxt counts as whitespace, or a bad row, which then raises the
        error naming its line."""
        texts = [self._texts[i] for i in rows]
        values = None
        if self._castable and all(texts):
            try:
                values = np.loadtxt(texts, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
            except ValueError:
                pass
            else:
                if values.shape != (len(rows), self.dim) or not np.isfinite(values).all():
                    values = None
        if values is None:
            values = [
                _row_vector(self._words[i], text, self.dim, self._path, self._lines[i])
                for i, text in zip(rows, texts)
            ]
        if len(rows) == len(self._rows) and rows == list(range(len(rows))):
            # every row in file order: the parsed matrix is the store's
            self._vectors = np.asarray(values, dtype=np.float64)
        else:
            self._vectors.flags.writeable = True
            self._vectors[rows] = values
        self._vectors.flags.writeable = False
        self.rows_parsed += len(rows)
        if self.rows_parsed == len(self._rows):
            # nothing is left to parse or to name a line of
            self._texts = None
            del self._words, self._lines, self._path
        else:
            for i in rows:
                self._texts[i] = None


# Characters that str.isspace(), and so loadtxt's field trimming, counts
# as whitespace but numpy's cast of one string to float64 rejects: the
# rows of a file holding any of them are read one by one, which rejects
# them.
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


def _row_vector(word: str, text: str, dim: int, path, lineno: int, taken=()) -> np.ndarray:
    """The vector of one row: ``text`` is the line after its word, and its
    components are split on spaces, runs of them included.  ``taken``
    holds the words read before it, for the duplicate check, which comes
    after the count check and before the cast."""
    values = [c for c in text.split(" ") if c]
    if len(values) != dim:
        raise DimensionMismatchError(
            f"{path}:{lineno}: word {word!r} has {len(values)} components, expected {dim}"
        )
    if word in taken:
        raise DuplicateWordError(f"duplicate word {word!r}", path=path, line=lineno)
    try:
        vec = np.array(values, dtype=np.float64)
    except ValueError:
        raise ParseError(f"non-numeric component for word {word!r}", path=path, line=lineno) from None
    if not np.isfinite(vec).all():
        raise NonFiniteInputError(f"{path}:{lineno}: word {word!r} has NaN/Inf components")
    return vec


def load_vectors(path, lang: str, sha256: str | None = None) -> VocabStore:
    """Load a word2vec text file into a VocabStore.

    Validates the declared word count and dimension, rejects ragged rows,
    duplicate words, and non-finite components.

    The file is read once, as bytes, and the store's ``sha256`` is their
    digest.  Every row is parsed now, unless ``sha256`` equals that
    digest: a caller passes the digest of a file it has loaded before, so
    these bytes have passed every check, and each row is parsed when it
    is first read.  Rows are parsed in batches through one C-level parse
    (``np.loadtxt`` over the text after each word, split on single
    spaces), row by row where that parse does not take them.  A file with
    a duplicate word or a wrong count is read again line by line, which
    raises the error that names the offending line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    with utf8_errors(path):
        text = data.decode("utf-8")
    del data  # hold one copy of the file's text at a time
    if "\r" in text:
        # the newlines a file opened as text would give
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    castable = not any(c in text for c in _CAST_REJECTS)
    lines = text.split("\n")
    del text
    count, dim = _parse_header(lines[0], path)
    # the word ends at the first space; blank lines are skipped
    linenos = [n for n, raw in enumerate(lines[1:], start=2) if raw.strip()]
    rows = [lines[n - 1].partition(" ") for n in linenos]
    del lines
    words = [word for word, _, _ in rows]
    texts = [text for _, _, text in rows]
    del rows
    store = VocabStore._from_text(lang, dim, words, texts, linenos, path, castable, digest)
    if not len(words) == count == len(store):
        return _load_vectors_per_line(path, lang)
    if sha256 != digest:
        store.matrix()
    return store


def _load_vectors_per_line(path, lang: str) -> VocabStore:
    """``load_vectors`` one line at a time: the reference for the batched
    parse, and the reader that names the line of a duplicate word or the
    row that comes before it."""
    entries: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh, utf8_errors(path):
        count, dim = _parse_header(fh.readline(), path)
        for lineno, raw in enumerate(fh, start=2):
            if not raw.strip():
                continue
            word, _, text = raw.rstrip("\n").partition(" ")
            entries[word] = _row_vector(word, text, dim, path, lineno, taken=entries)
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
