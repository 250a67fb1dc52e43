import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import store_from, synonym_stores, write_vectors

import psda.embeddings
from psda.embeddings import (
    DEFAULT_TAG,
    UPOS_INDEX,
    UPOS_TAGS,
    PosTagging,
    VocabStore,
    _load_vectors_per_line,
    final_embedding,
    final_embeddings,
    load_vectors,
)
from psda.errors import (
    DimensionMismatchError,
    DuplicateWordError,
    NonFiniteInputError,
    ParseError,
)


def write(tmp_path, text):
    p = tmp_path / "vec.txt"
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadVectors:
    def test_basic_readback(self, tmp_path):
        store = load_vectors(write(tmp_path, "2 3\nhope 0.1 0.2 0.3\nfear 1 0 0\n"), "en")
        assert store.lang == "en"
        assert store.dim == 3
        assert store.words == ["hope", "fear"]
        assert np.array_equal(store["hope"], [0.1, 0.2, 0.3])
        assert np.array_equal(store["fear"], [1.0, 0.0, 0.0])

    def test_empty_body_with_header(self, tmp_path):
        store = load_vectors(write(tmp_path, "0 5\n"), "en")
        assert len(store) == 0
        assert store.dim == 5
        assert store.matrix().shape == (0, 5)

    def test_ragged_row(self, tmp_path):
        with pytest.raises(DimensionMismatchError):
            load_vectors(write(tmp_path, "1 2\na 1 2 3\n"), "en")

    def test_count_mismatch(self, tmp_path):
        with pytest.raises(ParseError):
            load_vectors(write(tmp_path, "2 2\na 1 2\n"), "en")

    def test_duplicate_word(self, tmp_path):
        with pytest.raises(DuplicateWordError):
            load_vectors(write(tmp_path, "2 1\na 1\na 2\n"), "en")

    def test_non_numeric_component(self, tmp_path):
        with pytest.raises(ParseError):
            load_vectors(write(tmp_path, "1 2\na 1 oops\n"), "en")

    def test_non_finite_component(self, tmp_path):
        with pytest.raises(NonFiniteInputError):
            load_vectors(write(tmp_path, "1 2\na 1 nan\n"), "en")

    @pytest.mark.parametrize("header", ["", "5", "a b", "-1 3", "2 0"])
    def test_bad_headers(self, tmp_path, header):
        with pytest.raises(ParseError):
            load_vectors(write(tmp_path, header + "\nword 1 2\n"), "en")

    def test_matrix_follows_file_order(self, tmp_path):
        store = load_vectors(write(tmp_path, "2 2\nzz 1 2\naa 3 4\n"), "en")
        assert store.words == ["zz", "aa"]
        assert np.array_equal(store.matrix(), [[1.0, 2.0], [3.0, 4.0]])

    def test_entries_are_read_only_rows_of_one_matrix(self, tmp_path):
        store = load_vectors(write(tmp_path, "3 2\nzz 1 2\naa 3 4\nmm 5 6\n"), "en")
        matrix = store.matrix()
        assert not matrix.flags.writeable
        for i, word in enumerate(store.words):
            row = store[word]
            assert not row.flags.writeable
            assert np.shares_memory(row, matrix)
            assert np.array_equal(row, matrix[i])
        with pytest.raises(ValueError):
            store["zz"][0] = 9.0

    def test_store_built_from_entries_packs_a_copy(self):
        vec = np.array([1.0, 2.0])
        store = VocabStore(lang="en", dim=2, entries={"a": vec, "b": [3, 4]})
        assert store.matrix().dtype == np.float64
        assert np.array_equal(store.matrix(), [[1.0, 2.0], [3.0, 4.0]])
        assert not store.matrix().flags.writeable
        assert not np.shares_memory(store["a"], vec)
        assert vec.flags.writeable

    def test_regular_file_takes_the_bulk_parse(self, tmp_path, monkeypatch):
        def per_line(path, lang):
            raise AssertionError("fell back to the per-line reader")

        monkeypatch.setattr(psda.embeddings, "_load_vectors_per_line", per_line)
        store = load_vectors(
            write(tmp_path, "3 2\r\na 1 -2.5e-3\r\n\r\nb\t1 0 1e2\r\n \t\nä +1 .5\r\n"), "en"
        )
        assert store.words == ["a", "b\t1", "ä"]
        assert store.matrix().tobytes() == np.array([[1, -2.5e-3], [0, 1e2], [1, 0.5]]).tobytes()

    def test_irregular_spacing_loads_through_the_per_line_reader(self, tmp_path):
        store = load_vectors(write(tmp_path, "2 2\na  1 2 \nb 3\t 4\n"), "en")
        assert store.words == ["a", "b"]
        assert np.array_equal(store.matrix(), [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "text, error",
        [
            # loadtxt's default comments="#" would cut these rows short
            ("1 3\na 1 2 #3\n", ParseError),
            ("1 2\na 1 2 #3\n", DimensionMismatchError),
            ("1 2\na 1 2#3\n", ParseError),
            # rows with no components at all: loadtxt would warn of no data
            ("2 1\na\nb \n", DimensionMismatchError),
            ('1 2\na 1 "2"\n', ParseError),
            ("1 2\na 1 2\x1c\n", ParseError),
        ],
    )
    def test_text_the_bulk_parse_would_misread(self, tmp_path, text, error):
        path = write(tmp_path, text)
        with pytest.raises(error) as caught:
            load_vectors(path, "en")
        assert caught.value.args[0].startswith(f"{path}:2:")


# Row text that both parsers must read alike: components with both zeros,
# subnormals, the float64 limits and 17 significant digits, and ones that
# fail (non-finite, overflowing, commented, quoted or not numbers at all).
GOOD_COMPONENTS = ["0", "-0.0", "5e-324", "1.7976931348623157e308", "0.30000000000000004",
                   "+1", ".5", "1.", "1E3", "-1.2345678901234567e-5", "0001", "1\t"]
BAD_COMPONENTS = ["nan", "-inf", "Infinity", "1e400", "#3", "2#3", '"1"', "'1'", "1_0", "0x10",
                  "abc", "1\x1c", "１", ""]
GOOD = st.one_of(
    st.sampled_from(GOOD_COMPONENTS),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(min_value=-(10**20), max_value=10**20).map(str),
)
ANY = st.one_of(GOOD, st.sampled_from(BAD_COMPONENTS))
WORDS = ["a", "b", "ä", "w#", 'q"', "x\ty", "#", "", "nan", "1"]


@st.composite
def vector_files(draw):
    """word2vec text: regular, or with the irregular spacing real files
    carry (doubled, leading and trailing spaces, tabs), or with defects
    on top (duplicate words, ragged rows, bad components, wrong header
    counts).  Any file may have CRLF or CR line ends and blank or
    whitespace-only lines."""
    kind = draw(st.sampled_from(["regular", "spaced", "broken"]))

    def pick(regular, spaced=(), broken=()):
        options = list(regular)
        if kind != "regular":
            options += spaced
        if kind == "broken":
            options += broken
        return draw(st.sampled_from(options))

    dim = draw(st.integers(min_value=1, max_value=4))
    words = draw(st.lists(st.sampled_from(WORDS), unique=True, max_size=6))
    if words and pick([False], broken=[True]):
        words.append(draw(st.sampled_from(words)))
    count = len(words) + pick([0], broken=[1, -1])
    header = pick([f"{count} {dim}"], spaced=[f" {count}\t{dim} "], broken=[f"0 {dim}"])
    lines = [header]
    for word in words:
        width = dim + pick([0], broken=[1, -1])
        values = draw(st.lists(ANY if kind == "broken" else GOOD, min_size=width, max_size=width))
        line = pick([""], broken=[" "]) + word
        for value in values:
            line += pick([" "], spaced=["  ", "\t ", " \t"], broken=["\t"])
            line += value
        lines.append(line + pick([""], spaced=[" ", "\t", "  "]))
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", " \t "])))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


def outcome(load, path):
    """What loading ``path`` gives: the words and the matrix bytes, or
    the exception type, message and location."""
    try:
        store = load(path, "xx")
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "path", None), getattr(exc, "line", None)
    matrix = store.matrix()
    return store.words, store.dim, matrix.dtype, matrix.shape, matrix.tobytes()


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(text=vector_files())
def test_bulk_parse_matches_the_per_line_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("vectors", numbered=True) / "vec.txt"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(load_vectors, path) == outcome(_load_vectors_per_line, path)


IDENTITY = PosTagging(tags={}, projection=np.eye(17), bias=np.zeros(17))


class TestPosOneHot:
    def test_tag_set_is_the_17_upos_categories(self):
        assert len(UPOS_TAGS) == 17
        assert list(UPOS_TAGS) == sorted(UPOS_TAGS)

    def test_verb_one_hot(self):
        # under the identity projection a tag's block is its one-hot vector
        vec = IDENTITY.project("VERB")
        assert vec.shape == (17,)
        assert vec[UPOS_INDEX["VERB"]] == 1.0
        assert vec.sum() == 1.0

    def test_orthogonality(self):
        assert IDENTITY.project("NOUN") @ IDENTITY.project("VERB") == 0.0

    def test_every_tag_sums_to_one(self):
        for tag in UPOS_TAGS:
            assert IDENTITY.project(tag).sum() == 1.0


class TestPosTagging:
    def test_seeded_is_deterministic(self):
        a = PosTagging.seeded({"run": "VERB"}, projection_dim=5, seed=3)
        b = PosTagging.seeded({"run": "VERB"}, projection_dim=5, seed=3)
        assert np.array_equal(a.projection, b.projection)
        assert np.array_equal(a.bias, b.bias)
        c = PosTagging.seeded({}, projection_dim=5, seed=4)
        assert not np.array_equal(a.projection, c.projection)

    def test_seeded_draw_range(self):
        pos = PosTagging.seeded({}, projection_dim=8, seed=0)
        assert pos.projection.shape == (8, 17)
        assert pos.bias.shape == (8,)
        assert np.all(np.abs(pos.projection) <= 0.1)
        assert np.all(np.abs(pos.bias) <= 0.1)

    def test_unknown_word_falls_back(self):
        pos = PosTagging.seeded({"run": "VERB"}, seed=0)
        assert pos.tag_of("run") == "VERB"
        assert pos.tag_of("zzz") == DEFAULT_TAG

    def test_invalid_tag_rejected(self):
        with pytest.raises(ValueError):
            PosTagging.seeded({"w": "GERUND"}, seed=0)

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            PosTagging(tags={}, projection=np.zeros((3, 16)), bias=np.zeros(3))
        with pytest.raises(DimensionMismatchError):
            PosTagging(tags={}, projection=np.zeros((3, 17)), bias=np.zeros(4))


class TestFinalEmbedding:
    def test_zero_projection(self):
        pos = PosTagging(tags={}, projection=np.zeros((4, 17)), bias=np.zeros(4))
        vec = np.array([1.5, -2.0])
        out = final_embedding(vec, "NOUN", pos)
        assert np.array_equal(out, [1.5, -2.0, 0.0, 0.0, 0.0, 0.0])

    def test_identity_projection_appends_one_hot(self):
        vec = np.array([0.25])
        out = final_embedding(vec, "VERB", IDENTITY)
        assert np.array_equal(out[:1], vec)
        assert np.array_equal(out[1:], np.eye(17)[UPOS_INDEX["VERB"]])

    def test_word_block_is_bit_exact(self):
        pos = PosTagging.seeded({}, projection_dim=6, seed=9)
        vec = np.array([0.1, 0.2, 0.30000000000000004])
        out = final_embedding(vec, "ADJ", pos)
        assert out.shape == (9,)
        assert np.array_equal(out[:3], vec)

    def test_pos_block_matches_matvec_oracle(self):
        pos = PosTagging.seeded({}, projection_dim=6, seed=11)
        for tag in ("NOUN", "VERB", "X"):
            out = final_embedding(np.zeros(2), tag, pos)
            expected = pos.projection @ np.eye(17)[UPOS_INDEX[tag]] + pos.bias
            assert np.max(np.abs(out[2:] - expected)) <= 1e-12

    def test_non_finite_word_vector(self):
        pos = PosTagging.seeded({}, projection_dim=2, seed=0)
        with pytest.raises(NonFiniteInputError):
            final_embedding(np.array([np.nan]), "X", pos)

    def test_batch_follows_store_order(self):
        pos = PosTagging.seeded({"b": "VERB"}, projection_dim=2, seed=0)
        store = VocabStore(
            lang="en",
            dim=2,
            entries={"b": np.array([1.0, 2.0]), "a": np.array([3.0, 4.0])},
        )
        words, matrix = final_embeddings(store, pos)
        assert words == ["b", "a"]
        assert matrix.shape == (2, 4)
        assert np.array_equal(matrix[0], final_embedding(store["b"], "VERB", pos))
        assert np.array_equal(matrix[1], final_embedding(store["a"], "X", pos))

    def test_empty_store(self):
        pos = PosTagging.seeded({}, projection_dim=3, seed=0)
        words, matrix = final_embeddings(VocabStore(lang="en", dim=2), pos)
        assert words == []
        assert matrix.shape == (0, 5)

    def test_batch_is_bit_identical_to_row_by_row(self, tmp_path):
        stores, _ = synonym_stores(("aa",), groups=4, words_per_group=5, dim=7, seed=3)
        words = stores["aa"].words
        tags = {w: UPOS_TAGS[i % len(UPOS_TAGS)] for i, w in enumerate(words[::2])}
        pos = PosTagging.seeded(tags, projection_dim=5, seed=2)
        path = tmp_path / "vec.txt"
        write_vectors(path, "aa", stores["aa"].entries)
        for store in (stores["aa"], load_vectors(path, "aa")):
            got_words, matrix = final_embeddings(store, pos)
            expected = np.stack([final_embedding(store[w], pos.tag_of(w), pos) for w in words])
            assert got_words == words
            assert matrix.flags.c_contiguous and matrix.flags.writeable
            assert matrix.tobytes() == expected.tobytes()

    def test_non_finite_store_vector(self):
        pos = PosTagging.seeded({}, projection_dim=2, seed=0)
        store = store_from("en", {"a": [1.0, 2.0], "b": [np.inf, 0.0]})
        with pytest.raises(NonFiniteInputError):
            final_embeddings(store, pos)
