import numpy as np
import pytest

from helpers import store_entries, store_from, synonym_stores
from psda.augment import (
    SKIP_EMPTY_POOL,
    SKIP_MISSING_CHAIN,
    _draw,
    augment_sentence,
    build_candidate_index,
    sentence_seed,
)
from psda.corpus import SentenceRecord, assemble_sentence
from psda.domino import KPolicy, build_cluster_model
from psda.embeddings import PosTagging
from psda.errors import DimensionMismatchError, MissingChainError
from psda.gmm import GmmConfig
from psda.taxonomy import FamilyEntry, LanguageTaxonomy
from psda.util import derive_seed


@pytest.fixture(scope="module")
def index(pair_model):
    return build_candidate_index(pair_model.model, pair_model.stores)


def svo_rec(subj="aa_g0_w0", verb="aa_g1_w0", obj="aa_g2_w1", lang="aa", extra=("filler",)):
    return SentenceRecord(
        lang=lang, tokens=(subj, verb, obj) + tuple(extra), subject=0, verb=1, object=2
    )


class _FixedDraw:
    """Stands in for the RNG: every draw returns entry ``i``."""

    def __init__(self, i):
        self.i = i

    def integers(self, n):
        assert 0 <= self.i < n
        return self.i


def flat_pool(index, q, exclude_lang=None):
    """Every entry of a cluster's runs, in order, as (lang, word, vector)."""
    return [
        (lang, words[row], store[words[row]])
        for lang, words, store, rows in index.get(q, [])
        if lang != exclude_lang
        for row in rows
    ]


def drawn_pool(index, q, exclude_lang):
    """Every entry ``_draw`` can return, by the draw that returns it."""
    n = len(flat_pool(index, q, exclude_lang))
    return [_draw(index[q], exclude_lang, _FixedDraw(i)) for i in range(n)]


class TestCandidateIndex:
    def test_every_word_indexed_once_with_raw_vector(self, pair_model, index):
        seen = {}
        for q in index:
            for lang, word, vector in flat_pool(index, q):
                assert (lang, word) not in seen
                seen[(lang, word)] = q
                assert vector.shape == (6,)
                assert np.array_equal(vector, pair_model.stores[lang][word])
                assert pair_model.model.chain[lang][word][2] == q
        assert len(seen) == sum(len(s) for s in pair_model.stores.values())

    def test_pools_ordered_by_language(self, index):
        for runs in index.values():
            langs = [lang for lang, *_ in runs]
            assert langs == sorted(set(langs))
            for _, _, _, rows in runs:
                assert rows == sorted(rows)

    def test_pools_follow_the_old_candidate_lists(self, pair_model, index):
        """Entry for entry, each pool is the list of every store word in
        sorted-language, vocabulary order, filtered to the cluster."""
        model, stores = pair_model.model, pair_model.stores
        expected = {}
        for lang in sorted(stores):
            for word in stores[lang].words:
                expected.setdefault(model.chain[lang][word][2], []).append((lang, word))
        assert sorted(index) == sorted(expected)
        for q in index:
            assert [(lang, word) for lang, word, _ in flat_pool(index, q)] == expected[q]

    def test_eligible_excludes_own_language(self, index):
        for q in index:
            assert all(lang == "bb" for lang, _, _ in drawn_pool(index, q, "aa"))
            assert all(lang == "aa" for lang, _, _ in drawn_pool(index, q, "bb"))

    def test_eligible_pool_is_filtered_once_in_pool_order(self, index):
        for q in index:
            for lang in ("aa", "bb"):
                drawn = [(c_lang, word) for c_lang, word, _ in drawn_pool(index, q, lang)]
                expected = [(c_lang, word) for c_lang, word, _ in flat_pool(index, q, lang)]
                assert drawn == expected

    def test_eligible_unknown_cluster_is_empty(self, pair_model, index):
        rec = svo_rec()
        mat = assemble_sentence(rec, pair_model.stores["aa"])
        q = pair_model.model.chain["aa"][rec.tokens[0]][2]
        without_q = {p: runs for p, runs in index.items() if p != q}
        aug = augment_sentence(rec, mat, pair_model.model, without_q, seed=3)
        assert [(s.role, s.reason) for s in aug.skipped] == [("subject", SKIP_EMPTY_POOL)]
        assert np.array_equal(aug.augmented[0], mat[0])
        # the skip made no draw: verb and object match an index without the gap
        full = augment_sentence(
            SentenceRecord(lang="aa", tokens=rec.tokens, verb=1, object=2),
            mat, pair_model.model, index, seed=3,
        )
        assert aug.replacements == full.replacements

    def test_unclustered_store_word_rejected(self, pair_model):
        padded = store_from(
            "aa", {**store_entries(pair_model.stores["aa"]), "ghost": np.zeros(6)}
        )
        with pytest.raises(MissingChainError):
            build_candidate_index(
                pair_model.model, {"aa": padded, "bb": pair_model.stores["bb"]}
            )


class TestAugmentSentence:
    def test_replaces_exactly_role_rows(self, pair_model, index):
        rec = svo_rec()
        mat = assemble_sentence(rec, pair_model.stores["aa"])
        aug = augment_sentence(rec, mat, pair_model.model, index, seed=123)
        assert aug.changed
        assert {r.position for r in aug.replacements} == {0, 1, 2}
        assert [r.role for r in aug.replacements] == ["subject", "verb", "object"]
        assert aug.skipped == ()
        assert np.array_equal(aug.original, mat)
        assert np.array_equal(aug.augmented[3], mat[3])
        for r in aug.replacements:
            assert not np.array_equal(aug.augmented[r.position], mat[r.position])

    def test_replacement_rows_are_candidate_store_vectors(self, pair_model, index):
        rec = svo_rec()
        mat = assemble_sentence(rec, pair_model.stores["aa"])
        aug = augment_sentence(rec, mat, pair_model.model, index, seed=9)
        for r in aug.replacements:
            expected = pair_model.stores[r.candidate_lang][r.candidate_word]
            assert np.array_equal(aug.augmented[r.position], expected)

    def test_candidates_come_from_other_language_same_cluster(self, pair_model, index):
        rec = svo_rec()
        mat = assemble_sentence(rec, pair_model.stores["aa"])
        aug = augment_sentence(rec, mat, pair_model.model, index, seed=42)
        model = pair_model.model
        for r in aug.replacements:
            assert r.candidate_lang != rec.lang
            assert model.chain[rec.lang][r.source_word][2] == r.multi_cluster
            assert model.chain[r.candidate_lang][r.candidate_word][2] == r.multi_cluster

    def test_same_seed_same_outcome(self, pair_model, index):
        rec = svo_rec()
        mat = assemble_sentence(rec, pair_model.stores["aa"])
        a = augment_sentence(rec, mat, pair_model.model, index, seed=5)
        b = augment_sentence(rec, mat, pair_model.model, index, seed=5)
        assert np.array_equal(a.augmented, b.augmented)
        assert a.replacements == b.replacements

    def test_seed_varies_choice(self, pair_model, index):
        rec = svo_rec()
        mat = assemble_sentence(rec, pair_model.stores["aa"])
        subjects = {
            augment_sentence(rec, mat, pair_model.model, index, seed=s)
            .replacements[0]
            .candidate_word
            for s in range(20)
        }
        assert len(subjects) >= 2

    def test_unknown_role_word_skipped_in_place(self, pair_model, index):
        rec = svo_rec(subj="ghost")
        mat = assemble_sentence(rec, pair_model.stores["aa"])
        aug = augment_sentence(rec, mat, pair_model.model, index, seed=1)
        assert [s.reason for s in aug.skipped] == [SKIP_MISSING_CHAIN]
        assert aug.skipped[0].role == "subject"
        assert aug.skipped[0].word == "ghost"
        assert np.array_equal(aug.augmented[0], mat[0])
        assert {r.position for r in aug.replacements} == {1, 2}

    def test_skipped_roles_do_not_shift_draws(self, pair_model, index):
        tokens = ("ghost", "aa_g1_w0", "aa_g2_w1")
        with_subj = SentenceRecord(lang="aa", tokens=tokens, subject=0, verb=1, object=2)
        without = SentenceRecord(lang="aa", tokens=tokens, subject=None, verb=1, object=2)
        mat = assemble_sentence(with_subj, pair_model.stores["aa"])
        a = augment_sentence(with_subj, mat, pair_model.model, index, seed=777)
        b = augment_sentence(without, mat, pair_model.model, index, seed=777)
        assert [r.candidate_word for r in a.replacements] == [
            r.candidate_word for r in b.replacements
        ]

    def test_single_language_pools_are_empty(self):
        stores, _ = synonym_stores(("aa",), groups=2, words_per_group=2, dim=4, seed=3)
        tax = LanguageTaxonomy((FamilyEntry("fam", ("aa",)),))
        model = build_cluster_model(
            stores,
            PosTagging.seeded({}, projection_dim=2, seed=0),
            tax,
            KPolicy(2, 2, 2),
            GmmConfig(k=1, seed=0),
        )
        index = build_candidate_index(model, stores)
        rec = SentenceRecord(
            lang="aa", tokens=("aa_g0_w0", "aa_g1_w0"), subject=0, verb=1
        )
        mat = assemble_sentence(rec, stores["aa"])
        aug = augment_sentence(rec, mat, model, index, seed=4)
        assert not aug.changed
        assert np.array_equal(aug.augmented, aug.original)
        assert {s.reason for s in aug.skipped} == {SKIP_EMPTY_POOL}

    def test_no_roles_is_a_noop(self, pair_model, index):
        rec = SentenceRecord(lang="aa", tokens=("aa_g0_w0", "filler"))
        mat = assemble_sentence(rec, pair_model.stores["aa"])
        aug = augment_sentence(rec, mat, pair_model.model, index, seed=2)
        assert not aug.changed
        assert aug.replacements == () and aug.skipped == ()
        assert np.array_equal(aug.augmented, mat)

    def test_row_count_mismatch_rejected(self, pair_model, index):
        rec = svo_rec()
        with pytest.raises(DimensionMismatchError):
            augment_sentence(rec, np.zeros((2, 6)), pair_model.model, index, seed=0)

    def test_candidate_dim_mismatch_rejected(self, pair_model, index):
        rec = svo_rec()
        with pytest.raises(DimensionMismatchError):
            augment_sentence(rec, np.zeros((4, 7)), pair_model.model, index, seed=0)


@pytest.fixture(scope="module")
def trio_model():
    """Three languages, so a draw that excludes one walks two runs."""
    stores, _ = synonym_stores(("aa", "bb", "cc"), groups=3, words_per_group=3, dim=6, seed=5)
    tax = LanguageTaxonomy((FamilyEntry("ab", ("aa", "bb")), FamilyEntry("c", ("cc",))))
    model = build_cluster_model(
        stores,
        PosTagging.seeded({}, projection_dim=4, seed=0),
        tax,
        KPolicy(3, 3, 3),
        GmmConfig(k=1, seed=7),
    )
    return stores, model


class TestDrawAcrossRuns:
    def test_replacements_match_a_draw_over_the_flat_list(self, trio_model):
        """Each role's candidate is ``rng.integers(len(flat))`` into the
        flat list of other-language store words in its cluster, in
        sorted-language, vocabulary order."""
        stores, model = trio_model
        index = build_candidate_index(model, stores)
        assert all(len(runs) == 3 for runs in index.values())
        for lang in sorted(stores):
            words = stores[lang].words
            rec = SentenceRecord(
                lang=lang, tokens=(words[0], words[4], words[8]), subject=0, verb=1, object=2
            )
            mat = assemble_sentence(rec, stores[lang])
            for seed in range(60):
                aug = augment_sentence(rec, mat, model, index, seed)
                rng = np.random.default_rng(seed)
                expected = []
                for _, pos in rec.roles():
                    q = model.chain[lang][rec.tokens[pos]][2]
                    flat = [
                        (other, word)
                        for other in sorted(stores)
                        if other != lang
                        for word in stores[other].words
                        if model.chain[other][word][2] == q
                    ]
                    expected.append(flat[rng.integers(len(flat))])
                got = [(r.candidate_lang, r.candidate_word) for r in aug.replacements]
                assert got == expected
                for r in aug.replacements:
                    assert np.array_equal(
                        aug.augmented[r.position], stores[r.candidate_lang][r.candidate_word]
                    )


class TestSentenceSeed:
    def test_matches_derivation(self):
        rec = SentenceRecord(lang="aa", tokens=("x", "y"))
        assert sentence_seed(3, rec, 1) == derive_seed(3, "aa", ("x", "y"), 1)

    def test_varies_with_content_and_copy(self):
        rec = SentenceRecord(lang="aa", tokens=("x", "y"))
        other_lang = SentenceRecord(lang="bb", tokens=("x", "y"))
        other_tokens = SentenceRecord(lang="aa", tokens=("x", "z"))
        seeds = {
            sentence_seed(3, rec, 0),
            sentence_seed(3, rec, 1),
            sentence_seed(3, other_lang, 0),
            sentence_seed(3, other_tokens, 0),
            sentence_seed(4, rec, 0),
        }
        assert len(seeds) == 5

