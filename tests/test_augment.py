import numpy as np
import pytest

from helpers import store_from, synonym_stores
from psda.augment import (
    SKIP_EMPTY_POOL,
    SKIP_MISSING_CHAIN,
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


class TestCandidateIndex:
    def test_every_word_indexed_once_with_raw_vector(self, pair_model, index):
        seen = {}
        for q, pool in index.by_multi_cluster.items():
            for c in pool:
                assert (c.lang, c.word) not in seen
                seen[(c.lang, c.word)] = q
                assert c.embedding.shape == (6,)
                assert np.array_equal(c.embedding, pair_model.stores[c.lang][c.word])
                assert pair_model.model.chain_of(c.lang, c.word)[2] == q
        assert len(seen) == sum(len(s) for s in pair_model.stores.values())

    def test_pools_ordered_by_language(self, index):
        for pool in index.by_multi_cluster.values():
            langs = [c.lang for c in pool]
            assert langs == sorted(langs)

    def test_eligible_excludes_own_language(self, index):
        for q in index.by_multi_cluster:
            assert all(c.lang == "bb" for c in index.eligible(q, "aa"))
            assert all(c.lang == "aa" for c in index.eligible(q, "bb"))

    def test_eligible_pool_is_filtered_once_in_pool_order(self, index):
        for q, pool in index.by_multi_cluster.items():
            for lang in ("aa", "bb"):
                first = index.eligible(q, lang)
                expected = [c for c in pool if c.lang != lang]
                assert len(first) == len(expected)
                assert all(a is b for a, b in zip(first, expected))
                assert index.eligible(q, lang) is first

    def test_eligible_unknown_cluster_is_empty(self, index):
        assert index.eligible(9999, "aa") == []

    def test_unclustered_store_word_rejected(self, pair_model):
        padded = store_from(
            "aa", {**pair_model.stores["aa"].entries, "ghost": np.zeros(6)}
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
            assert model.chain_of(rec.lang, r.source_word)[2] == r.multi_cluster
            assert model.chain_of(r.candidate_lang, r.candidate_word)[2] == r.multi_cluster

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

