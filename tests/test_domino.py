import numpy as np
import pytest

from helpers import store_from, synonym_stores
from psda.domino import (
    KPolicy,
    build_cluster_model,
    cluster_family,
    cluster_multi,
    cluster_single_language,
)
from psda.embeddings import UPOS_TAGS, PosTagging, final_embeddings
from psda.errors import DimensionMismatchError, UnknownLanguageError
from psda.gmm import GmmConfig, gmm_fit
from psda.taxonomy import FamilyEntry, LanguageTaxonomy
from psda.util import derive_seed

CFG = GmmConfig(k=1, seed=7)


def zero_pos(p=2):
    """Tagging whose projected block is all zeros, so cluster geometry is
    driven by the word vectors alone."""
    return PosTagging(tags={}, projection=np.zeros((p, len(UPOS_TAGS))), bias=np.zeros(p))


def single_stage(points, k, lang="xx", seed=7):
    matrix = np.asarray(points, dtype=np.float64)
    words = [f"w{i}" for i in range(len(matrix))]
    return cluster_single_language(
        lang, words, matrix, KPolicy(single=k), GmmConfig(k=1, seed=seed)
    )


class TestKPolicy:
    def test_explicit(self):
        assert KPolicy(single=4).resolve("single", 100) == (4, None)

    def test_auto_is_ceil_sqrt(self):
        policy = KPolicy()
        assert policy.resolve("single", 10)[0] == 4
        assert policy.resolve("family", 16)[0] == 4
        assert policy.resolve("multi", 17)[0] == 5
        assert policy.resolve("single", 1) == (1, None)

    def test_clamp_warns(self):
        k, warning = KPolicy(multi=9).resolve("multi", 3)
        assert k == 3
        assert warning is not None and "clamped" in warning

    @pytest.mark.parametrize("stage", ["single", "family", "multi"])
    def test_rejects_nonpositive_k(self, stage):
        with pytest.raises(ValueError, match=stage):
            KPolicy(**{stage: 0})

    @pytest.mark.parametrize("n", range(1, 40))
    def test_auto_never_exceeds_point_count(self, n):
        k, warning = KPolicy().resolve("single", n)
        assert 1 <= k <= n
        assert warning is None


class TestSingleStage:
    def test_member_share_weights(self):
        # three words near the origin, one far away: shares 3/4 and 1/4
        stage = single_stage(
            [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [100.0, 100.0]], k=2
        )
        assert sorted(stage.expert_weights) == [0.25, 0.75]
        big = stage.members[int(np.argmax(stage.expert_weights))]
        assert set(big) == {"w0", "w1", "w2"}
        assert stage.expert_weights.sum() == 1.0

    def test_weight_is_exact_member_fraction(self):
        rng = np.random.default_rng(0)
        stage = single_stage(rng.normal(size=(11, 3)), k=3)
        for members, weight in zip(stage.members, stage.expert_weights, strict=True):
            assert weight == len(members) / 11

    def test_single_word_clamps_with_warning(self):
        stage = single_stage([[1.0, 2.0]], k=3)
        assert stage.members == [["w0"]]
        assert stage.expert_weights.tolist() == [1.0]
        assert any("clamped" in w for w in stage.warnings)

    def test_no_words_rejected(self):
        with pytest.raises(ValueError):
            cluster_single_language("xx", [], np.empty((0, 2)), KPolicy(), CFG)

    def test_words_must_match_rows(self):
        with pytest.raises(ValueError):
            cluster_single_language("xx", ["a"], np.zeros((2, 2)), KPolicy(single=1), CFG)

    def test_weighted_centers_oracle(self):
        rng = np.random.default_rng(3)
        stage = single_stage(rng.normal(size=(9, 4)), k=3)
        # each cluster's member share times the mean of the component
        # that its members are assigned to
        manual = np.stack(
            [
                len(members) / 9 * stage.gmm.means[stage.gmm.assignments[int(members[0][1:])]]
                for members in stage.members
            ]
        )
        assert np.array_equal(stage.weighted_centers(), manual)

    def test_pos_block_separates_identical_word_vectors(self):
        # same word vector everywhere; only the projected tag block differs
        pos = PosTagging(
            tags={"v0": "VERB", "v1": "VERB", "n0": "NOUN", "n1": "NOUN"},
            projection=np.zeros((2, len(UPOS_TAGS))),
            bias=np.zeros(2),
        )
        pos.projection[0, UPOS_TAGS.index("VERB")] = 50.0
        pos.projection[1, UPOS_TAGS.index("NOUN")] = 50.0
        store = store_from("xx", [(w, [1.0, 1.0]) for w in ("v0", "v1", "n0", "n1")])
        words, matrix = final_embeddings(store, pos)
        stage = cluster_single_language("xx", words, matrix, KPolicy(single=2), CFG)
        groups = [set(members) for members in stage.members]
        assert {frozenset(g) for g in groups} == {frozenset({"v0", "v1"}), frozenset({"n0", "n1"})}
        # every member sits nearest its own cluster center
        for ci, members in enumerate(stage.members):
            for word in members:
                emb = matrix[words.index(word)]
                dists = np.linalg.norm(stage.centers - emb, axis=1)
                assert np.argmin(dists) == ci

    def test_duplicate_points_collapse_to_one_cluster(self):
        stage = single_stage([[2.0, 2.0]] * 4, k=2)
        assert stage.gmm.k == 2
        assert stage.members == [["w0", "w1", "w2", "w3"]]
        assert stage.expert_weights.tolist() == [1.0]
        assert np.array_equal(stage.centers, [[2.0, 2.0]])

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(8, 3))
        a = single_stage(points, k=2)
        b = single_stage(points, k=2)
        assert np.array_equal(a.centers, b.centers)
        assert a.members == b.members


class TestFamilyStage:
    def test_single_cluster_passthrough(self):
        stage = single_stage([[3.0, -4.0], [3.2, -4.1], [2.8, -3.9]], k=1)
        fam = cluster_family("fam", [stage], KPolicy(family=1), CFG)
        assert np.max(np.abs(fam.centers - stage.weighted_centers())) <= 1e-10
        assert fam.expert_weights.tolist() == [1.0]
        assert fam.members == [[("xx", 0)]]

    def test_two_far_languages_split(self):
        a = single_stage([[0.0, 0.0], [0.1, 0.1]], k=1, lang="aa")
        b = single_stage([[500.0, 500.0], [500.1, 499.9]], k=1, lang="bb")
        fam = cluster_family("fam", [a, b], KPolicy(family=2), CFG)
        members = {frozenset(m) for m in fam.members}
        assert members == {frozenset({("aa", 0)}), frozenset({("bb", 0)})}
        assert sorted(fam.expert_weights) == [0.5, 0.5]

    def test_fit_inputs_are_weighted_centers(self):
        # weights 0.75/0.25 and 0.6/0.4 from blob sizes {3,1} and {3,2}
        a = single_stage(
            [[0, 0], [0.1, 0], [0, 0.1], [40.0, 40.0]], k=2, lang="aa"
        )
        b = single_stage(
            [[-30, 10], [-30.1, 10], [-29.9, 10.1], [90.0, -5.0], [90.1, -5.1]],
            k=2,
            lang="bb",
        )
        assert sorted(a.expert_weights) == [0.25, 0.75]
        assert sorted(b.expert_weights) == [0.4, 0.6]
        fam = cluster_family("fam", [a, b], KPolicy(family=2), CFG)
        rows = np.vstack([a.weighted_centers(), b.weighted_centers()])
        ref = gmm_fit(
            rows,
            GmmConfig(
                k=2,
                covariance=CFG.covariance,
                max_iter=CFG.max_iter,
                tol=CFG.tol,
                cov_floor=CFG.cov_floor,
                seed=derive_seed(CFG.seed, "family", "fam"),
            ),
        )
        assert np.max(np.abs(fam.gmm.means - ref.means)) <= 1e-12
        assert np.array_equal(fam.gmm.assignments, ref.assignments)

    def test_dimension_mismatch_across_children(self):
        a = single_stage([[0.0, 0.0]], k=1, lang="aa")
        b = single_stage([[1.0, 2.0, 3.0]], k=1, lang="bb")
        with pytest.raises(DimensionMismatchError):
            cluster_family("fam", [a, b], KPolicy(family=1), CFG)


class TestMultiStage:
    def test_single_family_mirrors_at_full_k(self):
        a = single_stage([[0, 0], [0.1, 0.1], [200, 0], [200.2, 0.1]], k=2, lang="aa")
        fam = cluster_family("fam", [a], KPolicy(family=2), CFG)
        multi = cluster_multi([fam], KPolicy(multi=len(fam.members)), CFG)
        assert len(multi.members) == len(fam.members)
        assert {frozenset(m) for m in multi.members} == {
            frozenset({("fam", g)}) for g in range(len(fam.members))
        }

    def test_three_far_families_one_per_cluster(self):
        spread = [[0.0, 0.0], [300.0, 0.0], [0.0, 300.0]]
        fams = []
        for i, center in enumerate(spread):
            stage = single_stage([center, list(np.add(center, 0.1))], k=1, lang=f"l{i}")
            fams.append(cluster_family(f"f{i}", [stage], KPolicy(family=1), CFG))
        multi = cluster_multi(fams, KPolicy(multi=3), CFG)
        assert sorted(len(m) for m in multi.members) == [1, 1, 1]
        assert {m for members in multi.members for m in members} == {
            ("f0", 0), ("f1", 0), ("f2", 0)
        }


class TestBuildClusterModel:
    def test_trivial_chain_is_all_zero(self):
        store = store_from("aa", [("x", [0.0, 0.0]), ("y", [0.2, 0.1]), ("z", [0.1, 0.3])])
        tax = LanguageTaxonomy((FamilyEntry("fam", ("aa",)),))
        model = build_cluster_model(
            {"aa": store}, zero_pos(), tax, KPolicy(1, 1, 1), CFG
        )
        assert all(chain == (0, 0, 0) for chain in model.chain["aa"].values())
        assert model.embed_dim == 4

    def test_chain_follows_stage_members(self, pair_model):
        model = pair_model.model
        for lang, chains in model.chain.items():
            fam = pair_model.tax.family_of(lang)
            for word, (t, g, q) in chains.items():
                assert word in model.single[lang].members[t]
                assert (lang, t) in model.family[fam].members[g]
                assert (fam, g) in model.multi.members[q]

    def test_multi_purity_on_synonym_groups(self, pair_model):
        model = pair_model.model
        by_cluster = {}
        for lang, chains in model.chain.items():
            for word, (_, _, q) in chains.items():
                by_cluster.setdefault(q, []).append(pair_model.group_of[(lang, word)])
        total = sum(len(v) for v in by_cluster.values())
        majority = sum(max(groups.count(g) for g in set(groups)) for groups in by_cluster.values())
        assert majority / total >= 0.95

    def test_word_embeddings_row_aligned(self, pair_model):
        model = pair_model.model
        for lang, store in pair_model.stores.items():
            words, matrix = final_embeddings(store, pair_model.pos)
            assert list(model.chain[lang]) == words
            assert np.array_equal(model.word_embeddings[lang], matrix)

    def test_expert_weights_sum_to_one_everywhere(self, pair_model):
        model = pair_model.model
        stages = list(model.single.values()) + list(model.family.values()) + [model.multi]
        for stage in stages:
            assert abs(stage.expert_weights.sum() - 1.0) <= 1e-12

    def test_empty_component_is_skipped(self):
        # seed 0 leaves component 0 of the three single-stage components
        # without a member
        xs = [2.0, -6.0, 1.0, 3.0]
        store = store_from("aa", [(f"w{i}", [x, 0.0]) for i, x in enumerate(xs)])
        tax = LanguageTaxonomy((FamilyEntry("fam", ("aa",)),))
        model = build_cluster_model(
            {"aa": store}, zero_pos(), tax, KPolicy(3, 2, 1), GmmConfig(k=1, seed=0)
        )
        stage = model.single["aa"]
        assert stage.gmm.k == 3
        assert stage.gmm.assignments.tolist() == [2, 1, 2, 2]
        assert stage.members == [["w1"], ["w0", "w2", "w3"]]
        assert np.array_equal(stage.centers, stage.gmm.means[[1, 2]])
        assert stage.expert_weights.tolist() == [0.25, 0.75]
        # the chain names compact cluster ids, and the family stage fits
        # one point per non-empty cluster
        assert {word: t for word, (t, _, _) in model.chain["aa"].items()} == {
            "w0": 1, "w1": 0, "w2": 1, "w3": 1
        }
        family = model.family["fam"]
        assert sorted(m for members in family.members for m in members) == [("aa", 0), ("aa", 1)]
        assert len(family.gmm.assignments) == 2

    def test_unknown_language_rejected(self):
        store = store_from("zz", [("x", [0.0, 0.0]), ("y", [1.0, 1.0])])
        tax = LanguageTaxonomy((FamilyEntry("fam", ("aa",)),))
        with pytest.raises(UnknownLanguageError):
            build_cluster_model({"zz": store}, zero_pos(), tax, KPolicy(1, 1, 1), CFG)

    def test_no_stores_rejected(self):
        tax = LanguageTaxonomy((FamilyEntry("fam", ("aa",)),))
        with pytest.raises(ValueError):
            build_cluster_model({}, zero_pos(), tax, KPolicy(1, 1, 1), CFG)

    def test_mixed_dimensions_rejected(self):
        tax = LanguageTaxonomy((FamilyEntry("fam", ("aa", "bb")),))
        stores = {
            "aa": store_from("aa", [("x", [0.0, 0.0]), ("y", [1.0, 0.0])]),
            "bb": store_from("bb", [("u", [0.0, 0.0, 0.0]), ("v", [1.0, 0.0, 0.0])]),
        }
        with pytest.raises(DimensionMismatchError):
            build_cluster_model(stores, zero_pos(), tax, KPolicy(1, 1, 1), CFG)

    def test_clamp_warning_surfaces_on_model(self):
        store = store_from("aa", [("x", [0.0, 0.0]), ("y", [5.0, 5.0])])
        tax = LanguageTaxonomy((FamilyEntry("fam", ("aa",)),))
        model = build_cluster_model(
            {"aa": store}, zero_pos(), tax, KPolicy(5, 1, 1), CFG
        )
        assert any("clamped" in w for w in model.warnings)

    def test_deterministic_rebuild(self):
        stores, _ = synonym_stores(("aa", "bb"), groups=2, words_per_group=2, dim=4, seed=9)
        tax = LanguageTaxonomy((FamilyEntry("fam", ("aa", "bb")),))
        kwargs = dict(
            stores=stores, pos=zero_pos(), tax=tax, k_policy=KPolicy(2, 2, 2), cfg=CFG
        )
        a = build_cluster_model(**kwargs)
        b = build_cluster_model(**kwargs)
        assert a.chain == b.chain
        assert np.array_equal(a.multi.centers, b.multi.centers)
        for lang in stores:
            assert np.array_equal(a.single[lang].centers, b.single[lang].centers)
