import json
import struct

import numpy as np
import pytest

from helpers import store_entries, store_from, synonym_stores, write_vectors
from psda.domino import KPolicy, build_cluster_model
from psda.embeddings import UPOS_TAGS, PosTagging, load_vectors
from psda.errors import ModelFormatError
from psda.gmm import GmmConfig
from psda.model_io import MODEL_MAGIC, load_model, read_manifest, save_model
from psda.taxonomy import FamilyEntry, LanguageTaxonomy


def quantized(arr):
    """The exact float64 values an array takes after a float32 round trip."""
    return np.ascontiguousarray(arr, dtype="<f4").astype(np.float64)


def tiny_model(words=("zebra", "apple", "mango")):
    entries = {w: np.array([10.0 * i + 0.1, 1.0]) for i, w in enumerate(words)}
    store = store_from("aa", entries)
    tax = LanguageTaxonomy((FamilyEntry("fam", ("aa",)),))
    pos = PosTagging(tags={}, projection=np.zeros((1, len(UPOS_TAGS))), bias=np.zeros(1))
    model = build_cluster_model({"aa": store}, pos, tax, KPolicy(1, 1, 1), GmmConfig(k=1, seed=0))
    return model, store


def craft_container(path, manifest_obj):
    body = json.dumps(manifest_obj).encode("utf-8")
    path.write_bytes(MODEL_MAGIC + struct.pack("<Q", len(body)) + body)


def stages(model):
    yield from model.single.values()
    yield from model.family.values()
    yield model.multi


class TestRoundTrip:
    def test_full_model_survives(self, tmp_path, pair_model):
        model = pair_model.model
        path = tmp_path / "model.psda"
        save_model(path, model)
        loaded = load_model(path)

        assert loaded.chain == model.chain
        assert loaded.embed_dim == model.embed_dim
        assert loaded.seed == model.seed
        assert loaded.k_policy == model.k_policy
        for a, b in zip(stages(model), stages(loaded), strict=True):
            assert b.scope_id == a.scope_id
            assert b.members == a.members
            assert b.warnings == a.warnings
            assert np.array_equal(b.expert_weights, a.expert_weights)
            used = np.unique(a.gmm.assignments)
            assert np.array_equal(b.centers, quantized(a.gmm.means[used]))
            assert np.array_equal(b.weighted_centers(), a.expert_weights[:, None] * b.centers)
        for lang, matrix in model.word_embeddings.items():
            assert np.array_equal(loaded.word_embeddings[lang], quantized(matrix))

    def test_chain_order_survives_non_alphabetical_vocab(self, tmp_path):
        model, _ = tiny_model(("zebra", "apple", "mango"))
        assert list(model.chain["aa"]) == ["zebra", "apple", "mango"]
        path = tmp_path / "tiny.psda"
        save_model(path, model)
        loaded = load_model(path)
        assert list(loaded.chain["aa"]) == ["zebra", "apple", "mango"]
        assert np.array_equal(
            loaded.word_embeddings["aa"], quantized(model.word_embeddings["aa"])
        )

    def test_gmm_parameters_survive(self, tmp_path, pair_model):
        model = pair_model.model
        path = tmp_path / "model.psda"
        save_model(path, model)
        loaded = load_model(path)
        for a, b in zip(stages(model), stages(loaded), strict=True):
            assert np.array_equal(b.gmm.means, quantized(a.gmm.means))
            assert np.array_equal(b.gmm.variances, quantized(a.gmm.variances))
            assert np.array_equal(b.gmm.mixing_weights, quantized(a.gmm.mixing_weights))
            assert np.array_equal(b.gmm.assignments, a.gmm.assignments)
            assert b.gmm.log_likelihood_trace == a.gmm.log_likelihood_trace
            assert b.gmm.covariance == a.gmm.covariance
            # the convergence flag is reported, not saved
            assert a.gmm.converged is not None and b.gmm.converged is None

    def test_loaded_chain_follows_stored_members(self, tmp_path, pair_model):
        path = tmp_path / "model.psda"
        save_model(path, pair_model.model)
        loaded = load_model(path)
        for lang, chains in loaded.chain.items():
            fam = pair_model.tax.family_of(lang)
            for word, (t, g, q) in chains.items():
                assert word in loaded.chain[lang]
                assert word in loaded.single[lang].members[t]
                assert (lang, t) in loaded.family[fam].members[g]
                assert (fam, g) in loaded.multi.members[q]


class TestDeterminism:
    def test_identical_bytes_across_saves(self, tmp_path):
        model, _ = tiny_model()
        a = tmp_path / "a.psda"
        b = tmp_path / "b.psda"
        save_model(a, model)
        save_model(b, model)
        assert a.read_bytes() == b.read_bytes()


class TestManifest:
    def test_config_echo_round_trips(self, tmp_path):
        model, _ = tiny_model()
        path = tmp_path / "m.psda"
        save_model(path, model, config={"seed": "1", "k.single": "1"})
        manifest = read_manifest(path)
        assert manifest["config"] == {"seed": "1", "k.single": "1"}
        assert manifest["format"] == "psda-model"
        assert manifest["version"] == 2

    def test_config_absent_when_not_given(self, tmp_path):
        model, _ = tiny_model()
        path = tmp_path / "m.psda"
        save_model(path, model)
        assert "config" not in read_manifest(path)

    def test_payload_holds_each_array_once(self, tmp_path, pair_model):
        # per stage the fit's means, variances and mixing weights, plus the
        # word embeddings: no centers beside the means
        model = pair_model.model
        path = tmp_path / "m.psda"
        save_model(path, model)
        manifest = read_manifest(path)
        floats = sum(
            stage.gmm.means.size + stage.gmm.variances.size + stage.gmm.mixing_weights.size
            for stage in stages(model)
        )
        floats += sum(m.size for m in model.word_embeddings.values())
        assert sum(e["nbytes"] for e in manifest["arrays"]) == 4 * floats
        body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
        assert path.stat().st_size == len(MODEL_MAGIC) + 8 + len(body) + 4 * floats
        saved = manifest["stages"]
        for stage in [*saved["single"].values(), *saved["family"].values(), saved["multi"]]:
            assert sorted(stage) == ["expert_weights", "gmm", "members", "scope_id", "warnings"]

    def test_words_record_row_order(self, tmp_path):
        model, _ = tiny_model(("zebra", "apple", "mango"))
        path = tmp_path / "m.psda"
        save_model(path, model)
        assert read_manifest(path)["words"]["aa"] == ["zebra", "apple", "mango"]


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        model, _ = tiny_model()
        path = tmp_path / "m.psda"
        save_model(path, model)
        data = path.read_bytes()
        path.write_bytes(b"XXDAMDL\x00" + data[8:])
        with pytest.raises(ModelFormatError, match="magic"):
            read_manifest(path)

    def test_truncated_payload(self, tmp_path):
        model, _ = tiny_model()
        path = tmp_path / "m.psda"
        save_model(path, model)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "m.psda"
        path.write_bytes(MODEL_MAGIC + b"\x01\x02")
        with pytest.raises(ModelFormatError, match="truncated"):
            read_manifest(path)

    def test_unknown_format_name(self, tmp_path):
        path = tmp_path / "m.psda"
        craft_container(path, {"format": "other-thing", "version": 1})
        with pytest.raises(ModelFormatError, match="format"):
            read_manifest(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.psda"
        craft_container(path, {"format": "psda-model", "version": 99})
        with pytest.raises(ModelFormatError, match="version"):
            read_manifest(path)

    def test_version_1_rejected(self, tmp_path):
        path = tmp_path / "m.psda"
        craft_container(path, {"format": "psda-model", "version": 1})
        with pytest.raises(ModelFormatError, match="version 1"):
            load_model(path)

    def test_flipped_payload_byte_fails_crc(self, tmp_path):
        model, _ = tiny_model()
        path = tmp_path / "m.psda"
        save_model(path, model)
        data = bytearray(path.read_bytes())
        data[-5] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="CRC"):
            load_model(path)

    def test_manifest_not_json(self, tmp_path):
        path = tmp_path / "m.psda"
        body = b"{definitely not json"
        path.write_bytes(MODEL_MAGIC + struct.pack("<Q", len(body)) + body)
        with pytest.raises(ModelFormatError, match="JSON"):
            read_manifest(path)


def rewritten(path, edit):
    """Rewrite a saved model's manifest with ``edit`` applied; the payload,
    and so its CRC, stay as they are."""
    data = path.read_bytes()
    start = len(MODEL_MAGIC) + 8
    (length,) = struct.unpack("<Q", data[len(MODEL_MAGIC) : start])
    manifest = json.loads(data[start : start + length])
    edit(manifest)
    body = json.dumps(manifest).encode("utf-8")
    path.write_bytes(MODEL_MAGIC + struct.pack("<Q", len(body)) + body + data[start + length :])


def swap_words(m):
    m["words"]["aa"][:2] = m["words"]["aa"][1::-1]


class TestChainCheck:
    """The chain is derived from the stages' members on load; the copy
    the manifest keeps for its readers must agree with it."""

    def test_two_families_give_the_taxonomy_walk(self, tmp_path):
        stores, _ = synonym_stores(
            languages=("aa", "bb", "cc"), groups=3, words_per_group=3, dim=6, seed=5
        )
        tax = LanguageTaxonomy((FamilyEntry("fx", ("aa", "cc")), FamilyEntry("fy", ("bb",))))
        pos = PosTagging.seeded({}, projection_dim=4, seed=0)
        model = build_cluster_model(stores, pos, tax, KPolicy(3, 2, 2), GmmConfig(k=1, seed=7))
        assert sorted(model.family) == ["fx", "fy"]
        # each word's family found through the taxonomy, not the members
        family_of = {fam: stage.cluster_of() for fam, stage in model.family.items()}
        multi_of = model.multi.cluster_of()
        reference = {}
        for lang in ("aa", "bb", "cc"):
            fam = tax.family_of(lang)
            single_of = model.single[lang].cluster_of()
            reference[lang] = []
            for word in stores[lang].words:
                t = single_of[word]
                g = family_of[fam][(lang, t)]
                reference[lang].append((word, (t, g, multi_of[(fam, g)])))
        path = tmp_path / "m.psda"
        save_model(path, model)
        for chain in (model.chain, load_model(path).chain):
            assert {lang: list(words.items()) for lang, words in chain.items()} == reference

    def test_chain_follows_the_members_in_row_order(self, tmp_path, pair_model):
        path = tmp_path / "m.psda"
        save_model(path, pair_model.model)
        loaded = load_model(path)
        for lang, chain in pair_model.model.chain.items():
            assert list(loaded.chain[lang].items()) == list(chain.items())

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda m: m["chain"]["aa"]["apple"].__setitem__(0, 1), "chain of 'aa'"),
            (lambda m: m["chain"]["aa"].pop("apple"), "chain of 'aa'"),
            (lambda m: m["chain"]["aa"].__setitem__("kiwi", [0, 0, 0]), "chain of 'aa'"),
            (lambda m: m["chain"].__setitem__("bb", {}), "chain do not name"),
            (lambda m: m["words"]["aa"].append("apple"), "words of 'aa'"),
            (lambda m: m["words"]["aa"].remove("apple"), "words of 'aa'"),
            (lambda m: m["words"]["aa"].__setitem__(0, "kiwi"), "words of 'aa'"),
            (lambda m: m["words"].pop("aa"), "words or chain"),
        ],
        ids=[
            "chain-entry-edited", "chain-entry-dropped", "chain-entry-added",
            "chain-language-added", "word-repeated", "word-dropped", "word-renamed",
            "words-language-dropped",
        ],
    )
    def test_disagreeing_manifest_rejected(self, tmp_path, edit, match):
        model, _ = tiny_model()
        path = tmp_path / "m.psda"
        save_model(path, model)
        rewritten(path, edit)
        with pytest.raises(ModelFormatError, match=match):
            load_model(path)

    def test_reordered_words_move_the_rows_not_the_chain(self, tmp_path):
        model, _ = tiny_model()
        path = tmp_path / "m.psda"
        save_model(path, model)
        rewritten(path, swap_words)
        assert list(load_model(path).chain["aa"]) == ["apple", "zebra", "mango"]



DIGEST = "0123456789abcdef" * 4


class TestEmbeddingsDigests:
    """``embeddings_sha256`` maps a language to the SHA-256 of the file its
    vectors came from; it is written only when the model has one."""

    def test_digests_round_trip(self, tmp_path):
        model, _ = tiny_model()
        model.embeddings_sha256 = {"aa": DIGEST}
        path = tmp_path / "m.psda"
        save_model(path, model)
        assert read_manifest(path)["embeddings_sha256"] == {"aa": DIGEST}
        assert load_model(path).embeddings_sha256 == {"aa": DIGEST}

    def test_stores_built_in_memory_record_none(self, tmp_path):
        model, _ = tiny_model()
        assert model.embeddings_sha256 == {}
        path = tmp_path / "m.psda"
        save_model(path, model)
        assert "embeddings_sha256" not in read_manifest(path)
        assert load_model(path).embeddings_sha256 == {}

    def test_loaded_stores_give_their_digests(self, tmp_path):
        _, store = tiny_model()
        path = tmp_path / "vec_aa.txt"
        write_vectors(path, "aa", store_entries(store))
        loaded = load_vectors(path, "aa")
        tax = LanguageTaxonomy((FamilyEntry("fam", ("aa",)),))
        pos = PosTagging(tags={}, projection=np.zeros((1, len(UPOS_TAGS))), bias=np.zeros(1))
        model = build_cluster_model(
            {"aa": loaded}, pos, tax, KPolicy(1, 1, 1), GmmConfig(k=1, seed=0)
        )
        assert model.embeddings_sha256 == {"aa": loaded.sha256}
        assert len(loaded.sha256) == 64

    @pytest.mark.parametrize(
        "digests",
        [
            [DIGEST],
            DIGEST,
            {"bb": DIGEST},
            {"aa": DIGEST.upper()},
            {"aa": DIGEST[:-1]},
            {"aa": DIGEST + "0"},
            {"aa": DIGEST[:-1] + "g"},
            {"aa": int("1" * 20)},
            {"aa": None},
        ],
        ids=[
            "list", "string", "unknown-language", "upper-case", "short", "long",
            "not-hex", "number", "null",
        ],
    )
    def test_malformed_digest_map_rejected(self, tmp_path, digests):
        model, _ = tiny_model()
        path = tmp_path / "m.psda"
        save_model(path, model)
        rewritten(path, lambda m: m.__setitem__("embeddings_sha256", digests))
        with pytest.raises(ModelFormatError, match="embeddings_sha256"):
            load_model(path)


class TestManifestFieldsOutsideTheCrc:
    """The manifest's ``config`` and array shapes are checked on read: the
    payload CRC covers neither."""

    @pytest.mark.parametrize(
        "config",
        [["seed", "1"], "seed=1", 1, None, {"a": {"b": "1"}}, {"seed": 1}],
        ids=["list", "string", "number", "null", "nested", "number-value"],
    )
    def test_config_that_is_not_an_object_of_strings_rejected(self, tmp_path, config):
        model, _ = tiny_model()
        path = tmp_path / "m.psda"
        save_model(path, model, config={"seed": "1"})
        rewritten(path, lambda m: m.__setitem__("config", config))
        with pytest.raises(ModelFormatError, match="config"):
            read_manifest(path)

    @pytest.mark.parametrize(
        "shape",
        [
            lambda s: [-1],
            lambda s: [-n for n in s],
            lambda s: s + [2],
            lambda s: [str(n) for n in s],
            lambda s: [float(n) for n in s],
            lambda s: len(s),
        ],
        ids=["minus-one", "negated", "wrong-size", "strings", "floats", "not-a-list"],
    )
    def test_array_shape_not_giving_its_bytes_rejected(self, tmp_path, shape):
        model, _ = tiny_model()
        path = tmp_path / "m.psda"
        save_model(path, model)
        entry = read_manifest(path)["arrays"][0]
        assert len(entry["shape"]) == 2
        rewritten(path, lambda m: m["arrays"][0].__setitem__("shape", shape(entry["shape"])))
        with pytest.raises(ModelFormatError, match="shape"):
            load_model(path)
