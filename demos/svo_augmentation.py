# Replace subject, verb and object rows of sentence matrices with
# cross-language synonyms drawn from the fitted cluster model.
#
#   python3 demos/svo_augmentation.py

import numpy as np

from psda.augment import augment_sentence, build_candidate_index, sentence_seed
from psda.corpus import SentenceRecord, assemble_sentence
from psda.domino import KPolicy, build_cluster_model
from psda.embeddings import PosTagging, VocabStore
from psda.gmm import GmmConfig
from psda.taxonomy import FamilyEntry, LanguageTaxonomy


def toy_model(seed=3):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(4, 6)) * 20.0
    stores = {}
    for lang in ("en", "sv"):
        entries = {}
        for g, stem in enumerate(("dog", "chase", "ball", "fast")):
            for w in range(3):
                entries[f"{lang}_{stem}{w}"] = centers[g] + rng.normal(size=6) * 0.02
        stores[lang] = VocabStore(lang=lang, dim=6, entries=entries)
    tax = LanguageTaxonomy(families=(FamilyEntry("germanic", ("en", "sv")),))
    tags = {w: "NOUN" for s in stores.values() for w in s.words}
    model = build_cluster_model(
        stores, PosTagging.seeded(tags, projection_dim=3, seed=0), tax,
        KPolicy(single=4, family=4, multi=4), GmmConfig(k=1, seed=1),
    )
    return stores, model


def show(rec, result):
    moved = {r.position: r for r in result.replacements}
    print(f"  sentence ({rec.lang}): {' '.join(rec.tokens)}")
    for i, tok in enumerate(rec.tokens):
        if i in moved:
            r = moved[i]
            print(f"    [{i}] {tok:12s} -> {r.candidate_lang}:{r.candidate_word}"
                  f"  ({r.role}, cluster {r.multi_cluster})")
        else:
            same = np.array_equal(result.original[i], result.augmented[i])
            print(f"    [{i}] {tok:12s} unchanged (row bit-identical: {same})")
    for s in result.skipped:
        print(f"    skipped {s.role} {s.word!r}: {s.reason}")


def main():
    stores, model = toy_model()
    index = build_candidate_index(model, stores)

    # per top-level cluster, one run of store rows per language
    pool_sizes = {
        q: {lang: len(rows) for lang, _, _, rows in runs} for q, runs in sorted(index.items())
    }
    print("candidate pools per top-level cluster and language:", pool_sizes)

    rec = SentenceRecord(
        lang="en",
        tokens=("en_dog0", "en_chase1", "en_ball2", "en_fast0"),
        subject=0, verb=1, object=2,
    )
    mat = assemble_sentence(rec, stores["en"])
    print("\nmatrix shape", mat.shape, "from raw store vectors")

    result = augment_sentence(rec, mat, model, index, seed=sentence_seed(0, rec, 0))
    print("\naugmented copy 0")
    show(rec, result)

    # a different copy index reseeds the draws, so replacements differ
    # while the set of replaced positions stays the same
    other = augment_sentence(rec, mat, model, index, seed=sentence_seed(0, rec, 1))
    picks0 = [(r.candidate_lang, r.candidate_word) for r in result.replacements]
    picks1 = [(r.candidate_lang, r.candidate_word) for r in other.replacements]
    print("\ncopy 0 picks:", picks0)
    print("copy 1 picks:", picks1)

    # replacements always leave the source language
    assert all(r.candidate_lang != rec.lang for r in result.replacements)
    # and stay inside the source word's own top-level cluster
    for r in result.replacements:
        assert model.chain_of(r.candidate_lang, r.candidate_word)[2] == r.multi_cluster

    rerun = augment_sentence(rec, mat, model, index, seed=sentence_seed(0, rec, 0))
    print("\nsame seed reruns bit-identical:",
          np.array_equal(result.augmented, rerun.augmented))

    plain = SentenceRecord(lang="en", tokens=("en_fast1", "en_fast2"))
    passthrough = augment_sentence(
        plain, assemble_sentence(plain, stores["en"]), model, index, seed=0
    )
    print("sentence without SVO roles passes through untouched:",
          not passthrough.changed,
          "(matrix equal:", np.array_equal(passthrough.original, passthrough.augmented), ")")


if __name__ == "__main__":
    main()
