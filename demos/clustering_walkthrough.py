"""Walk the three clustering stages on a synthetic synonym vocabulary.

Builds three toy languages whose words fall into known synonym groups,
fits the stage chain, and checks how well the top-level clusters recover
the planted groups.  Run with:  python3 demos/clustering_walkthrough.py
"""

import numpy as np

from psda.domino import KPolicy, build_cluster_model
from psda.embeddings import PosTagging, VocabStore
from psda.gmm import GmmConfig
from psda.taxonomy import FamilyEntry, LanguageTaxonomy

GROUPS = 6
WORDS_PER_GROUP = 4
DIM = 10
NOISE = 0.05


def make_stores(languages, seed):
    """One shared center per synonym group, per-language noisy copies."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(GROUPS, DIM)) * 25.0
    stores = {}
    group_of = {}
    for lang in languages:
        entries = {}
        for g in range(GROUPS):
            for w in range(WORDS_PER_GROUP):
                word = f"{lang}_g{g}_w{w}"
                entries[word] = centers[g] + rng.normal(size=DIM) * NOISE
                group_of[(lang, word)] = g
        stores[lang] = VocabStore(lang=lang, dim=DIM, entries=entries)
    return stores, group_of


def main():
    languages = ("de", "nl", "fr")
    stores, group_of = make_stores(languages, seed=42)
    tax = LanguageTaxonomy(
        families=(
            FamilyEntry("germanic", ("de", "nl")),
            FamilyEntry("romance", ("fr",)),
        )
    )
    tags = {w: "NOUN" for s in stores.values() for w in s.words}
    pos = PosTagging.seeded(tags, projection_dim=4, seed=0)

    print("vocabulary: %d languages x %d groups x %d words, dim %d"
          % (len(languages), GROUPS, WORDS_PER_GROUP, DIM))

    model = build_cluster_model(
        stores,
        pos,
        tax,
        KPolicy(single=GROUPS, family=GROUPS, multi=GROUPS),
        GmmConfig(k=1, seed=7),
    )

    # a stage keeps its fitted mixture and the members of each component
    # that holds any; centers and expert weights are derived from those
    print("\nstage 1, one mixture per language")
    for lang in sorted(model.single):
        stage = model.single[lang]
        sizes = sorted(len(members) for members in stage.members)
        iters = len(stage.gmm.log_likelihood_trace)
        print("  %-3s clusters=%d of k=%d  sizes=%s  em_iters=%d"
              % (lang, len(stage.members), stage.gmm.k, sizes, iters))

    print("\nstage 2, one mixture per family (inputs are weighted stage-1 centers)")
    for fam in sorted(model.family):
        stage = model.family[fam]
        w = stage.expert_weights
        print("  %-8s clusters=%d  weight_sum=%.12f" % (fam, len(stage.members), w.sum()))

    stage = model.multi
    print("\nstage 3, the shared mixture over family centers")
    print("  clusters=%d  weight_sum=%.12f" % (len(stage.members), stage.expert_weights.sum()))

    # every word carries a (single, family, multi) chain; purity of the
    # top level against the planted groups is the quantity that matters
    by_cluster = {}
    for lang in languages:
        for word in stores[lang].words:
            _, _, q = model.chain[lang][word]
            by_cluster.setdefault(q, []).append(group_of[(lang, word)])

    total = 0
    agree = 0
    print("\ntop-level cluster contents")
    for q in sorted(by_cluster):
        groups = by_cluster[q]
        counts = np.bincount(groups, minlength=GROUPS)
        majority = int(counts.argmax())
        agree += int(counts.max())
        total += len(groups)
        print("  cluster %d: %2d words, majority group %d (%d/%d)"
              % (q, len(groups), majority, counts.max(), len(groups)))

    purity = agree / total
    print("\npurity against planted groups: %.3f" % purity)
    assert purity > 0.9, "clusters should recover the planted synonym groups"


if __name__ == "__main__":
    main()
