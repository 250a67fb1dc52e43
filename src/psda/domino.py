"""Three-stage chained clustering over language granularities.

Stage one clusters each language's POS-augmented word embeddings with a
GMM.  Each cluster gets a gate-style expert weight (its member share of
the scope), and the weighted cluster centers become the data points of
the next stage: per language family first, then one global pool.  Every
word is finally resolved to a (single, family, multi) cluster chain by
reading the memberships the fits recorded: the stage above assigned each
cluster to one of its own, and the chain follows those assignments.
``read_chain`` is the one reader of chains from members, at build and at
load alike.

A stage keeps two facts: its fitted mixture and the members of each
non-empty component.  Centers are the rows of the mixture's means that
hold a member, and expert weights are member counts over the total; both
are derived on demand, never stored beside the fit.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .embeddings import PosTagging, VocabStore, final_embeddings
from .errors import DimensionMismatchError
from .gmm import GmmConfig, GmmModel, gmm_fit
from .taxonomy import LanguageTaxonomy
from .util import derive_seed

MULTI_SCOPE = "MUL"


@dataclass(frozen=True)
class KPolicy:
    """Per-stage cluster counts; ``None`` means ceil(sqrt(n)) for n points."""

    single: Optional[int] = None
    family: Optional[int] = None
    multi: Optional[int] = None

    def __post_init__(self):
        for stage in ("single", "family", "multi"):
            k = getattr(self, stage)
            if k is not None and k < 1:
                raise ValueError(f"k for stage {stage!r} must be at least 1, got {k}")

    def resolve(self, stage: str, n: int) -> tuple[int, Optional[str]]:
        requested = getattr(self, stage)
        k = requested if requested is not None else max(1, math.ceil(math.sqrt(n)))
        if k > n:
            return n, f"{stage}: requested k={k} clamped to {n} points"
        return k, None


@dataclass
class StageClusters:
    """One scope's clustering: the fitted mixture and the members of each
    non-empty component.

    ``members[t]`` holds the ids hard-assigned to the t-th non-empty
    component, in component order.  Empty components (no hard-assigned
    member) are skipped, so the next stage never sees a zero-weight
    center.  Centers and expert weights are derived from the fit.
    """

    scope_id: str
    members: list[list]
    gmm: GmmModel
    warnings: list[str] = field(default_factory=list)

    @property
    def centers(self) -> np.ndarray:
        # the non-empty components in order; np.unique would import numpy.ma
        used = np.bincount(self.gmm.assignments, minlength=self.gmm.k)
        return self.gmm.means[np.flatnonzero(used)]

    @property
    def expert_weights(self) -> np.ndarray:
        """Each cluster's member share of the scope (its gate weight)."""
        total = sum(len(m) for m in self.members)
        return np.array([len(m) / total for m in self.members])

    def weighted_centers(self) -> np.ndarray:
        """Each cluster's expert weight broadcast over its center vector;
        the data points handed to the parent stage."""
        return self.expert_weights[:, None] * self.centers

    def cluster_of(self) -> dict:
        """Each member's id mapped to the index of the cluster holding it."""
        return {m: t for t, members in enumerate(self.members) for m in members}


def _fit_stage(kind, scope_id, ids, points, k_policy: KPolicy, cfg: GmmConfig) -> StageClusters:
    """Fit one scope's mixture to ``points`` (row i standing for ``ids[i]``)
    and group the ids by non-empty component, in component order."""
    k, warning = k_policy.resolve(kind, len(ids))
    model = gmm_fit(points, replace(cfg, k=k, seed=derive_seed(cfg.seed, kind, scope_id)))
    by_component: dict[int, list] = {}
    for mid, comp in zip(ids, model.assignments, strict=True):
        by_component.setdefault(int(comp), []).append(mid)
    members = [by_component[comp] for comp in sorted(by_component)]
    return StageClusters(scope_id, members, model, [warning] if warning else [])


def cluster_single_language(
    lang: str,
    words: list[str],
    matrix: np.ndarray,
    k_policy: KPolicy,
    cfg: GmmConfig,
) -> StageClusters:
    """Cluster one language's words, row i of ``matrix`` holding the final
    embedding of ``words[i]``."""
    if not words:
        raise ValueError(f"language {lang!r} has no words to cluster")
    return _fit_stage("single", lang, words, matrix, k_policy, cfg)


def _cluster_centers_stage(
    scope_kind: str,
    scope_id: str,
    children: list[StageClusters],
    k_policy: KPolicy,
    cfg: GmmConfig,
) -> StageClusters:
    ids = [(child.scope_id, t) for child in children for t in range(len(child.members))]
    rows = [row for child in children for row in child.weighted_centers()]
    if not ids:
        raise ValueError(f"{scope_kind} scope {scope_id!r} has no input clusters")
    dims = {r.shape[0] for r in rows}
    if len(dims) != 1:
        raise DimensionMismatchError(f"{scope_kind} scope {scope_id!r} mixes dims {sorted(dims)}")
    return _fit_stage(scope_kind, scope_id, ids, np.stack(rows), k_policy, cfg)


def cluster_family(
    family: str,
    per_language: list[StageClusters],
    k_policy: KPolicy,
    cfg: GmmConfig,
) -> StageClusters:
    """Cluster the expert-weighted single-language centers of one family."""
    return _cluster_centers_stage("family", family, per_language, k_policy, cfg)


def cluster_multi(
    per_family: list[StageClusters],
    k_policy: KPolicy,
    cfg: GmmConfig,
) -> StageClusters:
    """Cluster the expert-weighted family centers of the global pool."""
    return _cluster_centers_stage("multi", MULTI_SCOPE, per_family, k_policy, cfg)


@dataclass
class ClusterModel:
    """Full three-stage result plus the per-word cluster chain.

    ``chain[lang][word]`` is (single_id, family_id, multi_id).  Word
    embeddings (final, d+p) are retained per language, row-aligned with
    the chain's insertion order, so reports can be produced from the
    serialized model alone.  ``embeddings_sha256[lang]`` is the SHA-256
    hex digest of the embeddings file a language's store was loaded from
    (absent for a store built in memory).
    """

    single: dict[str, StageClusters]
    family: dict[str, StageClusters]
    multi: StageClusters
    chain: dict[str, dict[str, tuple[int, int, int]]]
    embed_dim: int
    seed: int
    k_policy: KPolicy
    word_embeddings: dict[str, np.ndarray] = field(default_factory=dict)
    embeddings_sha256: dict[str, str] = field(default_factory=dict)

    @property
    def warnings(self) -> list[str]:
        out = []
        for stage in list(self.single.values()) + list(self.family.values()) + [self.multi]:
            out.extend(f"{stage.scope_id}: {w}" for w in stage.warnings)
        return out


def read_chain(
    single: dict[str, StageClusters],
    family: dict[str, StageClusters],
    multi: StageClusters,
    words: dict[str, list[str]],
) -> dict[str, dict[str, tuple[int, int, int]]]:
    """Each word's (single, family, multi) cluster ids, read from the
    stages' members, with ``words[lang]`` giving each language's order.

    A word's single cluster t holds it, its family cluster g holds
    (lang, t), and its multi cluster holds (family, g).  Raises
    ``ValueError`` when ``words[lang]`` is not exactly the members of
    ``single[lang]``.
    """
    multi_of = multi.cluster_of()
    above = {
        (lang, t): (g, multi_of[(fam, g)])
        for fam, stage in family.items()
        for (lang, t), g in stage.cluster_of().items()
    }
    chain = {}
    for lang, stage in single.items():
        single_of = stage.cluster_of()
        counts = (len(words[lang]), len(single_of), sum(len(m) for m in stage.members))
        if len(set(counts)) != 1 or single_of.keys() != set(words[lang]):
            raise ValueError(f"words of {lang!r} differ from its stage's members")
        triples = [(t, *above[(lang, t)]) for t in range(len(stage.members))]
        chain[lang] = {w: triples[single_of[w]] for w in words[lang]}
    return chain


def build_cluster_model(
    stores: dict[str, VocabStore],
    pos: PosTagging,
    tax: LanguageTaxonomy,
    k_policy: KPolicy,
    cfg: GmmConfig,
) -> ClusterModel:
    """Run the three stages in order and read every word's chain from
    their members (``read_chain``)."""
    if not stores:
        raise ValueError("no vocabulary stores given")
    langs = sorted(stores)
    by_family: dict[str, list[str]] = {}
    for lang in langs:
        # raises UnknownLanguageError before any fit
        by_family.setdefault(tax.family_of(lang), []).append(lang)

    single: dict[str, StageClusters] = {}
    words_by_lang: dict[str, list[str]] = {}
    embeddings_by_lang: dict[str, np.ndarray] = {}
    embed_dim = None
    for lang in langs:
        words, matrix = final_embeddings(stores[lang], pos)
        if embed_dim is None:
            embed_dim = matrix.shape[1]
        elif matrix.shape[1] != embed_dim:
            raise DimensionMismatchError(
                f"store {lang!r} yields dim {matrix.shape[1]}, expected {embed_dim}"
            )
        words_by_lang[lang] = words
        embeddings_by_lang[lang] = matrix
        single[lang] = cluster_single_language(lang, words, matrix, k_policy, cfg)

    family: dict[str, StageClusters] = {}
    for fam in sorted(by_family):
        family[fam] = cluster_family(
            fam, [single[lang] for lang in by_family[fam]], k_policy, cfg
        )

    multi = cluster_multi([family[fam] for fam in sorted(family)], k_policy, cfg)

    return ClusterModel(
        single=single,
        family=family,
        multi=multi,
        chain=read_chain(single, family, multi, words_by_lang),
        embed_dim=int(embed_dim),
        seed=cfg.seed,
        k_policy=k_policy,
        word_embeddings=embeddings_by_lang,
        embeddings_sha256={
            lang: stores[lang].sha256 for lang in langs if stores[lang].sha256 is not None
        },
    )
