from types import SimpleNamespace

import pytest

from helpers import (
    conllu_block,
    store_entries,
    synonym_stores,
    write_conllu,
    write_taxonomy,
    write_vectors,
)

from psda.domino import KPolicy, build_cluster_model
from psda.embeddings import PosTagging
from psda.gmm import GmmConfig
from psda.taxonomy import FamilyEntry, LanguageTaxonomy


@pytest.fixture(scope="session")
def pair_model():
    """Two-language fitted model over a cleanly separable synonym vocabulary.

    Three groups, three words per group per language; single/family/multi
    all run with k=3, so multi cluster ids coincide with the true groups.
    """
    stores, group_of = synonym_stores(
        languages=("aa", "bb"), groups=3, words_per_group=3, dim=6, seed=5
    )
    tax = LanguageTaxonomy((FamilyEntry("germ", ("aa", "bb")),))
    pos = PosTagging.seeded({}, projection_dim=4, seed=0)
    kp = KPolicy(single=3, family=3, multi=3)
    model = build_cluster_model(stores, pos, tax, kp, GmmConfig(k=1, seed=7))
    return SimpleNamespace(
        stores=stores, group_of=group_of, tax=tax, pos=pos, k_policy=kp, model=model
    )


def _block_svo(lang, subj, verb, obj):
    return conllu_block(
        lang,
        [(subj, "NOUN", 2, "nsubj"), (verb, "VERB", 0, "root"), (obj, "NOUN", 2, "obj")],
    )


@pytest.fixture(scope="session")
def cli_workspace(tmp_path_factory):
    """Input files for CLI runs: vectors, taxonomy, corpus, config."""
    root = tmp_path_factory.mktemp("cli")
    stores, group_of = synonym_stores(
        languages=("aa", "bb"), groups=3, words_per_group=3, dim=6, seed=5
    )
    for lang, store in stores.items():
        write_vectors(root / f"vec_{lang}.txt", lang, store_entries(store))
    write_taxonomy(root / "families.txt", {"germ": ["aa", "bb"]})
    blocks = [
        _block_svo("aa", "aa_g0_w0", "aa_g1_w0", "aa_g2_w1"),
        _block_svo("bb", "bb_g0_w1", "bb_g1_w1", "bb_g2_w0"),
        # no SVO roles at all: must pass through untouched
        conllu_block("aa", [("aa_g0_w2", "X", 0, "dep"), ("aa_g1_w2", "X", 1, "dep")]),
    ]
    write_conllu(root / "corpus.conllu", blocks)
    cfg = root / "psda.cfg"
    cfg.write_text(
        "taxonomy = families.txt\n"
        "corpus = corpus.conllu\n"
        "embeddings.aa = vec_aa.txt\n"
        "embeddings.bb = vec_bb.txt\n"
        "k.single = 3\n"
        "k.family = 3\n"
        "k.multi = 3\n"
        "pos.dim = 4\n"
        "seed = 1\n",
        encoding="utf-8",
    )
    return SimpleNamespace(root=root, config=str(cfg), stores=stores, group_of=group_of)


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""

    def run(*argv):
        from psda.cli import main

        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run
