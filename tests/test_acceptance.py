"""Acceptance gate: twelve checks covering transport feasibility, the
closed-form and LP limits, EM monotonicity, rotation recovery, gradient
verification, cluster purity, expert weights, replacement invariants,
CLI determinism, the default operating point, and the full pipeline.

Each test prints one [PASS]/[FAIL] line (visible with -s, or in the
failure report) and then asserts.
"""

import contextlib
import hashlib
import io
import itertools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from helpers import synonym_stores

from psda.augment import augment_sentence, build_candidate_index, sentence_seed
from psda.config import DEFAULTS
from psda.corpus import SentenceRecord, assemble_sentence
from psda.domino import KPolicy, build_cluster_model
from psda.embeddings import PosTagging
from psda.gmm import GmmConfig, gmm_fit
from psda.gradcheck import run_gradcheck
from psda.otreg import OtParams, cost_matrix, ot_loss, procrustes_map, sinkhorn
from psda.taxonomy import FamilyEntry, LanguageTaxonomy


def verdict(number: int, ok: bool, description: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def run_cli(*argv) -> tuple[int, str, str]:
    from psda.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_01_transport_feasibility_and_speed():
    worst_error = 0.0
    slowest = 0.0
    all_converged = True
    for seed in range(50):
        rng = np.random.default_rng(seed)
        cost = rng.uniform(0.0, 1.0, size=(16, 16))
        t0 = time.perf_counter()
        res = sinkhorn(cost, 0.1)
        slowest = max(slowest, time.perf_counter() - t0)
        worst_error = max(worst_error, res.marginal_error)
        all_converged = all_converged and res.converged
    ok = all_converged and worst_error <= 1e-8 and slowest < 0.05
    verdict(
        1,
        ok,
        f"50 seeded 16x16 plans feasible within 1e-8 "
        f"(worst {worst_error:.2e}) and under 50ms each (slowest {slowest * 1e3:.1f}ms)",
    )


def test_02_entropic_limits_match_exact_transport():
    ladder = (0.001, 0.01, 0.1, 1.0)
    ok = True
    worst_gap = 0.0
    for n in range(2, 6):
        rng = np.random.default_rng(100 + n)
        cost = cost_matrix(rng.normal(size=(n, 3)) * 2.0, rng.normal(size=(n, 3)) * 2.0)
        # uniform marginals: the exact optimum sits on a permutation
        lp = min(
            sum(cost[i, p] for i, p in enumerate(perm)) / n
            for perm in itertools.permutations(range(n))
        )
        losses = []
        slacks = []
        for eps in ladder:
            res = sinkhorn(cost, eps, max_iter=60000, tol=1e-10)
            # tiny epsilon converges like 1/iterations, so require near
            # feasibility and budget for the misplaced mass in the
            # ordering checks instead of demanding the tolerance itself
            ok = ok and res.marginal_error <= 1e-5
            losses.append(ot_loss(res, cost))
            slacks.append(n * float(cost.max()) * res.marginal_error)
        ok = ok and all(
            losses[i + 1] >= losses[i] - (slacks[i] + slacks[i + 1])
            for i in range(len(losses) - 1)
        )
        ok = ok and all(v >= lp - s for v, s in zip(losses, slacks))
        gap = abs(losses[0] - lp) / lp
        worst_gap = max(worst_gap, gap)
        ok = ok and gap <= 0.01
    verdict(
        2,
        ok,
        f"entropic losses on n<=5 instances are monotone in epsilon, bounded below "
        f"by the exact optimum, and within 1% of it at eps=0.001 (worst gap {worst_gap:.3%})",
    )


def test_03_two_by_two_closed_form():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    res = sinkhorn(cost, 0.1, max_iter=10000, tol=1e-12)
    stay = 0.5 / (1.0 + np.exp(-1.0 / 0.1))
    expected_loss = 2.0 * (0.5 - stay)
    plan_err = abs(res.plan[0, 0] - stay)
    loss_err = abs(ot_loss(res, cost) - expected_loss)
    ok = res.converged and plan_err <= 1e-8 and loss_err <= 1e-8
    verdict(
        3,
        ok,
        f"2x2 symmetric instance matches its closed form "
        f"(plan error {plan_err:.2e}, loss error {loss_err:.2e})",
    )


def test_04_em_likelihood_never_decreases():
    start = time.perf_counter()
    ok = True
    fits = 0
    for n in (20, 200):
        for dim in (2, 50):
            for k in (2, 5):
                for seed in range(100):
                    rng = np.random.default_rng((seed, n, dim, k))
                    points = rng.normal(size=(n, dim))
                    model = gmm_fit(points, GmmConfig(k=k, seed=seed))
                    trace = np.asarray(model.log_likelihood_trace)
                    ok = ok and bool(np.all(np.diff(trace) >= -1e-9))
                    fits += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    verdict(
        4,
        ok,
        f"log-likelihood trace monotone within 1e-9 over {fits} fits "
        f"(n in 20/200, dim in 2/50, k in 2/5; {elapsed:.1f}s)",
    )


def test_05_rotation_recovery():
    ok = True
    worst_fit = 0.0
    worst_orth = 0.0
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        orig = rng.normal(size=(8, 5))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        for scale in (0.5, 2.0, 10.0):
            aug = scale * (orig @ q)
            w, s, _, _ = procrustes_map(orig, aug)
            fit = float(np.max(np.abs(aug @ w / scale - orig)))
            orth = float(np.max(np.abs(w.T @ w - np.eye(5))))
            worst_fit = max(worst_fit, fit)
            worst_orth = max(worst_orth, orth)
            ok = ok and fit <= 1e-8 and orth <= 1e-10
            ok = ok and bool(np.all(np.diff(s) <= 0))
    ok = ok and worst_fit <= 1e-8 and worst_orth <= 1e-10
    verdict(
        5,
        ok,
        f"20 seeded rotations recovered at scales 0.5/2/10 "
        f"(worst fit {worst_fit:.2e}, worst orthogonality {worst_orth:.2e})",
    )


def test_06_analytic_gradients_verified():
    report = run_gradcheck(instances=20, rows=6, dim=4, seed=0)
    worst = max(report.max_error.values())
    ok = report.all_passed and worst <= report.tolerance
    ok = ok and not any(c.skipped for c in report.checks)
    ok = ok and {c.term for c in report.checks} == {"ot", "eig", "dis"}

    # wide instances: the spectral check runs on the four nonzero
    # singular values of each core; the two structural zeros add nothing
    wide = run_gradcheck(instances=20, rows=4, dim=6, seed=0)
    ok = ok and wide.all_passed
    ok = ok and all(c.term == "eig" for c in wide.checks if c.skipped)
    ok = ok and any(c.passed for c in wide.checks if c.term == "ot")
    ok = ok and any(c.passed for c in wide.checks if c.term == "dis")

    code, _, _ = run_cli("gradcheck", "--instances", "20")
    ok = ok and code == 0
    verdict(
        6,
        ok,
        f"finite differences confirm all three gradients on 20 seeded instances "
        f"(max relative error {worst:.2e}) and the gradcheck command exits 0",
    )


def test_07_multi_stage_cluster_purity():
    start = time.perf_counter()
    purities = []
    pos = PosTagging.seeded({}, projection_dim=4, seed=0)
    tax = LanguageTaxonomy(
        (FamilyEntry("west", ("aa", "bb")), FamilyEntry("east", ("cc",)))
    )
    for seed in range(20):
        stores, group_of = synonym_stores(
            languages=("aa", "bb", "cc"),
            groups=10,
            words_per_group=5,
            dim=6,
            noise=0.05,
            seed=1000 + seed,
        )
        model = build_cluster_model(
            stores, pos, tax, KPolicy(single=10, family=10, multi=10),
            GmmConfig(k=1, seed=seed),
        )
        by_cluster = defaultdict(Counter)
        for lang, words in model.chain.items():
            for word, (_, _, q) in words.items():
                by_cluster[q][group_of[(lang, word)]] += 1
        total = sum(sum(c.values()) for c in by_cluster.values())
        majority = sum(max(c.values()) for c in by_cluster.values())
        purities.append(majority / total)
    elapsed = time.perf_counter() - start
    mean_purity = float(np.mean(purities))
    ok = mean_purity >= 0.95 and elapsed < 20.0
    verdict(
        7,
        ok,
        f"top-level purity over 3 languages x 10 groups averages "
        f"{mean_purity:.3f} across 20 seeds ({elapsed:.1f}s)",
    )


def test_08_expert_weights_are_member_fractions(pair_model):
    stores, group_of = synonym_stores(
        languages=("aa", "bb", "cc"), groups=4, words_per_group=3, dim=5, seed=77
    )
    tax = LanguageTaxonomy(
        (FamilyEntry("west", ("aa", "bb")), FamilyEntry("east", ("cc",)))
    )
    second = build_cluster_model(
        stores, pair_model.pos, tax, KPolicy(single=4, family=4, multi=4),
        GmmConfig(k=1, seed=3),
    )

    def stages(model):
        yield from model.single.values()
        yield from model.family.values()
        yield model.multi

    ok = True
    checked = 0
    for model in (pair_model.model, second):
        for stage in stages(model):
            total = len(stage.gmm.assignments)
            weights = stage.expert_weights
            ok = ok and sum(len(m) for m in stage.members) == total
            ok = ok and abs(sum(weights) - 1.0) <= 1e-12
            ok = ok and all(
                w == len(m) / total for m, w in zip(stage.members, weights, strict=True)
            )
            checked += 1
    verdict(
        8,
        ok,
        f"every stage ({checked} checked) carries expert weights summing to 1 "
        f"within 1e-12, each exactly |members|/total",
    )


def test_09_replacement_invariants(pair_model):
    model = pair_model.model
    index = build_candidate_index(model, pair_model.stores)
    ok = True
    replaced_total = 0
    for i in range(10):
        rng = np.random.default_rng(300 + i)
        lang = ("aa", "bb")[i % 2]
        words = pair_model.stores[lang].words
        tokens = tuple(str(w) for w in rng.choice(words, size=3, replace=False))
        rec = SentenceRecord(lang=lang, tokens=tokens, subject=0, verb=1, object=2)
        mat = assemble_sentence(rec, pair_model.stores[lang])
        out = augment_sentence(rec, mat, model, index, sentence_seed(0, rec, 0))
        ok = ok and len(out.replacements) == 3 and not out.skipped
        touched = set()
        for rep in out.replacements:
            touched.add(rep.position)
            ok = ok and rep.candidate_lang != rec.lang
            same_cluster = (
                model.chain[rep.candidate_lang][rep.candidate_word][2]
                == model.chain[lang][rep.source_word][2]
            )
            ok = ok and same_cluster
            replaced_total += 1
        for row in range(mat.shape[0]):
            if row not in touched:
                ok = ok and np.array_equal(out.augmented[row], mat[row])

    # a sentence with no grammatical roles passes through bit-identical
    plain = SentenceRecord(lang="aa", tokens=tuple(pair_model.stores["aa"].words[:2]))
    plain_mat = assemble_sentence(plain, pair_model.stores["aa"])
    plain_out = augment_sentence(plain, plain_mat, model, index, 1)
    ok = ok and np.array_equal(plain_out.augmented, plain_mat)

    # one language alone offers no cross-lingual candidates at all
    solo_stores, _ = synonym_stores(("aa",), groups=2, words_per_group=2, dim=4, seed=3)
    solo_model = build_cluster_model(
        solo_stores,
        pair_model.pos,
        LanguageTaxonomy((FamilyEntry("solo", ("aa",)),)),
        KPolicy(single=2, family=2, multi=2),
        GmmConfig(k=1, seed=1),
    )
    solo_index = build_candidate_index(solo_model, solo_stores)
    solo_words = tuple(solo_stores["aa"].words[:3])
    solo_rec = SentenceRecord(lang="aa", tokens=solo_words, subject=0, verb=1, object=2)
    solo_mat = assemble_sentence(solo_rec, solo_stores["aa"])
    solo_out = augment_sentence(solo_rec, solo_mat, solo_model, solo_index, 5)
    ok = ok and solo_out.replacements == ()
    ok = ok and np.array_equal(solo_out.augmented, solo_mat)

    verdict(
        9,
        ok,
        f"{replaced_total} replacements all stay in the source word's top-level "
        f"cluster and switch language; untouched rows and single-language runs "
        f"are bit-identical",
    )


def test_10_command_line_runs_are_reproducible(cli_workspace, tmp_path):
    models = []
    for name in ("m1.psda", "m2.psda"):
        out = tmp_path / name
        code, _, err = run_cli("cluster", "--config", cli_workspace.config, "--out", out)
        assert code == 0, err
        models.append(out)
    streams = []
    for name in ("a1.jsonl", "a2.jsonl"):
        out = tmp_path / name
        code, _, err = run_cli(
            "augment", "--config", cli_workspace.config,
            "--model", models[0], "--out", out,
        )
        assert code == 0, err
        streams.append(out)
    ok = sha256(models[0]) == sha256(models[1])
    ok = ok and sha256(streams[0]) == sha256(streams[1])
    verdict(
        10,
        ok,
        f"cluster and augment reruns hash identically "
        f"(model {sha256(models[0])[:12]}, stream {sha256(streams[0])[:12]})",
    )


def test_11_default_operating_point():
    p = OtParams()
    ok = (
        p.epsilon == 0.1
        and p.tail_count == 300
        and p.eta == 0.001
        and p.rho == (0.4, 0.2, 0.4)
        and p.lam == (0.5, 0.5)
        and p.power == 1.0
    )
    ok = ok and DEFAULTS["ot.epsilon"] == "0.1"
    ok = ok and DEFAULTS["ot.tail"] == "300"
    ok = ok and DEFAULTS["ot.eta"] == "0.001"
    ok = ok and DEFAULTS["rho"] == "0.4,0.2,0.4"
    ok = ok and DEFAULTS["lam"] == "0.5,0.5"
    ok = ok and DEFAULTS["ot.power"] == "1.0"
    verdict(
        11,
        ok,
        "defaults are epsilon=0.1, tail=300, eta=0.001, rho=(0.4,0.2,0.4), "
        "lam=(0.5,0.5), power=1, in code and config alike",
    )


def test_12_pipeline_end_to_end(cli_workspace, tmp_path):
    start = time.perf_counter()
    model = tmp_path / "model.psda"
    aug = tmp_path / "aug.jsonl"
    orig = tmp_path / "orig.jsonl"

    code, _, err = run_cli("cluster", "--config", cli_workspace.config, "--out", model)
    ok = code == 0 and not err.strip()

    code, stdout, err = run_cli(
        "augment", "--config", cli_workspace.config,
        "--model", model, "--out", aug, "--orig-out", orig,
    )
    ok = ok and code == 0 and not err.strip()
    changed = json.loads(stdout)["changed"] if code == 0 else 0

    code, stdout, err = run_cli("loss", "--orig", orig, "--aug", aug)
    ok = ok and code == 0
    mean_dis = 0.0
    if code == 0:
        lines = [json.loads(ln) for ln in stdout.strip().splitlines()]
        mean_dis = lines[-1]["aggregate"]["mean"]["loss_dis"]

    elapsed = time.perf_counter() - start
    ok = ok and changed >= 1 and mean_dis > 0.0 and elapsed < 60.0
    verdict(
        12,
        ok,
        f"cluster -> augment -> loss completes in {elapsed:.1f}s with "
        f"{changed} sentences changed and mean direction loss {mean_dis:.3e} > 0",
    )
