"""Fixture builders shared across the test modules.

Everything here writes tiny, fully deterministic inputs: word2vec text
files, one-line taxonomies, CoNLL-U blocks, and a synthetic synonym
corpus whose ground-truth grouping is known by construction.
"""

import json
import os
from pathlib import Path

import numpy as np

from psda.embeddings import VocabStore


def write_vectors(path, lang: str, entries: dict[str, np.ndarray]) -> None:
    dims = {len(np.atleast_1d(v)) for v in entries.values()}
    dim = dims.pop() if dims else 0
    lines = [f"{len(entries)} {dim}"]
    for word, vec in entries.items():
        lines.append(word + " " + " ".join(repr(float(x)) for x in np.atleast_1d(vec)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_taxonomy(path, families: dict[str, list[str]]) -> None:
    lines = [f"{fam}: {','.join(langs)}" for fam, langs in families.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def conllu_block(lang: str, rows: list[tuple]) -> str:
    """One sentence block; rows are (form, upos, head, deprel)."""
    lines = [f"# lang = {lang}"]
    for i, (form, upos, head, deprel) in enumerate(rows, start=1):
        lines.append(
            "\t".join(
                [str(i), form, form, upos, "_", "_", str(head), deprel, "_", "_"]
            )
        )
    return "\n".join(lines)


def write_conllu(path, blocks: list[str]) -> None:
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")


def store_from(lang: str, entries) -> VocabStore:
    entries = dict(entries)
    dims = {len(np.atleast_1d(v)) for v in entries.values()}
    dim = dims.pop() if dims else 0
    return VocabStore(
        lang=lang,
        dim=dim,
        entries={w: np.asarray(v, dtype=np.float64) for w, v in entries.items()},
    )


def read_stream(path):
    """Parse a JSONL stream file into (meta, records)."""
    meta = None
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            if "meta" in obj and meta is None:
                meta = obj["meta"]
            else:
                records.append(obj)
    return meta, records


def synonym_stores(
    languages: tuple[str, ...] = ("aa", "bb", "cc"),
    groups: int = 10,
    words_per_group: int = 5,
    dim: int = 8,
    noise: float = 0.05,
    center_scale: float = 30.0,
    seed: int = 11,
):
    """Synthetic cross-lingual synonym vocabulary.

    Every group has one center; each language holds ``words_per_group``
    words per group, each center + gaussian noise.  Centers are resampled
    until pairwise separations exceed 10x the noise scale, so the true
    grouping is unambiguous.  Returns (stores, group_of) with
    group_of[(lang, word)] = group id.
    """
    rng = np.random.default_rng(seed)
    while True:
        centers = rng.normal(size=(groups, dim)) * center_scale
        diff = centers[:, None, :] - centers[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        dist[np.diag_indices(groups)] = np.inf
        if dist.min() >= 10.0 * noise * np.sqrt(dim) * 10:
            break
    stores = {}
    group_of = {}
    for lang in languages:
        entries = {}
        for g in range(groups):
            for w in range(words_per_group):
                word = f"{lang}_g{g}_w{w}"
                entries[word] = centers[g] + rng.normal(size=dim) * noise
                group_of[(lang, word)] = g
        stores[lang] = store_from(lang, entries)
    return stores, group_of


def child_env() -> dict:
    """Environment for a child interpreter that imports the psda under test.

    The directory holding the imported package goes first on PYTHONPATH,
    so the child neither depends on its cwd nor picks up another install.
    """
    import psda

    env = dict(os.environ)
    package_root = str(Path(psda.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def reference_sinkhorn(cost, epsilon, max_iter, tol):
    """Plain-scaling Sinkhorn with uniform marginals, the textbook form.

    Alternates u = a / (K v), v = b / (K^T u) from v = 1 with
    K = exp(-cost/epsilon), and stops once both marginals of the plan are
    within ``tol``.  Returns (plan, iterations used).
    """
    n, m = cost.shape
    a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    kernel = np.exp(-cost / epsilon)
    v = np.ones(m)
    plan = kernel
    for it in range(1, max_iter + 1):
        u = a / (kernel @ v)
        v = b / (kernel.T @ u)
        plan = u[:, None] * kernel * v[None, :]
        if max(np.abs(plan.sum(1) - a).max(), np.abs(plan.sum(0) - b).max()) <= tol:
            return plan, it
    return plan, max_iter


def sentence_clouds(rng, n: int, dim: int = 300, replaced: int = 3):
    """An (original, augmented) pair shaped like the benchmark's sentences.

    Words are a super-group centre (norm 3) plus a group offset (1.5) plus
    word noise (0.6), so rows have norms of about 3 to 4; a sentence draws
    ``n`` words with repeats, and its augmented copy swaps ``replaced``
    rows for words of the same group.  The many zero and near-equal
    distances make the plain Sinkhorn iteration slow at eps=0.1.
    """
    scale = 1.0 / np.sqrt(dim)
    supers = rng.normal(size=(3, dim)) * 3.0 * scale
    centres = supers[np.arange(15) % 3] + rng.normal(size=(15, dim)) * 1.5 * scale
    words = centres[np.arange(150) % 15] + rng.normal(size=(150, dim)) * 0.6 * scale
    ids = rng.integers(0, 150, size=n)
    orig = words[ids]
    aug = orig.copy()
    for pos in rng.choice(n, size=replaced, replace=False):
        aug[pos] = words[(ids[pos] + 15 * rng.integers(1, 10)) % 150]
    return orig, aug


def unflushed_logsumexp(a, axis):
    """``util.logsumexp`` without the flush of subnormal terms: the
    reference its results are compared with bit for bit."""
    a_max = np.max(a, axis=axis, keepdims=True)
    a_max[~np.isfinite(a_max)] = 0.0
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - a_max), axis=axis, keepdims=True)) + a_max
    return np.squeeze(out, axis=axis)
