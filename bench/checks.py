"""Output checks for the psda benchmark, computed apart from psda.

Nothing here imports psda.  Expected values come from the generator's
``Truth`` (vectors parsed from the text it wrote, sentences, SVO
positions), from file formats read by this module's own parsers, and from
independent computations with numpy and scipy: the exact assignment cost,
``numpy.linalg.eigh`` of the covariance, ``scipy.spatial.distance``.  No
check compares against a stored copy of earlier output.  Every check
raises ``CheckFailed`` with the first discrepancy it finds.
"""

import csv
import json
import struct
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist, pdist

import gen

MODEL_MAGIC = b"PSDAMDL\x00"
ARRAY_MAGIC = b"PSDAF32\x00"


class CheckFailed(AssertionError):
    pass


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float, what: str, abs_tol: float = 0.0) -> None:
    _require(
        abs(a - b) <= abs_tol + rel * max(abs(a), abs(b)),
        f"{what}: {a!r} != {b!r} (rel {rel})",
    )


# -- file formats ----------------------------------------------------------

@dataclass
class Model:
    manifest: dict
    arrays: list

    def chain(self, lang: str, word: str):
        return self.manifest["chain"][lang].get(word)

    def embeddings(self):
        """All word embeddings stacked in sorted-language, row order."""
        keys, blocks = [], []
        for lang in sorted(self.manifest["words"]):
            keys += [(lang, w) for w in self.manifest["words"][lang]]
            blocks.append(self.arrays[self.manifest["word_embeddings"][lang]])
        return keys, np.vstack(blocks)


def read_model(path) -> Model:
    """Parse the container: magic, u64 manifest length, JSON manifest,
    then little-endian float32 payloads placed by the manifest."""
    with open(path, "rb") as fh:
        _require(fh.read(8) == MODEL_MAGIC, f"{path}: bad model magic")
        (length,) = struct.unpack("<Q", fh.read(8))
        manifest = json.loads(fh.read(length))
        payload = fh.read()
    arrays = []
    for entry in manifest["arrays"]:
        raw = payload[entry["offset"]:entry["offset"] + entry["nbytes"]]
        _require(len(raw) == entry["nbytes"], f"{path}: truncated array payload")
        arrays.append(np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(entry["shape"]))
    return Model(manifest, arrays)


def _read_f32(buf: bytes, offset: int) -> np.ndarray:
    _require(buf[offset:offset + 8] == ARRAY_MAGIC, f"bad sidecar magic at {offset}")
    (ndim,) = struct.unpack_from("<I", buf, offset + 8)
    shape = struct.unpack_from(f"<{ndim}Q", buf, offset + 12)
    start = offset + 12 + 8 * ndim
    count = int(np.prod(shape))
    return np.frombuffer(buf, dtype="<f4", count=count, offset=start).astype(np.float64).reshape(shape)


def read_stream(path, sidecar=None) -> list:
    """The data records of a JSONL stream; each gains ``_matrix``, resolved
    from the inline rows or from the sidecar bytes."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            if "meta" in obj:
                continue
            if "matrix" in obj:
                obj["_matrix"] = np.array(obj["matrix"], dtype=np.float64)
            else:
                _require(sidecar is not None, f"{path}: record {obj['id']} needs a sidecar")
                obj["_matrix"] = _read_f32(sidecar, obj["matrix_ref"]["offset"])
            records.append(obj)
    return records


# -- cluster ---------------------------------------------------------------

def check_cluster(model: Model, truth: gen.Truth) -> dict:
    """Chains name existing clusters, the top level holds the planted
    number of clusters, expert weights sum to 1, EM traces never
    decrease.  Returns EM counts for the report."""
    m = model.manifest
    stages = m["stages"]
    _require(sorted(m["languages"]) == sorted(gen.LANGS), f"languages {m['languages']}")
    _require(sorted(m["families"]) == sorted(gen.FAMILIES), f"families {m['families']}")
    family_of = {lang: f for f, langs in gen.FAMILIES.items() for lang in langs}
    n_multi = len(stages["multi"]["members"])
    _require(n_multi == gen.SUPER_GROUPS, f"{n_multi} top-level clusters, {gen.SUPER_GROUPS} planted")
    for lang, words in truth.vectors.items():
        n_single = len(stages["single"][lang]["members"])
        n_family = len(stages["family"][family_of[lang]]["members"])
        for word in words:
            chain = model.chain(lang, word)
            _require(chain is not None, f"word {lang}:{word} has no chain")
            t, g, q = chain
            _require(
                0 <= t < n_single and 0 <= g < n_family and 0 <= q < n_multi,
                f"chain {chain} of {lang}:{word} names a missing cluster",
            )
        _require(len(m["chain"][lang]) == len(words), f"{lang}: chain holds unknown words")
    fits = capped = iterations = 0
    all_stages = list(stages["single"].values()) + list(stages["family"].values())
    for stage in all_stages + [stages["multi"]]:
        name = stage["scope_id"]
        _close(sum(stage["expert_weights"]), 1.0, 0.0, f"{name} expert weights", 1e-9)
        trace = stage["gmm"]["log_likelihood_trace"]
        for a, b in zip(trace, trace[1:]):
            _require(b >= a - 1e-9 * max(1.0, abs(a)), f"{name}: EM trace fell {a!r} -> {b!r}")
        fits += 1
        iterations += len(trace)
        capped += len(trace) == gen.GMM_MAX_ITER + 1
    return {"fits": fits, "em_iterations": iterations, "capped_fits": capped}


# -- augment ---------------------------------------------------------------

def _sentence_matrix(truth: gen.Truth, s) -> np.ndarray:
    rows = np.zeros((len(s.tokens), truth.dim))
    for j, tok in enumerate(s.tokens):
        if j not in s.oov:
            rows[j] = truth.vectors[s.lang][tok]
    return rows


def check_augment(paths: dict, truth: gen.Truth, model: Model) -> list:
    """Record count, untouched rows bit-equal to the input, replaced rows
    equal to the candidate's parsed vector, candidates from another
    language in the source word's top-level cluster, and every role either
    replaced or skipped for its reason.  Returns the (original,
    augmented) matrices as the loss command reads them."""
    sidecar = paths["side"].read_bytes() if truth.sidecar else None
    # the sidecar stores float32: compare after the same rounding
    as_stored = (lambda a: a.astype(np.float32).astype(np.float64)) if truth.sidecar else (lambda a: a)
    originals = read_stream(paths["orig"], sidecar)
    augmented = read_stream(paths["aug"], sidecar)
    sents = truth.sentences
    _require(len(originals) == len(sents), f"{len(originals)} originals for {len(sents)} sentences")
    _require(
        len(augmented) == len(sents) * truth.copies,
        f"{len(augmented)} augmented records for {len(sents)} sentences x {truth.copies} copies",
    )
    multi_langs = {}
    for lang, chains in model.manifest["chain"].items():
        for triple in chains.values():
            multi_langs.setdefault(triple[2], set()).add(lang)

    by_id = {}
    for k, (rec, s) in enumerate(zip(originals, sents)):
        want = as_stored(_sentence_matrix(truth, s))
        _require(rec["lang"] == s.lang and rec["tokens"] == s.tokens, f"original {k}: wrong sentence")
        _require(np.array_equal(rec["_matrix"], want), f"original {rec['id']}: matrix differs from input")
        by_id[rec["id"]] = (s, want)

    pairs = []
    for rec in augmented:
        _require(rec["source"] in by_id, f"augmented {rec['id']} names unknown source")
        s, orig = by_id[rec["source"]]
        mat = rec["_matrix"]
        _require(mat.shape == orig.shape, f"augmented {rec['id']}: shape {mat.shape}")
        roles = {"subject": s.subject, "verb": s.verb, "object": s.object}
        roles = {r: p for r, p in roles.items() if p is not None}
        seen = {}
        for rep in rec["replacements"]:
            pos, role = rep["position"], rep["role"]
            _require(roles.get(role) == pos, f"{rec['id']}: replaced non-role position {pos}")
            _require(rep["candidate_lang"] != s.lang, f"{rec['id']}: candidate from source language")
            src = model.chain(s.lang, s.tokens[pos])
            cand = model.chain(rep["candidate_lang"], rep["candidate_word"])
            _require(
                src is not None and cand is not None and src[2] == cand[2] == rep["multi_cluster"],
                f"{rec['id']}: candidate {rep['candidate_word']} outside the source word's cluster",
            )
            want = as_stored(truth.vectors[rep["candidate_lang"]][rep["candidate_word"]])
            _require(np.array_equal(mat[pos], want), f"{rec['id']}: row {pos} is not the candidate vector")
            seen[role] = "replaced"
        for skip in rec["skipped"]:
            pos, role = skip["position"], skip["role"]
            _require(roles.get(role) == pos, f"{rec['id']}: skipped non-role position {pos}")
            if pos in s.oov:
                reason = "missing-chain"
            else:
                q = model.chain(s.lang, s.tokens[pos])[2]
                reason = "empty-pool" if multi_langs[q] == {s.lang} else "pool-available"
            _require(skip["reason"] == reason, f"{rec['id']}: {role} skipped as {skip['reason']}, expected {reason}")
            seen[role] = "skipped"
        _require(set(seen) == set(roles), f"{rec['id']}: roles {sorted(roles)} handled as {seen}")
        replaced = [rep["position"] for rep in rec["replacements"]]
        keep = np.ones(len(s.tokens), dtype=bool)
        keep[replaced] = False
        _require(np.array_equal(mat[keep], orig[keep]), f"{rec['id']}: an unreplaced row changed")
        pairs.append((rec["id"], rec["source"], orig, mat))
    return pairs


# -- loss ------------------------------------------------------------------

def check_loss(stdout: str, pairs: list) -> dict:
    """Each pair's terms recomputed or bounded independently, the blends
    and the aggregate means re-derived.  Returns Sinkhorn counts."""
    lines = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    _require(lines and "aggregate" in lines[-1], "loss printed no aggregate")
    agg = lines.pop()["aggregate"]
    _require(len(lines) == len(pairs) == agg["pairs"], f"{len(lines)} loss lines for {len(pairs)} pairs")
    unconverged = 0
    keys = ("loss_ot", "loss_eig", "loss_dis", "loss_reg", "loss_total")
    sums = dict.fromkeys(keys, 0.0)
    for out, (rid, source, orig, aug) in zip(lines, pairs):
        _require(out["id"] == rid and out["source"] == source, f"loss line {out['id']} out of order")
        n, d = orig.shape
        # entropic OT of uniform clouds: at least the exact assignment cost,
        # at most the cost of the independent coupling; the plan's marginal
        # error moves either bound by at most 2 n err max(C)
        cost = cdist(orig, aug)
        r, c = linear_sum_assignment(cost)
        exact = cost[r, c].sum() / n
        slack = 2 * n * out["marginal_error"] * cost.max() + 1e-9 * (1 + cost.max())
        _require(exact - slack <= out["loss_ot"] <= cost.mean() + slack,
                 f"{rid}: loss_ot {out['loss_ot']!r} outside [{exact!r}, {cost.mean()!r}]")
        _require(out["non_convergence"] == (out["marginal_error"] > gen.OT_TOL),
                 f"{rid}: non_convergence disagrees with marginal_error")
        unconverged += out["non_convergence"]
        # spectral tail: -eta * sum of the k smallest squared singular values
        # of aug^T orig; with k >= d that is the squared Frobenius norm
        m = aug.T @ orig
        if gen.OT_TAIL >= d:
            eig = -gen.OT_ETA * float(np.sum(m * m))
        else:
            s = np.sort(np.linalg.svd(m, compute_uv=False))[: gen.OT_TAIL]
            eig = -gen.OT_ETA * float(np.sum(s * s))
        _close(out["loss_eig"], eig, 1e-8, f"{rid}: loss_eig", 1e-12)
        po, pa = orig.mean(axis=0), aug.mean(axis=0)
        cos = float(po @ pa / (np.linalg.norm(po) * np.linalg.norm(pa)))
        _close(out["loss_dis"], 1.0 - min(1.0, max(-1.0, cos)), 1e-9, f"{rid}: loss_dis", 1e-12)
        reg = sum(w * out[k] for w, k in zip(gen.RHO, keys))
        _close(out["loss_reg"], reg, 1e-12, f"{rid}: loss_reg", 1e-15)
        _close(out["loss_total"], gen.LAM[1] * out["loss_reg"], 1e-12, f"{rid}: loss_total", 1e-15)
        for k in keys:
            sums[k] += out[k]
    for k in keys:
        _close(agg["mean"][k], sums[k] / len(pairs), 1e-9, f"aggregate mean {k}", 1e-12)
    return {"pairs": len(pairs), "unconverged": unconverged}


# -- report ----------------------------------------------------------------

def _pinned_pca(matrix: np.ndarray):
    centered = matrix - matrix.mean(axis=0)
    cov = centered.T @ centered / (len(matrix) - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:2]
    comps = evecs[:, order].T
    for r in range(2):
        if comps[r][np.argmax(np.abs(comps[r]))] < 0:
            comps[r] = -comps[r]
    return centered @ comps.T, evals[order] / evals.sum()


def check_report(paths: dict, summary: dict, model: Model) -> None:
    """One CSV row and one SVG circle per word; PCA coordinates and
    explained variance against ``eigh`` of the covariance; cohesion and
    separation against ``scipy.spatial.distance``."""
    keys, matrix = model.embeddings()
    with open(paths["csv"], encoding="utf-8", newline="") as fh:
        first = fh.readline()
        _require(first.startswith("# config:"), "CSV lacks its config comment")
        rows = list(csv.DictReader(fh))
    _require(len(rows) == len(keys), f"{len(rows)} CSV rows for {len(keys)} words")
    _require([(r["lang"], r["word"]) for r in rows] == keys, "CSV rows do not follow the model's words")
    coords, explained = _pinned_pca(matrix)
    got = np.array([[float(r["pc1"]), float(r["pc2"])] for r in rows])
    scale = float(np.abs(coords).max())
    _require(np.allclose(got, coords, rtol=0, atol=1e-7 * scale), "PCA coordinates differ from eigh")
    for a, b in zip(summary["explained_variance"], explained):
        _close(a, float(b), 1e-7, "explained variance", 1e-12)

    labels = np.array([model.chain(lang, word)[2] for lang, word in keys])
    for row, (lang, word) in zip(rows, keys):
        _require([int(row[k]) for k in ("single", "family", "multi")] == model.chain(lang, word),
                 f"CSV chain of {lang}:{word} differs from the model")
    for q in sorted(set(labels.tolist())):
        inside, outside = matrix[labels == q], matrix[labels != q]
        intra = float(pdist(inside).mean()) if len(inside) >= 2 else 0.0
        nearest = float(cdist(inside, outside).min(axis=1).mean())
        for i in np.flatnonzero(labels == q):
            row = rows[i]
            _close(float(row["mean_intra_distance"]), intra, 1e-9, f"cluster {q} cohesion", 1e-12)
            _close(float(row["mean_nearest_other"]), nearest, 1e-9, f"cluster {q} separation", 1e-12)
    circles = paths["svg"].read_text(encoding="utf-8").count("<circle")
    _require(circles == len(keys), f"SVG has {circles} circles for {len(keys)} words")
