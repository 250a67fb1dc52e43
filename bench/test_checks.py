"""Each output check must fail when its output is corrupted.

Runs one round of the pipeline on a small input set, once with inline
JSON matrices and once with the binary sidecar, confirms that the intact
outputs pass, then corrupts one value at a time and expects
``CheckFailed``.

    python3 -m pytest bench/test_checks.py -q
"""

import json
import struct
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins BLAS threads before numpy loads)

run._load_psda()
import checks  # noqa: E402
import gen  # noqa: E402

SMALL = {"words": 60, "dim": 24, "sentences": 24, "copies": 2}


@pytest.fixture(scope="module", params=[False, True], ids=["inline", "sidecar"])
def done(request, tmp_path_factory):
    name = "small-sidecar" if request.param else "small-inline"
    gen.WORKLOADS[name] = dict(SMALL, sidecar=request.param)
    r = run.Run(name, 5, tmp_path_factory.mktemp(name))
    results = r.round(traced=False)
    return r, results


@pytest.fixture
def restore(done):
    """Put every output file back after a test corrupts one."""
    r, _ = done
    saved = {k: p.read_bytes() for k, p in r.out.items() if p.exists()}
    yield
    for k, data in saved.items():
        r.out[k].write_bytes(data)


def test_intact_outputs_pass(done):
    r, results = done
    assert r.problems == []
    assert [results[c][-1]["rc"] for c in run.COMMANDS] == [0, 0, 0, 0]


def test_corrupt_cluster_weight_fails(done):
    r, _ = done
    model = checks.read_model(r.out["model"])
    model.manifest["stages"]["multi"]["expert_weights"][0] += 1e-3
    with pytest.raises(checks.CheckFailed, match="expert weights"):
        checks.check_cluster(model, r.truth)


def test_corrupt_augmented_row_fails(done, restore):
    r, _ = done
    model = checks.read_model(r.out["model"])
    lines = r.out["aug"].read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[1])
    if r.truth.sidecar:
        ref = first["matrix_ref"]["offset"]
        side = bytearray(r.out["side"].read_bytes())
        (ndim,) = struct.unpack_from("<I", side, ref + 8)
        at = ref + 12 + 8 * ndim
        (value,) = struct.unpack_from("<f", side, at)
        struct.pack_into("<f", side, at, value + 0.25)
        r.out["side"].write_bytes(bytes(side))
    else:
        first["matrix"][0][0] += 0.25
        lines[1] = json.dumps(first, sort_keys=True, separators=(",", ":"))
        r.out["aug"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(checks.CheckFailed, match="row 0|unreplaced row"):
        checks.check_augment(r.out, r.truth, model)


def test_candidate_from_other_cluster_fails(done, restore):
    """A candidate from another top-level cluster fails even when its row
    holds that candidate's own vector."""
    r, _ = done
    model = checks.read_model(r.out["model"])
    lines = r.out["aug"].read_text(encoding="utf-8").splitlines()
    k, rec = next((k, json.loads(line)) for k, line in enumerate(lines)
                  if json.loads(line).get("replacements"))
    rep = rec["replacements"][0]
    chains = model.manifest["chain"][rep["candidate_lang"]]
    word = next(w for w, chain in chains.items() if chain[2] != rep["multi_cluster"])
    rep["candidate_word"] = word
    vector = r.truth.vectors[rep["candidate_lang"]][word]
    if r.truth.sidecar:
        ref = rec["matrix_ref"]["offset"]
        side = bytearray(r.out["side"].read_bytes())
        (ndim,) = struct.unpack_from("<I", side, ref + 8)
        at = ref + 12 + 8 * ndim + 4 * rep["position"] * r.truth.dim
        struct.pack_into(f"<{r.truth.dim}f", side, at, *vector)
        r.out["side"].write_bytes(bytes(side))
    else:
        rec["matrix"][rep["position"]] = vector.tolist()
    lines[k] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    r.out["aug"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(checks.CheckFailed, match="outside the source word's cluster"):
        checks.check_augment(r.out, r.truth, model)


def test_merged_top_level_clusters_fail(done):
    r, _ = done
    model = checks.read_model(r.out["model"])
    model.manifest["stages"]["multi"]["members"].pop()
    with pytest.raises(checks.CheckFailed, match="top-level clusters"):
        checks.check_cluster(model, r.truth)


@pytest.mark.parametrize("key, change", [
    ("loss_ot", lambda v: -0.5),
    ("loss_eig", lambda v: v * 1.001),
    ("loss_dis", lambda v: v + 1e-6),
    ("loss_total", lambda v: v + 1e-6),
])
def test_corrupt_loss_value_fails(done, key, change):
    r, results = done
    model = checks.read_model(r.out["model"])
    pairs = checks.check_augment(r.out, r.truth, model)
    lines = results["loss"][-1]["stdout"].splitlines()
    first = json.loads(lines[0])
    first[key] = change(first[key])
    lines[0] = json.dumps(first)
    with pytest.raises(checks.CheckFailed, match=key):
        checks.check_loss("\n".join(lines), pairs)


@pytest.mark.parametrize("column, match", [
    ("pc1", "PCA coordinates"),
    ("mean_nearest_other", "separation"),
])
def test_corrupt_csv_value_fails(done, restore, column, match):
    r, results = done
    model = checks.read_model(r.out["model"])
    text = r.out["csv"].read_text(encoding="utf-8").splitlines()
    header = text[1].split(",")
    row = text[-1].split(",")
    col = header.index(column)
    row[col] = repr(float(row[col]) + 1e-3)
    text[-1] = ",".join(row)
    r.out["csv"].write_text("\n".join(text) + "\n", encoding="utf-8")
    with pytest.raises(checks.CheckFailed, match=match):
        checks.check_report(r.out, json.loads(results["report"][-1]["stdout"]), model)
