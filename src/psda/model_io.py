"""Cluster model container: one file, self-describing, deterministic.

Layout: an 8-byte magic, a little-endian u64 giving the length of a JSON
manifest, the manifest itself, then the concatenation of every array as
raw little-endian float32 payload.  Shapes and offsets live in the
manifest, so arrays are decoded without per-array framing.  The manifest
is written with sorted keys and compact separators; identical models
serialize to identical bytes.
"""

import json
import struct
from dataclasses import asdict, dataclass, field
from typing import Any, BinaryIO

import numpy as np

from .domino import Cluster, ClusterModel, KPolicy, StageClusters
from .errors import ModelFormatError
from .gmm import GmmModel

MODEL_MAGIC = b"PSDAMDL\x00"
_FORMAT_NAME = "psda-model"
_FORMAT_VERSION = 1


@dataclass
class _ArrayRegistry:
    arrays: list[np.ndarray] = field(default_factory=list)
    entries: list[dict] = field(default_factory=list)
    offset: int = 0

    def add(self, arr: np.ndarray) -> int:
        data = np.ascontiguousarray(arr, dtype="<f4")
        nbytes = data.size * 4
        self.arrays.append(data)
        self.entries.append(
            {"shape": [int(s) for s in data.shape], "offset": self.offset, "nbytes": nbytes}
        )
        self.offset += nbytes
        return len(self.arrays) - 1


def _member_to_json(member) -> Any:
    if isinstance(member, str):
        return member
    scope, idx = member
    return [scope, int(idx)]


def _member_from_json(value) -> Any:
    if isinstance(value, str):
        return value
    scope, idx = value
    return (scope, int(idx))


def _stage_to_json(stage: StageClusters, reg: _ArrayRegistry) -> dict:
    obj = {
        "scope_id": stage.scope_id,
        "members": [[_member_to_json(m) for m in c.members] for c in stage.clusters],
        "expert_weights": [c.expert_weight for c in stage.clusters],
        "centers": reg.add(stage.centers),
        "warnings": list(stage.warnings),
        "component_to_cluster": {str(k): v for k, v in sorted(stage.component_to_cluster.items())},
    }
    if stage.gmm is not None:
        obj["gmm"] = {
            "covariance": stage.gmm.covariance,
            "means": reg.add(stage.gmm.means),
            "variances": reg.add(stage.gmm.variances),
            "mixing_weights": reg.add(stage.gmm.mixing_weights),
            "assignments": [int(a) for a in stage.gmm.assignments],
            "log_likelihood_trace": [float(v) for v in stage.gmm.log_likelihood_trace],
        }
    return obj


def _stage_from_json(obj: dict, arrays: list[np.ndarray]) -> StageClusters:
    centers = arrays[obj["centers"]]
    clusters = [
        Cluster(
            members=[_member_from_json(m) for m in members],
            center=centers[i],
            expert_weight=float(weight),
        )
        for i, (members, weight) in enumerate(zip(obj["members"], obj["expert_weights"]))
    ]
    gmm = None
    if "gmm" in obj:
        g = obj["gmm"]
        gmm = GmmModel(
            means=arrays[g["means"]],
            variances=arrays[g["variances"]],
            mixing_weights=arrays[g["mixing_weights"]],
            assignments=np.array(g["assignments"], dtype=np.int64),
            log_likelihood_trace=[float(v) for v in g["log_likelihood_trace"]],
            covariance=g["covariance"],
        )
    return StageClusters(
        scope_id=obj["scope_id"],
        clusters=clusters,
        warnings=list(obj["warnings"]),
        gmm=gmm,
        component_to_cluster={int(k): int(v) for k, v in obj["component_to_cluster"].items()},
    )


def save_model(path, model: ClusterModel, config: dict | None = None) -> None:
    """Write the model container; ``config`` (flat str->str map) is
    echoed into the manifest so artifacts carry their provenance."""
    reg = _ArrayRegistry()
    manifest = {
        "format": _FORMAT_NAME,
        "version": _FORMAT_VERSION,
        "seed": int(model.seed),
        "embed_dim": int(model.embed_dim),
        "k_policy": asdict(model.k_policy),
        "languages": sorted(model.single),
        "families": sorted(model.family),
        "stages": {
            "single": {lang: _stage_to_json(model.single[lang], reg) for lang in sorted(model.single)},
            "family": {fam: _stage_to_json(model.family[fam], reg) for fam in sorted(model.family)},
            "multi": _stage_to_json(model.multi, reg),
        },
        "chain": {
            lang: {word: list(triple) for word, triple in model.chain[lang].items()}
            for lang in sorted(model.chain)
        },
        "word_embeddings": {
            lang: reg.add(model.word_embeddings[lang]) for lang in sorted(model.word_embeddings)
        },
        # row order of each embedding matrix, which is the chain's insertion order
        "words": {lang: list(model.chain[lang]) for lang in sorted(model.chain)},
        "arrays": reg.entries,
    }
    if config is not None:
        manifest["config"] = {str(k): str(v) for k, v in sorted(config.items())}
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<Q", len(body)))
        fh.write(body)
        for arr in reg.arrays:
            fh.write(arr.tobytes())


def _read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ModelFormatError(f"truncated model file while reading {what}")
    return data


def _read_manifest(fh: BinaryIO) -> dict:
    magic = fh.read(len(MODEL_MAGIC))
    if magic != MODEL_MAGIC:
        raise ModelFormatError(f"bad model magic {magic!r}")
    (body_len,) = struct.unpack("<Q", _read_exact(fh, 8, "manifest length"))
    try:
        manifest = json.loads(_read_exact(fh, body_len, "manifest"))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ModelFormatError("manifest is not a JSON object")
    if manifest.get("format") != _FORMAT_NAME:
        raise ModelFormatError(f"unknown container format {manifest.get('format')!r}")
    if manifest.get("version") != _FORMAT_VERSION:
        raise ModelFormatError(f"unsupported container version {manifest.get('version')!r}")
    return manifest


def read_manifest(path) -> dict:
    """The container's JSON manifest alone, arrays left unread."""
    with open(path, "rb") as fh:
        return _read_manifest(fh)


def _model_from_manifest(manifest: dict, fh: BinaryIO) -> ClusterModel:
    payload_start = fh.tell()
    arrays = []
    for entry in manifest["arrays"]:
        fh.seek(payload_start + entry["offset"])
        raw = _read_exact(fh, entry["nbytes"], "array payload")
        flat = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        arrays.append(flat.reshape(entry["shape"]))

    stages = manifest["stages"]
    return ClusterModel(
        single={lang: _stage_from_json(obj, arrays) for lang, obj in stages["single"].items()},
        family={fam: _stage_from_json(obj, arrays) for fam, obj in stages["family"].items()},
        multi=_stage_from_json(stages["multi"], arrays),
        # the manifest JSON is written with sorted keys, so the chain dicts
        # come back alphabetized; "words" preserves the embedding row order
        chain={
            lang: {
                word: tuple(int(x) for x in manifest["chain"][lang][word])
                for word in manifest["words"][lang]
            }
            for lang in manifest["words"]
        },
        embed_dim=int(manifest["embed_dim"]),
        seed=int(manifest["seed"]),
        k_policy=KPolicy(**manifest["k_policy"]),
        word_embeddings={
            lang: arrays[idx] for lang, idx in manifest["word_embeddings"].items()
        },
    )


def load_model(path) -> ClusterModel:
    with open(path, "rb") as fh:
        manifest = _read_manifest(fh)
        try:
            return _model_from_manifest(manifest, fh)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            # a manifest entry is missing or has the wrong type or shape
            raise ModelFormatError(
                f"malformed model manifest: {type(exc).__name__}: {exc}"
            ) from exc
