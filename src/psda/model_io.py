"""Cluster model container: one file, self-describing, deterministic.

Layout: an 8-byte magic, a little-endian u64 giving the length of a JSON
manifest, the manifest itself, then the concatenation of every array as
raw little-endian float32 payload.  Shapes and offsets live in the
manifest, so arrays are decoded without per-array framing, and the
manifest's ``payload_crc32`` (zlib's CRC-32 of the whole payload) is
checked before any array is decoded.  The manifest is written with sorted
keys and compact separators; identical models serialize to identical
bytes.

Each fitted fact is stored once.  Per stage the payload holds the mixture's
means, variances and mixing weights, plus each language's word
embeddings; the manifest holds the members of each non-empty component,
the hard assignments and the EM trace; a ``(scope, index)`` member is
written as a two-item list.  Centers, expert weights and each word's
(single, family, multi) chain are derived from those on load, the chain
by ``domino.read_chain`` in the row order of the manifest's ``words``.
The manifest also carries the chain and the expert weights for readers of
the manifest alone; a stored chain that differs from the derived one
fails, since the payload CRC does not cover the manifest.  The manifest's
``embeddings_sha256`` maps each language to the SHA-256 of the embeddings
file its vectors came from, so ``augment`` can tell a file ``cluster``
already checked; a model built from stores in memory has none.  A
version-1 file,
which stored the centers a second time, fails with an error naming its
version; re-run ``psda cluster`` to rewrite it.
"""

import json
import math
import re
import struct
import zlib
from dataclasses import asdict, dataclass, field
from typing import BinaryIO

import numpy as np

from .binio import _read_exact
from .domino import ClusterModel, KPolicy, StageClusters, read_chain
from .errors import ModelFormatError
from .gmm import GmmModel

MODEL_MAGIC = b"PSDAMDL\x00"
_FORMAT_NAME = "psda-model"
_FORMAT_VERSION = 2
_SHA256_HEX = re.compile("[0-9a-f]{64}")


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


def _stage_to_json(stage: StageClusters, reg: _ArrayRegistry) -> dict:
    gmm = stage.gmm
    return {
        "scope_id": stage.scope_id,
        "members": stage.members,
        # derived, written for readers of the manifest alone; not read back
        "expert_weights": stage.expert_weights.tolist(),
        "warnings": list(stage.warnings),
        "gmm": {
            "covariance": gmm.covariance,
            "means": reg.add(gmm.means),
            "variances": reg.add(gmm.variances),
            "mixing_weights": reg.add(gmm.mixing_weights),
            "assignments": [int(a) for a in gmm.assignments],
            "log_likelihood_trace": [float(v) for v in gmm.log_likelihood_trace],
        },
    }


def _stage_from_json(obj: dict, arrays: list[np.ndarray]) -> StageClusters:
    g = obj["gmm"]
    gmm = GmmModel(
        means=arrays[g["means"]],
        variances=arrays[g["variances"]],
        mixing_weights=arrays[g["mixing_weights"]],
        assignments=np.array(g["assignments"], dtype=np.int64),
        log_likelihood_trace=[float(v) for v in g["log_likelihood_trace"]],
        covariance=g["covariance"],
    )
    # json writes a (scope, index) member as a list
    members = [[tuple(m) if isinstance(m, list) else m for m in ms] for ms in obj["members"]]
    return StageClusters(obj["scope_id"], members, gmm, list(obj["warnings"]))


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
        # derived from the members on load; read back only to check it
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
    if model.embeddings_sha256:
        manifest["embeddings_sha256"] = dict(model.embeddings_sha256)
    if config is not None:
        manifest["config"] = {str(k): str(v) for k, v in sorted(config.items())}
    payload = b"".join(arr.tobytes() for arr in reg.arrays)
    manifest["payload_crc32"] = zlib.crc32(payload)
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<Q", len(body)))
        fh.write(body)
        fh.write(payload)


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
    config = manifest.get("config", {})  # echoed by report; the CRC does not cover it
    if not (isinstance(config, dict) and all(isinstance(v, str) for v in config.values())):
        raise ModelFormatError("manifest config is not an object of strings")
    return manifest


def read_manifest(path) -> dict:
    """The container's JSON manifest alone, arrays left unread."""
    with open(path, "rb") as fh:
        return _read_manifest(fh)


def _model_from_manifest(manifest: dict, fh: BinaryIO) -> ClusterModel:
    entries = manifest["arrays"]
    payload = _read_exact(fh, sum(e["nbytes"] for e in entries), "array payload")
    if zlib.crc32(payload) != manifest["payload_crc32"]:
        raise ModelFormatError("array payload does not match its CRC-32: the file is corrupt")
    for shape, nbytes in ((e["shape"], e["nbytes"]) for e in entries):
        # the CRC does not cover the shapes, and reshape would infer a -1
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)
                and 4 * math.prod(shape) == nbytes):
            raise ModelFormatError(f"manifest array shape {shape!r} does not hold {nbytes!r} bytes")
    arrays = [
        np.frombuffer(payload, "<f4", count=e["nbytes"] // 4, offset=e["offset"])
        .astype(np.float64)
        .reshape(e["shape"])
        for e in entries
    ]

    stages = manifest["stages"]
    single = {lang: _stage_from_json(obj, arrays) for lang, obj in stages["single"].items()}
    family = {fam: _stage_from_json(obj, arrays) for fam, obj in stages["family"].items()}
    multi = _stage_from_json(stages["multi"], arrays)
    words, stored = manifest["words"], manifest["chain"]
    if words.keys() != single.keys() or stored.keys() != single.keys():
        raise ModelFormatError("manifest words or chain do not name the single-language stages")
    try:
        chain = read_chain(single, family, multi, words)
    except ValueError as exc:
        raise ModelFormatError(f"manifest {exc}") from exc
    digests = manifest.get("embeddings_sha256", {})
    if not isinstance(digests, dict) or not all(
        lang in single and isinstance(d, str) and _SHA256_HEX.fullmatch(d)
        for lang, d in digests.items()
    ):
        raise ModelFormatError(
            "manifest embeddings_sha256 is not a map from its languages to SHA-256 hex digests"
        )
    for lang, lang_chain in chain.items():
        # the stored copy is for readers of the manifest alone, and the
        # payload CRC does not cover it
        if stored[lang] != {w: list(triple) for w, triple in lang_chain.items()}:
            raise ModelFormatError(
                f"manifest chain of {lang!r} differs from the chain its stages' members give"
            )
    return ClusterModel(
        single=single,
        family=family,
        multi=multi,
        chain=chain,
        embed_dim=int(manifest["embed_dim"]),
        seed=int(manifest["seed"]),
        k_policy=KPolicy(**manifest["k_policy"]),
        word_embeddings={
            lang: arrays[idx] for lang, idx in manifest["word_embeddings"].items()
        },
        embeddings_sha256=dict(digests),
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
