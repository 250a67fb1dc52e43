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
the hard assignments and the EM trace.  Centers, expert weights and each
word's (single, family, multi) chain are derived from those on load.  The
manifest also carries the chain and the expert weights for readers of the
manifest alone; a stored chain that differs from the derived one fails,
since the payload CRC does not cover the manifest.  A version-1 file,
which stored the centers a second time, fails with an error naming its
version; re-run ``psda cluster`` to rewrite it.
"""

import json
import struct
import zlib
from dataclasses import asdict, dataclass, field
from typing import Any, BinaryIO

import numpy as np

from .binio import _read_exact
from .domino import ClusterModel, KPolicy, StageClusters
from .errors import ModelFormatError
from .gmm import GmmModel

MODEL_MAGIC = b"PSDAMDL\x00"
_FORMAT_NAME = "psda-model"
_FORMAT_VERSION = 2


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
    gmm = stage.gmm
    return {
        "scope_id": stage.scope_id,
        "members": [[_member_to_json(m) for m in members] for members in stage.members],
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
    members = [[_member_from_json(m) for m in ms] for ms in obj["members"]]
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
    return ClusterModel(
        single=single,
        family=family,
        multi=multi,
        chain=_derived_chain(manifest, single, family, multi),
        embed_dim=int(manifest["embed_dim"]),
        seed=int(manifest["seed"]),
        k_policy=KPolicy(**manifest["k_policy"]),
        word_embeddings={
            lang: arrays[idx] for lang, idx in manifest["word_embeddings"].items()
        },
    )


def _derived_chain(manifest: dict, single: dict, family: dict, multi: StageClusters) -> dict:
    """Each word's (single, family, multi) cluster ids, read from the
    stages' members in the row order of ``words``.

    The manifest's ``chain`` is written for readers of the manifest alone;
    a chain or a word list that disagrees with the members is rejected,
    since the payload CRC does not cover the manifest.
    """
    multi_of = multi.cluster_of()
    above = {}
    for fam, stage in family.items():
        for (lang, t), g in stage.cluster_of().items():
            above[(lang, t)] = (g, multi_of[(fam, g)])
    words = manifest["words"]
    if words.keys() != single.keys() or manifest["chain"].keys() != single.keys():
        raise ModelFormatError("manifest words or chain do not name the single-language stages")
    chain = {}
    for lang, stage in single.items():
        single_of = stage.cluster_of()
        counts = (len(words[lang]), len(single_of), sum(len(m) for m in stage.members))
        if len(set(counts)) != 1 or single_of.keys() != set(words[lang]):
            raise ModelFormatError(f"manifest words of {lang!r} differ from its stage's members")
        triples = [(t, *above[(lang, t)]) for t in range(len(stage.members))]
        as_json = [list(triple) for triple in triples]
        if manifest["chain"][lang] != {w: as_json[t] for w, t in single_of.items()}:
            raise ModelFormatError(
                f"manifest chain of {lang!r} differs from the chain its stages' members give"
            )
        chain[lang] = {w: triples[single_of[w]] for w in words[lang]}
    return chain


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
