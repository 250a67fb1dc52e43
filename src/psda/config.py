"""Pipeline configuration: a small key = value file plus overrides.

Lines are ``key = value``; blank lines and ``#`` comments are ignored.
Relative paths are resolved against the config file's own directory, so
a config can be invoked from anywhere.  Command-line ``--set key=value``
pairs override the file, and ``--seed`` overrides both.

The settings of the clustering chain and of the regularizer live in the
dataclasses that consume them (``GmmConfig``, ``KPolicy``, ``OtParams``),
which own their defaults and range checks; ``_KEYS`` maps each config key
onto one of their fields.  ``echo()`` renders the effective configuration
in canonical form; it is embedded in command output so results carry
their provenance.  Output locations are deliberately not configuration,
which keeps the echoed provenance, and therefore the output bytes,
independent of where results are written.
"""

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .domino import KPolicy
from .errors import ConfigError, PsdaError
from .gmm import GmmConfig
from .otreg import OtParams


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected an integer, got {raw!r}") from None


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected a number, got {raw!r}") from None


def _parse_str(raw: str, key: str) -> str:
    return raw


def _parse_k(raw: str, key: str) -> Optional[int]:
    return None if raw == "auto" else _parse_int(raw, key)


def _parse_floats(raw: str, key: str) -> tuple[float, ...]:
    return tuple(_parse_float(p.strip(), key) for p in raw.split(","))


def _fmt(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ",".join(repr(x) for x in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# config key -> (section of PipelineConfig, or None for its own fields; field; parser)
_KEYS = {
    "seed": (None, "seed", _parse_int),
    "copies": (None, "copies", _parse_int),
    "oov": (None, "oov", _parse_str),
    "pos.seed": (None, "pos_seed", _parse_int),
    "pos.dim": (None, "pos_dim", _parse_int),
    "k.single": ("k", "single", _parse_k),
    "k.family": ("k", "family", _parse_k),
    "k.multi": ("k", "multi", _parse_k),
    "gmm.covariance": ("gmm", "covariance", _parse_str),
    "gmm.max_iter": ("gmm", "max_iter", _parse_int),
    "gmm.tol": ("gmm", "tol", _parse_float),
    "gmm.cov_floor": ("gmm", "cov_floor", _parse_float),
    "ot.epsilon": ("ot", "epsilon", _parse_float),
    "ot.tail": ("ot", "tail_count", _parse_int),
    "ot.eta": ("ot", "eta", _parse_float),
    "ot.power": ("ot", "power", _parse_float),
    "ot.max_iter": ("ot", "max_iter", _parse_int),
    "ot.tol": ("ot", "tol", _parse_float),
    "rho": ("ot", "rho", _parse_floats),
    "lam": ("ot", "lam", _parse_floats),
}

# section -> (dataclass, name used in its error messages)
_SECTIONS = {
    "gmm": (GmmConfig, "clustering"),
    "ot": (OtParams, "transport"),
    "k": (KPolicy, "cluster count"),
}

_PATH_KEYS = ("taxonomy", "corpus")


def _known_key(key: str) -> bool:
    return key in _KEYS or key in _PATH_KEYS or key.startswith("embeddings.")


def read_config_file(path) -> dict[str, str]:
    """Parse a config file into a raw key -> value map."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if not _known_key(key):
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
        out[key] = value
    return out


@dataclass
class PipelineConfig:
    """Input paths and run-wide settings, plus the settings of each stage.

    ``gmm`` is the template every clustering scope derives its fit from:
    its ``k`` is a placeholder the stages resolve through ``k``, and its
    seed is the run seed.
    """

    taxonomy_path: Optional[Path] = None
    corpus_path: Optional[Path] = None
    embedding_paths: dict[str, Path] = field(default_factory=dict)
    seed: int = 0
    copies: int = 1
    oov: str = "zero"
    pos_seed: int = 0
    pos_dim: int = 17
    gmm: GmmConfig = GmmConfig(k=1)
    ot: OtParams = OtParams()
    k: KPolicy = KPolicy()

    def __post_init__(self):
        if self.copies < 1:
            raise ValueError(f"copies must be at least 1, got {self.copies}")
        if self.oov not in ("zero", "error"):
            raise ValueError(f"oov must be zero or error, got {self.oov!r}")
        if self.pos_dim < 0:
            raise ValueError(f"pos.dim must be nonnegative, got {self.pos_dim}")
        if self.pos_seed < 0:
            raise ValueError(f"pos.seed must be nonnegative, got {self.pos_seed}")

    def echo(self) -> dict[str, str]:
        """Effective configuration in canonical string form, sorted keys."""
        out = {
            key: _fmt(getattr(self if section is None else getattr(self, section), name))
            for key, (section, name, _) in _KEYS.items()
        }
        if self.taxonomy_path is not None:
            out["taxonomy"] = str(self.taxonomy_path)
        if self.corpus_path is not None:
            out["corpus"] = str(self.corpus_path)
        for lang in sorted(self.embedding_paths):
            out[f"embeddings.{lang}"] = str(self.embedding_paths[lang])
        return dict(sorted(out.items()))


DEFAULTS: dict[str, str] = PipelineConfig().echo()


def _construct(cls, what: str, **values):
    try:
        return cls(**values)
    except (ValueError, PsdaError) as exc:
        raise ConfigError(f"invalid {what} settings: {exc}") from exc


def build_config(raw: dict[str, str], base_dir: Optional[Path] = None) -> PipelineConfig:
    """Materialize a typed config from merged raw values.

    Unset keys take the documented defaults; relative paths are resolved
    against ``base_dir`` when given.  Every value the pipeline would
    reject later is rejected here, before any input is read.
    """
    for key in raw:
        if not _known_key(key):
            raise ConfigError(f"unknown config key {key!r}")
    merged = {**DEFAULTS, **raw}
    values: dict[Optional[str], dict] = {section: {} for section in (None, *_SECTIONS)}
    for key, (section, name, parse) in _KEYS.items():
        values[section][name] = parse(merged[key], key)
    values["gmm"].update(k=1, seed=values[None]["seed"])
    sections = {
        section: _construct(cls, what, **values[section])
        for section, (cls, what) in _SECTIONS.items()
    }

    def resolve(p: str) -> Path:
        path = Path(p)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return path

    cfg = _construct(
        PipelineConfig,
        "pipeline",
        taxonomy_path=resolve(merged["taxonomy"]) if "taxonomy" in merged else None,
        corpus_path=resolve(merged["corpus"]) if "corpus" in merged else None,
        embedding_paths={
            key.split(".", 1)[1]: resolve(value)
            for key, value in merged.items()
            if key.startswith("embeddings.")
        },
        **values[None],
        **sections,
    )
    # every referenced path must exist up front, not at first use
    named = [("taxonomy", cfg.taxonomy_path), ("corpus", cfg.corpus_path)]
    named += [(f"embeddings.{lang}", p) for lang, p in sorted(cfg.embedding_paths.items())]
    for key, p in named:
        if p is not None and not p.exists():
            raise ConfigError(f"config key {key!r}: path does not exist: {p}")
    return cfg


def load_config(
    path: Optional[str],
    overrides: Optional[dict[str, str]] = None,
    seed: Optional[int] = None,
) -> PipelineConfig:
    """File (optional) + --set overrides + --seed, in increasing precedence."""
    raw: dict[str, str] = {}
    base_dir: Optional[Path] = None
    if path is not None:
        raw.update(read_config_file(path))
        base_dir = Path(path).resolve().parent
    raw.update(overrides or {})
    if seed is not None:
        raw["seed"] = str(seed)
    return build_config(raw, base_dir)
