"""Language taxonomy: the two-level language -> family tree.

The tree is supplied as a line-oriented config file::

    # comment
    Germanic: en, de
    Sino-Tibetan: zh

Each non-comment line is ``family_id: lang1,lang2,...``.  A language may
belong to exactly one family.  The taxonomy is immutable after load and
safe to share across workers.
"""

from dataclasses import dataclass, field

from .errors import DuplicateLanguageError, EmptyFamilyError, ParseError, UnknownLanguageError


@dataclass(frozen=True)
class FamilyEntry:
    family_id: str
    member_languages: tuple[str, ...]


@dataclass(frozen=True)
class LanguageTaxonomy:
    families: tuple[FamilyEntry, ...]
    _family_by_lang: dict[str, str] = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        mapping = {}
        if not self.families:
            raise EmptyFamilyError("taxonomy declares no families")
        seen_ids = set()
        for fam in self.families:
            if fam.family_id in seen_ids:
                raise ParseError(f"duplicate family id {fam.family_id!r}")
            seen_ids.add(fam.family_id)
            if not fam.member_languages:
                raise EmptyFamilyError(f"family {fam.family_id!r} has no languages")
            for lang in fam.member_languages:
                if lang in mapping:
                    raise DuplicateLanguageError(
                        f"language {lang!r} appears in families "
                        f"{mapping[lang]!r} and {fam.family_id!r}"
                    )
                mapping[lang] = fam.family_id
        object.__setattr__(self, "_family_by_lang", mapping)

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(self._family_by_lang)

    def family_of(self, lang: str) -> str:
        """Return the unique family containing ``lang``."""
        try:
            return self._family_by_lang[lang]
        except KeyError:
            raise UnknownLanguageError(f"language {lang!r} is not in the taxonomy") from None


def load_taxonomy(path) -> LanguageTaxonomy:
    """Parse a taxonomy config file.  Errors carry the offending line number."""
    families = []
    seen_langs = {}
    seen_families = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise ParseError("expected 'family_id: lang1,lang2,...'", path=path, line=lineno)
            family_id, _, rest = line.partition(":")
            family_id = family_id.strip()
            if not family_id:
                raise ParseError("empty family id", path=path, line=lineno)
            if family_id in seen_families:
                raise ParseError(f"duplicate family id {family_id!r}", path=path, line=lineno)
            seen_families.add(family_id)
            langs = tuple(tok.strip() for tok in rest.split(",") if tok.strip())
            if not langs:
                raise EmptyFamilyError(f"family {family_id!r} has no languages", path=path, line=lineno)
            for lang in langs:
                if lang in seen_langs:
                    raise DuplicateLanguageError(
                        f"language {lang!r} already in family {seen_langs[lang]!r}",
                        path=path,
                        line=lineno,
                    )
                seen_langs[lang] = family_id
            families.append(FamilyEntry(family_id, langs))
    if not families:
        raise ParseError("taxonomy file declares no families", path=path)
    return LanguageTaxonomy(tuple(families))
