import pytest

from psda.errors import (
    DuplicateLanguageError,
    EmptyFamilyError,
    ParseError,
    UnknownLanguageError,
)
from psda.taxonomy import FamilyEntry, LanguageTaxonomy, load_taxonomy


def write(tmp_path, text):
    p = tmp_path / "families.txt"
    p.write_text(text, encoding="utf-8")
    return p


def test_load_two_families(tmp_path):
    tax = load_taxonomy(write(tmp_path, "Germanic: en, de\nSino-Tibetan: zh\n"))
    assert len(tax.families) == 2
    assert sorted(tax.languages) == ["de", "en", "zh"]
    assert tax.family_of("de") == "Germanic"
    assert tax.family_of("zh") == "Sino-Tibetan"


def test_load_minimal_family(tmp_path):
    tax = load_taxonomy(write(tmp_path, "F: xx\n"))
    assert len(tax.families) == 1
    assert tax.languages == ("xx",)
    assert tax.family_of("xx") == "F"


def test_comments_and_blanks_ignored(tmp_path):
    tax = load_taxonomy(write(tmp_path, "# header\n\nF: xx\n  # trailing comment\n"))
    assert tax.languages == ("xx",)


def test_duplicate_language_across_families(tmp_path):
    with pytest.raises(DuplicateLanguageError) as err:
        load_taxonomy(write(tmp_path, "A: en\nB: en\n"))
    assert err.value.line == 2


def test_duplicate_family_id(tmp_path):
    with pytest.raises(ParseError):
        load_taxonomy(write(tmp_path, "A: en\nA: de\n"))


def test_empty_family(tmp_path):
    with pytest.raises(EmptyFamilyError):
        load_taxonomy(write(tmp_path, "A:\n"))


def test_missing_colon_reports_line(tmp_path):
    with pytest.raises(ParseError) as err:
        load_taxonomy(write(tmp_path, "A: en\njust words\n"))
    assert err.value.line == 2


def test_empty_file_rejected(tmp_path):
    with pytest.raises(ParseError):
        load_taxonomy(write(tmp_path, "# nothing here\n"))


def test_unknown_language_lookup(tmp_path):
    tax = load_taxonomy(write(tmp_path, "F: xx\n"))
    with pytest.raises(UnknownLanguageError):
        tax.family_of("yy")


def test_constructor_enforces_uniqueness():
    with pytest.raises(DuplicateLanguageError):
        LanguageTaxonomy((FamilyEntry("A", ("en",)), FamilyEntry("B", ("en",))))
    with pytest.raises(EmptyFamilyError):
        LanguageTaxonomy((FamilyEntry("A", ()),))
    with pytest.raises(EmptyFamilyError):
        LanguageTaxonomy(())
