import numpy as np
import pytest

from helpers import conllu_block, store_from, write_conllu

from psda.corpus import (
    SentenceRecord,
    assemble_sentence,
    collect_upos_tags,
    iter_conllu_lenient,
)
from psda.errors import OovWordError


def write(tmp_path, blocks):
    p = tmp_path / "corpus.conllu"
    write_conllu(p, blocks)
    return p


def read_conllu(path, default_lang="und"):
    """Every sentence of a CoNLL-U file, read leniently; a block that fails
    to parse fails the test with its reason."""
    out = []
    for rec, problem in iter_conllu_lenient(path, default_lang):
        assert rec is not None, problem
        out.append(rec)
    return out


def problems(path):
    """The reasons the lenient reader gives for the blocks it skips."""
    return [problem for rec, problem in iter_conllu_lenient(path) if rec is None]


def svo_block(lang="en"):
    return conllu_block(
        lang,
        [("dogs", "NOUN", 2, "nsubj"), ("chase", "VERB", 0, "root"), ("cats", "NOUN", 2, "obj")],
    )


class TestReadConllu:
    def test_basic_svo(self, tmp_path):
        (rec,) = read_conllu(write(tmp_path, [svo_block()]), default_lang="en")
        assert rec.tokens == ("dogs", "chase", "cats")
        assert rec.svo == (0, 1, 2)

    def test_missing_object(self, tmp_path):
        block = conllu_block(
            "en", [("dogs", "NOUN", 2, "nsubj"), ("sleep", "VERB", 0, "root")]
        )
        (rec,) = read_conllu(write(tmp_path, [block]))
        assert rec.subject == 0
        assert rec.verb == 1
        assert rec.object is None

    def test_no_roles_at_all(self, tmp_path):
        block = conllu_block("en", [("well", "INTJ", 0, "root")])
        (rec,) = read_conllu(write(tmp_path, [block]))
        assert rec.svo == (None, None, None)

    def test_non_verb_root_falls_back_to_first_verb(self, tmp_path):
        block = conllu_block(
            "en",
            [
                ("rain", "NOUN", 0, "root"),
                ("kept", "VERB", 1, "acl"),
                ("falling", "VERB", 2, "xcomp"),
            ],
        )
        (rec,) = read_conllu(write(tmp_path, [block]))
        assert rec.verb == 1

    def test_verb_fallback_skips_claimed_tokens(self, tmp_path):
        # the subject itself is tagged VERB; the fallback must not reuse it
        block = conllu_block(
            "en",
            [
                ("running", "VERB", 3, "nsubj"),
                ("is", "AUX", 3, "cop"),
                ("fun", "VERB", 0, "root:weird"),
            ],
        )
        (rec,) = read_conllu(write(tmp_path, [block]))
        assert rec.subject == 0
        assert rec.verb == 2

    def test_lang_comment_overrides_default(self, tmp_path):
        path = write(tmp_path, [svo_block("de"), conllu_block("en", [("hi", "INTJ", 0, "root")])])
        recs = read_conllu(path, default_lang="und")
        assert [r.lang for r in recs] == ["de", "en"]

    def test_default_lang_applies_without_comment(self, tmp_path):
        block = "1\thi\thi\tINTJ\t_\t_\t0\troot\t_\t_"
        (rec,) = read_conllu(write(tmp_path, [block]), default_lang="fr")
        assert rec.lang == "fr"

    def test_multiword_range_skipped(self, tmp_path):
        block = "\n".join(
            [
                "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_",
                "1\tde\tde\tADP\t_\t_\t3\tcase\t_\t_",
                "2\tel\tel\tDET\t_\t_\t3\tdet\t_\t_",
                "3\tmar\tmar\tNOUN\t_\t_\t0\troot\t_\t_",
            ]
        )
        (rec,) = read_conllu(write(tmp_path, [block]))
        assert rec.tokens == ("de", "el", "mar")

    def test_bad_column_count_reports_line(self, tmp_path):
        path = write(tmp_path, ["1\tword\tonly four\tcols"])
        (problem,) = problems(path)
        assert problem.startswith(f"{path}:1: ") and "columns" in problem

    def test_non_integer_id(self, tmp_path):
        block = "x\tword\tword\tNOUN\t_\t_\t0\troot\t_\t_"
        assert len(problems(write(tmp_path, [block]))) == 1

    def test_comment_only_block_not_counted(self, tmp_path):
        path = write(tmp_path, ["# just a comment", svo_block()])
        assert len(read_conllu(path)) == 1

    def test_no_trailing_newline(self, tmp_path):
        p = tmp_path / "corpus.conllu"
        p.write_text(svo_block(), encoding="utf-8")
        assert len(read_conllu(p)) == 1


class TestLenientIteration:
    def test_bad_block_reported_not_raised(self, tmp_path):
        path = write(tmp_path, [svo_block(), "1\tbroken", svo_block()])
        results = list(iter_conllu_lenient(path))
        assert [rec is not None for rec, _ in results] == [True, False, True]
        assert "columns" in results[1][1]


class TestCollectUposTags:
    def test_first_tag_wins(self, tmp_path):
        blocks = [
            conllu_block("en", [("run", "VERB", 0, "root")]),
            conllu_block("en", [("run", "NOUN", 0, "root")]),
        ]
        tags = collect_upos_tags(write(tmp_path, blocks))
        assert tags == {"run": "VERB"}

    def test_unknown_tags_ignored(self, tmp_path):
        block = conllu_block("en", [("w", "BOGUS", 0, "root")])
        assert collect_upos_tags(write(tmp_path, [block])) == {}


class TestSentenceRecord:
    def test_roles_in_svo_order(self):
        rec = SentenceRecord(lang="en", tokens=("a", "b", "c"), subject=2, verb=0, object=1)
        assert rec.roles() == [("subject", 2), ("verb", 0), ("object", 1)]

    def test_absent_roles_dropped(self):
        rec = SentenceRecord(lang="en", tokens=("a", "b"), verb=1)
        assert rec.roles() == [("verb", 1)]

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            SentenceRecord(lang="en", tokens=("a",), subject=1)

    def test_duplicate_indices(self):
        with pytest.raises(ValueError):
            SentenceRecord(lang="en", tokens=("a", "b"), subject=0, verb=0)


class TestAssembleSentence:
    def setup_method(self):
        self.store = store_from(
            "en", {"dogs": np.array([1.0, 2.0]), "cats": np.array([3.0, 4.0])}
        )

    def test_rows_are_exact_lookups(self):
        rec = SentenceRecord(lang="en", tokens=("cats", "dogs"))
        mat = assemble_sentence(rec, self.store)
        assert np.array_equal(mat, [[3.0, 4.0], [1.0, 2.0]])

    def test_oov_zero_policy(self):
        rec = SentenceRecord(lang="en", tokens=("dogs", "zzz"))
        mat = assemble_sentence(rec, self.store, oov_policy="zero")
        assert np.array_equal(mat[1], [0.0, 0.0])

    def test_oov_error_policy_names_token(self):
        rec = SentenceRecord(lang="en", tokens=("zzz",))
        with pytest.raises(OovWordError, match="zzz"):
            assemble_sentence(rec, self.store, oov_policy="error")

    def test_language_mismatch(self):
        rec = SentenceRecord(lang="de", tokens=("dogs",))
        with pytest.raises(ValueError):
            assemble_sentence(rec, self.store)

    def test_unknown_policy(self):
        rec = SentenceRecord(lang="en", tokens=("dogs",))
        with pytest.raises(ValueError):
            assemble_sentence(rec, self.store, oov_policy="skip")
