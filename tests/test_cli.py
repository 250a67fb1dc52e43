"""End-to-end command-line runs, in-process where possible.

The heavy fixtures (a fitted model plus augmented streams) are built
once per module through the real entry point, then individual tests
assert on summaries, stream layouts, exit codes and determinism.
"""

import contextlib
import io
import json
import os
import re
import shutil
import stat
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    child_env,
    conllu_block,
    read_stream,
    store_entries,
    write_conllu,
    write_vectors,
)

from psda.augment import augment_sentence, build_candidate_index, sentence_seed
from psda.binio import read_array, write_array
from psda.config import load_config
from psda.corpus import assemble_sentence, iter_conllu_lenient
from psda.embeddings import load_vectors
from psda.model_io import load_model, read_manifest


def invoke(*argv):
    """Run the CLI in-process with captured stdout/stderr."""
    from psda.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def stderr_error(err: str) -> dict:
    return json.loads(err.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def built(cli_workspace, tmp_path_factory):
    """One cluster + augment run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli_run")
    model = root / "model.psda"
    code, out, err = invoke("cluster", "--config", cli_workspace.config, "--out", model)
    assert code == 0, err
    cluster_summary = json.loads(out)
    aug = root / "aug.jsonl"
    orig = root / "orig.jsonl"
    code, out, err = invoke(
        "augment", "--config", cli_workspace.config,
        "--model", model, "--out", aug, "--orig-out", orig,
    )
    assert code == 0, err
    return SimpleNamespace(
        root=root,
        model=str(model),
        aug=str(aug),
        orig=str(orig),
        cluster_summary=cluster_summary,
        augment_summary=json.loads(out),
    )


class TestCluster:
    def test_summary_shape(self, built):
        summary = built.cluster_summary
        assert summary["languages"] == ["aa", "bb"]
        assert summary["families"] == ["germ"]
        assert summary["words"] == {"aa": 9, "bb": 9}
        for lang in ("aa", "bb"):
            info = summary["stages"]["single"][lang]
            assert info["clusters"] == 3
            assert info["weight_sum"] == pytest.approx(1.0, abs=1e-12)
            assert info["em_iterations"] >= 1
            assert isinstance(info["em_converged"], bool)
        assert summary["stages"]["multi"]["clusters"] == 3
        assert summary["config"]["seed"] == "1"
        assert summary["config"]["k.single"] == "3"

    def test_capped_fits_report_unconverged(self, cli_workspace, tmp_path):
        code, out, err = invoke(
            "cluster", "--config", cli_workspace.config, "--out", tmp_path / "capped.psda",
            "--set", "gmm.max_iter=1",
        )
        assert code == 0, err
        stages = json.loads(out)["stages"]
        infos = [*stages["single"].values(), *stages["family"].values(), stages["multi"]]
        assert [(i["em_converged"], i["em_iterations"]) for i in infos] == [(False, 2)] * len(infos)

    def test_model_file_written(self, built):
        with open(built.model, "rb") as fh:
            assert fh.read(8) == b"PSDAMDL\x00"

    def test_rerun_is_byte_identical(self, built, cli_workspace, tmp_path):
        again = tmp_path / "model2.psda"
        code, _, err = invoke("cluster", "--config", cli_workspace.config, "--out", again)
        assert code == 0, err
        with open(built.model, "rb") as fa, open(again, "rb") as fb:
            assert fa.read() == fb.read()

    def test_seed_flag_overrides_config(self, cli_workspace, tmp_path, run_cli):
        out = tmp_path / "m.psda"
        code, stdout, _ = run_cli(
            "cluster", "--config", cli_workspace.config, "--seed", "9", "--out", out
        )
        assert code == 0
        assert json.loads(stdout)["config"]["seed"] == "9"

    def test_config_without_taxonomy(self, cli_workspace, tmp_path, run_cli):
        cfg = tmp_path / "part.cfg"
        cfg.write_text(
            f"corpus = {cli_workspace.root}/corpus.conllu\n"
            f"embeddings.aa = {cli_workspace.root}/vec_aa.txt\n",
            encoding="utf-8",
        )
        code, _, err = run_cli("cluster", "--config", cfg, "--out", tmp_path / "m.psda")
        assert code == 2
        payload = stderr_error(err)
        assert payload["error"] == "ConfigError"
        assert "taxonomy" in payload["message"]

    def test_override_to_missing_path(self, cli_workspace, tmp_path, run_cli):
        code, _, err = run_cli(
            "cluster", "--config", cli_workspace.config,
            "--set", "taxonomy=/nope/families.txt", "--out", tmp_path / "m.psda",
        )
        assert code == 2
        payload = stderr_error(err)
        assert payload["error"] == "ConfigError"
        assert "/nope/families.txt" in payload["message"]

    def test_threads_must_be_positive(self, cli_workspace, tmp_path, run_cli):
        code, _, err = run_cli(
            "cluster", "--config", cli_workspace.config,
            "--threads", "0", "--out", tmp_path / "m.psda",
        )
        assert code == 2
        payload = stderr_error(err)
        assert payload["error"] == "ConfigError"
        assert "--threads" in payload["message"]

    def test_negative_pos_seed_is_a_config_error(self, cli_workspace, tmp_path, run_cli):
        out = tmp_path / "m.psda"
        code, _, err = run_cli(
            "cluster", "--config", cli_workspace.config, "--set", "pos.seed=-1", "--out", out
        )
        assert code == 2
        payload = stderr_error(err)
        assert payload["error"] == "ConfigError"
        assert "pos.seed" in payload["message"]
        assert not out.exists()

    def test_set_needs_key_and_value(self, cli_workspace, tmp_path, run_cli):
        code, _, err = run_cli(
            "cluster", "--config", cli_workspace.config,
            "--set", "foo", "--out", tmp_path / "m.psda",
        )
        assert code == 2
        payload = stderr_error(err)
        assert payload["error"] == "ConfigError"
        assert "--set expects key=value" in payload["message"]


OOV_AA = conllu_block("aa", [("zork", "NOUN", 2, "nsubj"), ("blarg", "VERB", 0, "root")])
OOV_BB = conllu_block("bb", [("quux", "NOUN", 0, "root")])


class TestAugment:
    def test_meta_lines(self, built):
        meta, _ = read_stream(built.aug)
        assert meta["stream"] == "augmented"
        assert meta["matrix_file"] is None
        assert meta["config"]["seed"] == "1"
        orig_meta, _ = read_stream(built.orig)
        assert orig_meta["stream"] == "original"

    def test_record_identity_and_shapes(self, built):
        _, records = read_stream(built.aug)
        assert [r["id"] for r in records] == ["s000000c0", "s000001c0", "s000002c0"]
        assert [r["source"] for r in records] == ["s000000", "s000001", "s000002"]
        for rec in records:
            assert len(rec["matrix"]) == len(rec["tokens"])
            assert all(len(row) == 6 for row in rec["matrix"])
            assert rec["copy"] == 0

    def test_svo_rows_replaced_cross_language(self, built, cli_workspace):
        _, records = read_stream(built.aug)
        for rec in records[:2]:
            other = "bb" if rec["lang"] == "aa" else "aa"
            roles = {rep["role"] for rep in rec["replacements"]}
            assert roles == {"subject", "verb", "object"}
            assert rec["skipped"] == []
            for rep in rec["replacements"]:
                assert rep["candidate_lang"] == other
                assert rep["candidate_word"] in store_entries(cli_workspace.stores[other])

    def test_sentence_without_roles_passes_through(self, built):
        _, aug_records = read_stream(built.aug)
        _, orig_records = read_stream(built.orig)
        plain = aug_records[2]
        assert plain["svo"] == {"subject": None, "verb": None, "object": None}
        assert plain["replacements"] == []
        assert plain["matrix"] == orig_records[2]["matrix"]

    def test_summary_counts(self, built):
        summary = built.augment_summary
        assert summary["sentences"] == 3
        assert summary["copies"] == 1
        assert summary["written"] == 3
        assert summary["changed"] == 2
        assert summary["parse_failures"] == 0
        assert summary["replacements"] == {"subject": 2, "verb": 2, "object": 2}
        assert summary["skips"] == {}

    def test_rerun_is_byte_identical(self, built, cli_workspace, tmp_path):
        aug = tmp_path / "aug2.jsonl"
        orig = tmp_path / "orig2.jsonl"
        code, _, err = invoke(
            "augment", "--config", cli_workspace.config,
            "--model", built.model, "--out", aug, "--orig-out", orig,
        )
        assert code == 0, err
        assert aug.read_bytes() == Path(built.aug).read_bytes()
        assert orig.read_bytes() == Path(built.orig).read_bytes()

    def test_multiple_copies(self, built, cli_workspace, tmp_path, run_cli):
        out = tmp_path / "aug3.jsonl"
        code, stdout, _ = run_cli(
            "augment", "--config", cli_workspace.config, "--set", "copies=3",
            "--model", built.model, "--out", out,
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["written"] == 9
        _, records = read_stream(out)
        assert [r["id"] for r in records[:3]] == ["s000000c0", "s000000c1", "s000000c2"]
        assert [r["copy"] for r in records[:3]] == [0, 1, 2]

    def test_matrix_sidecar(self, built, cli_workspace, tmp_path):
        aug = tmp_path / "aug.jsonl"
        orig = tmp_path / "orig.jsonl"
        sidecar = tmp_path / "matrices.bin"
        code, _, err = invoke(
            "augment", "--config", cli_workspace.config, "--model", built.model,
            "--out", aug, "--orig-out", orig, "--matrix-out", sidecar,
        )
        assert code == 0, err
        meta, records = read_stream(aug)
        assert meta["matrix_file"] == "matrices.bin"
        assert all("matrix" not in r and "matrix_ref" in r for r in records)
        # sidecar rows are float32 quantizations of the inline stream
        _, inline_records = read_stream(built.aug)
        with open(sidecar, "rb") as fh:
            for rec, inline in zip(records, inline_records):
                stored = read_array(fh, rec["matrix_ref"]["offset"])
                expected = np.asarray(inline["matrix"], dtype=np.float32).astype(np.float64)
                assert np.array_equal(stored, expected)

    def test_unknown_corpus_language(self, built, cli_workspace, tmp_path, run_cli):
        bad = cli_workspace.root / "corpus_zz.conllu"
        write_conllu(
            bad,
            [conllu_block("zz", [("mystery", "NOUN", 0, "root")])],
        )
        code, _, err = run_cli(
            "augment", "--config", cli_workspace.config, "--set", "corpus=corpus_zz.conllu",
            "--model", built.model, "--out", tmp_path / "x.jsonl",
        )
        assert code == 2
        payload = stderr_error(err)
        assert payload["error"] == "UnknownLanguageError"
        assert "zz" in payload["message"]

    def test_corpus_with_only_broken_blocks(self, built, cli_workspace, tmp_path, run_cli):
        bad = cli_workspace.root / "corpus_broken.conllu"
        # two blocks, both short of the ten required columns
        bad.write_text(
            "# lang = aa\n1\tfoo\tbar\n\n# lang = aa\n1\tbaz\n", encoding="utf-8"
        )
        code, _, err = run_cli(
            "augment", "--config", cli_workspace.config, "--set", "corpus=corpus_broken.conllu",
            "--model", built.model, "--out", tmp_path / "x.jsonl",
        )
        assert code == 2
        payload = stderr_error(err)
        assert payload["error"] == "ParseError"
        assert "failed to parse" in payload["message"]

    def test_all_oov_sentence_is_skipped(self, built, cli_workspace, tmp_path, run_cli):
        corpus = cli_workspace.root / "corpus_oov.conllu"
        oov_block = conllu_block("aa", [("zork", "NOUN", 2, "nsubj"), ("blarg", "VERB", 0, "root")])
        corpus.write_text(
            (cli_workspace.root / "corpus.conllu").read_text(encoding="utf-8")
            + "\n" + oov_block + "\n",
            encoding="utf-8",
        )
        aug, orig = tmp_path / "aug.jsonl", tmp_path / "orig.jsonl"
        code, stdout, err = run_cli(
            "augment", "--config", cli_workspace.config, "--set", "corpus=corpus_oov.conllu",
            "--model", built.model, "--out", aug, "--orig-out", orig,
        )
        assert code == 0, err
        summary = json.loads(stdout)
        assert summary["sentences"] == 3
        assert summary["parse_failures"] == 1
        assert "'zork blarg'" in summary["parse_warnings"][0]
        _, records = read_stream(aug)
        assert [r["source"] for r in records] == ["s000000", "s000001", "s000002"]
        code, stdout, err = run_cli("loss", "--orig", orig, "--aug", aug)
        assert code == 0, err
        assert json.loads(stdout.strip().splitlines()[-1])["aggregate"]["pairs"] == 3

    @pytest.mark.parametrize(
        "blocks, failed, all_oov",
        [
            ([], 0, 0),
            ([OOV_AA, OOV_BB], 0, 2),
            ([OOV_AA, "# lang = aa\n1\tfoo\tbar", OOV_BB], 1, 2),
        ],
        ids=["empty", "all-oov", "all-oov-and-broken"],
    )
    def test_run_that_writes_no_sentence_fails(
        self, built, cli_workspace, tmp_path, run_cli, blocks, failed, all_oov
    ):
        corpus = tmp_path / "corpus.conllu"
        corpus.write_text("\n\n".join(blocks), encoding="utf-8")
        code, stdout, err = run_cli(
            "augment", "--config", cli_workspace.config, "--set", f"corpus={corpus}",
            "--model", built.model, "--out", tmp_path / "x.jsonl",
        )
        assert code == 2
        assert stdout == ""
        payload = stderr_error(err)
        assert payload["error"] == "ParseError"
        assert (
            f"no sentence written: {failed} sentence blocks failed to parse and "
            f"{all_oov} sentences had no in-vocabulary token"
        ) in payload["message"]


@pytest.fixture(scope="module")
def format_run(cli_workspace, tmp_path_factory):
    """One cluster + augment run over inputs that stress the inline row
    encoding: a non-ASCII word, an out-of-vocabulary token, two copies,
    and two words whose vectors differ only in the sign of one zero."""
    root = cli_workspace.root
    aa = store_entries(cli_workspace.stores["aa"])
    aa["äpfel"] = aa["aa_g0_w1"] + 0.01
    aa["aa_pos_zero"] = aa["aa_g1_w2"].copy()
    aa["aa_pos_zero"][2] = 0.0
    aa["aa_neg_zero"] = aa["aa_pos_zero"].copy()
    aa["aa_neg_zero"][2] = -0.0
    write_vectors(root / "vec_aa_format.txt", "aa", aa)
    blocks = [
        conllu_block("aa", [
            ("äpfel", "NOUN", 2, "nsubj"), ("aa_g1_w0", "VERB", 0, "root"),
            ("aa_g2_w1", "NOUN", 2, "obj"), ("aa_pos_zero", "X", 2, "dep"),
            ("zz_unknown", "X", 2, "dep"), ("aa_neg_zero", "X", 2, "dep"),
        ]),
        conllu_block("bb", [
            ("bb_g0_w1", "NOUN", 2, "nsubj"), ("bb_g1_w1", "VERB", 0, "root"),
            ("bb_g2_w0", "NOUN", 2, "obj"),
        ]),
        conllu_block("aa", [
            ("aa_neg_zero", "NOUN", 2, "nsubj"), ("aa_g1_w1", "VERB", 0, "root"),
            ("aa_pos_zero", "NOUN", 2, "obj"), ("äpfel", "X", 2, "dep"),
        ]),
    ]
    write_conllu(root / "corpus_format.conllu", blocks)
    overrides = {
        "embeddings.aa": "vec_aa_format.txt", "corpus": "corpus_format.conllu", "copies": "2"
    }
    settings = [arg for key, value in overrides.items() for arg in ("--set", f"{key}={value}")]
    out = tmp_path_factory.mktemp("stream_format")
    model, aug, orig = out / "model.psda", out / "aug.jsonl", out / "orig.jsonl"
    code, _, err = invoke("cluster", "--config", cli_workspace.config, *settings, "--out", model)
    assert code == 0, err
    code, _, err = invoke(
        "augment", "--config", cli_workspace.config, *settings,
        "--model", model, "--out", aug, "--orig-out", orig,
    )
    assert code == 0, err
    cfg = load_config(cli_workspace.config, overrides)
    return SimpleNamespace(cfg=cfg, model=str(model), aug=aug, orig=orig)


class TestStreamFormat:
    def test_every_line_is_canonical_json(self, format_run):
        for path in (format_run.aug, format_run.orig):
            text = path.read_text(encoding="utf-8")
            assert "äpfel" in text  # written raw, not as a \u escape
            lines = text.splitlines()
            assert len(lines) == (7 if path == format_run.aug else 4)
            for line in lines:
                assert line == json.dumps(
                    json.loads(line), sort_keys=True, separators=(",", ":"), ensure_ascii=False
                )

    def test_matrices_bit_equal_the_library(self, format_run):
        cfg = format_run.cfg
        stores = {lang: load_vectors(p, lang) for lang, p in cfg.embedding_paths.items()}
        pos, neg = stores["aa"]["aa_pos_zero"], stores["aa"]["aa_neg_zero"]
        assert np.array_equal(pos, neg) and pos.tobytes() != neg.tobytes()
        model = load_model(format_run.model)
        index = build_candidate_index(model, stores)
        _, origs = read_stream(format_run.orig)
        _, augs = read_stream(format_run.aug)
        recs = [rec for rec, _ in iter_conllu_lenient(cfg.corpus_path)]
        assert cfg.copies == 2
        assert len(origs) == len(recs) and len(augs) == 2 * len(recs)

        def packed(matrix):
            return np.asarray(matrix, dtype=np.float64).tobytes()

        for i, rec in enumerate(recs):
            mat = assemble_sentence(rec, stores[rec.lang], cfg.oov)
            assert packed(origs[i]["matrix"]) == mat.tobytes()
            for copy in range(cfg.copies):
                aug = augment_sentence(
                    rec, mat, model, index, sentence_seed(cfg.seed, rec, copy)
                )
                assert packed(augs[2 * i + copy]["matrix"]) == aug.augmented.tobytes()
        # the first sentence carries both signed zeros and the OOV zero row
        first = np.asarray(origs[0]["matrix"])
        assert packed(first[3]) == pos.tobytes()
        assert packed(first[5]) == neg.tobytes()
        assert packed(first[4]) == np.zeros(6).tobytes()


    def test_loss_reads_spaced_streams_as_compact_ones(self, format_run, tmp_path):
        spaced = {}
        for name in ("orig", "aug"):
            lines = getattr(format_run, name).read_text(encoding="utf-8").splitlines()
            spaced[name] = tmp_path / f"{name}.jsonl"
            spaced[name].write_text(
                "".join(json.dumps(json.loads(line)) + "\n" for line in lines), encoding="utf-8"
            )
        assert spaced["aug"].stat().st_size > format_run.aug.stat().st_size
        code, compact, err = invoke("loss", "--orig", format_run.orig, "--aug", format_run.aug)
        assert code == 0, err
        code, stdout, err = invoke("loss", "--orig", spaced["orig"], "--aug", spaced["aug"])
        assert code == 0, err
        assert stdout == compact


class TestLoss:
    def run_loss(self, built, *extra):
        code, stdout, err = invoke(
            "loss", "--orig", built.orig, "--aug", built.aug, *extra
        )
        assert code == 0, err
        lines = [json.loads(ln) for ln in stdout.strip().splitlines()]
        assert "aggregate" in lines[-1]
        return lines[:-1], lines[-1]["aggregate"]

    def test_pairs_and_aggregate(self, built):
        pairs, aggregate = self.run_loss(built)
        assert [p["id"] for p in pairs] == ["s000000c0", "s000001c0", "s000002c0"]
        assert [p["source"] for p in pairs] == ["s000000", "s000001", "s000002"]
        for p in pairs:
            assert p["rho"] == [0.4, 0.2, 0.4]
            assert p["lam"] == [0.5, 0.5]
            assert p["non_convergence"] is False
            assert p["iterations_used"] >= 1
            assert p["marginal_error"] >= 0.0
        assert aggregate["pairs"] == 3
        assert aggregate["task_loss"] == 0.0
        assert aggregate["non_convergence_any"] is False
        assert aggregate["max_marginal_error"] == max(p["marginal_error"] for p in pairs)

    def test_aggregate_means_recompute(self, built):
        pairs, aggregate = self.run_loss(built)
        for key in ("loss_ot", "loss_eig", "loss_dis", "loss_reg", "loss_total"):
            mean = sum(p[key] for p in pairs) / len(pairs)
            assert aggregate["mean"][key] == pytest.approx(mean, abs=1e-15)

    def test_untouched_pair_stays_put(self, built):
        pairs, _ = self.run_loss(built)
        plain = pairs[2]
        # identical clouds: direction term vanishes exactly, transport
        # keeps only the vanishing off-diagonal entropic mass
        assert plain["loss_dis"] == 0.0
        assert 0.0 <= plain["loss_ot"] <= 1e-12
        assert plain["loss_eig"] < 0.0

    def test_replaced_pairs_move(self, built):
        pairs, _ = self.run_loss(built)
        for p in pairs[:2]:
            assert p["loss_ot"] > 0.0
            assert p["loss_dis"] > 0.0

    def test_handcrafted_self_pair(self, tmp_path, run_cli):
        orig = tmp_path / "orig.jsonl"
        aug = tmp_path / "aug.jsonl"
        orig.write_text(
            json.dumps({"meta": {"stream": "original"}}) + "\n"
            + json.dumps({"id": "x0", "matrix": [[1.0, 2.0]]}) + "\n",
            encoding="utf-8",
        )
        aug.write_text(
            json.dumps({"meta": {"stream": "augmented"}}) + "\n"
            + json.dumps({"id": "x0c0", "source": "x0", "matrix": [[1.0, 2.0]]}) + "\n",
            encoding="utf-8",
        )
        code, stdout, err = run_cli("loss", "--orig", orig, "--aug", aug)
        assert code == 0, err
        pair = json.loads(stdout.strip().splitlines()[0])
        assert pair["loss_ot"] == 0.0
        assert pair["loss_dis"] == 0.0
        # a meta line without a config echoes null
        assert json.loads(stdout.strip().splitlines()[-1])["aggregate"]["stream_config"] is None

    def test_unmatched_source_id(self, built, tmp_path, run_cli):
        aug = tmp_path / "aug.jsonl"
        aug.write_text(
            json.dumps({"meta": {"stream": "augmented"}}) + "\n"
            + json.dumps({"id": "q0c0", "source": "q0", "matrix": [[0.0]]}) + "\n",
            encoding="utf-8",
        )
        code, _, err = run_cli("loss", "--orig", built.orig, "--aug", aug)
        assert code == 2
        payload = stderr_error(err)
        assert payload["error"] == "ParseError"
        assert "q0" in payload["message"]

    def test_converges_at_the_default_operating_point(self, built):
        code, stdout, err = invoke("loss", "--orig", built.orig, "--aug", built.aug)
        assert code == 0, err
        lines = [json.loads(ln) for ln in stdout.strip().splitlines()]
        assert len(lines) == 4
        assert all(line["non_convergence"] is False for line in lines[:-1])
        assert lines[-1]["aggregate"]["non_convergence_any"] is False

    def test_non_convergence_is_flagged_not_fatal(self, built):
        # a soft kernel needs many balancing sweeps; one is not enough
        # (at the default epsilon the kernel underflows to a permutation
        # support, which one sweep already balances exactly)
        pairs, aggregate = self.run_loss(
            built, "--set", "ot.max_iter=1", "--set", "ot.epsilon=200"
        )
        assert aggregate["non_convergence_any"] is True
        assert any(p["non_convergence"] for p in pairs)

    def test_gradient_sidecar(self, built, tmp_path):
        grads = tmp_path / "grads.bin"
        code, stdout, err = invoke(
            "loss", "--orig", built.orig, "--aug", built.aug, "--grad-out", grads
        )
        assert code == 0, err
        pairs = [json.loads(ln) for ln in stdout.strip().splitlines()][:-1]
        _, aug_records = read_stream(built.aug)
        with open(grads, "rb") as fh:
            for pair, rec in zip(pairs, aug_records):
                grad = read_array(fh, pair["grad_ref"]["offset"])
                assert grad.shape == (len(rec["tokens"]), 6)
                assert np.all(np.isfinite(grad))

    def test_lines_without_gradients_match_the_lines_with_them(self, built, tmp_path):
        # without --grad-out no gradient is formed; no other byte changes
        code, plain, err = invoke("loss", "--orig", built.orig, "--aug", built.aug)
        assert code == 0, err
        code, with_grads, err = invoke(
            "loss", "--orig", built.orig, "--aug", built.aug, "--grad-out", tmp_path / "g.bin"
        )
        assert code == 0, err
        stripped, refs = re.subn(r'"grad_ref":\{"nbytes":\d+,"offset":\d+\},', "", with_grads)
        assert refs == len(plain.splitlines()) - 1
        assert stripped == plain

    def test_sidecar_streams_feed_loss(self, built, cli_workspace, tmp_path):
        aug = tmp_path / "aug.jsonl"
        orig = tmp_path / "orig.jsonl"
        code, _, err = invoke(
            "augment", "--config", cli_workspace.config, "--model", built.model,
            "--out", aug, "--orig-out", orig, "--matrix-out", tmp_path / "m.bin",
        )
        assert code == 0, err
        code, stdout, err = invoke("loss", "--orig", orig, "--aug", aug)
        assert code == 0, err
        lines = [json.loads(ln) for ln in stdout.strip().splitlines()]
        assert lines[-1]["aggregate"]["pairs"] == 3
        # float32 storage, so losses match the inline run only to the
        # quantization level, which scales with the loss magnitude
        inline_pairs, _ = self.run_loss(built)
        for inline, quantized in zip(inline_pairs, lines[:-1]):
            assert quantized["loss_total"] == pytest.approx(inline["loss_total"], rel=1e-5)

    def test_sidecar_in_another_directory(self, built, cli_workspace, tmp_path):
        """The meta line points at the sidecar wherever --matrix-out put
        it, not at a file of the same name next to the streams."""

        def augment(out_dir, matrix_out, *extra):
            out_dir.mkdir(exist_ok=True)
            code, _, err = invoke(
                "augment", "--config", cli_workspace.config, "--model", built.model,
                "--out", out_dir / "aug.jsonl", "--orig-out", out_dir / "orig.jsonl",
                "--matrix-out", matrix_out, *extra,
            )
            assert code == 0, err

        def pair_lines(out_dir):
            code, stdout, err = invoke(
                "loss", "--orig", out_dir / "orig.jsonl", "--aug", out_dir / "aug.jsonl"
            )
            assert code == 0, err
            return stdout.strip().splitlines()[:-1]

        side_by_side, streams, elsewhere = (tmp_path / d for d in ("same", "a", "b"))
        augment(side_by_side, side_by_side / "m.bin")
        # a stale sidecar of the same name and layout from another seed
        augment(streams, streams / "m.bin", "--seed", "2")
        elsewhere.mkdir()
        augment(streams, elsewhere / "m.bin")
        assert pair_lines(streams) == pair_lines(side_by_side)
        meta, _ = read_stream(streams / "aug.jsonl")
        assert meta["matrix_file"] == "../b/m.bin"

    def test_echoes_stream_config(self, built, cli_workspace, tmp_path, run_cli):
        aug, orig = tmp_path / "aug.jsonl", tmp_path / "orig.jsonl"
        code, _, err = run_cli(
            "augment", "--config", cli_workspace.config, "--set", "copies=2",
            "--model", built.model, "--out", aug, "--orig-out", orig,
        )
        assert code == 0, err
        code, stdout, err = run_cli("loss", "--orig", orig, "--aug", aug)
        assert code == 0, err
        aggregate = json.loads(stdout.strip().splitlines()[-1])["aggregate"]
        assert aggregate["pairs"] == 6
        assert aggregate["config"]["copies"] == "1"
        assert aggregate["stream_config"] == read_stream(aug)[0]["config"]
        assert aggregate["stream_config"]["copies"] == "2"

    def test_non_object_record_is_a_parse_error(self, built, tmp_path, run_cli):
        aug = tmp_path / "aug.jsonl"
        aug.write_text(
            json.dumps({"meta": {"stream": "augmented"}}) + "\n[1, 2]\n", encoding="utf-8"
        )
        code, stdout, err = run_cli("loss", "--orig", built.orig, "--aug", aug)
        assert code == 2
        assert stdout == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ParseError"
        assert f"{aug}:2:" in payload["message"]

    @pytest.mark.parametrize(
        "header",
        [b"", b"\x02\x00", b"\x02\x00\x00\x00\x03"],
        ids=["after-magic", "inside-ndim", "inside-shape"],
    )
    def test_truncated_sidecar_header(self, tmp_path, run_cli, header):
        (tmp_path / "m.bin").write_bytes(b"PSDAF32\x00" + header)
        orig, aug = tmp_path / "orig.jsonl", tmp_path / "aug.jsonl"
        orig.write_text(
            json.dumps({"meta": {}}) + "\n"
            + json.dumps({"id": "x", "matrix": [[1.0, 2.0]]}) + "\n",
            encoding="utf-8",
        )
        aug.write_text(
            json.dumps({"meta": {"matrix_file": "m.bin"}}) + "\n"
            + json.dumps({"id": "y", "source": "x", "matrix_ref": {"offset": 0}}) + "\n",
            encoding="utf-8",
        )
        code, stdout, err = run_cli("loss", "--orig", orig, "--aug", aug)
        assert code == 2
        assert stdout == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ModelFormatError"
        assert "truncated" in payload["message"]

    @pytest.mark.parametrize(
        "stream, meta, record",
        [
            ("aug", [1], {"id": "y", "source": "x", "matrix": [[1.0, 2.0]]}),
            ("aug", {"matrix_file": 7}, {"id": "y", "source": "x", "matrix_ref": {"offset": 0}}),
            ("aug", {"matrix_file": "m.bin"}, {"id": "y", "source": "x", "matrix_ref": [0, 8]}),
            ("aug", {"matrix_file": "m.bin"}, {"id": "y", "source": "x", "matrix_ref": {}}),
            ("aug", {"matrix_file": "m.bin"},
             {"id": "y", "source": "x", "matrix_ref": {"offset": -8}}),
            ("aug", {"matrix_file": "m.bin"},
             {"id": "y", "source": "x", "matrix_ref": {"offset": True}}),
            ("aug", {"matrix_file": "m.bin"},
             {"id": "y", "source": "x", "matrix_ref": {"offset": 0}}),
            ("orig", {}, {"id": ["x"], "matrix": [[1.0, 2.0]]}),
            ("aug", {}, {"id": "y", "source": ["x"], "matrix": [[1.0, 2.0]]}),
            ("aug", {}, {"id": "y", "source": "x", "matrix": [[1.0, {"a": 2.0}]]}),
            ("aug", {}, {"id": "y", "source": "x", "matrix": [[1.0, 10**400]]}),
            ("aug", {}, {"id": "y", "source": "x", "matrix": [["1.5", "2"], [0.5, 2.0]]}),
            ("aug", {}, {"id": "y", "source": "x", "matrix": [[True, 2.0], [0.5, 2.0]]}),
            ("orig", {}, {"id": "x", "matrix": [[None, 2.0], [0.5, 2.0]]}),
            ("aug", {}, {"id": "y", "source": "x", "matrix": [1.0, 2.0]}),
            ("aug", {}, {"id": "y", "source": "x", "matrix": []}),
            ("aug", {}, {"id": "y", "source": "x", "matrix": [[[1.0, 2.0]]]}),
            ("aug", {}, {"id": "y", "source": "x", "matrix": [[1.0, 2.0], [1.0]]}),
            ("aug", {}, {"id": "y", "source": "x", "matrix": [[]]}),
        ],
        ids=[
            "meta-not-object", "matrix-file-not-string", "matrix-ref-not-object",
            "matrix-ref-without-offset", "matrix-ref-negative-offset", "matrix-ref-bool-offset",
            "matrix-ref-past-the-end",
            "id-is-a-list", "source-is-a-list", "matrix-not-numeric", "matrix-huge-integer",
            "matrix-strings", "matrix-boolean", "matrix-null", "matrix-1d", "matrix-empty",
            "matrix-3d", "matrix-ragged", "matrix-empty-row",
        ],
    )
    def test_malformed_stream_is_a_parse_error(self, tmp_path, run_cli, stream, meta, record):
        good = {
            "orig": {"id": "x", "matrix": [[1.0, 2.0]]},
            "aug": {"id": "y", "source": "x", "matrix": [[1.0, 2.0]]},
        }
        paths = {name: tmp_path / f"{name}.jsonl" for name in good}
        for name, path in paths.items():
            lines = [{"meta": meta}, record] if name == stream else [{"meta": {}}, good[name]]
            path.write_text("".join(json.dumps(x) + "\n" for x in lines), encoding="utf-8")
        (tmp_path / "m.bin").write_bytes(b"")
        code, stdout, err = run_cli("loss", "--orig", paths["orig"], "--aug", paths["aug"])
        assert code == 2
        assert stdout == ""
        payload = stderr_error(err)
        assert payload["error"] == "ParseError"
        assert str(paths[stream]) in payload["message"]

    @pytest.mark.parametrize(
        "bad, named",
        [
            ({"matrix": [["x", 1.0, 2.0], [0.0, 1.0, 1.0]]}, "not a numeric array"),
            ({"matrix_ref": {"offset": -8}}, "non-negative integer 'offset'"),
            ({"matrix_ref": {"offset": "end"}}, "not the start of an array"),
            ({"matrix_ref": {"offset": 1}}, "not the start of an array"),
        ],
        ids=["inline-non-numeric", "sidecar-negative-offset", "sidecar-past-the-end",
             "sidecar-off-a-block-start"],
    )
    def test_malformed_third_matrix_stops_loss_before_any_output(
        self, tmp_path, run_cli, bad, named
    ):
        rng = np.random.default_rng(7)
        origs = {f"o{i}": rng.normal(size=(2, 3)) + 2.0 for i in range(4)}
        side = tmp_path / "m.bin"
        with open(side, "wb") as fh:
            refs = [{"offset": write_array(fh, m + 0.5)[0]} for m in origs.values()]
            end = fh.tell()
        records = [{"id": f"o{i}c0", "source": f"o{i}", "matrix_ref": refs[i]} for i in range(4)]
        if "matrix" in bad:
            del records[2]["matrix_ref"]
        elif bad["matrix_ref"]["offset"] == "end":
            bad = {"matrix_ref": {"offset": end}}
        records[2].update(bad)
        orig, aug = tmp_path / "orig.jsonl", tmp_path / "aug.jsonl"
        orig.write_text(
            json.dumps({"meta": {}}) + "\n"
            + "".join(json.dumps({"id": k, "matrix": m.tolist()}) + "\n" for k, m in origs.items()),
            encoding="utf-8",
        )
        aug.write_text(
            json.dumps({"meta": {"matrix_file": "m.bin"}}) + "\n"
            + "".join(json.dumps(r) + "\n" for r in records),
            encoding="utf-8",
        )
        code, stdout, err = run_cli("loss", "--orig", orig, "--aug", aug)
        assert code == 2
        assert stdout == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ParseError"
        assert str(aug) in payload["message"]
        assert "'o2c0'" in payload["message"]
        assert named in payload["message"]

    def test_bad_ref_in_an_unused_original_stops_loss(self, tmp_path, run_cli):
        orig, aug = tmp_path / "orig.jsonl", tmp_path / "aug.jsonl"
        (tmp_path / "m.bin").write_bytes(b"")
        orig.write_text(
            json.dumps({"meta": {"matrix_file": "m.bin"}}) + "\n"
            + json.dumps({"id": "x", "matrix": [[1.0, 2.0]]}) + "\n"
            + json.dumps({"id": "unused", "matrix_ref": {"offset": 64}}) + "\n",
            encoding="utf-8",
        )
        aug.write_text(
            json.dumps({"meta": {}}) + "\n"
            + json.dumps({"id": "y", "source": "x", "matrix": [[1.0, 2.5]]}) + "\n",
            encoding="utf-8",
        )
        code, stdout, err = run_cli("loss", "--orig", orig, "--aug", aug)
        assert code == 2
        assert stdout == ""
        payload = stderr_error(err)
        assert payload["error"] == "ParseError"
        assert str(orig) in payload["message"] and "'unused'" in payload["message"]

    def test_huge_finite_entries_fail_with_one_json_line(self, tmp_path):
        orig, aug = tmp_path / "orig.jsonl", tmp_path / "aug.jsonl"
        orig.write_text(
            json.dumps({"meta": {}}) + "\n"
            + json.dumps({"id": "x", "matrix": [[1e308, 2.0], [0.5, 2.0]]}) + "\n",
            encoding="utf-8",
        )
        aug.write_text(
            json.dumps({"meta": {}}) + "\n"
            + json.dumps({"id": "y", "source": "x", "matrix": [[-1e308, 2.0], [0.5, 1.0]]})
            + "\n",
            encoding="utf-8",
        )
        # a child process, since pytest would catch numpy's warnings before
        # they reached stderr
        proc = subprocess.run(
            [sys.executable, "-m", "psda.cli", "loss", "--orig", str(orig), "--aug", str(aug)],
            capture_output=True, text=True, timeout=300, env=child_env(),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"] == "NonFiniteInputError"

    def test_overflowing_terms_fail_with_one_json_line(self, tmp_path):
        # finite entries whose distances stay finite but overflow the
        # solver's marginal check and both spectral terms
        orig, aug = tmp_path / "orig.jsonl", tmp_path / "aug.jsonl"
        orig.write_text(
            json.dumps({"meta": {}}) + "\n"
            + json.dumps({"id": "x", "matrix": [[2.0, 1e150], [-1e100, 1.0], [2.0, -1e100]]})
            + "\n",
            encoding="utf-8",
        )
        aug.write_text(
            json.dumps({"meta": {}}) + "\n"
            + json.dumps({"id": "y", "source": "x",
                          "matrix": [[1e100, -1e150], [1e100, 1e100], [1.0, 2.0]]})
            + "\n",
            encoding="utf-8",
        )
        proc = subprocess.run(
            [sys.executable, "-m", "psda.cli", "loss", "--orig", str(orig), "--aug", str(aug)],
            capture_output=True, text=True, timeout=300, env=child_env(),
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0]) == {
            "error": "ArithmeticError", "message": "non-finite loss for pair 'y'"
        }

    def test_inline_matrices_are_packed_as_they_are_read(self, tmp_path, run_cli):
        rng = np.random.default_rng(3)
        rows, dim, sources, copies = 12, 100, 60, 2
        orig, aug = tmp_path / "orig.jsonl", tmp_path / "aug.jsonl"
        with open(orig, "w", encoding="utf-8") as fo, open(aug, "w", encoding="utf-8") as fa:
            fo.write(json.dumps({"meta": {"stream": "original"}}) + "\n")
            fa.write(json.dumps({"meta": {"stream": "augmented"}}) + "\n")
            for i in range(sources):
                mat = rng.normal(size=(rows, dim))
                fo.write(json.dumps({"id": f"s{i}", "matrix": mat.tolist()}) + "\n")
                for c in range(copies):
                    mat[0] = rng.normal(size=dim)
                    record = {"id": f"s{i}c{c}", "source": f"s{i}", "matrix": mat.tolist()}
                    fa.write(json.dumps(record) + "\n")
        packed_bytes = sources * (1 + copies) * rows * dim * 8
        argv = ("loss", "--orig", orig, "--aug", aug)
        # a first run keeps lazy imports out of the measured one
        assert run_cli(*argv)[0] == 0
        tracemalloc.start()
        try:
            code, _, err = run_cli(*argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak < 2 * packed_bytes

    @pytest.mark.parametrize(
        "bad, error",
        [
            ({"source": "nowhere", "matrix": [[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]]}, "ParseError"),
            ({"matrix": [[1.0, 0.0, 2.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]]},
             "DimensionMismatchError"),
            ({"matrix": [[1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]]}, "ZeroVectorError"),
        ],
        ids=["missing-source", "shape-differs", "zero-pooled-vector"],
    )
    def test_first_bad_pair_aborts_after_the_pairs_before_it(self, tmp_path, run_cli, bad, error):
        rng = np.random.default_rng(5)
        origs = {f"o{i}": rng.normal(size=(2, 3)) + 2.0 for i in range(4)}
        records = [
            {"id": f"o{i}c0", "source": f"o{i}", "matrix": (origs[f"o{i}"] + 0.5).tolist()}
            for i in range(4)
        ]
        records[2].update(bad)
        orig, aug = tmp_path / "orig.jsonl", tmp_path / "aug.jsonl"
        orig.write_text(
            json.dumps({"meta": {}}) + "\n"
            + "".join(json.dumps({"id": k, "matrix": m.tolist()}) + "\n" for k, m in origs.items()),
            encoding="utf-8",
        )
        aug.write_text(
            json.dumps({"meta": {}}) + "\n" + "".join(json.dumps(r) + "\n" for r in records),
            encoding="utf-8",
        )
        code, stdout, err = run_cli("loss", "--orig", orig, "--aug", aug)
        assert code == 2
        assert [json.loads(line)["id"] for line in stdout.splitlines()] == ["o0c0", "o1c0"]
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error

    def test_a_pair_line_does_not_depend_on_its_block(self, tmp_path, run_cli):
        # three lengths, one with more pairs than a block holds, so the
        # permuted stream puts every pair into another block and place
        rng = np.random.default_rng(6)
        orig_lines, records = [json.dumps({"meta": {}})], []
        for i in range(150):
            rows = (4, 4, 4, 5, 7)[i % 5]
            mat = rng.normal(size=(rows, 8)) + 1.0
            orig_lines.append(json.dumps({"id": f"s{i}", "matrix": mat.tolist()}))
            mat[rng.integers(rows)] = rng.normal(size=8)
            records.append({"id": f"s{i}c0", "source": f"s{i}", "matrix": mat.tolist()})
        orig = tmp_path / "orig.jsonl"
        orig.write_text("\n".join(orig_lines) + "\n", encoding="utf-8")

        def run(name, order):
            aug, grads = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.bin"
            aug.write_text(
                json.dumps({"meta": {}}) + "\n"
                + "".join(json.dumps(records[i]) + "\n" for i in order),
                encoding="utf-8",
            )
            code, stdout, err = run_cli("loss", "--orig", orig, "--aug", aug)
            assert code == 0, err
            lines = {json.loads(line).get("id"): line for line in stdout.splitlines()[:-1]}
            code, stdout, err = run_cli("loss", "--orig", orig, "--aug", aug, "--grad-out", grads)
            assert code == 0, err
            with open(grads, "rb") as fh:
                arrays = {
                    pair["id"]: read_array(fh, pair["grad_ref"]["offset"])
                    for pair in map(json.loads, stdout.splitlines()[:-1])
                }
            return lines, arrays

        lines, arrays = run("forward", range(150))
        for name, order in (("permuted", rng.permutation(150)), ("alone", [7]), ("pair", [9, 3])):
            got_lines, got_arrays = run(name, order)
            assert got_lines == {k: lines[k] for k in got_lines}
            for key, array in got_arrays.items():
                assert np.array_equal(array, arrays[key])
        assert len(got_lines) == 2 and len(lines) == 150

    def test_missing_stream_file(self, tmp_path, run_cli):
        code, _, err = run_cli(
            "loss", "--orig", tmp_path / "none.jsonl", "--aug", tmp_path / "none2.jsonl"
        )
        assert code == 2
        assert stderr_error(err)["error"] == "FileNotFoundError"


class TestGradcheck:
    def test_passes_with_defaults(self, run_cli):
        code, stdout, _ = run_cli("gradcheck", "--instances", "3")
        assert code == 0
        summary = json.loads(stdout)
        assert summary["passed"] is True
        assert summary["checks"] == 9
        assert summary["skipped"] == []
        assert summary["failed"] == []
        assert max(summary["max_relative_error"].values()) <= summary["tolerance"]
        assert summary["corrupt"] is None

    def test_corrupted_gradient_fails(self, run_cli):
        code, stdout, _ = run_cli("gradcheck", "--instances", "2", "--corrupt", "eig")
        assert code == 1
        summary = json.loads(stdout)
        assert summary["passed"] is False
        assert summary["failed"]
        assert {f["term"] for f in summary["failed"]} == {"eig"}

    def test_corrupted_gradient_fails_on_wide_clouds(self, run_cli):
        # rows < dim: the spectral check runs on the core and still has teeth
        code, stdout, _ = run_cli(
            "gradcheck", "--instances", "3", "--rows", "2", "--dim", "5", "--corrupt", "eig"
        )
        assert code == 1
        summary = json.loads(stdout)
        assert summary["passed"] is False
        assert summary["skipped"] == []
        assert {f["term"] for f in summary["failed"]} == {"eig"}

    def test_rejects_unknown_corrupt_target(self):
        with pytest.raises(SystemExit):
            invoke("gradcheck", "--corrupt", "spectral")

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--step", "0"), ("--step", "-1e-5"), ("--step", "nan"), ("--step", "inf"),
            ("--tolerance", "0"), ("--tolerance", "-1e-4"), ("--tolerance", "nan"),
            ("--instances", "0"), ("--instances", "-3"),
            ("--rows", "0"), ("--dim", "0"),
        ],
    )
    def test_rejects_bad_arguments_before_checking(self, run_cli, flag, value):
        code, stdout, err = run_cli("gradcheck", "--instances", "1", f"{flag}={value}")
        assert code == 2
        assert stdout == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ValueError"
        assert flag.lstrip("-") in payload["message"]


@pytest.mark.parametrize(
    "command, setting",
    [
        ("gradcheck", "ot.tol=-1"), ("gradcheck", "ot.tol=nan"), ("gradcheck", "ot.eta=nan"),
        ("gradcheck", "ot.epsilon=inf"), ("cluster", "gmm.tol=nan"),
        ("cluster", "gmm.cov_floor=nan"),
    ],
)
def test_out_of_range_setting_is_a_config_error(
    cli_workspace, tmp_path, run_cli, command, setting
):
    extra = ("--instances", "1") if command == "gradcheck" else ("--out", tmp_path / "m.psda")
    code, stdout, err = run_cli(
        command, "--config", cli_workspace.config, "--set", setting, *extra
    )
    assert code == 2
    assert stdout == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ConfigError"
    assert setting.split("=")[0].split(".")[1] in payload["message"]


@pytest.mark.parametrize(
    "command, first, second",
    [
        ("augment", "--out", "--orig-out"),
        ("augment", "--out", "--matrix-out"),
        ("report", "--out-csv", "--out-svg"),
    ],
    ids=["augment-out-orig-out", "augment-out-matrix-out", "report-csv-svg"],
)
def test_outputs_naming_one_file_are_refused(
    built, cli_workspace, tmp_path, run_cli, command, first, second
):
    # two spellings of one path, resolved before any file is opened
    (tmp_path / "sub").mkdir()
    target = tmp_path / "out"
    code, stdout, err = run_cli(
        command, "--config", cli_workspace.config, "--model", built.model,
        first, target, second, tmp_path / "sub" / ".." / "out",
    )
    assert code == 2
    assert stdout == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ConfigError"
    assert first in payload["message"] and second in payload["message"]
    assert not target.exists()


@pytest.mark.parametrize(
    "command, output, source",
    [
        ("cluster", "--out", "--config"),
        ("cluster", "--out", "taxonomy"),
        ("augment", "--out", "--model"),
        ("augment", "--orig-out", "corpus"),
        ("augment", "--matrix-out", "embeddings.aa"),
        ("loss", "--grad-out", "--orig"),
        ("loss", "--grad-out", "--aug"),
        ("report", "--out-csv", "--model"),
        ("report", "--out-svg", "--config"),
    ],
)
def test_output_naming_an_input_is_refused(
    built, cli_workspace, tmp_path, run_cli, command, output, source
):
    # a private copy of every input, since a run that is not refused
    # overwrites one of them
    ws = tmp_path / "ws"
    shutil.copytree(cli_workspace.root, ws)
    for name in ("model", "orig", "aug"):
        shutil.copy(getattr(built, name), ws)
    cfg, model, orig, aug = (
        ws / name for name in ("psda.cfg", "model.psda", "orig.jsonl", "aug.jsonl")
    )
    inputs = {
        "--config": cfg, "--model": model, "--orig": orig, "--aug": aug,
        "taxonomy": ws / "families.txt", "corpus": ws / "corpus.conllu",
        "embeddings.aa": ws / "vec_aa.txt",
    }
    outputs = {
        "cluster": {"--out": tmp_path / "m.psda"},
        "augment": {
            "--out": tmp_path / "a.jsonl", "--orig-out": tmp_path / "o.jsonl",
            "--matrix-out": tmp_path / "m.bin",
        },
        "loss": {"--grad-out": tmp_path / "g.bin"},
        "report": {"--out-csv": tmp_path / "r.csv", "--out-svg": tmp_path / "r.svg"},
    }[command]
    before = inputs[source].read_bytes()
    reads = {
        "cluster": [], "augment": ["--model", model], "loss": ["--orig", orig, "--aug", aug],
        "report": ["--model", model],
    }[command]
    argv = [command, "--config", cfg, *reads]
    for option, path in outputs.items():
        argv += [option, inputs[source] if option == output else path]
    code, stdout, err = run_cli(*argv)
    assert code == 2
    assert stdout == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ConfigError"
    assert output in payload["message"] and source in payload["message"]
    assert inputs[source].read_bytes() == before
    assert not any(path.exists() for path in outputs.values())


@pytest.mark.parametrize(
    "name, command",
    [
        ("psda.cfg", "cluster"),
        ("families.txt", "cluster"),
        ("corpus.conllu", "augment"),
        ("vec_aa.txt", "cluster"),
        ("orig.jsonl", "loss"),
    ],
    ids=["config", "taxonomy", "corpus", "embeddings", "stream"],
)
def test_input_that_is_not_utf8_names_file_and_line(
    built, cli_workspace, tmp_path, run_cli, name, command
):
    ws = tmp_path / "ws"
    shutil.copytree(cli_workspace.root, ws)
    for attr in ("model", "orig", "aug"):
        shutil.copy(getattr(built, attr), ws)
    lines = (ws / name).read_bytes().split(b"\n")
    lines.insert(2, b"\xff")  # a third line that is not UTF-8
    (ws / name).write_bytes(b"\n".join(lines))
    argv = {
        "cluster": ["--config", ws / "psda.cfg", "--out", tmp_path / "m.psda"],
        "augment": [
            "--config", ws / "psda.cfg", "--model", ws / "model.psda",
            "--out", tmp_path / "a.jsonl",
        ],
        "loss": ["--orig", ws / "orig.jsonl", "--aug", ws / "aug.jsonl"],
    }[command]
    code, stdout, err = run_cli(command, *argv)
    assert code == 2
    assert stdout == ""
    payload = stderr_error(err)
    assert payload["error"] == "ParseError"
    assert re.search(re.escape(name) + r":3: not UTF-8: byte 0xff", payload["message"])


def private_workspace(cli_workspace, built, dest: Path) -> Path:
    """A copy of the CLI inputs and of the built model under ``dest``;
    returns the copy's config."""
    shutil.copytree(cli_workspace.root, dest)
    shutil.copy(built.model, dest)
    return dest / "psda.cfg"


def without_digests(model: Path, out: Path) -> None:
    """``model`` with its manifest's embeddings_sha256 key removed and the
    manifest length rewritten, written to ``out``."""
    data = model.read_bytes()
    start = 8 + 8
    (length,) = struct.unpack("<Q", data[8:start])
    manifest = json.loads(data[start : start + length])
    del manifest["embeddings_sha256"]
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out.write_bytes(data[:8] + struct.pack("<Q", len(body)) + body + data[start + length :])


class TestVerifiedVectors:
    """``cluster`` records each embeddings file's SHA-256 in the model;
    ``augment`` then parses only the rows it reads from a file whose bytes
    match, and every row of any other file, with the same outputs and the
    same errors."""

    def test_summary_reports_each_language(self, built, cli_workspace):
        vectors = built.augment_summary["vectors"]
        assert list(vectors) == sorted(cli_workspace.stores)
        for lang, info in vectors.items():
            assert info["verified_by_model"] is True
            assert 0 < info["rows_parsed"] <= len(cli_workspace.stores[lang])

    def test_rows_parsed_are_the_rows_read(self, built, cli_workspace):
        """A language's rows parsed are its corpus tokens in the vocabulary
        plus the words drawn from it, and no other."""
        read = {lang: set() for lang in cli_workspace.stores}
        for rec, _ in iter_conllu_lenient(Path(cli_workspace.root) / "corpus.conllu"):
            read[rec.lang].update(t for t in rec.tokens if t in cli_workspace.stores[rec.lang])
        for rec in read_stream(built.aug)[1]:
            for rep in rec["replacements"]:
                read[rep["candidate_lang"]].add(rep["candidate_word"])
        vectors = built.augment_summary["vectors"]
        assert {lang: info["rows_parsed"] for lang, info in vectors.items()} == {
            lang: len(words) for lang, words in read.items()
        }
        assert any(len(words) < len(cli_workspace.stores[lang]) for lang, words in read.items())

    @pytest.mark.parametrize(
        "bad, error, text",
        [
            ("oops", "ParseError", "non-numeric component for word {word!r}"),
            ("nan", "NonFiniteInputError", "word {word!r} has NaN/Inf components"),
        ],
    )
    def test_unread_row_corrupted_after_cluster_fails_as_before(
        self, built, cli_workspace, tmp_path, run_cli, bad, error, text
    ):
        cfg = private_workspace(cli_workspace, built, tmp_path / "ws")
        read = {t for rec, _ in iter_conllu_lenient(cfg.parent / "corpus.conllu") for t in rec.tokens}
        read |= {
            rep["candidate_word"]
            for rec in read_stream(built.aug)[1]
            for rep in rec["replacements"]
        }
        vec = cfg.parent / "vec_aa.txt"
        lines = vec.read_text(encoding="utf-8").split("\n")
        lineno, line = next(
            (n, line) for n, line in enumerate(lines, start=1)
            if n > 1 and line and line.split(" ")[0] not in read
        )
        word = line.split(" ")[0]
        lines[lineno - 1] = " ".join(line.split(" ")[:-1] + [bad])
        vec.write_text("\n".join(lines), encoding="utf-8")
        code, stdout, err = run_cli(
            "augment", "--config", cfg, "--model", cfg.parent / "model.psda",
            "--out", tmp_path / "a.jsonl",
        )
        assert code == 2
        assert stdout == ""
        payload = stderr_error(err)
        assert payload["error"] == error
        # the path as the config resolves it, as the full parse names it
        path = load_config(str(cfg)).embedding_paths["aa"]
        assert payload["message"] == f"{path}:{lineno}: " + text.format(word=word)
        assert not (tmp_path / "a.jsonl").exists()

    def test_model_without_digests_parses_every_row(
        self, built, cli_workspace, tmp_path, run_cli
    ):
        model = tmp_path / "model.psda"
        without_digests(Path(built.model), model)
        assert "embeddings_sha256" not in read_manifest(model)
        aug, orig = tmp_path / "aug.jsonl", tmp_path / "orig.jsonl"
        code, stdout, err = run_cli(
            "augment", "--config", cli_workspace.config, "--model", model,
            "--out", aug, "--orig-out", orig,
        )
        assert code == 0, err
        summary = json.loads(stdout)
        assert summary.pop("vectors") == {
            lang: {"verified_by_model": False, "rows_parsed": len(store)}
            for lang, store in cli_workspace.stores.items()
        }
        expected = dict(built.augment_summary)
        del expected["vectors"]
        summary["out"] = expected["out"]
        assert summary == expected
        assert aug.read_bytes() == Path(built.aug).read_bytes()
        assert orig.read_bytes() == Path(built.orig).read_bytes()


class TestAugmentFailureKeepsOutputs:
    """``augment`` writes each output under a temporary name and renames it
    into place only when the run succeeds: a failed run leaves the files
    that were there before as they were, and no temporary file."""

    @pytest.mark.parametrize(
        "corpus, error",
        [
            (b"", "ParseError"),
            (
                f"{conllu_block('aa', [('aa_g0_w0', 'NOUN', 0, 'root')])}\n\n"
                f"{conllu_block('zz', [('mystery', 'NOUN', 0, 'root')])}\n".encode(),
                "UnknownLanguageError",
            ),
            (
                f"{conllu_block('aa', [('aa_g0_w0', 'NOUN', 0, 'root')])}\n\n".encode()
                + b"# lang = aa\n1\t\xff\n",
                "ParseError",
            ),
        ],
        ids=["empty", "unknown-language-mid-corpus", "not-utf8"],
    )
    def test_failed_run_leaves_earlier_outputs(
        self, built, cli_workspace, tmp_path, run_cli, corpus, error
    ):
        (tmp_path / "corpus.conllu").write_bytes(corpus)
        out = tmp_path / "out"
        out.mkdir()
        earlier = {name: f"earlier {name}\n".encode() for name in ("a.jsonl", "o.jsonl", "m.f32")}
        for name, data in earlier.items():
            (out / name).write_bytes(data)
        code, stdout, err = run_cli(
            "augment", "--config", cli_workspace.config,
            "--set", f"corpus={tmp_path / 'corpus.conllu'}", "--model", built.model,
            "--out", out / "a.jsonl", "--orig-out", out / "o.jsonl",
            "--matrix-out", out / "m.f32",
        )
        assert code == 2
        assert stdout == ""
        assert stderr_error(err)["error"] == error
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier

    def test_run_replaces_earlier_outputs(self, built, cli_workspace, tmp_path, run_cli):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("a.jsonl", "o.jsonl", "m.f32"):
            (out / name).write_bytes(b"earlier\n")
        code, _, err = run_cli(
            "augment", "--config", cli_workspace.config, "--model", built.model,
            "--out", out / "a.jsonl", "--orig-out", out / "o.jsonl",
            "--matrix-out", out / "m.f32",
        )
        assert code == 0, err
        assert sorted(p.name for p in out.iterdir()) == ["a.jsonl", "m.f32", "o.jsonl"]
        for name in ("a.jsonl", "o.jsonl"):
            meta, records = read_stream(out / name)
            # the sidecar is named by its final name, not the temporary one
            assert meta["matrix_file"] == "m.f32"
            assert records
        assert (out / "m.f32").read_bytes() != b"earlier\n"

    @pytest.mark.parametrize(
        "target, error, strerror",
        [
            ("missing/a.jsonl", "FileNotFoundError", "No such file or directory"),
            ("out", "IsADirectoryError", "Is a directory"),
        ],
    )
    def test_output_that_cannot_be_written_is_named_as_given(
        self, built, cli_workspace, tmp_path, run_cli, target, error, strerror
    ):
        (tmp_path / "out").mkdir()
        code, stdout, err = run_cli(
            "augment", "--config", cli_workspace.config, "--model", built.model,
            "--out", tmp_path / target,
        )
        assert code == 2
        assert stdout == ""
        payload = stderr_error(err)
        assert payload["error"] == error
        assert payload["message"].endswith(f"{strerror}: '{tmp_path / target}'")
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert not any((tmp_path / "out").iterdir())

    def test_dev_null_is_written_through(self, built, cli_workspace, tmp_path, run_cli):
        before = set(os.listdir("/dev"))
        code, _, err = run_cli(
            "augment", "--config", cli_workspace.config, "--model", built.model,
            "--out", tmp_path / "a.jsonl", "--orig-out", "/dev/null",
        )
        assert code == 0, err
        assert stat.S_ISCHR(os.stat("/dev/null").st_mode)
        assert not {name for name in set(os.listdir("/dev")) - before if name.endswith(".tmp")}

    def test_fifo_is_written_through(self, built, cli_workspace, tmp_path, run_cli):
        fifo = tmp_path / "o.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            code, _, err = run_cli(
                "augment", "--config", cli_workspace.config, "--model", built.model,
                "--out", tmp_path / "a.jsonl", "--orig-out", fifo,
            )
        finally:
            if not received:
                # a writer that never opened the FIFO would leave the reader blocked
                with contextlib.suppress(OSError):
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert code == 0, err
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        code, _, err = run_cli(
            "augment", "--config", cli_workspace.config, "--model", built.model,
            "--out", tmp_path / "a.jsonl", "--orig-out", tmp_path / "o.jsonl",
        )
        assert code == 0, err
        assert received == [(tmp_path / "o.jsonl").read_bytes()]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.jsonl", "o.fifo", "o.jsonl"]


class TestReport:
    @pytest.fixture()
    def rendered(self, built, tmp_path):
        csv_path = tmp_path / "report.csv"
        svg_path = tmp_path / "scatter.svg"
        code, stdout, err = invoke(
            "report", "--model", built.model, "--out-csv", csv_path, "--out-svg", svg_path
        )
        assert code == 0, err
        return SimpleNamespace(
            summary=json.loads(stdout), csv=csv_path, svg=svg_path
        )

    def test_summary(self, rendered):
        summary = rendered.summary
        assert summary["words"] == 18
        assert summary["languages"] == ["aa", "bb"]
        ev = summary["explained_variance"]
        assert len(ev) == 2 and ev[0] >= ev[1] >= 0.0
        assert {c["multi"] for c in summary["clusters"]} == {0, 1, 2}
        assert sum(c["size"] for c in summary["clusters"]) == 18
        # config echoed from the model container, not re-read from disk
        assert summary["config"]["seed"] == "1"

    def test_csv_output(self, rendered):
        lines = rendered.csv.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# config: ")
        assert "seed=1" in lines[0]
        assert lines[1].split(",")[:3] == ["word", "lang", "single"]
        assert len(lines) == 2 + 18

    def test_svg_output(self, rendered):
        text = rendered.svg.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0].startswith("<svg ")
        assert lines[1].startswith("<!-- config: ")
        assert "seed=1" in lines[1]
        assert text.count("<circle ") == 18

    def test_rerun_is_byte_identical(self, rendered, built, tmp_path):
        csv2 = tmp_path / "again.csv"
        svg2 = tmp_path / "again.svg"
        code, _, err = invoke(
            "report", "--model", built.model, "--out-csv", csv2, "--out-svg", svg2
        )
        assert code == 0, err
        assert csv2.read_bytes() == rendered.csv.read_bytes()
        assert svg2.read_bytes() == rendered.svg.read_bytes()

    def test_manifest_missing_a_key(self, tmp_path, run_cli):
        from psda.model_io import MODEL_MAGIC

        body = json.dumps({"format": "psda-model", "version": 2}).encode("utf-8")
        model = tmp_path / "model.psda"
        model.write_bytes(MODEL_MAGIC + struct.pack("<Q", len(body)) + body)
        code, stdout, err = run_cli(
            "report", "--model", model,
            "--out-csv", tmp_path / "r.csv", "--out-svg", tmp_path / "r.svg",
        )
        assert code == 2
        assert stdout == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ModelFormatError"
        assert "arrays" in payload["message"]

    def test_memory_error_exits_2_with_json_line(self, built, tmp_path, monkeypatch):
        import psda.report

        def exhausted(model):
            raise MemoryError("Unable to allocate 126. GiB")

        monkeypatch.setattr(psda.report, "cluster_stats", exhausted)
        code, stdout, err = invoke(
            "report", "--model", built.model,
            "--out-csv", tmp_path / "r.csv", "--out-svg", tmp_path / "r.svg",
        )
        assert code == 2
        assert stdout == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "MemoryError", "message": "Unable to allocate 126. GiB"
        }


def _sidecar_streams(root: Path, shape: tuple) -> tuple:
    """A one-pair loss input whose augmented matrix is a sidecar block
    that declares ``shape`` and carries no payload."""
    header = b"PSDAF32\x00" + struct.pack(f"<I{len(shape)}Q", len(shape), *shape)
    (root / "m.bin").write_bytes(header)
    orig, aug = root / "orig.jsonl", root / "aug.jsonl"
    orig.write_text(
        json.dumps({"meta": {}}) + "\n" + json.dumps({"id": "x", "matrix": [[1.0, 2.0]]}) + "\n",
        encoding="utf-8",
    )
    aug.write_text(
        json.dumps({"meta": {"matrix_file": "m.bin"}}) + "\n"
        + json.dumps({"id": "y", "source": "x", "matrix_ref": {"offset": 0}}) + "\n",
        encoding="utf-8",
    )
    return "loss", "--orig", orig, "--aug", aug


def _model_with(root: Path, model: str, nbytes=None, body_len=None) -> tuple:
    """A copy of ``model`` whose first array declares ``nbytes`` bytes, or
    whose header declares a manifest of ``body_len`` bytes."""
    from psda.model_io import MODEL_MAGIC

    data = Path(model).read_bytes()
    start = len(MODEL_MAGIC) + 8
    (old_len,) = struct.unpack("<Q", data[len(MODEL_MAGIC) : start])
    manifest = json.loads(data[start : start + old_len])
    if nbytes is not None:
        manifest["arrays"][0]["nbytes"] = nbytes
    body = json.dumps(manifest, sort_keys=True).encode("utf-8")
    header = struct.pack("<Q", len(body) if body_len is None else body_len)
    corrupt = root / "model.psda"
    corrupt.write_bytes(MODEL_MAGIC + header + body + data[start + old_len :])
    return "report", "--model", corrupt, "--out-csv", root / "r.csv", "--out-svg", root / "r.svg"


class TestCorruptLengthFields:
    """A length field that claims more bytes than its file holds exits 2
    with one JSON ModelFormatError line, before anything of that size is
    allocated."""

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda root, model: _sidecar_streams(root, (2**62,)),
            lambda root, model: _sidecar_streams(root, (2**40,)),
            lambda root, model: _sidecar_streams(root, (2**32, 2**32)),
            lambda root, model: _model_with(root, model, nbytes=2**64),
            lambda root, model: _model_with(root, model, body_len=2**64 - 1),
        ],
        ids=[
            "sidecar-shape-2^62", "sidecar-shape-2^40", "sidecar-shape-2^32x2^32",
            "manifest-array-nbytes-2^64", "manifest-length-2^64-1",
        ],
    )
    def test_exits_2_without_allocating(self, built, tmp_path, run_cli, corrupt):
        argv = corrupt(tmp_path, built.model)
        tracemalloc.start()
        try:
            code, stdout, err = run_cli(*argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert stdout == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ModelFormatError"
        assert "truncated" in payload["message"]
        assert peak < 1 << 26


class TestCorruptPayload:
    """One flipped bit in a model's float32 payload fails the payload CRC:
    augment and report exit 2 with one JSON ModelFormatError line."""

    @pytest.mark.parametrize("where", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("command", ["augment", "report"])
    def test_exits_2(self, built, cli_workspace, tmp_path, run_cli, command, where):
        data = bytearray(Path(built.model).read_bytes())
        payload = sum(e["nbytes"] for e in read_manifest(built.model)["arrays"])
        data[len(data) - payload + round(where * (payload - 1))] ^= 0x10
        model = tmp_path / "model.psda"
        model.write_bytes(bytes(data))
        if command == "augment":
            argv = ("augment", "--config", cli_workspace.config, "--model", model,
                    "--out", tmp_path / "aug.jsonl")
        else:
            argv = ("report", "--model", model,
                    "--out-csv", tmp_path / "r.csv", "--out-svg", tmp_path / "r.svg")
        code, stdout, err = run_cli(*argv)
        assert code == 2
        assert stdout == ""
        (line,) = err.strip().splitlines()
        error = json.loads(line)
        assert error["error"] == "ModelFormatError"
        assert "CRC" in error["message"]


class TestCorruptManifestChain:
    """A one-digit edit of a stored chain entry, which keeps every length
    and the payload CRC, disagrees with the chain the stages' members give:
    augment and report exit 2 with one JSON ModelFormatError line."""

    @pytest.mark.parametrize("command", ["augment", "report"])
    def test_exits_2(self, built, cli_workspace, tmp_path, run_cli, command):
        data = Path(built.model).read_bytes()
        manifest = read_manifest(built.model)
        word, (t, g, q) = next(iter(manifest["chain"]["aa"].items()))
        multi = len(manifest["stages"]["multi"]["members"])
        assert multi >= 2 and q < 10 and multi <= 10
        old = f'"{word}":[{t},{g},{q}]'.encode()
        assert data.count(old) == 1
        model = tmp_path / "model.psda"
        model.write_bytes(data.replace(old, f'"{word}":[{t},{g},{(q + 1) % multi}]'.encode()))
        if command == "augment":
            argv = ("augment", "--config", cli_workspace.config, "--model", model,
                    "--out", tmp_path / "aug.jsonl")
        else:
            argv = ("report", "--model", model,
                    "--out-csv", tmp_path / "r.csv", "--out-svg", tmp_path / "r.svg")
        code, stdout, err = run_cli(*argv)
        assert code == 2
        assert stdout == ""
        (line,) = err.strip().splitlines()
        error = json.loads(line)
        assert error["error"] == "ModelFormatError"
        assert "chain" in error["message"]


REPO_ROOT = Path(__file__).resolve().parents[1]


def declared_console_script(tmp_path: Path) -> Path:
    """Write the script pip would generate for the declared `psda` entry point."""
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["psda"]
    module, func = target.split(":")
    script = tmp_path / "psda"
    script.write_text(
        "import re\n"
        "import sys\n"
        f"from {module} import {func}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({func}())\n"
    )
    return script


def assert_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: psda")
    # A subcommand is listed when a help row starts with its name; a bare
    # substring test would also match "clustered" in the description.
    for command in ("cluster", "gradcheck"):
        assert re.search(rf"^\s+{command}\s", proc.stdout, re.MULTILINE), command


def run_traced(argv) -> dict:
    """One command under the benchmark's layer tracer, in a child
    interpreter; returns the result line it prints."""
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "bench" / "layers.py"), json.dumps(argv)],
        capture_output=True, text=True, timeout=300, env=child_env(), cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["error"] is None, result["error"]
    assert result["rc"] == 0, result["stderr"]
    return result["trace"]


class TestTracerCompatibility:
    """The benchmark's tracer wraps psda functions by name; a rename that
    breaks it fails here rather than in a benchmark run."""

    def test_loss(self, built, cli_workspace):
        # a tail that covers the spectrum calls none of the wrapped names;
        # one of 5 against d = 6 holds n - 1 of the n core values of each
        # pair (n is 2 or 3 here), so the factorized path runs
        trace = run_traced(
            ["loss", "--config", cli_workspace.config, "--orig", built.orig, "--aug", built.aug,
             "--set", "ot.tail=5"]
        )
        assert trace["seconds"]["otreg.spectral"] > 0

    def test_cluster(self, cli_workspace, tmp_path):
        trace = run_traced(
            ["cluster", "--config", cli_workspace.config, "--out", str(tmp_path / "m.psda")]
        )
        assert trace["counts"]["gmm.fits"] > 0
        assert trace["seconds"]["model_io.save"] > 0

    def test_report(self, built, tmp_path):
        trace = run_traced(
            ["report", "--model", built.model,
             "--out-csv", str(tmp_path / "r.csv"), "--out-svg", str(tmp_path / "r.svg")]
        )
        assert trace["seconds"]["model_io.load"] > 0
        assert trace["seconds"]["report.stats"] > 0

    def test_gradcheck(self):
        trace = run_traced(["gradcheck", "--instances", "1"])
        assert trace["counts"]["otreg.sinkhorn_iterations"] > 0

    def test_sidecar_augment_and_loss(self, built, cli_workspace, tmp_path):
        aug, orig = str(tmp_path / "aug.jsonl"), str(tmp_path / "orig.jsonl")
        trace = run_traced(
            ["augment", "--config", cli_workspace.config, "--model", built.model,
             "--out", aug, "--orig-out", orig, "--matrix-out", str(tmp_path / "m.bin")]
        )
        assert trace["seconds"]["binio.write"] > 0
        trace = run_traced(
            ["loss", "--config", cli_workspace.config, "--orig", orig, "--aug", aug]
        )
        assert trace["seconds"]["binio.read"] > 0


class TestSubprocessEntryPoints:
    def test_console_script_help(self, tmp_path):
        script = declared_console_script(tmp_path)
        proc = subprocess.run(
            [sys.executable, str(script), "--help"],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert_help(proc)

    @pytest.mark.skipif(shutil.which("psda") is None, reason="psda console script not installed")
    def test_installed_console_script_help(self):
        proc = subprocess.run(
            ["psda", "--help"], capture_output=True, text=True, timeout=120, env=child_env()
        )
        assert_help(proc)

    def test_import_loads_no_numpy(self):
        # --threads sets the BLAS environment after these imports
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, psda, psda.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cluster_and_report_load_no_numpy_ma(self, cli_workspace, tmp_path):
        # psda uses nothing of numpy.ma, which costs milliseconds per process
        model = str(tmp_path / "m.psda")
        report = ["report", "--model", model,
                  "--out-csv", str(tmp_path / "r.csv"), "--out-svg", str(tmp_path / "r.svg")]
        code = (
            "import sys\n"
            "from psda.cli import main\n"
            f"codes = [main({['cluster', '--config', cli_workspace.config, '--out', model]!r}),"
            f" main({report!r})]\n"
            "print(codes, 'numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0] False"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "psda.cli", "gradcheck", "--instances", "1"],
            capture_output=True, text=True, timeout=300, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["passed"] is True
