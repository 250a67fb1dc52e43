"""``--threads`` as a worker count: ``cluster``'s independent fits run on
worker threads bound to their own CPUs, BLAS runs one thread, and no
output depends on how many workers there are."""

import json
import os
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from helpers import (
    child_env,
    conllu_block,
    store_entries,
    synonym_stores,
    write_conllu,
    write_taxonomy,
    write_vectors,
)

from psda import domino
from psda.gmm import gmm_fit
from psda.util import derive_seed, map_sorted

LANGS = ("aa", "ab", "ba", "bb")


def run_child(*argv):
    """One CLI call in a fresh interpreter, where ``main`` pins BLAS before
    numpy loads; returns its stdout as bytes."""
    proc = subprocess.run(
        [sys.executable, "-m", "psda.cli", *map(str, argv)],
        capture_output=True, timeout=300, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.fixture(scope="module")
def four_languages(tmp_path_factory):
    """Four languages in two families, so each stage has several units."""
    root = tmp_path_factory.mktemp("workers")
    stores, _ = synonym_stores(languages=LANGS, groups=4, words_per_group=6, dim=6, seed=3)
    for lang, store in stores.items():
        write_vectors(root / f"vec_{lang}.txt", lang, store_entries(store))
    write_taxonomy(root / "families.txt", {"fa": ["aa", "ab"], "fb": ["ba", "bb"]})
    blocks = [
        conllu_block(
            lang,
            [(f"{lang}_g0_w{i}", "NOUN", 2, "nsubj"), (f"{lang}_g1_w{i}", "VERB", 0, "root"),
             (f"{lang}_g2_w{i}", "NOUN", 2, "obj")],
        )
        for lang in LANGS
        for i in range(2)
    ]
    write_conllu(root / "corpus.conllu", blocks)
    config = root / "psda.cfg"
    config.write_text(
        "taxonomy = families.txt\ncorpus = corpus.conllu\n"
        + "".join(f"embeddings.{lang} = vec_{lang}.txt\n" for lang in LANGS)
        + "k.family = 3\nk.multi = 2\npos.dim = 4\nseed = 1\n",
        encoding="utf-8",
    )
    return SimpleNamespace(root=root, config=str(config))


class TestMapSorted:
    def test_results_come_in_sorted_order(self):
        for workers in (1, 2, 3, 8):
            out = map_sorted(lambda key: key * 2, ["c", "a", "b"], workers)
            assert list(out.items()) == [("a", "aa"), ("b", "bb"), ("c", "cc")]

    def test_one_worker_runs_inline(self):
        seen = map_sorted(lambda key: threading.get_ident(), ["b", "a"], 1)
        assert set(seen.values()) == {threading.get_ident()}

    def test_several_workers_leave_the_calling_thread_free(self):
        seen = map_sorted(lambda key: threading.get_ident(), ["b", "a"], 2)
        assert threading.get_ident() not in seen.values()

    def test_every_key_runs_once_under_frequent_switches(self):
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = map_sorted(lambda key: calls.append(key) or -key, range(400), 3 * os.cpu_count())
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == list(range(400))
        assert out == {key: -key for key in range(400)}

    def test_first_failure_in_sorted_order_wins(self):
        def fn(key):
            if key == "a":
                time.sleep(0.2)  # fails last in time, first in order
            if key in ("a", "c"):
                raise KeyError(key)
            return key

        before = threading.active_count()
        with pytest.raises(KeyError, match="'a'"):
            map_sorted(fn, ["c", "b", "a"], 3)
        assert threading.active_count() == before

    def test_no_key_is_taken_after_a_failure(self):
        called = []

        def fn(key):
            called.append(key)
            if key == "a":
                raise KeyError(key)
            time.sleep(0.05)

        with pytest.raises(KeyError):
            map_sorted(fn, "abcdefgh", 2)
        assert set(called) <= {"a", "b"}


class TestByteIdentityAcrossWorkers:
    def test_main_pins_blas_to_one_thread(self, monkeypatch, run_cli):
        from psda.cli import _BLAS_THREAD_VARS

        for var in _BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "7")
        code, _, err = run_cli("gradcheck", "--instances", "1", "--threads", "3")
        assert code == 0, err
        assert {os.environ[var] for var in _BLAS_THREAD_VARS} == {"1"}

    def test_threads_defaults_to_the_usable_cpus(self):
        from psda.cli import build_parser

        args = build_parser().parse_args(["gradcheck"])
        usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        assert args.threads == (len(usable) if usable else os.cpu_count())

    @pytest.mark.parametrize("blas", ["unpinned", "pinned"])
    def test_default_workers_after_numpy_was_preloaded(self, four_languages, tmp_path, blas):
        # numpy loads before main can pin BLAS; only a pool left unpinned
        # makes --threads default to one worker, from main's first call on
        script = """
import contextlib, io, json, os, sys
import numpy
from psda import cli, domino
real, seen = domino.build_cluster_model, []
def record(*args, workers, **kwargs):
    seen.append(workers)
    return real(*args, workers=workers, **kwargs)
domino.build_cluster_model = record
argv = ["cluster", "--config", sys.argv[1], "--out", sys.argv[2]]
with contextlib.redirect_stdout(io.StringIO()):
    for extra in ([], [], ["--threads", "2"]):
        assert cli.main(argv + extra) == 0
print(json.dumps(seen))
"""
        env = child_env()
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
            env.pop(var, None)
            if blas == "pinned":
                env[var] = "1"
        proc = subprocess.run(
            [sys.executable, "-c", script, four_languages.config, str(tmp_path / "m.psda")],
            capture_output=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        from psda.cli import _usable_cpus

        default = 1 if blas == "unpinned" else _usable_cpus()
        assert json.loads(proc.stdout) == [default, default, 2]

    def test_cluster(self, four_languages, tmp_path):
        model = tmp_path / "m.psda"
        runs = set()
        for threads in (["--threads", "1"], ["--threads", "2"], ["--threads", "3"], []):
            stdout = run_child("cluster", "--config", four_languages.config, "--out", model,
                               *threads)
            runs.add((model.read_bytes(), stdout))
        assert len(runs) == 1
        summary = json.loads(runs.pop()[1])
        assert sorted(summary["stages"]["single"]) == list(LANGS)

    def test_loss_with_gradients(self, four_languages, tmp_path):
        ws = four_languages
        model, aug, orig = tmp_path / "m.psda", tmp_path / "aug.jsonl", tmp_path / "orig.jsonl"
        run_child("cluster", "--config", ws.config, "--out", model)
        run_child("augment", "--config", ws.config, "--model", model,
                  "--out", aug, "--orig-out", orig)
        runs = set()
        for threads in ("1", "2"):
            grad = tmp_path / "grad.bin"
            stdout = run_child("loss", "--config", ws.config, "--orig", orig, "--aug", aug,
                               "--grad-out", grad, "--threads", threads)
            runs.add((stdout, grad.read_bytes()))
        assert len(runs) == 1
        assert len(runs.pop()[0].splitlines()) == 2 * len(LANGS) + 1


def failing_fit(fail: dict):
    """A ``gmm_fit`` that raises for the single-language fits of the
    languages in ``fail``, after the delay each maps to."""
    seeds = {derive_seed(1, "single", lang): lang for lang in LANGS}

    def fit(points, cfg):
        lang = seeds.get(cfg.seed)
        if lang in fail:
            time.sleep(fail[lang])
            raise MemoryError(f"no memory for {lang}")
        return gmm_fit(points, cfg)

    return fit


class TestWorkerFailure:
    def test_memory_error_exits_2_with_one_json_line(self, four_languages, tmp_path,
                                                     monkeypatch, run_cli):
        monkeypatch.setattr(domino, "gmm_fit", failing_fit({"ba": 0.0}))
        before = threading.active_count()
        code, out, err = run_cli("cluster", "--config", four_languages.config,
                                 "--out", tmp_path / "m.psda", "--threads", "2")
        assert threading.active_count() == before
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "MemoryError", "message": "no memory for ba"}
        assert not (tmp_path / "m.psda").exists()

    @pytest.mark.parametrize("threads", ["1", "2", "4"])
    def test_earlier_language_in_sorted_order_is_named(self, four_languages, tmp_path,
                                                       monkeypatch, run_cli, threads):
        # ab fails well after bb, so completion order would name bb
        monkeypatch.setattr(domino, "gmm_fit", failing_fit({"ab": 0.3, "bb": 0.0}))
        before = threading.active_count()
        code, _, err = run_cli("cluster", "--config", four_languages.config,
                               "--out", tmp_path / "m.psda", "--threads", threads)
        assert threading.active_count() == before
        assert code == 2
        assert json.loads(err.strip().splitlines()[-1])["message"] == "no memory for ab"


needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls on this platform"
)


class TestPlacement:
    @pytest.fixture
    def cluster(self, four_languages, tmp_path, run_cli):
        """Model bytes and stdout of an in-process ``cluster`` at ``threads``."""

        def run(threads):
            out = tmp_path / "m.psda"
            code, stdout, err = run_cli(
                "cluster", "--config", four_languages.config, "--out", out, "--threads", threads
            )
            assert code == 0, err
            return out.read_bytes(), stdout

        return run

    @needs_affinity
    def test_one_thread_sets_no_affinity(self, cluster, monkeypatch):
        def refuse(*args):
            raise AssertionError("sched_setaffinity called")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        before = threading.active_count()
        cluster("1")
        assert threading.active_count() == before

    @needs_affinity
    def test_workers_bind_to_their_own_cpus_and_main_stays(self, cluster, monkeypatch):
        allowed = sorted(os.sched_getaffinity(0))
        calls = []
        real = os.sched_setaffinity

        def record(pid, cpus):
            calls.append((threading.get_ident(), pid, set(cpus)))
            real(pid, cpus)

        monkeypatch.setattr(os, "sched_setaffinity", record)
        cluster("2")
        assert os.sched_getaffinity(0) == set(allowed)
        # two workers per stage, each bound once, to the CPUs in turn
        assert len(calls) == 4
        assert threading.get_ident() not in {ident for ident, _, _ in calls}
        assert [pid for _, pid, _ in calls] == [0] * 4
        assert sorted(min(cpus) for _, _, cpus in calls) == sorted(
            [allowed[0], allowed[1 % len(allowed)]] * 2
        )

    @needs_affinity
    def test_unbound_workers_write_the_same_model(self, cluster, monkeypatch):
        inline = cluster("1")

        def unavailable(*args):
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", unavailable)
        assert cluster("2") == inline
        monkeypatch.delattr(os, "sched_setaffinity")
        assert cluster("3") == inline
