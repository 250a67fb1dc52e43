"""Benchmark of the psda pipeline: cluster -> augment -> loss -> report.

    python3 bench/run.py                      # every workload, seed 1
    python3 bench/run.py --workload many-pairs --seed 3 --trace 0

Each run writes seeded inputs (``gen.py``), then runs whole rounds of the
workload's schedule through ``psda.cli.main`` while another round still
fits in the measuring time (at least one round).  That time is
``--seconds``, by default ``run_seconds`` from ``BENCHMARK.json``, shared
out equally when the run covers every workload.  The first round's
outputs go through the independent checks in ``checks.py``; every later
round must reproduce them byte for byte.  Outputs live in a scratch
directory under ``bench/.work`` that the run removes.

``--trace 0`` reports the end-to-end metrics, timed in this process with
nothing installed and scaled to a reference machine speed (see
``reference_kernel``).  ``--trace 1`` runs every command in a fresh
interpreter (``layers.py``) that installs the per-layer wrappers and
reports its own peak RSS, and prints the per-layer metrics plus the
tracing overhead: the wrapper calls times the measured cost of one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each command
invocation is one operation.  On ``large-vocab`` the ``report`` command
fails every time (``report.cluster_stats`` cannot allocate its N x N x
(d+p) array); that failure is counted in ``failed``, and any other
failure makes the run incorrect.
"""

import os

# One BLAS thread, the CLI default.  ``psda --threads`` cannot pin it once
# numpy is loaded, so pin it before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
WORK = BENCH / ".work"
COMMANDS = ("cluster", "augment", "loss", "report")
# The invocations of one round, in order.  Short commands run several
# times, in groups spread around the long ones: this machine class
# changes speed over seconds, and samples spread over the round give a
# steadier median than a burst.  Each command's outputs are the same on
# every invocation, so a later one may overwrite an earlier one's files.
SCHEDULES = {
    "large-vocab": ("cluster",) + ("augment",) * 3 + ("loss",) + ("augment",) * 3 + ("report",),
    "many-pairs": ("cluster",) * 8 + ("augment",) * 2 + ("cluster",) * 8 + ("loss",)
                  + ("cluster",) * 8 + ("augment",) * 2 + ("report",),
}
# The one failure the benchmark expects: (workload, command, the psda
# function the exception must pass through).
EXPECTED_FAILURE = ("large-vocab", "report", "cluster_stats")
# An address-space cap makes the failing allocation fail at once whatever
# the machine's overcommit policy, and keeps a run from exhausting memory.
ADDRESS_SPACE_LIMIT = 8 << 30
SETUP_REPEATS = 7
# Every end-to-end time is reported as on a machine where
# ``reference_kernel`` takes this long (about its median on the 2-CPU
# machine the benchmark was tuned on).
REFERENCE_SECONDS = 0.05
PSDA_MODULES = ("cli", "config", "taxonomy", "embeddings", "corpus", "gmm", "domino",
                "model_io", "augment", "binio", "otreg", "report")
SETUP_IMPORTS = "import " + ", ".join(f"psda.{m}" for m in PSDA_MODULES)


def _load_psda():
    if not (SRC / "psda" / "cli.py").is_file():
        sys.exit(f"psda sources not found under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    # the commands import these lazily; load them now so no timing pays it
    for name in PSDA_MODULES:
        module = importlib.import_module(f"psda.{name}")
    if Path(module.__file__).resolve().parent != SRC / "psda":
        sys.exit(f"imported psda from {module.__file__}, not from {SRC}")


def reference_kernel() -> float:
    """Wall time of a fixed numpy computation, taken before every timed
    command and set-up.

    The machines this benchmark was tuned on change speed by up to a half
    for minutes at a time (the same ``loss`` took 5.0 s in one run and
    8.0 s in another), which no number of samples within one run evens
    out.  This kernel slows down and speeds up with them, so end-to-end
    times are multiplied by REFERENCE_SECONDS over the run's median kernel
    time: they are the times on a machine where the kernel takes
    REFERENCE_SECONDS.  It is the benchmark's own code and stays the same
    from one version of psda to the next.
    """
    import numpy as np

    a = np.random.default_rng(0).normal(size=(3000, 117))
    start = time.perf_counter()
    for _ in range(60):
        float(((a - a[:8].mean(axis=0)) ** 2).sum())
    return time.perf_counter() - start


def measure_setup(kernel_s: list) -> float:
    """Median wall time of a fresh interpreter importing psda's command
    modules (numpy and scipy included), after one untimed warm-up that
    fills the bytecode cache.  Appends a kernel time per repeat."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", SETUP_IMPORTS]
    subprocess.run(argv, env=env, check=True, cwd=ROOT)
    times = []
    for _ in range(SETUP_REPEATS):
        kernel_s.append(reference_kernel())
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _argv(command: str, truth, out: dict) -> list:
    cfg = str(truth.config)
    if command == "cluster":
        return ["cluster", "--config", cfg, "--out", str(out["model"])]
    if command == "augment":
        argv = ["augment", "--config", cfg, "--model", str(out["model"]),
                "--out", str(out["aug"]), "--orig-out", str(out["orig"])]
        return argv + (["--matrix-out", str(out["side"])] if truth.sidecar else [])
    if command == "loss":
        return ["loss", "--config", cfg, "--orig", str(out["orig"]), "--aug", str(out["aug"])]
    return ["report", "--model", str(out["model"]),
            "--out-csv", str(out["csv"]), "--out-svg", str(out["svg"])]


def _run_command(argv: list, tracer=None) -> dict:
    """One ``psda.cli.main`` call with its output captured."""
    from psda.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = main(argv)
        except Exception as exc:  # a crash is a result to classify, not to hide
            rc = None
            frames = [f.name for f in traceback.extract_tb(exc.__traceback__)]
            error = {"type": type(exc).__name__, "frames": frames, "message": str(exc)[:200]}
    wall = time.perf_counter() - start
    result = {"rc": rc, "wall": wall, "stdout": stdout.getvalue(),
              "stderr": stderr.getvalue(), "error": error}
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    return result


def _run_traced(argv: list) -> dict:
    """One command in a fresh interpreter with the layer wrappers
    installed; the result adds that process's peak RSS."""
    proc = subprocess.run([sys.executable, str(BENCH / "layers.py"), json.dumps(argv)],
                          capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        return {"rc": None, "wall": 0.0, "stdout": "", "stderr": proc.stderr[-400:],
                "error": {"type": "TracedChildError", "frames": [],
                          "message": f"exit {proc.returncode}"}}
    return json.loads(proc.stdout.splitlines()[-1])


def _digest(out: dict, results: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(out):
        if out[key].exists():
            h.update(key.encode())
            h.update(out[key].read_bytes())
    for command in COMMANDS:
        h.update(results[command][-1]["stdout"].encode())
    return h.hexdigest()


class Run:
    def __init__(self, workload: str, seed: int, root: Path):
        import gen

        self.workload = workload
        self.truth = gen.write_inputs(root / "in", workload, seed)
        outdir = root / "out"
        outdir.mkdir()
        self.out = {
            "model": outdir / "model.psda", "aug": outdir / "aug.jsonl",
            "orig": outdir / "orig.jsonl", "side": outdir / "matrices.f32",
            "csv": outdir / "report.csv", "svg": outdir / "report.svg",
        }
        self.schedule = SCHEDULES.get(workload, COMMANDS)
        self.rounds = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.facts = {}
        self.first_digest = None
        self.kernel_s = []

    def _expected_failure(self, command: str, result: dict) -> bool:
        workload, cmd, frame = EXPECTED_FAILURE
        err = result["error"]
        return (self.workload == workload and command == cmd and err is not None
                and err["type"] == "MemoryError" and frame in err["frames"])

    def round(self, traced: bool) -> dict:
        """One pass over the schedule; maps each command to the list of
        its invocation results, and ``_elapsed`` to the pass's wall time."""
        results = {c: [] for c in COMMANDS}
        start = time.perf_counter()
        for command in self.schedule:
            argv = _argv(command, self.truth, self.out)
            if traced:
                res = _run_traced(argv)
            else:
                self.kernel_s.append(reference_kernel())
                res = _run_command(argv)
            results[command].append(res)
            self.attempted += 1
            if res["rc"] == 0:
                continue
            if self._expected_failure(command, res):
                self.failed += 1
            else:
                self.problems.append(
                    f"{command} failed: rc={res['rc']} error={res['error']} "
                    f"stderr={res['stderr'][-400:]!r}"
                )
        results["_elapsed"] = time.perf_counter() - start
        self.rounds.append(results)
        if self.first_digest is None:
            self.first_digest = _digest(self.out, results)
            self._check(results)
        elif _digest(self.out, results) != self.first_digest:
            self.problems.append(f"round {len(self.rounds)} outputs differ from round 1")
        return results

    def _check(self, results: dict) -> None:
        import checks

        try:
            model = checks.read_model(self.out["model"])
            self.facts["em"] = checks.check_cluster(model, self.truth)
            pairs = checks.check_augment(self.out, self.truth, model)
            summary = json.loads(results["augment"][-1]["stdout"])
            self.facts["augment"] = {"written": summary["written"], "skips": summary["skips"]}
            self.facts["sinkhorn"] = checks.check_loss(results["loss"][-1]["stdout"], pairs)
            if results["report"][-1]["rc"] == 0:
                report = json.loads(results["report"][-1]["stdout"])
                checks.check_report(self.out, report, model)
        except (checks.CheckFailed, KeyError, ValueError, OSError) as exc:
            self.problems.append(f"check failed: {type(exc).__name__}: {exc}")

    def stream_bytes(self) -> int:
        return sum(self.out[k].stat().st_size for k in ("aug", "orig", "side") if self.out[k].exists())


def measure(run: Run, seconds: float, trace: bool) -> None:
    """Whole rounds while the next one, as long as the last, still fits in
    ``seconds``; at least one round."""
    spent = 0.0
    while True:
        last = run.round(traced=trace)["_elapsed"]
        spent += last
        if run.problems or spent + last > seconds:
            return


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run, setup_s: float) -> dict:
    """Throughputs and set-up time in reference-machine seconds: each
    median wall time times REFERENCE_SECONDS over the median kernel time."""
    rounds = run.rounds
    truth = run.truth
    scale = REFERENCE_SECONDS / _median(run.kernel_s)
    wall = {c: scale * _median([res["wall"] for r in rounds for res in r[c]]) for c in COMMANDS}
    records = len(truth.sentences) * truth.copies
    return {
        "setup_s": (scale * setup_s, "s"),
        "cluster_words_per_s": (truth.word_count() / wall["cluster"], "words/s"),
        "augment_records_per_s": (records / wall["augment"], "records/s"),
        "loss_pairs_per_s": (records / wall["loss"], "pairs/s"),
        "model_bytes": (run.out["model"].stat().st_size, "bytes"),
        "stream_bytes": (run.stream_bytes(), "bytes"),
    }


def per_layer(run: Run, call_cost: float) -> dict:
    from layers import self_seconds

    samples = []
    for r in run.rounds:
        # one pipeline pass: per command, the mean over its invocations
        seconds, counts, wall, rss, self_s = defaultdict(float), defaultdict(int), {}, {}, {}
        for command in COMMANDS:
            runs = r[command]
            wall[command] = statistics.fmean(x["wall"] for x in runs)
            rss[command] = max(x["rss_mb"] for x in runs)
            own = defaultdict(float)
            for x in runs:
                for k, v in x["trace"]["seconds"].items():
                    own[k] += v / len(runs)
            self_s[command] = self_seconds(command, wall[command], own)
            for k, v in own.items():
                seconds[k] += v
            for k, v in runs[0]["trace"]["counts"].items():
                counts[k] += v
            counts["calls"] += runs[0]["trace"]["calls"]
        s, n = seconds.__getitem__, counts.__getitem__
        samples.append({
            "embeddings.load_s": (s("embeddings.load"), "s"),
            "embeddings.words": (n("embeddings.words"), "count"),
            "corpus.parse_s": (s("corpus.parse"), "s"),
            "corpus.assemble_s": (s("corpus.assemble"), "s"),
            "corpus.upos_s": (s("corpus.upos"), "s"),
            "gmm.fit_s": (s("gmm.fit"), "s"),
            "gmm.fits": (n("gmm.fits"), "count"),
            "gmm.em_iterations": (n("gmm.em_iterations"), "count"),
            "gmm.capped_fits": (n("gmm.capped_fits"), "count"),
            "domino.build_s": (s("domino.build"), "s"),
            "domino.self_s": (s("domino.build") - s("gmm.fit") - s("domino.embed"), "s"),
            "model_io.save_s": (s("model_io.save"), "s"),
            "model_io.load_s": (s("model_io.load"), "s"),
            "augment.index_s": (s("augment.index"), "s"),
            "augment.sentence_s": (s("augment.sentence"), "s"),
            "augment.replacements": (n("augment.replacements"), "count"),
            "augment.skips": (n("augment.skips"), "count"),
            "binio.write_s": (s("binio.write"), "s"),
            "binio.read_s": (s("binio.read"), "s"),
            "cli.augment_self_s": (self_s["augment"], "s"),
            "cli.loss_self_s": (self_s["loss"], "s"),
            "otreg.pair_s": (s("otreg.pair"), "s"),
            "otreg.sinkhorn_s": (s("otreg.sinkhorn"), "s"),
            "otreg.sinkhorn_iterations": (n("otreg.sinkhorn_iterations"), "count"),
            "otreg.sinkhorn_unconverged": (n("otreg.sinkhorn_unconverged"), "count"),
            "otreg.log_domain_pairs": (n("otreg.log_domain_pairs"), "count"),
            "otreg.spectral_s": (s("otreg.spectral"), "s"),
            "report.points_s": (s("report.points"), "s"),
            "report.stats_s": (s("report.stats"), "s"),
            "report.write_s": (s("report.write"), "s"),
            "rss.cluster_mb": (rss["cluster"], "MB"),
            "rss.augment_mb": (rss["augment"], "MB"),
            "rss.loss_mb": (rss["loss"], "MB"),
            "rss.report_mb": (rss["report"], "MB"),
            "trace.overhead_pct": (100.0 * n("calls") * call_cost / sum(wall.values()), "%"),
        })
    return {k: (_median([smp[k][0] for smp in samples]), unit)
            for k, (_, unit) in samples[0].items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        run = Run(workload, seed, root)
        if trace:
            from layers import wrapper_cost

            call_cost = wrapper_cost()
        else:
            setup_s = measure_setup(run.kernel_s)
        measure(run, seconds, trace)
        correct = not run.problems
        metrics = {}
        if correct:
            metrics = per_layer(run, call_cost) if trace else end_to_end(run, setup_s)
        for problem in run.problems:
            print(f"[{workload}] {problem}", file=sys.stderr)
        rounds = len(run.rounds)
        print(f"[{workload}] seed {seed}: {rounds} round(s), {run.attempted} operations "
              f"attempted, {run.failed} failed ({EXPECTED_FAILURE[1]} on {EXPECTED_FAILURE[0]} "
              f"is the expected MemoryError); checks {'passed' if correct else 'FAILED'}")
        if run.facts:
            print(f"[{workload}] {json.dumps(run.facts, sort_keys=True)}")
        if run.kernel_s:
            print(f"[{workload}] reference kernel: median {_median(run.kernel_s):.4f} s of "
                  f"{len(run.kernel_s)}; times below are scaled to {REFERENCE_SECONDS} s")
        for name, (value, unit) in metrics.items():
            print(f"[{workload}] {name:28s} {value:14.6g} {unit}")
        return {
            "correct": correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main(argv=None) -> int:
    import gen

    ap = argparse.ArgumentParser(description="Benchmark the psda pipeline.")
    ap.add_argument("--workload", choices=sorted(gen.WORKLOADS),
                    help="one workload; default runs every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring time of the whole run; default run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_LIMIT if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_LIMIT, hard)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    workloads = [args.workload] if args.workload else list(gen.WORKLOADS)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"]
    share = seconds / len(workloads)
    results = [run_workload(w, args.seed, share, bool(args.trace)) for w in workloads]
    for result in results:
        print(json.dumps(result, sort_keys=True))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    _load_psda()
    sys.exit(main())
