"""Per-layer timers and counters, installed from outside psda.

``Tracer.install()`` replaces public functions of psda's modules with
timing wrappers.  ``psda.cli`` imports what it calls inside each command
function, so one wrapper on the defining module catches those calls;
``psda.domino`` binds ``gmm_fit`` and ``final_embeddings`` when it is
imported, so those names are wrapped there as well.  Counts are read from
the values the layers return (``TransportPlan`` fields, the length of a
``GmmModel`` trace).  The wrappers stay for the life of the process, so
install them only in a process that runs one traced command.

``python3 bench/layers.py '<argv as JSON>'`` is that process: a fresh
interpreter that installs the wrappers, runs one ``psda.cli.main`` call
and prints its result, with its own peak RSS, as one JSON line.  The
peak is ``VmHWM``, which starts afresh at exec; ``ru_maxrss`` would not
do, since Linux carries the parent's resident set over into it when the
parent starts the child.
"""

import functools
import statistics
import time
import types
from collections import defaultdict

# Time keys, one per layer boundary; each command's self time is its wall
# time minus the top-level keys it spent inside (nested keys excluded).
TOP_LEVEL = {
    "cluster": ("embeddings.load", "corpus.upos", "domino.build", "model_io.save"),
    "augment": (
        "embeddings.load", "corpus.parse", "corpus.assemble", "model_io.load",
        "augment.index", "augment.sentence", "binio.write",
    ),
    "loss": ("otreg.pair", "binio.read"),
    "report": ("model_io.load", "report.points", "report.stats", "report.write"),
}


def self_seconds(command: str, wall: float, seconds: dict) -> float:
    """A command's wall time outside the layers it called directly."""
    return wall - sum(seconds.get(k, 0.0) for k in TOP_LEVEL[command])


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.calls = 0

    def _wrap(self, module, name, key, count=None):
        fn = getattr(module, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls += 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.seconds[key] += time.perf_counter() - start
            if count is not None:
                count(out, args, kwargs)
            return out

        setattr(module, name, wrapper)
        return wrapper

    def _wrap_iter(self, module, name, key):
        fn = getattr(module, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                self.calls += 1
                start = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.seconds[key] += time.perf_counter() - start
                yield item

        setattr(module, name, wrapper)

    def install(self):
        from psda import augment, binio, corpus, domino, embeddings, gmm, model_io, otreg, report

        c = self.counts

        def words(store, args, kwargs):
            c["embeddings.words"] += len(store)

        def fit(model, args, kwargs):
            cfg = args[1] if len(args) > 1 else kwargs["cfg"]
            c["gmm.fits"] += 1
            c["gmm.em_iterations"] += len(model.log_likelihood_trace)
            # an uncapped fit stops inside the loop; a capped one appends a
            # final refresh after max_iter iterations
            c["gmm.capped_fits"] += len(model.log_likelihood_trace) == cfg.max_iter + 1

        def sentence(aug, args, kwargs):
            c["augment.replacements"] += len(aug.replacements)
            c["augment.skips"] += len(aug.skipped)

        def plan(p, args, kwargs):
            c["otreg.sinkhorn_iterations"] += p.iterations_used
            c["otreg.sinkhorn_unconverged"] += not p.converged
            c["otreg.log_domain_pairs"] += bool(p.log_domain)

        self._wrap(embeddings, "load_vectors", "embeddings.load", words)
        self._wrap(corpus, "collect_upos_tags", "corpus.upos")
        self._wrap(corpus, "assemble_sentence", "corpus.assemble")
        self._wrap_iter(corpus, "iter_conllu_lenient", "corpus.parse")
        fit_wrapper = self._wrap(gmm, "gmm_fit", "gmm.fit", fit)
        domino.gmm_fit = fit_wrapper
        self._wrap(domino, "final_embeddings", "domino.embed")
        self._wrap(domino, "build_cluster_model", "domino.build")
        self._wrap(model_io, "save_model", "model_io.save")
        self._wrap(model_io, "load_model", "model_io.load")
        self._wrap(model_io, "read_manifest", "model_io.load")
        self._wrap(augment, "build_candidate_index", "augment.index")
        self._wrap(augment, "augment_sentence", "augment.sentence", sentence)
        self._wrap(binio, "write_array", "binio.write")
        self._wrap(binio, "read_array", "binio.read")
        self._wrap(otreg, "affinity_regularization", "otreg.pair")
        self._wrap(otreg, "sinkhorn", "otreg.sinkhorn", plan)
        for name in ("procrustes_map", "eig_shrinkage_loss", "eig_shrinkage_gradient"):
            self._wrap(otreg, name, "otreg.spectral")
        self._wrap(report, "collect_points", "report.points")
        self._wrap(report, "cluster_stats", "report.stats")
        self._wrap(report, "write_report_csv", "report.write")
        self._wrap(report, "write_report_svg", "report.write")

    def snapshot(self) -> dict:
        return {"seconds": dict(self.seconds), "counts": dict(self.counts), "calls": self.calls}


def wrapper_cost(calls: int = 20000, repeats: int = 7) -> float:
    """Seconds one wrapper adds to a call: the median, over ``repeats``
    batches, of the gap between a wrapped and a bare no-op call."""

    def noop():
        return None

    host = types.SimpleNamespace(noop=noop)
    wrapped = Tracer()._wrap(host, "noop", "noop")
    gaps = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        mid = time.perf_counter()
        for _ in range(calls):
            wrapped()
        gaps.append((time.perf_counter() - mid - (mid - start)) / calls)
    return statistics.median(gaps)


def peak_rss_mb() -> float:
    """This process's peak resident set since exec, in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


if __name__ == "__main__":
    import json
    import sys

    import run  # pins BLAS threads before numpy loads

    run._load_psda()
    tracer = Tracer()
    tracer.install()
    result = run._run_command(json.loads(sys.argv[1]), tracer)
    result["rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
