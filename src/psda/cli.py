"""Command-line front end.

Five subcommands: ``cluster`` fits and saves the three-stage model,
``augment`` writes augmented sentence-matrix streams, ``loss`` evaluates
the affinity regularizer over paired streams, ``gradcheck`` verifies the
analytic gradients, ``report`` renders a fitted model to CSV and SVG.

Exit codes: 0 on success, 1 when a verification ran and failed (a
gradient check out of tolerance, a non-finite loss), 2 for usage,
configuration or input errors and for running out of memory.  Errors
are emitted to stderr as one JSON object.  Streams are line-delimited
JSON with sorted keys; the first line of a stream is a ``meta`` record
echoing the configuration.

``augment`` encodes each distinct inline matrix row once per run and
splices the row texts into each record's line, whose bytes stay those
of ``json.dumps`` on the whole record.  ``loss`` validates each inline
matrix and packs it into one float64 array as it reads the line, then
scores the pairs in blocks of one shape (``otreg.score_block``) and
prints their lines in input order; a pair's line and gradient do not
depend on its block, and the first pair that cannot be scored still
aborts right after the lines of the pairs before it.

Heavy imports stay inside the command functions so ``--threads`` can
pin BLAS pools through the environment before numpy first loads.
"""

import argparse
import json
import os
import sys

from .errors import PsdaError

# What main reports with exit 2 and one JSON error line.
_INPUT_ERRORS = (PsdaError, ValueError, OSError, MemoryError)

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _fail(exc) -> None:
    print(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}),
        file=sys.stderr,
    )


def _parse_overrides(pairs):
    from .errors import ConfigError

    overrides = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        overrides[key.strip()] = value.strip()
    return overrides


def _pipeline_config(args, need=()):
    from .config import load_config
    from .errors import ConfigError

    cfg = load_config(args.config, _parse_overrides(args.set), args.seed)
    for what in need:
        if what == "taxonomy" and cfg.taxonomy_path is None:
            raise ConfigError("config is missing the 'taxonomy' path")
        if what == "corpus" and cfg.corpus_path is None:
            raise ConfigError("config is missing the 'corpus' path")
        if what == "embeddings" and not cfg.embedding_paths:
            raise ConfigError("config names no 'embeddings.<lang>' paths")
    return cfg


def _load_stores(cfg):
    from .embeddings import load_vectors

    return {
        lang: load_vectors(path, lang)
        for lang, path in sorted(cfg.embedding_paths.items())
    }


def _pos_tagging(cfg):
    from .corpus import collect_upos_tags
    from .embeddings import PosTagging

    tags = collect_upos_tags(cfg.corpus_path)
    return PosTagging.seeded(tags, projection_dim=cfg.pos_dim, seed=cfg.pos_seed)


def _jsonl_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def cmd_cluster(args) -> int:
    from .domino import build_cluster_model
    from .model_io import save_model
    from .taxonomy import load_taxonomy

    cfg = _pipeline_config(args, need=("taxonomy", "corpus", "embeddings"))
    tax = load_taxonomy(cfg.taxonomy_path)
    stores = _load_stores(cfg)
    pos = _pos_tagging(cfg)
    model = build_cluster_model(stores, pos, tax, cfg.k, cfg.gmm)
    save_model(args.out, model, config=cfg.echo())

    def stage_info(stage):
        return {
            "clusters": len(stage.clusters),
            "weight_sum": float(sum(c.expert_weight for c in stage.clusters)),
            "em_iterations": len(stage.gmm.log_likelihood_trace) if stage.gmm else 0,
        }

    _emit(
        {
            "model": args.out,
            "languages": sorted(model.single),
            "families": sorted(model.family),
            "stages": {
                "single": {lang: stage_info(model.single[lang]) for lang in sorted(model.single)},
                "family": {fam: stage_info(model.family[fam]) for fam in sorted(model.family)},
                "multi": stage_info(model.multi),
            },
            "words": {lang: len(model.chain[lang]) for lang in sorted(model.chain)},
            "warnings": model.warnings,
            "config": cfg.echo(),
        }
    )
    return 0


def _matrix_json(matrix, row_text: dict) -> str:
    """``json.dumps(matrix.tolist())`` in compact form, encoding each
    distinct row once: ``row_text`` maps a row's bytes to its JSON text.
    Bytes, not values, key it, so ``-0.0`` and ``0.0`` stay apart."""
    texts = []
    for row in matrix:
        key = row.tobytes()
        text = row_text.get(key)
        if text is None:
            text = row_text[key] = json.dumps(row.tolist(), separators=(",", ":"))
        texts.append(text)
    return "[" + ",".join(texts) + "]"


def _write_record(fh, record: dict, matrix, sidecar_fh, row_text: dict) -> None:
    """Write one stream line carrying ``matrix``: inline as nested arrays,
    or as an offset into the open binary sidecar when one is being
    written.  An inline line is byte-identical to ``_jsonl_line`` of the
    record with ``matrix.tolist()`` under ``"matrix"``."""
    if sidecar_fh is not None:
        from .binio import write_array

        offset, nbytes = write_array(sidecar_fh, matrix)
        ref = {"offset": offset, "nbytes": nbytes}
        fh.write(_jsonl_line({**record, "matrix_ref": ref}) + "\n")
        return
    fields = {key: _jsonl_line(value) for key, value in record.items()}
    fields["matrix"] = _matrix_json(matrix, row_text)
    fh.write("{" + ",".join(f"{_jsonl_line(k)}:{fields[k]}" for k in sorted(fields)) + "}\n")


def cmd_augment(args) -> int:
    from dataclasses import asdict

    from .augment import augment_sentence, build_candidate_index, sentence_seed
    from .corpus import assemble_sentence, iter_conllu_lenient
    from .errors import ParseError, UnknownLanguageError
    from .model_io import load_model

    cfg = _pipeline_config(args, need=("corpus", "embeddings"))
    stores = _load_stores(cfg)
    model = load_model(args.model)
    index = build_candidate_index(model, stores)

    role_counts = {"subject": 0, "verb": 0, "object": 0}
    skip_counts = {}
    parse_warnings = []
    parsed = 0
    written = 0
    changed = 0
    # JSON text of each distinct inline row: every row written is a
    # vocabulary vector or a zero row, so most repeat across records
    row_text = {}

    sidecar_name = os.path.basename(args.matrix_out) if args.matrix_out else None
    sidecar_fh = open(args.matrix_out, "wb") if args.matrix_out else None
    orig_fh = (
        open(args.orig_out, "w", encoding="utf-8", newline="\n") if args.orig_out else None
    )
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            meta = {"config": cfg.echo(), "matrix_file": sidecar_name}
            fh.write(_jsonl_line({"meta": {**meta, "stream": "augmented"}}) + "\n")
            if orig_fh is not None:
                orig_fh.write(_jsonl_line({"meta": {**meta, "stream": "original"}}) + "\n")
            for rec, problem in iter_conllu_lenient(cfg.corpus_path):
                if rec is None:
                    parse_warnings.append(problem)
                    continue
                if rec.lang not in stores:
                    raise UnknownLanguageError(
                        f"no embeddings configured for language {rec.lang!r}"
                    )
                mat = assemble_sentence(rec, stores[rec.lang], cfg.oov)
                if not any(token in stores[rec.lang] for token in rec.tokens):
                    # its matrix is all zero, a pair that loss cannot score; under
                    # oov = error, assemble_sentence has raised already
                    parse_warnings.append(
                        f"{cfg.corpus_path}: sentence {' '.join(rec.tokens)!r} has no "
                        f"token in the {rec.lang} vocabulary; skipped"
                    )
                    continue
                source_id = f"s{parsed:06d}"
                parsed += 1
                svo = {"subject": rec.subject, "verb": rec.verb, "object": rec.object}
                if orig_fh is not None:
                    record = {
                        "id": source_id,
                        "lang": rec.lang,
                        "tokens": list(rec.tokens),
                        "svo": svo,
                    }
                    _write_record(orig_fh, record, mat, sidecar_fh, row_text)
                for copy in range(cfg.copies):
                    aug = augment_sentence(
                        rec, mat, model, index, sentence_seed(cfg.seed, rec, copy)
                    )
                    written += 1
                    changed += int(aug.changed)
                    for rep in aug.replacements:
                        role_counts[rep.role] += 1
                    for skip in aug.skipped:
                        skip_counts[skip.reason] = skip_counts.get(skip.reason, 0) + 1
                    record = {
                        "id": f"{source_id}c{copy}",
                        "source": source_id,
                        "lang": aug.source_lang,
                        "copy": copy,
                        "tokens": list(aug.tokens),
                        "svo": svo,
                        "replacements": [asdict(r) for r in aug.replacements],
                        "skipped": [asdict(s) for s in aug.skipped],
                    }
                    _write_record(fh, record, aug.augmented, sidecar_fh, row_text)
    finally:
        if orig_fh is not None:
            orig_fh.close()
        if sidecar_fh is not None:
            sidecar_fh.close()

    if parse_warnings and parsed == 0:
        raise ParseError(
            f"all {len(parse_warnings)} sentence blocks failed to parse",
            path=str(cfg.corpus_path),
        )
    _emit(
        {
            "sentences": parsed,
            "parse_failures": len(parse_warnings),
            "parse_warnings": parse_warnings,
            "copies": cfg.copies,
            "written": written,
            "changed": changed,
            "replacements": role_counts,
            "skips": dict(sorted(skip_counts.items())),
            "out": args.out,
            "config": cfg.echo(),
        }
    )
    return 0


def _read_stream(path):
    """Read one JSONL stream; returns (meta record or None, data records).

    An inline ``matrix`` is packed into one float64 array as its line is
    read, so the nested lists of only one line are alive at a time.
    """
    import numpy as np

    from .errors import ParseError

    meta = None
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError("not valid JSON", path=str(path), line=lineno) from exc
            if not isinstance(obj, dict):
                raise ParseError("record is not a JSON object", path=str(path), line=lineno)
            for key in ("id", "source"):
                if key in obj and not isinstance(obj[key], str):
                    raise ParseError(f"{key!r} is not a string", path=str(path), line=lineno)
            if "meta" in obj:
                if not isinstance(obj["meta"], dict):
                    raise ParseError("'meta' is not a JSON object", path=str(path), line=lineno)
                if meta is None:
                    meta = obj["meta"]
                continue
            if "matrix" in obj:
                try:
                    obj["matrix"] = np.asarray(obj["matrix"], dtype=np.float64)
                except (TypeError, ValueError) as exc:
                    raise ParseError(
                        f"record {obj.get('id')!r}: 'matrix' is not a numeric array",
                        path=str(path),
                    ) from exc
            records.append(obj)
    return meta, records


class _MatrixSource:
    """Resolves a record's matrix, inline or via the stream's sidecar."""

    def __init__(self, stream_path, meta):
        from .errors import ParseError

        self.stream_path = str(stream_path)
        self.sidecar_name = (meta or {}).get("matrix_file")
        if not isinstance(self.sidecar_name, (str, type(None))):
            raise ParseError("meta 'matrix_file' is not a string", path=self.stream_path)
        self.fh = None

    def matrix(self, record):
        from .errors import ParseError

        if "matrix" in record:
            return record["matrix"]  # packed by _read_stream
        ref = record.get("matrix_ref")
        if ref is None:
            raise ParseError(
                f"record {record.get('id')!r} carries neither 'matrix' nor 'matrix_ref'",
                path=self.stream_path,
            )
        if not isinstance(ref, dict) or not isinstance(ref.get("offset"), int):
            raise ParseError(
                f"record {record.get('id')!r}: 'matrix_ref' is not an object "
                "with an integer 'offset'",
                path=self.stream_path,
            )
        if self.fh is None:
            if not self.sidecar_name:
                raise ParseError(
                    "stream uses 'matrix_ref' but its meta line names no matrix_file",
                    path=self.stream_path,
                )
            sidecar = os.path.join(
                os.path.dirname(os.path.abspath(self.stream_path)), self.sidecar_name
            )
            self.fh = open(sidecar, "rb")
        from .binio import read_array

        return read_array(self.fh, ref["offset"])

    def close(self):
        if self.fh is not None:
            self.fh.close()


def _scored_in_order(pairs, params, keep_grads: bool):
    """Score (orig, aug) matrix pairs in blocks that share a shape and
    yield each pair's breakdown, or the input error its scoring raised,
    in input order.

    Blocks hold up to BLOCK_PAIRS pairs of one shape, taken in input
    order, and are scored in the order of their first pair; a pair's
    result waits only for the pairs before it.  A block that raises is
    scored again one pair at a time, so an error surfaces at the pair
    that caused it.  Since a pair's breakdown does not depend on its
    block, that changes no other pair's result.  Without ``keep_grads``
    a breakdown's gradient is dropped as soon as it is scored.
    """
    from .otreg import BLOCK_PAIRS, score_block

    groups = {}
    for i, (orig, aug) in enumerate(pairs):
        groups.setdefault((orig.shape, aug.shape), []).append(i)
    blocks = sorted(
        (
            idx[s : s + BLOCK_PAIRS]
            for idx in groups.values()
            for s in range(0, len(idx), BLOCK_PAIRS)
        ),
        key=lambda block: block[0],
    )
    done = {}
    ready = 0
    for block in blocks:
        try:
            results = score_block(
                [pairs[i][0] for i in block], [pairs[i][1] for i in block], params
            )
        except _INPUT_ERRORS:
            results = []
            for i in block:
                try:
                    results.append(score_block([pairs[i][0]], [pairs[i][1]], params)[0])
                except _INPUT_ERRORS as exc:
                    results.append(exc)
        for i, result in zip(block, results):
            if not (keep_grads or isinstance(result, _INPUT_ERRORS)):
                result.grad_augmented = None
            done[i] = result
        while ready in done:
            yield done.pop(ready)
            ready += 1


def cmd_loss(args) -> int:
    import math

    from .binio import write_array
    from .errors import ParseError

    cfg = _pipeline_config(args)

    orig_meta, orig_records = _read_stream(args.orig)
    originals = {}
    for rec in orig_records:
        rid = rec.get("id")
        if rid is None:
            raise ParseError("original record lacks an 'id'", path=str(args.orig))
        if rid in originals:
            raise ParseError(f"duplicate original id {rid!r}", path=str(args.orig))
        originals[rid] = rec
    aug_meta, aug_records = _read_stream(args.aug)
    if not aug_records:
        raise ParseError("augmented stream holds no records", path=str(args.aug))

    orig_mats = _MatrixSource(args.orig, orig_meta)
    aug_mats = _MatrixSource(args.aug, aug_meta)
    grad_fh = open(args.grad_out, "wb") if args.grad_out else None

    keys = ("loss_ot", "loss_eig", "loss_dis", "loss_reg", "loss_total")
    sums = dict.fromkeys(keys, 0.0)
    any_nonconv = False
    max_err = 0.0
    try:
        # Pair the records in input order.  The first record that cannot be
        # paired ends the list; its error is raised once the pairs before
        # it have printed.
        ids, pairs, unpaired = [], [], None
        try:
            for rec in aug_records:
                rid = rec.get("id")
                source = rec.get("source", rid)
                if source not in originals:
                    raise ParseError(
                        f"augmented record {rid!r} names original {source!r}, "
                        "which the original stream does not hold",
                        path=str(args.aug),
                    )
                pairs.append((orig_mats.matrix(originals[source]), aug_mats.matrix(rec)))
                ids.append((rid, source))
        except _INPUT_ERRORS as exc:
            unpaired = exc

        scored = _scored_in_order(pairs, cfg.ot, keep_grads=grad_fh is not None)
        for (rid, source), bd in zip(ids, scored):
            if isinstance(bd, _INPUT_ERRORS):
                raise bd
            if not all(
                math.isfinite(v)
                for v in (bd.loss_ot, bd.loss_eig, bd.loss_dis, bd.loss_reg, bd.loss_total)
            ):
                _fail(ArithmeticError(f"non-finite loss for pair {rid!r}"))
                return 1
            out = {
                "id": rid,
                "source": source,
                "loss_ot": bd.loss_ot,
                "loss_eig": bd.loss_eig,
                "loss_dis": bd.loss_dis,
                "loss_reg": bd.loss_reg,
                "loss_total": bd.loss_total,
                "rho": list(bd.rho),
                "lam": list(bd.lam),
                "iterations_used": bd.sinkhorn_iterations,
                "marginal_error": bd.sinkhorn_marginal_error,
                "non_convergence": not bd.sinkhorn_converged,
            }
            if grad_fh is not None:
                offset, nbytes = write_array(grad_fh, bd.grad_augmented)
                out["grad_ref"] = {"offset": offset, "nbytes": nbytes}
            for key in keys:
                sums[key] += out[key]
            any_nonconv = any_nonconv or out["non_convergence"]
            max_err = max(max_err, out["marginal_error"])
            print(_jsonl_line(out))
        if unpaired is not None:
            raise unpaired
    finally:
        if grad_fh is not None:
            grad_fh.close()
        orig_mats.close()
        aug_mats.close()

    means = {key: value / len(aug_records) for key, value in sums.items()}
    print(
        _jsonl_line(
            {
                "aggregate": {
                    "pairs": len(aug_records),
                    "mean": means,
                    "task_loss": 0.0,
                    "non_convergence_any": any_nonconv,
                    "max_marginal_error": max_err,
                    "config": cfg.echo(),
                    "stream_config": (aug_meta or {}).get("config"),
                }
            }
        )
    )
    return 0


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_gradcheck

    params = None
    if args.config or args.set:
        params = _pipeline_config(args).ot
    seed = args.seed if args.seed is not None else 0
    report = run_gradcheck(
        instances=args.instances,
        rows=args.rows,
        dim=args.dim,
        step=args.step,
        tolerance=args.tolerance,
        seed=seed,
        params=params,
        corrupt=args.corrupt,
    )
    _emit(
        {
            "instances": report.instances,
            "seed": seed,
            "step": report.step,
            "tolerance": report.tolerance,
            "max_relative_error": report.max_error,
            "checks": len(report.checks),
            "skipped": [
                {"instance": c.instance, "term": c.term, "reason": c.reason}
                for c in report.checks
                if c.skipped
            ],
            "failed": [
                {"instance": c.instance, "term": c.term, "relative_error": c.relative_error}
                for c in report.checks
                if not (c.passed or c.skipped)
            ],
            "corrupt": args.corrupt,
            "passed": report.all_passed,
        }
    )
    return 0 if report.all_passed else 1


def cmd_report(args) -> int:
    from dataclasses import asdict

    from .model_io import load_model, read_manifest
    from .report import cluster_stats, collect_points, write_report_csv, write_report_svg

    model = load_model(args.model)
    # provenance: prefer the config the model was built under
    config = read_manifest(args.model).get("config")
    if config is None:
        config = _pipeline_config(args).echo()
    points, explained = collect_points(model)
    stats = cluster_stats(model)
    write_report_csv(args.out_csv, points, stats, config=config)
    write_report_svg(args.out_svg, points, config=config)
    _emit(
        {
            "model": args.model,
            "words": len(points),
            "languages": sorted(model.chain),
            "explained_variance": [float(explained[0]), float(explained[1])],
            "clusters": [asdict(s) for s in stats],
            "csv": args.out_csv,
            "svg": args.out_svg,
            "config": config,
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="key = value configuration file")
    shared.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    shared.add_argument("--seed", type=int, help="override the config seed")
    shared.add_argument(
        "--threads",
        type=int,
        default=1,
        help="BLAS thread cap, applied before numpy loads (default 1)",
    )

    parser = argparse.ArgumentParser(
        prog="psda",
        description="clustered multilingual embeddings, augmentation and affinity losses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", parents=[shared], help="fit the three-stage cluster model")
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("augment", parents=[shared], help="write augmented sentence streams")
    p.add_argument("--model", required=True, help="fitted model file")
    p.add_argument("--out", required=True, help="augmented JSONL to write")
    p.add_argument("--orig-out", help="also write the original sentence matrices as JSONL")
    p.add_argument(
        "--matrix-out",
        help="binary matrix sidecar; streams then carry offsets instead of nested arrays",
    )
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("loss", parents=[shared], help="evaluate the affinity regularizer")
    p.add_argument("--orig", required=True, help="original JSONL stream")
    p.add_argument("--aug", required=True, help="augmented JSONL stream")
    p.add_argument("--grad-out", help="binary sidecar receiving one gradient per pair")
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("gradcheck", parents=[shared], help="verify analytic gradients")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--rows", type=int, default=6)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument(
        "--corrupt",
        choices=("ot", "eig", "dis"),
        help="scale one analytic gradient by 1.01 as a negative control",
    )
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("report", parents=[shared], help="render a fitted model")
    p.add_argument("--model", required=True, help="fitted model file")
    p.add_argument("--out-csv", required=True, help="per-word CSV to write")
    p.add_argument("--out-svg", required=True, help="scatter SVG to write")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    from .errors import ConfigError

    args = build_parser().parse_args(argv)
    if args.threads < 1:
        _fail(ConfigError(f"--threads must be at least 1, got {args.threads}"))
        return 2
    for var in _THREAD_VARS:
        os.environ[var] = str(args.threads)

    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        _fail(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
