"""Command-line front end.

Five subcommands: ``cluster`` fits and saves the three-stage model,
``augment`` writes augmented sentence-matrix streams, ``loss`` evaluates
the affinity regularizer over paired streams, ``gradcheck`` verifies
otreg's three term functions, ``report`` renders a fitted model to CSV
and SVG.

Exit codes: 0 on success, 1 when a verification ran and failed (a
gradient check out of tolerance, a non-finite loss), 2 for usage,
configuration or input errors and for running out of memory.  An output
that names another output or one of the run's inputs is a configuration
error, raised before any output is opened.  Errors are emitted to stderr
as one JSON object.  ``psda.stream`` owns the
format of the streams ``augment`` writes and ``loss`` reads.

``loss`` scores the pairs through ``otreg.score_pairs`` and prints their
lines in input order; a pair's line and gradient do not depend on how
the pairs are grouped, and the first pair that cannot be paired or
scored still aborts right after the lines of the pairs before it.

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


def _distinct_outputs(outputs: dict, args, cfg=None) -> None:
    """Raise ConfigError when two of the ``outputs``, keyed by their
    option (None where not given), resolve to one file, or when one of
    them resolves to an input: the ``--config``, ``--model``, ``--orig``
    or ``--aug`` in ``args``, or a file ``cfg`` names."""
    from .errors import ConfigError

    seen = {}
    for option, path in outputs.items():
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"{seen[real]} and {option} name the same file {str(path)!r}")
        seen[real] = option
    inputs = {f"--{name}": getattr(args, name, None) for name in ("config", "model", "orig", "aug")}
    if cfg is not None:
        inputs.update(taxonomy=cfg.taxonomy_path, corpus=cfg.corpus_path)
        inputs.update({f"embeddings.{lang}": p for lang, p in cfg.embedding_paths.items()})
    for option, path in inputs.items():
        output = path and seen.get(os.path.realpath(path))
        if output:
            raise ConfigError(f"{output} names the input {option} {str(path)!r}")


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


def _load_stores(cfg, digests=None):
    """Each configured language's store; a file whose SHA-256 is its
    entry in ``digests`` has its rows parsed on first read."""
    from .embeddings import load_vectors

    digests = digests or {}
    return {
        lang: load_vectors(path, lang, digests.get(lang))
        for lang, path in sorted(cfg.embedding_paths.items())
    }


def _pos_tagging(cfg):
    from .corpus import collect_upos_tags
    from .embeddings import PosTagging

    tags = collect_upos_tags(cfg.corpus_path)
    return PosTagging.seeded(tags, projection_dim=cfg.pos_dim, seed=cfg.pos_seed)


def cmd_cluster(args) -> int:
    from .domino import build_cluster_model
    from .model_io import save_model
    from .taxonomy import load_taxonomy

    cfg = _pipeline_config(args, need=("taxonomy", "corpus", "embeddings"))
    _distinct_outputs({"--out": args.out}, args, cfg)
    tax = load_taxonomy(cfg.taxonomy_path)
    stores = _load_stores(cfg)
    pos = _pos_tagging(cfg)
    model = build_cluster_model(stores, pos, tax, cfg.k, cfg.gmm)
    save_model(args.out, model, config=cfg.echo())

    def stage_info(stage):
        return {
            "clusters": len(stage.members),
            # Python's left-to-right sum, which the printed digits depend on
            "weight_sum": sum(stage.expert_weights.tolist()),
            "em_iterations": len(stage.gmm.log_likelihood_trace),
            "em_converged": stage.gmm.converged,
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


def cmd_augment(args) -> int:
    from .augment import augment_sentence, build_candidate_index, sentence_seed
    from .corpus import assemble_sentence, iter_conllu_lenient
    from .errors import ParseError, UnknownLanguageError
    from .model_io import load_model
    from .stream import open_writer

    cfg = _pipeline_config(args, need=("corpus", "embeddings"))
    _distinct_outputs(
        {"--out": args.out, "--orig-out": args.orig_out, "--matrix-out": args.matrix_out},
        args,
        cfg,
    )
    model = load_model(args.model)
    # cluster checked every row of a file with the digest it recorded
    stores = _load_stores(cfg, model.embeddings_sha256)
    index = build_candidate_index(model, stores)

    role_counts = {"subject": 0, "verb": 0, "object": 0}
    skip_counts = {}
    parse_warnings = []
    parsed = 0
    all_oov = 0
    changed = 0

    streams = open_writer(args.out, args.orig_out, args.matrix_out, cfg.echo())
    with streams as (write_original, write_augmented):
        for rec, problem in iter_conllu_lenient(cfg.corpus_path):
            if rec is None:
                parse_warnings.append(problem)
                continue
            if rec.lang not in stores:
                raise UnknownLanguageError(f"no embeddings configured for language {rec.lang!r}")
            mat = assemble_sentence(rec, stores[rec.lang], cfg.oov)
            if not any(token in stores[rec.lang] for token in rec.tokens):
                # its matrix is all zero, a pair that loss cannot score; under
                # oov = error, assemble_sentence has raised already
                parse_warnings.append(
                    f"{cfg.corpus_path}: sentence {' '.join(rec.tokens)!r} has no "
                    f"token in the {rec.lang} vocabulary; skipped"
                )
                all_oov += 1
                continue
            source_id = f"s{parsed:06d}"
            parsed += 1
            svo = {"subject": rec.subject, "verb": rec.verb, "object": rec.object}
            write_original(
                {"id": source_id, "lang": rec.lang, "tokens": list(rec.tokens), "svo": svo},
                mat,
            )
            for copy in range(cfg.copies):
                aug = augment_sentence(rec, mat, model, index, sentence_seed(cfg.seed, rec, copy))
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
                    "replacements": [vars(r) for r in aug.replacements],
                    "skipped": [vars(s) for s in aug.skipped],
                }
                write_augmented(record, aug.augmented)
        # raised inside, so the outputs keep their earlier bytes
        if parsed == 0:
            raise ParseError(
                f"no sentence written: {len(parse_warnings) - all_oov} sentence blocks failed "
                f"to parse and {all_oov} sentences had no in-vocabulary token",
                path=str(cfg.corpus_path),
            )

    _emit(
        {
            "sentences": parsed,
            "parse_failures": len(parse_warnings),
            "parse_warnings": parse_warnings,
            "copies": cfg.copies,
            "written": parsed * cfg.copies,
            "changed": changed,
            "replacements": role_counts,
            "skips": dict(sorted(skip_counts.items())),
            "out": args.out,
            "vectors": {
                lang: {
                    "verified_by_model": store.sha256 == model.embeddings_sha256.get(lang),
                    "rows_parsed": store.rows_parsed,
                }
                for lang, store in sorted(stores.items())
            },
            "config": cfg.echo(),
        }
    )
    return 0


def cmd_loss(args) -> int:
    import math

    from .binio import write_array
    from .otreg import score_pairs
    from .stream import jsonl_line, read_pairs

    cfg = _pipeline_config(args)
    _distinct_outputs({"--grad-out": args.grad_out}, args, cfg)
    aug_meta, pairs, unpaired = read_pairs(args.orig, args.aug)
    grad_fh = open(args.grad_out, "wb") if args.grad_out else None

    keys = ("loss_ot", "loss_eig", "loss_dis", "loss_reg", "loss_total")
    sums = dict.fromkeys(keys, 0.0)
    any_nonconv = False
    max_err = 0.0
    try:
        scored = score_pairs(
            [(orig, aug) for _, _, orig, aug in pairs], cfg.ot, keep_grads=grad_fh is not None
        )
        for (rid, source, _, _), bd in zip(pairs, scored):
            if not all(math.isfinite(getattr(bd, key)) for key in keys):
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
            print(jsonl_line(out))
        # the first record that could not be paired ends the run once the
        # pairs before it have printed
        if unpaired is not None:
            raise unpaired
    finally:
        if grad_fh is not None:
            grad_fh.close()

    means = {key: value / len(pairs) for key, value in sums.items()}
    print(
        jsonl_line(
            {
                "aggregate": {
                    "pairs": len(pairs),
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

    _distinct_outputs({"--out-csv": args.out_csv, "--out-svg": args.out_svg}, args)
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
