"""Command-line interface: ``python -m repro <command>`` (or ``repro`` once installed).

The CLI wires the library's main workflows together for quick experiments on
the synthetic Adult-like dataset (or any CSV file with the same schema):

* ``generate``  - write a synthetic Adult-like microdata CSV;
* ``anonymize`` - anonymize a table under a chosen privacy model and write the
  generalized release as CSV;
* ``attack``    - replay the probabilistic background-knowledge attack against
  a release built in-process and report vulnerable tuples;
* ``audit``     - audit a release against a whole skyline of adversaries
  ``{(B_i, t_i)}`` in one batched pass (optionally writing a JSON report);
* ``stream``    - publish a changing table incrementally: seed release first,
  then append batches - plus random deletions (``--delete-frac``) and
  in-place corrections (``--update-frac``) - folded in with dirty-leaf
  re-splits and delta skyline audits (exit 3 with ``--fail-on-breach`` when
  a version breaches); ``--store-dir`` persists every version to a
  disk-backed ReleaseStore and ``--resume`` continues a stored stream;
* ``sweep``     - run a model/parameter grid through one cached session and
  print the resulting comparison table;
* ``serve``     - run the :mod:`repro.serve` HTTP daemon: many named streams
  under one ``--data-dir``, created over HTTP and resumed on restart, with
  per-stream write coalescing on one writer thread per stream and lock-free
  reads of historical versions;
* ``figure``    - regenerate one of the paper's figures and print it as a
  plain-text table.

Model and algorithm choices are sourced from the plugin registries of
:mod:`repro.api.registry`, so models registered with ``@register_model``
surface here automatically.  The CLI always works with the Table IV schema;
arbitrary schemas are a library-level feature (see :mod:`repro.data.schema`).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import threading
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.api import ALGORITHMS, MODELS, Session, expand_grid
from repro.data.adult import adult_schema, generate_adult
from repro.data.io import open_table, read_csv, write_csv
from repro.data.source import as_source, as_table, write_npz
from repro.exceptions import ReproError
from repro.experiments import config as experiment_config
from repro.experiments import figures as experiment_figures
from repro.knowledge.backend import DEFAULT_MAX_CELLS, EstimatorConfig
from repro.obs.log import LOG_FORMATS, LOG_LEVELS, configure as configure_logging
from repro.obs.tracing import Tracer
from repro.privacy.models import PrivacyModel

_FIGURE_CHOICES = ("1a", "1b", "2", "3a", "3b", "4a", "4b", "5a", "5b", "6a", "6b")
_DEFAULT_SWEEP_MODELS = ("bt", "distinct-l", "probabilistic-l", "t-closeness")


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Modeling and Integrating Background Knowledge in Data Anonymization' (ICDE 2009)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="generate a synthetic Adult-like table (CSV or npz)"
    )
    generate.add_argument("--rows", type=int, default=5000, help="number of tuples (default 5000)")
    generate.add_argument("--seed", type=int, default=2009, help="random seed (default 2009)")
    generate.add_argument(
        "--output", required=True,
        help="path of the table file to write (.csv, or .npz for the memory-mappable code format)",
    )

    anonymize_parser = subparsers.add_parser(
        "anonymize", help="anonymize a table and write the generalized release"
    )
    _add_table_arguments(anonymize_parser)
    _add_model_arguments(anonymize_parser)
    anonymize_parser.add_argument("--output", required=True, help="path of the release CSV to write")
    _add_trace_argument(anonymize_parser)

    attack_parser = subparsers.add_parser(
        "attack", help="anonymize a table, then attack it with Adv(b') and report vulnerable tuples"
    )
    _add_table_arguments(attack_parser)
    _add_model_arguments(attack_parser)
    attack_parser.add_argument(
        "--b-prime", type=float, default=0.3, help="adversary bandwidth b' (default 0.3)"
    )
    attack_parser.add_argument(
        "--threshold", type=float, default=None,
        help="knowledge-gain threshold for counting vulnerable tuples (default: the model's t)",
    )

    audit_parser = subparsers.add_parser(
        "audit",
        help="anonymize a table, then audit it against a whole skyline of adversaries",
    )
    _add_table_arguments(audit_parser)
    _add_model_arguments(audit_parser)
    audit_parser.add_argument(
        "--skyline", default=None, type=_skyline_argument,
        help=(
            "comma-separated b:t adversary points, e.g. '0.1:0.25,0.3:0.2' "
            "(default: the model's own (b, t))"
        ),
    )
    audit_parser.add_argument(
        "--method", default="omega", choices=("omega", "exact"),
        help="posterior inference method (default omega)",
    )
    audit_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the machine-readable audit report to this JSON file",
    )
    audit_parser.add_argument(
        "--fail-on-breach", action="store_true",
        help="exit with status 3 when any skyline point is breached",
    )
    _add_trace_argument(audit_parser)

    stream_parser = subparsers.add_parser(
        "stream",
        help=(
            "publish a changing table incrementally: seed release, then append/"
            "delete/update batches with dirty-leaf re-splits and delta skyline audits"
        ),
    )
    _add_table_arguments(stream_parser)
    _add_model_arguments(stream_parser, algorithm=False)
    stream_parser.add_argument(
        "--batch-size", type=int, default=500,
        help="rows appended per batch (default 500)",
    )
    stream_parser.add_argument(
        "--batches", type=int, default=5,
        help="number of append batches to publish (default 5)",
    )
    stream_parser.add_argument(
        "--delete-frac", type=_fraction_argument, default=0.0,
        help=(
            "after each append batch, additionally delete this fraction of the "
            "batch size as random retractions (default 0: append-only)"
        ),
    )
    stream_parser.add_argument(
        "--update-frac", type=_fraction_argument, default=0.0,
        help=(
            "after each append batch, additionally correct this fraction of the "
            "batch size as random in-place row updates (default 0)"
        ),
    )
    stream_parser.add_argument(
        "--skyline", default=None, type=_skyline_argument,
        help=(
            "comma-separated b:t audit adversaries, e.g. '0.1:0.25,0.3:0.2' "
            "(default: the model's own (b, t))"
        ),
    )
    stream_parser.add_argument(
        "--method", default="omega", choices=("omega", "exact"),
        help="posterior inference method (default omega)",
    )
    stream_parser.add_argument(
        "--refine-factor", type=float, default=1.5,
        help=(
            "re-search a grown group once it exceeds this multiple of its last "
            "searched size (default 1.5; 1.0 refines on every batch)"
        ),
    )
    stream_parser.add_argument(
        "--compact-drift", type=_positive_float_argument, default=0.5,
        help=(
            "full-refine compaction threshold: re-partition from scratch once "
            "deferred maintenance has touched this fraction of the current "
            "rows (default 0.5; 'inf' disables compaction)"
        ),
    )
    stream_parser.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help=(
            "persist every version to a disk-backed ReleaseStore in this "
            "directory (JSON-lines lineage + npz releases)"
        ),
    )
    stream_parser.add_argument(
        "--resume", action="store_true",
        help=(
            "reconstruct the publisher from --store-dir and continue the "
            "stream (pass the same model flags the stream was created with; "
            "synthetic sources draw fresh batches from a derived seed)"
        ),
    )
    stream_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the machine-readable version lineage to this JSON file",
    )
    stream_parser.add_argument(
        "--fail-on-breach", action="store_true",
        help="exit with status 3 when any published version breaches its skyline",
    )
    _add_trace_argument(stream_parser)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a model/parameter grid through one cached session and print the comparison",
    )
    _add_table_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--model",
        action="append",
        choices=MODELS.names(),
        help=(
            "privacy model to include (repeatable; default "
            + ", ".join(_DEFAULT_SWEEP_MODELS)
            + ")"
        ),
    )
    sweep_parser.add_argument(
        "--b", type=float, action="append",
        help="(B,t)-privacy bandwidth b (repeatable grid axis; default 0.3)",
    )
    sweep_parser.add_argument(
        "--t", type=float, action="append",
        help="disclosure threshold t (repeatable grid axis; default 0.2)",
    )
    sweep_parser.add_argument(
        "--l", type=float, action="append",
        help="l-diversity parameter (repeatable grid axis; default 4)",
    )
    sweep_parser.add_argument("--k", type=int, default=4, help="k-anonymity parameter (default 4)")
    _add_max_cells_argument(sweep_parser)
    _add_jobs_argument(sweep_parser)
    sweep_parser.add_argument(
        "--b-prime", type=float, default=0.3, help="audit adversary bandwidth b' (default 0.3)"
    )
    sweep_parser.add_argument(
        "--threshold", type=float, default=None,
        help="audit knowledge-gain threshold (default: each grid row's t)",
    )
    sweep_parser.add_argument(
        "--no-audit", action="store_true", help="skip the background-knowledge audit"
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help=(
            "run the multi-stream release-serving HTTP daemon (streams are "
            "created over HTTP, publish on one writer thread each and "
            "resume from --data-dir on restart)"
        ),
    )
    serve_parser.add_argument(
        "--data-dir", required=True, type=_data_dir_argument, metavar="DIR",
        help="directory holding one disk-backed ReleaseStore shard per stream",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", type=_host_argument,
        help="interface to bind (default 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", default=8750, type=_port_argument,
        help="TCP port to bind (default 8750; 0 picks a free port)",
    )
    serve_parser.add_argument(
        "--coalesce-ms", default=50.0, type=_coalesce_ms_argument,
        help=(
            "per-stream write-coalescing window in milliseconds: mutation "
            "batches queued within one tick publish as a single version "
            "(default 50; 0 still coalesces whatever queued during the "
            "previous publication)"
        ),
    )
    _add_jobs_argument(serve_parser)
    serve_parser.add_argument(
        "--max-queue-batches", default=None, type=_queue_bound_argument,
        metavar="N",
        help=(
            "bound each stream's write queue to N mutation batches; overflow "
            "is rejected with 429 + Retry-After instead of buffering "
            "(default 64)"
        ),
    )
    serve_parser.add_argument(
        "--max-queued-rows", default=None, type=_queue_bound_argument,
        metavar="N",
        help=(
            "bound each stream's write queue to N total queued rows, "
            "rejecting overflow with 429 + Retry-After (default 100000)"
        ),
    )
    serve_parser.add_argument(
        "--log-level", default="info", choices=LOG_LEVELS,
        help="minimum level of the daemon's structured logs (default info)",
    )
    serve_parser.add_argument(
        "--log-format", default="text", choices=LOG_FORMATS,
        help=(
            "log record format: 'text' for classic one-line records, 'json' "
            "for one JSON object per line with trace ids and timings as "
            "fields (default text)"
        ),
    )
    serve_parser.add_argument(
        "--slow-publish-seconds", default=None, type=_positive_float_argument,
        metavar="SECONDS",
        help=(
            "log a WARNING whenever one publication tick takes longer than "
            "this many seconds (default 5; 'inf' disables the warning)"
        ),
    )

    figure_parser = subparsers.add_parser(
        "figure", help="regenerate one of the paper's figures and print it"
    )
    figure_parser.add_argument("--id", required=True, choices=_FIGURE_CHOICES, help="figure id")
    _add_table_arguments(figure_parser)
    figure_parser.add_argument(
        "--parameters", default="para1", choices=[p.name for p in experiment_config.TABLE_V],
        help="Table V parameter set used by figures that need one (default para1)",
    )
    return parser


def _add_table_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--input",
        help=(
            "table file with the Adult (Table IV) schema: .csv (streamed in "
            "bounded chunks) or .npz (memory-mapped code columns)"
        ),
    )
    source.add_argument("--rows", type=int, default=2000, help="synthetic table size (default 2000)")
    parser.add_argument("--seed", type=int, default=2009, help="random seed for synthetic data")
    parser.add_argument(
        "--chunk-rows", type=_chunk_rows_argument, default=None, metavar="N",
        help=(
            "rows per chunk when streaming --input through the out-of-core "
            "ingestion path (default 65536; priors are bitwise identical at "
            "any chunk size)"
        ),
    )


def _add_max_cells_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-cells", type=_max_cells_argument, default=DEFAULT_MAX_CELLS,
        help=(
            "cell budget for the factored prior-estimation backend's blocked "
            f"contraction (a positive integer; default {DEFAULT_MAX_CELLS})"
        ),
    )


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_jobs_argument, default=None, metavar="N",
        help=(
            "worker threads for the prior backend's parallel contraction "
            "(1 = serial; default: the REPRO_JOBS environment variable, "
            "else all cores; results are identical at any thread count)"
        ),
    )


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", default=None, type=_trace_out_argument, metavar="PATH",
        help=(
            "write the run's span trace (the nested per-stage timing tree) "
            "to this JSON file"
        ),
    )


def _add_model_arguments(parser: argparse.ArgumentParser, *, algorithm: bool = True) -> None:
    parser.add_argument(
        "--model", default="bt", choices=MODELS.names(), help="privacy model (default bt)"
    )
    if algorithm:
        parser.add_argument(
            "--algorithm", default="mondrian", choices=ALGORITHMS.names(),
            help="anonymization algorithm (default mondrian)",
        )
    parser.add_argument("--b", type=float, default=0.3, help="(B,t)-privacy bandwidth b (default 0.3)")
    parser.add_argument("--t", type=float, default=0.2, help="disclosure threshold t (default 0.2)")
    parser.add_argument(
        "--l", type=float, default=4,
        help="l-diversity parameter (default 4; distinct-l rejects non-integer values)",
    )
    parser.add_argument("--k", type=int, default=4, help="k-anonymity parameter (default 4)")
    _add_max_cells_argument(parser)
    _add_jobs_argument(parser)
    if algorithm:
        parser.add_argument(
            "--anatomy-l", type=int, default=None, help="Anatomy bucket diversity (anatomy only)"
        )


def _load_table(args: argparse.Namespace):
    """The run's table: a chunked TableSource for --input, synthetic otherwise."""
    if getattr(args, "input", None):
        return open_table(
            args.input, adult_schema(), chunk_rows=getattr(args, "chunk_rows", None)
        )
    return generate_adult(args.rows, seed=args.seed)


def _build_model(args: argparse.Namespace) -> PrivacyModel:
    """Build the chosen model from the registry; each model picks the flags it understands."""
    return MODELS.build_filtered(
        args.model,
        {"b": args.b, "t": args.t, "l": args.l, "k": args.k},
    )


def _session(table, args: argparse.Namespace) -> Session:
    """A session carrying the CLI's estimator configuration."""
    return Session(table, config=EstimatorConfig(max_cells=args.max_cells, jobs=args.jobs))


def _write_release_csv(release, path: str | Path) -> None:
    rows = release.generalized_rows()
    names = list(release.table.schema.names)
    with Path(path).open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=names)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _run_generate(args: argparse.Namespace) -> int:
    table = generate_adult(args.rows, seed=args.seed)
    if Path(args.output).suffix.lower() == ".npz":
        write_npz(args.output, as_source(table))
    else:
        write_csv(table, args.output)
    print(f"wrote {table.n_rows} rows to {args.output}")
    return 0


def _run_anonymize(args: argparse.Namespace) -> int:
    table = _load_table(args)
    tracer = Tracer(enabled=bool(args.trace_out))
    with tracer.activate():
        bundle = (
            _session(table, args)
            .pipeline()
            .model(_build_model(args))
            .with_k(args.k)
            .algorithm(args.algorithm, anatomy_l=args.anatomy_l)
            .run()
        )
    release = bundle.release
    _write_release_csv(release, args.output)
    print(
        f"anonymized {table.n_rows} rows with {args.model} "
        f"({bundle.model_description}): {release.n_groups} groups, "
        f"avg size {release.average_group_size():.1f}"
    )
    print(
        f"utility: DM={bundle.utility['discernibility_metric']:.0f} "
        f"GCP={bundle.utility['global_certainty_penalty']:.0f}"
    )
    print(f"wrote generalized release to {args.output}")
    if args.trace_out:
        _write_trace(tracer, args.trace_out)
    return 0


def _run_attack(args: argparse.Namespace) -> int:
    table = _load_table(args)
    threshold = args.threshold if args.threshold is not None else args.t
    bundle = (
        _session(table, args)
        .pipeline()
        .model(_build_model(args))
        .with_k(args.k)
        .algorithm(args.algorithm, anatomy_l=args.anatomy_l)
        .audit(b_prime=args.b_prime, threshold=threshold)
        .with_utility(False)
        .run()
    )
    outcome = bundle.attack
    print(
        f"model={args.model} groups={bundle.release.n_groups} "
        f"adversary b'={args.b_prime:g} threshold={threshold:g}"
    )
    print(
        f"vulnerable tuples: {outcome.vulnerable_tuples} / {table.n_rows} "
        f"({100 * outcome.vulnerability_rate():.1f}%)"
    )
    print(f"worst-case knowledge gain: {outcome.worst_case_risk:.4f}")
    return 0


def _parse_skyline(text: str) -> list[tuple[float, float]]:
    """Parse and validate a ``b:t,b:t,...`` skyline specification."""
    points = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ReproError(
                f"bad skyline point {chunk!r}; expected 'b:t' (e.g. '0.3:0.2')"
            )
        try:
            b, t = float(parts[0]), float(parts[1])
        except ValueError:
            raise ReproError(
                f"bad skyline point {chunk!r}; b and t must be numbers"
            ) from None
        if not b > 0.0:
            raise ReproError(f"bad skyline point {chunk!r}; the bandwidth b must be positive")
        if not 0.0 <= t <= 1.0:
            raise ReproError(f"bad skyline point {chunk!r}; t must lie in [0, 1]")
        points.append((b, t))
    if not points:
        raise ReproError("the skyline specification contains no points")
    return points


def _skyline_argument(text: str) -> list[tuple[float, float]]:
    """argparse ``type`` wrapper: malformed specs exit 2 with a one-line usage error."""
    try:
        return _parse_skyline(text)
    except ReproError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _fraction_argument(text: str) -> float:
    """argparse ``type`` wrapper: malformed/out-of-range fractions exit 2."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad fraction {text!r}; expected a number in [0, 1]"
        ) from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"bad fraction {text!r}; the fraction must lie in [0, 1]"
        )
    return value


def _positive_float_argument(text: str) -> float:
    """argparse ``type`` wrapper: malformed/non-positive values exit 2 ('inf' ok)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad value {text!r}; expected a positive number (or 'inf')"
        ) from None
    if not value > 0.0:
        raise argparse.ArgumentTypeError(
            f"bad value {text!r}; the value must be positive (or 'inf')"
        )
    return value


def _chunk_rows_argument(text: str) -> int:
    """argparse ``type`` wrapper: malformed/non-positive chunk sizes exit 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad chunk size {text!r}; expected a positive integer"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"bad chunk size {text!r}; the chunk size must be at least 1"
        )
    return value


def _jobs_argument(text: str) -> int:
    """argparse ``type`` wrapper: malformed/non-positive thread counts exit 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad jobs count {text!r}; expected a positive integer"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"bad jobs count {text!r}; the thread count must be at least 1"
        )
    return value


def _max_cells_argument(text: str) -> int:
    """argparse ``type`` wrapper: malformed/non-positive budgets exit 2 like ``--skyline``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad cell budget {text!r}; expected a positive integer"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"bad cell budget {text!r}; the budget must be at least 1"
        )
    return value


def _trace_out_argument(text: str) -> str:
    """argparse ``type`` wrapper: a hopeless trace path exits 2 up front.

    Validating before the run means a typo'd directory fails in milliseconds
    instead of after minutes of anonymization.
    """
    if not text:
        raise argparse.ArgumentTypeError("bad trace path ''; expected a file path")
    path = Path(text)
    if path.is_dir():
        raise argparse.ArgumentTypeError(
            f"bad trace path {text!r}; the path is a directory"
        )
    parent = path.parent
    if not parent.is_dir():
        raise argparse.ArgumentTypeError(
            f"bad trace path {text!r}; the directory {str(parent)!r} does not exist"
        )
    return text


def _write_trace(tracer: Tracer, path: str) -> None:
    """Dump the tracer's finished root span tree as indented JSON."""
    root = tracer.take_root()
    payload = root.to_dict() if root is not None else None
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote span trace to {path}")


def _port_argument(text: str) -> int:
    """argparse ``type`` wrapper: malformed/out-of-range ports exit 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad port {text!r}; expected an integer in [0, 65535]"
        ) from None
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"bad port {text!r}; the port must lie in [0, 65535] (0 picks a free port)"
        )
    return value


def _host_argument(text: str) -> str:
    """argparse ``type`` wrapper: syntactically hopeless hosts exit 2."""
    value = text.strip()
    if not value or any(c.isspace() for c in value) or "/" in value:
        raise argparse.ArgumentTypeError(
            f"bad host {text!r}; expected a hostname or address "
            "(no whitespace or slashes)"
        )
    return value


def _data_dir_argument(text: str) -> str:
    """argparse ``type`` wrapper: a data dir colliding with a file exits 2."""
    if not text:
        raise argparse.ArgumentTypeError("bad data dir ''; expected a directory path")
    path = Path(text)
    if path.exists() and not path.is_dir():
        raise argparse.ArgumentTypeError(
            f"bad data dir {text!r}; the path exists and is not a directory"
        )
    return text


def _coalesce_ms_argument(text: str) -> float:
    """argparse ``type`` wrapper: malformed/negative/oversized windows exit 2.

    The window becomes a thread wait timeout, so it may not exceed
    :data:`threading.TIMEOUT_MAX` seconds.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad coalescing window {text!r}; expected milliseconds >= 0"
        ) from None
    if not 0.0 <= value / 1000.0 <= threading.TIMEOUT_MAX:
        raise argparse.ArgumentTypeError(
            f"bad coalescing window {text!r}; the window must be a number of "
            f"milliseconds from 0 to {threading.TIMEOUT_MAX * 1000.0:g}"
        )
    return value


def _queue_bound_argument(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad queue bound {text!r}; expected an integer >= 1"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"bad queue bound {text!r}; the bound must be at least 1"
        )
    return value


def _run_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeApp

    configure_logging(level=args.log_level, log_format=args.log_format)
    extra = {}
    if args.slow_publish_seconds is not None:
        extra["slow_publish_seconds"] = args.slow_publish_seconds
    app = ServeApp(
        args.data_dir,
        host=args.host,
        port=args.port,
        coalesce_ms=args.coalesce_ms,
        jobs=args.jobs,
        max_queue_batches=args.max_queue_batches,
        max_queued_rows=args.max_queued_rows,
        **extra,
    )
    app.run()
    return 0


def _run_audit(args: argparse.Namespace) -> int:
    table = _load_table(args)
    skyline = args.skyline
    tracer = Tracer(enabled=bool(args.trace_out))
    with tracer.activate():
        bundle = (
            _session(table, args)
            .pipeline()
            .model(_build_model(args))
            .with_k(args.k)
            .algorithm(args.algorithm, anatomy_l=args.anatomy_l)
            .audit_skyline(skyline, method=args.method)
            .with_utility(False)
            .run()
        )
    report = bundle.skyline_audit
    print(
        f"model={args.model} ({bundle.model_description}): "
        f"{bundle.release.n_groups} groups on {table.n_rows} rows"
    )
    print(report.render())
    if args.json:
        payload = report.summary()
        payload["model"] = bundle.model_description
        Path(args.json).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote audit report to {args.json}")
    if args.trace_out:
        _write_trace(tracer, args.trace_out)
    if args.fail_on_breach and not report.satisfied:
        return 3
    return 0


def _print_stream_version(version) -> None:
    delta = version.delta
    changes = []
    if delta.appended_rows:
        changes.append(f"+{delta.appended_rows}")
    if delta.deleted_rows:
        changes.append(f"-{delta.deleted_rows}")
    if delta.updated_rows:
        changes.append(f"~{delta.updated_rows}")
    tags = []
    if delta.rebuild:
        tags.append("rebuild")
    if delta.compacted:
        tags.append("compacted")
    suffix = f" {{{','.join(tags)}}}" if tags else ""
    print(
        f"v{version.version}: {'/'.join(changes) or '+0'} rows -> {version.n_groups} groups "
        f"({delta.reused_groups} reused, {delta.rechecked_leaves} rechecked, "
        f"{delta.refined_leaves} refined, {delta.rebuilt_regions} rebuilt){suffix} "
        f"[{'ok' if version.satisfied else 'BREACH'}] "
        f"({delta.timings['total_seconds']:.3f}s)"
    )
    if version.report is not None:
        worst = version.report.worst_entry()
        print(
            f"    worst adversary {worst.adversary.describe()}: "
            f"risk {worst.attack.worst_case_risk:.4f} (margin {worst.margin:+.4f})"
        )


def _resume_stream(args: argparse.Namespace, tracer: Tracer):
    """Reconstruct the publisher from --store-dir and its append source."""
    from repro.stream import IncrementalPublisher

    publisher = IncrementalPublisher.resume(
        args.store_dir,
        schema=adult_schema(),
        model=_build_model(args),
        config=EstimatorConfig(jobs=args.jobs),
        tracer=tracer,
    )
    # A resumed publisher is governed by the store's recorded state, not by
    # these flags; call out only effective differences (passing the stream's
    # actual values, or omitting --skyline, stays silent).
    stored = publisher.store.state or {}
    differing = [
        flag
        for flag, value in (
            ("--k", args.k),
            ("--method", args.method),
            ("--refine-factor", args.refine_factor),
            ("--compact-drift", args.compact_drift),
            ("--max-cells", args.max_cells),
        )
        if stored.get(flag.strip("-").replace("-", "_")) != value
    ]
    if args.skyline is not None:
        stored_skyline = [
            (b, t) for b, t in publisher.skyline if len({v for _, v in b.items()}) == 1
        ]
        as_scalars = [(next(v for _, v in b.items()), t) for b, t in stored_skyline]
        if len(stored_skyline) != len(publisher.skyline) or as_scalars != [
            (float(b), float(t)) for b, t in args.skyline
        ]:
            differing.append("--skyline")
    if differing:
        flags = ", ".join(differing)
        verb = "differs" if len(differing) == 1 else "differ"
        print(
            f"note: {flags} {verb} from the stored stream state, which "
            "governs a resumed stream; the stored value"
            f"{'' if len(differing) == 1 else 's'} will be used"
        )
    appended_total = args.batches * args.batch_size
    lineage = publisher.store.lineage()
    consumed = lineage[0]["rows"] + sum(row["delta"]["appended_rows"] for row in lineage)
    if getattr(args, "input", None):
        table = read_csv(args.input, adult_schema())
        if table.n_rows < consumed + appended_total:
            raise ReproError(
                f"--input has {table.n_rows} rows but the resumed stream already "
                f"consumed {consumed} and {appended_total} more are requested"
            )
        source = table.select(range(consumed, consumed + appended_total))
    else:
        # Synthetic sources are not prefix-stable across sizes: draw fresh
        # batches from a seed derived from the stream position (values
        # outside the stored domains trigger the publisher's full rebuild).
        source = generate_adult(
            appended_total, seed=args.seed + 7919 * len(publisher.store)
        )
    return publisher, source


def _run_stream(args: argparse.Namespace) -> int:
    if args.batches < 1 or args.batch_size < 1:
        raise ReproError("--batches and --batch-size must be positive")
    if args.resume and not args.store_dir:
        raise ReproError("--resume requires --store-dir")
    tracer = Tracer(enabled=bool(args.trace_out))
    # One enclosing span makes every publication of the run - the seed
    # release included - a child of a single root, so --trace-out captures
    # the whole stream as one tree.
    with tracer.activate(), tracer.timed(
        "cli.stream", batches=args.batches, batch_size=args.batch_size
    ):
        status = _stream_publications(args, tracer)
    if args.trace_out:
        _write_trace(tracer, args.trace_out)
    return status


def _stream_publications(args: argparse.Namespace, tracer: Tracer) -> int:
    appended_total = args.batches * args.batch_size
    if args.resume:
        publisher, source = _resume_stream(args, tracer)
        print(f"stream (resumed from {args.store_dir}): {publisher.describe()}")
        print(
            f"resumed at v{publisher.latest.version}: {publisher.latest.n_rows} rows, "
            f"{publisher.latest.n_groups} groups"
        )
    else:
        if getattr(args, "input", None):
            table = as_table(_load_table(args))
            if table.n_rows <= appended_total:
                raise ReproError(
                    f"--input has {table.n_rows} rows but {appended_total} are reserved "
                    "for append batches; reduce --batches/--batch-size"
                )
        else:
            # Generate seed + stream in one draw so the batches share the
            # seed's marginals (the publisher handles unseen values with a
            # full rebuild).
            table = generate_adult(args.rows + appended_total, seed=args.seed)
        seed_rows = table.n_rows - appended_total
        seed = table.select(range(seed_rows))
        source = table.select(range(seed_rows, table.n_rows))
        session = _session(seed, args)
        publisher = session.stream(
            _build_model(args),
            skyline=args.skyline,
            k=args.k,
            method=args.method,
            refine_factor=args.refine_factor,
            compact_drift=args.compact_drift,
            store_dir=args.store_dir,
            tracer=tracer,
        )
        v0 = publisher.latest
        print(f"stream: {publisher.describe()}")
        print(
            f"v0: seed {v0.n_rows} rows -> {v0.n_groups} groups "
            f"[{'ok' if v0.satisfied else 'BREACH'}] "
            f"({v0.delta.timings['total_seconds']:.3f}s)"
        )
    deletes = round(args.delete_frac * args.batch_size)
    updates = round(args.update_frac * args.batch_size)
    rng = np.random.default_rng(args.seed + len(publisher.store))
    for index in range(args.batches):
        lo = index * args.batch_size
        batch = source.select(range(lo, lo + args.batch_size))
        _print_stream_version(publisher.append(batch))
        if deletes:
            rows = np.sort(
                rng.choice(publisher.table.n_rows, size=deletes, replace=False)
            )
            _print_stream_version(publisher.delete(rows))
        if updates:
            positions = np.sort(
                rng.choice(publisher.table.n_rows, size=updates, replace=False)
            )
            donors = rng.integers(0, publisher.table.n_rows, size=updates)
            replacements = [publisher.table.row(int(donor)) for donor in donors]
            _print_stream_version(publisher.update(positions, replacements))
    lineage = publisher.store.lineage()
    if args.json:
        payload = {"stream": publisher.describe(), "versions": lineage}
        Path(args.json).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote stream lineage to {args.json}")
    if args.fail_on_breach and not all(row["satisfied"] for row in lineage):
        return 3
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    table = _load_table(args)
    session = _session(table, args)
    models = tuple(args.model) if args.model else _DEFAULT_SWEEP_MODELS
    audit = None
    if not args.no_audit:
        audit = {"b_prime": args.b_prime, "threshold": args.threshold}
    specs = expand_grid(
        model=list(models),
        b=args.b or [0.3],
        t=args.t or [0.2],
        l=args.l or [4.0],
        k=args.k,
        audit=audit,
    )
    if audit is not None and args.threshold is None:
        # Audit each grid row against its own t (so l-diversity rows, whose
        # models carry no t, still have a threshold).
        for spec in specs:
            spec.audit = {**spec.audit, "threshold": spec.params.get("t")}
    # Models ignore grid axes they don't understand (e.g. distinct-l and b),
    # so a multi-valued axis can produce identical effective configurations;
    # keep the first of each.
    seen: set[tuple] = set()
    unique_specs = []
    for spec in specs:
        key = (spec.resolved_label(), tuple(sorted((spec.audit or {}).items())))
        if key not in seen:
            seen.add(key)
            unique_specs.append(spec)
    outcome = session.sweep(unique_specs)
    print(f"sweep: {len(outcome.rows)} configurations on {table.n_rows} rows")
    print(outcome.render())
    stats = outcome.stats
    print(
        f"cache: {stats['prior_estimations']} prior estimation(s), "
        f"{stats['prior_cache_hits']} cache hit(s)"
    )
    return 0


def _run_figure(args: argparse.Namespace) -> int:
    table = as_table(_load_table(args))
    parameters = experiment_config.parameters_by_name(args.parameters)
    session = Session(table)
    runners = {
        "1a": lambda: experiment_figures.figure_1a(table, parameters, session=session),
        "1b": lambda: experiment_figures.figure_1b(table, session=session),
        "2": lambda: experiment_figures.figure_2(table, repeats=20, session=session),
        "3a": lambda: experiment_figures.figure_3a(
            table, t=parameters.t, k=parameters.k, session=session
        ),
        "3b": lambda: experiment_figures.figure_3b(
            table, t=parameters.t, k=parameters.k, session=session
        ),
        "4a": lambda: experiment_figures.figure_4a(table, session=session),
        "4b": lambda: experiment_figures.figure_4b(
            input_sizes=(args.rows // 2, args.rows, 2 * args.rows), seed=args.seed
        ),
        "5a": lambda: experiment_figures.figure_5a(table, session=session),
        "5b": lambda: experiment_figures.figure_5b(table, session=session),
        "6a": lambda: experiment_figures.figure_6a(table, parameters, session=session),
        "6b": lambda: experiment_figures.figure_6b(table, parameters, session=session),
    }
    result = runners[args.id]()
    print(result.render())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by ``python -m repro``, the ``repro`` script and the tests."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _run_generate,
        "anonymize": _run_anonymize,
        "attack": _run_attack,
        "audit": _run_audit,
        "stream": _run_stream,
        "sweep": _run_sweep,
        "serve": _run_serve,
        "figure": _run_figure,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
