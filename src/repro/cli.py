"""Command-line interface for compressing, persisting and querying repositories.

Five subcommands cover the build/serve workflow end to end:

``compress``
    Load a repository (Porto CSV, a GeoLife ``.plt`` directory, or a built-in
    synthetic workload), build the PPQ-trajectory summary and print the
    summary statistics (codebook size, compression ratio, MAE).

``save``
    Fit a repository and serialize the fitted model -- summary, codebook,
    reconstructions and index -- to a versioned artifact file (the build
    half of build-once/serve-many).

``load``
    Restore a saved artifact into a query-ready model and print what it
    contains (checksums are verified on load).

``info``
    Describe an artifact without loading it: format version, per-section
    sizes, checksum status and the stored configuration.

``query``
    Answer spatio-temporal queries -- a single STRQ/TPQ given by
    ``--x/--y/--t`` or a whole batch workload file (``--workload``) --
    against either a freshly fitted repository (dataset flags) or a saved
    artifact (``--model``), without refitting.

Failures map to distinct exit codes so scripts can react without parsing
stderr: ``2`` usage errors, unreadable files and dataset sources that
cannot be loaded or hold no trajectories, ``3`` artifact errors (missing,
malformed, corrupt -- ``info`` included), ``4`` invalid workload files,
``5`` query failures.

Examples
--------
::

    python -m repro compress --synthetic porto --trajectories 100
    python -m repro save --synthetic porto --trajectories 100 --output model.ppq
    python -m repro info model.ppq
    python -m repro load --no-strict model.ppq
    python -m repro query --model model.ppq --x -8.62 --y 41.16 --t 20 --length 10
    python -m repro query --model model.ppq --workload workload.json
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.config import CQCConfig, IndexConfig, PPQConfig, PartitionCriterion
from repro.core.pipeline import PPQTrajectory
from repro.data.loaders import load_plt_directory, load_porto_csv
from repro.data.synthetic import generate_geolife_like, generate_porto_like
from repro.data.trajectory import TrajectoryDataset
from repro.metrics.accuracy import mean_absolute_error
from repro.queries.batch import Workload, WorkloadError
from repro.queries.engine import QueryError
from repro.queries.exact import ExactQueryResult
from repro.queries.strq import STRQResult
from repro.queries.tpq import TPQResult
from repro.storage import ArtifactError, inspect_model

#: Exit codes; distinct so scripts can branch on the failure class.
#: 2 doubles as argparse's own usage-error code.
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ARTIFACT = 3
EXIT_WORKLOAD = 4
EXIT_QUERY = 5


class _ReproArgumentParser(argparse.ArgumentParser):
    """Argument parser with cross-argument validation for ``query``.

    ``--x/--y/--t`` and ``--workload`` are alternative ways to specify the
    queries, and ``--model`` replaces the dataset flags; requiring exactly
    one of each pair cannot be expressed with plain argparse groups, so the
    checks run after parsing (still raising the usual ``SystemExit`` with a
    usage message).
    """

    def parse_args(self, args=None, namespace=None):  # type: ignore[override]
        parsed = super().parse_args(args, namespace)
        if getattr(parsed, "command", None) != "query":
            return parsed
        has_dataset = bool(parsed.porto_csv or parsed.geolife_dir or parsed.synthetic)
        if parsed.model:
            if has_dataset:
                self.error("--model replaces the dataset flags; give one or the other")
        elif not has_dataset:
            self.error("query needs a dataset source "
                       "(--porto-csv/--geolife-dir/--synthetic) or --model")
        if not parsed.workload:
            missing = [flag for flag, value in
                       (("--x", parsed.x), ("--y", parsed.y), ("--t", parsed.t))
                       if value is None]
            if missing:
                self.error(f"query needs either --workload or {', '.join(missing)}")
        return parsed


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = _ReproArgumentParser(
        prog="repro",
        description="PPQ-trajectory: compress and query large trajectory repositories",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compress = subparsers.add_parser("compress", help="build a summary and report statistics")
    _add_dataset_arguments(compress)
    _add_quantizer_arguments(compress)

    save = subparsers.add_parser("save", help="fit a model and save it as an artifact")
    _add_dataset_arguments(save)
    _add_quantizer_arguments(save)
    save.add_argument("--output", "-o", required=True,
                      help="destination artifact file (conventionally *.ppq)")
    save.add_argument("--no-raw", action="store_true",
                      help="omit the raw trajectories (smaller artifact, "
                           "but exact queries stop working after load)")

    load = subparsers.add_parser("load", help="load an artifact and report what it serves")
    load.add_argument("artifact", help="artifact file written by 'repro save'")
    load.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True,
                      help="--no-strict salvages corrupt/truncated sections by "
                           "rebuilding what is derivable (default: strict)")

    info = subparsers.add_parser("info", help="describe an artifact without loading it")
    info.add_argument("artifact", help="artifact file written by 'repro save'")

    query = subparsers.add_parser("query", help="run spatio-temporal queries against a "
                                                "fitted repository or a saved artifact")
    _add_dataset_arguments(query, required=False)
    _add_quantizer_arguments(query)
    query.add_argument("--model", default=None,
                       help="answer against this saved artifact instead of "
                            "fitting a dataset")
    query.add_argument("--x", type=float, default=None, help="query x (longitude)")
    query.add_argument("--y", type=float, default=None, help="query y (latitude)")
    query.add_argument("--t", type=int, default=None, help="query timestamp")
    query.add_argument("--length", type=int, default=0,
                       help="path length for a TPQ (0 = range query only)")
    query.add_argument("--workload", default=None,
                       help="JSON workload file of mixed strq/tpq/exact queries, "
                            "answered through the batched query engine")
    query.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True,
                       help="with --model: --no-strict salvages corrupt sections "
                            "instead of refusing to load (default: strict)")

    return parser


def _add_dataset_arguments(parser: argparse.ArgumentParser, required: bool = True) -> None:
    source = parser.add_mutually_exclusive_group(required=required)
    source.add_argument("--porto-csv", help="path to a Porto taxi challenge CSV")
    source.add_argument("--geolife-dir", help="path to a GeoLife directory of .plt files")
    source.add_argument("--synthetic", choices=["porto", "geolife"],
                        help="use a built-in synthetic workload")
    parser.add_argument("--trajectories", type=int, default=100,
                        help="number of trajectories to load / generate")
    parser.add_argument("--seed", type=int, default=13, help="seed for synthetic workloads")


def _add_quantizer_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--variant", choices=["ppq-a", "ppq-s", "epq"], default="ppq-a",
                        help="quantizer variant (default: ppq-a)")
    parser.add_argument("--epsilon1", type=float, default=0.001,
                        help="error bound in coordinate units (default 0.001 ~= 111 m)")
    parser.add_argument("--grid-meters", type=float, default=50.0,
                        help="CQC grid size in metres (default 50)")
    parser.add_argument("--no-cqc", action="store_true", help="disable CQC (basic variant)")


def load_dataset(args: argparse.Namespace):
    """Load the dataset selected by the CLI arguments."""
    if args.porto_csv:
        return load_porto_csv(args.porto_csv, max_trajectories=args.trajectories)
    if args.geolife_dir:
        return load_plt_directory(args.geolife_dir, max_trajectories=args.trajectories)
    if args.synthetic == "geolife":
        return generate_geolife_like(num_trajectories=args.trajectories, seed=args.seed)
    return generate_porto_like(num_trajectories=args.trajectories, seed=args.seed)


def _load_source(args: argparse.Namespace) -> TrajectoryDataset | int:
    """:func:`load_dataset`, or :data:`EXIT_USAGE` after a one-line error.

    A source fails when its loader raises ``OSError`` (missing file or
    directory) or ``ValueError`` (unparseable contents), or when it yields
    no trajectories: there is nothing to fit then.
    """
    source = args.porto_csv or args.geolife_dir or f"synthetic {args.synthetic}"
    try:
        dataset = load_dataset(args)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load dataset {source!r}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not len(dataset):
        print(f"error: dataset {source!r} holds no trajectories", file=sys.stderr)
        return EXIT_USAGE
    return dataset


def build_system(args: argparse.Namespace) -> PPQTrajectory:
    """Build the PPQ-trajectory system selected by the CLI arguments."""
    if args.variant == "ppq-a":
        criterion, eps_p, variant = PartitionCriterion.AUTOCORRELATION, 0.01, "ppq"
    elif args.variant == "ppq-s":
        criterion, eps_p, variant = PartitionCriterion.SPATIAL, 0.1, "ppq"
    else:
        criterion, eps_p, variant = PartitionCriterion.SPATIAL, 0.1, "epq"
    config = PPQConfig(epsilon1=args.epsilon1, epsilon_p=eps_p, criterion=criterion)
    cqc = CQCConfig.for_grid_meters(args.grid_meters, enabled=not args.no_cqc)
    return PPQTrajectory(ppq_config=config, cqc_config=cqc,
                         index_config=IndexConfig(), variant=variant)


def run_compress(args: argparse.Namespace, out=None) -> int:
    """Handle the ``compress`` subcommand."""
    out = out if out is not None else sys.stdout
    dataset = _load_source(args)
    if isinstance(dataset, int):
        return dataset
    system = build_system(args)
    system.fit(dataset, build_index=False)
    mae = mean_absolute_error(system.summary, dataset)
    print(f"trajectories        : {len(dataset)}", file=out)
    print(f"points              : {dataset.num_points}", file=out)
    print(f"codewords           : {system.num_codewords()}", file=out)
    print(f"compression ratio   : {system.compression_ratio():.2f}", file=out)
    print(f"summary MAE (m)     : {mae:.1f}", file=out)
    print(f"build time (s)      : {system.quantizer.timings['total']:.2f}", file=out)
    return 0


def run_save(args: argparse.Namespace, out=None) -> int:
    """Handle the ``save`` subcommand: fit, serialize, report."""
    out = out if out is not None else sys.stdout
    dataset = _load_source(args)
    if isinstance(dataset, int):
        return dataset
    system = build_system(args)
    system.fit(dataset)
    path = system.save(args.output, include_raw=not args.no_raw)
    info = inspect_model(path)
    print(f"artifact            : {path}", file=out)
    print(f"size (bytes)        : {info.file_size}", file=out)
    print(f"trajectories        : {len(dataset)}", file=out)
    print(f"points              : {dataset.num_points}", file=out)
    print(f"codewords           : {system.num_codewords()}", file=out)
    print(f"index periods       : {system.engine.index.num_periods}", file=out)
    print(f"sections            : {', '.join(s.name for s in info.sections)}", file=out)
    return 0


def run_load(args: argparse.Namespace, out=None) -> int:
    """Handle the ``load`` subcommand: restore an artifact, report readiness."""
    out = out if out is not None else sys.stdout
    try:
        system = PPQTrajectory.load(args.artifact, strict=args.strict)
    except OSError as exc:
        print(f"error: cannot read artifact: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArtifactError as exc:
        print(f"error: artifact {args.artifact!r}: {exc}", file=sys.stderr)
        return EXIT_ARTIFACT
    summary = system.summary
    timestamps = summary.timestamps
    span = f"{timestamps[0]}..{timestamps[-1]}" if timestamps else "none"
    print(f"artifact            : {args.artifact}", file=out)
    print(f"variant             : {system.variant}", file=out)
    print(f"points              : {summary.num_points}", file=out)
    print(f"timestamps          : {len(timestamps)} ({span})", file=out)
    print(f"codewords           : {summary.num_codewords}", file=out)
    print(f"index periods       : {system.engine.index.num_periods}", file=out)
    exact = "yes" if system.engine.raw_dataset is not None else "no"
    print(f"exact queries       : {exact}", file=out)
    report = system.load_report
    if report is not None and not report.clean:
        print("salvage report      :", file=out)
        for line in report.lines():
            print(f"  {line}", file=out)
        print("checksums           : salvaged", file=out)
    else:
        print("checksums           : ok", file=out)
    return 0


def run_info(args: argparse.Namespace, out=None) -> int:
    """Handle the ``info`` subcommand: describe an artifact without loading."""
    out = out if out is not None else sys.stdout
    try:
        info = inspect_model(args.artifact)
    except OSError as exc:
        print(f"error: cannot read artifact: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArtifactError as exc:
        print(f"error: artifact {args.artifact!r}: {exc}", file=sys.stderr)
        return EXIT_ARTIFACT
    print(f"artifact            : {info.path}", file=out)
    print(f"format version      : {info.format_version}", file=out)
    print(f"size (bytes)        : {info.file_size}", file=out)
    if info.config is not None:
        ppq = info.config["ppq"]
        print(f"variant             : {info.config['variant']}", file=out)
        print(f"epsilon1            : {ppq['epsilon1']}", file=out)
        print(f"criterion           : {ppq['criterion']}", file=out)
        print(f"cqc enabled         : {info.config['cqc']['enabled']}", file=out)
    print("sections            :", file=out)
    for section in info.sections:
        status = "ok" if section.crc_ok else "CORRUPT"
        print(f"  {section.name:<8} offset={section.offset:<10} "
              f"bytes={section.length:<10} crc={status}", file=out)
    print(f"checksums           : {'ok' if info.checksums_ok else 'FAILED'}", file=out)
    if info.checksums_ok:
        return EXIT_OK
    corrupt = ", ".join(section.name for section in info.sections if not section.crc_ok)
    print(f"error: artifact {args.artifact!r}: checksum mismatch in section(s) {corrupt}",
          file=sys.stderr)
    return EXIT_ARTIFACT


def run_query(args: argparse.Namespace, out=None) -> int:
    """Handle the ``query`` subcommand."""
    out = out if out is not None else sys.stdout
    system = _obtain_system(args)
    if isinstance(system, int):
        return system
    if getattr(args, "workload", None):
        return _run_workload(system, args.workload, out)
    try:
        strq = system.strq(args.x, args.y, args.t)
        print(f"STRQ ({args.x}, {args.y}, t={args.t}) -> {len(strq.candidates)} candidate(s): "
              f"{strq.candidates}", file=out)
        if args.length > 0:
            tpq = system.tpq(args.x, args.y, args.t, length=args.length)
            for traj_id, path in tpq.paths.items():
                last = path[-1]
                print(f"  trajectory {traj_id}: {len(path)} reconstructed points, "
                      f"ends at ({last[0]:.5f}, {last[1]:.5f})", file=out)
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps failures to exit codes
        print(f"error: query failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_QUERY
    return 0


def _obtain_system(args: argparse.Namespace) -> PPQTrajectory | int:
    """Load ``--model`` or fit the selected dataset; int = error exit code."""
    if args.model:
        try:
            return PPQTrajectory.load(args.model, strict=args.strict)
        except OSError as exc:
            print(f"error: cannot read artifact: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ArtifactError as exc:
            print(f"error: artifact {args.model!r}: {exc}", file=sys.stderr)
            return EXIT_ARTIFACT
    dataset = _load_source(args)
    if isinstance(dataset, int):
        return dataset
    system = build_system(args)
    system.fit(dataset)
    return system


def _run_workload(system: PPQTrajectory, path: str, out) -> int:
    """Execute a JSON workload file through the batched query engine."""
    try:
        workload = Workload.from_file(path)
    except OSError as exc:
        print(f"error: cannot read workload file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (WorkloadError, ValueError, KeyError, TypeError) as exc:
        print(f"error: invalid workload file {path!r}: {exc}", file=sys.stderr)
        return EXIT_WORKLOAD
    if not len(workload):
        print("workload            : 0 queries (empty)", file=out)
        print("nothing to do", file=out)
        return EXIT_OK
    cache_before = system.summary.slice_cache.stats()
    start = time.perf_counter()
    results = system.run_batch(workload, isolate=True)
    elapsed = time.perf_counter() - start
    counts = workload.counts()
    described = ", ".join(f"{count} {kind}" for kind, count in counts.items() if count)
    print(f"workload            : {len(workload)} queries ({described or 'empty'})", file=out)
    print(f"batch time (s)      : {elapsed:.3f}", file=out)
    if elapsed > 0:
        print(f"throughput (q/s)    : {len(workload) / elapsed:.0f}", file=out)
    total_candidates = total_paths = total_matches = 0
    for result in results:
        if isinstance(result, STRQResult):
            total_candidates += len(result.candidates)
        elif isinstance(result, TPQResult):
            total_paths += len(result.paths)
        elif isinstance(result, ExactQueryResult):
            total_matches += len(result.matches)
    if counts["strq"]:
        print(f"STRQ candidates     : {total_candidates}", file=out)
    if counts["tpq"]:
        print(f"TPQ paths           : {total_paths}", file=out)
    if counts["exact"]:
        print(f"exact matches       : {total_matches}", file=out)
    # Report counter deltas so the line describes this workload, not the
    # slice reconstructions done while the index was built.
    cache = system.summary.slice_cache.stats()
    print(f"slice cache         : {cache['hits'] - cache_before['hits']} hits / "
          f"{cache['misses'] - cache_before['misses']} misses "
          f"({cache['evictions'] - cache_before['evictions']} evictions)", file=out)
    errors = [r for r in results if isinstance(r, QueryError)]
    if errors:
        for err in errors:
            print(f"error: query #{err.index} ({err.kind}) failed: "
                  f"{err.error_type}: {err.message}", file=sys.stderr)
        print(f"error: {len(errors)} of {len(workload)} queries failed", file=sys.stderr)
        return EXIT_QUERY
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "compress":
        return run_compress(args)
    if args.command == "save":
        return run_save(args)
    if args.command == "load":
        return run_load(args)
    if args.command == "info":
        return run_info(args)
    return run_query(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
