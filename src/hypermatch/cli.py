"""Command-line interface: match two point sets, run synthetic benchmark
grids, or run the self-check suite.

Exit codes: 0 success, 1 parse/flag error, 2 invalid problem, 3 internal
solver anomaly, 4 self-check failure.  Diagnostics go to stderr, data to
files or stdout.  All indices in external documents are 1-based.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .affinity import SamplingConfig, build_tensor
from .bcagm import TENSOR_METHODS, TraceViolation, _check_method, run_method
from .harness import METHODS, ExperimentSpec, records_to_csv, run_grid
from .selfcheck import run_selfcheck

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_ANOMALY = 3
EXIT_SELFCHECK = 4

FORMAT_VERSION = 1


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


@functools.cache  # built once per process; parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    # Only reads a number: the config type that owns the setting judges it.
    def number(text: str) -> int | float:
        try:
            return int(text)
        except ValueError:
            return float(text)

    parser = argparse.ArgumentParser(
        prog="hypermatch",
        description="Hypergraph matching of 2-D point sets by tensor block-coordinate ascent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    match = sub.add_parser("match", help="match two point sets from a problem file")
    match.add_argument("input", help="problem file (JSON)")
    match.add_argument("--output", help="result file (default: stdout)")
    match.add_argument(
        "--method", help=f"override the file's method: one of {', '.join(TENSOR_METHODS)}"
    )
    match.add_argument("--seed", type=number)
    match.set_defaults(func=_cmd_match)

    synth = sub.add_parser("synth", help="run a synthetic benchmark grid, emit CSV")
    synth.add_argument("--n-in", type=number, required=True, dest="n_in")
    synth.add_argument(
        "--n-out",
        dest="n_out",
        help="outlier count, either an integer or an inclusive range start:stop:step",
    )
    synth.add_argument("--sigma", type=float)
    synth.add_argument("--scale", type=float)
    synth.add_argument("--trials", type=number)
    synth.add_argument("--seed", type=number, dest="seed_base", metavar="SEED")
    synth.add_argument(
        "--methods",
        help=f"comma-separated subset of {','.join(METHODS)}",
    )
    synth.add_argument("--threads", type=number, help="0 = auto")
    synth.add_argument("--deterministic", action="store_true")
    synth.add_argument("--output", help="CSV file (default: stdout)")
    synth.set_defaults(func=_cmd_synth)
    for command in (match, synth):  # the flags both take
        command.add_argument("--triples-per-point", type=number, dest="triples_per_point")
        command.add_argument("--knn", type=number)

    check = sub.add_parser("selfcheck", help="run the fast invariant suite")
    check.set_defaults(func=_cmd_selfcheck)
    return parser


def _require(document: dict, key: str):
    if key not in document:
        raise CliError(f"problem file: missing required field '{key}'", EXIT_USAGE)
    return document[key]


def _parse_points(raw, key: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise CliError(f"problem file: field '{key}' must be a non-empty list", EXIT_USAGE)
    for i, entry in enumerate(raw):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(type(c) in (int, float) for c in entry)  # not bool, an int subclass
        ):
            raise CliError(
                f"problem file: field '{key}' entry {i} must be a pair of numbers", EXIT_USAGE
            )
    # Through str, an integer beyond the float range reads as inf, as the
    # literal 1e400 does, and build_tensor rejects it as non-finite.
    return np.array([[float(str(c)) for c in entry] for entry in raw])


def _load_problem(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fp:
            document = json.load(fp)
    except OSError as exc:
        raise CliError(f"cannot read problem file: {exc}", EXIT_USAGE) from exc
    # ValueError also for an integer longer than Python converts, and
    # RecursionError for arrays or objects nested deeper than the decoder goes.
    except (ValueError, RecursionError) as exc:
        raise CliError(f"problem file is not valid JSON: {exc}", EXIT_USAGE) from exc
    if not isinstance(document, dict):
        raise CliError("problem file: top level must be an object", EXIT_USAGE)
    version = _require(document, "format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise CliError(
            f"problem file: field 'format_version' must be {FORMAT_VERSION}", EXIT_USAGE
        )
    P = _parse_points(_require(document, "points_p"), "points_p")
    Q = _parse_points(_require(document, "points_q"), "points_q")
    options = document.get("options", {})
    if not isinstance(options, dict):
        raise CliError("problem file: field 'options' must be an object", EXIT_USAGE)
    return P, Q, options


def _write_output(path: str | None, payload: str) -> None:
    """Write ``payload`` to the file ``path``, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(payload)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fp:
            fp.write(payload)
    except OSError as exc:
        raise CliError(f"cannot write output file: {exc}", EXIT_USAGE) from exc


def _given(options: dict, args, *keys: str) -> dict:
    """The values the user set among ``keys``: a flag wins over the file option.

    Keys the user left unset are absent, so the config dataclasses supply
    their defaults.
    """
    values = {}
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
        elif key in options:
            values[key] = options[key]
    return values


def _cmd_match(args) -> int:
    P, Q, options = _load_problem(args.input)
    method = _given(options, args, "method").get("method", ExperimentSpec.methods[0])
    try:
        _check_method(method)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc
    try:
        sampling = SamplingConfig(
            **_given(options, args, "triples_per_point", "knn", "seed", "gamma")
        )
    except ValueError as exc:
        raise CliError(f"invalid option value: {exc}", EXIT_USAGE) from exc

    tensor = build_tensor(P, Q, sampling)
    # Empty or all zeros, every matching scores 0.
    degenerate = not tensor.val.any()
    if degenerate:
        print(
            "hypermatch: warning: the affinity tensor has no positive entry; "
            "the assignment is a guess",
            file=sys.stderr,
        )
    solution = run_method(method, tensor)

    result = {
        "format_version": FORMAT_VERSION,
        "method": method,
        "n1": len(P),
        "n2": len(Q),
        "assignment": solution.assignment.to_one_based(),
        "score3": solution.score3,
        "score4_alpha": solution.score4_alpha,
        "outer_iterations": solution.outer_iterations,
        "degenerate": degenerate,
        "trace": solution.trace.as_dict(),
    }
    _write_output(args.output, json.dumps(result, indent=2) + "\n")
    return EXIT_OK


def _parse_n_out(raw: str) -> tuple[int, ...]:
    """The outlier counts of ``--n-out``; ``ExperimentSpec`` checks their values."""
    if ":" in raw:
        try:  # unpacking raises ValueError too, for a count other than three
            start, stop, step = (int(p) for p in raw.split(":"))
        except ValueError as exc:
            raise CliError(
                f"bad --n-out range {raw!r}, expected start:stop:step", EXIT_USAGE
            ) from exc
        if step <= 0:
            raise CliError(f"bad --n-out range {raw!r}", EXIT_USAGE)
        try:
            return tuple(range(start, stop + 1, step))
        except MemoryError as exc:
            raise CliError(f"bad --n-out range {raw!r}: too many values", EXIT_USAGE) from exc
    try:
        return (int(raw),)
    except ValueError as exc:
        raise CliError(f"bad --n-out value {raw!r}", EXIT_USAGE) from exc


def _cmd_synth(args) -> int:
    chosen = _given({}, args, "sigma", "scale", "trials", "seed_base", "threads")
    if args.n_out is not None:
        chosen["n_out"] = _parse_n_out(args.n_out)
    if args.methods is not None:
        chosen["methods"] = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    try:
        spec = ExperimentSpec(
            n_in=args.n_in,
            sampling=SamplingConfig(**_given({}, args, "triples_per_point", "knn")),
            deterministic=args.deterministic,
            **chosen,
        )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc
    _write_output(args.output, records_to_csv(run_grid(spec)))
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    results = run_selfcheck()
    all_ok = True
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.name}: {status} ({result.detail})")
        all_ok &= result.passed
    return EXIT_OK if all_ok else EXIT_SELFCHECK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help (0) and flag errors (2)
        code = exc.code if exc.code is not None else 0
        return EXIT_OK if code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except CliError as exc:
        print(f"hypermatch: {exc}", file=sys.stderr)
        return exc.code
    except TraceViolation as exc:
        print(f"hypermatch: solver anomaly: {exc}", file=sys.stderr)
        return EXIT_ANOMALY
    # Flag and file checks raise CliError, so what is left comes from the build
    # or the solve: the problem is invalid or needs more memory than there is.
    except (ValueError, MemoryError) as exc:
        print(f"hypermatch: invalid problem: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
