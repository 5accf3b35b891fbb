"""Command-line interface: match two point sets, run synthetic benchmark
grids, or run the self-check suite.

Exit codes: 0 success, 1 parse/flag error, 2 invalid problem, 3 internal
solver anomaly, 4 self-check failure.  Diagnostics go to stderr, data to
files or stdout.  All indices in external documents are 1-based.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .affinity import AffinityParams, SamplingConfig, build_tensor
from .bcagm import TENSOR_METHODS, TraceViolation, run_method
from .harness import METHODS, ExperimentSpec, records_to_csv, run_grid
from .selfcheck import run_selfcheck

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_ANOMALY = 3
EXIT_SELFCHECK = 4

FORMAT_VERSION = 1

_ALPHA_MODES = {"zero-then-bound": "zero_then_bound", "bound": "bound_always", "zero": "zero_only"}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermatch",
        description="Hypergraph matching of 2-D point sets by tensor block-coordinate ascent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    match = sub.add_parser("match", help="match two point sets from a problem file")
    match.add_argument("input", help="problem file (JSON)")
    match.add_argument("--output", help="result file (default: stdout)")
    match.add_argument(
        "--method", choices=tuple(TENSOR_METHODS), help="override the file's method"
    )
    match.add_argument("--alpha-mode", choices=sorted(_ALPHA_MODES), dest="alpha_mode")
    match.add_argument("--triples-per-point", type=int, dest="triples_per_point")
    match.add_argument("--knn", type=int)
    match.add_argument("--seed", type=int)
    match.add_argument("--deterministic", action="store_true")
    match.set_defaults(func=_cmd_match)

    synth = sub.add_parser("synth", help="run a synthetic benchmark grid, emit CSV")
    synth.add_argument("--n-in", type=int, required=True, dest="n_in")
    synth.add_argument(
        "--n-out",
        default="0",
        dest="n_out",
        help="outlier count, either an integer or an inclusive range start:stop:step",
    )
    synth.add_argument("--sigma", type=float, default=0.0)
    synth.add_argument("--scale", type=float, default=1.0)
    synth.add_argument("--trials", type=int, default=1)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument(
        "--methods",
        help=f"comma-separated subset of {','.join(METHODS)}",
    )
    synth.add_argument("--alpha-mode", choices=sorted(_ALPHA_MODES), dest="alpha_mode")
    synth.add_argument("--triples-per-point", type=int, dest="triples_per_point")
    synth.add_argument("--knn", type=int)
    synth.add_argument("--sigma-s", type=float, dest="sigma_s")
    synth.add_argument("--threads", type=int, default=None, help="0 = auto")
    synth.add_argument("--deterministic", action="store_true")
    synth.add_argument("--output", help="CSV file (default: stdout)")
    synth.set_defaults(func=_cmd_synth)

    check = sub.add_parser("selfcheck", help="run the fast invariant suite")
    check.add_argument("--force-fail", action="store_true", help=argparse.SUPPRESS)
    check.set_defaults(func=_cmd_selfcheck)
    return parser


def _require(document: dict, key: str, kind, where: str):
    if key not in document:
        raise CliError(f"{where}: missing required field '{key}'", EXIT_USAGE)
    value = document[key]
    if kind is not None and not isinstance(value, kind):
        raise CliError(f"{where}: field '{key}' has the wrong type", EXIT_USAGE)
    return value


def _parse_points(raw, key: str, where: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise CliError(f"{where}: field '{key}' must be a non-empty list", EXIT_USAGE)
    for i, entry in enumerate(raw):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(c, (int, float)) for c in entry)
        ):
            raise CliError(
                f"{where}: field '{key}' entry {i} must be a pair of numbers", EXIT_USAGE
            )
    pts = np.asarray(raw, dtype=np.float64)
    if not np.all(np.isfinite(pts)):
        raise CliError(f"problem file: field '{key}' has non-finite coordinates", EXIT_INVALID)
    return pts


def _load_problem(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fp:
            document = json.load(fp)
    except OSError as exc:
        raise CliError(f"cannot read problem file: {exc}", EXIT_USAGE) from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"problem file is not valid JSON: {exc}", EXIT_USAGE) from exc
    if not isinstance(document, dict):
        raise CliError("problem file: top level must be an object", EXIT_USAGE)
    version = _require(document, "format_version", int, "problem file")
    if version != FORMAT_VERSION:
        raise CliError(
            f"problem file: field 'format_version' must be {FORMAT_VERSION}", EXIT_USAGE
        )
    P = _parse_points(_require(document, "points_p", list, "problem file"), "points_p", "problem file")
    Q = _parse_points(_require(document, "points_q", list, "problem file"), "points_q", "problem file")
    options = document.get("options", {})
    if not isinstance(options, dict):
        raise CliError("problem file: field 'options' must be an object", EXIT_USAGE)
    return P, Q, options


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
    if len(P) > len(Q):
        raise CliError(
            f"invalid problem: |P| = {len(P)} exceeds |Q| = {len(Q)}", EXIT_INVALID
        )
    if len(P) < 3:
        raise CliError("invalid problem: P needs at least 3 points", EXIT_INVALID)

    given = _given(options, args, "method", "alpha_mode")
    method = given.get("method", ExperimentSpec.methods[0])
    if method not in TENSOR_METHODS:
        raise CliError(
            f"unknown method {method!r}, expected one of {tuple(TENSOR_METHODS)}", EXIT_USAGE
        )
    solver = {}
    if "alpha_mode" in given:
        alpha_mode = given["alpha_mode"]
        if alpha_mode not in _ALPHA_MODES:
            raise CliError(
                f"unknown alpha mode {alpha_mode!r}, expected one of {sorted(_ALPHA_MODES)}",
                EXIT_USAGE,
            )
        solver["alpha_schedule"] = _ALPHA_MODES[alpha_mode]
    ints = _given(options, args, "triples_per_point", "knn", "seed")
    floats = _given(options, args, "sigma_s")
    try:
        sampling = SamplingConfig(**{k: int(v) for k, v in ints.items()})
        params = AffinityParams(
            **{k: float(v) for k, v in floats.items()}, **_given(options, args, "gamma")
        )
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid option value: {exc}", EXIT_USAGE) from exc

    try:
        tensor = build_tensor(P, Q, sampling, params)
    except ValueError as exc:
        raise CliError(f"invalid problem: {exc}", EXIT_INVALID) from exc
    solution = run_method(method, tensor, **solver)

    result = {
        "format_version": FORMAT_VERSION,
        "method": method,
        "n1": len(P),
        "n2": len(Q),
        "assignment": solution.assignment.to_one_based(),
        "score3": solution.score3,
        "score4_alpha": solution.score4_alpha,
        "outer_iterations": solution.outer_iterations,
        "trace": solution.trace.as_dict(),
    }
    payload = json.dumps(result, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fp:
            fp.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _parse_n_out(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise CliError(
                f"bad --n-out range {raw!r}, expected start:stop:step", EXIT_USAGE
            )
        try:
            start, stop, step = (int(p) for p in parts)
        except ValueError as exc:
            raise CliError(f"bad --n-out range {raw!r}: {exc}", EXIT_USAGE) from exc
        if step <= 0 or stop < start or start < 0:
            raise CliError(f"bad --n-out range {raw!r}", EXIT_USAGE)
        return tuple(range(start, stop + 1, step))
    try:
        value = int(raw)
    except ValueError as exc:
        raise CliError(f"bad --n-out value {raw!r}", EXIT_USAGE) from exc
    if value < 0:
        raise CliError("--n-out must be nonnegative", EXIT_USAGE)
    return (value,)


def _resolve_threads(args) -> int:
    if args.threads is not None:
        return args.threads
    env = os.environ.get("HYPERMATCH_THREADS")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise CliError(f"bad HYPERMATCH_THREADS value {env!r}", EXIT_USAGE) from exc
    return 1


def _cmd_synth(args) -> int:
    chosen = {}
    if args.methods is not None:
        chosen["methods"] = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    if args.alpha_mode is not None:
        chosen["alpha_schedule"] = _ALPHA_MODES[args.alpha_mode]
    try:
        spec = ExperimentSpec(
            n_in=args.n_in,
            n_out=_parse_n_out(args.n_out),
            sigma=args.sigma,
            scale=args.scale,
            trials=args.trials,
            seed_base=args.seed,
            sampling=SamplingConfig(**_given({}, args, "triples_per_point", "knn")),
            affinity=AffinityParams(**_given({}, args, "sigma_s")),
            deterministic=args.deterministic,
            threads=_resolve_threads(args),
            **chosen,
        )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc
    records = run_grid(spec)
    payload = records_to_csv(records)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fp:
            fp.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    results = run_selfcheck(force_fail=args.force_fail)
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


if __name__ == "__main__":
    sys.exit(main())
