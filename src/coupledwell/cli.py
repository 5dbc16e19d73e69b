"""Command-line front end: it parses arguments and formats results.

Subcommands mirror the library: spectrum, critical, metric, verify (the
battery in `battery.py`), scan, oracle.  Output goes to stdout (or
--out) as JSON or CSV and is byte-identical across runs for identical
arguments; diagnostics go to stderr.  Exit codes: 0 success, 2
validation error, 3 lost root / coupling at or above critical, 4
numerical failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import sys
from dataclasses import asdict

from .errors import (
    MetricConstraintError,
    ModelDomainError,
    NormalizationSingularError,
    NumericalFailureError,
    RootLostError,
)
from .model import CouplingPair, GridSpec, as_index, validate_tol
from .secular import DEFAULT_CRITICAL_TOL, spectrum

# no subcommand imports numpy: spectrum, critical and scan are closed
# form, metric runs the weight contract in floats, and verify (the battery
# in floats) and oracle take their eigenvalues from the numpy-free solve.
# A module that only some subcommands use is imported in their handlers:
# every call is a fresh process, and an import at the top is paid by all

_SPECTRUM_COLUMNS = ("n", "s", "t", "eps", "E", "residual", "branch")


def _level_record(level) -> dict:
    return {
        "n": level.n,
        "s": level.s,
        "t": level.t,
        "eps": level.eps,
        "E": level.E,
        "residual": level.residual,
        "branch": level.branch.value,
        "sublabel": level.sublabel,
    }


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write(args, payload, header, rows) -> None:
    """Emit payload as JSON, or header and rows as CSV, as --format asks."""
    _emit(args, _json_text(payload) if args.format == "json" else _csv_text(header, rows))


def _cmd_spectrum(args) -> int:
    coupling = CouplingPair(args.Y, args.Z)
    result = spectrum(coupling, args.levels - 1)
    records = [_level_record(l) for l in result.levels]
    _write(args, records, _SPECTRUM_COLUMNS, [[r[c] for c in _SPECTRUM_COLUMNS] for r in records])
    if result.non_diagonalizable:
        print(
            "warning: YZ = 0 with a nonzero coupling makes the channel matrix a Jordan block; "
            "each level is listed twice and has two independent states, which the closed form "
            "does not build",
            file=sys.stderr,
        )
    if result.truncated_at is not None:
        print(
            f"error: root lost at level n={result.truncated_at}: coupling at or above "
            f"the critical value for that pair; emitted levels 0..{result.truncated_at - 1}",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_critical(args) -> int:
    from .critical import critical_coupling

    result = critical_coupling(args.pair, args.tol)
    payload = {
        "pair_index": result.pair_index,
        "c_crit": result.c_crit,
        "bracket_width": result.bracket_width,
        "evaluations": result.evaluations,
    }
    _write(args, payload, list(payload), [list(payload.values())])
    return 0


def _cmd_metric(args) -> int:
    # the mode form of build_theta_metric, diag(S d^2), from the same weight contract
    from ._weights import MetricWeights, resolve_weights
    from .wavefunctions import doublet_family

    coupling = CouplingPair(args.Y, args.Z)
    states = doublet_family(coupling, args.levels)
    weights = (MetricWeights.from_file(args.weights, args.levels) if args.weights
               else MetricWeights.unit(args.levels))
    family = resolve_weights(states, weights, args.unsafe)
    diagonal = family.mode_form()
    order, k = family.meta["order"], family.kernels
    payload = {
        "Y": coupling.Y,
        "Z": coupling.Z,
        "n_levels": args.levels,
        "order": order,
        "theta": [[v if i == k else 0.0 for k in range(len(diagonal))]
                  for i, v in enumerate(diagonal)],
        # the mode form is diagonal, so its eigenvalues are its sorted diagonal
        "eigenvalues": sorted(diagonal),
        "signature": family.signature,
        "channel_kernels": [[k[i:i + 2], k[i + 2:i + 4]] for i in range(0, len(k), 4)],
    }
    header = [f"state_{n}_{'p' if sigma > 0 else 'm'}" for n, sigma in order]
    _write(args, payload, header, payload["theta"])
    return 0


def _cmd_scan(args) -> int:
    from ._ranges import _linspace

    if args.steps < 1:
        raise ModelDomainError(f"steps must be >= 1, got {args.steps}")
    for flag, value in (("--c-min", args.c_min), ("--c-max", args.c_max)):
        if not math.isfinite(value):
            raise ModelDomainError(f"{flag} must be finite, got {value}")
    if args.c_min < 0 or args.c_max < args.c_min:
        raise ModelDomainError("need 0 <= c-min <= c-max")
    entries = []
    for c in _linspace(args.c_min, args.c_max, args.steps):
        result = spectrum(CouplingPair(c, c), args.levels - 1)
        entries.append(
            {
                "c": c,
                "all_real": result.truncated_at is None,
                "truncated_at": result.truncated_at,
                "levels": [_level_record(l) for l in result.levels],
            }
        )
    rows = [
        [e["c"], e["all_real"]] + [r[c] for c in _SPECTRUM_COLUMNS]
        for e in entries
        for r in e["levels"]
    ]
    _write(args, entries, ("c", "all_real") + _SPECTRUM_COLUMNS, rows)
    return 0


def _cmd_oracle(args) -> int:
    from .oracle import _require_comparable, compare_spectrum, eigenvalues

    coupling = CouplingPair(args.Y, args.Z)
    _require_comparable(coupling.branch)  # before the eigensolve, which can fail first
    analytic = spectrum(coupling, args.levels - 1)
    if analytic.truncated_at is not None:
        print(
            f"error: analytic root lost at n={analytic.truncated_at}; "
            "coupling at or above critical",
            file=sys.stderr,
        )
        return 3
    # one record per level n (decoupled doubling collapses)
    per_level = {l.n: l for l in analytic.levels}
    levels = [per_level[n] for n in sorted(per_level)]
    grid = GridSpec(args.grid)
    if args.order and (args.grid % 4 or args.grid < 16):
        raise ModelDomainError(
            "--order halves the grid, so --grid must be divisible by 4 and at least 16, "
            f"got {args.grid}"
        )
    n_request = min(2 * args.levels + 2, 2 * (args.grid - 1))
    values = eigenvalues(coupling, grid, n_request)
    coarse_values = None
    if args.order:
        coarse_grid = GridSpec(args.grid // 2)
        coarse_values = eigenvalues(coupling, coarse_grid, min(n_request, 2 * (coarse_grid.M - 1)))
    report = compare_spectrum(levels, values, args.levels, coarse_values)
    report["grid_M"] = args.grid
    report["Y"] = coupling.Y
    report["Z"] = coupling.Z
    header = ["n", "E_analytic", "E_numeric", "im_numeric", "multiplicity", "abs_err", "rel_err"]
    rows = [[row[c] for c in header] for row in report["levels"]]
    if "richardson_orders" in report:
        header.append("order")
        rows = [row + [order] for row, order in zip(rows, report["richardson_orders"])]
    _write(args, report, header, rows)
    return 0


def _cmd_verify(args) -> int:
    from .battery import verify

    checks = verify(CouplingPair(args.Y, args.Z), args.levels, GridSpec(args.grid))
    all_passed = all(c.passed for c in checks)
    if args.format == "json":
        records = [dict(asdict(c), passed=c.passed) for c in checks]
        _emit(args, _json_text({"checks": records, "all_passed": all_passed}))
    else:
        lines = [f"{'PASS' if c.passed else 'FAIL'}  {c.name:<46} {c.value:.6e} "
                 f"{c.comparison} {c.bound:.6e}" for c in checks]
        lines.append(f"{'OK' if all_passed else 'FAILED'}: "
                     f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if all_passed else 4


def _level_count(text: str) -> int:
    """argparse type of --levels: a level count of at least 1."""
    try:
        return as_index(int(text), "level count must be >= 1", 1)
    except ValueError:  # int() and as_index (ModelDomainError) both raise one
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text}") from None


def _tolerance(text: str) -> float:
    """argparse type of critical's --tol: a finite number in (0, 1)."""
    try:
        tol = float(text)
        validate_tol(tol)
    except ValueError:  # float() and validate_tol (InvalidToleranceError) both raise one
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1), got {text}") from None
    return tol


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads a value such as -1e-3 as a negative number,
    not as an option: argparse's own pattern has no exponent.  Subparsers
    are built with the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _add_common(parser, levels_default):
    parser.add_argument("--Y", type=float, required=True, help="upper-right coupling amplitude")
    parser.add_argument("--Z", type=float, required=True, help="lower-left coupling amplitude")
    parser.add_argument(
        "--levels",
        type=_level_count,
        default=levels_default,
        help=f"number of levels, n = 0..levels-1 (default {levels_default})",
    )


def _add_output(parser, formats=("json", "csv")):
    parser.add_argument(
        "--format", choices=formats, default=formats[0], help=f"output format (default {formats[0]})"
    )
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coupledwell",
        description=(
            "Exactly solvable two-channel square well with imaginary "
            "antisymmetric coupling: spectra, states, metrics, and a "
            "finite-difference cross-check."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="solve levels and print them")
    _add_common(p, 5)
    _add_output(p)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("critical", help="critical coupling of a root pair")
    p.add_argument("--pair", type=int, default=0, help="pair index k for roots (2k, 2k+1)")
    p.add_argument(
        "--tol",
        type=_tolerance,
        default=DEFAULT_CRITICAL_TOL,
        help="bracket width on sqrt(YZ) (default 1e-3)",
    )
    _add_output(p)
    p.set_defaults(handler=_cmd_critical)

    p = sub.add_parser("metric", help="mode-basis metric matrix and spectrum")
    _add_common(p, 6)
    p.add_argument("--weights", default=None, help="weight file: lines 'n S_plus S_minus'")
    p.add_argument(
        "--unsafe",
        action="store_true",
        help="admit non-positive weights (indefinite pseudo-metrics)",
    )
    _add_output(p)
    p.set_defaults(handler=_cmd_metric)

    p = sub.add_parser("verify", help="run the invariant battery and report pass/fail")
    _add_common(p, 6)
    p.add_argument("--grid", type=int, default=128, help="oracle mesh intervals (default 128)")
    _add_output(p, formats=("table", "json"))
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("scan", help="spectra over a grid of couplings Y = Z = c")
    p.add_argument("--c-min", dest="c_min", type=float, required=True)
    p.add_argument("--c-max", dest="c_max", type=float, required=True)
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--levels", type=_level_count, default=2)
    _add_output(p)
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("oracle", help="finite-difference comparison report")
    _add_common(p, 4)
    p.add_argument("--grid", type=int, default=512, help="mesh intervals (default 512)")
    p.add_argument(
        "--order",
        action="store_true",
        help="also run half resolution and report Richardson convergence orders",
    )
    _add_output(p)
    p.set_defaults(handler=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except (ModelDomainError, MetricConstraintError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RootLostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalFailureError, NormalizationSingularError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
