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
import csv
import io
import json
import math
import re
import sys
from dataclasses import asdict

from .errors import (
    BracketError,
    DegenerateMatchError,
    MetricConstraintError,
    ModelDomainError,
    NormalizationSingularError,
    NumericalFailureError,
    RootLostError,
)
from .model import BranchClass, CouplingPair, GridSpec, as_index, validate_tol
from .secular import (
    DEFAULT_CRITICAL_TOL,
    DEFAULT_RESIDUAL_TOL,
    critical_coupling,
    perturbative_eps,
    spectrum,
)

# spectrum, critical and scan run on the secular layer alone; the other
# handlers import numpy and the numpy-backed modules they use themselves

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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_spectrum(args) -> int:
    coupling = CouplingPair(args.Y, args.Z)
    result = spectrum(coupling, args.levels - 1, args.tol)
    records = [_level_record(l) for l in result.levels]
    if args.format == "json":
        _emit(args, _json_text(records))
    else:
        rows = [[r[c] for c in _SPECTRUM_COLUMNS] for r in records]
        _emit(args, _csv_text(_SPECTRUM_COLUMNS, rows))
    if result.non_diagonalizable:
        print(
            "warning: YZ = 0 with a nonzero coupling is a Jordan block; "
            "doubled levels are algebraic multiplicities, not independent states",
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
    result = critical_coupling(args.pair, args.tol)
    payload = {
        "pair_index": result.pair_index,
        "c_crit": result.c_crit,
        "bracket_width": result.bracket_width,
        "evaluations": result.evaluations,
    }
    if args.format == "json":
        _emit(args, _json_text(payload))
    else:
        _emit(args, _csv_text(list(payload), [list(payload.values())]))
    return 0


def _cmd_metric(args) -> int:
    import numpy as np

    from .metric import MetricWeights, build_theta_metric
    from .wavefunctions import doublet_family

    coupling = CouplingPair(args.Y, args.Z)
    states = doublet_family(coupling, args.levels, args.tol)
    weights = (
        MetricWeights.from_file(args.weights, args.levels)
        if args.weights
        else MetricWeights.unit(args.levels)
    )
    rep = build_theta_metric(states, weights, unsafe=args.unsafe)
    # the mode form is diagonal, so its eigenvalues are its sorted diagonal
    eigenvalues = np.sort(np.diag(rep.matrix))
    if args.format == "json":
        payload = {
            "Y": coupling.Y,
            "Z": coupling.Z,
            "n_levels": args.levels,
            "order": [list(pair) for pair in rep.meta["order"]],
            "theta": rep.matrix.tolist(),
            "eigenvalues": eigenvalues.tolist(),
            "signature": list(rep.meta["signature"]),
            "channel_kernels": [k.tolist() for k in rep.meta["channel_kernels"]],
        }
        _emit(args, _json_text(payload))
    else:
        header = [f"state_{n}_{'p' if sigma > 0 else 'm'}" for n, sigma in rep.meta["order"]]
        _emit(args, _csv_text(header, rep.matrix.tolist()))
    return 0


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num) bit for bit, without numpy: the
    same products start + i*step, the same exact-division form when the
    step underflows to zero, and the last point set to stop."""
    div = num - 1
    if div == 0:
        return [0.0 * (stop - start) + start]
    step = (stop - start) / div
    if step == 0.0:
        points = [i / div * (stop - start) + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


def _cmd_scan(args) -> int:
    if args.steps < 1:
        raise ModelDomainError(f"steps must be >= 1, got {args.steps}")
    for flag, value in (("--c-min", args.c_min), ("--c-max", args.c_max)):
        if not math.isfinite(value):
            raise ModelDomainError(f"{flag} must be finite, got {value}")
    if args.c_min < 0 or args.c_max < args.c_min:
        raise ModelDomainError("need 0 <= c-min <= c-max")
    entries = []
    for c in _linspace(args.c_min, args.c_max, args.steps):
        result = spectrum(CouplingPair(c, c), args.levels - 1, args.tol)
        entries.append(
            {
                "c": c,
                "all_real": result.truncated_at is None,
                "truncated_at": result.truncated_at,
                "levels": [_level_record(l) for l in result.levels],
            }
        )
    if args.format == "json":
        _emit(args, _json_text(entries))
    else:
        header = ("c", "all_real") + _SPECTRUM_COLUMNS
        rows = []
        for e in entries:
            for r in e["levels"]:
                rows.append([e["c"], e["all_real"]] + [r[c] for c in _SPECTRUM_COLUMNS])
        _emit(args, _csv_text(header, rows))
    return 0


def _cmd_oracle(args) -> int:
    from .oracle import build_hamiltonian, compare_spectrum, eigenpairs

    coupling = CouplingPair(args.Y, args.Z)
    if coupling.branch is BranchClass.NEGATIVE_PRODUCT:
        raise ModelDomainError(
            "oracle comparison covers YZ >= 0 (degenerate doublet structure)"
        )
    analytic = spectrum(coupling, args.levels - 1, args.tol)
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
    values, _ = eigenpairs(build_hamiltonian(coupling, grid), n_request)
    coarse_values = None
    if args.order:
        coarse_grid = GridSpec(args.grid // 2)
        coarse_values, _ = eigenpairs(
            build_hamiltonian(coupling, coarse_grid),
            min(n_request, 2 * (coarse_grid.M - 1)),
        )
    report = compare_spectrum(levels, values, args.levels, coarse_values)
    report["grid_M"] = args.grid
    report["Y"] = coupling.Y
    report["Z"] = coupling.Z
    if args.format == "json":
        _emit(args, _json_text(report))
    else:
        header = [
            "n",
            "E_analytic",
            "E_numeric",
            "im_numeric",
            "multiplicity",
            "abs_err",
            "rel_err",
        ]
        if "richardson_orders" in report:
            header.append("order")
        rows = []
        for i, row in enumerate(report["levels"]):
            out = [row[c] for c in header if c != "order"]
            if "richardson_orders" in report:
                out.append(report["richardson_orders"][i])
            rows.append(out)
        _emit(args, _csv_text(header, rows))
    return 0


def _cmd_verify(args) -> int:
    from .battery import verify

    checks = verify(CouplingPair(args.Y, args.Z), args.levels, GridSpec(args.grid), args.tol)
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
    """argparse type of --tol: a finite number in (0, 1)."""
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
    parser.add_argument(
        "--tol",
        type=_tolerance,
        default=DEFAULT_RESIDUAL_TOL,
        help="secular residual tolerance (default 1e-12)",
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
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_RESIDUAL_TOL)
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
    except (RootLostError, BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalFailureError, DegenerateMatchError, NormalizationSingularError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
