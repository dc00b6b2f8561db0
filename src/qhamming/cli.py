"""Command-line front end with text, JSON, and CSV output.

Exit codes are a stable contract:

    0   success
    2   usage, parse, or domain errors
    3   witness sign conditions failed (report still printed)
    4   no stable passing tail within the scanned horizon

Rationals are always rendered exactly ("p/q", bare integer when the
denominator is 1); ``--approx`` appends a decimal rendering without
replacing the exact one.
"""
from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

import click

from . import __version__
from .enumerators import distribution_from_dict, distribution_to_dict, mw_forward, mw_inverse
from .exceptions import ConditionError, DomainError, HorizonError, SchemaError
from .hamming_witness import ThresholdReport, default_horizon, find_threshold, hamming_rhs, singleton_rhs
from .krawtchouk import KrawParams, kraw_eval
from .lp_bound import ConditionReport, dimension_bound, witness_from_dict
from .rational import approx_decimal, format_rational, parse_rational

_FORMATS = click.Choice(["text", "json", "csv"])


def _output_options(func):
    func = click.option(
        "--format", "fmt", type=_FORMATS, default="text", show_default=True,
        help="Output format.",
    )(func)
    func = click.option(
        "--approx", is_flag=True,
        help="Append decimal approximations next to exact rationals.",
    )(func)
    return func


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        _fail(2, f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        _fail(2, f"malformed JSON in {path}: {exc}")


def _scalar_text(value, approx: bool) -> str:
    s = format_rational(value)
    if approx:
        s += f" (~{approx_decimal(value)})"
    return s


def _emit_json(payload: dict) -> None:
    click.echo(json.dumps(payload, indent=2))


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    click.echo(buf.getvalue(), nl=False)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return format_rational(value)
    return str(value)


@click.group()
@click.version_option(version=__version__, prog_name="qhamming")
def main() -> None:
    """Exact bound computations for quantum codes over m-level systems."""


@main.command()
@click.option("--k", type=int, required=True, help="Polynomial degree.")
@click.option("--x", type=int, required=True, help="Integer evaluation point.")
@click.option("--n", type=int, required=True, help="Code length.")
@click.option("--m", type=int, required=True, help="Levels per system.")
@_output_options
def kraw(k: int, x: int, n: int, m: int, fmt: str, approx: bool) -> None:
    """Evaluate the degree-k Krawtchouk polynomial at x."""
    try:
        value = kraw_eval(k, x, KrawParams(n, m))
    except DomainError as exc:
        _fail(2, str(exc))
    if fmt == "text":
        click.echo(_scalar_text(value, approx))
    elif fmt == "json":
        payload = {"k": k, "x": x, "n": n, "m": m, "value": str(value)}
        if approx:
            payload["value_approx"] = approx_decimal(value)
        _emit_json(payload)
    else:
        header = ["k", "x", "n", "m", "value"]
        row = [k, x, n, m, str(value)]
        if approx:
            header.append("value_approx")
            row.append(approx_decimal(value))
        _emit_csv(header, [row])


def _render_bound_text(ok_report, bound_report, n, m, S, approx) -> None:
    click.echo(f"n={n} m={m} S={','.join(map(str, S))}")
    if ok_report.ok:
        click.echo("conditions: ok")
    else:
        click.echo("conditions: FAILED")
        if not ok_report.cond1_ok:
            where = ",".join(map(str, ok_report.cond1_violations))
            click.echo(f"  coefficient sign condition violated at t={where}")
        if not ok_report.cond2_ok:
            where = ",".join(map(str, ok_report.cond2_violations))
            click.echo(f"  value sign condition violated at t={where}")
        return
    click.echo(f"bound = {_scalar_text(bound_report.bound, approx)}")
    click.echo(f"bound_floor = {bound_report.bound_floor}")
    click.echo(f"argmax_t = {bound_report.argmax_t}")
    click.echo("ratios:")
    for t, ratio in bound_report.ratios:
        click.echo(f"  t={t}: {_scalar_text(ratio, approx)}")


@main.command()
@click.argument("witness_file", type=click.Path(exists=True, dir_okay=False))
@_output_options
def bound(witness_file: str, fmt: str, approx: bool) -> None:
    """Validate a witness polynomial file and compute its dimension bound.

    WITNESS_FILE is JSON: {"n", "m", "S", "coeffs"}.
    """
    doc = _load_json_file(witness_file)
    try:
        poly, S = witness_from_dict(doc)
    except SchemaError as exc:
        _fail(2, str(exc))
    try:
        report = dimension_bound(poly, S)
        cond = ConditionReport(S, True, (), True, ())
    except ConditionError as exc:
        report, cond = None, exc.report

    if fmt == "text":
        _render_bound_text(cond, report, poly.params.n, poly.params.m, S, approx)
    elif fmt == "json":
        payload = {
            "n": poly.params.n,
            "m": poly.params.m,
            "S": list(S),
            "conditions_ok": cond.ok,
            "cond1_ok": cond.cond1_ok,
            "cond1_violations": list(cond.cond1_violations),
            "cond2_ok": cond.cond2_ok,
            "cond2_violations": list(cond.cond2_violations),
            "bound": None if report is None else format_rational(report.bound),
            "bound_floor": None if report is None else report.bound_floor,
            "argmax_t": None if report is None else report.argmax_t,
            "ratios": None
            if report is None
            else [{"t": t, "ratio": format_rational(r)} for t, r in report.ratios],
        }
        if approx and report is not None:
            payload["bound_approx"] = approx_decimal(report.bound)
        _emit_json(payload)
    else:
        if report is None:
            rows = [["cond1", t] for t in cond.cond1_violations]
            rows += [["cond2", t] for t in cond.cond2_violations]
            _emit_csv(["violated_condition", "t"], rows)
        else:
            header = ["t", "coeff", "ratio", "bound", "bound_floor", "argmax_t"]
            rows = [
                [t, _csv_cell(Fraction(poly.coeffs[t])), _csv_cell(r),
                 _csv_cell(report.bound), report.bound_floor, report.argmax_t]
                for t, r in report.ratios
            ]
            if approx:
                header += ["ratio_approx", "bound_approx"]
                for row, (_, r) in zip(rows, report.ratios):
                    row += [approx_decimal(r), approx_decimal(report.bound)]
            _emit_csv(header, rows)
    if not cond.ok:
        sys.exit(3)


def _threshold_note(report: ThresholdReport) -> str:
    return (
        f"scanned n in [{report.d}, {report.horizon}]; lengths beyond the "
        "horizon are extrapolated, so the threshold is reliable only with "
        "a stable tail"
    )


def _render_threshold_text(report: ThresholdReport, approx: bool) -> None:
    click.echo(f"d={report.d} m={report.m} horizon={report.horizon}")
    click.echo(f"threshold N = {report.threshold}")
    click.echo(f"stable_tail = {'true' if report.stable_tail else 'false'}")
    click.echo(f"note: {_threshold_note(report)}")
    click.echo("   n  pass  argmax_t  bound  hamming_rhs")
    for v in report.per_n:
        arg = "-" if v.argmax_t is None else str(v.argmax_t)
        b = "-" if v.bound is None else _scalar_text(v.bound, approx)
        h = _scalar_text(v.hamming, approx)
        click.echo(f"  {v.n:>3}  {'yes' if v.passed else 'NO':<4}  {arg:>8}  {b}  {h}")


def _approx_or_none(value) -> Optional[str]:
    return None if value is None else approx_decimal(value)


def _threshold_json(report: ThresholdReport, approx: bool) -> dict:
    payload = report.to_dict()
    if approx:
        for entry, v in zip(payload["per_n"], report.per_n):
            entry["bound_approx"] = _approx_or_none(v.bound)
            entry["hamming_rhs_approx"] = approx_decimal(v.hamming)
    return payload


def _threshold_csv(report: ThresholdReport, approx: bool) -> tuple[list[str], list[list]]:
    header = ["n", "pass", "argmax_t", "bound", "hamming_rhs"]
    rows = [
        [v.n, _csv_cell(v.passed), _csv_cell(v.argmax_t), _csv_cell(v.bound),
         _csv_cell(v.hamming)]
        for v in report.per_n
    ]
    if approx:
        header += ["bound_approx", "hamming_rhs_approx"]
        for row, v in zip(rows, report.per_n):
            row += [_csv_cell(_approx_or_none(v.bound)), approx_decimal(v.hamming)]
    return header, rows


@main.command()
@click.option("--d", type=int, required=True, help="Minimum distance.")
@click.option("--m", type=int, required=True, help="Levels per system.")
@click.option("--horizon", type=int, default=None,
              help="Largest length scanned.  [default: max(100, 10*d)]")
@_output_options
def threshold(d: int, m: int, horizon: Optional[int], fmt: str, approx: bool) -> None:
    """Find the least length N from which every scanned length passes."""
    try:
        report = find_threshold(d, m, horizon)
    except DomainError as exc:
        _fail(2, str(exc))
    except HorizonError as exc:
        _fail(4, str(exc))
    if fmt == "text":
        _render_threshold_text(report, approx)
    elif fmt == "json":
        _emit_json(_threshold_json(report, approx))
    else:
        header, rows = _threshold_csv(report, approx)
        _emit_csv(header, rows)
    if not report.stable_tail:
        _fail(4, f"threshold {report.threshold} has no stable tail at horizon {report.horizon}")


@main.command()
@click.option("--max-d", "max_d", type=int, required=True, help="Largest (odd) distance.")
@click.option("--m", type=int, required=True, help="Levels per system.")
@click.option("--horizon", type=int, default=None,
              help="Largest length scanned per distance.  [default: max(100, 10*d)]")
@_output_options
def table1(max_d: int, m: int, horizon: Optional[int], fmt: str, approx: bool) -> None:
    """Tabulate thresholds N(d, m) for odd distances d = 1, 3, ..., max-d."""
    if max_d < 1:
        _fail(2, f"--max-d must be >= 1, got {max_d}")
    if m < 2:
        _fail(2, f"--m must be >= 2, got {m}")
    reports = []
    try:
        for d in range(1, max_d + 1, 2):
            reports.append(find_threshold(d, m, horizon))
    except DomainError as exc:
        _fail(2, str(exc))
    except HorizonError as exc:
        _fail(4, str(exc))
    if fmt == "text":
        click.echo("d  N")
        for rep in reports:
            click.echo(f"{rep.d}  {rep.threshold}")
        if m != 2:
            click.echo(f"note: no published reference values for m={m}; computed by direct scan")
    elif fmt == "json":
        _emit_json(
            {
                "m": m,
                "reference_values_published": m == 2,
                "rows": [
                    {
                        "d": rep.d,
                        "threshold": rep.threshold,
                        "horizon": rep.horizon,
                        "stable_tail": rep.stable_tail,
                    }
                    for rep in reports
                ],
            }
        )
    else:
        rows = [
            [rep.d, rep.threshold, rep.horizon, _csv_cell(rep.stable_tail)]
            for rep in reports
        ]
        _emit_csv(["d", "threshold", "horizon", "stable_tail"], rows)
    if any(not rep.stable_tail for rep in reports):
        _fail(4, "at least one distance lacks a stable tail; increase --horizon")


@main.command()
@click.option("--direction", type=click.Choice(["forward", "inverse"]), required=True,
              help="forward: distribution -> dual; inverse: dual -> distribution.")
@click.argument("dist_file", type=click.Path(exists=True, dir_okay=False))
@_output_options
def macwilliams(direction: str, dist_file: str, fmt: str, approx: bool) -> None:
    """Transform a weight-distribution file.

    DIST_FILE is JSON: {"n", "m", "K", "A"}.
    """
    doc = _load_json_file(dist_file)
    try:
        dist = distribution_from_dict(doc)
    except SchemaError as exc:
        _fail(2, str(exc))
    out = mw_forward(dist) if direction == "forward" else mw_inverse(dist)
    if fmt == "text":
        click.echo(f"n={out.params.n} m={out.params.m} K={format_rational(out.K)}")
        for i, a in enumerate(out.entries):
            click.echo(f"  A[{i}] = {_scalar_text(a, approx)}")
    elif fmt == "json":
        payload = distribution_to_dict(out)
        if approx:
            payload["K_approx"] = approx_decimal(out.K)
            payload["A_approx"] = [approx_decimal(a) for a in out.entries]
        _emit_json(payload)
    else:
        header = ["i", "value"]
        rows = [[i, _csv_cell(a)] for i, a in enumerate(out.entries)]
        if approx:
            header.append("value_approx")
            for row, a in zip(rows, out.entries):
                row.append(approx_decimal(a))
        _emit_csv(header, rows)


@main.command()
@click.option("--n", type=int, required=True, help="Code length.")
@click.option("--K", "dim", type=str, required=True, help="Code dimension (rational string).")
@click.option("--d", type=int, required=True, help="Minimum distance.")
@click.option("--m", type=int, required=True, help="Levels per system.")
@click.option("--horizon", type=int, default=None,
              help="Horizon for the threshold scan.  [default: max(100, 10*d)]")
@_output_options
def check(n: int, dim: str, d: int, m: int, horizon: Optional[int], fmt: str, approx: bool) -> None:
    """Test parameters (n, K, d, m) against the Hamming and Singleton bounds."""
    try:
        K = parse_rational(dim)
    except SchemaError as exc:
        _fail(2, str(exc))
    if K <= 0:
        _fail(2, f"--K must be positive, got {dim}")
    try:
        h = hamming_rhs(n, d, m)
        s = singleton_rhs(n, d, m)
        report = find_threshold(d, m, horizon)
    except DomainError as exc:
        _fail(2, str(exc))
    except HorizonError as exc:
        _fail(4, str(exc))
    beyond = n >= report.threshold
    if fmt == "text":
        click.echo(f"n={n} K={format_rational(K)} d={d} m={m}")
        click.echo(f"hamming_rhs = {_scalar_text(h, approx)}")
        click.echo(f"hamming: {_verdict_word(K, h)}")
        click.echo(f"singleton_rhs = {_scalar_text(s, approx)}")
        click.echo(f"singleton: {_verdict_word(K, s)}")
        click.echo(
            f"threshold N = {report.threshold} "
            f"(horizon={report.horizon}, stable_tail={'true' if report.stable_tail else 'false'})"
        )
        if beyond:
            click.echo("n >= N: yes; the hamming bound applies to every code at this length")
        else:
            click.echo("n >= N: no; below the threshold only the singleton bound is unconditional")
    elif fmt == "json":
        payload = {
            "n": n,
            "K": format_rational(K),
            "d": d,
            "m": m,
            "hamming_rhs": format_rational(h),
            "hamming_satisfied": K <= h,
            "hamming_equality": K == h,
            "singleton_rhs": format_rational(s),
            "singleton_satisfied": K <= s,
            "singleton_equality": K == s,
            "threshold": report.threshold,
            "horizon": report.horizon,
            "stable_tail": report.stable_tail,
            "n_at_or_beyond_threshold": beyond,
        }
        if approx:
            payload["hamming_rhs_approx"] = approx_decimal(h)
            payload["singleton_rhs_approx"] = approx_decimal(s)
        _emit_json(payload)
    else:
        header = [
            "n", "K", "d", "m", "hamming_rhs", "hamming_satisfied", "hamming_equality",
            "singleton_rhs", "singleton_satisfied", "singleton_equality",
            "threshold", "horizon", "stable_tail", "n_at_or_beyond_threshold",
        ]
        row = [
            n, format_rational(K), d, m, _csv_cell(h), _csv_cell(K <= h), _csv_cell(K == h),
            _csv_cell(s), _csv_cell(K <= s), _csv_cell(K == s),
            report.threshold, report.horizon, _csv_cell(report.stable_tail), _csv_cell(beyond),
        ]
        if approx:
            header += ["hamming_rhs_approx", "singleton_rhs_approx"]
            row += [approx_decimal(h), approx_decimal(s)]
        _emit_csv(header, [row])


def _verdict_word(K: Fraction, rhs: Fraction) -> str:
    if K == rhs:
        return "satisfied with equality"
    return "satisfied" if K < rhs else "violated"


if __name__ == "__main__":
    main()
