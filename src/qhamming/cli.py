"""Command-line front end with text, JSON, and CSV output.

Exit codes are a stable contract:

    0   success
    2   usage, parse, or domain errors
    3   witness sign conditions failed (report still printed)
    4   no threshold exists: the witness fails at every large length

Apart from click's own usage errors, exit codes 2, 3 and 4 are decided
only in ``_Main.invoke``.  Every other failure raises ``DomainError`` or
``SchemaError`` (2), ``ConditionError`` (3, which ``bound`` raises after
printing its report) or ``HorizonError`` (4).  An input past its cap
(``MAX_N`` and the rest below) exits 2 before any work.

Each subcommand computes its result and describes it once, with exact
values (``Fraction``, ``int``, ``bool``, ``None``), as text lines, a
JSON object and CSV rows; ``_emit`` prints the one the format asks for.
Rationals are always rendered exactly ("p/q", bare integer when the
denominator is 1); ``--approx`` appends a decimal rendering without
replacing the exact one.
"""
from __future__ import annotations

import csv
import io
import json
import math
import sys
from fractions import Fraction

import click

from . import __version__
from .enumerators import distribution_from_dict, mw_forward, mw_inverse
from .exceptions import ConditionError, DomainError, HorizonError, SchemaError
from .hamming_witness import find_threshold, hamming_rhs, singleton_rhs
from .krawtchouk import KrawParams, kraw_eval
from .lp_bound import ConditionReport, dimension_bound, witness_from_dict
from .rational import approx_decimal, is_array, is_int, parse_rational, to_wire

_FORMATS = click.Choice(["text", "json", "csv"])

# Input caps.  At its caps the slowest accepted input of each command
# stays within 5 s and 64 MiB on a 2-core host (README, "Input caps").
MAX_N = 250  # --n of kraw and check; n of bound and macwilliams documents (MAX_N + 1 entries)
MAX_M = 1024  # --m, and m of documents
MAX_D = 101  # --d of threshold and check
MAX_TABLE1_D = 61  # --max-d of table1, which scans every odd d up to it
MAX_LCM_BITS = 3000  # bits of the lcm of a document's denominators, which scales every sum


def _require_caps(*checks: tuple[str, int, int]) -> None:
    """Raise ``DomainError`` for the first (name, value, cap) with value > cap."""
    for name, value, cap in checks:
        if value > cap:
            raise DomainError(f"{name} must be at most {cap} (input cap), got {value}")


def _load_document(path: str, key: str) -> dict:
    """Load a ``bound`` or ``macwilliams`` document; refuse one past the caps unparsed.

    Once the document is an object with integer ``n`` and ``m`` and an
    array ``key``, n, m and the array's length are checked before any
    entry is parsed; any other document is left to its parser's error.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"cannot decode {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise SchemaError(f"malformed JSON in {path}: {exc}") from exc
    except ValueError as exc:  # an integer beyond the int-string digit limit
        raise SchemaError(f"cannot parse {path}: {exc}") from exc
    if isinstance(doc, dict) and is_int(doc.get("n")) and is_int(doc.get("m")) \
            and is_array(doc.get(key)):
        _require_caps(("field 'n'", doc["n"], MAX_N), ("field 'm'", doc["m"], MAX_M),
                      (f"length of field {key!r}", len(doc[key]), MAX_N + 1))
    return doc


def _require_lcm_cap(values) -> None:
    """Refuse parsed entries past the lcm cap before their (n+1)^2 table is built.

    The lcm of the denominators of ``values`` is given up as soon as it
    passes its cap, so huge coprime denominators cost only a few gcds.
    """
    lcm = 1
    for v in values:
        lcm = math.lcm(lcm, v.denominator)
        if lcm.bit_length() > MAX_LCM_BITS:
            raise DomainError(f"bit length of the denominators' lcm must be at most "
                              f"{MAX_LCM_BITS} (input cap), got {lcm.bit_length()} or more")


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


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _approx(value):
    if isinstance(value, list):
        return [approx_decimal(v) for v in value]
    return None if value is None else approx_decimal(value)


def _is_exact(value) -> bool:
    """A rational, or a nonempty list of rationals, that gets an approximation."""
    if isinstance(value, list):
        return bool(value) and all(isinstance(v, Fraction) for v in value)
    return isinstance(value, Fraction)


def _with_approx(rows: list[dict], table=()) -> list[dict]:
    """Rows with a ``<key>_approx`` appended for each key exact in some row.

    A value equal to ``table``, the CSV rows that a JSON object may nest,
    gets its own companions.
    """
    keys = [k for k in rows[0] if any(_is_exact(row[k]) for row in rows)]
    out = []
    for row in rows:
        row = {k: _with_approx(v) if v == table else v for k, v in row.items()}
        row.update((f"{k}_approx", _approx(row[k])) for k in keys)
        out.append(row)
    return out


def _emit(fmt: str, approx: bool, text: list, obj: dict, rows: list[dict]) -> None:
    """Print one result in format ``fmt``.

    ``text`` holds lines, each a string or a tuple of parts; a rational
    part takes a ``(~decimal)`` suffix under ``approx``.  ``obj`` is the
    JSON object and ``rows`` (never empty) the CSV table.  The whole
    output is rendered before any of it is written, so that a number past
    Python's int-string digit limit exits 2 with nothing on stdout.
    """
    try:
        if fmt == "text":
            lines = []
            for line in text:
                parts = (line,) if isinstance(line, str) else line
                lines.append("".join(
                    f"{p} (~{approx_decimal(p)})" if approx and isinstance(p, Fraction) else _cell(p)
                    for p in parts
                ) + "\n")
            out = "".join(lines)
        elif fmt == "json":
            out = json.dumps(to_wire(_with_approx([obj], rows)[0] if approx else obj), indent=2) + "\n"
        else:
            if approx:
                rows = _with_approx(rows)
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(rows[0])
            writer.writerows([_cell(v) for v in row.values()] for row in rows)
            out = buf.getvalue()
    except ValueError as exc:  # an integer past the int-string digit limit
        raise DomainError(f"result too large to print: {exc}") from exc
    click.echo(out, nl=False)


class _Main(click.Group):
    """The command group; maps library errors to exit codes 2, 3 and 4."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ConditionError:  # the report is already printed
            sys.exit(3)
        except (DomainError, SchemaError, HorizonError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(4 if isinstance(exc, HorizonError) else 2)


@click.group(cls=_Main)
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
    _require_caps(("--n", n, MAX_N), ("--m", m, MAX_M))
    value = Fraction(kraw_eval(k, x, KrawParams(n, m)))
    row = {"k": k, "x": x, "n": n, "m": m, "value": value}
    _emit(fmt, approx, [(value,)], row, [row])


@main.command()
@click.argument("witness_file", type=click.Path(exists=True, dir_okay=False))
@_output_options
def bound(witness_file: str, fmt: str, approx: bool) -> None:
    """Validate a witness polynomial file and compute its dimension bound.

    WITNESS_FILE is JSON: {"n", "m", "S", "coeffs"}.
    """
    poly, S = witness_from_dict(_load_document(witness_file, "coeffs"))
    _require_lcm_cap(poly.coeffs)
    try:
        report = dimension_bound(poly, S)
        cond = ConditionReport(S, True, (), True, ())
    except ConditionError as exc:
        report, cond = None, exc.report
    text = [f"n={poly.params.n} m={poly.params.m} S={','.join(map(str, S))}"]
    obj = {
        "n": poly.params.n,
        "m": poly.params.m,
        "S": list(S),
        "conditions_ok": cond.ok,
        "cond1_ok": cond.cond1_ok,
        "cond1_violations": list(cond.cond1_violations),
        "cond2_ok": cond.cond2_ok,
        "cond2_violations": list(cond.cond2_violations),
        "bound": report.bound if report else None,
        "bound_floor": report.bound_floor if report else None,
        "argmax_t": report.argmax_t if report else None,
        "ratios": [{"t": t, "ratio": r} for t, r in report.ratios] if report else None,
    }
    if report is None:
        text.append("conditions: FAILED")
        rows = []
        for name, kind, where in (("cond1", "coefficient", cond.cond1_violations),
                                  ("cond2", "value", cond.cond2_violations)):
            if where:
                text.append(f"  {kind} sign condition violated at t={','.join(map(str, where))}")
            rows += [{"violated_condition": name, "t": t} for t in where]
    else:
        text += [
            "conditions: ok",
            ("bound = ", report.bound),
            f"bound_floor = {report.bound_floor}",
            f"argmax_t = {report.argmax_t}",
            "ratios:",
        ]
        text += [(f"  t={t}: ", r) for t, r in report.ratios]
        rows = [
            {"t": t, "coeff": str(Fraction(poly.coeffs[t])), "ratio": r, "bound": report.bound,
             "bound_floor": report.bound_floor, "argmax_t": report.argmax_t}
            for t, r in report.ratios
        ]
    _emit(fmt, approx, text, obj, rows)
    if not cond.ok:
        raise ConditionError(cond)


@main.command()
@click.option("--d", type=int, required=True, help="Minimum distance.")
@click.option("--m", type=int, required=True, help="Levels per system.")
@_output_options
def threshold(d: int, m: int, fmt: str, approx: bool) -> None:
    """Find and prove the least length N from which every length passes."""
    _require_caps(("--d", d, MAX_D), ("--m", m, MAX_M))
    report = find_threshold(d, m)
    rows = [v.exact_dict() for v in report.per_n]
    text = [
        f"d={report.d} m={report.m} horizon={report.horizon}",
        f"threshold N = {report.threshold}",
        "stable_tail = true",
        f"note: scanned n in [{report.d}, {report.horizon}]; every longer length is "
        "proved to pass, so the threshold is proved",
        "   " + "  ".join(rows[0]),
    ]
    text += [
        (f"  {v.n:>3}  {'yes' if v.passed else 'NO':<4}  "
         f"{'-' if v.argmax_t is None else v.argmax_t:>8}  ",
         "-" if v.bound is None else v.bound, "  ", v.hamming)
        for v in report.per_n
    ]
    _emit(fmt, approx, text, report.exact_dict(), rows)


@main.command()
@click.option("--max-d", "max_d", type=int, required=True, help="Largest (odd) distance.")
@click.option("--m", type=int, required=True, help="Levels per system.")
@_output_options
def table1(max_d: int, m: int, fmt: str, approx: bool) -> None:
    """Tabulate thresholds N(d, m) for odd distances d = 1, 3, ..., max-d."""
    if max_d < 1:
        raise DomainError(f"--max-d must be >= 1, got {max_d}")
    _require_caps(("--max-d", max_d, MAX_TABLE1_D), ("--m", m, MAX_M))
    reports = [find_threshold(d, m) for d in range(1, max_d + 1, 2)]
    rows = [
        {"d": rep.d, "threshold": rep.threshold, "horizon": rep.horizon, "stable_tail": True}
        for rep in reports
    ]
    text = ["d  N"] + [f"{rep.d}  {rep.threshold}" for rep in reports]
    if m != 2:
        text.append(f"note: no published reference values for m={m}; "
                    "proved by the forward-difference certificate")
    obj = {"m": m, "reference_values_published": m == 2, "rows": rows}
    _emit(fmt, approx, text, obj, rows)


@main.command()
@click.option("--direction", type=click.Choice(["forward", "inverse"]), required=True,
              help="forward: distribution -> dual; inverse: dual -> distribution.")
@click.argument("dist_file", type=click.Path(exists=True, dir_okay=False))
@_output_options
def macwilliams(direction: str, dist_file: str, fmt: str, approx: bool) -> None:
    """Transform a weight-distribution file.

    DIST_FILE is JSON: {"n", "m", "K", "A"}.
    """
    dist = distribution_from_dict(_load_document(dist_file, "A"))
    _require_lcm_cap(dist.entries)
    out = mw_forward(dist) if direction == "forward" else mw_inverse(dist)
    text = [f"n={out.params.n} m={out.params.m} K={out.K}"]
    text += [(f"  A[{i}] = ", a) for i, a in enumerate(out.entries)]
    rows = [{"i": i, "value": a} for i, a in enumerate(out.entries)]
    _emit(fmt, approx, text, out.exact_dict(), rows)


@main.command()
@click.option("--n", type=int, required=True, help="Code length.")
@click.option("--K", "dim", type=str, required=True, help="Code dimension (rational string).")
@click.option("--d", type=int, required=True, help="Minimum distance.")
@click.option("--m", type=int, required=True, help="Levels per system.")
@_output_options
def check(n: int, dim: str, d: int, m: int, fmt: str, approx: bool) -> None:
    """Test parameters (n, K, d, m) against the Hamming and Singleton bounds."""
    _require_caps(("--n", n, MAX_N), ("--d", d, MAX_D), ("--m", m, MAX_M))
    K = parse_rational(dim)
    if K <= 0:
        raise DomainError(f"--K must be positive, got {dim}")
    h = hamming_rhs(n, d, m)
    s = singleton_rhs(n, d, m)
    report = find_threshold(d, m)
    beyond = n >= report.threshold
    row = {
        "n": n,
        "K": str(K),
        "d": d,
        "m": m,
        "hamming_rhs": h,
        "hamming_satisfied": K <= h,
        "hamming_equality": K == h,
        "singleton_rhs": s,
        "singleton_satisfied": K <= s,
        "singleton_equality": K == s,
        "threshold": report.threshold,
        "horizon": report.horizon,
        "stable_tail": True,
        "n_at_or_beyond_threshold": beyond,
    }
    text = [
        f"n={n} K={K} d={d} m={m}",
        ("hamming_rhs = ", h),
        f"hamming: {_verdict_word(K, h)}",
        ("singleton_rhs = ", s),
        f"singleton: {_verdict_word(K, s)}",
        f"threshold N = {report.threshold} (horizon={report.horizon}, stable_tail=true)",
        "n >= N: yes; the hamming bound applies to every code at this length" if beyond
        else "n >= N: no; below the threshold only the singleton bound is unconditional",
    ]
    _emit(fmt, approx, text, row, [row])


def _verdict_word(K: Fraction, rhs: Fraction) -> str:
    if K == rhs:
        return "satisfied with equality"
    return "satisfied" if K < rhs else "violated"
