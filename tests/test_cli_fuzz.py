"""Fuzzing the exit-code contract: every invocation exits 0, 2, 3 or 4.

Random small argument vectors go to ``kraw``, ``check``, ``threshold`` and
``table1``; random JSON documents go to ``bound`` and ``macwilliams``.
Whatever the input, the CLI must answer with one of the documented exit
codes and never end in a traceback.  Now and then an integer input, or
the lcm of a document's denominators, lands just past its cap, and the
CLI must then exit 2.  Documents valid in every other field, their lcm
at the cap or up to five bits past it, check that the cap is exact.
Every CSV printed is what ``csv.writer`` writes for its own cells, so no
cell needs quoting.
"""
import csv
import io
import json
import math

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qhamming.cli import MAX_D, MAX_LCM_BITS, MAX_M, MAX_N, MAX_TABLE1_D, main
from qhamming.exceptions import SchemaError
from qhamming.rational import is_array, is_int, parse_rational

EXIT_CODES = {0, 2, 3, 4}

# Each integer option's upper bound, small enough that a run stays fast,
# and its cap (k and x lie in [0, n], so n's cap bounds them).
OPTIONS = {
    "kraw": {"--k": (60, MAX_N), "--x": (60, MAX_N), "--n": (60, MAX_N), "--m": (6, MAX_M)},
    "check": {"--n": (60, MAX_N), "--d": (15, MAX_D), "--m": (6, MAX_M)},
    "threshold": {"--d": (15, MAX_D), "--m": (6, MAX_M)},
    "table1": {"--max-d": (15, MAX_TABLE1_D), "--m": (6, MAX_M)},
}


def _upto_or_past(top, cap):
    """An integer in -1..top, or one time in eight one or two past ``cap``."""
    return st.integers(0, 7).flatmap(
        lambda i: st.integers(cap + 1, cap + 2) if i == 0 else st.integers(-1, top))


_garbage = st.text(max_size=4)
_small_rationals = st.from_regex(r"[+-]?[0-9]{1,3}(/[1-9][0-9]{0,2})?", fullmatch=True)
_positive_rationals = st.from_regex(r"[1-9][0-9]{0,2}(/[1-9][0-9]{0,2})?", fullmatch=True)
_output = st.tuples(
    st.sampled_from([[], ["--format", "json"], ["--format", "csv"], ["--format", "xml"]]),
    st.sampled_from([[], ["--approx"]]),
).map(lambda pair: pair[0] + pair[1])


@st.composite
def _rational_strings(draw):
    """Signed digit strings of up to 5,000 digits, some split by a slash."""
    digits = draw(st.text("0123456789", min_size=1, max_size=5000))
    cut = draw(st.integers(0, len(digits) - 1))
    sign = draw(st.sampled_from(["", "-", "+"]))
    return sign + (digits[:cut] + "/" + digits[cut:] if cut else digits)


@st.composite
def _argv(draw):
    """Every option of one command, then maybe one of them dropped or garbled."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    pairs = [[option, str(draw(_upto_or_past(top, cap)))]
             for option, (top, cap) in OPTIONS[command].items()]
    if command == "check":
        pairs.append(["--K", draw(_small_rationals)])
    if draw(st.booleans()):
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = draw(st.sampled_from([[], [pairs[i][0], draw(_garbage)]]))
    return [command] + [arg for pair in pairs for arg in pair] + draw(_output)


_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.floats(), st.text(max_size=4),
              _rational_strings()),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8,
)


@st.composite
def _documents(draw, fields):
    """A witness or distribution document, maybe with one field replaced or dropped.

    ``fields`` maps each name beyond n and m to a function from the length
    n to a strategy of plausible values.  One document in ten is any JSON.
    """
    if draw(st.integers(0, 9)) == 0:
        return draw(_json)
    n = draw(_upto_or_past(12, MAX_N))
    doc = {"n": n, "m": draw(_upto_or_past(6, MAX_M))}
    doc.update((name, draw(make(n))) for name, make in fields.items())
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(doc)))
        doc[name] = draw(_json)
        if draw(st.booleans()):
            del doc[name]
    return doc


def _rationals(n):
    """n + 1 rational strings (or another count), one in ten up to 5,000 digits.

    A list longer than 15, of a length past the cap, takes its entries from
    a short fixed list, which is fast to draw.  One list in four has the
    length n + 1 and denominators whose lcm lands one or two bits past its
    cap.
    """
    entry = st.one_of(*[_small_rationals] * 9, _rational_strings())
    cheap = st.sampled_from(["0", "1", "-5/3"])
    size = st.one_of(st.just(max(n + 1, 0)), st.integers(0, 14))
    lists = size.flatmap(lambda k: st.lists(entry if k <= 15 else cheap, min_size=k, max_size=k))
    past = st.integers(1, 2).map(
        lambda j: [f"1/{3 ** 5}", f"1/{2 ** (MAX_LCM_BITS - 8 + j)}"] + ["1"] * (n - 1))
    return st.integers(0, 3).flatmap(lambda i: past if i == 0 and n >= 1 else lists)


WITNESS = {"S": lambda n: st.lists(st.integers(-1, n + 1), max_size=n + 3),
           "coeffs": _rationals}
DISTRIBUTION = {"K": lambda n: st.one_of(_small_rationals, _rational_strings()),
                "A": _rationals}


def _assert_contract(result, argv, past_a_cap):
    assert result.exit_code in EXIT_CODES, (argv, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        argv, result.exception)
    if past_a_cap:
        assert result.exit_code == 2 and result.stdout == "", (argv, result.output)
    if any(pair == ("--format", "csv") for pair in zip(argv, argv[1:])):
        _assert_unquoted_csv(result.stdout, argv)


def _assert_unquoted_csv(text, argv):
    """``text`` is what ``csv.writer`` writes for its own cells, so no cell needed quoting."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(csv.reader(io.StringIO(text)))
    assert text == buf.getvalue(), argv


def _lcm_bits(entries):
    """Bit length of the lcm of the denominators of ``entries``, or 0 if one does not parse."""
    try:
        return math.lcm(*(parse_rational(a).denominator for a in entries)).bit_length()
    except SchemaError:
        return 0


def _int(text):
    try:
        return int(text)
    except ValueError:
        return None


def _option_past_a_cap(argv):
    caps = {option: cap for option, (_, cap) in OPTIONS[argv[0]].items()}
    return any(option in caps and (_int(value) or 0) > caps[option]
               for option, value in zip(argv[1:], argv[2:]))


@settings(max_examples=100, deadline=None)
@given(_argv())
def test_option_vectors_keep_exit_contract(argv):
    _assert_contract(CliRunner().invoke(main, argv), argv, _option_past_a_cap(argv))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(st.one_of(
    st.tuples(st.just(["bound"]), _documents(WITNESS)),
    st.tuples(st.sampled_from([["macwilliams", "--direction", "forward"],
                               ["macwilliams", "--direction", "inverse"]]),
              _documents(DISTRIBUTION)),
), _output)
def test_documents_keep_exit_contract(tmp_path, case, output):
    command, doc = case
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = command + [str(path)] + output
    fields = doc if isinstance(doc, dict) else {}
    entries = fields.get("coeffs" if command == ["bound"] else "A")
    past_a_cap = (
        any(is_int(fields.get(key)) and fields[key] > cap for key, cap in (("n", MAX_N), ("m", MAX_M)))
        or is_array(entries) and _lcm_bits(entries) > MAX_LCM_BITS)
    _assert_contract(CliRunner().invoke(main, argv), argv, past_a_cap)


@st.composite
def _at_the_lcm_cap(draw):
    """A document valid in every field, its lcm at its cap plus j bits, j in 0..5.

    Two entries have the denominators 3^5 (8 bits) and 2^(cap - 8 + j);
    the rest are integers.
    """
    command = draw(st.sampled_from([["bound"], ["macwilliams", "--direction", "forward"],
                                    ["macwilliams", "--direction", "inverse"]]))
    n = draw(st.integers(1, 12))
    j = draw(st.integers(0, 5))
    entries = draw(st.permutations(
        [f"1/{3 ** 5}", f"1/{2 ** (MAX_LCM_BITS - 8 + j)}"]
        + [str(draw(st.integers(-9, 9))) for _ in range(n - 1)]))
    doc = {"n": n, "m": draw(st.integers(2, 6))}
    if command == ["bound"]:
        doc.update(S=draw(st.lists(st.integers(0, n), min_size=1)), coeffs=entries)
    else:
        doc.update(K=draw(_positive_rationals), A=entries)
    return command, doc, j


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_at_the_lcm_cap(), _output.filter(lambda args: "xml" not in args))
def test_lcm_cap_is_exact(tmp_path, case, output):
    command, doc, j = case
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = command + [str(path)] + output
    result = CliRunner().invoke(main, argv)
    _assert_contract(result, argv, j > 0)
    if j == 0:
        assert result.exit_code in (0, 3) and "lcm" not in result.stderr, (argv, result.output)
    else:
        assert f"lcm must be at most {MAX_LCM_BITS}" in result.stderr, (argv, result.output)


@st.composite
def _valid_argv(draw):
    """A valid invocation of ``kraw``, ``check``, ``threshold`` or ``table1``."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    d = draw(st.integers(1, 9))
    n = draw(st.integers(d, 30))
    options = {
        "kraw": ["--k", draw(st.integers(0, n)), "--x", draw(st.integers(0, n)), "--n", n],
        "check": ["--n", n, "--K", draw(_positive_rationals), "--d", d],
        "threshold": ["--d", d],
        "table1": ["--max-d", d],
    }[command]
    return [command, *map(str, options), "--m", str(draw(st.integers(2, 5)))]


@settings(max_examples=60, deadline=None)
@given(_valid_argv(), st.sampled_from([[], ["--approx"]]))
def test_csv_cells_need_no_quoting(argv, approx):
    argv = argv + ["--format", "csv", *approx]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, (argv, result.output)
    _assert_unquoted_csv(result.stdout, argv)
