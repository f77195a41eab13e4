"""The README's input contract for ``iwnet run``, as a property.

Every generated input either gives a result or the documented error with
the documented exit code, and never a traceback: 1 for malformed input,
reported at the first malformed physical line (or, for a record given
twice, at the last physical line of the second one), 2 for what the
algorithm refuses. A run that
succeeds lists every label once and reports a Q that the reference
evaluation of its partition gives. ``--trace`` is among the generated
flags, so the trace's spool is exercised too.
"""

import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from iwnet import Partition, network_from_csv, q_definitional
from iwnet.cli import main

# (as written in the CSV, the label it reads as): a quoted comma, a quoted
# newline (the record spans two physical lines), padding that is stripped
LABELS = [
    ("a", "a"), ("b", "b"), ("c", "c"), ("d", "d"), (" e ", "e"),
    ('"x,y"', "x,y"), ('"m\nn"', "m\nn"), ('"Área"', "Área"),
]
# zero and subnormal bounds (a midpoint of [0, 5e-324] rounds to 0.0); a
# record may also take HUGE as its upper bound, whose square overflows
WEIGHTS = ["0", "5e-324", "0.5", "1", "2.5", "4"]
HUGE = "1e200"
MALFORMED = {
    "three fields": "{src},{dst},{lo}",
    "five fields": "{src},{dst},{lo},{hi},{hi}",
    "empty label": "{src}, ,{lo},{hi}",
    "non-numeric": "{src},{dst},x,{hi}",
    "nan": "{src},{dst},nan,{hi}",
    "infinite": "{src},{dst},{lo},inf",
    "inverted": "{src},{dst},3,2",
    "negative": "{src},{dst},-1,{hi}",
    "NUL byte": "{src},{dst},{lo},{hi}\0",
    "not UTF-8": "{src},{dst},{lo},{hi}\udcff",  # written as the byte 0xff
}

_bounds = st.lists(st.sampled_from(WEIGHTS), min_size=2, max_size=2).map(
    lambda w: sorted(w, key=float)
)
_records = st.lists(
    st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS), _bounds),
    max_size=10,
    unique_by=lambda r: frozenset((r[0][1], r[1][1])),  # no pair twice, in either direction
)
_malformed = st.tuples(
    st.sampled_from(sorted(MALFORMED)), st.sampled_from(LABELS), st.sampled_from(LABELS), _bounds
)
_flags = st.tuples(
    st.sampled_from(["cl", "hl", "midpoint"]),
    st.booleans(),  # --undirected
    st.sampled_from(["0", "0", "1", "2.5"]),  # --min-weight
    st.booleans(),  # --trace
    st.sampled_from(["text", "json"]),
)

def _rarely(strategy):
    """``strategy`` one time in four, None otherwise."""
    return st.one_of(st.none(), st.none(), st.none(), strategy)


EXIT_2 = re.compile(
    r"(warning: [^\n]*\n)*error: (EmptyNetwork|ZeroTotalWeight|InvalidInterval): [^\n]*\n"
)


def _row(src, dst, bounds):
    (s, s_label), (d, d_label), (lo, hi) = src, dst, bounds
    return f"{s},{d},{lo},{hi}", (s_label, d_label)


def _csv(layout, records, huge, malformed, blanks, repeat):
    """The file's bytes, its first malformed physical line (None if none)
    and the (src, dst) labels of its records with the last physical line
    of each, in order. ``layout`` is the
    line end (a quoted newline is ``\\n`` whatever it is) and whether a
    byte-order mark leads."""
    if huge < len(records):
        src, dst, (lo, _) = records[huge]
        records = [*records[:huge], (src, dst, (lo, HUGE)), *records[huge + 1 :]]
    rows = [_row(*r) for r in records]
    if repeat is not None and records:
        at, reverse = repeat
        src, dst, bounds = records[at % len(records)]
        rows.append(_row(dst, src, bounds) if reverse else _row(src, dst, bounds))
    if malformed is not None:
        at, (kind, (s, _), (d, _), (lo, hi)) = malformed
        rows.insert(at % (len(rows) + 1), (MALFORMED[kind].format(src=s, dst=d, lo=lo, hi=hi), None))
    for at in blanks:
        rows.insert(at % (len(rows) + 1), ("", ()))
    end, bom = layout
    lines, line, bad, pairs = ["\ufeff" * bom + "src,dst,lo,hi"], 1, None, []
    for text, pair in rows:
        lines.append(text)
        line += 1 + text.count("\n")  # the last physical line of the record
        if pair is None and bad is None:
            bad = line
        elif pair:
            pairs.append((pair, line))
    return (end.join(lines) + end).encode("utf-8", "surrogateescape"), bad, pairs


def _first_repeat(pairs, undirected):
    seen = set()
    for (s, d), line in pairs:
        key = frozenset((s, d)) if undirected else (s, d)
        if key in seen:
            return line, s, d
        seen.add(key)
    return None


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(
    st.tuples(st.sampled_from(["\n", "\r\n", "\r"]), st.booleans()),
    _records,
    st.integers(0, 40),
    _rarely(st.tuples(st.integers(0, 20), _malformed)),
    st.lists(st.integers(0, 20), max_size=2),
    _rarely(st.tuples(st.integers(0, 20), st.booleans())),
    _flags,
)
def test_every_input_gives_a_result_or_its_documented_error(
    layout, records, huge, malformed, blanks, repeat, flags
):
    method, undirected, min_weight, trace, fmt = flags
    data, bad, pairs = _csv(layout, records, huge, malformed, blanks, repeat)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "in.csv"), os.path.join(tmp, "out")
        with open(path, "wb") as fh:
            fh.write(data)
        argv = ["run", "--input", path, "--method", method, f"--min-weight={min_weight}",
                "--format", fmt, "--out", out]
        argv += ["--undirected"] * undirected + ["--trace"] * trace
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = main(argv)
        err = err.getvalue()
        assert stdout.getvalue() == ""
        assert "Traceback" not in err
        if bad is not None:
            assert code == 1 and err.startswith(f"error: line {bad}: "), err
            assert err.count("error: ") == 1, err
            return
        repeated = _first_repeat(pairs, undirected)
        if repeated is not None:
            assert (code, err) == (1, "error: line {}: duplicate record {}->{}\n".format(*repeated))
            return
        net = network_from_csv(path, directed=not undirected, threshold=float(min_weight))
        total = math.fsum(w.hi for row in net.rows for w in row.values())
        refused = net.n == 0 or not sys.float_info.min <= total * total < math.inf
        if refused:
            assert code == 2 and EXIT_2.fullmatch(err), err
            return
        assert code == 0, err
        with open(out, encoding="utf-8") as fh:
            output = fh.read()
    if fmt == "text":
        first = "Initial Interval-Weighted Network:\n" if trace else f"method: {method}\n"
        assert output.startswith(first)
        return
    doc = json.loads(output)
    labels = {label for pair, _ in pairs for label in pair}
    membership = doc["final"]["membership"]
    assert set(membership) == labels == set(net.labels)
    members = [label for group in doc["final"]["communities"] for label in group]
    assert sorted(members) == sorted(labels)
    assert ("trace" in doc) == trace
    p = Partition(tuple(membership[label] for label in net.labels))
    ref = q_definitional(net, p, method)
    got = doc["final"]["q"]
    assert math.isclose(got, ref, rel_tol=1e-9, abs_tol=1e-9 * total), (got, ref)
