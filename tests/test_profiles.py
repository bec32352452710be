"""Reading profile and manifest CSV files: the one-pass profile reader is
checked against a test-local copy of the row-by-row csv-module reader it
replaced, on random well-formed files and on each kind of malformed file."""
from __future__ import annotations

import csv
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadspace import Interval, SampledCurve
from loadspace import cli
from loadspace.cli import InputFormatError, _read_profile, main


def reference_read_profile(path: str) -> SampledCurve:
    """The csv-module reader: one csv row and two float() calls per data row."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror or exc}") from exc
    if not rows or [c.strip() for c in rows[0]] != ["t", "power"]:
        raise InputFormatError(f"{path}, line 1: expected header 't,power'")

    times: list[float] = []
    powers: list[float] = []
    lines: list[int] = []
    for ln, row in enumerate(rows[1:], start=2):
        if not row or all(c.strip() == "" for c in row):
            continue
        if len(row) != 2:
            raise InputFormatError(f"{path}, line {ln}: expected 2 fields, got {len(row)}")
        try:
            times.append(float(row[0]))
            powers.append(float(row[1]))
        except ValueError as exc:
            raise InputFormatError(f"{path}, line {ln}: {exc}") from exc
        lines.append(ln)

    if len(times) < 2:
        raise InputFormatError(f"{path}: need at least 2 data rows, got {len(times)}")
    t = np.asarray(times)
    dt = np.diff(t)
    if np.any(dt <= 0):
        bad = lines[int(np.argmax(dt <= 0)) + 1]
        raise InputFormatError(f"{path}, line {bad}: time column must be strictly increasing")
    step = (t[-1] - t[0]) / (t.size - 1)
    gap = np.abs(dt - step)
    if np.max(gap) > 1e-9 * abs(step):
        bad = lines[int(np.argmax(gap)) + 1]
        raise InputFormatError(f"{path}, line {bad}: time column must be uniformly spaced")
    try:
        return SampledCurve(Interval(float(t[0]), float(t[-1])), np.asarray(powers))
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def outcome(read, path: str):
    """What a reader makes of a file: the exact curve bits, or the exact error."""
    try:
        curve = read(path)
    except (InputFormatError, ValueError) as exc:
        return ("error", type(exc).__name__, str(exc))
    iv = curve.interval
    return ("curve", iv.t1.hex(), iv.t2.hex(), curve.values.tobytes())


FAULTS = (
    None,
    "bad number",
    "one field",
    "three fields everywhere",
    "trailing comma",
    "not increasing",
    "not uniform",
    "bad header",
)

FILLER_ROWS = ("", "   ", "\t", " , ", ",", " ,\t, ")


@st.composite
def profile_texts(draw):
    """A profile file as text: uniform times, random values, optional fault.

    Data rows are padded with spaces, quoted or left bare at random, printed
    as repr or as 6-digit floats, and interleaved with blank, whitespace-only
    and all-empty-field rows; line endings are LF or CRLF.
    """
    n = draw(st.integers(min_value=0, max_value=12))
    t0 = draw(st.integers(min_value=-40, max_value=40)) * 0.25
    step = draw(st.integers(min_value=1, max_value=8)) * 0.25
    values = draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    times = [t0 + i * step for i in range(n)]
    fault = draw(st.sampled_from(FAULTS))
    at = draw(st.integers(min_value=1, max_value=max(n - 1, 1)))
    if n >= 2 and fault == "not increasing":
        times[at] = times[at - 1]
    if n >= 3 and fault == "not uniform":
        times[at] += 0.3 * step

    def field(x: float) -> str:
        text = repr(x) if draw(st.booleans()) else f"{x:.6g}"
        if draw(st.booleans()):
            text = f'"{text}"'
        return draw(st.sampled_from(("", " ", "  "))) + text + draw(st.sampled_from(("", " ", "\t")))

    rows = []
    for t, v in zip(times, values):
        fields = [field(t), field(v)]
        if fault == "three fields everywhere":
            fields.append(field(1.0))
        rows.append(",".join(fields))
    if n and fault == "bad number":
        rows[at % n] = rows[at % n].rsplit(",", 1)[0] + ",oops"
    if n and fault == "one field":
        rows[at % n] = rows[at % n].split(",", 1)[0]
    if n and fault == "trailing comma":
        rows[at % n] += ","

    lines = ["time,kw" if fault == "bad header" else draw(st.sampled_from(("t,power", " t , power ")))]
    for row in rows:
        lines.extend(draw(st.lists(st.sampled_from(FILLER_ROWS), max_size=2)))
        lines.append(row)
    lines.extend(draw(st.lists(st.sampled_from(FILLER_ROWS), max_size=2)))
    eol = draw(st.sampled_from(("\n", "\r\n")))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


@pytest.fixture(scope="module")
def profile_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("profiles") / "p.csv")


@settings(max_examples=400, deadline=None)
@given(text=profile_texts())
def test_reader_matches_csv_module_reader(profile_path, text):
    with open(profile_path, "w", newline="") as fh:
        fh.write(text)
    assert outcome(_read_profile, profile_path) == outcome(reference_read_profile, profile_path)


@pytest.mark.parametrize(
    "body",
    [
        "0,1_0\n1,2\n",  # float() reads digit-group underscores: accepted
        "0,1\n1,٢\n",  # and non-ASCII digits
        '"0",1\n"1","2"\n',
        '0,"1.5"\n1,"2\n"\n',  # a quoted field spanning two lines
        "0,1\n",
        "",
        "0,1,2\n1,2,3\n",
        "0\n1\n",
        "0,nan\n1,2\n",
        "0,1\n1,inf\n",
        "nan,1\n1,2\n",
        "0,1\n\n   \n , \n1,2\n,\n",
        "0,1\r1,2\r",
        "# comment\n0,1\n1,2\n",
        "0,1 2\n1,2\n",
        ' "0",1\n1,2\n',
        '"",""\n0,1\n1,2\n',
        '""\n""\n',  # only empty quoted fields: no data, and no loadtxt warning
        "\n\n",  # only newlines
        "\r\n\r\n",
        "\n   \n , \n0,1\n1,2\n",  # blank lines before the data
        "\r\n\t\r\n,\r\n0,1\r\n1,2\r\n",
        "0,1\n   \n1,2\n\t\n2,3\n",  # whitespace-only rows between data rows
        "0,1\r\n \r\n1,2\r\n",
        "0,1\n1,2\n2,3",  # a last row with no newline
    ],
)
def test_reader_matches_csv_module_reader_on_edge_cases(tmp_path, body):
    path = tmp_path / "p.csv"
    path.write_text("t,power\n" + body, newline="")
    assert outcome(_read_profile, str(path)) == outcome(reference_read_profile, str(path))


def year_body() -> str:
    """35,040 quarter-hour rows, as a year of meter readings is written."""
    values = np.random.default_rng(0).normal(50.0, 10.0, 35_040).tolist()
    return "".join(f"{i * 0.25!r},{v!r}\n" for i, v in enumerate(values))


@pytest.mark.parametrize(
    "body",
    [
        "0,1\n0.5,2\n1,3\n",
        "0,1\r\n0.5,2\r\n1,3\r\n",
        "0,1\r0.5,2\r1,3\r",
        '"0" ,  1\t\n" 0.5 ","2" \n  1 ,3\n',  # quoted and padded fields
        "\n   \n , \n,\n0,1\n0.5,2\n1,3\n",  # blank lines before the data
        "\r\n\t\r\n0,1\r\n0.5,2\r\n1,3\r\n",
        "0,1\n\n0.5,2\r\n\r\n1,3",  # empty lines between rows, no final newline
        pytest.param(year_body(), id="year"),
    ],
)
def test_well_formed_profiles_are_read_in_one_pass(tmp_path, monkeypatch, body):
    def rescan(path):
        raise AssertionError(f"{path} was read again row by row")

    monkeypatch.setattr(cli, "_profile_rows", rescan)
    path = tmp_path / "p.csv"
    path.write_text("t,power\n" + body, newline="")
    got = outcome(_read_profile, str(path))
    assert got[0] == "curve"
    assert got == outcome(reference_read_profile, str(path))


def test_reading_a_year_peaks_below_32_bytes_a_row(tmp_path):
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    path = tmp_path / "p.csv"
    path.write_text("t,power\n" + year_body(), newline="")
    _read_profile(str(path))  # one-time allocations (caches, lazy imports) out of the way
    tracemalloc.start()
    try:
        curve = _read_profile(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the parsed (N, 2) table, then the time steps, then the curve's own copy of
    # the powers: 16 + 8 bytes a row at a time, plus the parser's small buffers
    assert curve.values.size == 35_040
    assert peak < 32 * 35_040


def test_empty_profile_exits_2_without_a_warning(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("t,power\n\n , \n")
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "loadspace", "decompose", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: {path}: need at least 2 data rows, got 0\n"


# ---------------------------------------------------------------------------
# calibration manifests share the profile reader's row rules
# ---------------------------------------------------------------------------

def run_calibrate(capsys, manifest) -> tuple[int, str]:
    code = main(["calibrate", str(manifest), "--nmax", "1"])
    return code, capsys.readouterr().err


def write_profile(path, values) -> None:
    n = len(values)
    with open(path, "w", newline="") as fh:
        fh.write("t,power\n")
        fh.writelines(f"{i / (n - 1)!r},{v!r}\n" for i, v in enumerate(values))


def test_manifest_skips_blank_rows_and_reports_line_numbers(capsys, tmp_path):
    write_profile(tmp_path / "a.csv", [1.0, 2.0, 3.0, 4.0])
    manifest = tmp_path / "m.csv"
    manifest.write_text("profile,cost\n\n , \na.csv,1.0\n\na.csv,1.0,3\n")
    code, err = run_calibrate(capsys, manifest)
    assert code == 2
    assert err == f"error: {manifest}, line 6: expected 2 fields, got 3\n"


def test_manifest_bad_cost_reports_line(capsys, tmp_path):
    write_profile(tmp_path / "a.csv", [1.0, 2.0, 3.0, 4.0])
    manifest = tmp_path / "m.csv"
    manifest.write_text("profile,cost\r\na.csv,1.0\r\n   \r\na.csv,cheap\r\n")
    code, err = run_calibrate(capsys, manifest)
    assert code == 2
    assert err == f"error: {manifest}, line 4: could not convert string to float: 'cheap'\n"


def test_manifest_reports_bad_profile_by_its_own_path(capsys, tmp_path):
    (tmp_path / "a.csv").write_text("t,power\n0,1\n1,x\n")
    manifest = tmp_path / "m.csv"
    manifest.write_text("profile,cost\na.csv,1.0\n")
    code, err = run_calibrate(capsys, manifest)
    assert code == 2
    assert err == f"error: {tmp_path / 'a.csv'}, line 3: could not convert string to float: 'x'\n"
