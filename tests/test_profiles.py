"""Reading profile and manifest CSV files: the one-pass profile reader is
checked against a test-local copy of the row-by-row csv-module reader it
replaced, on random well-formed files and on each kind of malformed file,
and no file is opened more than twice."""
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
    if not np.all(np.isfinite(t)):
        bad = lines[int(np.argmin(np.isfinite(t)))]
        raise InputFormatError(f"{path}, line {bad}: time column must be finite")
    dt = np.diff(t)
    if np.any(dt <= 0):
        bad = lines[int(np.argmax(dt <= 0)) + 1]
        raise InputFormatError(f"{path}, line {bad}: time column must be strictly increasing")
    step = (t[-1] - t[0]) / (t.size - 1)
    gap = np.abs(dt - step)
    if np.max(gap) > 1e-9 * abs(step):
        bad = lines[int(np.argmax(gap)) + 1]
        raise InputFormatError(f"{path}, line {bad}: time column must be uniformly spaced")
    p = np.asarray(powers)
    if not np.all(np.isfinite(p)):
        bad = lines[int(np.argmin(np.isfinite(p)))]
        raise InputFormatError(f"{path}, line {bad}: power column must be finite")
    try:
        return SampledCurve(Interval(float(t[0]), float(t[-1])), p)
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


def opens_and_outcome(path: str) -> tuple[int, tuple]:
    """How many times `_read_profile` opens `path`, and what it makes of the file."""
    calls = []

    def counting_open(file, *args, **kwargs):
        calls.append(file)
        return open(file, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "open", counting_open, raising=False)
        got = outcome(_read_profile, path)
    assert set(calls) <= {path}
    return len(calls), got


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
    opened, got = opens_and_outcome(profile_path)
    assert opened <= 2
    assert got == outcome(reference_read_profile, profile_path)


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
        # a power that is not finite: refused, naming its line, from loadtxt's parse or from the walk (1_000)
        "0,1\n1,nan\n2,3\n",
        "0,1\n1,2\n2,inf\n",
        "0,1_000\n1,nan\n2,3\n",
        "0,1_000\n1,2\n2,inf\n",
        "0,1\n\n1,2\n \n2,-inf\n",  # blank rows between: the line is the CSV row's
        "0,nan\n1,2\n2.5,3\n",  # and a bad time column is named first
        "0,1\nnan,2\n2,3\n3,4\n4,5\n5,6\n",  # a NaN time inside the column: refused, naming its line
        # times i * 1e308 / 99, inf from i = 2: refused, naming its line, before np.diff warns at inf - inf
        pytest.param("".join(f"{i * 1e308 / 99!r},{(-1) ** i * 1e10!r}\n" for i in range(100)), id="inf-times"),
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
        "0,1_0\n0,2\n",  # walked row by row (1_0), then not increasing: the walk's line numbers name the row
        "0,1_0\n1,2\n2.5,3\n",  # walked row by row, then not uniform
        "0,1\n1,2\n1,3\n",  # parsed by loadtxt, then not increasing: one more walk, up to the bad row
    ],
)
def test_reader_matches_csv_module_reader_on_edge_cases(tmp_path, body):
    path = tmp_path / "p.csv"
    path.write_text("t,power\n" + body, newline="")
    opened, got = opens_and_outcome(str(path))
    assert opened <= 2
    assert got == outcome(reference_read_profile, str(path))


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
    def rescan(path, header):
        raise AssertionError(f"{path} was read again row by row")

    monkeypatch.setattr(cli, "_data_rows", rescan)
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


@pytest.mark.parametrize(
    "body, line",
    [
        ("0,1\n1,nan\n2,3\n", 3),  # parsed by loadtxt: one more walk names the row
        ("0,1\n1,2\n2,inf\n", 4),
        ("0,1_000\n1,nan\n2,3\n", 3),  # walked row by row (1_000): the walk's line numbers name it
        ("0,1_000\n1,2\n2,inf\n", 4),
    ],
)
def test_a_power_that_is_not_finite_exits_2_naming_its_line(capsys, tmp_path, body, line):
    path = tmp_path / "p.csv"
    path.write_text("t,power\n" + body)
    assert opens_and_outcome(str(path))[0] <= 2
    assert main(["decompose", str(path), "--nmax", "1"]) == 2
    assert capsys.readouterr().err == f"error: {path}, line {line}: power column must be finite\n"


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


def test_blank_manifest_rows_change_no_fit(capsys, tmp_path):
    rng = np.random.default_rng(3)
    for i in range(3):
        write_profile(tmp_path / f"p{i}.csv", rng.uniform(0.0, 10.0, 8).tolist())
    (tmp_path / "m.csv").write_text("profile,cost\np0.csv,1.0\np1.csv,2.5\np2.csv,-1.0\n")
    (tmp_path / "blank.csv").write_text("profile,cost\n\n   \np0.csv,1.0\n , \np1.csv,2.5\n\t\np2.csv,-1.0\n\n")
    outputs = []
    for name in ("m.csv", "blank.csv"):
        assert main(["calibrate", str(tmp_path / name), "--nmax", "1", "--format", "json"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "rows, code, message",
    [
        # the rows are counted before any profile is read; a count that meets a malformed row gives up, and
        # the read reports the first fault in row order, as it did before rows were counted
        ("a.csv,1.0\n\n   \nmissing.csv,2.0\na.csv,1.0,3\n", 2, "{dir}/missing.csv: No such file or directory"),
        ("a.csv,1.0\na.csv,1.0,3\nmissing.csv,2.0\n", 2, "{manifest}, line 3: expected 2 fields, got 3"),
        ("a.csv,1.0\n \nbad.csv,2.0\na.csv\n", 2, "{dir}/bad.csv, line 3: power column must be finite"),
        ("a.csv,1.0\nmissing.csv,cheap\n", 2, "{manifest}, line 3: could not convert string to float: 'cheap'"),
        ("\n , \na.csv,1.0\n\t\n", 3, "underdetermined: 1 observations for 3 unknowns"),
    ],
)
def test_manifest_errors_keep_their_codes_messages_and_order(capsys, tmp_path, rows, code, message):
    write_profile(tmp_path / "a.csv", [1.0, 2.0, 3.0, 4.0])
    (tmp_path / "bad.csv").write_text("t,power\n0,1\n1,nan\n2,3\n")
    manifest = tmp_path / "m.csv"
    manifest.write_text("profile,cost\n" + rows)
    got, err = run_calibrate(capsys, manifest)
    assert (got, err) == (code, "error: " + message.format(dir=tmp_path, manifest=manifest) + "\n")


@pytest.mark.parametrize("change, message", [("a.csv,1.0\na.csv,2.0\n", "more than the 3 counted"), ("", "2 read where 3")])
def test_a_manifest_that_changes_after_its_count_is_refused(capsys, monkeypatch, tmp_path, change, message):
    write_profile(tmp_path / "a.csv", [1.0, 2.0, 3.0, 4.0])
    manifest = tmp_path / "m.csv"
    manifest.write_text("profile,cost\na.csv,1.0\na.csv,1.0\na.csv,1.0\n")
    counted = cli._observations

    def rewritten(path):  # the rows were counted before the manifest is read for its observations
        manifest.write_text("profile,cost\na.csv,1.0\na.csv,1.0\n" + change)
        return counted(path)

    monkeypatch.setattr(cli, "_observations", rewritten)
    code, err = run_calibrate(capsys, manifest)
    assert code == 3
    assert err.startswith("error: observations changed while read: ") and message in err


@pytest.mark.skipif(sys.platform == "win32", reason="no /dev/stdin")
def test_a_manifest_from_a_pipe_is_not_counted_first(capsys, tmp_path):
    rng = np.random.default_rng(4)
    for i in range(3):
        write_profile(tmp_path / f"p{i}.csv", rng.uniform(0.0, 10.0, 8).tolist())
    manifest = "profile,cost\n" + "".join(f"{tmp_path / f'p{i}.csv'},{i + 0.5}\n" for i in range(3))
    (tmp_path / "m.csv").write_text(manifest)
    assert main(["calibrate", str(tmp_path / "m.csv"), "--nmax", "1"]) == 0
    expected = capsys.readouterr().out
    # a pipe can be read only once: its rows go straight to the fit, whose matrix grows as they arrive
    proc = subprocess.run(
        [sys.executable, "-m", "loadspace", "calibrate", "/dev/stdin", "--nmax", "1"],
        input=manifest,
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")
