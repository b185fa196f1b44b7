import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hficov import tickio
from hficov.cli import main
from hficov.estimators import TickSeries, estimate_matrix
from hficov.sampling import SamplingScheme
from hficov.tickio import RunReport, TickFileError, load_ticks, write_ticks

from oracles import load_ticks_oracle


def write(tmp_path, text, name="ticks.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------------
# load_ticks
# ---------------------------------------------------------------------
def test_load_two_assets(tmp_path):
    p = write(
        tmp_path,
        "asset_id,timestamp,log_price\n"
        "A,0.0,0.1\nA,1.0,0.2\nA,2.0,0.15\n"
        "B,0.5,1.0\nB,1.5,1.1\nB,2.5,1.05\n",
    )
    ids, series = load_ticks(p)
    assert ids == ["A", "B"]
    assert len(series) == 2
    assert len(series[0]) == 3 and len(series[1]) == 3
    assert series[0].scheme.horizon == 2.5


def test_duplicate_timestamp_reports_line(tmp_path):
    p = write(tmp_path, "asset_id,timestamp,log_price\nA,0.0,0.1\nA,0.0,0.2\n")
    with pytest.raises(TickFileError, match=r":3: duplicate"):
        load_ticks(p)


def test_non_monotone_reports_line(tmp_path):
    p = write(tmp_path, "asset_id,timestamp,log_price\nA,1.0,0.1\nA,0.5,0.2\n")
    with pytest.raises(TickFileError, match=r":3: non-monotone"):
        load_ticks(p)


def test_nan_rejected(tmp_path):
    p = write(tmp_path, "asset_id,timestamp,log_price\nA,0.0,nan\n")
    with pytest.raises(TickFileError, match="NaN"):
        load_ticks(p)


def test_empty_file(tmp_path):
    p = write(tmp_path, "")
    with pytest.raises(TickFileError, match="no records"):
        load_ticks(p)
    p2 = write(tmp_path, "asset_id,timestamp,log_price\n", "empty2.csv")
    with pytest.raises(TickFileError, match="no records"):
        load_ticks(p2)


def test_missing_header(tmp_path):
    p = write(tmp_path, "asset,ts,px\nA,0.0,0.1\n")
    with pytest.raises(TickFileError, match="header"):
        load_ticks(p)


HEADER = "asset_id,timestamp,log_price\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "{path}: no records (empty file)"),
        (HEADER, "{path}: no records"),
        (HEADER + "\n  \n\t\n", "{path}: no records"),
        ("asset,ts,px\nA,0.0,0.1\n", "{path}:1: expected header 'asset_id,timestamp,log_price'"),
        ("\n" + HEADER + "A,0.0,0.1\n", "{path}:1: expected header 'asset_id,timestamp,log_price'"),
        (HEADER + "A,0.0,0.1\nA,1.0\n", "{path}:3: expected 3 fields, got 2"),
        (HEADER + "A,0.0,0.1\nA,1.0,0.2,x\n", "{path}:3: expected 3 fields, got 4"),
        (HEADER + "A,0.0,0.1\n\nA,1.0,0.2,\n", "{path}:4: expected 3 fields, got 4"),
        (HEADER + "A,0.0,0.1\nB\n", "{path}:3: expected 3 fields, got 1"),
        (HEADER + "A,zero,0.1\n", "{path}:2: non-numeric timestamp or log_price"),
        (HEADER + "A,0.0,0.1\nA,1.0,\n", "{path}:3: non-numeric timestamp or log_price"),
        (HEADER + 'A,0.0,0.1\nA,"1.0,0.2"\n', "{path}:3: expected 3 fields, got 2"),
        (HEADER + "A,0.0,0.1\nB,0.0,inf\n", "{path}:3: NaN/inf value"),
        (HEADER + "A,nan,0.1\n", "{path}:2: NaN/inf value"),
        (HEADER + "A,0.0,0.1\nB,0.0,0.2\nB,0.5,0.2\nA,0.0,0.3\n", "{path}:5: duplicate timestamp 0.0 for asset 'A'"),
        (HEADER + "A,1.0,0.1\nB,0.0,0.2\n\nA,0.5,0.3\n", "{path}:5: non-monotone timestamp 0.5 for asset 'A'"),
    ],
)
def test_load_ticks_fault_messages(tmp_path, text, message):
    p = write(tmp_path, text)
    with pytest.raises(TickFileError) as exc:
        load_ticks(p)
    assert str(exc.value) == message.format(path=p)


@pytest.mark.parametrize(
    "text",
    [
        # column parse: interleaved assets, padded fields
        HEADER + "A,0.0,0.1\nB,0.5,1.0\n A ,1.0,0.2\nB\t,1.5, 1.1\nA,2.0,0.15\n",
        # row parser: blank and whitespace-only lines, quoted fields, CRLF
        " asset_id , timestamp,log_price\r\n\r\nA,0.0,0.1\r\n   \r\n\"B\",0.5,\"1.0\"\r\n"
        "  A ,1.0,0.2\r\n\t\r\n\tB\t,1.5,1.1\r\nA,2.0,0.15",
    ],
)
def test_load_ticks_accepted_inputs(tmp_path, text):
    p = tmp_path / "ticks.csv"
    p.write_bytes(text.encode())
    ids, series = load_ticks(p)
    assert ids == ["A", "B"]
    np.testing.assert_array_equal(series[0].scheme.times, [0.0, 1.0, 2.0])
    np.testing.assert_array_equal(series[0].values, [0.1, 0.2, 0.15])
    np.testing.assert_array_equal(series[1].scheme.times, [0.5, 1.5])
    np.testing.assert_array_equal(series[1].values, [1.0, 1.1])
    assert series[0].scheme.horizon == series[1].scheme.horizon == 2.0


def test_load_ticks_column_parse_reads_plain_files(tmp_path):
    p = write(tmp_path, HEADER + "A,0.0,0.1\nB,0.5,1.0\n A ,1.0,0.2\nB\t,1.5, 1.1\n")
    ids, times, prices = tickio._parse_columns(p)
    assert ids == ["A", "B"]
    np.testing.assert_array_equal(np.concatenate(times), [0.0, 1.0, 0.5, 1.5])
    np.testing.assert_array_equal(np.concatenate(prices), [0.1, 0.2, 1.0, 1.1])
    # the last line is shorter than the longest id
    ids, times, prices = tickio._parse_columns(write(tmp_path, HEADER + " LONGER ,0.0,0.1\nA,0,1"))
    assert ids == ["LONGER", "A"] and np.concatenate(times).tolist() == [0.0, 0.0]
    for text in (
        'A,0.0,"0.1"\n',
        "A,0.0,0.1\n\n",
        "A,0.0,0.1\n   \n",
        "A,0.0,0.1,\n",
        "A,0.0,nan\n",
        "A,1e0,0\nA,1.0,0\n",
        # a lone \r, which text-mode loadtxt reads as a line end
        "A,0.0,0.1\nA,1.0,0.2\r",
    ):
        assert tickio._parse_columns(write(tmp_path, HEADER + text)) is None


@pytest.mark.parametrize(
    "text, horizon, message",
    [
        (HEADER + "A,0.0,0.1\nB,0.5,0.2\nB,2.0,0.3\n", 1.0, "asset 'B': scheme times must lie in [0, horizon]"),
        (HEADER + "A,0.0,0.1\nB,0.0,0.2\n", None, "asset 'A': horizon must be positive"),
        (HEADER + "A,-0.5,0.1\nA,0.5,0.2\n", None, "asset 'A': scheme times must lie in [0, horizon]"),
    ],
)
def test_load_ticks_horizon_errors_name_file_and_asset(tmp_path, text, horizon, message):
    p = write(tmp_path, text)
    with pytest.raises(TickFileError) as exc:
        load_ticks(p, horizon=horizon)
    assert str(exc.value) == f"{p}: {message}"


def test_load_ticks_nan_horizon_names_the_asset(tmp_path):
    p = write(tmp_path, HEADER + "A,0.0,0.1\nA,0.5,0.2\n")
    with pytest.raises(TickFileError) as exc:
        load_ticks(p, horizon=float("nan"))
    assert str(exc.value) == f"{p}: asset 'A': horizon must be finite, got nan"


@pytest.mark.parametrize("blank", ["", "\n"], ids=["columns", "rows"])  # a blank line needs the row parser
@pytest.mark.parametrize("field", ["asset", "timestamp"])
def test_load_ticks_field_over_csv_limit_fails_with_line(tmp_path, capsys, blank, field):
    # both parsers read a field of exactly csv.field_size_limit() characters
    # and reject a longer one with its line number
    limit = csv.field_size_limit()
    for n in (limit, limit + 1):
        row = f"{'B' * n},0.5,1.0\n" if field == "asset" else f"B,{'0.5'.rjust(n)},1.0\n"
        p = write(tmp_path, HEADER + "A,0.0,0.1\nA,1.0,0.2\n" + row + blank + "A,2.0,0.3\n")
        if n == limit:
            ids, series = load_ticks(p)
            assert len(ids) == 2 and series[1].scheme.times.tolist() == [0.5]
            continue
        with pytest.raises(TickFileError) as exc:
            load_ticks(p)
        assert str(exc.value) == f"{p}:4: field larger than field limit ({limit})"
        assert main(["estimate", "--input", str(p), "--method", "hy"]) == 1
        assert f"{p}:4: field larger" in capsys.readouterr().err


# tokens float() reads as finite values, and tokens it may not
_FINITE = st.one_of(
    st.floats(-1e3, 1e3).map(repr),
    st.floats(-1e3, 1e3).map(lambda x: f"{x:.3f}"),
    st.floats(-1e3, 1e3).map(lambda x: f"{x:e}"),
    st.sampled_from([".5", "5.", "+2", "-0", "1e-320", "0.1000000000000000055511151231257827"]),
)
_TOKENS = st.one_of(_FINITE, st.sampled_from(["nan", "inf", "-Infinity", "1_0", "x", "", "1e400"]))


@st.composite
def tick_files(draw):
    """Tick CSV text: mostly well-formed rows of interleaved assets, with
    padding, quoting, blank lines and faults drawn per file."""
    assets = draw(st.lists(st.sampled_from(["A", "B", "C7", "x y", ""]), min_size=1, max_size=3, unique=True))
    faults = draw(st.sets(st.sampled_from(["token", "blank", "space", "short", "long"]))) if draw(st.booleans()) else set()
    faulty = bool(faults)
    quoted = draw(st.integers(0, 3)) == 0
    messy = draw(st.integers(0, 3)) == 0
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r", "mixed"]))

    def field(text):
        if quoted and draw(st.booleans()):
            text = '"' + text + '"'
        if messy and draw(st.booleans()):
            text = draw(st.sampled_from([" ", "\t"])) + text + draw(st.sampled_from(["", " ", "\t"]))
        return text

    header = draw(st.sampled_from([HEADER[:-1], " asset_id ,timestamp,log_price"] + ["asset_id,time,log_price"] * faulty))
    lines, clock = [header], {}
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["tick"] * 6 + sorted(faults)))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
        elif kind == "short":
            lines.append(",".join(field(x) for x in draw(st.sampled_from([["A"], ["A", "1.0"]]))))
        elif kind == "long":
            lines.append("A,1.0,2.0," + draw(st.sampled_from(["", "x"])))
        else:
            asset = draw(st.sampled_from(assets))
            step = draw(st.sampled_from([1.0, 0.5, 0.125, 1e-9] + [0.0, -0.25] * faulty))
            start = draw(st.sampled_from([0.0, 0.0, 0.25] + [-1.0] * faulty))
            clock[asset] = clock[asset] + step if asset in clock else start
            t = repr(clock[asset]) if kind == "tick" else draw(_TOKENS)
            px = draw(_TOKENS if kind == "token" else _FINITE)
            lines.append(",".join([field(asset), field(t), field(px)]))
    # the end of each line; "mixed" swaps one "\n" for "\r" or "\r\n"
    ends = [newline] * len(lines)
    if newline == "mixed":
        ends = ["\n"] * len(lines)
        ends[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(["\r", "\r\n"]))
    ends[-1] = draw(st.sampled_from(["", ends[-1]]))
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=400)
@given(tick_files())
def test_load_ticks_matches_row_oracle(text):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "ticks.csv"
        p.write_bytes(text.encode())
        try:
            ids, times, prices = load_ticks_oracle(p)
        except TickFileError as exc:
            with pytest.raises(TickFileError) as got:
                load_ticks(p)
            assert str(got.value) == str(exc)
            return
        T = max(t[-1] for t in times)
        scheme_fault = "horizon must be positive" if T <= 0 else next(
            ("scheme times must lie in [0, horizon]" for t in times if t[0] < 0), None
        )
        if scheme_fault is not None:
            with pytest.raises(ValueError, match=re.escape(scheme_fault)):
                load_ticks(p)
            return
        got_ids, series = load_ticks(p)
    assert got_ids == ids
    for s, t, v in zip(series, times, prices, strict=True):
        np.testing.assert_array_equal(s.scheme.times, np.array(t))
        np.testing.assert_array_equal(s.values, np.array(v))
        assert s.scheme.horizon == T


def _assert_oracle_rows(got, oracle):
    got_ids, got_times, got_prices = got
    ids, times, prices = oracle
    assert got_ids == ids
    for gt, gv, t, v in zip(got_times, got_prices, times, prices, strict=True):
        np.testing.assert_array_equal(gt, np.array(t))
        np.testing.assert_array_equal(gv, np.array(v))


def _traced_peak(fn):
    """``fn()`` and the ``tracemalloc`` peak of the call, in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_ticks_column_parse_crosses_scan_blocks(tmp_path):
    # over 1 MiB, so a block-wise byte scan crosses block edges; ids of 1-4
    # bytes interleave, CRLF line ends, no final newline
    rng = np.random.default_rng(5)
    names = ["a", "bb", "ccc", "dddd"]
    pick = rng.integers(0, 4, 40_000)
    steps = rng.uniform(0.5, 1.5, pick.size)
    clock = np.zeros(4)
    lines = []
    for k, dt, px in zip(pick, steps, rng.standard_normal(pick.size)):
        clock[k] += dt
        lines.append(f"{names[k]},{float(clock[k])!r},{float(px)!r}")
    p = tmp_path / "ticks.csv"
    p.write_bytes("\r\n".join([HEADER[:-1], *lines]).encode())
    assert p.stat().st_size > 2**20
    got = tickio._parse_columns(p)
    assert got is not None
    _assert_oracle_rows(got, load_ticks_oracle(p))


def test_load_ticks_long_asset_id_stays_small(tmp_path):
    # one 10 000-byte id among 2 000 one-byte ones: a fixed-width id column
    # would hold 2 001 ids of 10 000 characters (hundreds of MB)
    rows = "".join(f"A,{i}.0,0.5\n" for i in range(2000))
    p = write(tmp_path, HEADER + rows + "B" * 10_000 + ",0.5,1.0\n")
    (ids, series), peak = _traced_peak(lambda: load_ticks(p))
    assert peak < 2 * 2**20
    _assert_oracle_rows((ids, [s.scheme.times for s in series], [s.values for s in series]), load_ticks_oracle(p))


def test_load_ticks_peak_memory_is_a_multiple_of_the_file(tmp_path):
    # 100 000 rows of 10 assets; the column parse holds the raw
    # bytes, then the parsed columns, never both.  The peak is the file
    # plus its line and comma positions: 1.60x this 3.4 MB file (1.62x the
    # 6.2 MB benchmark file, whose whole-file byte check once took 2.00x),
    # and the bound leaves 0.1x for other numpy versions
    rng = np.random.default_rng(3)
    times = np.arange(1, 10_001) * 5e-5
    data = [TickSeries(SamplingScheme(times, 1.0), 4.6 + rng.standard_normal(times.size).cumsum() * 1e-4) for _ in range(10)]
    p = tmp_path / "ticks.csv"
    write_ticks(p, [f"A{k}" for k in range(10)], data)
    (ids, series), peak = _traced_peak(lambda: load_ticks(p))
    assert len(ids) == 10 and sum(len(s) for s in series) == 100_000
    assert peak <= 1.7 * p.stat().st_size


def test_roundtrip_preserves_estimates(tmp_path):
    rng = np.random.default_rng(0)
    t1 = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 40)]))
    t2 = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 50)]))
    data = [
        TickSeries(SamplingScheme(t1, 1.0), rng.standard_normal(t1.size).cumsum() * 0.01),
        TickSeries(SamplingScheme(t2, 1.0), rng.standard_normal(t2.size).cumsum() * 0.01),
    ]
    direct = estimate_matrix(data, "hy").matrix
    path = tmp_path / "round.csv"
    write_ticks(path, ["X", "Y"], data)
    _, loaded = load_ticks(path, horizon=1.0)
    reloaded = estimate_matrix(loaded, "hy").matrix
    np.testing.assert_array_equal(direct, reloaded)


# ---------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------
def test_report_schema_stable():
    rep = RunReport(command="estimate")
    payload = json.loads(rep.to_json())
    for key in (
        "command",
        "config",
        "asset_ids",
        "estimates",
        "acov",
        "standard_errors",
        "test",
        "mc",
        "diagnostics",
        "seeds",
        "timings",
    ):
        assert key in payload
    assert payload["estimates"]["matrix"] is None


# ---------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------
def test_cli_simulate_estimate_acov_citest(tmp_path):
    ticks = tmp_path / "sim.csv"
    out1 = tmp_path / "sim.json"
    rc = main(
        [
            "simulate", "--assets", "3", "--n", "400", "--noise", "3e-4",
            "--seed", "11", "--ticks-out", str(ticks), "--out", str(out1),
        ]
    )
    assert rc == 0
    assert json.loads(out1.read_text())["command"] == "simulate"

    out2 = tmp_path / "est.json"
    rc = main(["estimate", "--input", str(ticks), "--method", "ms", "--out", str(out2)])
    assert rc == 0
    rep = json.loads(out2.read_text())
    assert np.asarray(rep["estimates"]["matrix"]).shape == (3, 3)
    assert len(rep["estimates"]["svec"]) == 6
    assert "min_eigenvalue" in rep["diagnostics"]
    timings = [rep["timings"]]

    out3 = tmp_path / "acov.json"
    rc = main(["acov", "--input", str(ticks), "--method", "rc", "--out", str(out3)])
    assert rc == 0
    rep = json.loads(out3.read_text())
    assert np.asarray(rep["acov"]["entries"]).shape == (6, 6)
    assert len(rep["standard_errors"]) == 6
    assert all(s >= 0 for s in rep["standard_errors"])
    timings.append(rep["timings"])

    out4 = tmp_path / "ci.json"
    rc = main(
        ["citest", "--input", str(ticks), "--x1", "A0", "--x2", "A1", "--z", "A2",
         "--method", "rc", "--out", str(out4)]
    )
    assert rc == 0
    rep = json.loads(out4.read_text())
    assert "p_value" in rep["test"] and "z" in rep["test"]
    timings.append(rep["timings"])
    for t in timings:
        assert 0 <= t["load_s"] <= t["total_s"]


def test_cli_gms_on_async_data(tmp_path):
    ticks = tmp_path / "async.csv"
    rc = main(
        ["simulate", "--assets", "2", "--n", "500", "--sampling", "poisson",
         "--noise", "3e-4", "--seed", "3", "--ticks-out", str(ticks), "--out", str(tmp_path / "s.json")]
    )
    assert rc == 0
    out = tmp_path / "gms.json"
    rc = main(["estimate", "--input", str(ticks), "--method", "gms", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["estimates"]["method"] == "gms"


def test_cli_acov_negative_variance_gives_null_standard_error(tmp_path):
    # on this noisy asynchronous input two of the three gms variance
    # estimates are negative: their standard errors are null and counted
    ticks = tmp_path / "neg.csv"
    rc = main(
        ["simulate", "--assets", "2", "--n", "300", "--sampling", "poisson",
         "--noise", "5e-4", "--seed", "0", "--ticks-out", str(ticks), "--out", str(tmp_path / "s.json")]
    )
    assert rc == 0
    out = tmp_path / "acov.json"
    assert main(["acov", "--input", str(ticks), "--method", "gms", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    var = np.diag(rep["acov"]["entries"]) / math.sqrt(rep["acov"]["n_ref"])
    assert rep["diagnostics"]["negative_variance_entries"] == np.sum(var < 0) == 2
    for v, se in zip(var, rep["standard_errors"]):
        assert se is None if v < 0 else se == math.sqrt(v)


def test_cli_missing_input_fails():
    rc = main(["estimate", "--input", "/nonexistent/ticks.csv"])
    assert rc == 1


def test_cli_bad_method_for_sync_requirement(tmp_path):
    ticks = tmp_path / "async2.csv"
    main(
        ["simulate", "--assets", "2", "--n", "200", "--sampling", "poisson",
         "--seed", "4", "--ticks-out", str(ticks), "--out", str(tmp_path / "s.json")]
    )
    rc = main(["estimate", "--input", str(ticks), "--method", "rc"])
    assert rc == 1


def test_cli_acov_hy_fails_naming_the_method(tmp_path, capsys):
    ticks = tmp_path / "sync.csv"
    main(
        ["simulate", "--assets", "2", "--n", "200", "--seed", "5",
         "--ticks-out", str(ticks), "--out", str(tmp_path / "s.json")]
    )
    capsys.readouterr()
    rc = main(["acov", "--input", str(ticks), "--method", "hy", "--out", str(tmp_path / "a.json")])
    assert rc == 1
    assert "'hy'" in capsys.readouterr().err


def test_cli_citest_rejects_one_asset_in_two_slots(tmp_path, capsys):
    ticks = tmp_path / "t.csv"
    main(
        ["simulate", "--assets", "3", "--n", "300", "--sampling", "poisson", "--noise", "5e-4",
         "--seed", "1", "--ticks-out", str(ticks), "--out", str(tmp_path / "s.json")]
    )
    capsys.readouterr()
    rc = main(["citest", "--input", str(ticks), "--x1", "A0", "--x2", "A0", "--z", "A2", "--method", "gms"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: citest x1='A0' x2='A0' z='A2': x1 and x2 are the same series; the test needs three distinct series\n"


@pytest.mark.parametrize("c", ["0", "-1", "inf", "nan"])
def test_cli_estimate_rejects_c_not_finite_positive(tmp_path, capsys, c):
    # unchecked, 0 and -1 run at M = 2, inf overflows and nan fails to convert
    ticks = tmp_path / "sync.csv"
    main(["simulate", "--assets", "2", "--n", "200", "--seed", "5", "--ticks-out", str(ticks), "--out", str(tmp_path / "s.json")])
    capsys.readouterr()
    rc = main(["estimate", "--input", str(ticks), "--method", "gms", "--c", c, "--out", str(tmp_path / "e.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: c must be finite and positive") and err.count("\n") == 1


def test_cli_acov_rejects_bins_below_2(tmp_path, capsys):
    # unchecked, --bins 1 fails only at the first acov entry, after the estimate
    ticks = tmp_path / "sync.csv"
    main(["simulate", "--assets", "2", "--n", "200", "--seed", "5", "--ticks-out", str(ticks), "--out", str(tmp_path / "s.json")])
    capsys.readouterr()
    rc = main(["acov", "--input", str(ticks), "--method", "gms", "--bins", "1", "--out", str(tmp_path / "a.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: bins must be None or an integer >= 2, got 1\n"


def test_cli_simulate_rejects_zero_assets(tmp_path, capsys):
    rc = main(["simulate", "--assets", "0", "--n", "50", "--ticks-out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: ItoModelConfig.p must be at least 1, got 0\n"


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
def test_cli_mc_validate_rejects_bad_covest_threads(monkeypatch, capsys, value):
    monkeypatch.setenv("COVEST_THREADS", value)
    rc = main(["mc-validate", "--scenario", "hy_acov", "--replicates", "100", "--seed", "1"])
    assert rc == 1
    assert f"error: COVEST_THREADS must be a positive integer, got {value!r}\n" == capsys.readouterr().err


def test_cli_entrypoint_runs():
    import hficov

    # the child imports the same hficov as this process, wherever that came from
    src = str(Path(hficov.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hficov.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "mc-validate" in proc.stdout


def test_cli_mc_validate_byte_identical_rerun(tmp_path):
    out1, out2 = tmp_path / "mc1.json", tmp_path / "mc2.json"
    args = ["mc-validate", "--scenario", "hy_acov", "--replicates", "120", "--seed", "9", "--out"]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------
# Package surface
# ---------------------------------------------------------------------
def test_every_name_in_all_resolves():
    import importlib
    import pkgutil

    import hficov

    modules = [hficov] + [importlib.import_module(f"hficov.{m.name}") for m in pkgutil.iter_modules(hficov.__path__)]
    for mod in modules:
        assert mod is hficov or hasattr(mod, "__all__"), mod.__name__
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"


def test_each_public_name_has_one_home():
    """Each module's ``__all__`` lists only names it defines, and the package
    re-exports exactly those names, each from its defining module."""
    import ast
    import importlib
    import inspect
    import pkgutil

    import hficov

    exported = set()
    for info in pkgutil.iter_modules(hficov.__path__):
        mod = importlib.import_module(f"hficov.{info.name}")
        defined = set()
        for node in ast.parse(inspect.getsource(mod)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined.add(node.target.id)
        foreign = sorted(set(mod.__all__) - defined)
        assert not foreign, f"{mod.__name__}.__all__ lists names defined elsewhere: {foreign}"
        if info.name == "cli":
            continue  # the console-script entry point is not part of the package namespace
        for name in mod.__all__:
            assert getattr(hficov, name, None) is getattr(mod, name), f"hficov.{name} is not {mod.__name__}.{name}"
        exported |= set(mod.__all__)
    public = {n for n, v in vars(hficov).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert public == exported, (sorted(public - exported), sorted(exported - public))
