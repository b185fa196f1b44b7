import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hficov.cli import main
from hficov.estimators import TickSeries, estimate_matrix
from hficov.sampling import SamplingScheme
from hficov.tickio import RunReport, TickFileError, load_ticks, write_ticks


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

    out3 = tmp_path / "acov.json"
    rc = main(["acov", "--input", str(ticks), "--method", "rc", "--out", str(out3)])
    assert rc == 0
    rep = json.loads(out3.read_text())
    assert np.asarray(rep["acov"]["entries"]).shape == (6, 6)
    assert len(rep["standard_errors"]) == 6
    assert all(s >= 0 for s in rep["standard_errors"])

    out4 = tmp_path / "ci.json"
    rc = main(
        ["citest", "--input", str(ticks), "--x1", "A0", "--x2", "A1", "--z", "A2",
         "--method", "rc", "--out", str(out4)]
    )
    assert rc == 0
    rep = json.loads(out4.read_text())
    assert "p_value" in rep["test"] and "z" in rep["test"]


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
