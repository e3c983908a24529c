"""End-to-end CLI checks over every subcommand."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import pytest

import ditsp
from ditsp import cli, dtrp
from ditsp.cli import main
from ditsp.harness import (TOUR_CSV_FIELDS, ExperimentConfig, run_experiment,
                           write_tour_csv)
from ditsp.vehicle import VehicleParams


def test_tour_csv(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = main(["tour", "--algo", "sgs", "--n", "30", "--trials", "2",
               "--rvel", "1", "--rctr", "1", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 2
    assert rows[0]["algo"] == "sgs"
    assert float(rows[0]["total_time"]) > 0
    # one target: a tour of one zero leg
    rc = main(["tour", "--algo", "sgs", "--n", "1", "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[1] == "sgs,1,0,0.0,0.0,0,0"


def test_tour_json_format(capsys):
    rc = main(["--format", "json", "tour", "--algo", "recbta", "--n", "200",
               "--trials", "1"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data[0]["algo"] == "rec_bta"
    assert data[0]["phase_count"] > 0


def test_dtrp_csv_and_trace(tmp_path):
    out = tmp_path / "d.csv"
    trace = tmp_path / "trace.json"
    rc = main(["dtrp", "--policy", "bta", "--lambda", "20", "--horizon", "50",
               "--seeds", "2", "--out", str(out), "--trace", str(trace)])
    assert rc == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 2
    assert rows[0]["divergent_flag"] == "0"
    events = json.loads(trace.read_text())
    assert {"t", "event", "target_id", "cell_index"} <= set(events[0])
    kinds = {e["event"] for e in events}
    assert "arrival" in kinds and "sweep_start" in kinds


@pytest.mark.parametrize("policy, dims", [("bta", []),
                                          ("cca", ["--dim", "3", "--D", "1"])])
def test_dtrp_sizes_the_cell_once_per_call(tmp_path, monkeypatch, policy,
                                           dims):
    # the cell depends on the workspace, the vehicle and lambda, not on the
    # seed: one solve serves every seed's run, and a seed's row is the row
    # of its own call
    solves = []
    size_cell = dtrp._size_cell
    dtrp._policy_cell.cache_clear()
    monkeypatch.setattr(dtrp, "_size_cell",
                        lambda *args: solves.append(args) or size_cell(*args))
    argv = ["dtrp", "--policy", policy, *dims, "--horizon", "20"]
    rc = main(argv + ["--seeds", "3", "--out", str(tmp_path / "d.csv")])
    assert rc == 0 and len(solves) == 1
    rows = (tmp_path / "d.csv").read_text().splitlines()
    assert len(rows) == 4
    main(argv + ["--seed", "2", "--out", str(tmp_path / "last.csv")])
    last = (tmp_path / "last.csv").read_text().splitlines()[1]
    # all but the seed column, the seed's number within its call
    assert rows[3].split(",")[3:] == last.split(",")[3:]


def test_bounds_json(tmp_path):
    out = tmp_path / "b.json"
    rc = main(["bounds", "--dim", "2", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert "tour_upper_2d" in data and "dtrp_lower_2d" in data


def test_tile_2d_schema(tmp_path):
    out = tmp_path / "tile.json"
    rc = main(["tile", "--W", "0.2", "--H", "0.2", "--rho", "0.01",
               "--ell", "0.02", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert set(data["spec"]) == {"rho", "ell", "w"}
    cell = data["cells"][0]
    assert "index" in cell and "anchor" in cell and "vertices" in cell
    assert len(cell["vertices"]) == 4


def test_tile_3d_schema(tmp_path):
    out = tmp_path / "tile3.json"
    rc = main(["tile", "--dim", "3", "--W", "0.3", "--H", "0.2", "--D", "0.1",
               "--rho", "0.05", "--ell", "0.1", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert "axis" in data["cells"][0]


# sha256 of ``ditsp tile`` output with the default sides, recorded when the
# cylinder cell was its own spec type, storing w/4 and turning it back to w
PINNED_TILE = {
    "2d": "9f6ba25e65fc04b26dad681e0decac1cdb1a579d6b540777f5beb7e1a8a53f44",
    "3d": "d0c4c7a24a1448e23c648be0e2e7520931d3dd0da7cec195b4fc2cce755ed42d",
}


@pytest.mark.parametrize("dim, argv", [("2d", []),
                                       ("3d", ["--dim", "3", "--D", "0.5"])])
def test_tile_digest_pinned(capsys, dim, argv):
    assert main(["tile", "--rho", "0.1", "--ell", "0.3"] + argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_TILE[dim]


def test_scaling_slope_gate(tmp_path, capsys):
    args = ["scaling", "--algo", "recbta", "--ns", "1000", "4000", "16000",
            "--trials", "2"]
    rc = main(args + ["--slope-min", "0.2"])
    capsys.readouterr()
    assert rc == 0
    rc = main(args + ["--slope-min", "0.99"])
    capsys.readouterr()
    assert rc == 1  # assertion failed -> nonzero exit
    rc = main(args + ["--slope-max", "0.2"])
    capsys.readouterr()
    assert rc == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scaling_out_follows_format(tmp_path, capsys, fmt):
    out = tmp_path / "s.out"
    argv = ["scaling", "--algo", "sgs", "--ns", "20", "40", "--trials", "1",
            "--rvel", "1", "--rctr", "1"]
    assert main(["--format", fmt] + argv + ["--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["n_points"] == 2
    config = ExperimentConfig(algo="sgs", dims=(1.0, 1.0),
                              params=VehicleParams(1.0, 1.0), ns=(20, 40),
                              n_seeds=1)
    results = run_experiment(config)
    if fmt == "csv":
        # the bytes of the harness's own writer
        want = tmp_path / "want.csv"
        write_tour_csv(results, want)
        assert out.read_bytes() == want.read_bytes()
    else:
        assert json.loads(out.read_text()) == [
            dict(zip(TOUR_CSV_FIELDS, astuple(r))) for r in results]


def test_config_file_defaults(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"n": 25, "trials": 2, "rvel": 1.0,
                                   "rctr": 1.0, "algo": "sgs",
                                   "out": str(tmp_path / "c.csv")}))
    rc = main(["--config", str(cfgfile), "tour"])
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "c.csv").read_text().splitlines()))
    assert len(rows) == 2 and rows[0]["n"] == "25"
    # the "lambda" key sets dtrp's --lambda
    cfgfile.write_text(json.dumps({"lambda": 30, "horizon": 20,
                                   "out": str(tmp_path / "d.csv")}))
    assert main(["--config", str(cfgfile), "dtrp"]) == 0
    rows = list(csv.DictReader((tmp_path / "d.csv").read_text().splitlines()))
    assert float(rows[0]["lambda"]) == 30.0


def test_missing_depth_errors():
    with pytest.raises(SystemExit):
        main(["tour", "--dim", "3", "--algo", "reccca", "--n", "10"])


@pytest.mark.parametrize("flags, field", [
    (["--horizon", "0"], "n_slots"), (["--lambda", "nan"], "lam"),
    (["--W", "0.5"], "dims")])
def test_dtrp_bad_input_exits_with_one_line(flags, field):
    with pytest.raises(SystemExit) as exc:
        main(["dtrp"] + flags)
    message = str(exc.value.code)
    assert field in message and "\n" not in message


@pytest.mark.parametrize("argv", [["tour", "--algo", "recbta"],
                                  ["scaling", "--ns", "20", "40"], ["dtrp"]])
def test_nan_vehicle_exits_with_one_line(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--rvel", "nan"])
    message = str(exc.value.code)
    assert "r_vel" in message and "\n" not in message


@pytest.mark.parametrize("argv, field", [
    (["tile", "--rho", "nan"], "rho"),
    (["tile", "--rho", "0.01", "--ell", "1"], "ell"),
    (["tile", "--dim", "3", "--D", "1", "--rho", "-1"], "rho"),
    (["tile", "--rho", "1", "--ell", "1e-170"], "ell")])
def test_tile_bad_cell_exits_with_one_line(argv, field):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = str(exc.value.code)
    assert message.startswith(f"tile: {field} ") and "\n" not in message


@pytest.mark.parametrize("command", [["tour", "--algo", "recbta"],
                                     ["scaling", "--ns", "20", "40"],
                                     ["bounds"], ["tile"]])
@pytest.mark.parametrize("width", ["nan", "-1", "0.5", "0", "inf"])  # 0.5: W < H
def test_bad_workspace_exits_with_one_line(command, width):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--W", width])
    message = str(exc.value.code)
    assert message.startswith(f"{command[0]}: dims ") and "\n" not in message


@pytest.mark.parametrize("argv, word", [
    (["tour", "--n", "0"], "n"), (["tour", "--algo", "recbta", "--n", "-5"], "n"),
    (["bounds", "--n", "0"], "n"), (["scaling", "--ns", "100"], "two"),
    (["scaling", "--ns", "20", "40", "--trials", "0"], "n_seeds"),
    (["tour", "--trials", "0"], "n_seeds"), (["dtrp", "--seeds", "0"], "--seeds"),
    (["dtrp", "--policy", "cca"], "cca"),
    (["tour", "--dim", "3", "--algo", "reccca"], "--D"),
    (["dtrp", "--dim", "3", "--D", "1"], "bta"),
    (["bounds", "--dim", "3", "--D", "0"], "dims"),
    (["tile", "--dim", "3", "--D", "0"], "dims"),
    # r_vel**2 underflows to 0 or overflows to inf
    (["tour", "--algo", "recbta", "--rvel", "1e-200", "--n", "50"], "r_vel"),
    (["bounds", "--rvel", "1e200"], "r_vel"),
    # the turn radius is below MIN_TURN_RADIUS: rho**2 is not a normal float
    (["tour", "--algo", "recbta", "--rvel", "1e-155", "--n", "50"], "r_vel"),
    (["dtrp", "--rvel", "1e-150"], "r_vel"),
    # a finite turn radius of 1e300: turn_penalty**3 overflows
    (["bounds", "--rvel", "1e150"], "turn_penalty"),
    # a turn radius of 1.49e-154: no grid of its cells indexes in int64
    (["tour", "--algo", "recbta", "--rvel", "1.2214e-77", "--n", "50"], "int64:"),
    (["tour", "--algo", "reccca", "--dim", "3", "--D", "1",
      "--rvel", "1.2214e-77", "--n", "50"], "int64:"),
    (["dtrp", "--rvel", "1.2214e-77", "--horizon", "20"], "int64:"),
    # turn radii of 1e140 and 1e200, far past 2**50 times the unit side
    (["tour", "--algo", "recbta", "--rvel", "1e70", "--n", "50"], "2**50"),
    (["tour", "--algo", "recbta", "--rvel", "1e100", "--n", "50"], "2**50"),
    (["dtrp", "--rvel", "1e70"], "2**50"),
    (["scaling", "--algo", "reccca", "--dim", "3", "--D", "1",
      "--rvel", "1e70", "--ns", "20", "40"], "2**50"),
    # turn radii of 1e-146 and 1e-132, below 2**-64 times the unit side:
    # the cell solver's probe grids overflowed or gave NaN values
    (["dtrp", "--policy", "cca", "--dim", "3", "--D", "1", "--rvel", "1e-73",
      "--horizon", "20"], "2**-64"),
    (["dtrp", "--policy", "cca", "--dim", "3", "--D", "1", "--rvel", "1e-66",
      "--horizon", "20"], "2**-64"),
    # rates whose cells have grids past int64: the solver ran out of its
    # 100 iterations at 1e200, and 1e12 blamed the turn radius
    (["dtrp", "--lambda", "1e200", "--horizon", "20"], "lam"),
    (["dtrp", "--lambda", "1e12", "--horizon", "20"], "lam"),
    (["dtrp", "--policy", "cca", "--dim", "3", "--D", "1", "--lambda", "1e200",
      "--horizon", "20"], "lam"),
    (["dtrp", "--policy", "cca", "--dim", "3", "--D", "1", "--lambda", "1e12",
      "--horizon", "20"], "lam"),
    (["scaling", "--ns", "20", "40", "--workers", "0"], "workers"),
    # the policy's dims are checked before the cell is sized, whose rate is
    # too high here
    (["dtrp", "--policy", "cca", "--lambda", "1e15", "--horizon", "20"],
     "cca")])
def test_bad_n_exits_with_one_line(argv, word):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = str(exc.value.code)
    assert message.startswith(f"{argv[0]}: ") and "\n" not in message
    assert word in message.split()


def _run_python(*args, check=True):
    """``python *args`` in a fresh interpreter that imports this ditsp."""
    src = str(Path(ditsp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, check=check, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


def _run_fresh(code):
    # in a fresh interpreter: scipy.stats, which other tests import, loads
    # scipy.optimize and scipy.spatial into this one
    return _run_python("-c", code).stdout.strip()


def test_import_leaves_scipy_optimize_unloaded():
    # ditsp loads only scipy's kd-tree extension, not scipy.optimize nor
    # scipy.spatial's __init__ with its linalg, special and qhull
    assert _run_fresh(
        "import sys, ditsp, ditsp.cli; print([m for m in ('scipy.optimize', "
        "'scipy.spatial', 'scipy.linalg', 'scipy.special') "
        "if m in sys.modules])") == "[]"


def test_dtrp_imports_no_tour_code():
    # the DTRP policies stand on the grids and their sweeps alone
    assert _run_fresh(
        "import sys, ditsp.dtrp; print(sorted(m for m in sys.modules if "
        "m.split('.')[0] == 'scipy' or m in ('ditsp.etsp', 'ditsp.planners', "
        "'ditsp.harness')))") == "[]"


def test_later_scipy_spatial_reuses_the_kd_tree_extension():
    assert _run_fresh("import ditsp.etsp, scipy.spatial; "
                      "print(ditsp.etsp.cKDTree is scipy.spatial.cKDTree)"
                      ) == "True"


def test_main_reuses_one_parser_and_no_values(capsys):
    # the config-free parser is built once; no call's flags reach the next
    main(["bounds"])
    plain = capsys.readouterr().out
    main(["--seed", "3", "bounds", "--n", "50", "--W", "2"])
    assert capsys.readouterr().out != plain
    main(["bounds"])
    assert capsys.readouterr().out == plain
    assert cli._plain_parser.cache_info().currsize == 1


def test_kd_tree_extension_stays_reachable_by_its_scipy_attribute():
    # ditsp's lone load of the extension leaves no entry behind that would
    # keep a later import from binding scipy.spatial._ckdtree
    assert _run_fresh("import ditsp.etsp, scipy.spatial._ckdtree; "
                      "print(scipy.spatial._ckdtree.cKDTree "
                      "is ditsp.etsp.cKDTree)") == "True"


@pytest.mark.parametrize("flag", [["--n=7"], ["--n", "7"]])
def test_config_file_yields_to_flags(tmp_path, flag):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"n": 50, "seed": 5}))
    out = tmp_path / "t.csv"
    rc = main(["--config", str(cfgfile), "--out", str(out), "tour"] + flag)
    assert rc == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert rows[0]["n"] == "7"


@pytest.mark.parametrize("config, argv, message", [
    ({"n": 2.5}, ["tour"], "ditsp tour: error: argument --n: invalid int "
                           "value: '2.5'"),
    ({"ns": [1000.5, 2000]}, ["scaling"], "ditsp scaling: error: argument "
                                          "--ns: invalid int value: '1000.5'"),
])
def test_config_value_goes_through_the_flag_type(tmp_path, capsys, config,
                                                 argv, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg)] + argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == message


def test_config_number_reads_as_the_flag_does(tmp_path, capsys):
    # {"lambda": 30} writes the column that --lambda 30 writes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": 30, "horizon": 5}))
    assert main(["--config", str(cfg), "dtrp"]) == 0
    from_config = capsys.readouterr().out
    assert main(["dtrp", "--lambda", "30", "--horizon", "5"]) == 0
    assert capsys.readouterr().out == from_config
    assert next(csv.DictReader(from_config.splitlines()))["lambda"] == "30.0"


def test_config_file_global_flag_either_side(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 20, "seed": 5}))
    outs = []
    for argv in (["--config", str(cfg), "--seed", "3", "tour"],
                 ["--config", str(cfg), "tour", "--seed=3"],
                 ["tour", "--n", "20", "--seed", "3"],
                 ["--config", str(cfg), "tour"]):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2] != outs[3]


@pytest.mark.parametrize("config, argv", [
    ('{"n": 5', ["tour"]), ("[1, 2]", ["tour"]), (None, ["bounds"]),
    ('{"n": 5}', ["tour", "--out", "{tmp}/no/such/dir/t.csv"])],
    ids=["malformed", "list", "missing", "out-dir"])
def test_bad_file_exits_with_one_line(tmp_path, capsys, config, argv):
    # a malformed config, one that is no JSON object, a missing one, and an
    # --out path in a missing directory
    cfg = tmp_path / "cfg.json"
    if config is not None:
        cfg.write_text(config)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg)] + argv)
    message = str(exc.value.code)
    assert message.startswith(f"{argv[0]}: ") and "\n" not in message
    assert not capsys.readouterr().out


@pytest.mark.parametrize("argv, word", [
    (["dtrp", "--horizon", "5", "--trace", "{tmp}/no/dir/t.json", "--out",
      "{tmp}/rows.csv"], "[Errno 2]"),
    (["dtrp", "--horizon", "5", "--trace", "{tmp}/t.json", "--out",
      "{tmp}/no/dir/rows.csv"], "[Errno 2]"),
    (["scaling", "--algo", "sgs", "--ns", "50", "--trials", "1", "--out",
      "{tmp}/rows.csv"], "need")],
    ids=["dtrp-trace", "dtrp-out", "scaling-fit"])
def test_failing_last_step_writes_no_rows(tmp_path, capsys, argv, word):
    # a trace path that cannot be written, an --out path that cannot be
    # written and a fit that fails: each command writes no rows and leaves
    # no file behind
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = str(exc.value.code)
    assert message.startswith(f"{argv[0]}: {word}") and "\n" not in message
    assert not list(tmp_path.iterdir()) and not capsys.readouterr().out


@pytest.mark.parametrize("link", [False, True], ids=["file", "symlink"])
def test_failing_out_keeps_a_trace_path_found_there(tmp_path, link):
    # an --out that cannot be written removes the trace file only if the
    # call made it: a file or a link already at the trace path stays
    found = tmp_path / "found.json"
    found.write_text("[]")
    trace = tmp_path / "link.json" if link else found
    if link:
        trace.symlink_to(found)
    with pytest.raises(SystemExit):
        main(["dtrp", "--horizon", "5", "--trace", str(trace), "--out",
              str(tmp_path / "no" / "dir" / "d.csv")])
    assert found.is_file() and trace.is_symlink() == link


def test_module_entry_exits_with_one_line(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    out = _run_python("-m", "ditsp.cli", "--config", str(cfg), "bounds",
                      check=False)
    assert out.returncode == 1 and not out.stdout
    assert "Traceback" not in out.stderr
    assert out.stderr.splitlines() == [
        f"bounds: config file {cfg} does not hold a JSON object"]
