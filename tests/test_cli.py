"""End-to-end CLI checks over every subcommand."""

import csv
import json

import pytest

from ditsp.cli import main


def test_tour_csv(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = main(["tour", "--algo", "sgs", "--n", "30", "--trials", "2",
               "--rvel", "1", "--rctr", "1", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 2
    assert rows[0]["algo"] == "sgs"
    assert float(rows[0]["total_time"]) > 0


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


def test_scaling_slope_gate(tmp_path, capsys):
    args = ["scaling", "--algo", "recbta", "--ns", "1000", "4000", "16000",
            "--trials", "2"]
    rc = main(args + ["--slope-min", "0.2"])
    capsys.readouterr()
    assert rc == 0
    rc = main(args + ["--slope-min", "0.99"])
    capsys.readouterr()
    assert rc == 1  # assertion failed -> nonzero exit


def test_config_file_defaults(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"n": 25, "trials": 2, "rvel": 1.0,
                                   "rctr": 1.0, "algo": "sgs",
                                   "out": str(tmp_path / "c.csv")}))
    rc = main(["--config", str(cfgfile), "tour"])
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "c.csv").read_text().splitlines()))
    assert len(rows) == 2 and rows[0]["n"] == "25"


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
                                     ["scaling", "--ns", "20", "40"]])
@pytest.mark.parametrize("width", ["nan", "-1", "0.5"])  # 0.5: W < H
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
    (["dtrp", "--dim", "3", "--D", "1"], "bta")])
def test_bad_n_exits_with_one_line(argv, word):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = str(exc.value.code)
    assert message.startswith(f"{argv[0]}: ") and "\n" not in message
    assert word in message.split()


@pytest.mark.parametrize("flag", [["--n=7"], ["--n", "7"]])
def test_config_file_yields_to_flags(tmp_path, flag):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"n": 50, "seed": 5}))
    out = tmp_path / "t.csv"
    rc = main(["--config", str(cfgfile), "--out", str(out), "tour"] + flag)
    assert rc == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert rows[0]["n"] == "7"


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
