import dataclasses
import os
from pathlib import Path

import pytest

from mmcplace.cli import main
from mmcplace.config import ScenarioConfig, parse_config, serialize_config


def small_ini(tmp_path, **kw):
    base = dict(n_cells=7, horizon=15, n_users=3, T_max=8)
    base.update(kw)
    p = tmp_path / "small.ini"
    p.write_text(serialize_config(ScenarioConfig(**base)))
    return str(p)


def test_simulate_writes_csvs(tmp_path, capsys):
    cfg = small_ini(tmp_path)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", cfg, "--policy", "c",
               "--seed", "1", "--out-dir", str(out)])
    assert rc == 0
    assert (out / "results.csv").exists()
    assert (out / "summary.csv").exists()
    text = capsys.readouterr().out
    assert "policy c" in text


def test_simulate_rejects_jobs_above_one(tmp_path, capsys):
    """Policies always run in sequence: --jobs accepts only 1, which
    existing command lines pass."""
    cfg = small_ini(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", cfg, "--seed", "1", "--jobs", "2",
              "--out-dir", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    rc = main(["simulate", "--config", cfg, "--policy", "c", "--seed", "1",
               "--jobs", "1", "--out-dir", str(tmp_path / "o")])
    assert rc == 0


def test_sweep_window_csv(tmp_path):
    cfg = small_ini(tmp_path)
    out = tmp_path / "sw"
    rc = main(["sweep-window", "--config", cfg, "--T-range", "1,3,5",
               "--beta-list", "0.4", "--seeds", "1",
               "--out-dir", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "T,beta,seed,avg_cost,is_Tstar"
    assert len(lines) == 4


def test_oracle_check_ok(tmp_path, capsys):
    """The reported largest gap - epsilon is below 0: the noise scale is
    < 1, so every sampled gap stays strictly inside the bound."""
    cfg = small_ini(tmp_path)
    rc = main(["oracle-check", "--config", cfg, "--seed", "2",
               "--samples", "50"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "within the bound" in out
    assert float(out.rsplit("epsilon", 1)[1].strip(" )\n")) < 0


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[error]\nalpha = 0.9\n")
    rc = main(["simulate", "--config", str(bad)])
    assert rc == 2


def test_convert_trace(tmp_path):
    a = tmp_path / "veh_a.txt"
    a.write_text("37.75 -122.39 1 1211018404\n"
                 "37.76 -122.40 0 1211018465\n"
                 "garbage line\n")
    b = tmp_path / "veh_b.txt"
    b.write_text("37.70 -122.41 1 1211018000\n")
    out = tmp_path / "trace.csv"
    rc = main(["convert-trace", str(a), str(b), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "user_id,timestamp,lat,lon"
    assert len(lines) == 4
    # per-user rows sorted by timestamp, user ids from sorted input order
    assert lines[1].startswith("1,")
    assert lines[3].startswith("2,1211018000")


def test_convert_trace_missing_file(tmp_path, capsys):
    rc = main(["convert-trace", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 3
    assert "I/O error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep-window",
                                     "oracle-check"])
def test_unreadable_trace_exits_3_before_writing(tmp_path, capsys, command):
    """A trace file that cannot be read is a trace I/O error: exit code 3
    and no output directory."""
    config = small_ini(tmp_path, mobility="trace",
                       trace_file=str(tmp_path / "nope.csv"))
    out = tmp_path / "out"
    argv = [command, "--config", config]
    if command != "oracle-check":
        argv += ["--out-dir", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("trace I/O error:") and "nope.csv" in err
    assert not out.exists()


def test_output_directory_error_is_not_a_trace_error(tmp_path, capsys):
    """An output directory that cannot be made raises its own OSError,
    with a readable trace."""
    trace = tmp_path / "trace.csv"
    trace.write_text("user_id,timestamp,lat,lon\n1,0,0.0,0.0\n")
    config = small_ini(tmp_path, mobility="trace", trace_file=str(trace))
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(OSError):
        main(["simulate", "--config", config, "--policy", "c",
              "--out-dir", str(blocker / "out")])
    assert "trace I/O error" not in capsys.readouterr().err


def test_ratio_curve_rows_equal_the_experiment(tmp_path, capsys):
    from mmcplace.simulator import synthetic_ratio_experiment

    out = tmp_path / "rc"
    rc = main(["ratio-curve", "--arrivals", "60", "--seeds", "2",
               "--sample-every", "20", "--out-dir", str(out)])
    assert rc == 0
    samples, ints, fracs, ratio = synthetic_ratio_experiment(
        60, range(1, 3), sample_every=20)
    lines = (out / "ratio.csv").read_text().splitlines()
    assert lines[0] == "arrivals,mean_integral_cost,mean_fractional_cost,ratio"
    assert lines[1:] == [f"{m},{ints[m]:.10g},{fracs[m]:.10g},{ratio[m]:.10g}"
                         for m in samples]
    assert "final ratio" in capsys.readouterr().out


@pytest.mark.parametrize("argv, ini", [
    (["simulate", "--slots", "-3"], None),
    (["simulate", "--window", "-2"], None),
    (["simulate"], "[window]\nwindow_T = -4\n"),
    (["simulate"], "[demand]\nlocal_demand = -1\n"),
    (["simulate"], "[demand]\nlifetime = 0\n"),
    (["sweep-window", "--T-range", "5:1"], None),
    (["sweep-window", "--T-range", "0:2"], None),
    (["sweep-window", "--T-range", ","], None),
    (["sweep-window", "--beta-list", "x"], None),
    (["sweep-window", "--beta-list=-0.1"], None),
    (["oracle-check", "--window", "-1"], None),
    (["ratio-curve", "--seeds", "0"], None),
    (["simulate", "--seed", "-1"], None),
    (["simulate"], "[seeds]\nmaster_seed = -1\n"),
    (["oracle-check", "--seed", "-1"], None),
    (["oracle-check", "--samples", "0"], None),
    (["sweep-window", "--seeds", "0"], None),
    (["simulate"], "[demand]\nmean_on_slots = -1\n"),
    (["simulate"], "[demand]\nmean_on_slots = 0\nmean_off_slots = 0\n"),
    (["simulate"], "[error]\nnoise_shape = uniform\n"),
    (["simulate"], "[error]\nbeta = inf\n"),
    (["sweep-window", "--beta-list", "nan"], None),
    (["sweep-window", "--beta-list", "inf"], None),
])
def test_invalid_input_exits_2_before_writing(tmp_path, capsys, argv, ini):
    """Bad values from the command line or the config file are
    configuration errors: exit code 2, the config's first field named,
    and no output directory."""
    config = small_ini(tmp_path)
    if ini is not None:
        config = str(tmp_path / "bad.ini")
        with open(config, "w") as fh:
            fh.write(ini)
    out = tmp_path / "out"
    if argv[0] != "ratio-curve":
        argv = argv + ["--config", config]
    if argv[0] != "oracle-check":
        argv = argv + ["--out-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err
    if ini is not None:
        assert ini.splitlines()[1].split(" = ")[0] in err
    assert not out.exists()


def test_docstring_lists_every_subcommand():
    import argparse

    import mmcplace.cli as cli

    doc = cli.__doc__.split("Subcommands:\n", 1)[1].split("\n\n", 1)[0]
    listed = [line.split()[0] for line in doc.splitlines()]
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert listed == list(sub.choices)


def _desk_variant(tmp_path, **kw):
    """configs/desk.ini with the given fields replaced."""
    desk = Path(__file__).resolve().parent.parent / "configs" / "desk.ini"
    p = tmp_path / "variant.ini"
    p.write_text(serialize_config(
        dataclasses.replace(parse_config(str(desk)), **kw)))
    return str(p)


@pytest.mark.parametrize("variant", [
    dict(n_cells=1), dict(n_cells=2), dict(n_users=0),
    dict(local_demand=0.0), dict(local_demand=5.0), dict(local_demand=6.0),
    dict(capacity=0.5), dict(lifetime=3.0), dict(T_max=1),
    dict(migration_demand=0.0), dict(mobility="trace"),
], ids=lambda v: ",".join(f"{k}={x}" for k, x in v.items()))
def test_edge_inputs_run_to_completion(tmp_path, capsys, variant):
    """Desk variants at the edges (one or two cells, no users, demand 0,
    at or above capacity, a capacity below the demand, finite lifetimes,
    T_max = 1, no migration demand, a 0-byte trace) run simulate and
    sweep-window to exit 0 with no traceback, and write one results row
    per policy and slot, one summary row per policy and one sweep row per
    cell. No users and a 0-byte trace both cost 0 in every slot."""
    empty = variant.get("n_users") == 0 or "mobility" in variant
    if variant.get("mobility") == "trace":
        (tmp_path / "empty.csv").write_bytes(b"")
        variant = dict(variant, trace_file=str(tmp_path / "empty.csv"))
    config = _desk_variant(tmp_path, **variant)
    for slots in (20, 1):
        out = tmp_path / f"sim{slots}"
        assert main(["simulate", "--config", config, "--slots", str(slots),
                     "--out-dir", str(out)]) == 0
        results = (out / "results.csv").read_text().splitlines()
        assert len(results) == 1 + 5 * slots
        if empty:
            assert {row.split(",")[2] for row in results[1:]} == {"0"}
        assert len((out / "summary.csv").read_text().splitlines()) == 1 + 5
    out = tmp_path / "sweep"
    assert main(["sweep-window", "--config", config, "--T-range", "1:2",
                 "--seeds", "1", "--out-dir", str(out)]) == 0
    assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 2 * 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_trace_of_a_synthetic_walk_reproduces_the_run(tmp_path, seed):
    """A desk run's own walk, written as raw 'lat lon occupancy time' logs
    (one per user, one fix per slot at its cell's centre jittered by up to
    0.99 x the cell inradius), goes through convert-trace and mobility =
    trace: the cells array is equal and results.csv is byte-equal."""
    import math

    import numpy as np

    from mmcplace.config import parse_config
    from mmcplace.scenario import EARTH_M_PER_DEG_LAT, EARTH_M_PER_DEG_LON_EQ
    from mmcplace.simulator import build_scenario

    root = Path(__file__).resolve().parent.parent
    cfg = parse_config(str(root / "configs" / "desk.ini"))
    scn = build_scenario(cfg, seed)
    m_per_lon = EARTH_M_PER_DEG_LON_EQ * math.cos(math.radians(cfg.anchor_lat))
    cell_of = {c.id: c for c in scn.topology.cells}
    rng = np.random.default_rng(seed)
    logs = []
    for user, path in enumerate(scn.cells[1:, 1:-1].tolist(), start=1):
        lines = []
        for s, cell in enumerate(path, start=1):
            c = cell_of[cell]
            r = 0.99 * cfg.spacing_m / 2 * rng.random()
            a = 2 * math.pi * rng.random()
            lat = c.lat + r * math.sin(a) / EARTH_M_PER_DEG_LAT
            lon = c.lon + r * math.cos(a) / m_per_lon
            lines.append(f"{lat!r} {lon!r} 1 {(s - 1) * cfg.slot_seconds!r}\n")
        log = tmp_path / f"user{user:03d}.txt"     # sorted order: user order
        log.write_text("".join(lines))
        logs.append(str(log))
    trace = tmp_path / "trace.csv"
    assert main(["convert-trace", *logs, "--out", str(trace)]) == 0
    traced = dataclasses.replace(cfg, mobility="trace", trace_file=str(trace))
    assert np.array_equal(build_scenario(traced, seed).cells, scn.cells)

    results = []
    for name, run_cfg in (("synthetic", cfg), ("trace", traced)):
        ini = tmp_path / f"{name}.ini"
        ini.write_text(serialize_config(run_cfg))
        out = tmp_path / name
        assert main(["simulate", "--config", str(ini), "--seed", str(seed),
                     "--out-dir", str(out)]) == 0
        results.append((out / "results.csv").read_bytes())
    assert results[0] == results[1]
