import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bathlink._format import fmt, write_table
from bathlink.cli import main
from bathlink.correlations import mutual_information
from bathlink.dynamics import evolve_exact, product_state
from bathlink.model import ModelParams, build_liouvillian
from oracles import propagate

REFERENCE_CSV = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "simulate_x.csv"

CANON = ["--gamma1", "1.01", "--gamma2", "0.01", "--omega", "0.001"]


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------- simulate

def test_simulate_csv_shape_and_determinism(tmp_path):
    out = tmp_path / "sim.csv"
    argv = ["simulate", *CANON, "--eta", "1", "--p", "1", "--q", "0",
            "--t-max", "2", "--samples", "20", "--out", str(out)]
    assert main(argv) == 0
    header, rows = read_csv(out)
    assert header == ["t", "negativity", "mutual_info", "discord",
                      "classical_corr", "trace", "min_eig"]
    assert len(rows) == 21
    first_bytes = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first_bytes
    # entanglement builds up from zero
    neg = [r[1] for r in rows]
    assert neg[0] < 1e-12
    assert max(neg) > 1e-3
    for r in rows:
        assert abs(r[5] - 1.0) < 1e-9   # trace column
        assert r[6] > -1e-8             # min eigenvalue column


def test_simulate_decoupled_has_no_entanglement(tmp_path):
    out = tmp_path / "sim0.csv"
    assert main(["simulate", *CANON, "--eta", "0", "--p", "1", "--q", "0",
                 "--t-max", "2", "--samples", "10", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert max(r[1] for r in rows) < 1e-12


def test_simulate_rk4_matches_exact(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    common = [*CANON, "--eta", "1", "--p", "1", "--q", "0",
              "--t-max", "1", "--samples", "5"]
    assert main(["simulate", *common, "--out", str(out_a)]) == 0
    assert main(["simulate", *common, "--method", "rk4", "--steps", "2000",
                 "--out", str(out_b)]) == 0
    _, rows_a = read_csv(out_a)
    _, rows_b = read_csv(out_b)
    for ra, rb in zip(rows_a, rows_b):
        assert abs(ra[1] - rb[1]) < 1e-7


def test_simulate_states_out(tmp_path):
    out = tmp_path / "sim.csv"
    states = tmp_path / "states.csv"
    assert main(["simulate", *CANON, "--eta", "1", "--p", "1", "--q", "0",
                 "--t-max", "1", "--samples", "4", "--out", str(out),
                 "--states-out", str(states)]) == 0
    lines = states.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("t,re_rho_00,im_rho_00")
    assert len(lines) == 6


@pytest.mark.parametrize("states", ["d/sim.csv", "./d/../d/sim.csv"])
def test_simulate_states_out_on_the_out_file_exits_2(tmp_path, monkeypatch, capsys, states):
    # the states file would silently replace the measures table
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    out = tmp_path / "d" / "sim.csv"
    out.write_text("kept\n", encoding="utf-8")
    assert main(["simulate", *CANON, "--eta", "1", "--p", "1", "--q", "0",
                 "--t-max", "1", "--samples", "4", "--out", "d/sim.csv",
                 "--states-out", states]) == 2
    assert "config error: --states-out names the --out file" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "kept\n"
    assert [p.name for p in (tmp_path / "d").iterdir()] == ["sim.csv"]


@pytest.mark.parametrize("omega", [0.7, 5.0])
def test_exact_states_out_is_the_lab_frame(tmp_path, omega):
    # the exact route steps and measures the frame rotating at omega; the
    # states file holds the lab frame, where exp(-i omega t k) is far from 1
    out, states = tmp_path / "sim.csv", tmp_path / "states.csv"
    assert main(["simulate", "--gamma1", "1.3", "--gamma2", "0.4", "--omega", str(omega),
                 "--eta", "0.8", "--p", "0.6", "--q", "-0.4", "--t-max", "6",
                 "--samples", "30", "--out", str(out), "--states-out", str(states)]) == 0
    _, rows = read_csv(states)
    rows = np.array(rows)
    written = (rows[:, 1:33:2] + 1j * rows[:, 2:33:2]).reshape(-1, 4, 4)
    liou = build_liouvillian(ModelParams.from_rates(1.3, 0.4, 0.8, omega))
    rho0 = product_state(0.6, -0.4)
    direct = np.array([propagate(liou.superop, rho0, t) for t in rows[:, 0]])
    # 12 printed digits round each entry by at most 5e-13
    assert np.abs(written - direct).max() < 1e-12
    assert np.abs(written[1:].imag).max() > 0.01


@pytest.mark.parametrize("method", ["exact", "rk4"])
def test_simulate_prints_the_trace_and_min_eig_the_check_tested(tmp_path, monkeypatch, method):
    import bathlink.cli as cli
    import bathlink.dynamics as dynamics

    trajectories, tables = [], {}
    evolve = cli.evolve_rk if method == "rk4" else cli.evolve_exact

    def traced_evolve(*args, **kwargs):
        trajectories.append(evolve(*args, **kwargs))
        return trajectories[-1]

    def recorder(module):
        write = module.write_table

        def traced_write(path, fmt_, columns, table):
            tables[path] = dict(zip(columns, table.T))
            write(path, fmt_, columns, table)
        return traced_write

    monkeypatch.setattr(cli, "evolve_rk" if method == "rk4" else "evolve_exact", traced_evolve)
    monkeypatch.setattr(cli, "write_table", recorder(cli))
    monkeypatch.setattr(dynamics, "write_table", recorder(dynamics))
    out, states = str(tmp_path / "sim.csv"), str(tmp_path / "states.csv")
    assert main(["simulate", *CANON, "--eta", "0.555911", "--p", "0.6", "--q", "-0.4",
                 "--t-max", "6", "--samples", "50", "--method", method,
                 "--out", out, "--states-out", states]) == 0
    (traj,) = trajectories
    assert traj.trace.shape == traj.min_eig.shape == (51,)
    for path in (out, states):
        assert np.array_equal(tables[path]["trace"], traj.trace)
        assert np.array_equal(tables[path]["min_eig"], traj.min_eig)


def test_simulate_json_format(tmp_path):
    out = tmp_path / "sim.json"
    assert main(["simulate", *CANON, "--eta", "1", "--p", "1", "--q", "0",
                 "--t-max", "1", "--samples", "4", "--format", "json",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["columns"][0] == "t"
    assert len(payload["rows"]) == 5


def test_simulate_bad_flag_combinations(tmp_path, capsys):
    out = tmp_path / "x.csv"
    base = ["simulate", "--p", "1", "--q", "0", "--t-max", "1", "--out", str(out)]
    assert main([*base, *CANON, "--eta", "1", "--temperature", "0.5"]) == 2
    assert "not both" in capsys.readouterr().err
    assert main([*base, "--gamma1", "1.01", "--omega", "0.001", "--eta", "1"]) == 2
    assert "--gamma2" in capsys.readouterr().err
    assert main([*base, *CANON]) == 2
    assert "--eta" in capsys.readouterr().err
    assert main(["simulate", *CANON, "--eta", "1", "--p", "2", "--q", "0",
                 "--t-max", "1", "--out", str(out)]) == 2
    assert "p, q must lie in [-1, 1], got (2.0, 0.0)" in capsys.readouterr().err
    assert main(["simulate", *CANON, "--eta", "1", "--p", "1", "--q", "0",
                 "--t-max", "1", "--steps", "50", "--out", str(out)]) == 2
    assert not out.exists()


def test_simulate_stability_failure_leaves_no_file(tmp_path, capsys):
    out = tmp_path / "unstable.csv"
    code = main(["simulate", *CANON, "--eta", "1", "--p", "1", "--q", "0",
                 "--t-max", "50", "--samples", "1", "--method", "rk4",
                 "--steps", "1", "--out", str(out)])
    assert code == 3
    assert "numerical invariant failure" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_canonical_matches_reference(tmp_path):
    # the README's canonical run against its stored output
    out = tmp_path / "run.csv"
    assert main(["simulate", *CANON, "--eta", "1", "--p", "1", "--q", "0",
                 "--t-max", "6", "--samples", "400", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    ref_header, ref_rows = read_csv(REFERENCE_CSV)
    assert header == ref_header
    assert np.abs(np.array(rows) - np.array(ref_rows)).max() <= 1e-12


def test_simulate_rejects_non_finite_t_max(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for value in ("nan", "inf"):
        assert main(["simulate", *CANON, "--eta", "1", "--p", "1", "--q", "0",
                     "--t-max", value, "--out", str(out)]) == 2
        assert "--t-max must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_non_finite_params(tmp_path, capsys):
    out = tmp_path / "x.csv"
    base = ["simulate", "--p", "1", "--q", "0", "--t-max", "1", "--out", str(out)]
    assert main([*base, "--gamma1", "nan", "--gamma2", "0.01", "--eta", "1",
                 "--omega", "0.001"]) == 2
    assert "gamma1 must be finite" in capsys.readouterr().err
    assert main([*base, *CANON, "--eta", "inf"]) == 2
    assert "eta must be finite" in capsys.readouterr().err
    assert main([*base, "--temperature", "inf", "--eta", "1", "--omega", "0.001"]) == 2
    assert "temperature must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_non_finite_propagator_exits_3(tmp_path, capsys):
    # exp(5e299 L): the powers of t L overflow, so the propagator is not finite
    out = tmp_path / "x.csv"
    assert main(["simulate", *CANON, "--eta", "0.5", "--p", "1", "--q", "0",
                 "--t-max", "1e300", "--samples", "2", "--out", str(out)]) == 3
    assert "is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rk4_rounding_floor_exits_3(tmp_path, capsys):
    # 5e12 steps per sample: the step-matrix power finishes at once, and the
    # rounding of 1 + hS at h = 1e-13 shows up as trace drift
    out = tmp_path / "x.csv"
    assert main(["simulate", *CANON, "--eta", "1", "--p", "1", "--q", "0",
                 "--method", "rk4", "--t-max", "1", "--samples", "2",
                 "--steps", "10000000000000", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "state at t=0.5: trace deviates by" in err
    assert err.rstrip().endswith(
        "; the step count is too small, or so large that rounding dominates")
    assert list(tmp_path.iterdir()) == []


def test_simulate_rk4_steps_beyond_float_range_exits_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["simulate", *CANON, "--eta", "1", "--p", "1", "--q", "0",
                 "--method", "rk4", "--t-max", "1", "--samples", "2",
                 "--steps", str(10**400), "--out", str(out)]) == 2
    assert "step size underflows" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_witness_overflowing_excess_exits_3(tmp_path, capsys):
    # B^2 overflows at rates of 1e150; at 8e307 B itself does, before any
    # report is formed (under tier-1's error::RuntimeWarning a warning would raise)
    out = tmp_path / "w.json"
    for rates, eta, p, q, message in [
        ("1e150", "1e4", "0.6", "0.3", "entangling excess B^2 - 4AC is not finite"),
        ("8e307", "1", "0.5", "0.5", "rate form coefficients A, B, C are not finite"),
    ]:
        assert main(["witness", "--gamma1", rates, "--gamma2", rates, "--eta", eta,
                     "--omega", "1", "--p", p, "--q", q, "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_huge_eta_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["witness", "--gamma1", "1", "--gamma2", "0.01", "--eta", "1e200",
                 "--omega", "1", "--kappa1", "1", "--kappa3", "1", "--out", str(out)]) == 2
    assert "Kossakowski matrix is not finite" in capsys.readouterr().err
    assert main(["simulate", *CANON, "--eta", "1e200", "--p", "1", "--q", "0",
                 "--t-max", "1", "--out", str(out)]) == 2
    assert "Kossakowski matrix is not finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_missing_output_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["simulate", *CANON, "--eta", "1", "--p", "1", "--q", "0",
                 "--t-max", "1", "--samples", "2", "--out", str(out)]) == 2
    assert "cannot write output" in capsys.readouterr().err
    assert not out.parent.exists()


def test_simulate_near_zero_temperature(tmp_path):
    # 1/T = 1000 overflows e^(1/T); gamma2 underflows to 0, gamma1 = zeta
    out = tmp_path / "cold.csv"
    assert main(["simulate", "--temperature", "0.001", "--eta", "1", "--omega", "0.001",
                 "--p", "1", "--q", "0", "--t-max", "1", "--samples", "10",
                 "--out", str(out)]) == 0
    warm = tmp_path / "warm.csv"
    assert main(["simulate", "--gamma1", "1", "--gamma2", "0", "--eta", "1",
                 "--omega", "0.001", "--p", "1", "--q", "0", "--t-max", "1",
                 "--samples", "10", "--out", str(warm)]) == 0
    assert out.read_bytes() == warm.read_bytes()


# ----------------------------------------------------------------- heatmap

def test_heatmap_rejects_bad_samples(tmp_path, capsys):
    out = tmp_path / "heat.csv"
    for value in ("-5", "0"):
        assert main(["heatmap", *CANON, "--observable", "negativity", "--axis", "eta",
                     "--axis-min", "0", "--axis-max", "1", "--axis-steps", "3",
                     "--p", "1", "--q", "0", "--t-max", "1", "--samples", value,
                     "--out", str(out)]) == 2
        assert f"--samples must be >= 1, got {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_heatmap_eta_axis(tmp_path):
    out = tmp_path / "heat.csv"
    assert main(["heatmap", *CANON, "--observable", "negativity",
                 "--axis", "eta", "--axis-values", "0,0.5,1",
                 "--p", "1", "--q", "0", "--t-max", "1", "--samples", "4",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "axis_value", "observable"]
    assert len(rows) == 15
    zero_eta = [r[2] for r in rows if r[1] == 0.0]
    assert max(zero_eta) < 1e-12


def test_heatmap_eta_axis_rejects_eta_flag(tmp_path, capsys):
    out = tmp_path / "heat.csv"
    assert main(["heatmap", *CANON, "--eta", "1", "--observable", "negativity",
                 "--axis", "eta", "--axis-values", "0.5",
                 "--p", "1", "--q", "0", "--t-max", "1", "--out", str(out)]) == 2
    assert "drop --eta" in capsys.readouterr().err


def test_heatmap_temperature_axis(tmp_path):
    out = tmp_path / "heatT.csv"
    assert main(["heatmap", "--omega", "0.001", "--eta", "1",
                 "--observable", "negativity", "--axis", "temperature",
                 "--axis-values", "0.3,1.0", "--p", "1", "--q", "0",
                 "--t-max", "1", "--samples", "4", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 10
    # hotter bath produces less entanglement at the final sample
    cold = [r[2] for r in rows if r[1] == 0.3][-1]
    hot = [r[2] for r in rows if r[1] == 1.0][-1]
    assert cold > hot


def test_heatmap_temperature_axis_rejects_rate_flags(tmp_path, capsys):
    out = tmp_path / "heatT.csv"
    assert main(["heatmap", *CANON, "--eta", "1", "--observable", "negativity",
                 "--axis", "temperature", "--axis-values", "0.5",
                 "--p", "1", "--q", "0", "--t-max", "1", "--out", str(out)]) == 2
    assert "derives the rates" in capsys.readouterr().err


@pytest.mark.parametrize("axis,values,message", [
    ("eta", "0.5,-1", "eta must be >= 0, got -1.0"),
    ("temperature", "0.5,0", "temperature must be finite and > 0, got 0.0"),
])
def test_heatmap_checks_every_value_before_building(tmp_path, capsys, monkeypatch,
                                                    axis, values, message):
    import bathlink.cli as cli

    builds = []
    monkeypatch.setattr(cli, "build_liouvillian", lambda p: builds.append(p))
    flags = ["--omega", "0.001"] + (["--gamma1", "1.01", "--gamma2", "0.01"]
                                    if axis == "eta" else ["--eta", "1"])
    out = tmp_path / "heat.csv"
    assert main(["heatmap", *flags, "--observable", "negativity", "--axis", axis,
                 "--axis-values", values, "--p", "1", "--q", "0", "--t-max", "1",
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert builds == [] and not out.exists()


@pytest.mark.parametrize("value, message", [
    ("1e150", "exp(t A) is not finite at t=0.25"),
    ("1e7", "state at t=0.25: trace deviates by 1.399e-04"),
])
def test_heatmap_failure_names_the_sweep_point(tmp_path, capsys, value, message):
    out = tmp_path / "heat.csv"
    assert main(["heatmap", *CANON, "--observable", "negativity", "--axis", "eta",
                 "--axis-values", f"0.5,{value}", "--p", "0.6", "--q", "0.3",
                 "--t-max", "1", "--samples", "4", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert message in err
    assert err.rstrip().endswith(f"eta={float(value):g}")
    assert list(tmp_path.iterdir()) == []


def test_heatmap_range_axis(tmp_path):
    out = tmp_path / "heat2.csv"
    assert main(["heatmap", *CANON, "--observable", "mutual_info",
                 "--axis", "eta", "--axis-min", "0.2", "--axis-max", "1.0",
                 "--axis-steps", "3", "--p", "1", "--q", "0",
                 "--t-max", "1", "--samples", "2", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert sorted({r[1] for r in rows}) == [0.2, 0.6, 1.0]


def test_heatmap_builds_and_steps_the_sweep_in_one_call(tmp_path, monkeypatch):
    import bathlink.cli as cli

    builds, evolves = [], []
    real_build, real_evolve = cli.build_liouvillian, cli.evolve_exact

    def build(params):
        builds.append(params)
        return real_build(params)

    def evolve(generators, rho0, times):
        evolves.append(generators)
        return real_evolve(generators, rho0, times)

    monkeypatch.setattr(cli, "build_liouvillian", build)
    monkeypatch.setattr(cli, "evolve_exact", evolve)
    assert main(["heatmap", *CANON, "--observable", "negativity", "--axis", "eta",
                 "--axis-values", "0,0.5,1", "--p", "1", "--q", "0", "--t-max", "1",
                 "--samples", "4", "--out", str(tmp_path / "heat.csv")]) == 0
    assert len(builds) == 1 and [p.eta for p in builds[0]] == [0.0, 0.5, 1.0]
    assert len(evolves) == 1 and len(evolves[0]) == 3


def test_heatmap_at_zero_t_max_emits_the_initial_state_per_value(tmp_path):
    out = tmp_path / "heat0.csv"
    assert main(["heatmap", *CANON, "--observable", "mutual_info", "--axis", "eta",
                 "--axis-values", "0,0.5,1", "--p", "0.6", "--q", "0.3", "--t-max", "0",
                 "--out", str(out)]) == 0
    start = fmt(mutual_information(product_state(0.6, 0.3)))
    assert out.read_text(encoding="utf-8") == (
        "t,axis_value,observable\n"
        f"0,0,{start}\n0,0.5,{start}\n0,1,{start}\n"
    )


def test_heatmap_temperature_axis_matches_per_value_runs(tmp_path):
    out = tmp_path / "heatT.csv"
    temperatures = [0.2, 0.5, 1.0, 2.0]
    assert main(["heatmap", "--omega", "0.001", "--eta", "0.6",
                 "--observable", "mutual_info", "--axis", "temperature",
                 "--axis-values", ",".join(map(str, temperatures)), "--p", "0.6",
                 "--q", "0.3", "--t-max", "3", "--samples", "30", "--out", str(out)]) == 0
    times = np.linspace(0.0, 3.0, 31)
    blocks = []
    for temperature in temperatures:
        liou = build_liouvillian(ModelParams.from_temperature(1.0, temperature, 0.6, 0.001))
        traj = evolve_exact(liou, product_state(0.6, 0.3), times)
        blocks.append(np.column_stack(
            [times, np.full(times.size, temperature), mutual_information(traj.frame_states)]
        ))
    ref = tmp_path / "ref.csv"
    write_table(str(ref), "csv", ["t", "axis_value", "observable"], np.concatenate(blocks))
    assert out.read_bytes() == ref.read_bytes()


# ------------------------------------------------------------------ region

def test_region_csv_and_confirmation(tmp_path):
    out = tmp_path / "region.csv"
    assert main(["region", *CANON, "--eta", "1", "--n", "9",
                 "--confirm-dynamics", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["p", "q", "entangling", "excess", "negativity"]
    assert len(rows) == 81
    for r in rows:
        flagged = r[2] == 1.0
        assert flagged == (r[4] > 1e-10)


def test_region_minimal_grid(tmp_path):
    out = tmp_path / "region2.csv"
    assert main(["region", *CANON, "--eta", "1", "--n", "2", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 4
    assert all(r[2] == 0.0 for r in rows)


def test_region_rejects_bad_grid(tmp_path, capsys):
    assert main(["region", *CANON, "--eta", "1", "--n", "1",
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert "resolution" in capsys.readouterr().err


def test_region_rejects_bad_tau(tmp_path, capsys):
    out = tmp_path / "r.csv"
    for value in ("-1", "0", "nan", "inf"):
        assert main(["region", *CANON, "--eta", "1", "--n", "5", "--confirm-dynamics",
                     "--tau", value, "--out", str(out)]) == 2
        assert "tau must be finite and > 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_region_non_finite_propagator_exits_3(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["region", *CANON, "--eta", "1", "--n", "3", "--tau", "1e300",
                 "--confirm-dynamics", "--out", str(out)]) == 3
    assert "is not finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    (["--spot-checks", "-1"], "spot checks must be >= 0, got -1"),
])
def test_region_rejects_negative_seed_and_spot_checks(tmp_path, capsys, flags, message):
    out = tmp_path / "r.csv"
    assert main(["region", *CANON, "--eta", "1", "--n", "3", *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flags[0][2:]: -3}), encoding="utf-8")
    assert main(["region", *CANON, "--eta", "1", "--n", "3", "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert message.replace("-1", "-3") in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


# ------------------------------------------------------------ steady-state

def test_steady_state_generic_coupling(tmp_path):
    out = tmp_path / "ss.json"
    assert main(["steady-state", *CANON, "--eta", "0.7", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["null_space_dim"] == 1
    assert payload["analytic_residual_max"] < 1e-10
    assert payload["numeric_residual_max"] < 1e-10
    assert payload["trace_norm_difference"] < 1e-8
    assert payload["analytic"]["rows"] == 4


def test_steady_state_equal_couplings_reports_degeneracy(tmp_path):
    out = tmp_path / "ss1.json"
    assert main(["steady-state", *CANON, "--eta", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["null_space_dim"] == 2
    assert payload["analytic_residual_max"] < 1e-10


def test_steady_state_zero_gamma2(tmp_path, capsys):
    out = tmp_path / "ss2.json"
    argv = ["steady-state", "--gamma1", "1", "--gamma2", "0", "--omega", "0.001",
            "--eta", "1", "--out", str(out)]
    assert main(argv) == 2
    assert "gamma2 = 0" in capsys.readouterr().err
    assert main([*argv, "--mode", "numeric"]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["null_space_dim"] > 1
    assert "analytic" not in payload


@pytest.mark.parametrize("eta", ["1e-4", "0.9995", "0.9999"])
def test_steady_state_reports_a_one_dimensional_kernel_near_the_ends_of_eta(tmp_path, eta):
    out = tmp_path / "ss.json"
    assert main(["steady-state", *CANON, "--eta", eta, "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["null_space_dim"] == 1


def test_steady_state_equal_rates(tmp_path):
    out = tmp_path / "ss3.json"
    assert main(["steady-state", "--gamma1", "0.5", "--gamma2", "0.5",
                 "--omega", "0.001", "--eta", "0.3", "--mode", "analytic",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    entries = np.array(payload["analytic"]["entries"])
    diag = entries.reshape(4, 4, 2)[range(4), range(4), 0]
    assert np.allclose(diag, 0.25)


# ----------------------------------------------------------------- witness

def test_witness_kappa_mode(tmp_path):
    out = tmp_path / "w.json"
    assert main(["witness", *CANON, "--eta", "1", "--kappa1", "0.5",
                 "--kappa3", "1", "--roots", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert abs(payload["dxi0"] + 0.495) < 1e-12
    assert payload["entangling"] is True
    assert payload["xi0"] == 0.0
    lo, hi = payload["kappa1_root_interval"]
    assert lo < 0.5 < hi


def test_witness_kappa_opposite_sign_note(tmp_path, capsys):
    out = tmp_path / "w2.json"
    assert main(["witness", *CANON, "--eta", "1", "--kappa1", "1",
                 "--kappa3", "-0.5", "--out", str(out)]) == 0
    assert "opposite-sign" in capsys.readouterr().out
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert abs(payload["dxi0"] - 3.045) < 1e-12
    assert payload["entangling"] is False
    assert "note" in payload


def test_witness_pq_mode(tmp_path):
    out = tmp_path / "w3.json"
    assert main(["witness", *CANON, "--eta", "1", "--p", "1", "--q", "1",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["entangling"] is False
    assert payload["excess"] <= 0.0


def test_witness_flag_validation(tmp_path, capsys):
    out = tmp_path / "w4.json"
    assert main(["witness", *CANON, "--eta", "1", "--kappa1", "1",
                 "--kappa3", "1", "--p", "1", "--q", "0", "--out", str(out)]) == 2
    capsys.readouterr()
    assert main(["witness", *CANON, "--eta", "1", "--p", "1", "--q", "0",
                 "--roots", "--out", str(out)]) == 2
    assert "kappa form" in capsys.readouterr().err


@pytest.mark.parametrize("amplitudes", [
    ["--p", "2", "--q", "0"],
    ["--p", "0.5", "--q", "1.5"],
    ["--p", "0.5", "--q", "1.5", "--alpha", "1", "--beta", "1"],
    ["--p", "inf", "--q", "0"],
])
def test_witness_rejects_amplitudes_outside_the_unit_interval(tmp_path, capsys, amplitudes):
    out = tmp_path / "w.json"
    assert main(["witness", *CANON, "--eta", "1", *amplitudes, "--out", str(out)]) == 2
    assert "p, q must lie in [-1, 1]" in capsys.readouterr().err
    assert not out.exists()


WITNESS_PROBE = ["witness", "--gamma1", "1.01", "--gamma2", "0.01", "--omega", "0.001",
                 "--eta", "0.6"]


@pytest.mark.parametrize("coefficients,code,message", [
    (["--p", "0.5", "--q", "0.5", "--alpha", "1e160", "--beta", "1"], 3,
     "the rate form overflows"),
    (["--kappa1", "1e200", "--kappa3", "1"], 3, "the rate form overflows"),
    (["--kappa1", "0", "--kappa3", "0"], 2,
     "witness direction vanishes at kappa1=0, kappa2=0, kappa3=0"),
    (["--p", "0.5", "--q", "0.5", "--alpha", "nan", "--beta", "1"], 2, "alpha must be finite"),
    (["--p", "0.5", "--q", "0.5", "--alpha", "1", "--beta=-inf"], 2, "beta must be finite"),
    (["--kappa1", "nan", "--kappa3", "1"], 2, "kappa1 must be finite"),
    (["--kappa1", "1", "--kappa3", "1", "--kappa2", "nan"], 2, "kappa2 must be finite"),
])
def test_witness_direction_coefficients_exit_with_a_message(tmp_path, coefficients, code,
                                                            message):
    out = tmp_path / "w.json"
    result = subprocess.run(
        [sys.executable, "-m", "bathlink.cli", *WITNESS_PROBE, *coefficients, "--out", str(out)],
        capture_output=True, encoding="utf-8",
    )
    assert result.returncode == code
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert "RuntimeWarning" not in result.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("coefficients,unit,direction", [
    (["--eta", "1e-320", "--kappa1", "1e-300", "--kappa3", "1e-300", "--roots"],
     ["--eta", "1e-320", "--kappa1", "1", "--kappa3", "1"],
     "kappa1=1e-300, kappa2=0, kappa3=1e-300"),
    (["--eta", "0.6", "--p", "0.5", "--q", "0.5", "--alpha", "1e-300", "--beta", "1e-300"],
     ["--eta", "0.6", "--p", "0.5", "--q", "0.5", "--alpha", "1", "--beta", "1"],
     "p=0.5, q=0.5, alpha=1e-300, beta=1e-300"),
    (["--eta", "0.6", "--kappa1", "1e-300", "--kappa2", "1e-300", "--kappa3", "1e-300"],
     ["--eta", "0.6", "--kappa1", "1", "--kappa2", "1", "--kappa3", "1"],
     "kappa1=1e-300, kappa2=1e-300, kappa3=1e-300"),
    (["--eta", "0.6", "--kappa1", "1", "--kappa2", "1e200", "--kappa3", "1"],
     ["--eta", "0.6", "--kappa1", "1", "--kappa2", "1", "--kappa3", "1"],
     "kappa1=1, kappa2=1e+200, kappa3=1"),
])
def test_witness_reports_directions_of_any_finite_scale(tmp_path, coefficients, unit,
                                                        direction):
    # the norm and the rate are taken after a power-of-two rescale, so the
    # direction neither vanishes nor overflows, and the verdict and the sign
    # of the rate (kept as -0.0 where it underflows) are those at scale 1
    payloads = []
    for name, flags in (("w.json", coefficients), ("unit.json", unit)):
        out = tmp_path / name
        assert main(["witness", "--gamma1", "1.01", "--gamma2", "0.01", "--omega", "0.001",
                     *flags, "--out", str(out)]) == 0
        payloads.append(json.loads(out.read_text(encoding="utf-8")))
    payload, reference = payloads
    assert payload["direction"] == direction
    assert abs(payload["xi0"]) < 1e-12
    assert payload["entangling"] == reference["entangling"]
    assert math.copysign(1.0, payload["dxi0"]) == math.copysign(1.0, reference["dxi0"])


def test_witness_roots_that_overflow_exit_3(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert main(["witness", "--gamma1", "1.01", "--gamma2", "0.01", "--omega", "0.001",
                 "--eta", "1e-320", "--kappa1", "1", "--kappa3", "1", "--roots",
                 "--out", str(out)]) == 3
    assert "kappa1 root interval is not finite at kappa3=1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,code,message", [
    (["steady-state", "--gamma1", "1e200", "--gamma2", "1.01", "--omega", "0.001",
      "--eta", "0"], 3, "thermal ratio gamma1/gamma2 = 9.901e+199 is too large"),
    (["steady-state", "--gamma1", "1.01", "--gamma2", "1e-320", "--omega", "0.001",
      "--eta", "1"], 3, "thermal ratio gamma1/gamma2 = inf is too large"),
    (["region", *CANON[:4], "--omega", "1e308", "--eta", "0.5", "--n", "3"], 3,
     "generator is not finite at omega=1e+308"),
    (["simulate", *CANON[:4], "--omega", "1e308", "--eta", "0.5", "--p", "1", "--q", "0",
      "--t-max", "1"], 3, "generator is not finite at omega=1e+308"),
    (["simulate", *CANON, "--eta", "0.5", "--p", "1", "--q", "0", "--t-max", "1e306",
      "--method", "rk4"], 2, "--t-max 1e+306 is too long for the default rk4 step count"),
])
def test_overflowing_inputs_exit_with_a_message(tmp_path, capsys, argv, code, message):
    # RuntimeWarnings are errors under the suite's filter, so none is raised either
    assert main([*argv, "--out", str(tmp_path / "x.json")]) == code
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_failed_states_out_leaves_no_output(tmp_path, capsys):
    out = tmp_path / "ok.csv"
    assert main(["simulate", *CANON, "--eta", "1", "--p", "1", "--q", "0", "--t-max", "1",
                 "--samples", "2", "--states-out", str(tmp_path / "missing" / "s.csv"),
                 "--out", str(out)]) == 2
    assert "cannot write output" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------------ config

def test_config_file_supplies_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma1": 1.01, "gamma2": 0.01, "eta": 1.0,
                               "omega": 0.001, "p": 1.0, "q": 0.0,
                               "t-max": 1.0, "samples": 4}), encoding="utf-8")
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 5


def test_config_file_collision_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eta": 1.0}), encoding="utf-8")
    out = tmp_path / "sim.csv"
    assert main(["simulate", *CANON, "--eta", "1", "--p", "1", "--q", "0",
                 "--t-max", "1", "--config", str(cfg), "--out", str(out)]) == 2
    assert "both on the command line" in capsys.readouterr().err


@pytest.mark.parametrize("content,message", [
    # JSON text is UTF-8 (RFC 8259): a stray byte is reported like bad JSON
    (b'{"eta": 1, "omega": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    # json parses integers past 4300 digits into a ValueError, not a JSONDecodeError
    (b'{"eta": 1' + b"0" * 5000 + b', "omega": 1}', "Exceeds the limit (4300 digits)"),
])
def test_config_file_that_cannot_be_read_is_a_config_error(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    out = tmp_path / "w.json"
    assert main(["witness", *CANON[:4], "--kappa1", "1", "--kappa3", "1",
                 "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"cannot read --config {cfg}: {message}")
    assert not out.exists()


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frequency": 2.0}), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_values_parse_like_flags(tmp_path, capsys):
    base = ["simulate", "--gamma1", "1.01", "--gamma2", "0.01", "--p", "1", "--q", "0",
            "--t-max", "1", "--samples", "4"]
    flags = tmp_path / "flags.csv"
    assert main([*base, "--eta", "1", "--omega", "0.001", "--out", str(flags)]) == 0
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "cfg.csv"
    # a string is parsed as its command-line text would be
    cfg.write_text(json.dumps({"eta": 1, "omega": "0.001"}), encoding="utf-8")
    assert main([*base, "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_bytes() == flags.read_bytes()
    out.unlink()
    bad = [
        ({"eta": 1, "omega": "abc"}, "'omega': invalid value 'abc'"),
        ({"eta": 1, "omega": True}, "'omega' must be a number or a string"),
        ({"eta": [1], "omega": 0.001}, "'eta' must be a number or a string"),
        ({"eta": 1, "omega": 0.001, "method": "euler"}, "'method' must be one of exact, rk4"),
        ({"eta": 1, "omega": 0.001, "steps": 2.5}, "'steps': invalid value 2.5"),
    ]
    for payload, message in bad:
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        assert main([*base, "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
    cfg.write_text(json.dumps({"confirm-dynamics": 1}), encoding="utf-8")
    assert main(["region", *CANON, "--eta", "1", "--n", "3", "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert "'confirm-dynamics' must be true or false" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "flags.csv"]
    cfg.write_text(json.dumps({"confirm-dynamics": True}), encoding="utf-8")
    assert main(["region", *CANON, "--eta", "1", "--n", "3", "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert read_csv(out)[0][-1] == "negativity"


# The first array of each run is 8e14 bytes, beyond a 2**47-byte address
# space, so its allocation fails before any page is touched.
HUGE = str(10**14)


@pytest.mark.parametrize("argv", [
    ["region", *CANON, "--eta", "1", "--n", HUGE, "--confirm-dynamics"],
    ["heatmap", *CANON, "--observable", "negativity", "--axis", "eta", "--axis-min", "0",
     "--axis-max", "1", "--axis-steps", "3", "--p", "0.6", "--q", "0.3", "--t-max", "6",
     "--samples", HUGE],
    ["simulate", *CANON, "--eta", "1", "--p", "1", "--q", "0", "--t-max", "6",
     "--samples", HUGE],
], ids=["region_n", "heatmap_samples", "simulate_samples"])
def test_a_run_beyond_memory_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: the requested size does not fit in memory (")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------- error exits

HEAT = ["heatmap", *CANON, "--observable", "negativity", "--axis", "eta", "--p", "1", "--q", "0",
        "--t-max", "1", "--samples", "4"]


@pytest.mark.parametrize("argv, message", [
    (["simulate", *CANON, "--eta", "1", "--p", "1", "--q", "0", "--config", "{cfg}"],
     "--config must contain a JSON object"),
    ([*HEAT, "--axis-values", "0.5", "--axis-min", "0"],
     "config error: --axis-values excludes --axis-min/max/steps"),
    ([*HEAT, "--axis-values", ","], "config error: --axis-values is empty"),
    (["witness", *CANON, "--eta", "1"], "config error: give --kappa1/--kappa3 or --p/--q"),
], ids=["config_array", "axis_values_and_min", "axis_values_empty", "witness_no_direction"])
def test_config_errors_exit_2_with_their_message(tmp_path, capsys, argv, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('[{"eta": 1}]', encoding="utf-8")
    out = tmp_path / "x.out"
    assert main([*(arg.format(cfg=cfg) for arg in argv), "--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


def test_region_spot_check_without_negativity_exits_3(tmp_path, capsys, monkeypatch):
    import bathlink.witness as witness

    monkeypatch.setattr(witness, "negativity", lambda rho: np.zeros(len(rho)))
    out = tmp_path / "region.csv"
    assert main(["region", *CANON, "--eta", "1", "--n", "5", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical invariant failure: point (")
    assert err.endswith(") is flagged entangling but shows no negativity at t=0.0001\n")
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------------- misc

def test_module_entrypoint_help():
    result = subprocess.run(
        [sys.executable, "-m", "bathlink.cli", "simulate", "--help"],
        capture_output=True, encoding="utf-8",
    )
    assert result.returncode == 0
    for flag in ("--gamma1", "--gamma2", "--temperature", "--zeta", "--eta",
                 "--omega", "--out", "--format", "--p", "--q", "--t-max"):
        assert flag in result.stdout


def test_cli_import_skips_optimizer_and_jit():
    code = ("import sys, bathlink.cli\n"
            "print(sorted(m for m in ('scipy.optimize', 'numba') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, encoding="utf-8",
                            check=True)
    assert result.stdout.strip() == "[]"


def test_cli_import_loads_no_scipy():
    code = ("import sys, bathlink.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, encoding="utf-8",
                            check=True)
    assert result.stdout.strip() == "[]"


def test_cli_import_loads_only_the_package_after_its_dependencies():
    # numpy and every standard module the sources import come first, so the
    # difference is the package's own cost; a new import fails here on purpose
    code = ("import sys, numpy, argparse, collections.abc, contextlib, dataclasses, functools, "
            "itertools, json, logging, math, numbers, os, random\n"
            "before = set(sys.modules)\n"
            "import bathlink.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, encoding="utf-8",
                            check=True)
    assert result.stdout.split() == [
        "__future__", "bathlink", "bathlink._format", "bathlink._kernels", "bathlink.cli",
        "bathlink.correlations", "bathlink.dynamics", "bathlink.errors", "bathlink.matops",
        "bathlink.model", "bathlink.witness",
    ]


def test_cli_runs_load_no_numpy_random(tmp_path):
    # numpy loads numpy.random lazily, at a cost of about 12 ms and 6 MB per run
    runs = [
        ["simulate", *CANON, "--eta", "1", "--p", "1", "--q", "0", "--t-max", "1",
         "--samples", "4", "--out", str(tmp_path / "sim.csv")],
        ["heatmap", *CANON, "--observable", "negativity", "--axis", "eta",
         "--axis-values", "0.5,1", "--p", "0.6", "--q", "0.3", "--t-max", "1",
         "--samples", "4", "--out", str(tmp_path / "heat.csv")],
        ["region", *CANON, "--eta", "1", "--n", "11", "--out", str(tmp_path / "region.json"),
         "--format", "json"],
        ["steady-state", *CANON, "--eta", "0.7", "--out", str(tmp_path / "steady.json")],
        ["witness", *CANON, "--eta", "1", "--p", "0.6", "--q", "0.3",
         "--out", str(tmp_path / "witness.json")],
    ]
    code = ("import json, sys, numpy\n"
            "eager = 'numpy.random' in sys.modules\n"
            "from bathlink.cli import main\n"
            f"codes = [main(argv) for argv in {runs!r}]\n"
            "print(json.dumps([codes, eager, 'numpy.random' in sys.modules]))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, encoding="utf-8",
                            check=True)
    codes, eager, loaded = json.loads(result.stdout)
    assert codes == [0, 0, 0, 0, 0]
    payload = json.loads((tmp_path / "region.json").read_text(encoding="utf-8"))
    assert len(payload["spot_checks"]) == 10
    if eager:
        pytest.skip("this numpy imports numpy.random together with numpy")
    assert not loaded


def test_heatmap_discord_matches_simulate(tmp_path):
    out = tmp_path / "heat.csv"
    assert main(["heatmap", *CANON, "--observable", "discord",
                 "--axis", "eta", "--axis-values", "0,1",
                 "--p", "1", "--q", "0", "--t-max", "1", "--samples", "4",
                 "--out", str(out)]) == 0
    sim = tmp_path / "sim.csv"
    assert main(["simulate", *CANON, "--eta", "1", "--p", "1", "--q", "0",
                 "--t-max", "1", "--samples", "4", "--out", str(sim)]) == 0
    _, rows = read_csv(out)
    _, sim_rows = read_csv(sim)
    assert [r[2] for r in rows if r[1] == 1.0] == [r[3] for r in sim_rows]


def test_json_only_commands_reject_csv(tmp_path, capsys):
    # the parser exits directly on an invalid choice
    with pytest.raises(SystemExit) as exc:
        main(["steady-state", *CANON, "--eta", "1", "--format", "csv",
              "--out", str(tmp_path / "s.json")])
    assert exc.value.code == 2
    capsys.readouterr()
    # a config value goes through the same choices as the flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "csv"}), encoding="utf-8")
    assert main(["witness", *CANON, "--eta", "1", "--kappa1", "0.5",
                 "--kappa3", "1", "--config", str(cfg),
                 "--out", str(tmp_path / "w.json")]) == 2
    assert "'format' must be one of json, got 'csv'" in capsys.readouterr().err


# ------------------------------------------------------------ CLI surface

COMMANDS = ["simulate", "heatmap", "region", "steady-state", "witness"]
SIMULATE = ["simulate", *CANON, "--eta", "1", "--p", "1", "--q", "0", "--t-max", "1"]
# argv, exit code and a phrase of the message each invocation prints
SURFACE = {
    "help": (["--help"], 0, "usage: bathlink"),
    **{f"help_{c}": ([c, "--help"], 0, f"usage: bathlink {c}") for c in COMMANDS},
    "no_arguments": ([], 2, "the following arguments are required: command"),
    "unknown_command": (["bogus"], 2, "invalid choice"),
    "unknown_flag": ([*SIMULATE, "--out", "{out}", "--bogus", "1"], 2,
                     "unrecognized arguments: --bogus 1"),
    "foreign_config_key": ([*SIMULATE, "--out", "{out}", "--config", "{config}"], 2,
                           "unknown config key 'observable'"),
}


def _surface_run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse exits on --help and on bad flags
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", SURFACE)
def test_cli_surface_matches_the_parser_with_every_subcommand_built(name, tmp_path, capsys,
                                                                    monkeypatch):
    import bathlink.cli as cli

    monkeypatch.setenv("COLUMNS", "80")
    config = tmp_path / "heatmap_key.json"
    config.write_text(json.dumps({"observable": "negativity"}), encoding="utf-8")  # a heatmap flag
    template, code, phrase = SURFACE[name]
    argv = [a.format(out=tmp_path / "x.csv", config=config) for a in template]
    got = _surface_run(argv, capsys)
    assert got[0] == code
    assert phrase in got[1] + got[2]
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda *_: full())
    assert _surface_run(argv, capsys) == got
    assert list(tmp_path.iterdir()) == [config]


def test_only_the_invoked_subcommand_gets_its_flags():
    from bathlink.cli import build_parser

    def flags(parser):
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return {name: len(p._actions) for name, p in sub.choices.items()}

    every = flags(build_parser())
    assert sorted(every) == sorted(COMMANDS) and min(every.values()) > 1
    for command in COMMANDS:
        assert flags(build_parser(command)) == {
            name: every[name] if name == command else 1 for name in COMMANDS}  # only -h
    assert flags(build_parser("bogus")) == every
