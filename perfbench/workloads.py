"""The benchmark's workloads: CLI flags drawn from a seed, and output checks.

Each workload is one ``bathlink`` CLI invocation.  The program receives only
the generated flags; every check below reads the files the invocation wrote
and returns the problems it found (an empty list means the output is right).
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = {
    "simulate_x": "README canonical simulate at 80 samples from |0>_Q|1>_HO: every state "
                  "is X-shaped and discord is >95% of the time",
    "simulate_general": "rk4 simulate with --states-out from a seeded generic (eta, p, q): "
                        "discord on states that are not X-shaped",
    "region_confirm": "region --n 121 --confirm-dynamics: closed-form verdicts plus one "
                      "negativity per grid point, no discord",
    "heatmap_sweep": "negativity heatmap over 41 eta values x 251 times: generator "
                     "builds, propagation and state validation",
}

RATES = ["--gamma1", "1.01", "--gamma2", "0.01", "--omega", "0.001"]

REFERENCE = Path(__file__).with_name("reference") / "simulate_x.csv"
# Absolute tolerance against the stored canonical output and the Bell-diagonal
# oracle.  The current engine matches both to ~1e-15; the slack lets a new
# discord engine move digits far below the 12 printed ones without failing.
REFERENCE_TOL = 1e-7
# Tolerance of the per-row identities; the CLI prints 12 significant digits.
ROW_TOL = 1e-9
MIN_EIG_FLOOR = -1e-8
# Confirmation negativities of entangling grid points start near 2e-8 at the
# default tau = 1e-4; non-entangling points give 0.
ENTANGLED_FLOOR = 1e-12


@dataclass(frozen=True)
class Job:
    """One CLI invocation: its arguments, output files, item count and checks."""

    argv: list[str]
    outputs: list[Path]
    items: int
    check: Callable[[], list[str]]


def read_table(path: Path) -> dict[str, np.ndarray]:
    """CSV with a header row, as one float column per header name."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path.name}: {data.shape[1]} columns, header has {len(header)}")
    return {name: data[:, k] for k, name in enumerate(header)}


def _guarded(check: Callable[[], list[str]]) -> Callable[[], list[str]]:
    """A missing or unreadable output file is a problem, not a crash."""

    def run() -> list[str]:
        try:
            return check()
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc}"]

    return run


def _exceeds(label: str, values: np.ndarray, limit: float) -> list[str]:
    worst = float(np.max(values, initial=0.0))
    return [f"{label}: worst {worst:.3e} > {limit:g}"] if worst > limit else []


def _simulate_row_problems(rows: dict[str, np.ndarray], samples: int, t_max: float) -> list[str]:
    """Row invariants of a ``simulate`` table."""
    t = rows["t"]
    if t.size != samples + 1:
        return [f"expected {samples + 1} rows, got {t.size}"]
    problems = _exceeds("|t - grid|", np.abs(t - np.linspace(0.0, t_max, samples + 1)), ROW_TOL)
    problems += _exceeds("|trace - 1|", np.abs(rows["trace"] - 1.0), ROW_TOL)
    problems += _exceeds("-min_eig", -rows["min_eig"], -MIN_EIG_FLOOR)
    problems += _exceeds("-discord", -rows["discord"], ROW_TOL)
    problems += _exceeds("discord - mutual_info", rows["discord"] - rows["mutual_info"], ROW_TOL)
    problems += _exceeds(
        "|mutual_info - discord - classical_corr|",
        np.abs(rows["mutual_info"] - rows["discord"] - rows["classical_corr"]),
        ROW_TOL,
    )
    problems += _exceeds("-negativity", -rows["negativity"], ROW_TOL)
    problems += _exceeds("negativity - 0.5", rows["negativity"] - 0.5, ROW_TOL)
    return problems


def _reference_problems(rows: dict[str, np.ndarray]) -> list[str]:
    """Rows whose time is on the stored canonical grid must match it."""
    ref = read_table(REFERENCE)
    idx = np.searchsorted(ref["t"], rows["t"]).clip(0, ref["t"].size - 1)
    on_grid = np.abs(ref["t"][idx] - rows["t"]) <= ROW_TOL
    if not on_grid.any():
        return ["no output time lies on the reference grid"]
    problems = []
    for name, ref_col in ref.items():
        gap = np.abs(rows[name][on_grid] - ref_col[idx[on_grid]])
        problems += _exceeds(f"|{name} - reference|", gap, REFERENCE_TOL)
    return problems


def simulate_x(seed: int, work: Path, smoke: bool) -> Job:
    samples = 8 if smoke else 80
    out = work / "simulate_x.csv"
    argv = ["simulate", *RATES, "--eta", "1", "--p", "1", "--q", "0",
            "--t-max", "6", "--samples", str(samples), "--out", str(out)]

    def check() -> list[str]:
        rows = read_table(out)
        return _simulate_row_problems(rows, samples, 6.0) or _reference_problems(rows)

    return Job(argv, [out], samples + 1, _guarded(check))


def _states_problems(states: dict[str, np.ndarray], rows: dict[str, np.ndarray]) -> list[str]:
    """The raw-state file agrees with itself and with the measures table."""
    if states["t"].size != rows["t"].size:
        return [f"states file has {states['t'].size} rows, table {rows['t'].size}"]
    rho = np.empty((states["t"].size, 4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            rho[:, i, j] = states[f"re_rho_{i}{j}"] + 1j * states[f"im_rho_{i}{j}"]
    problems = _exceeds("|t(states) - t(table)|", np.abs(states["t"] - rows["t"]), ROW_TOL)
    problems += _exceeds("Hermiticity", np.abs(rho - rho.conj().transpose(0, 2, 1)).max(axis=(1, 2)),
                         ROW_TOL)
    problems += _exceeds("|trace(entries) - trace|",
                         np.abs(np.trace(rho, axis1=1, axis2=2).real - states["trace"]), ROW_TOL)
    min_eig = np.linalg.eigvalsh(rho).min(axis=1)
    problems += _exceeds("|min_eig(entries) - min_eig|", np.abs(min_eig - states["min_eig"]), ROW_TOL)
    problems += _exceeds("|min_eig(states) - min_eig(table)|",
                         np.abs(states["min_eig"] - rows["min_eig"]), ROW_TOL)
    return problems


def general_point(seed: int) -> tuple[float, float, float]:
    """Generic (eta, p, q): off-X entries of the trajectory are far from zero."""
    rng = np.random.default_rng(seed)
    eta = rng.uniform(0.3, 0.8)
    p, q = rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.2, 0.8, size=2)
    return round(float(eta), 6), round(float(p), 6), round(float(q), 6)


def simulate_general(seed: int, work: Path, smoke: bool) -> Job:
    samples = 8 if smoke else 50
    eta, p, q = general_point(seed)
    out = work / "simulate_general.csv"
    states_out = work / "simulate_general_states.csv"
    argv = ["simulate", *RATES, "--eta", repr(eta), "--p", repr(p), "--q", repr(q),
            "--t-max", "6", "--samples", str(samples), "--method", "rk4",
            "--states-out", str(states_out), "--out", str(out)]

    def check() -> list[str]:
        rows = read_table(out)
        return (_simulate_row_problems(rows, samples, 6.0)
                or _states_problems(read_table(states_out), rows))

    return Job(argv, [out, states_out], samples + 1, _guarded(check))


def region_confirm(seed: int, work: Path, smoke: bool) -> Job:
    n = 11 if smoke else 121
    out = work / "region_confirm.csv"
    argv = ["region", *RATES, "--eta", "1", "--n", str(n), "--confirm-dynamics",
            "--seed", str(seed), "--out", str(out)]

    def check() -> list[str]:
        rows = read_table(out)
        if rows["p"].size != n * n:
            return [f"expected {n * n} rows, got {rows['p'].size}"]
        verdict = rows["entangling"] == 1
        problems = []
        if np.any(verdict != (rows["excess"] > 0.0)):
            problems.append("entangling column disagrees with the sign of excess")
        confirmed = rows["negativity"] > ENTANGLED_FLOOR
        if np.any(verdict != confirmed):
            problems.append(f"{int(np.sum(verdict != confirmed))} closed-form verdicts disagree "
                            "with the confirmation negativity")
        return problems

    return Job(argv, [out], n * n, _guarded(check))


def heatmap_sweep(seed: int, work: Path, smoke: bool) -> Job:
    steps, samples = (3, 20) if smoke else (41, 250)
    out = work / "heatmap_sweep.csv"
    argv = ["heatmap", *RATES, "--observable", "negativity", "--axis", "eta",
            "--axis-min", "0", "--axis-max", "1", "--axis-steps", str(steps),
            "--p", "0.6", "--q", "0.3", "--t-max", "6", "--samples", str(samples),
            "--out", str(out)]

    def check() -> list[str]:
        rows = read_table(out)
        if rows["t"].size != steps * (samples + 1):
            return [f"expected {steps * (samples + 1)} rows, got {rows['t'].size}"]
        eta = rows["axis_value"].reshape(steps, samples + 1)
        t = rows["t"].reshape(steps, samples + 1)
        neg = rows["observable"].reshape(steps, samples + 1)
        problems = _exceeds("|axis - grid|", np.abs(eta - np.linspace(0, 1, steps)[:, None]), ROW_TOL)
        problems += _exceeds("|t - grid|", np.abs(t - np.linspace(0, 6, samples + 1)), ROW_TOL)
        problems += _exceeds("-negativity", -neg, ROW_TOL)
        problems += _exceeds("negativity - 0.5", neg - 0.5, ROW_TOL)
        problems += _exceeds("negativity of the product start", neg[:, 0], ENTANGLED_FLOOR)
        # at eta = 0 the oscillator decouples from the bath, so the pair stays a product
        problems += _exceeds("negativity at eta = 0", neg[0], ENTANGLED_FLOOR)
        return problems

    return Job(argv, [out], steps * (samples + 1), _guarded(check))


BUILDERS = {
    "simulate_x": simulate_x,
    "simulate_general": simulate_general,
    "region_confirm": region_confirm,
    "heatmap_sweep": heatmap_sweep,
}

# Workloads whose output contains discord also check the discord routine
# against the closed form for Bell-diagonal states.
DISCORD_WORKLOADS = ("simulate_x", "simulate_general")


def bell_diagonal_problems(root: Path, seed: int, count: int) -> list[list[str]]:
    """Discord of seeded Bell-diagonal states against ``tests/oracles.py``.

    Returns one problem list per state.
    """
    spec = importlib.util.spec_from_file_location("bathlink_oracles", root / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    from bathlink.correlations import discord

    rng = np.random.default_rng(seed)
    results = []
    for _ in range(count):
        rho = oracles.bell_diagonal(rng.dirichlet(np.ones(4)))
        gap = abs(discord(rho).discord - oracles.bell_diagonal_discord(rho))
        results.append([f"Bell-diagonal discord gap {gap:.3e}"] if gap > REFERENCE_TOL else [])
    return results
