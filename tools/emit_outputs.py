#!/usr/bin/env python3
"""Write a fixed set of bathlink output files, to check that a change keeps them byte-identical.

Usage, from the root of a checkout (or with bathlink installed)::

    python tools/emit_outputs.py OUTDIR

Every run goes through ``bathlink.cli.main``, so each file is what the
``bathlink`` command writes.  The set covers every subcommand and both
propagators: the ``heatmap_sweep`` benchmark table, a 21x201 discord heatmap,
the README's canonical ``simulate`` (exact and rk4, each with its raw states),
a generic ``simulate`` off the X shape (exact and rk4, each with its raw
states), ``region`` with its confirming negativity column, ``steady-state`` at
two omegas, the README temperature heatmap and the kappa-form ``witness`` with
its root interval: 15 files in all.  Run it on two checkouts and compare the
directories with ``diff -r``.  The exit status is 0 when every run exits 0.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if SRC.is_dir():
    sys.path.insert(0, str(SRC))

from bathlink.cli import main  # noqa: E402

RATES = ["--gamma1", "1.01", "--gamma2", "0.01", "--omega", "0.001"]
CANONICAL = ["simulate", *RATES, "--eta", "1", "--p", "1", "--q", "0",
             "--t-max", "6", "--samples", "400"]
GENERIC = ["simulate", *RATES, "--eta", "0.55", "--p", "0.4", "--q", "-0.7",
           "--t-max", "6", "--samples", "50"]
#: Each run's argv, with ``{name}`` standing for the output file of that name.
RUNS = [
    ["heatmap", *RATES, "--observable", "negativity", "--axis", "eta", "--axis-min", "0",
     "--axis-max", "1", "--axis-steps", "41", "--p", "0.6", "--q", "0.3", "--t-max", "6",
     "--samples", "250", "--out", "{heatmap_sweep.csv}"],
    ["heatmap", *RATES, "--observable", "discord", "--axis", "eta", "--axis-min", "0",
     "--axis-max", "1", "--axis-steps", "21", "--p", "0.6", "--q", "0.3", "--t-max", "6",
     "--samples", "200", "--out", "{heatmap_discord.csv}"],
    [*CANONICAL, "--states-out", "{canonical_states.csv}", "--out", "{canonical.csv}"],
    [*CANONICAL, "--method", "rk4", "--steps", "6000",
     "--states-out", "{canonical_rk4_states.csv}", "--out", "{canonical_rk4.csv}"],
    [*GENERIC, "--states-out", "{generic_states.csv}", "--out", "{generic.csv}"],
    [*GENERIC, "--method", "rk4",
     "--states-out", "{generic_rk4_states.csv}", "--out", "{generic_rk4.csv}"],
    ["region", *RATES, "--eta", "1", "--n", "201", "--confirm-dynamics",
     "--out", "{region.csv}"],
    ["steady-state", "--gamma1", "1.01", "--gamma2", "0.01", "--eta", "0.7", "--omega", "0.7",
     "--out", "{steady_omega0.7.json}"],
    ["steady-state", *RATES, "--eta", "0.7", "--out", "{steady_omega0.001.json}"],
    ["heatmap", "--omega", "0.001", "--eta", "1", "--observable", "negativity",
     "--axis", "temperature", "--axis-values", "0.1,0.3,0.6,1.0", "--p", "1", "--q", "0",
     "--t-max", "2", "--samples", "400", "--out", "{heat_T.csv}"],
    ["witness", *RATES, "--eta", "1", "--kappa1", "0.5", "--kappa3", "1", "--roots",
     "--out", "{witness.json}"],
]


def emit(outdir: Path) -> int:
    """Write every file of ``RUNS`` under ``outdir``; return the number of runs that failed."""
    outdir.mkdir(parents=True, exist_ok=True)
    failed = 0
    for argv in RUNS:
        argv = [str(outdir / word[1:-1]) if word.startswith("{") else word for word in argv]
        status = main(argv)
        if status != 0:
            print(f"exit {status}: bathlink {' '.join(argv)}", file=sys.stderr)
            failed += 1
    return failed


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(1 if emit(Path(sys.argv[1])) else 0)
