"""Command-line front end emitting CSV/JSON data files.

Subcommands: ``simulate``, ``heatmap``, ``region``, ``steady-state``,
``witness``.  All times are dimensionless (zeta * t); rates are per unit of
that time.  Exit codes: 0 success, 2 configuration error, 3 numerical
invariant failure.  Output files are written atomically (temp file +
rename); tables print 12 significant digits and the region, steady-state
and witness JSON files full ``repr`` floats, so identical configurations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from ._format import write_json, write_table
from .correlations import discord, mutual_information, negativity
from .dynamics import (
    DEFAULT_SAMPLES,
    evolve_exact,
    evolve_rk,
    product_state,
    trajectory_to_csv,
)
from .errors import ConfigError, NumericalInvariantError
from .matops import matrix_to_dict, trace_norm
from .model import (
    DEFAULT_ZETA,
    ModelParams,
    build_liouvillian,
    steady_state_analytic,
    steady_state_numeric,
)
from .witness import (
    DEFAULT_CONFIRM_TAU,
    DEFAULT_SEED,
    DEFAULT_SPOT_CHECKS,
    is_entangling,
    quadratic_roots,
    region_scan,
    report_for_kappas,
    report_for_product_state,
)

_TIME_HELP = "dimensionless time zeta*t"


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("model parameters")
    g.add_argument("--gamma1", type=float, default=None,
                   help="emission rate (per unit zeta*t); pair with --gamma2")
    g.add_argument("--gamma2", type=float, default=None,
                   help="absorption rate (per unit zeta*t); pair with --gamma1")
    g.add_argument("--temperature", type=float, default=None,
                   help="bath temperature in units of the system frequency; "
                        "alternative to explicit rates")
    g.add_argument("--zeta", type=float, default=None,
                   help="spontaneous emission constant setting the time unit "
                        f"(default {DEFAULT_ZETA:g})")
    g.add_argument("--eta", type=float, default=None,
                   help="oscillator/qubit bath-coupling ratio (dimensionless)")
    g.add_argument("--omega", type=float, default=None,
                   help="system frequency (dimensionless units)")


def _add_output_flags(parser: argparse.ArgumentParser, formats=("csv", "json")) -> None:
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument("--format", choices=list(formats), default=None,
                        help=f"output format (default {formats[0]})")
    parser.add_argument("--config", default=None,
                        help="JSON file of flag values; a key also given on the "
                             "command line is an error")


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill unset flags from --config; the same key in both is an error.

    The file is read as UTF-8, the encoding JSON requires.  Each value is
    parsed as the command line would parse its text, with the flag's own
    ``type`` and ``choices``; a ``store_true`` flag takes only a JSON boolean.
    """
    if not args.config:
        return
    try:
        with open(args.config, encoding="utf-8") as f:
            cfg = json.load(f)
    except (OSError, ValueError) as exc:  # not UTF-8, not JSON, or an integer past int's limit
        raise ConfigError(f"cannot read --config {args.config}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("--config must contain a JSON object")
    flags = {a.dest: a for a in parser._actions if a.option_strings}
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if attr not in flags or attr in ("config", "out", "help"):
            raise ConfigError(f"config error: unknown config key {key!r}")
        current = getattr(args, attr)
        if current is not None and current is not False:
            raise ConfigError(
                f"config error: {key!r} given both on the command line and in --config"
            )
        setattr(args, attr, _config_value(key, value, flags[attr]))


def _config_value(key: str, value, action: argparse.Action):
    """``value`` parsed as the command-line text of the flag ``action``."""
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ConfigError(f"config error: {key!r} must be true or false, got {value!r}")
        return value
    if isinstance(value, (bool, dict, list)) or value is None:
        raise ConfigError(f"config error: {key!r} must be a number or a string, got {value!r}")
    try:
        parsed = action.type(str(value)) if action.type else str(value)
    except ValueError as exc:
        raise ConfigError(f"config error: {key!r}: invalid value {value!r}") from exc
    if action.choices is not None and parsed not in action.choices:
        raise ConfigError(
            f"config error: {key!r} must be one of {', '.join(action.choices)}, got {value!r}"
        )
    return parsed


def _resolve_params(args: argparse.Namespace) -> ModelParams:
    """Build ModelParams from flags; rates come from one source only."""
    have_rates = args.gamma1 is not None or args.gamma2 is not None
    have_temp = args.temperature is not None
    if have_rates and have_temp:
        raise ConfigError(
            "config error: give either --gamma1/--gamma2 or --temperature, not both"
        )
    if args.eta is None:
        raise ConfigError("config error: --eta is required")
    if args.omega is None:
        raise ConfigError("config error: --omega is required")
    zeta = DEFAULT_ZETA if args.zeta is None else args.zeta
    if have_temp:
        return ModelParams.from_temperature(
            zeta=zeta, temperature=args.temperature, eta=args.eta, omega=args.omega
        )
    if args.gamma1 is None or args.gamma2 is None:
        raise ConfigError("config error: --gamma1 and --gamma2 must be given together")
    return ModelParams.from_rates(
        gamma1=args.gamma1, gamma2=args.gamma2, eta=args.eta, omega=args.omega, zeta=zeta
    )


def _require(args: argparse.Namespace, names: list[str]) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ConfigError(f"config error: --{name.replace('_', '-')} is required")


def _time_grid(args: argparse.Namespace) -> tuple[int, np.ndarray]:
    """``--samples`` and the uniform grid of ``samples + 1`` times over ``[0, --t-max]``.

    At ``--t-max 0`` the grid is the single time 0.
    """
    samples = DEFAULT_SAMPLES if args.samples is None else args.samples
    if samples < 1:
        raise ConfigError(f"config error: --samples must be >= 1, got {samples}")
    if not math.isfinite(args.t_max) or args.t_max < 0:
        raise ConfigError(f"config error: --t-max must be finite and >= 0, got {args.t_max}")
    times = np.linspace(0.0, args.t_max, samples + 1) if args.t_max > 0 else np.zeros(1)
    return samples, times


# ---------------------------------------------------------------- simulate

def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.states_out and os.path.realpath(args.states_out) == os.path.realpath(args.out):
        raise ConfigError("config error: --states-out names the --out file")
    params = _resolve_params(args)
    _require(args, ["p", "q", "t_max"])
    samples, times = _time_grid(args)
    rho0 = product_state(args.p, args.q)
    liou = build_liouvillian(params)
    method = args.method or "exact"
    if method == "rk4":
        if args.steps is None and not math.isfinite(1000 * args.t_max):
            raise ConfigError(f"config error: --t-max {args.t_max:g} is too long for the "
                              "default rk4 step count (1000 per unit time); give --steps")
        steps = args.steps if args.steps is not None else max(1000, int(1000 * args.t_max))
        traj = evolve_rk(liou, rho0, args.t_max, steps=steps, samples=samples)
    else:
        if args.steps is not None:
            raise ConfigError("config error: --steps applies only to --method rk4")
        traj = evolve_exact(liou, rho0, times)
    # the frame states: every measure is invariant under the frame's local unitary
    measured = discord(traj.frame_states)
    table = np.column_stack([
        traj.times, measured.negativity, measured.mutual_info, measured.discord,
        measured.classical_corr, traj.trace, traj.min_eig,
    ])
    columns = ["t", "negativity", "mutual_info", "discord", "classical_corr", "trace", "min_eig"]
    write_table(args.out, args.format or "csv", columns, table)
    if args.states_out:
        try:
            trajectory_to_csv(traj, args.states_out)
        except BaseException:  # a failed run leaves neither file
            os.unlink(args.out)
            raise
    return 0


# ----------------------------------------------------------------- heatmap

def _axis_values(args: argparse.Namespace) -> list[float]:
    if args.axis_values is not None:
        if args.axis_min is not None or args.axis_max is not None or args.axis_steps is not None:
            raise ConfigError("config error: --axis-values excludes --axis-min/max/steps")
        try:
            values = [float(x) for x in str(args.axis_values).split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"config error: bad --axis-values: {exc}") from exc
        if not values:
            raise ConfigError("config error: --axis-values is empty")
        return values
    _require(args, ["axis_min", "axis_max", "axis_steps"])
    if args.axis_steps < 1 or args.axis_max < args.axis_min:
        raise ConfigError("config error: need --axis-steps >= 1 and --axis-max >= --axis-min")
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.linspace(args.axis_min, args.axis_max, args.axis_steps)
    if not np.isfinite(values).all():
        raise ConfigError("config error: the --axis-min/--axis-max range is not finite")
    return values.tolist()


def _sweep_params(args: argparse.Namespace, values: list[float]) -> list[ModelParams]:
    """The model parameters at every axis value, all checked before any is used."""
    if args.axis == "eta":
        if args.eta is not None:
            raise ConfigError("config error: --axis eta sweeps eta; drop --eta")
    elif args.temperature is not None or args.gamma1 is not None or args.gamma2 is not None:
        raise ConfigError(
            "config error: --axis temperature derives the rates; drop "
            "--temperature/--gamma1/--gamma2"
        )

    return [_resolve_params(argparse.Namespace(**{**vars(args), args.axis: value}))
            for value in values]


def _cmd_heatmap(args: argparse.Namespace) -> int:
    _require(args, ["p", "q", "t_max", "observable", "axis"])
    _, times = _time_grid(args)
    values = _axis_values(args)
    measures = {
        "negativity": negativity,
        "mutual_info": mutual_information,
        "discord": lambda states: discord(states).discord,
    }
    measure = measures[args.observable]
    rho0 = product_state(args.p, args.q)
    trajectories = evolve_exact(build_liouvillian(_sweep_params(args, values)), rho0, times)
    # measured in the rotating frame, whose local unitary keeps every measure
    blocks = [np.column_stack([traj.times, np.full(len(traj), value),
                               measure(traj.frame_states)])
              for value, traj in zip(values, trajectories)]
    write_table(args.out, args.format or "csv", ["t", "axis_value", "observable"],
                np.concatenate(blocks))
    return 0


# ------------------------------------------------------------------ region

def _cmd_region(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    _require(args, ["n"])
    given = {"spot_checks": args.spot_checks, "seed": args.seed, "confirm_tau": args.tau}
    scan = region_scan(params, n=args.n, confirm_dynamics=args.confirm_dynamics,
                       **{name: value for name, value in given.items() if value is not None})
    if (args.format or "csv") == "json":
        write_json(args.out, scan.to_dict())
    else:
        write_table(args.out, "csv", *scan.table())
    return 0


# ------------------------------------------------------------ steady-state

def _cmd_steady_state(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    mode = args.mode or "both"
    payload: dict = {"params": params.to_dict(), "mode": mode}
    liou = build_liouvillian(params)
    analytic = steady_state_analytic(params) if mode in ("both", "analytic") else None
    numeric = (
        steady_state_numeric(liou, require_unique=False)
        if mode in ("both", "numeric")
        else None
    )
    if analytic is not None:
        payload["analytic"] = matrix_to_dict(analytic)
        rhs = liou.apply(analytic)
        payload["analytic_residual_max"] = float(np.abs(rhs).max())
    if numeric is not None:
        payload["numeric"] = matrix_to_dict(numeric.state)
        payload["numeric_residual_max"] = numeric.residual_max
        payload["null_space_dim"] = numeric.null_space_dim
    if analytic is not None and numeric is not None:
        payload["trace_norm_difference"] = trace_norm(analytic - numeric.state)
    write_json(args.out, payload)
    return 0


# ----------------------------------------------------------------- witness

def _cmd_witness(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    kappa_mode = args.kappa1 is not None or args.kappa3 is not None
    pq_mode = args.p is not None or args.q is not None
    if kappa_mode and pq_mode:
        raise ConfigError("config error: give either --kappa1/--kappa3 or --p/--q, not both")
    if not kappa_mode and not pq_mode:
        raise ConfigError("config error: give --kappa1/--kappa3 or --p/--q")
    payload: dict = {"params": params.to_dict()}
    if kappa_mode:
        _require(args, ["kappa1", "kappa3"])
        given = {} if args.kappa2 is None else {"kappa2": args.kappa2}
        report = report_for_kappas(args.kappa1, args.kappa3, params, **given)
        payload.update(report.to_dict())
        if args.kappa1 * args.kappa3 < 0:
            note = (
                "opposite-sign kappa1 and kappa3 cannot give a negative rate: "
                "both roots of the rate quadratic share the sign of kappa3/eta"
            )
            payload["note"] = note
            print(f"note: {note}")
        if args.roots:
            lo, hi = quadratic_roots(args.kappa3, params)
            payload["kappa1_root_interval"] = [lo, hi]
    else:
        _require(args, ["p", "q"])
        report = report_for_product_state(args.p, args.q, params, args.alpha, args.beta)
        payload.update(report.to_dict())
        payload["excess"] = is_entangling(args.p, args.q, params)[1]
        if args.roots:
            raise ConfigError("config error: --roots applies to the kappa form only")
    write_json(args.out, payload)
    return 0


# ------------------------------------------------------------------- main

def _simulate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=float, default=None, help="qubit amplitude of |0> in [-1, 1]")
    p.add_argument("--q", type=float, default=None, help="oscillator amplitude of |0> in [-1, 1]")
    p.add_argument("--t-max", type=float, default=None, help=f"end time ({_TIME_HELP})")
    p.add_argument("--samples", type=int, default=None,
                   help=f"uniform sampling intervals (default {DEFAULT_SAMPLES}; "
                        "emits samples+1 rows)")
    p.add_argument("--method", choices=["exact", "rk4"], default=None,
                   help="propagator: exact exponential (default) or fixed-step RK4")
    p.add_argument("--steps", type=int, default=None,
                   help="RK4 step count (rk4 only; default 1000 per unit time)")
    p.add_argument("--states-out", default=None,
                   help="also write the raw state trajectory CSV here")
    _add_output_flags(p)


def _heatmap_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--observable", choices=["negativity", "mutual_info", "discord"],
                   default=None, help="observable to tabulate")
    p.add_argument("--axis", choices=["eta", "temperature"], default=None,
                   help="swept parameter")
    p.add_argument("--axis-min", type=float, default=None, help="sweep start")
    p.add_argument("--axis-max", type=float, default=None, help="sweep end")
    p.add_argument("--axis-steps", type=int, default=None, help="sweep point count")
    p.add_argument("--axis-values", default=None,
                   help="explicit comma-separated sweep values (excludes min/max/steps)")
    p.add_argument("--p", type=float, default=None, help="qubit amplitude of |0> in [-1, 1]")
    p.add_argument("--q", type=float, default=None, help="oscillator amplitude of |0> in [-1, 1]")
    p.add_argument("--t-max", type=float, default=None, help=f"end time ({_TIME_HELP})")
    p.add_argument("--samples", type=int, default=None,
                   help=f"uniform sampling intervals per sweep value (default {DEFAULT_SAMPLES})")
    _add_output_flags(p)


def _region_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None, help="grid resolution per axis (>= 2)")
    p.add_argument("--confirm-dynamics", action="store_true", default=False,
                   help="add a short-time negativity column for every point")
    p.add_argument("--tau", type=float, default=None,
                   help=f"confirmation time (default {DEFAULT_CONFIRM_TAU:g}, {_TIME_HELP})")
    p.add_argument("--spot-checks", type=int, default=None,
                   help="random entangling points verified dynamically "
                        f"(default {DEFAULT_SPOT_CHECKS})")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the random.Random that picks the spot checks "
                        f"(default {DEFAULT_SEED})")
    _add_output_flags(p)


def _steady_state_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=["both", "analytic", "numeric"], default=None,
                   help="which steady states to compute (default both)")
    _add_output_flags(p, formats=("json",))


def _witness_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kappa1", type=float, default=None,
                   help="|00> coefficient of the witness direction")
    p.add_argument("--kappa2", type=float, default=None,
                   help="|10> coefficient (does not affect the rate; default 0)")
    p.add_argument("--kappa3", type=float, default=None,
                   help="|11> coefficient of the witness direction")
    p.add_argument("--p", type=float, default=None, help="qubit amplitude of |0> in [-1, 1]")
    p.add_argument("--q", type=float, default=None, help="oscillator amplitude of |0> in [-1, 1]")
    p.add_argument("--alpha", type=float, default=None,
                   help="first direction coefficient for the (p, q) form")
    p.add_argument("--beta", type=float, default=None,
                   help="second direction coefficient for the (p, q) form")
    p.add_argument("--roots", action="store_true", default=False,
                   help="include the kappa1 root interval of the rate quadratic")
    _add_output_flags(p, formats=("json",))


#: Each subcommand: its help line, the function that adds its flags besides
#: the model parameters, and its body.
_COMMANDS = {
    "simulate": ("evolve one initial product state and emit per-sample correlation measures",
                 _simulate_flags, _cmd_simulate),
    "heatmap": ("observable on a (time x eta) or (time x temperature) grid",
                _heatmap_flags, _cmd_heatmap),
    "region": ("entangling verdict over a (p, q) grid", _region_flags, _cmd_region),
    "steady-state": ("analytic and numeric steady states with residuals (JSON)",
                     _steady_state_flags, _cmd_steady_state),
    "witness": ("short-time entanglement witness report (JSON)", _witness_flags, _cmd_witness),
}


def build_parser(command: str | None = None, /) -> argparse.ArgumentParser:
    """The ``bathlink`` parser, every subcommand registered with its help line.

    Only ``command``'s flags are added when it names a subcommand, every
    subcommand's otherwise.  The top-level parser has no option besides
    ``-h``, so a command line whose first word names a subcommand parses
    alike either way.
    """
    parser = argparse.ArgumentParser(
        prog="bathlink",
        description="Qubit-oscillator pair in a common thermal bath: dynamics, "
                    "entanglement, and correlation measures. All times are "
                    "dimensionless zeta*t.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_flags, run) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if command not in _COMMANDS or command == name:
            _add_param_flags(p)
            add_flags(p)
        p.set_defaults(func=run, parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        _merge_config(args, args.parser)
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except NumericalInvariantError as exc:
        print(f"numerical invariant failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a grid or sample count beyond memory, e.g. --n 10**14
        print(f"config error: the requested size does not fit in memory ({exc})",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
