"""Fuzz of the command line: flags and ``--config`` values over all five subcommands.

Every argv must end in exit 0, 2 or 3 with no exception escaping ``main``
(the suite's filter turns a RuntimeWarning into one), leave no temp file,
leave no output file after a nonzero exit, and write only files that parse
and hold finite numbers after exit 0.  Sizes stay small: at most 20 samples,
an 11 x 11 region grid and 4 sweep values.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bathlink.cli import main

#: Values any flag may be mutated to; numeric flags accept few of them.
SPECIAL = ["0", "1", "-1", "nan", "inf", "-inf", "1e-320", "1e308", "abc"]

RATE = ["1.01", "0.01", "0.5", "2", "0", "1e-300", "1e200"]
COEFFICIENT = ["0.5", "1", "-0.5", "0", "2", "1e-300", "1e200"]
COUPLING = ["0.6", "0.3", "1", "0", "1e-300", "1e200"]
AMPLITUDE = ["0.6", "-0.4", "0.3", "1", "0", "-1", "0.999999"]
TIME = ["0.5", "2", "6", "1e-4", "0", "1e3", "1e200"]


def base_flags(rnd, command):
    """A flag set of ``command`` that a run could accept, by flag name."""
    pick = rnd.choice
    if pick([True, False]):
        flags = {"gamma1": pick(RATE), "gamma2": pick(RATE)}
    else:
        flags = {"temperature": pick(["0.1", "0.3", "1", "1e-3", "1e200"])}
    flags.update(eta=pick(COUPLING), omega=pick(["0.001", "1", "0.999999", "1e200"]))
    if command in ("simulate", "heatmap"):
        flags.update(p=pick(AMPLITUDE), q=pick(AMPLITUDE), samples=pick(["1", "3", "20"]))
        flags["t-max"] = pick(TIME)
    if command == "simulate" and pick([True, False]):
        flags.update(method="rk4", steps=pick(["1", "50", "5000", "10000000000000"]))
    if command == "heatmap":
        flags.update(observable=pick(["negativity", "mutual_info", "discord"]),
                     axis=pick(["eta", "temperature"]))
        if flags["axis"] == "eta":
            del flags["eta"]
        else:
            for name in ("gamma1", "gamma2", "temperature"):
                flags.pop(name, None)
        if pick([True, False]):
            flags["axis-values"] = pick(["0.5,1", "0.3", "0.1,1e-320,2"])
        else:
            low, high = sorted([pick(COUPLING), pick(COUPLING)], key=float)
            flags.update({"axis-min": low, "axis-max": high, "axis-steps": pick(["1", "2", "4"])})
    if command == "region":
        flags.update(n=pick(["2", "3", "11"]), tau=pick(["1e-4", "0.5", "1e-300", "1e200"]),
                     seed=pick(["0", "7"]), **{"spot-checks": pick(["0", "3", "25"]),
                                              "confirm-dynamics": pick([True, False])})
    if command == "steady-state":
        flags["mode"] = pick(["both", "analytic", "numeric"])
    if command == "witness":
        if pick([True, False]):
            flags.update(kappa1=pick(COEFFICIENT), kappa3=pick(COEFFICIENT),
                         kappa2=pick(COEFFICIENT), roots=pick([True, False]))
        else:
            flags.update(p=pick(AMPLITUDE), q=pick(AMPLITUDE))
            if pick([True, False]):
                flags.update(alpha=pick(COEFFICIENT), beta=pick(COEFFICIENT))
    if command in ("simulate", "heatmap", "region") and pick([True, False]):
        flags["format"] = "json"
    return flags


@st.composite
def invocations(draw):
    """``(command, argv flags, config dict, states-out wanted)`` for one run.

    A plausible flag set with up to three values replaced by ``SPECIAL``
    text, sometimes one flag dropped, and one flag in five moved into
    ``--config``.  The choices are uniform draws from a seeded ``Random``,
    so rare values come up as often as common ones.
    """
    rnd = draw(st.randoms(use_true_random=False))
    command = rnd.choice(["simulate", "heatmap", "region", "steady-state", "witness"])
    flags = base_flags(rnd, command)
    names = sorted(flags)
    for _ in range(rnd.choice([0, 0, 1, 1, 2, 3])):
        flags[rnd.choice(names)] = rnd.choice(SPECIAL)
    if rnd.randrange(5) == 0:
        del flags[rnd.choice(names)]
    argv, config = [], {}
    for flag, value in flags.items():
        if rnd.randrange(5) == 0:
            config[flag] = _json_value(value, rnd.choice([True, False]))
        elif value is True:
            argv.append(f"--{flag}")
        elif value is not False:
            argv.append(f"--{flag}={value}")
    states_out = command == "simulate" and rnd.choice([True, False])
    return command, argv, config, states_out


def _json_value(value, as_number):
    """``value`` as --config holds it: a JSON number where it is one, else text."""
    if isinstance(value, bool) or not as_number:
        return value
    try:
        number = json.loads(value)
    except ValueError:
        return value
    return number if isinstance(number, (int, float)) else value


def _finite_cells(path: Path) -> bool:
    """Whether a written file parses and every number in it is finite."""
    text = path.read_text(encoding="utf-8")
    if text.startswith("{"):
        def walk(node):
            if isinstance(node, dict):
                return all(walk(v) for v in node.values())
            if isinstance(node, list):
                return all(walk(v) for v in node)
            return not isinstance(node, float) or math.isfinite(node)

        def reject(token):
            raise ValueError(f"{path.name} holds {token}")

        return walk(json.loads(text, parse_constant=reject))
    lines = text.splitlines()
    return len(lines) > 1 and all(
        math.isfinite(float(cell)) for line in lines[1:] for cell in line.split(",")
    )


@settings(derandomize=True, max_examples=800, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_cli_fuzz_exits_cleanly_and_writes_only_finite_files(invocation):
    command, argv, config, states_out = invocation
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "out"
        work.mkdir()
        argv = [command, *argv, "--out", str(work / "main.out")]
        if states_out:
            argv += ["--states-out", str(work / "states.csv")]
        if config:
            (Path(tmp) / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(Path(tmp) / "cfg.json")]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a flag's text
                code = exc.code
        written = sorted(work.iterdir())
        assert code in (0, 2, 3), (argv, config, sink.getvalue())
        assert not [p for p in written if p.name.startswith(".tmp-")], argv
        if code != 0:
            assert written == [], (argv, config, sink.getvalue())
        else:
            assert written, argv
            for path in written:
                assert _finite_cells(path), (argv, config, path.name)
