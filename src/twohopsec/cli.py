"""Command-line front end: bounds (alias tau-range, max-eaves), simulate, sweep.

Configuration comes from a YAML file of key-value pairs (``--config``) with
individual flags overriding file values.  ``bounds`` and ``simulate`` run
the evaluation of ``sweep`` on one point, so a one-step sweep reproduces
their rows.  Each scenario gives one CSV row under a fixed 28-column schema;
missing quantities are empty cells, never dropped columns, and infinite
radii are written as the literal string ``inf``.  The first CSV line echoes
the resolved configuration as a JSON comment so a result file reparses into
the exact run that produced it, and a run writes comment, header and rows
in one ``write``.  Every flag is defined once, in one table of rows.  A call
that opens with a command name and holds only exact flags with plain values
is read straight off that table; argparse is imported and its parser built
(once per process) only for help, errors and irregular spellings, so every
usage line and message is still argparse's own.  The simulator, and with it
NumPy, is imported on first use: a bounds call loads neither.

Exit codes: 0 success (including infeasible-but-computed results),
2 malformed configuration, 3 numeric failure (including out of memory).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace

from .bounds_general import QuadratureError
from .model import Case, ProtocolParams, derived_fields
from .reports import BoundReport, evaluate_bounds

__all__ = ["RunConfig", "SweepSpec", "CSV_HEADER", "main"]

CSV_HEADER = (
    "case,n,m,k,r,tau,gamma_r,gamma_e,alpha,d0,delta,trials,seed,"
    "p_t_hat,p_t_lo,p_t_hi,p_s_hat,p_s_lo,p_s_hi,bound_t,bound_s,"
    "tau_min,tau_max,max_m,jain,entropy,no_candidate_rate,feasible"
)

_SWEEPABLE = ("r", "k", "tau", "n", "m", "gamma_r", "gamma_e")
_THRESHOLDS = ("gamma_r", "gamma_e")


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional parameter grid: name, endpoints, step count, scale."""

    param: str
    start: float
    stop: float
    steps: int
    scale: str = "linear"

    def __post_init__(self):
        if self.param not in _SWEEPABLE:
            raise ValueError(
                f"sweep.param must be one of {', '.join(_SWEEPABLE)}, got {self.param!r}"
            )
        if self.steps < 1:
            raise ValueError("sweep.steps must be at least 1")
        if self.scale not in ("linear", "log"):
            raise ValueError("sweep.scale must be 'linear' or 'log'")
        endpoints = (self.start, self.stop)
        if any(math.isnan(v) for v in endpoints):
            raise ValueError("sweep endpoints must be numbers, got nan")
        if any(math.isinf(v) for v in endpoints) and (
            self.steps > 1 or self.param in _INT_PARAMS
        ):
            # an infinite endpoint leaves no finite interior grid and no integer
            raise ValueError("sweep endpoints must be finite for integer or multi-step grids")
        if self.scale == "log" and (self.start <= 0 or self.stop <= 0):
            raise ValueError("log-scale sweeps need positive endpoints")

    def values(self):
        import numpy as np

        if self.steps == 1:
            grid = np.array([self.start], dtype=float)
        elif self.scale == "log":
            grid = np.geomspace(self.start, self.stop, self.steps)
        else:
            grid = np.linspace(self.start, self.stop, self.steps)
        if self.param in _INT_PARAMS:
            return [int(v) for v in dict.fromkeys(int(round(x)) for x in grid)]
        return [float(x) for x in grid]

    def to_dict(self):  # keys in sorted order, as json's sort_keys writes them
        return {"from": self.start, "param": self.param, "scale": self.scale,
                "steps": self.steps, "to": self.stop}

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        if not isinstance(d, dict):
            raise ValueError("sweep must be a mapping")
        unknown = set(d) - {"param", "from", "to", "steps", "scale"}
        if unknown:
            raise ValueError(f"unknown sweep field {sorted(unknown)[0]!r}")
        for field in ("param", "from", "to"):
            if field not in d:
                raise ValueError(f"sweep.{field} is required")
        return cls(
            param=str(d["param"]),
            start=_as_float(d["from"], "sweep.from"),
            stop=_as_float(d["to"], "sweep.to"),
            steps=_as_int(d.get("steps", 1), "sweep.steps"),
            scale=str(d.get("scale", "linear")),
        )


def _as_float(value, name: str) -> float:
    if isinstance(value, str) and value.strip().lower() in ("inf", "+inf", "infinity"):
        return math.inf
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"field {name!r} must be a number, got {value!r}")


def _as_int(value, name: str) -> int:
    try:
        iv = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"field {name!r} must be an integer, got {value!r}") from None
    if isinstance(value, bool) or (isinstance(value, float) and value != iv):
        raise ValueError(f"field {name!r} must be an integer, got {value!r}")
    return iv


def _as_str(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"field {name!r} must be a string, got {value!r}")
    return value


@dataclass
class RunConfig:
    """Fully resolved run configuration; defaults mirror the worked example scenario.

    Its fields are the only list of configuration names (YAML keys, config
    comment, the flags ``load_config`` reads); each annotation picks a converter.
    """

    case: str = "equal"
    n: int = 5
    m: int = 1
    k: int = 1
    r: float = math.inf
    tau: float = 0.2
    gamma_r: float = 1.0
    gamma_e: float = math.e - 1.0
    alpha: float = 2.0
    d0: float = 0.05
    es: float = 1.0
    n0: float | None = None
    delta: float | None = None
    eps_t: float = 0.19
    eps_s: float = 0.19
    trials: int = 10000
    seed: int = 1
    sweep: SweepSpec | None = None
    out: str | None = None

    def to_dict(self) -> dict:
        d = {}
        for name in _CONFIG_FIELDS:
            v = getattr(self, name)
            if name == "sweep":
                d["sweep"] = v.to_dict() if v is not None else None
            elif isinstance(v, float) and math.isinf(v):
                d[name] = "inf"
            else:
                d[name] = v
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError("configuration must be a mapping of key-value pairs")
        unknown = data.keys() - _CONFIG_FIELDS.keys()
        if unknown:
            raise ValueError(f"unknown config field {sorted(unknown)[0]!r}")
        kwargs = {}
        for name, value in data.items():
            convert, optional = _CONFIG_FIELDS[name]
            kwargs[name] = None if value is None and optional else convert(value, name)
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.case not in ("equal", "general"):
            raise ValueError(f"field 'case' must be 'equal' or 'general', got {self.case!r}")
        if self.trials < 1:
            raise ValueError("field 'trials' must be at least 1")
        if self.seed < 0:
            raise ValueError("field 'seed' must be nonnegative")

    def protocol_params(self) -> ProtocolParams:
        return ProtocolParams(**{name: getattr(self, name) for name in _PARAM_FIELDS},
                              case=Case(self.case))


# Derived at import, so a CLI call runs no dataclasses.fields().  Each field's
# annotation picks its converter, and "T | None" also takes None.  Sorted by
# name, so to_dict's keys already stand in json's sort_keys order.
_CONVERTERS = {"int": _as_int, "float": _as_float, "str": _as_str,
               "SweepSpec": lambda value, name: SweepSpec.from_dict(value)}
_CONFIG_FIELDS = {
    f.name: (_CONVERTERS[f.type.split(" | ")[0]], f.type.endswith(" | None"))
    for f in sorted(dataclasses.fields(RunConfig), key=lambda f: f.name)
}
_PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(ProtocolParams) if f.name != "case")
_INT_PARAMS = tuple(name for name in _SWEEPABLE if _CONFIG_FIELDS[name][0] is _as_int)
_COLUMNS = CSV_HEADER.split(",")
# The scenario columns that open every CSV row, read off the row's ProtocolParams
# (or off its RunConfig when the parameters were rejected).
_PARAM_COLUMNS = _COLUMNS[:_COLUMNS.index("trials")]


def load_config(args: SimpleNamespace) -> RunConfig:
    """Merge defaults, YAML file values, and explicit CLI flags (in that order)."""
    data: dict = {}
    if args.config:
        import yaml  # only here: importing it costs set-up time on every run without --config

        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ValueError("config file must contain a mapping of key-value pairs")
        data.update(loaded)
    for name in _CONFIG_FIELDS:
        # every field but sweep has a flag of its own name; an unset flag is None
        value = getattr(args, name, None)
        if value is not None:
            data[name] = value
    if getattr(args, "sweep_param", None) is not None:
        if args.sweep_from is None or args.sweep_to is None:
            raise ValueError("sweep requires --sweep-from and --sweep-to")
        data["sweep"] = {"param": args.sweep_param, "from": args.sweep_from,
                         "to": args.sweep_to, "steps": args.sweep_steps,
                         "scale": args.sweep_scale}
    return RunConfig.from_dict(data)


def _cell(value) -> str:
    if type(value) is float:  # repr spells inf, -inf and nan as the cells do
        return repr(value)
    if type(value) is int:
        return str(value)
    if value is None:
        return ""
    if isinstance(value, Case):
        return value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # a NumPy scalar, written as the float it holds
        return repr(float(value))
    return str(value)


@dataclass
class _Point:
    """One scenario of a run; ``error`` is the ValueError that rejected it, if any."""

    config: RunConfig
    params: ProtocolParams | None = None
    bnd: BoundReport | None = None
    est: EstimateReport | None = None
    error: ValueError | None = None


def _csv_row(point: _Point) -> str:
    est, bnd = point.est, point.bnd
    scenario = point.params or point.config
    cells = {name: getattr(scenario, name) for name in _PARAM_COLUMNS}
    if point.params is None:  # rejected: the cells that the model derives
        cells.update(derived_fields(Case(point.config.case), point.config))
    if est is not None:
        cells.update(
            trials=point.config.trials, seed=point.config.seed,
            p_t_hat=est.p_t_hat, p_t_lo=est.ci_t[0], p_t_hi=est.ci_t[1],
            p_s_hat=est.p_s_hat, p_s_lo=est.ci_s[0], p_s_hi=est.ci_s[1],
            jain=est.jain_index, entropy=est.norm_entropy,
            no_candidate_rate=est.no_candidate_rate,
        )
    if bnd is not None:
        tol = bnd.max_eaves
        cells.update(
            bound_t=bnd.bound_t,
            bound_s=bnd.bound_s.value,
            tau_min=bnd.window.tau_min,
            tau_max=bnd.window.tau_max,
            max_m=tol.bound if tol is not None else None,
            feasible=bnd.window.feasible,
        )
    if point.error is not None:
        cells["feasible"] = "error"
    return ",".join(_cell(cells.get(name)) for name in _COLUMNS)


def _emit_csv(config: RunConfig, rows: list, stream) -> None:
    # to_dict's keys come sorted, so json.dumps runs its cached encoder
    stream.write("\n".join([f"# config: {json.dumps(config.to_dict())}", CSV_HEADER, *rows, ""]))


def parse_config_comment(line: str) -> RunConfig:
    """Reparse the CSV metadata comment back into the RunConfig that wrote it."""
    prefix = "# config: "
    if not line.startswith(prefix):
        raise ValueError("not a config comment line")
    return RunConfig.from_dict(json.loads(line[len(prefix):]))


def _fmt(value) -> str:
    if value is None:
        return "infeasible"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.6g}"
    return str(value)


def _bounds_report_text(bnd: BoundReport) -> str:
    p = bnd.params
    tol = bnd.max_eaves
    lines = [
        f"case={p.case.value} n={p.n} m={p.m} k={p.k} r={_fmt(p.r)} tau={_fmt(p.tau)}",
        f"  gamma_r={_fmt(p.gamma_r)} gamma_e={_fmt(p.gamma_e)} alpha={_fmt(p.alpha)} "
        f"d0={_fmt(p.d0)} delta={_fmt(p.delta)}",
        f"  transmission bound at tau: {_fmt(bnd.bound_t)}",
        f"  secrecy bound at tau:      {_fmt(bnd.bound_s.value)}"
        + ("  [saturated: not a probability]" if bnd.bound_s.saturated else ""),
        f"  tau window for eps_t={bnd.eps_t:g}, eps_s={bnd.eps_s:g}: "
        f"[{_fmt(bnd.window.tau_min)}, {_fmt(bnd.window.tau_max)}]"
        f"  feasible={str(bnd.window.feasible).lower()}",
    ]
    if tol is None:
        lines.append("  tolerable eavesdroppers: infeasible")
    else:
        count = "unbounded" if tol.count is None else str(tol.count)
        lines.append(f"  tolerable eavesdroppers: {_fmt(tol.bound)} (floor {count})")
    return "\n".join(lines)


def _estimate_report_text(est: EstimateReport) -> str:
    return "\n".join(
        [
            f"trials={est.trials} seed={est.seed}",
            f"  P_out(T) = {est.p_t_hat:.6g}  CI95 [{est.ci_t[0]:.6g}, {est.ci_t[1]:.6g}]",
            f"  P_out(S) = {est.p_s_hat:.6g}  CI95 [{est.ci_s[0]:.6g}, {est.ci_s[1]:.6g}]",
            f"  no-candidate rate = {est.no_candidate_rate:.6g}",
            f"  jain = {est.jain_index:.6g}  entropy = {est.norm_entropy:.6g}",
            f"  selection histogram = {est.selection_histogram.tolist()}",
        ]
    )


def _evaluate(points: list, param: str | None, with_bounds: bool, with_sim: bool,
              workers: int) -> None:
    """Fill in each point's parameters, bounds and estimate, or the error that stopped it.

    The SINR thresholds enter no draw, so a gamma_r or gamma_e grid is one
    simulation (common random numbers); every other point is simulated on
    its own, as any other parameter changes the selection or the jammer sets.
    """
    for point in points:
        try:
            point.params = point.config.protocol_params()
            if with_bounds:
                point.bnd = evaluate_bounds(point.params, point.config.eps_t, point.config.eps_s)
        except ValueError as exc:
            point.error = exc
    if not with_sim:
        return
    estimate = sys.modules[__name__].estimate  # imported here first, see __getattr__
    live = [p for p in points if p.error is None]
    grid = param in _THRESHOLDS
    for group in ([live] if grid and live else [[p] for p in live]):
        values = {param: [getattr(p.params, param) for p in group]} if grid else {}
        try:
            ests = estimate(group[0].params, group[0].config.trials, group[0].config.seed,
                            workers=workers, **values)
        except ValueError as exc:
            for p in group:
                p.error = exc
            continue
        for p, est in zip(group, ests if grid else [ests]):
            p.est = est


def _sweep_summary(param: str, point: _Point) -> str:
    tag = f"{param}={_fmt(getattr(point.config, param))}"
    if point.error is not None:
        return f"{tag}: parameter error"
    parts = []
    if point.bnd is not None:
        parts += [f"bound_t={_fmt(point.bnd.bound_t)}",
                  f"feasible={str(point.bnd.window.feasible).lower()}"]
    if point.est is not None:
        parts += [f"p_t_hat={point.est.p_t_hat:.6g}", f"jain={point.est.jain_index:.4g}"]
    return f"{tag}: " + " ".join(parts)


def _run(config: RunConfig, args: SimpleNamespace) -> None:
    """Evaluate the command's points, then write their CSV rows or print its report.

    A one-point command fails with its point's error; a sweep writes it as an error row.
    """
    if args.command == "sweep":
        if config.sweep is None:
            raise ValueError("sweep requires a sweep spec (--sweep-param or config 'sweep')")
        param = config.sweep.param
        points = [_Point(dataclasses.replace(config, sweep=None, out=None, **{param: value}))
                  for value in config.sweep.values()]
        _evaluate(points, param, not args.no_bounds, not args.no_sim, args.workers)
        report = "\n".join(_sweep_summary(param, p) for p in points) if args.report else None
    else:
        simulate = args.command == "simulate"
        point = _Point(config)
        points = [point]
        _evaluate(points, None, not simulate, simulate, args.workers)
        if point.error is not None:
            raise point.error
        report = None
        if args.report:
            report = (_estimate_report_text(point.est) if simulate
                      else _bounds_report_text(point.bnd))
    rows = [_csv_row(p) for p in points]
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="\n") as fh:
            _emit_csv(config, rows, fh)
    if report is not None:
        print(report)
    elif not config.out:
        _emit_csv(config, rows, sys.stdout)


# Every flag, once: (option, dest, type, choices, default, help), in argparse's
# order.  A type of None keeps the text as given; bool marks a store-true switch.
_COMMON_FLAGS = (
    ("--config", "config", None, None, None, "YAML configuration file"),
    ("--case", "case", None, ("equal", "general"), None, None),
    *((f"--{name}", name, int, None, None, None) for name in ("n", "m", "k", "trials", "seed")),
    ("--workers", "workers", int, None, 1, None),
    *((f"--{name.replace('_', '-')}", name, float, None, None, None)
      for name in ("r", "tau", "gamma_r", "gamma_e", "alpha", "d0", "delta", "es", "n0",
                   "eps_t", "eps_s")),
    ("--out", "out", None, None, None, "write the CSV to this path"),
    ("--report", "report", bool, None, False,
     "print a human-readable summary instead of CSV on stdout"),
)
_SWEEP_FLAGS = (
    ("--sweep-param", "sweep_param", None, _SWEEPABLE, None, None),
    ("--sweep-from", "sweep_from", float, None, None, None),
    ("--sweep-to", "sweep_to", float, None, None, None),
    ("--sweep-steps", "sweep_steps", int, None, 1, None),
    ("--sweep-scale", "sweep_scale", None, ("linear", "log"), "linear", None),
    ("--no-bounds", "no_bounds", bool, None, False, "skip bound evaluation"),
    ("--no-sim", "no_sim", bool, None, False, "skip Monte Carlo estimation"),
)
_COMMANDS = (  # (name, aliases, flags, help)
    ("bounds", ("tau-range", "max-eaves"), _COMMON_FLAGS,
     "evaluate all closed-form bounds, the tau window and the tolerable eavesdropper count"),
    ("simulate", (), _COMMON_FLAGS, "Monte Carlo outage estimation"),
    ("sweep", (), _COMMON_FLAGS + _SWEEP_FLAGS, "evaluate a parameter grid"),
)
# Per command name and alias: option -> (dest, type, choices), and the defaults
# in the order argparse seeds them.
_FLAGS = {name: {row[0]: row[1:4] for row in rows}
          for command, aliases, rows, _ in _COMMANDS for name in (command, *aliases)}
_DEFAULTS = {name: {row[1]: row[4] for row in rows}
             for command, aliases, rows, _ in _COMMANDS for name in (command, *aliases)}


@functools.cache
def build_parser():
    """The CLI's argparse parser, built from the flag table on first use only."""
    import argparse  # only here: a well-formed call is read off the table

    parser = argparse.ArgumentParser(
        prog="twohopsec",
        description="Bounds and Monte Carlo simulation for a secure two-hop relay protocol",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, aliases, rows, summary in _COMMANDS:
        command = sub.add_parser(name, aliases=list(aliases), help=summary)
        for option, dest, kind, choices, default, text in rows:
            how = {"action": "store_true"} if kind is bool else {"type": kind, "choices": choices}
            command.add_argument(option, dest=dest, default=default, help=text, **how)
    return parser


def _table_parse(argv: list) -> SimpleNamespace | None:
    """What argparse makes of a call that opens with a command name, read off the table.

    Read this way only when every token is an exact flag followed by a value
    that does not start with ``-``, or an exact switch, and every value
    converts and is among the flag's choices.  Anything else (``--n=7``, an
    abbreviation, ``-h``, ``--``, a stray positional, a bad value) gives None
    and is left to argparse, so every message is still its own.
    """
    flags = _FLAGS[argv[0]]
    args = SimpleNamespace(command=argv[0], **_DEFAULTS[argv[0]])
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in flags:
            return None
        dest, kind, choices = flags[token]
        if kind is bool:
            setattr(args, dest, True)
            continue
        text = next(tokens, "-")  # a missing value is left to argparse, as a dash is
        if text.startswith("-"):
            return None
        try:
            value = text if kind is None else kind(text)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        setattr(args, dest, value)
    return args


def _misplaced_flag(argv: list) -> str | None:
    """The error for a call that opens with a flag of the command it names later."""
    at = next((i for i, token in enumerate(argv) if token in _FLAGS), None)
    if at is None or argv[0] not in _FLAGS[argv[at]]:
        return None
    if any(token == "-h" or len(token) > 2 and "--help".startswith(token) for token in argv):
        return None  # argparse prints help wherever -h or --help (abbreviated or not) stands
    import shlex  # only on this error path

    call = shlex.join([argv[at], *argv[:at], *argv[at + 1:]])
    return f"{argv[0]} must come after the command: {build_parser().prog} {call}"


def _parse_args(argv) -> SimpleNamespace:
    """Parse a call off the flag table, or with argparse when the table cannot settle it.

    1. A call that opens with a command name and is well formed (see
       ``_table_parse``) is read straight off the table.
    2. The argparse parser takes the rest: no arguments, ``-h``, an unknown
       command, and every call ``_table_parse`` declines, so each usage line
       and message is argparse's own.  A call that opens with a flag of the
       command it names later, and asks for no help, is stopped with a message
       saying where the flag belongs.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _FLAGS:
        args = _table_parse(argv)
        if args is not None:
            return args
    elif argv:
        message = _misplaced_flag(argv)
        if message is not None:
            build_parser().error(message)
    return SimpleNamespace(**vars(build_parser().parse_args(argv)))


def __getattr__(name: str):  # the simulator, and with it NumPy, on first use
    if name != "estimate":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .montecarlo import estimate

    return globals().setdefault("estimate", estimate)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        config = load_config(args)
        if args.workers < 1:
            raise ValueError("--workers must be at least 1")
        _run(config, args)
        return 0
    except (QuadratureError, FloatingPointError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("numeric failure: out of memory (a batch keeps arrays of batch x n and "
              "batch x m values; n or m too large)", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
