"""Command-line front end: bounds (alias tau-range, max-eaves), simulate, sweep.

Configuration comes from a YAML file of key-value pairs (``--config``) with
individual flags overriding file values.  Every command can emit one CSV
row per evaluated scenario under a fixed 28-column schema; missing
quantities are empty cells, never dropped columns, and infinite radii are
written as the literal string ``inf``.  The first CSV line echoes the
resolved configuration as a JSON comment so a result file reparses into the
exact run that produced it.  The argument parser is built once per process
and reused by every ``main`` call.

Exit codes: 0 success (including infeasible-but-computed results),
2 malformed configuration, 3 numeric failure (including out of memory).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bounds_general import QuadratureError, disc_square_overlap
from .model import Case, ProtocolParams
from .montecarlo import EstimateReport, estimate
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
        if self.steps == 1:
            grid = np.array([self.start], dtype=float)
        elif self.scale == "log":
            grid = np.geomspace(self.start, self.stop, self.steps)
        else:
            grid = np.linspace(self.start, self.stop, self.steps)
        if self.param in _INT_PARAMS:
            return [int(v) for v in dict.fromkeys(int(round(x)) for x in grid)]
        return [float(x) for x in grid]

    def to_dict(self):
        return {
            "param": self.param,
            "from": self.start,
            "to": self.stop,
            "steps": self.steps,
            "scale": self.scale,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        if not isinstance(d, dict):
            raise ValueError("sweep must be a mapping")
        unknown = set(d) - {"param", "from", "to", "steps", "scale"}
        if unknown:
            raise ValueError(f"unknown sweep field {sorted(unknown)[0]!r}")
        if "param" not in d:
            raise ValueError("sweep.param is required")
        for field in ("from", "to"):
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


def _as_bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"field {name!r} must be true or false, got {value!r}")
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
    exact_region: bool = False
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

    def p_region(self, params: ProtocolParams):
        if self.exact_region and params.is_general and math.isfinite(params.r):
            return disc_square_overlap(params.r)
        return None


# Derived at import, so a CLI call runs no dataclasses.fields().  Each field's
# annotation picks its converter, and "T | None" also takes None.
_CONVERTERS = {"int": _as_int, "float": _as_float, "bool": _as_bool, "str": _as_str,
               "SweepSpec": lambda value, name: SweepSpec.from_dict(value)}
_CONFIG_FIELDS = {
    f.name: (_CONVERTERS[f.type.split(" | ")[0]], f.type.endswith(" | None"))
    for f in dataclasses.fields(RunConfig)
}
_PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(ProtocolParams) if f.name != "case")
_INT_PARAMS = tuple(name for name in _SWEEPABLE if _CONFIG_FIELDS[name][0] is _as_int)
# The scenario columns that open every CSV row, read off the row's ProtocolParams
# (or off its RunConfig when the parameters were rejected).
_PARAM_COLUMNS = CSV_HEADER.split(",trials,")[0].split(",")


def load_config(args: argparse.Namespace) -> RunConfig:
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
    if value is None:
        return ""
    if isinstance(value, Case):
        return value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def _csv_row(
    scenario: ProtocolParams | RunConfig,
    trials,
    seed,
    est: EstimateReport | None,
    bnd: BoundReport | None,
    error: bool = False,
) -> str:
    cells = [_cell(getattr(scenario, name)) for name in _PARAM_COLUMNS]
    cells.append(_cell(trials if est is not None else None))
    cells.append(_cell(seed if est is not None else None))
    if est is not None:
        cells += [
            _cell(est.p_t_hat), _cell(est.ci_t[0]), _cell(est.ci_t[1]),
            _cell(est.p_s_hat), _cell(est.ci_s[0]), _cell(est.ci_s[1]),
        ]
    else:
        cells += [""] * 6
    if bnd is not None:
        tol = bnd.max_eaves
        cells += [
            _cell(bnd.bound_t),
            _cell(bnd.bound_s.value),
            _cell(bnd.window.tau_min),
            _cell(bnd.window.tau_max),
            _cell(tol.bound if tol is not None else None),
        ]
    else:
        cells += [""] * 5
    if est is not None:
        cells += [_cell(est.jain_index), _cell(est.norm_entropy), _cell(est.no_candidate_rate)]
    else:
        cells += [""] * 3
    if error:
        cells.append("error")
    elif bnd is not None:
        cells.append(_cell(bnd.feasible))
    else:
        cells.append("")
    return ",".join(cells)


def _emit_csv(config: RunConfig, rows: list, stream) -> None:
    print(f"# config: {json.dumps(config.to_dict(), sort_keys=True)}", file=stream)
    print(CSV_HEADER, file=stream)
    for row in rows:
        print(row, file=stream)


def _write_output(config: RunConfig, rows: list, report_text: str | None) -> None:
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="\n") as fh:
            _emit_csv(config, rows, fh)
    if report_text is not None:
        print(report_text)
    elif not config.out:
        _emit_csv(config, rows, sys.stdout)


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


def cmd_bounds(config: RunConfig, want_report: bool) -> int:
    params = config.protocol_params()
    bnd = evaluate_bounds(params, config.eps_t, config.eps_s, config.p_region(params))
    row = _csv_row(params, None, None, None, bnd)
    _write_output(config, [row], _bounds_report_text(bnd) if want_report else None)
    return 0


def cmd_simulate(config: RunConfig, want_report: bool, workers: int = 1) -> int:
    params = config.protocol_params()
    est = estimate(params, config.trials, config.seed, workers=workers)
    row = _csv_row(params, config.trials, config.seed, est, None)
    _write_output(config, [row], _estimate_report_text(est) if want_report else None)
    return 0


@dataclass
class _SweepPoint:
    value: object
    config: RunConfig
    params: ProtocolParams | None = None
    bnd: BoundReport | None = None
    est: EstimateReport | None = None
    error: bool = False


def _simulate_points(points: list, param: str, trials: int, seed: int, workers: int) -> None:
    """Attach estimates to the valid sweep points, in as few simulations as the grid allows.

    The SINR thresholds enter no draw, so a gamma_r or gamma_e grid is one
    simulation (common random numbers); any other parameter changes the
    selection or the jammer sets and is simulated point by point.
    """
    live = [p for p in points if not p.error]
    if param in _THRESHOLDS:
        groups = [live] if live else []
    else:
        groups = [[p] for p in live]
    for group in groups:
        try:
            if param in _THRESHOLDS:
                values = [getattr(p.params, param) for p in group]
                ests = estimate(group[0].params, trials, seed, workers=workers,
                                **{param: values})
            else:
                ests = [estimate(group[0].params, trials, seed, workers=workers)]
        except ValueError:
            for p in group:
                p.error = True
            continue
        for p, est in zip(group, ests):
            p.est = est


def cmd_sweep(config: RunConfig, want_report: bool, with_bounds: bool,
              with_sim: bool, workers: int = 1) -> int:
    if config.sweep is None:
        raise ValueError("sweep requires a sweep spec (--sweep-param or config 'sweep')")
    param = config.sweep.param
    points = [
        _SweepPoint(value, dataclasses.replace(config, sweep=None, out=None, **{param: value}))
        for value in config.sweep.values()
    ]
    for point in points:
        try:
            point.params = point.config.protocol_params()
            if with_bounds:
                point.bnd = evaluate_bounds(point.params, config.eps_t, config.eps_s,
                                            config.p_region(point.params))
        except ValueError:
            point.error = True
    if with_sim:
        _simulate_points(points, param, config.trials, config.seed, workers)
    rows = []
    summaries = []
    for point in points:
        est, bnd = point.est, point.bnd
        rows.append(
            _csv_row(
                point.params or point.config,
                config.trials if est is not None else None,
                config.seed if est is not None else None,
                est,
                bnd,
                error=point.error,
            )
        )
        if want_report:
            tag = f"{param}={_fmt(point.value)}"
            if point.error:
                summaries.append(f"{tag}: parameter error")
            else:
                parts = []
                if bnd is not None:
                    parts.append(f"bound_t={_fmt(bnd.bound_t)}")
                    parts.append(f"feasible={str(bnd.feasible).lower()}")
                if est is not None:
                    parts.append(f"p_t_hat={est.p_t_hat:.6g}")
                    parts.append(f"jain={est.jain_index:.4g}")
                summaries.append(f"{tag}: " + " ".join(parts))
    _write_output(config, rows, "\n".join(summaries) if want_report else None)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use; each ``parse_args`` returns a fresh namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML configuration file")
    common.add_argument("--case", choices=["equal", "general"])
    for name in ("n", "m", "k", "trials", "seed"):
        common.add_argument(f"--{name}", type=int)
    common.add_argument("--workers", type=int, default=1)
    for flag, dest in (
        ("--r", "r"), ("--tau", "tau"), ("--gamma-r", "gamma_r"),
        ("--gamma-e", "gamma_e"), ("--alpha", "alpha"), ("--d0", "d0"),
        ("--delta", "delta"), ("--es", "es"), ("--n0", "n0"),
        ("--eps-t", "eps_t"), ("--eps-s", "eps_s"),
    ):
        common.add_argument(flag, dest=dest, type=float)
    common.add_argument("--out", help="write the CSV to this path")
    common.add_argument("--exact-region", action="store_true", default=None,
                        help="use the exact disc-square overlap as region probability")
    common.add_argument("--report", action="store_true",
                        help="print a human-readable summary instead of CSV on stdout")

    parser = argparse.ArgumentParser(
        prog="twohopsec",
        description="Bounds and Monte Carlo simulation for a secure two-hop relay protocol",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("bounds", aliases=["tau-range", "max-eaves"], parents=[common],
                   help="evaluate all closed-form bounds, the tau window and the "
                        "tolerable eavesdropper count")
    sub.add_parser("simulate", parents=[common], help="Monte Carlo outage estimation")
    sweep = sub.add_parser("sweep", parents=[common], help="evaluate a parameter grid")
    sweep.add_argument("--sweep-param", choices=list(_SWEEPABLE))
    sweep.add_argument("--sweep-from", type=float)
    sweep.add_argument("--sweep-to", type=float)
    sweep.add_argument("--sweep-steps", type=int, default=1)
    sweep.add_argument("--sweep-scale", choices=["linear", "log"], default="linear")
    sweep.add_argument("--no-bounds", action="store_true", help="skip bound evaluation")
    sweep.add_argument("--no-sim", action="store_true", help="skip Monte Carlo estimation")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        if args.workers < 1:
            raise ValueError("--workers must be at least 1")
        if args.command in ("bounds", "tau-range", "max-eaves"):
            return cmd_bounds(config, args.report)
        if args.command == "simulate":
            return cmd_simulate(config, args.report, args.workers)
        return cmd_sweep(
            config, args.report, with_bounds=not args.no_bounds,
            with_sim=not args.no_sim, workers=args.workers,
        )
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
