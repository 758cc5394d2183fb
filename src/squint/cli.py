"""Command-line front end: deterministic CSV/JSON emission for every result.

Subcommands
-----------
signal              fringe scan: mean product signal and its noise vs phase
resolve             one resolution computation (JSON report)
sweep               resolution along a parameter grid (CSV/JSON table)
optimize-imbalance  best recombiner imbalance for the given device (JSON report)
oracle-check        covariance engine vs Fock oracle agreement (JSON report)

Conventions: all angles are radians unless --degrees is given, which
converts the values typed on the command line (config files stay radians);
phase grids cover [min, max) half-open so periodic scans have no duplicate
endpoint, while parameter grids include both ends; data values are printed
with 12 significant digits and a decimal point; identical inputs give
byte-identical output.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical
failure (non-convergence, oracle deviation, cutoff too small).
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

from .fock import _PASS_TOL, equivalence_grid
from .gaussian import _check_choice, _check_finite, _check_integer
from .interferometer import InterferometerConfig, evaluate
from .resolution import (
    _CRITERIA,
    SWEEP_PARAMETERS,
    optimize_delta2,
    refine_working_point,
    small_angle_root,
    sweep,
)

__all__ = ["RunConfig", "main"]

_FORMATS = ("csv", "json")
_DEVICE_FIELDS = tuple(f.name for f in dataclasses.fields(InterferometerConfig))
# Fields measured in radians: every device field but the gain, the phases,
# and the parameter-grid bounds unless the swept parameter is the gain.
_ANGLE_FIELDS = frozenset(_DEVICE_FIELDS[1:]) | {
    "working_point", "phi_min", "phi_max", "param_min", "param_max"}

# JSON layout of a RunConfig, in the order it is written: each key names a
# field, device fields included, or holds a nested object of the same form.
_LAYOUT = {
    "interferometer": {name: name for name in _DEVICE_FIELDS},
    "criterion": "criterion",
    "working_point": "working_point",
    "phi_grid": {"min": "phi_min", "max": "phi_max", "points": "phi_points"},
    "param_grid": {"name": "param", "min": "param_min", "max": "param_max",
                   "points": "param_points", "log": "log_grid"},
    "out": "out",
    "format": "format",
}


@dataclass(frozen=True)
class RunConfig:
    """Full description of one CLI run; JSON round-trips to an equal value."""

    interferometer: InterferometerConfig
    criterion: str = "modified"
    working_point: float = math.pi / 2
    phi_min: float = 0.0
    phi_max: float = 2 * math.pi
    phi_points: int = 1000
    param: str = "G"
    param_min: float = 0.5
    param_max: float = 8.0
    param_points: int = 60
    log_grid: bool = True
    out: str | None = None
    format: str = "csv"

    def __post_init__(self):
        _check_choice("criterion", self.criterion, _CRITERIA)
        _check_choice("format", self.format, _FORMATS)
        _check_choice("sweep parameter", self.param, SWEEP_PARAMETERS)
        for name in ("working_point", "phi_min", "phi_max", "param_min", "param_max"):
            _check_finite(name, getattr(self, name))
        for lo, hi, pts, what in ((self.phi_min, self.phi_max, self.phi_points, "phi"),
                                  (self.param_min, self.param_max, self.param_points, "param")):
            if not hi > lo:
                raise ValueError(f"{what} grid must be strictly increasing (max > min)")
            _check_integer(f"{what} grid points", pts, least=2)
        if not isinstance(self.log_grid, bool):
            raise ValueError(f"log_grid must be true or false, got {self.log_grid!r}")
        if self.log_grid and self.param_min <= 0:
            raise ValueError("log-spaced grids need a positive minimum")
        if not (self.out is None or isinstance(self.out, str)):
            raise ValueError(f"out must be a path or null, got {self.out!r}")

    def to_dict(self) -> dict:
        flat = dataclasses.asdict(self)
        flat.update(flat.pop("interferometer"))

        def nest(layout):
            return {key: nest(f) if isinstance(f, dict) else flat[f]
                    for key, f in layout.items()}
        return nest(_LAYOUT)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Config from its JSON form; missing keys keep the defaults (G = 1)."""
        def flatten(layout, obj, where):
            if not isinstance(obj, dict):
                raise ValueError(f"{where} must be a JSON object")
            unknown = set(obj) - set(layout)
            if unknown:
                raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
            flat = {}
            for key, value in obj.items():
                f = layout[key]
                flat.update(flatten(f, value, key) if isinstance(f, dict) else {f: value})
            return flat
        return _with_fields(cls(InterferometerConfig(G=1.0)),
                            flatten(_LAYOUT, data, "config"))

    def phi_grid(self) -> np.ndarray:
        """Half-open phase grid [phi_min, phi_max)."""
        return np.linspace(self.phi_min, self.phi_max, self.phi_points, endpoint=False)

    def param_grid(self) -> np.ndarray:
        """Closed parameter grid [param_min, param_max]."""
        if self.log_grid:
            return np.geomspace(self.param_min, self.param_max, self.param_points)
        return np.linspace(self.param_min, self.param_max, self.param_points)


# Every field a flag or a config key sets, device fields included.
_FIELDS = frozenset(_DEVICE_FIELDS).union(
    f.name for f in dataclasses.fields(RunConfig) if f.name != "interferometer")


def _with_fields(cfg: RunConfig, fields: dict) -> RunConfig:
    """Copy of cfg with the given fields, device fields included, set."""
    device = {k: v for k, v in fields.items() if k in _DEVICE_FIELDS}
    rest = {k: v for k, v in fields.items() if k not in _DEVICE_FIELDS}
    return dataclasses.replace(
        cfg, interferometer=dataclasses.replace(cfg.interferometer, **device), **rest)


def fmt(value) -> str:
    """Render one CSV cell: 12 significant digits, decimal point kept."""
    if type(value) is float:  # most cells: skip the abstract-class checks
        x = value
    elif isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    elif isinstance(value, (int, np.integer)):
        return f"{int(value)}.0"
    else:
        x = float(value)
    if not math.isfinite(x):
        return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
    s = f"{x:.12g}"
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _json_num(x):
    """JSON data value at 12 significant digits; non-finite becomes null."""
    x = float(x)
    if not math.isfinite(x):
        return None
    return float(f"{x:.12g}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", newline="\n") as fh:
        fh.write(text)


def _table_text(cfg: RunConfig, columns, rows) -> str:
    if cfg.format == "csv":
        lines = [",".join(columns)]
        lines += [",".join(fmt(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    payload = {
        "config": cfg.to_dict(),
        "rows": [
            {c: (v if isinstance(v, (bool, np.bool_)) else _json_num(v))
             for c, v in zip(columns, row)}
            for row in rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _result_dict(res) -> dict:
    return {
        "criterion": res.criterion,
        "working_point": _json_num(res.working_point),
        "delta_phi": _json_num(res.delta_phi),
        "kappa": _json_num(res.kappa),
        "mean_N": _json_num(res.mean_N),
        "iterations": res.iterations,
        "converged": res.converged,
        "message": res.message,
    }


def cmd_signal(cfg: RunConfig, args) -> int:
    columns = ("phi", "mean_P", "sqrt_second_moment", "sigma", "mean_N")
    rows = []
    for phi in cfg.phi_grid():
        st = evaluate(cfg.interferometer, float(phi))
        rows.append((float(phi), st.mean, math.sqrt(st.second_moment),
                     st.sigma, st.mean_photons))
    _emit(_table_text(cfg, columns, rows), cfg.out)
    return 0


def cmd_resolve(cfg: RunConfig, args) -> int:
    phi = cfg.working_point
    if args.refine_phi:
        phi = refine_working_point(cfg.interferometer, phi)
    res = _CRITERIA[cfg.criterion](cfg.interferometer, phi=phi)
    payload = {"config": cfg.to_dict(), "result": _result_dict(res)}
    if args.refine_phi:
        payload["refined_working_point"] = _json_num(phi)
    _emit(json.dumps(payload, indent=2) + "\n", cfg.out)
    return 0 if res.converged else 2


def cmd_sweep(cfg: RunConfig, args) -> int:
    table = sweep(cfg.interferometer, cfg.param, cfg.param_grid(),
                  criterion=cfg.criterion, phi=cfg.working_point)
    columns = ("param", "G", "mean_N", "delta_phi", "kappa", "converged", "four_over_N")
    rows = [(r.param, r.G, r.mean_N, r.delta_phi, r.kappa, r.converged,
             small_angle_root() / r.mean_N if r.mean_N > 0 else math.inf)
            for r in table.rows]
    _emit(_table_text(cfg, columns, rows), cfg.out)
    return 0 if all(r.converged for r in table.rows) else 2


def cmd_optimize_imbalance(cfg: RunConfig, args) -> int:
    opt = optimize_delta2(cfg.interferometer, criterion=cfg.criterion,
                          phi=cfg.working_point)
    payload = {
        "config": cfg.to_dict(),
        "result": {
            "delta2_opt": _json_num(opt.delta2),
            "kappa_opt": _json_num(opt.kappa),
            "delta_phi": _json_num(opt.delta_phi),
            "mean_N": _json_num(opt.mean_N),
            "converged": opt.converged,
            "unimodal": opt.unimodal,
            "message": opt.message,
        },
        "profile": [[_json_num(d), _json_num(k)] for d, k in opt.profile],
    }
    _emit(json.dumps(payload, indent=2) + "\n", cfg.out)
    return 0 if opt.converged and opt.unimodal else 2


def cmd_oracle_check(cfg: RunConfig, args) -> int:
    report = equivalence_grid(n_max=args.n_max, tolerance=args.tolerance)
    payload = {
        "config": cfg.to_dict(),
        "tolerance": _json_num(report.tolerance),
        "n_cases": report.n_cases,
        "max_deviation": _json_num(report.max_deviation),
        "worst_case": dataclasses.asdict(report.worst) if report.worst else None,
        "n_failures": len(report.failures),
        "cutoff_errors": [{"G": _json_num(g), "error": msg}
                          for g, msg in report.cutoff_errors],
        "passed": report.passed,
    }
    _emit(json.dumps(payload, indent=2) + "\n", cfg.out)
    for g, msg in report.cutoff_errors:
        print(f"oracle-check: G={g:g}: {msg}", file=sys.stderr)
    return 0 if report.passed else 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1 (2 is reserved for numerics)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_subcommand(sub, name: str, run, summary: str, device: bool = True) -> _Parser:
    """Subparser running `run`, with the common flags and (unless `device` is
    false) the device flags.  Each flag's dest names the field it sets; an
    unset flag is None and keeps the config file's value or the default."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(run=run)
    if device:
        p.add_argument("-G", "--gain", dest="G", type=float, help="squeezer gain")
        p.add_argument("--xi", type=float, help="pump phase (angle)")
        for loss in ("alpha1", "beta1", "alpha2", "beta2"):
            p.add_argument(f"--{loss}", type=float, help=f"loss angle {loss}")
        p.add_argument("--delta1", type=float, help="splitter imbalance (angle)")
        p.add_argument("--delta2", type=float, help="recombiner imbalance (angle)")
    p.add_argument("--config", help="JSON config file (flags override its values)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--degrees", action="store_true",
                   help="interpret angles given on the command line in degrees")
    return p


def _add_solver_flags(p: _Parser) -> None:
    p.add_argument("--criterion", choices=tuple(_CRITERIA))
    p.add_argument("--phi", dest="working_point", metavar="PHI", type=float,
                   help="working point (angle, default pi/2)")


@functools.cache
def _build_parser() -> _Parser:
    """The CLI's parser, built once; each parse_args fills a fresh namespace."""
    parser = _Parser(prog="squint",
                     description="Squeezed-vacuum interferometry: signals, "
                                 "resolution limits, sweeps, and oracle checks.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = _add_subcommand(sub, "signal", cmd_signal, "fringe scan of the product signal")
    p.add_argument("--phi-min", type=float, help="grid start (angle, default 0)")
    p.add_argument("--phi-max", type=float, help="grid end, excluded (angle, default 2 pi)")
    p.add_argument("--points", dest="phi_points", metavar="POINTS", type=int,
                   help="grid size (default 1000)")
    p.add_argument("--format", choices=_FORMATS, help="output format (default csv)")

    p = _add_subcommand(sub, "resolve", cmd_resolve, "one resolution computation")
    _add_solver_flags(p)
    p.add_argument("--refine-phi", action="store_true",
                   help="re-locate the noise minimum near the working point first")

    p = _add_subcommand(sub, "sweep", cmd_sweep, "resolution along a parameter grid")
    _add_solver_flags(p)
    p.add_argument("--param", choices=SWEEP_PARAMETERS, help="swept parameter (default G)")
    p.add_argument("--min", dest="param_min", type=float, help="grid minimum")
    p.add_argument("--max", dest="param_max", type=float, help="grid maximum")
    p.add_argument("--points", dest="param_points", metavar="POINTS", type=int,
                   help="grid size (default 60)")
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--log", dest="log_grid", action="store_true", default=None,
                      help="log-spaced grid (default)")
    grid.add_argument("--linear", dest="log_grid", action="store_false", default=None,
                      help="linearly spaced grid")
    p.add_argument("--format", choices=_FORMATS, help="output format (default csv)")

    p = _add_subcommand(sub, "optimize-imbalance", cmd_optimize_imbalance,
                        "best recombiner imbalance at fixed gain")
    _add_solver_flags(p)

    p = _add_subcommand(sub, "oracle-check", cmd_oracle_check,
                        "engine vs Fock oracle on the validation grid", device=False)
    p.add_argument("--n-max", type=int, help="override the pair cutoff (tiny values error)")
    p.add_argument("--tolerance", type=float, default=_PASS_TOL,
                   help="pass threshold on the max absolute deviation")
    return parser


def _build_runconfig(args) -> RunConfig:
    cfg = RunConfig.from_dict({})
    if args.config:
        with open(args.config) as fh:
            cfg = RunConfig.from_dict(json.load(fh))
    fields = {k: v for k, v in vars(args).items()
              if k in _FIELDS and v is not None}
    if args.degrees:
        gain_grid = fields.get("param", cfg.param) == "G"
        for name in _ANGLE_FIELDS.intersection(fields):
            if not (gain_grid and name in ("param_min", "param_max")):
                fields[name] *= math.pi / 180.0
    return _with_fields(cfg, fields)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _build_runconfig(args)
    except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
        print(f"squint: config error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.run(cfg, args)
    except OSError as exc:
        print(f"squint: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"squint: invalid configuration: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
