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
byte-identical output.  Each run writes exactly one document, to stdout
or to --out: CSV text, or JSON that begins with the "config" echo of the
run.  The document does not depend on its destination, so an echo fed
back through --config reproduces it.  Diagnostics (the --refine-phi note)
go to stderr.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical
failure (non-convergence, oracle deviation).
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

from .fock import equivalence_grid
from .gaussian import _check_choice, _check_finite, _check_integer
from .interferometer import InterferometerConfig, _evaluate_grid
from .resolution import (
    _CRITERIA,
    _REFINE_HALF_WIDTH,
    _REFINE_TOL,
    SWEEP_PARAMETERS,
    optimize_delta2,
    refine_working_point,
    small_angle_root,
    sweep,
)

__all__ = ["RunConfig", "main"]

_FORMATS = ("csv", "json")
_BOOLS = (bool, np.bool_)
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
    format: str = "csv"

    def __post_init__(self):
        if not isinstance(self.interferometer, InterferometerConfig):
            raise ValueError("interferometer must be an InterferometerConfig, "
                             f"got {self.interferometer!r}")
        _check_choice("criterion", self.criterion, _CRITERIA)
        _check_choice("format", self.format, _FORMATS)
        _check_choice("sweep parameter", self.param, SWEEP_PARAMETERS)
        for name in ("working_point", "phi_min", "phi_max", "param_min", "param_max"):
            _check_finite(name, getattr(self, name))
        for lo, hi, pts, what in ((self.phi_min, self.phi_max, self.phi_points, "phi"),
                                  (self.param_min, self.param_max, self.param_points, "param")):
            if not hi > lo:
                raise ValueError(f"{what} grid must be strictly increasing (max > min)")
            span = float(hi) - float(lo)  # an int span can exceed float range; np.float64 warns
            if not math.isfinite(span):
                raise ValueError(f"{what} grid span max - min must be finite, got {span}")
            _check_integer(f"{what} grid points", pts, least=2)
        if not isinstance(self.log_grid, bool):
            raise ValueError(f"log_grid must be true or false, got {self.log_grid!r}")
        if self.log_grid and self.param_min <= 0:
            raise ValueError("log-spaced grids need a positive minimum")

    def to_dict(self) -> dict:
        def nest(layout):
            return {key: nest(f) if isinstance(f, dict) else
                    getattr(self.interferometer if f in _DEVICE_FIELDS else self, f)
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
        return _with_fields(_DEFAULT_RUN, flatten(_LAYOUT, data, "config"))

    def phi_grid(self) -> np.ndarray:
        """Half-open phase grid [phi_min, phi_max)."""
        return np.linspace(self.phi_min, self.phi_max, self.phi_points, endpoint=False)

    def param_grid(self) -> np.ndarray:
        """Closed parameter grid [param_min, param_max]."""
        if self.log_grid:
            return np.geomspace(self.param_min, self.param_max, self.param_points)
        return np.linspace(self.param_min, self.param_max, self.param_points)


# The defaults every request starts from; immutable, so built once.
_DEFAULT_RUN = RunConfig(InterferometerConfig(G=1.0))
# Every field a flag or a config key sets, device fields included.
_FIELDS = frozenset(_DEVICE_FIELDS).union(
    f.name for f in dataclasses.fields(RunConfig) if f.name != "interferometer")


def _with_fields(cfg: RunConfig, fields: dict) -> RunConfig:
    """cfg with the given fields, device fields included, set; cfg if none."""
    device = {k: v for k, v in fields.items() if k in _DEVICE_FIELDS}
    rest = {k: v for k, v in fields.items() if k not in _DEVICE_FIELDS}
    if device:
        rest["interferometer"] = dataclasses.replace(cfg.interferometer, **device)
    return dataclasses.replace(cfg, **rest) if rest else cfg


def fmt(value) -> str:
    """Render one CSV cell: 12 significant digits, decimal point kept."""
    if isinstance(value, _BOOLS):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return f"{int(value)}.0"
    s = f"{float(value):.12g}"  # inf, -inf and nan included
    return s + ".0" if s.lstrip("-").isdigit() else s


def _json_num(x):
    """JSON data value: a bool as itself, a number at 12 significant digits,
    non-finite as null."""
    if isinstance(x, _BOOLS):
        return bool(x)
    x = float(x)
    return float(f"{x:.12g}") if math.isfinite(x) else None


def _table(cfg: RunConfig, columns, rows, tail=()):
    """The rows, tuples of cells, as CSV text or a JSON body; `tail` holds the
    values of the last columns, the same on every row, which the rows omit.
    A CSV row is one format of its own cells by a template of `%.12g` fields,
    or `%s` where the first row holds a bool, with the tail's text, rendered
    once by `fmt`, spliced in; `%s` writes a bool as True or False, the only
    capitals a row can hold, lowered at the end.  A row whose text lacks a
    decimal point in some `%.12g` field (an integral or non-finite value,
    `1e-05`, a bool or an int) or a capital in some `%s` field is rendered
    again cell by cell with `fmt`, so every cell reads exactly as `fmt`
    writes it."""
    n = len(columns) - len(tail)
    if cfg.format == "csv":
        end = "".join("," + fmt(v) for v in tail)
        lines, line, words = [",".join(columns)], None, 0
        for row in rows:
            if line is None:  # the first row's bools make %s fields
                line = ",".join("%s" if type(v) is bool else "%.12g" for v in row) + end
                dots, words = line.count("."), line.count("%s")
            text = line % row
            if text.count(".") != dots or words and text.count("T") + text.count("F") != words:
                text = ",".join(map(fmt, row)) + end
            lines.append(text)
        text = "\n".join(lines) + "\n"
        return text.replace("True", "true").replace("False", "false") if words else text
    end = {c: _json_num(v) for c, v in zip(columns[n:], tail)}
    return {"rows": [{c: _json_num(v) for c, v in zip(columns, row)} | end for row in rows]}


# Each subcommand returns (CSV text or JSON body, ok); ok false exits 2.
def cmd_signal(cfg: RunConfig, args):
    columns = ("phi", "mean_P", "sqrt_second_moment", "sigma", "mean_N")
    grid = cfg.phi_grid()
    if not np.all(np.diff(grid) > 0):  # more points than floats in the span
        raise ValueError(f"phase grid values must be strictly increasing, but its "
                         f"{cfg.phi_points} points in [{cfg.phi_min!r}, {cfg.phi_max!r}) "
                         "repeat a phase")
    phis = grid.tolist()
    mean, m2, sigma, photons = _evaluate_grid(cfg.interferometer, phis)
    rows = zip(phis, mean.tolist(), np.sqrt(m2).tolist(), sigma.tolist())
    return _table(cfg, columns, rows, (photons,)), True


def cmd_resolve(cfg: RunConfig, args):
    phi = cfg.working_point
    if args.refine_phi:
        phi = refine_working_point(cfg.interferometer, phi)
        if abs(abs(phi - cfg.working_point) - _REFINE_HALF_WIDTH) <= _REFINE_TOL:
            print(f"squint: note: refined working point {phi!r} is at the edge of "
                  f"its search bracket, working point +/- {_REFINE_HALF_WIDTH:g}; "
                  "the noise minimum may lie outside it", file=sys.stderr)
    res = _CRITERIA[cfg.criterion](cfg.interferometer, phi=phi)
    body = {"result": {
        "criterion": res.criterion,
        "working_point": _json_num(res.working_point),
        "delta_phi": _json_num(res.delta_phi),
        "kappa": _json_num(res.kappa),
        "mean_N": _json_num(res.mean_N),
        "iterations": res.iterations,
        "converged": res.converged,
        "message": res.message,
    }}
    if args.refine_phi:
        body["refined_working_point"] = _json_num(phi)
    return body, res.converged


def cmd_sweep(cfg: RunConfig, args):
    grid = [float(value) for value in cfg.param_grid()]
    results = sweep(cfg.interferometer, cfg.param, grid,
                    criterion=cfg.criterion, phi=cfg.working_point)
    columns = ("param", "G", "mean_N", "delta_phi", "kappa", "converged", "four_over_N")
    rows = [(value, value if cfg.param == "G" else cfg.interferometer.G,
             r.mean_N, r.delta_phi, r.kappa, r.converged,
             small_angle_root() / r.mean_N if r.mean_N > 0 else math.inf)
            for value, r in zip(grid, results)]
    return _table(cfg, columns, rows), all(r.converged for r in results)


def cmd_optimize_imbalance(cfg: RunConfig, args):
    opt = optimize_delta2(cfg.interferometer, criterion=cfg.criterion,
                          phi=cfg.working_point)
    return {
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
    }, opt.converged and opt.unimodal


def cmd_oracle_check(cfg: RunConfig, args):
    report = equivalence_grid()
    return {
        "tolerance": _json_num(report.tolerance),
        "n_cases": report.n_cases,
        "max_deviation": _json_num(report.max_deviation),
        "worst_case": {k: _json_num(v) for k, v in dataclasses.asdict(report.worst).items()},
        "n_failures": len(report.failures),
        "passed": report.passed,
    }, report.passed


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1 (2 is reserved for numerics).
    A subcommand's parser also has a flag table, set by `_add_subcommand`:
    `flags` maps each option string of an argument added by `add_argument`
    (not argparse's own -h/--help, which the constructor adds first) to the
    action it returned, and `defaults` holds the full parser's namespace
    for the bare subcommand."""

    flags = None  # the top-level parser has no table
    exclusive = frozenset()  # actions a request may give at most one of

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if self.flags is not None:
            self.flags.update(dict.fromkeys(action.option_strings, action))
        return action

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def read_flags(self, tokens):
        """The namespace the full parser gives this subcommand's `tokens`, read
        from the flag table, or None unless every token is `--name=value`,
        `--name value` or `-G value` with a value that is non-empty and not
        led by "-", or a bare store_true/store_false flag; each value passes
        its action's type and choices, and at most one exclusive flag is
        given.  The rest, help and every usage error, is argparse's."""
        values, given, tokens = dict(self.defaults), set(), iter(tokens)
        for token in tokens:
            name, eq, text = token.partition("=")
            action = self.flags.get(name if eq and name.startswith("--") else token)
            # argparse before 3.13 reads --name=-- as an empty list
            if action is None or eq and (action.nargs == 0 or text == "--"):
                return None
            if action.nargs == 0:
                value = action.const
            else:
                if not eq:
                    text = next(tokens, "")
                    if not text or text[0] == "-":
                        return None
                try:
                    value = text if action.type is None else action.type(text)
                except (TypeError, ValueError):
                    return None
                if action.choices is not None and value not in action.choices:
                    return None
            values[action.dest] = value
            given.add(action)
        return argparse.Namespace(**values) if len(given & self.exclusive) < 2 else None


def _add_subcommand(sub, name: str, run, summary: str, device: bool = True) -> _Parser:
    """Subparser running `run`, with an empty flag table that each later
    `add_argument` fills, the common flags and (unless `device` is false)
    the device flags.  Each flag's dest names the field it sets; an unset
    flag is None and keeps the config file's value or the default."""
    p = sub.add_parser(name, help=summary)
    p.flags = {}
    p.set_defaults(command=name, run=run, device=device)
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
    """The CLI's full parser, built once; each parse fills a fresh namespace.
    Its `commands` maps each subcommand's name to that subcommand's parser,
    whose flag table (`_Parser.read_flags`) reads a request of exact flags
    (see `_parse`); the full parser reads every other request, and alone
    writes help and usage errors.  Each table starts from argparse's own
    namespace for the bare subcommand, so it holds every default in
    argparse's order."""
    parser = _Parser(prog="squint",
                     description="Squeezed-vacuum interferometry: signals, "
                                 "resolution limits, sweeps, and oracle checks.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    parser.commands = sub.choices

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
    grid = p.add_mutually_exclusive_group()  # its add_argument is argparse's own
    pair = (grid.add_argument("--log", dest="log_grid", action="store_true", default=None,
                              help="log-spaced grid (default)"),
            grid.add_argument("--linear", dest="log_grid", action="store_false", default=None,
                              help="linearly spaced grid"))
    p.flags.update((action.option_strings[0], action) for action in pair)
    p.exclusive = frozenset(pair)
    p.add_argument("--format", choices=_FORMATS, help="output format (default csv)")

    p = _add_subcommand(sub, "optimize-imbalance", cmd_optimize_imbalance,
                        "best recombiner imbalance at fixed gain")
    _add_solver_flags(p)

    _add_subcommand(sub, "oracle-check", cmd_oracle_check,
                    "engine vs Fock oracle on the validation grid", device=False)
    for p in parser.commands.values():
        # the bare subcommand's namespace, read by argparse's own method so
        # that _Parser.parse_known_args sees requests only; "command" leads
        p.defaults = {"command": None} | vars(argparse.ArgumentParser.parse_known_args(p, [])[0])
    return parser


def _build_runconfig(args) -> RunConfig:
    for flag in ("config", "out"):
        path = getattr(args, flag)
        if path is not None and not (isinstance(path, str) and path):
            raise ValueError(f"--{flag} needs a file path, but got {path!r}")
    cfg = _DEFAULT_RUN
    if args.config is not None:
        with open(args.config) as fh:
            data = json.load(fh)
        cfg = RunConfig.from_dict(data)
        if not args.device and data.get("interferometer"):
            raise ValueError(f"{args.command} reads no device fields, but the config "
                             f"file sets {sorted(data['interferometer'])}")
    fields = {k: v for k, v in vars(args).items() if k in _FIELDS and v is not None}
    if args.degrees:
        gain_grid = fields.get("param", cfg.param) == "G"
        for name in _ANGLE_FIELDS.intersection(fields):
            if not (gain_grid and name in ("param_min", "param_max")):
                fields[name] *= math.pi / 180.0
    return _with_fields(cfg, fields)


def _parse(argv) -> argparse.Namespace:
    """The request's namespace, equal to the full parser's.  A request whose
    argv[0] names a subcommand and whose tokens are all str is read from that
    subcommand's flag table when the table can read it; the full parser reads
    any other request, and alone writes help and usage errors."""
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and all(type(token) is str for token in argv) and argv[0] in parser.commands:
        args = parser.commands[argv[0]].read_flags(argv[1:])
        if args is not None:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one request, `sys.argv[1:]` if argv is None, and return its exit
    code.  The request is read by its subcommand's flag table, or else by
    argparse; help and usage errors exit through SystemExit, as argparse
    does."""
    args = _parse(argv)
    try:
        cfg = _build_runconfig(args)
    except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
        print(f"squint: config error: {exc}", file=sys.stderr)
        return 1
    try:
        doc, ok = args.run(cfg, args)
        if isinstance(doc, dict):
            doc = json.dumps({"config": cfg.to_dict(), **doc}, indent=2) + "\n"
        if args.out is None:
            sys.stdout.write(doc)
        else:
            with open(args.out, "w", newline="\n") as fh:
                fh.write(doc)
        return 0 if ok else 2
    except (OSError, MemoryError) as exc:
        print(f"squint: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"squint: invalid configuration: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
