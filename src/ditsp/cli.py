"""Command-line front end: tour | dtrp | bounds | tile | scaling.

Global flags ``--seed``, ``--out`` and ``--format`` apply to every
subcommand; ``--config FILE`` loads a JSON object whose keys mirror the
flags (explicit flags win).  ``--format`` chooses how ``tour`` and ``dtrp``
write their rows and how ``scaling --out`` writes its trial rows;
``bounds``, ``tile`` and the scaling fit always print JSON objects.  Exit
status is 0 iff every assertion the invoked command makes holds (e.g.
stability for ``dtrp``, slope windows for ``scaling`` when requested).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, astuple

from ditsp.bounds import bound_set
from ditsp.dtrp import DtrpConfig, run_bta, run_cca
from ditsp.geometry import BeadGrid, BeadSpec, CylinderGrid
from ditsp.harness import (ExperimentConfig, TOUR_CSV_FIELDS, fit_experiment,
                           run_experiment, write_csv)
from ditsp.vehicle import VehicleParams

DTRP_CSV_FIELDS = ("policy", "lambda", "seed", "mean_system_time",
                   "mean_queue_len", "served", "divergent_flag")

_ALGO_NAMES = {"sgs": "sgs", "recbta": "rec_bta", "reccca": "rec_cca",
               "sgs_grid": "sgs_grid"}


def _emit_obj(obj, out):
    text = json.dumps(obj, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(rows, fields, fmt, out):
    if fmt == "json":
        _emit_obj([dict(zip(fields, r)) for r in rows], out)
    else:
        write_csv(rows, fields, out)


def _dims(args):
    if args.dim == 3:
        if args.D is None:
            raise ValueError("--D is required for --dim 3")
        return (args.W, args.H, args.D)
    return (args.W, args.H)


def _params(args) -> VehicleParams:
    return VehicleParams(r_vel=args.rvel, r_ctr=args.rctr)


def _experiment(args, ns, **fields) -> ExperimentConfig:
    """The ``ExperimentConfig`` of a ``tour`` or ``scaling`` call."""
    return ExperimentConfig(algo=_ALGO_NAMES[args.algo], dims=_dims(args),
                            params=_params(args), ns=ns, n_seeds=args.trials,
                            master_seed=args.seed, **fields)


def cmd_tour(args) -> int:
    results = run_experiment(_experiment(args, (args.n,)))
    _emit([astuple(r) for r in results], TOUR_CSV_FIELDS, args.format, args.out)
    return 0


def cmd_dtrp(args) -> int:
    dims = _dims(args)
    run = run_bta if args.policy == "bta" else run_cca
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    rows = []
    trace = [] if args.trace else None
    for seed in range(args.seeds):
        config = DtrpConfig(dims=dims, params=_params(args), lam=args.lam,
                            n_slots=args.horizon, seed=args.seed + seed)
        stats = run(config, trace=trace if seed == 0 else None)
        rows.append([args.policy, args.lam, seed, stats.mean_system_time,
                     stats.mean_queue_len, stats.served, int(stats.divergent)])
    if args.trace:
        trace.sort(key=lambda e: e["t"])
        # the trace is opened before the rows are written, so that a trace
        # path that cannot be written writes no rows; if the rows cannot be
        # written, the trace file is removed only if this call made it, so a
        # file, link, device or pipe found at the path stays
        made = not os.path.lexists(args.trace)
        with open(args.trace, "w") as fh:
            try:
                _emit(rows, DTRP_CSV_FIELDS, args.format, args.out)
            except OSError:
                if made:
                    fh.close()
                    os.remove(args.trace)
                raise
            json.dump(trace, fh, indent=2)
    else:
        _emit(rows, DTRP_CSV_FIELDS, args.format, args.out)
    # 1 iff a run diverged: a row ends in its divergent flag
    return int(any(row[-1] for row in rows))


def cmd_bounds(args) -> int:
    _emit_obj(bound_set(_dims(args), _params(args), n=args.n), args.out)
    return 0


def cmd_tile(args) -> int:
    dims = _dims(args)
    spec = BeadSpec.create(args.rho, args.ell)
    cells = []
    if args.dim == 2:
        grid = BeadGrid(*dims, spec)
        for row, col in grid.cells():
            cx, cy = grid.cell_center(row, col)
            cx, cy = float(cx), float(cy)
            half_l, half_w = spec.ell / 2.0, spec.w / 2.0
            cells.append({
                "index": [row, col],
                "anchor": [cx, cy],
                "vertices": [[cx - half_l, cy], [cx, cy + half_w],
                             [cx + half_l, cy], [cx, cy - half_w]],
            })
    else:
        grid = CylinderGrid(*dims, spec)
        for layer in range(grid.layer_min, grid.layer_max + 1):
            for row in range(grid.row_min, grid.row_max + 1):
                y, z = grid.axis_center(layer, row)
                y, z = float(y), float(z)
                for col in range(grid.n_cols):
                    x0 = col * spec.ell
                    cells.append({
                        "index": [layer, row, col],
                        "anchor": [x0 + spec.ell / 2.0, y, z],
                        "axis": [[x0, y, z], [x0 + spec.ell, y, z]],
                    })
    _emit_obj({"spec": {"rho": args.rho, "ell": spec.ell, "w": spec.w},
               "cells": cells}, args.out)
    return 0


def cmd_scaling(args) -> int:
    config = _experiment(args, tuple(args.ns), workers=args.workers)
    results = run_experiment(config)
    # the fit first: a fit that fails writes no trial rows
    fit = fit_experiment(results)
    if args.out:
        _emit([astuple(r) for r in results], TOUR_CSV_FIELDS, args.format,
              args.out)
    _emit_obj({"algo": config.algo, **asdict(fit)}, None)
    return int(args.slope_min is not None and fit.slope < args.slope_min
               or args.slope_max is not None and fit.slope > args.slope_max)


def _add_common(p):
    # the global flags are re-declared with SUPPRESS so they may appear either
    # before or after the subcommand without clobbering root-level values
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--out", type=str, default=argparse.SUPPRESS)
    p.add_argument("--format", choices=("csv", "json"),
                   default=argparse.SUPPRESS)
    p.add_argument("--config", type=str, default=argparse.SUPPRESS)
    p.add_argument("--dim", type=int, choices=(2, 3), default=2)
    p.add_argument("--W", type=float, default=1.0)
    p.add_argument("--H", type=float, default=1.0)
    p.add_argument("--D", type=float, default=None)
    p.add_argument("--rvel", type=float, default=0.1)
    p.add_argument("--rctr", type=float, default=1.0)


def _take_defaults(parser, config):
    """Make ``config``'s values the defaults of the flags ``parser`` declares.

    A value goes through the flag's ``type`` as its text would on the command
    line, so ``{"n": 2.5}`` is a usage error and ``{"lambda": 30}`` reads
    30.0.  argparse converts a text default itself, when the parser runs and
    the flag is not given; a list, for a flag of many values, is parsed here,
    item by item.  ``null`` stays ``None``.

    A subcommand re-declares the global flags with ``SUPPRESS``, so they take
    their config value on the root parser only, where a flag given before the
    subcommand still overrides it.
    """
    for action in parser._actions if config else ():
        if action.dest in config and action.default is not argparse.SUPPRESS:
            value = config[action.dest]
            if isinstance(value, list):
                argv = [action.option_strings[0], *map(str, value)]
                value = vars(parser.parse_known_args(argv)[0])[action.dest]
            action.default = (value if value is None or isinstance(value, list)
                              else str(value))


def build_parser(config=None) -> argparse.ArgumentParser:
    """The ``ditsp`` parser; ``config`` maps flag names to their defaults."""
    root = argparse.ArgumentParser(prog="ditsp", description=__doc__)
    root.add_argument("--config", type=str, default=None,
                      help="JSON file of default flag values")
    root.add_argument("--seed", type=int, default=0)
    root.add_argument("--out", type=str, default=None)
    root.add_argument("--format", choices=("csv", "json"), default="csv")
    # before the required subcommand exists, while parsing [] still succeeds
    _take_defaults(root, config)
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tour", help="run tour trials, emit one CSV row each")
    _add_common(p)
    p.add_argument("--algo", choices=tuple(_ALGO_NAMES), default="sgs")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--trials", type=int, default=1)
    p.set_defaults(func=cmd_tour)

    p = sub.add_parser("dtrp", help="simulate a repair policy")
    _add_common(p)
    p.add_argument("--policy", choices=("bta", "cca"), default="bta")
    p.add_argument("--lambda", dest="lam", type=float, default=20.0)
    p.add_argument("--horizon", type=int, default=200,
                   help="simulation length in sweep periods")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--trace", type=str, default=None,
                   help="write a JSON event trace for the first run here")
    p.set_defaults(func=cmd_dtrp)

    p = sub.add_parser("bounds", help="print all bound coefficients as JSON")
    _add_common(p)
    p.add_argument("--n", type=int, default=1000)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("tile", help="dump cell geometry as JSON")
    _add_common(p)
    p.add_argument("--rho", type=float, default=0.01)
    p.add_argument("--ell", type=float, default=0.02)
    p.set_defaults(func=cmd_tile)

    p = sub.add_parser("scaling", help="fit a log-log growth exponent")
    _add_common(p)
    p.add_argument("--algo", choices=tuple(_ALGO_NAMES), default="recbta")
    p.add_argument("--ns", type=int, nargs="+", default=[1000, 10000, 100000])
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--slope-min", type=float, default=None)
    p.add_argument("--slope-max", type=float, default=None)
    p.set_defaults(func=cmd_scaling)
    for p in sub.choices.values():
        _take_defaults(p, config)
    return root


@functools.cache
def _plain_parser() -> argparse.ArgumentParser:
    """The parser without a config, built once: building it takes about
    1.5 ms, and parsing leaves it as it was.  A ``--config`` parser takes
    the file's values as defaults, so each is built anew."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command.  Its ``ValueError`` or ``OSError``, and the config
    file's, exits with the one line ``<command>: <message>``."""
    args = _plain_parser().parse_args(argv)
    try:
        if args.config:
            # parse again with the file's values as defaults, so every flag
            # given on the command line, in any spelling, wins
            with open(args.config) as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValueError(f"config file {args.config} does not hold "
                                 "a JSON object")
            config = {key.replace("-", "_"): value
                      for key, value in config.items()}
            if "lambda" in config:
                config["lam"] = config.pop("lambda")
            args = build_parser(config).parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as err:
        raise SystemExit(f"{args.command}: {err}") from None


if __name__ == "__main__":
    sys.exit(main())
