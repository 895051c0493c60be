"""Command-line runner: single scenarios, controller comparisons, reports.

Outputs per run: trajectory.csv, report.txt, config.echo, and optionally
plot.gp (a plain gnuplot script; no graphics dependency). Exit codes are
the machine contract, mapped in ``main`` alone: 0 run completed, 2
divergence recorded, 1 bad arguments, an unreadable scenario file or a
rejected scenario (ConfigError), 3 output I/O failure (OSError).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .config import emit_scenario, parse_scenario, scenario_hash
from .exceptions import ConfigError, DivergenceError
from .metrics import build_report, row_disagreement, row_laplacian_seminorm
from .presets import PRESETS, preset
from .scenario import simulate_scenario, validate_scenario


class _ArgumentParser(argparse.ArgumentParser):
    """Prints the usage line and raises ConfigError on a bad argument."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="consensuslab",
        description="Simulate cascaded high-order consensus scenarios.",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", metavar="FILE", help="scenario config file")
    src.add_argument("--preset", metavar="NAME",
                     help=f"built-in scenario: {', '.join(sorted(PRESETS))}")
    p.add_argument("--out", metavar="DIR", default="runs",
                   help="output directory (default: runs)")
    p.add_argument("--controller", metavar="KIND",
                   help="override the scenario's controller")
    p.add_argument("--compare", metavar="K1,K2,...",
                   help="run the same setup under several controllers")
    p.add_argument("--seed", type=int, metavar="U64", help="override the seed")
    p.add_argument("--dt", type=float, metavar="S", help="override the step size")
    p.add_argument("--t-end", type=float, metavar="S", dest="t_end",
                   help="override the horizon")
    p.add_argument("--quiet", action="store_true", help="suppress progress text")
    p.add_argument("--gnuplot", action="store_true",
                   help="also write a plot.gp script referencing the CSV")
    return p


def _load_scenario(args):
    if args.preset is not None:
        sc = preset(args.preset)
    else:
        try:
            text = Path(args.scenario).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read scenario file {args.scenario}: {err}") from None
        sc = parse_scenario(text)
    overrides = {key: getattr(args, key) for key in ("controller", "seed", "dt", "t_end")
                 if getattr(args, key) is not None}
    return dataclasses.replace(sc, **overrides)


def _fmt12(v) -> str:
    return f"{v:.12g}"


def write_trajectory_csv(traj, path: Path) -> None:
    """Write ``traj`` as CSV: t, the plant positions x_i with their formation
    offsets added, from order 2 on the velocities xdot_i, on the cascade
    route of order >= 2 the cascade states xi_k_i, then each row's
    disagreement and Laplacian seminorm of the simulated, offset-free
    positions. Values print as "%.12g".

    The rows go out one block of ``traj.plant_blocks()`` at a time: each
    block is copied into one array sized by the first block, its two
    seminorm columns are taken from that block's positions alone, and it is
    formatted and written before the next is derived, so no copy of the
    whole record is made.
    """
    meta = traj.meta
    n = meta["n_agents"]
    order = meta["order"]
    L = meta["laplacian"]
    d_ref = np.asarray(meta["d_ref"])
    velocity = order >= 2
    cascade = velocity and meta["route"] == "cascade"
    header = ["t"] + [f"x_{i + 1}" for i in range(n)]
    if velocity:
        header += [f"xdot_{i + 1}" for i in range(n)]
    if cascade:
        header += [f"xi_{k + 1}_{i + 1}" for k in range(order) for i in range(n)]
    header += ["disagreement", "lap_seminorm"]

    block = None
    # "%.12g" on a Python float gives the same text as _fmt12.
    row_format = ",".join(["%.12g"] * len(header)) + "\n"
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for first, x, xdot in traj.plant_blocks():
            if block is None:
                block = np.empty((len(x), len(header)))
            out = block[:len(x)]
            rows = slice(first, first + len(x))
            columns = (traj.times[rows, None], x, xdot, traj.states[rows])
            np.concatenate(columns[:2 + velocity + cascade], axis=1, out=out[:, :-2])
            out[:, 1:n + 1] += d_ref
            out[:, -2] = row_disagreement(x)
            out[:, -1] = row_laplacian_seminorm(L, x)
            fh.writelines(row_format % tuple(row) for row in out.tolist())


def write_report(traj, sc, path: Path, config_hash: str):
    """Build the run's ConsensusReport, write it as report.txt and return it."""
    regime_band = 1.0 if any(st.kind == "saturated" for st in sc.stages) else None
    report = build_report(traj, tolerance=sc.tolerance, tail_fraction=sc.tail_fraction,
                          regime_band=regime_band, L=traj.meta["laplacian"])
    lines = [
        f"name = {sc.name}",
        f"controller = {sc.controller}",
        f"seed = {sc.seed}",
        f"n_agents = {sc.graph_n}",
        f"order = {sc.order}",
        f"dt = {_fmt12(sc.dt)}",
        f"t_end = {_fmt12(sc.t_end)}",
        f"scenario_hash = {config_hash}",
        f"converged = {'true' if report.converged else 'false'}",
    ]
    for k, res in enumerate(report.order_residuals):
        lines.append(f"order{k}_residual = {_fmt12(res)}")
    lines.append(f"peak_disagreement = {_fmt12(report.peak_disagreement)}")
    lines.append(f"final_lap_seminorm = {_fmt12(report.final_lap_seminorm)}")
    if report.regime_entry is not None:
        lines.append(f"regime_entry_time = {_fmt12(report.regime_entry)}")
    elif regime_band is not None:
        lines.append("regime_entry_time = never")
    if report.divergence_time is not None:
        lines.append(f"divergence_time = {_fmt12(report.divergence_time)}")
    path.write_text("\n".join(lines) + "\n")
    return report


def write_gnuplot(sc, path: Path) -> None:
    n = sc.graph_n
    name = sc.name.replace("'", "''")  # gnuplot's one escape inside '...'
    plots = ", ".join(
        f"'trajectory.csv' using 1:{i + 2} with lines title 'x_{i + 1}'"
        for i in range(n)
    )
    path.write_text(
        "set datafile separator ','\n"
        "set key outside\n"
        f"set title '{name} ({sc.controller})'\n"
        "set xlabel 't [s]'\n"
        f"plot {plots}\n"
    )


def run(sc, out_dir, quiet=False, gnuplot=False):
    """Simulate one scenario and write its artifacts. Returns (0 completed
    or 2 diverged, ConsensusReport); raises ConfigError before any output
    for a rejected scenario and OSError for a failed write."""
    code = 0
    try:
        traj = simulate_scenario(sc)
    except DivergenceError as err:
        traj, code = err.trajectory, 2

    config_text = emit_scenario(sc)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj, out / "trajectory.csv")
    report = write_report(traj, sc, out / "report.txt", scenario_hash(config_text))
    (out / "config.echo").write_text(config_text)
    if gnuplot:
        write_gnuplot(sc, out / "plot.gp")

    if not quiet:
        tag = "diverged" if code == 2 else "completed"
        print(f"{sc.name} [{sc.controller}] {tag}; outputs in {out}")
    return code, report


def compare(sc, controllers, out_dir, quiet=False, gnuplot=False) -> int:
    """Run the same physical setup under each controller (identical seed,
    initial conditions, and RNG streams) and write a side-by-side table.
    Returns 2 if a run diverged, else 0. An empty list, a repeated or a
    rejected controller raises ConfigError before anything runs."""
    if not controllers:
        raise ConfigError("empty --compare list")
    if len(set(controllers)) < len(controllers):
        raise ConfigError(f"--compare names a controller twice: {','.join(controllers)}")
    runs = [dataclasses.replace(sc, controller=kind) for kind in controllers]
    for each in runs:
        validate_scenario(each)
    out = Path(out_dir)
    rows = []
    worst = 0
    for kind, each in zip(controllers, runs):
        code, report = run(each, out / kind, quiet=quiet, gnuplot=gnuplot)
        worst = max(worst, code)
        residuals = report.order_residuals
        rows.append((
            kind,
            "true" if report.converged else "false",
            _fmt12(report.peak_disagreement),
            _fmt12(residuals[0]),
            _fmt12(residuals[1]) if len(residuals) > 1 else "-",
            "-" if report.divergence_time is None else _fmt12(report.divergence_time),
        ))

    widths = (22, 10, 16, 16, 16, 14)
    titles = ("controller", "converged", "peak_disagree",
              "order0_resid", "order1_resid", "diverged_at")
    # A space between cells keeps a value wider than its column apart
    # from the next one, so every row splits on whitespace.
    lines = [" ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip()
             for row in (titles, *rows)]
    table = "\n".join(lines) + "\n"
    (out / "comparison.txt").write_text(table)
    if not quiet:
        print(table, end="")
    return worst


def main(argv=None) -> int:
    """The one exit-code boundary: ConfigError exits 1 and OSError exits 3,
    each after its message on stderr."""
    try:
        args = build_parser().parse_args(argv)
        sc = _load_scenario(args)
        if args.compare is not None:
            kinds = [k.strip() for k in args.compare.split(",") if k.strip()]
            return compare(sc, kinds, args.out, quiet=args.quiet, gnuplot=args.gnuplot)
        return run(sc, args.out, quiet=args.quiet, gnuplot=args.gnuplot)[0]
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"could not write outputs: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
