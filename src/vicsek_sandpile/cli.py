"""Command-line interface: every headline quantity as one batch command.

Commands
--------
graph     vertex/edge counts and degree histogram of a level graph (JSON)
chain     exact rational tables: matrix | absorb | kstep | pmf (CSV or JSON)
mc        Monte Carlo stabilization estimate with stderr band (JSON record)
group     invariant factors of the sandpile group, read off the block tree
          (JSON array of strings)
identity  the group identity configuration (JSON; optional PGM/SVG render)

Exit codes: 0 success, 2 usage or validation, 3 capacity, 4 verification
failure.  Rationals are serialized as "num/den" strings because pmf
denominators outgrow any machine float.  Identical command, parameters and
seed reproduce identical results (bit-for-bit for the exact tables; same
sample path for the stochastic ones).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .chain import (
    absorption_probabilities,
    default_workers,
    k_step_distribution,
    monte_carlo_stabilization,
    radius_pmf_table,
    transition_matrix,
)
from .critical_group import group_structure
from .fractal_graph import CapacityError, VicsekGraph, _check_level, build
from .identity import VerificationError, identity, verify_identity
from .sandpile import SandpileConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_VERIFICATION = 4

PGM_LEVELS = {2: 80, 4: 160}
PGM_OTHER = 240
PGM_BACKGROUND = 255
PGM_SINK = 0

SVG_COLORS = {2: "#4878cf", 4: "#ee854a"}
SVG_OTHER = "#d65f5f"
SVG_SINK = "#000000"


def frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def config_to_json(level: int, c: SandpileConfig) -> dict:
    """Order-pinned dense schema; heights in canonical lex-(x,y) order with
    the sink omitted."""
    return {
        "level": level,
        "order": "lex-xy",
        "heights": [int(h) for h in c.heights],
    }


def config_from_json(data: dict) -> tuple[int, SandpileConfig]:
    level = data["level"]
    if type(level) is not int or level < 0:
        raise ValueError(f"level must be a non-negative integer, got {level!r}")
    _check_level(level)  # before 3 * 5**level below
    if data.get("order") != "lex-xy":
        raise ValueError(f"unsupported height order {data.get('order')!r}")
    heights = data["heights"]
    if not isinstance(heights, list) or any(type(h) is not int for h in heights):
        raise ValueError("heights must be a list of integers")
    if len(heights) != 3 * 5**level:
        raise ValueError("height count does not match the level")
    try:
        c = SandpileConfig(heights)
    except OverflowError as exc:
        raise ValueError("heights must fit in 64-bit integers") from exc
    if (c.heights < 0).any():
        raise ValueError("heights must be non-negative")
    return level, c


def render_pgm(g: VicsekGraph, c: SandpileConfig, path: str) -> None:
    """Plain-text PGM, one lattice cell per pixel, row y = side at the top."""
    side = g.side + 1
    xs, ys = g.coordinates()
    grid = np.full((side, side), PGM_BACKGROUND)
    grid[ys, xs] = [PGM_LEVELS.get(h, PGM_OTHER) for h in c.heights.tolist()] + [PGM_SINK]
    np.savetxt(path, grid[::-1], fmt="%d", header=f"P2\n{side} {side}\n255", comments="")


def render_svg(g: VicsekGraph, c: SandpileConfig, path: str) -> None:
    side = g.side + 1
    cell = 8
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side * cell}" '
        f'height="{side * cell}" viewBox="0 0 {side * cell} {side * cell}">'
    ]
    colors = [SVG_COLORS.get(h, SVG_OTHER) for h in c.heights.tolist()] + [SVG_SINK]
    for x, y, color in zip(*g.coordinates(), colors):
        py = (side - 1 - y) * cell
        out.append(
            f'<rect x="{x * cell}" y="{py}" width="{cell}" height="{cell}" '
            f'fill="{color}"/>'
        )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(payload) -> None:
    _emit(json.dumps(payload, indent=None, separators=(",", ":")))


def cmd_graph(args) -> int:
    g = build(args.level)
    degrees, counts = np.unique(g.degrees, return_counts=True)
    histogram = dict(zip(map(str, degrees.tolist()), counts.tolist()))
    _emit_json(
        {
            "level": g.level,
            "vertices": g.num_vertices,
            "edges": g.num_edges,
            "sink": list(g.sink),
            "degree_histogram": dict(sorted(histogram.items())),
        }
    )
    return EXIT_OK


def cmd_chain(args) -> int:
    """Each subcommand's cells are made once, then laid out by --format."""
    P = transition_matrix()
    if args.subcommand == "matrix":
        rows = [[frac_str(p) for p in row] for row in P.rows]
        record = {"rows": rows}
    elif args.subcommand == "absorb":
        rows = [[frac_str(q) for q in absorption_probabilities(P)]]
        record = {"absorption_at_0": rows[0]}
    elif args.subcommand == "kstep":
        rows = [[frac_str(q) for q in k_step_distribution(args.start, args.k, P)]]
        record = {"start": args.start, "k": args.k, "distribution": rows[0]}
    else:
        table = radius_pmf_table(args.max_n, P)
        cells = [(n, str(q.numerator), str(q.denominator), float(q)) for n, q in table]
        rows = [[str(n), num, den, repr(value)] for n, num, den, value in cells]
        keys = ("n", "numerator", "denominator", "value")
        record = {"pmf": [dict(zip(keys, cell)) for cell in cells]}
    if args.format == "json":
        _emit_json(record)
    else:
        _emit("\n".join(",".join(row) for row in rows))
    return EXIT_OK


def cmd_mc(args) -> int:
    started = time.monotonic()
    if args.workers < 0:
        raise ValueError("--workers must be non-negative (0 = all cores this process may use)")
    workers = args.workers if args.workers else default_workers()
    est = monte_carlo_stabilization(
        args.mode, args.level, args.trials, args.seed, workers=workers
    )
    record = {
        "record_version": 1,
        "command": "mc",
        "params": {
            "mode": args.mode,
            "level": args.level,
            "trials": args.trials,
            "workers": est.workers,
        },
        "seed": args.seed,
        "version": __version__,
        "duration_s": round(time.monotonic() - started, 6),
        "result": est.as_dict(),
    }
    _emit_json(record)
    return EXIT_OK


def cmd_group(args) -> int:
    factors = group_structure(args.level)
    _emit_json([str(d) for d in factors])
    return EXIT_OK


def cmd_identity(args) -> int:
    config = identity(args.level)
    g = build(args.level)
    if args.render:
        if args.render.endswith(".svg"):
            render_svg(g, config, args.render)
        elif args.render.endswith(".pgm"):
            render_pgm(g, config, args.render)
        else:
            raise ValueError("--render target must end in .pgm or .svg")
    payload = config_to_json(args.level, config)
    if args.verify:
        report = verify_identity(g, config, samples=args.verify, rng=args.seed)
        payload["verification"] = {
            "samples": args.verify,
            "clauses": report.clauses,
            "height_histogram": {str(k): v for k, v in report.height_histogram.items()},
            "sink_particles_mod4": report.sink_particles_mod4,
        }
    _emit_json(payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vicsek-sandpile",
        description="Sandpile dynamics on Vicsek fractal graphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="graph summary as JSON")
    p_graph.add_argument("--level", type=int, required=True)
    p_graph.set_defaults(func=cmd_graph)

    p_chain = sub.add_parser("chain", help="exact rational chain tables")
    chain_sub = p_chain.add_subparsers(dest="subcommand", required=True)
    for name in ("matrix", "absorb", "kstep", "pmf"):
        sp = chain_sub.add_parser(name)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "kstep":
            sp.add_argument("--start", type=int, default=1)
            sp.add_argument("--k", type=int, required=True)
        if name == "pmf":
            sp.add_argument("--max-n", dest="max_n", type=int, required=True)
        sp.set_defaults(func=cmd_chain, subcommand=name)

    p_mc = sub.add_parser("mc", help="Monte Carlo stabilization estimate")
    p_mc.add_argument("--mode", choices=("chain", "sandpile"), required=True)
    p_mc.add_argument("--level", type=int, required=True)
    p_mc.add_argument("--trials", type=int, required=True)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--workers", type=int, default=0, help="0 = all cores this process may use")
    p_mc.set_defaults(func=cmd_mc)

    p_group = sub.add_parser(
        "group",
        help="invariant factors as JSON, the K4 block's once per block, at any buildable level",
    )
    p_group.add_argument("--level", type=int, required=True)
    p_group.set_defaults(func=cmd_group)

    p_id = sub.add_parser("identity", help="group identity configuration")
    p_id.add_argument("--level", type=int, required=True)
    p_id.add_argument("--render", type=str, default=None)
    p_id.add_argument(
        "--verify",
        type=int,
        default=0,
        metavar="SAMPLES",
        help="run the identity checks with this many sampled configurations",
    )
    p_id.add_argument("--seed", type=int, default=0)
    p_id.set_defaults(func=cmd_identity)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except VerificationError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
