"""Command-line surface: generate, solve, certify, render, bench.

Approximation regimes run in certification mode: the exact oracle
supplies the optimum, the regime's recursive partition plus charging
scheme certify the ratio, and every invariant check lands in the run
report.  Reports are deterministic apart from wall-time fields.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import instance as inst_mod
from .charging import (
    ChargingError,
    charge_six,
    charge_three,
    charge_two_eps,
    ledger_to_json,
    verify_ratios,
)
from .dp_solver import DpError, DpStats, dp_solve
from .geom_core import GeometryError, Point, Rect, Segment
from .instance import (
    Instance,
    InstanceError,
    Solution,
    exact_mis,
    generate,
    instance_from_json,
    instance_to_json,
    is_json_int,
    read_json,
    solution_to_json,
    write_json,
)
from .partition import (
    REGIMES,
    ConstructionError,
    _check,
    recursive_partition,
    regime_bound,
    regime_tau,
    run_to_json,
    validate_partition,
)
from .structure import (
    MaximalSet,
    StructureError,
    classify_nesting,
    classify_nice,
    maximal_extension,
)

ALGOS = ("exact", "dp", "six", "three", "two_eps")

# Failures a command reports as one line and exit status 2, never as a
# traceback: bad input, I/O, and the library's own named failures.
CLI_ERRORS = (
    InstanceError,
    OSError,
    DpError,
    ConstructionError,
    ChargingError,
    StructureError,
    GeometryError,
)


def instance_digest(doc: dict) -> str:
    """The digest of an instance from its JSON document (instance_to_json)."""
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def parse_eps(text: str) -> Fraction:
    try:
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InstanceError(f"eps is not a fraction: {text}") from None
    if eps <= 0 or (1 / eps).denominator != 1:
        raise InstanceError(f"eps must be positive with integral 1/eps: {text}")
    return eps


def check_tau(tau: Optional[int]) -> Optional[int]:
    """tau as given, or None for the regime's default; a chain of fewer
    than one segment is no fence."""
    if tau is not None and tau < 1:
        raise InstanceError(f"tau must be at least 1: {tau}")
    return tau


# The pipelines that read each option; elsewhere it is refused, not ignored.
READERS = {"tau": ("three", "two_eps"), "eps": ("two_eps",)}


def check_read(
    algos: Sequence[str], tau: Optional[int], eps: Optional[Fraction]
) -> None:
    """Refuse a --tau or --eps that none of the algos' pipelines would
    read."""
    for name, value in (("tau", tau), ("eps", eps)):
        if value is not None and not set(algos).intersection(READERS[name]):
            readers = " and ".join(READERS[name])
            raise InstanceError(
                f"--{name} is read only by {readers}, not by {' or '.join(algos)}"
            )


@dataclass
class RunReport:
    digest: str
    algo: str
    params: dict
    n: int
    opt: Optional[int]
    achieved: int
    ratio: Optional[str]
    bound: Optional[str]
    checks: list[dict] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)
    transposed: bool = False
    wall_ms: float = 0.0

    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def to_json(self) -> dict:
        # the fields in order; shallow, as dataclasses.asdict's deep copy
        # took 50-200 us an op (py3.11, 2-vCPU host): 3-7 % of a small
        # certify or DP op
        return dict(vars(self))


def run_pipeline(
    inst: Instance,
    algo: str,
    k: int = 4,
    cut_budget: int = 1,
    shapes: tuple[str, ...] = ("path", "tree"),
    tau: Optional[int] = None,
    eps: Optional[Fraction] = None,
    cell_cap: int = 2_000_000,
) -> tuple[Solution, RunReport, dict]:
    """Run one named pipeline; returns (solution, report, artifacts).  The
    DP's report checks it against the oracle only up to the oracle cap."""
    t0 = time.perf_counter()
    doc = instance_to_json(inst)
    digest = instance_digest(doc)
    artifacts: dict = {"instance": doc}
    checks: list[dict] = []
    flags: list[str] = []
    transposed = False
    params: dict = {}

    if algo == "exact":
        sol = exact_mis(inst)
        opt = sol.size
        achieved = sol.size
    elif algo == "dp":
        params = {"k": k, "cut_budget": cut_budget, "shapes": list(shapes)}
        cap = inst_mod.oracle_cap()  # a malformed cap is refused before the DP runs
        sol = dp_solve(inst, k, cut_budget, shapes, cell_cap)
        achieved = sol.size
        opt = None
        if inst.n <= cap:
            opt = exact_mis(inst, cap).size
            _check(
                checks, "dp_not_above_optimum", achieved <= opt, f"dp={achieved} opt={opt}"
            )
    elif algo in REGIMES:
        regime_tau(algo, eps, tau)  # bad regime parameters are refused before the oracle
        opt_sol = exact_mis(inst)
        opt = opt_sol.size
        m = maximal_extension(opt_sol, inst)
        nesting = classify_nesting(m)  # raises if the never-both-nested invariant fails
        nice = classify_nice(m)  # raises if some rect has no nice flag
        params = {"tau": tau, "eps": str(eps) if eps is not None else None}
        run = recursive_partition(m, algo, eps=eps, tau=tau, nesting=nesting, nice=nice)
        transposed = run.transposed
        if algo == "six":
            ledger = charge_six(run)
            forest = None
        elif algo == "three":
            ledger = charge_three(run)
            forest = None
        else:
            ledger, forest = charge_two_eps(run, eps)
        checks.extend(validate_partition(run))
        checks.extend(verify_ratios(run, ledger, opt, forest))
        flags.extend(ledger.flags)
        chosen = run.saved_original_indices()
        sol = Solution(tuple(sorted(chosen)))
        inst_mod.validate_solution(inst, sol)
        achieved = sol.size
        artifacts["partition"] = run_to_json(run)
        artifacts["ledger"] = ledger_to_json(ledger)
    else:
        raise InstanceError(f"unknown algo {algo!r}")

    ratio = None
    bound = None
    if opt is not None and achieved > 0:
        fr = Fraction(opt, achieved)
        ratio = f"{fr.numerator}/{fr.denominator}"
    if algo in REGIMES:
        b = regime_bound(algo, eps)
        bound = f"{b.numerator}/{b.denominator}"
    report = RunReport(
        digest,
        algo,
        params,
        inst.n,
        opt,
        achieved,
        ratio,
        bound,
        checks,
        flags,
        transposed,
        round((time.perf_counter() - t0) * 1000, 3),
    )
    artifacts["report"] = report.to_json()
    artifacts["solution"] = solution_to_json(sol)
    return sol, report, artifacts


# -- SVG rendering ----------------------------------------------------------------

_SVG_SCALE = 40
_NEST_FILL = {
    "horizontally_nested": "#d86a6a",
    "vertically_nested": "#6a8ad8",
    "neither": "#b8b8b8",
}


def _svg_rect(r: Rect, side: int, fill: str, opacity: str = "0.8", extra: str = "") -> str:
    s = _SVG_SCALE
    x = r.xl * s
    y = (side - r.yt) * s
    w = (r.xr - r.xl) * s
    h = (r.yt - r.yb) * s
    return (
        f'<rect x="{x}" y="{y}" width="{w}" height="{h}" '
        f'fill="{fill}" fill-opacity="{opacity}" stroke="#333" {extra}/>'
    )


def _svg_seg(seg: Segment, side: int, stroke: str, width: int = 3, dash: str = "") -> str:
    s = _SVG_SCALE
    d = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{seg.a.x * s}" y1="{(side - seg.a.y) * s}" '
        f'x2="{seg.b.x * s}" y2="{(side - seg.b.y) * s}" '
        f'stroke="{stroke}" stroke-width="{width}"{d}/>'
    )


def render_svg(artifacts: dict) -> str:
    """Deterministic SVG of an instance plus any partition/ledger artifacts
    produced by the same run (digests must match)."""
    try:
        return _render_svg(artifacts)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        if isinstance(exc, InstanceError):
            raise
        raise InstanceError(f"corrupted artifacts: {exc}") from None


def _render_svg(artifacts: dict) -> str:
    inst = instance_from_json(artifacts["instance"])
    digest = instance_digest(instance_to_json(inst))
    report = artifacts.get("report")
    if report is not None and report["digest"] != digest:
        raise InstanceError("artifact digest mismatch")
    side = inst.side
    s = _SVG_SCALE
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side * s + 2 * s}" '
        f'height="{side * s + 2 * s}" viewBox="{-s} {-s} {side * s + 2 * s} '
        f'{side * s + 2 * s}">',
        f'<rect id="S" x="0" y="0" width="{side * s}" height="{side * s}" '
        f'fill="white" stroke="black" stroke-width="2"/>',
    ]
    part = artifacts.get("partition")
    work_rects = None
    if part is not None:
        work_rects = [Rect(*map(_json_int, vals)) for vals in part["work_rects"]]
        origin = part["origin"]
        if not isinstance(origin, list):
            raise TypeError("partition origin is not a list")
        origin = [_json_int(v) for v in origin]
        if len(origin) != len(work_rects):
            raise ValueError(
                f"partition origin has {len(origin)} entries for {len(work_rects)} work rects"
            )
        try:
            labels = classify_nesting(MaximalSet(tuple(work_rects), tuple(origin), side))
        except StructureError:  # a doubly nested rect: no labels, neutral fill
            labels = None
        for i, r in enumerate(work_rects):
            fill = _NEST_FILL["neither"]
            if labels is not None:
                fill = _NEST_FILL[labels.label(i)]
            out.append(_svg_rect(r, side, fill, extra=f'id="wrect{i}"'))
        for node in part["nodes"]:
            if node["cut"] is None:
                continue
            for segv in node["cut"]["segments"]:
                seg = Segment(_pt(segv[0]), _pt(segv[1]))
                out.append(_svg_seg(seg, side, "#e8c520", 4))
        for node in part["nodes"]:
            if node["ell"] is None:
                continue
            seg = Segment(_pt(node["ell"][0]), _pt(node["ell"][1]))
            out.append(_svg_seg(seg, side, "#c28f00", 2, dash="8,5"))
    else:
        for i, r in enumerate(inst.rects):
            out.append(_svg_rect(r, side, "#9db7d4", extra=f'id="rect{i}"'))
    ledger = artifacts.get("ledger")
    if ledger is not None and work_rects is not None:
        for idx, e in enumerate(ledger["entries"]):
            payee = _json_int(e["payee"])
            if not 0 <= payee < len(work_rects):
                raise IndexError(f"payee {payee} out of range")
            c = work_rects[payee].corner(e["corner"])
            out.append(
                f'<circle id="tok{idx}" cx="{c.x * s}" cy="{(side - c.y) * s}" '
                f'r="6" fill="#2d64c8"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _pt(v) -> Point:
    x, y = v
    return Point(_json_int(x), _json_int(y))


def _json_int(v) -> int:
    """An integer read as the JSON readers read one (is_json_int)."""
    if not is_json_int(v):
        raise TypeError(f"non-integer value {v!r}")
    return v


# -- commands ----------------------------------------------------------------------


def cmd_generate(args) -> int:
    inst = generate(args.kind, args.n, args.seed)
    doc = instance_to_json(inst)
    if args.out:
        write_json(args.out, doc)
    else:
        json.dump(doc, sys.stdout, indent=1, sort_keys=True)
        print()
    return 0


def _load_instance(path: str) -> Instance:
    return instance_from_json(read_json(path))


def _shapes(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def cmd_solve(args) -> int:
    inst = _load_instance(args.input)
    eps = parse_eps(args.eps) if args.eps else None
    tau = check_tau(args.tau)
    check_read((args.algo,), tau, eps)
    sol, report, artifacts = run_pipeline(
        inst,
        args.algo,
        k=args.k,
        cut_budget=args.cut_budget,
        shapes=_shapes(args.shapes),
        tau=tau,
        eps=eps,
        cell_cap=args.cell_cap,
    )
    if args.out:
        write_json(args.out, artifacts)
    json.dump(report.to_json(), sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


def cmd_certify(args) -> int:
    inst = _load_instance(args.input)
    eps = parse_eps(args.eps) if args.eps else None
    tau = check_tau(args.tau)
    check_read((args.regime,), tau, eps)
    sol, report, artifacts = run_pipeline(inst, args.regime, tau=tau, eps=eps)
    if args.out:
        write_json(args.out, artifacts)
    json.dump(report.to_json(), sys.stdout, indent=1, sort_keys=True)
    print()
    if not report.ok():
        failed = [c["name"] for c in report.checks if not c["ok"]]
        print(f"FAILED checks: {failed}", file=sys.stderr)
        return 1
    return 0


def cmd_render(args) -> int:
    artifacts = read_json(args.input)
    if not isinstance(artifacts, dict) or "instance" not in artifacts:
        artifacts = {"instance": artifacts}
    svg = render_svg(artifacts)
    with open(args.out, "w") as fh:
        fh.write(svg)
    return 0


def cmd_bench(args) -> int:
    """One CSV row per (instance, algo).  The exact oracle runs once per
    instance, where the exact row or a DP row within the oracle cap needs
    it; a regime row reads the optimum from its own report, and a DP row
    past the cap leaves opt and ratio empty.

    A row's ms is the wall time of one call: for an exact row the oracle
    call, for a regime row its whole pipeline (oracle, extension,
    partition, charging and checks), for a dp row dp_solve alone, without
    the oracle run that gives its opt.  A --tau or --eps that no row
    reads is refused; each goes only to the rows of its READERS.  So is a
    sweep with no row: no n from --n-min to --n-max, no seed, no family
    or no algo."""
    ns = range(args.n_min, args.n_max + 1)
    seeds = range(args.seeds)
    families = _shapes(args.families)
    algos = _shapes(args.algos)
    if not ns:
        raise InstanceError(f"empty sweep: --n-min {args.n_min} is above --n-max {args.n_max}")
    if not seeds:
        raise InstanceError(f"empty sweep: --seeds must be at least 1: {args.seeds}")
    if not families or not algos:
        raise InstanceError(f"empty sweep: no {'family' if not families else 'algo'} given")
    given_eps = parse_eps(args.eps) if args.eps else None
    tau = check_tau(args.tau)
    check_read(algos, tau, given_eps)
    eps = given_eps or Fraction(1)
    rows = []
    for family in families:
        for n in ns:
            for seed in seeds:
                inst = generate(family, n, seed)
                bench_opt = oracle_ms = None
                if "exact" in algos or (
                    "dp" in algos and inst.n <= inst_mod.oracle_cap()
                ):
                    t0 = time.perf_counter()
                    bench_opt = exact_mis(inst).size
                    oracle_ms = (time.perf_counter() - t0) * 1000
                for algo in algos:
                    opt = bench_opt
                    stats = DpStats() if algo == "dp" else None
                    if algo == "exact":
                        val, ms = opt, oracle_ms
                    else:
                        t0 = time.perf_counter()
                        if algo == "dp":
                            val = dp_solve(
                                inst, args.k, args.cut_budget, _shapes(args.shapes),
                                stats=stats,
                            ).size
                        else:
                            _sol, rep, _a = run_pipeline(
                                inst, algo,
                                eps=eps if algo in READERS["eps"] else None,
                                tau=tau if algo in READERS["tau"] else None,
                            )
                            val, opt = rep.achieved, rep.opt
                        ms = (time.perf_counter() - t0) * 1000
                    ratio = ""
                    if opt is not None and val:
                        fr = Fraction(opt, val)
                        ratio = f"{fr.numerator}/{fr.denominator}"
                    rows.append(
                        {
                            "family": family,
                            "n": n,
                            "seed": seed,
                            "algo": algo,
                            "value": val,
                            "opt": opt,
                            "ratio": ratio,
                            "ms": f"{ms:.3f}",
                            "cells": stats.cells if stats is not None else "",
                            "cuts": stats.cuts_tried if stats is not None else "",
                        }
                    )
    rows.sort(key=lambda r: (r["family"], r["n"], r["seed"], r["algo"]))
    out = sys.stdout if not args.out else open(args.out, "w", newline="")
    try:
        writer = csv.DictWriter(
            out,
            fieldnames=[
                "family", "n", "seed", "algo", "value", "opt", "ratio", "ms",
                "cells", "cuts",
            ],
        )
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    times = [(r["n"], float(r["ms"])) for r in rows if r["algo"] == "dp"]
    if len({n for n, _ in times}) >= 3:
        slope = fit_loglog_slope(times)
        print(f"# dp time scaling: log-log slope ~ {slope:.2f}", file=sys.stderr)
    return 0


def fit_loglog_slope(points: Sequence[tuple[int, float]]) -> float:
    """Least-squares slope of log(ms) against log(n)."""
    data = [(math.log(n), math.log(max(ms, 1e-3))) for n, ms in points]
    mx = sum(x for x, _ in data) / len(data)
    my = sum(y for _, y in data) / len(data)
    num = sum((x - mx) * (y - my) for x, y in data)
    den = sum((x - mx) ** 2 for x, _ in data)
    return num / den if den else 0.0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="misr",
        description="maximum independent set of rectangles: solvers and certifiers",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write an instance JSON")
    g.add_argument("kind", choices=inst_mod.GENERATOR_KINDS)
    g.add_argument("n", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="run a solver or certification pipeline")
    s.add_argument("input")
    s.add_argument("--algo", choices=ALGOS, required=True)
    s.add_argument("--k", type=int, default=4)
    s.add_argument("--cut-budget", type=int, default=1, dest="cut_budget")
    s.add_argument("--shapes", default="path,tree")
    s.add_argument("--tau", type=int, default=None)
    s.add_argument("--eps", default=None)
    s.add_argument("--cell-cap", type=int, default=2_000_000, dest="cell_cap")
    s.add_argument("--out")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("certify", help="certify a regime; exit 0 iff all checks pass")
    c.add_argument("input")
    c.add_argument("--regime", choices=REGIMES, required=True)
    c.add_argument("--tau", type=int, default=None)
    c.add_argument("--eps", default=None)
    c.add_argument("--out")
    c.set_defaults(func=cmd_certify)

    r = sub.add_parser("render", help="render run artifacts to SVG")
    r.add_argument("input")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_render)

    b = sub.add_parser("bench", help="grid of runs, CSV output")
    b.add_argument("--families", default="uniform_random")
    b.add_argument("--n-min", type=int, default=3, dest="n_min")
    b.add_argument("--n-max", type=int, default=8, dest="n_max")
    b.add_argument("--seeds", type=int, default=3)
    b.add_argument("--algos", default="dp")
    b.add_argument("--k", type=int, default=4)
    b.add_argument("--cut-budget", type=int, default=1, dest="cut_budget")
    b.add_argument("--shapes", default="path,tree")
    b.add_argument("--tau", type=int, default=None)
    b.add_argument("--eps", default=None)
    b.add_argument("--out")
    b.set_defaults(func=cmd_bench)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CLI_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
