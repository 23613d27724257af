"""Workload definitions: which `run_pipeline` calls each workload makes,
and the seeded order in which it makes them.

An op is one `misr.cli.run_pipeline` call on one generated instance.  Each
workload is a list of strata; a stratum is a small pool of candidate ops of
one kind (family, n, algorithm and DP parameters, over instance seeds).  A
run walks the strata in rounds, every stratum once per round in a seeded
order, drawing each stratum's ops in a seeded order (a `Cycle` stratum's in
its own fixed order), and ends on a round boundary.  So every run has the same mix of strata, and `--seed` decides
which instances fill it and in what order.  The pools are finite so that `expected.json` can hold the
recorded result of every op a run can make.
"""

from __future__ import annotations

import gc
import importlib
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator

SRC = Path(__file__).resolve().parent.parent / "src"

FAMILIES = ("uniform_random", "nested_grid", "windmill")
REGIMES = ("six", "three", "two_eps")
# eps = 1/2 gives tau = 4/eps + 3 = 11, so two_eps differs from three (tau 7).
TWO_EPS = Fraction(1, 2)


def load_misr():
    """Import `misr.cli` from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "misr" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no misr sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("misr.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported misr from {cli.__file__}")
    return cli


def fresh_start() -> None:
    """Run before each timed op, outside its timing: put the process where
    a fresh `misr certify` process would be, as far as the op can tell.
    The fence-engine cache is emptied, and the cyclic collector is cleared
    and told to skip every object alive now, so an op pays for collecting
    its own objects, not the benchmark's or earlier ops' (collection is most
    of the time of a check=True partition at n=16)."""
    structure = sys.modules.get("misr.structure")
    cache = getattr(structure, "_ENGINE_CACHE", None)
    if cache is not None:
        cache.clear()
    gc.collect()
    gc.freeze()


@dataclass(frozen=True)
class Op:
    family: str
    n: int
    iseed: int  # instance seed passed to misr.instance.generate
    algo: str  # a regime name or "dp"
    k: int = 4
    cut_budget: int = 1
    shapes: tuple[str, ...] = ("path", "tree")

    @property
    def key(self) -> str:
        base = f"{self.family}:{self.n}:{self.iseed}:{self.algo}"
        if self.algo != "dp":
            return base
        return f"{base}:k{self.k}:b{self.cut_budget}:{'+'.join(self.shapes)}"

    @property
    def instance_key(self) -> tuple[str, int, int]:
        return (self.family, self.n, self.iseed)

    def run(self, cli, inst):
        """The `misr certify` / `misr solve --algo dp` call for this op."""
        if self.algo == "dp":
            return cli.run_pipeline(
                inst, "dp", k=self.k, cut_budget=self.cut_budget, shapes=self.shapes
            )
        eps = TWO_EPS if self.algo == "two_eps" else None
        return cli.run_pipeline(inst, self.algo, eps=eps)

    def to_json(self) -> dict:
        return {**self.__dict__, "shapes": list(self.shapes)}

    @classmethod
    def from_json(cls, doc: dict) -> "Op":
        return cls(**{**doc, "shapes": tuple(doc["shapes"])})


class Cycle(tuple):
    """A stratum whose ops come in this order in every run, whatever the
    seed, so every run draws the same ones."""


@dataclass(frozen=True)
class Workload:
    name: str
    # Each round draws one op from every stratum; a stratum's candidates
    # are used in a seeded order, one per round.
    strata: tuple[tuple[Op, ...], ...]

    def universe(self) -> list[Op]:
        """Every op a run of this workload can make."""
        return [op for stratum in self.strata for op in stratum]

    def instances(self, cli) -> dict:
        """Every instance a run of this workload can use, by instance key."""
        keys = dict.fromkeys(op.instance_key for op in self.universe())
        return {key: cli.generate(*key) for key in keys}

    def rounds(self, seed: int) -> Iterator[list[Op]]:
        """Endless seeded stream of rounds, each every stratum once."""
        rng = random.Random(f"{self.name}:{seed}")
        perms = [st if isinstance(st, Cycle) else rng.sample(st, len(st)) for st in self.strata]
        rnd = 0
        while True:
            order = rng.sample(range(len(perms)), len(perms))
            yield [perms[i][rnd % len(perms[i])] for i in order]
            rnd += 1


def _certify(ns: range, pool: int, windmill_rotates: bool) -> tuple[tuple[Op, ...], ...]:
    seeded = tuple(
        tuple(Op(f, n, s, r) for s in range(pool))
        for f in FAMILIES[:2]
        for n in ns
        for r in REGIMES
    )
    # windmill ignores its seed: one instance per n.
    if windmill_rotates:
        # Every n and every regime once in any three consecutive ops, so
        # each prefix a run reaches holds a balanced mix.
        cycle = Cycle(
            Op("windmill", ns[i % len(ns)], 0, REGIMES[(i + i // len(ns)) % len(REGIMES)])
            for i in range(len(ns) * len(REGIMES))
        )
        return seeded + (cycle,)
    return seeded + tuple((Op("windmill", n, 0, r),) for n in ns for r in REGIMES)


WORKLOADS = {
    w.name: w
    for w in (
        # Many tiny polygons: per-node and per-op fixed costs (engine set-up,
        # validation, glue) weigh most.  The acceptance gate's traffic.
        # Its slowest ops, windmill three/two_eps at n=9..10, come once a
        # round, so the tail latency sits among them in every run.
        Workload("certify_small", _certify(range(3, 11), 32, windmill_rotates=False)),
        # n at the default oracle cap (16): fence-engine grids grow with
        # side^2, so the BFS and the check=True protection scans dominate.
        # Five or six rounds fit in a run, so with a pool of three every run
        # uses each instance at least once, and its mix, and with it the
        # run's median, barely depends on the seed.
        # Windmill three/two_eps take 1.4-2.1 s here, 6-8 times the others,
        # so windmill is one stratum cycling over (n, regime) in a fixed
        # order: a handful of its ops per run, the same in every run, under
        # the ten the tail latency leaves above it.
        Workload("certify_cap", _certify(range(14, 17), 3, windmill_rotates=True)),
        # The polygon DP only; the fence engine is never called.  The k=4
        # ops (CLI defaults) are cell-heavy.  The k=6 path ops with two-
        # segment walks are cut-heavy; they are one op in nine, on a fixed
        # pair of instances (0.3-0.6 s each), so they cannot swing the mix.
        # windmill n=5 carries the frozen value 3.  About twelve rounds fit
        # in a run, so a pool of six is walked twice: the instances in a
        # run barely depend on the seed, which mostly decides the order.
        Workload(
            "dp_solve",
            tuple(
                tuple(Op(f, n, s, "dp") for s in range(6))
                for f in FAMILIES[:2]
                for n in (5, 6, 7)
            )
            + (tuple(Op("nested_grid", 3, s, "dp", 6, 2, ("path",)) for s in (0, 1)),)
            + ((Op("windmill", 5, 0, "dp", 4, 1),), (Op("windmill", 5, 0, "dp", 4, 3),)),
        ),
    )
}

# Frozen values from the paper's windmill example, checked on every run in
# addition to the recorded results.
FROZEN_DP_SIZE = {
    "windmill:5:0:dp:k4:b1:path+tree": 3,
    "windmill:5:0:dp:k4:b3:path+tree": 3,
}
