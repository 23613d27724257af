"""Per-op correctness gate, computed by the benchmark itself.

`report.ok()` alone is not trusted: a check can read ok while its
inequality is false.  So the gate recomputes the optimum with its own
solver, re-validates the returned solution, and tests the regime's ratio
inequality directly, with the regime's bound from its own table.  DP
results must equal the values recorded in `expected.json`; the DP is
exact over its cut language with a lexicographic tie rule, so those
values are fixed by the inputs.

Artifact digests are compared too, but a changed digest is not a failure:
a different valid partition is not a wrong one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from workload import FROZEN_DP_SIZE, TWO_EPS, Op

# Each regime's approximation bound, as the paper states it.  The gate tests
# the ratio inequality with these, not with the bound the report carries.
BOUNDS = {"six": Fraction(6), "three": Fraction(3), "two_eps": 2 + TWO_EPS}


def overlap(a, b) -> bool:
    """Open rectangles share an interior point."""
    return a.xl < b.xr and b.xl < a.xr and a.yb < b.yt and b.yb < a.yt


def max_independent_size(rects) -> int:
    """Size of a maximum set of pairwise non-overlapping rectangles, by
    branching on a highest-degree vertex over bitmasks (n <= 20 or so)."""
    n = len(rects)
    nbr = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if overlap(rects[i], rects[j]):
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i
    memo: dict[int, int] = {}

    def best(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        v, deg = -1, 0
        m = mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            d = (nbr[i] & mask).bit_count()
            if d > deg:
                v, deg = i, d
            m ^= low
        if v < 0:  # no edges left: every remaining rect fits
            out = mask.bit_count()
        else:
            bit = 1 << v
            out = max(best(mask & ~bit), 1 + best(mask & ~bit & ~nbr[v]))
        memo[mask] = out
        return out

    return best((1 << n) - 1)


def is_independent(rects, chosen) -> bool:
    if len(set(chosen)) != len(chosen):
        return False
    if any(not 0 <= i < len(rects) for i in chosen):
        return False
    return not any(
        overlap(rects[a], rects[b])
        for x, a in enumerate(chosen)
        for b in chosen[x + 1 :]
    )


def artifact_digest(artifacts: dict) -> str:
    """sha256 (first 16 hex digits) of the run artifacts without the
    report's wall time."""
    doc = dict(artifacts)
    if "report" in doc:
        doc["report"] = {k: v for k, v in doc["report"].items() if k != "wall_ms"}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class Outcome:
    """What the gate needs from one op; `error` is set if it raised."""

    error: Optional[str] = None
    size: int = 0
    chosen: tuple[int, ...] = ()
    opt: Optional[int] = None  # as reported by run_pipeline
    bound: Optional[str] = None  # "p/q"
    failed_checks: tuple[str, ...] = ()
    digest: str = ""

    @classmethod
    def of(cls, result) -> "Outcome":
        sol, report, artifacts = result
        return cls(
            None,
            report.achieved,
            tuple(sol.chosen),
            report.opt,
            report.bound,
            tuple(c["name"] for c in report.checks if not c["ok"]),
            artifact_digest(artifacts),
        )


def failures(op: Op, rects, out: Outcome, opt: int, expected: Optional[dict]) -> list[str]:
    """Reasons this op failed; empty when it passed.  `opt` is the gate's
    own optimum, `expected` the entry recorded for the op (or None)."""
    if out.error is not None:
        return [f"raised {out.error}"]
    why = []
    if out.size != len(out.chosen) or not is_independent(rects, list(out.chosen)):
        why.append("returned set is not an independent set of its size")
    if out.opt is not None and out.opt != opt:
        why.append(f"reported opt {out.opt} != {opt}")
    if op.algo == "dp":
        if out.size > opt:
            why.append(f"dp size {out.size} > opt {opt}")
        if expected is None:
            why.append("no recorded result")
        elif [out.size, list(out.chosen)] != [expected["size"], expected["chosen"]]:
            why.append(
                f"dp (size, chosen) = {out.size}, {list(out.chosen)} != recorded "
                f"{expected['size']}, {expected['chosen']}"
            )
        frozen = FROZEN_DP_SIZE.get(op.key)
        if frozen is not None and out.size != frozen:
            why.append(f"frozen value {frozen} != {out.size}")
    else:
        if out.failed_checks:
            why.append(f"failed checks {list(out.failed_checks)}")
        bound = BOUNDS[op.algo]
        if out.bound is None or Fraction(out.bound) != bound:
            why.append(f"reported bound {out.bound} != {bound}")
        if bound * out.size < opt:
            why.append(f"bound {bound} x achieved {out.size} < opt {opt}")
    return why


def changed(out: Outcome, expected: Optional[dict]) -> bool:
    """The artifacts differ from those recorded (not a failure)."""
    return out.error is None and (expected is None or expected["digest"] != out.digest)
