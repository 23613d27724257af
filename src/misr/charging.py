"""Executable charging schemes over a finished partition run, producing
auditable ledgers, plus the verifiers for every token-bound property and
the three approximation-ratio inequalities.

All amounts are exact fractions; nothing in this module is approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .geom_core import Point, Rect, Segment, segment_intersects_rect
from .instance import InstanceError, is_json_int
from .structure import _mirror_x, _mirror_y, seen_corners_on_side, sees
from .partition import PartitionRun, _check, regime_bound


class ChargingError(RuntimeError):
    """A step the analysis proves impossible happened: bug signal."""


@dataclass(frozen=True)
class ChargeEntry:
    payer: int
    payee: int
    corner: str  # TL | BL | TR | BR
    amount: Fraction
    kind: str  # direct | indirect_a | indirect_b | path_unit | leaf_full
    node: int
    side: str = ""  # left | right ('' for two_eps)
    seen: bool = False  # the payer sees the charged corner


@dataclass
class ChargeLedger:
    regime: str
    entries: list[ChargeEntry] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)

    def total_on(self, payee: int) -> Fraction:
        return sum(
            (e.amount for e in self.entries if e.payee == payee), Fraction(0)
        )


@dataclass
class SeeForest:
    """Directed forest on the maximal set: an edge i -> j when rect i sees
    the bottom-left corner of rect j on its right."""

    n: int
    edges: list[tuple[int, int]]
    next: tuple[Optional[int], ...]  # chosen out-edge per node

    def in_degrees(self) -> list[int]:
        deg = [0] * self.n
        for _i, j in self.edges:
            deg[j] += 1
        return deg


# -- factor 6 -----------------------------------------------------------------


def charge_six(run: PartitionRun) -> ChargeLedger:
    """Half a unit to one seen corner on each side of every intersected
    rect that is not horizontally nested; first corner in scan order."""
    h_nested = run.nesting.horizontally_nested
    work = run.work_rects
    ledger = ChargeLedger("six")
    for v in run.trace:
        node = run.nodes[v]
        for rid in node.intersected:
            if rid in h_nested:
                continue
            for side in ("left", "right"):
                cands = seen_corners_on_side(work, rid, side, node.rects)
                if not cands:
                    raise ChargingError(
                        f"node {v}: rect {rid} sees no corner on {side}"
                    )
                _pt, j, cname = cands[0]
                ledger.entries.append(
                    ChargeEntry(
                        rid, j, cname, Fraction(1, 2), "direct", v, side, True
                    )
                )
    return ledger


# -- factor 3 (four quarter tokens) --------------------------------------------


_MIRROR_X_CORNER = {"TL": "TR", "TR": "TL", "BL": "BR", "BR": "BL"}
_MIRROR_Y_CORNER = {"TL": "BL", "BL": "TL", "TR": "BR", "BR": "TR"}


def _tokens_right(
    work: Sequence[Rect],
    ids: Sequence[int],
    rid: int,
    h_nested: frozenset[int],
) -> list[tuple[int, str, str, bool]]:
    """The two rightward quarter-tokens of one intersected rect, as
    (payee, corner, kind, seen) tuples in the current frame."""
    cands = seen_corners_on_side(work, rid, "right", ids)
    if not cands:
        raise ChargingError(f"rect {rid} sees no corner on its right")
    if len(cands) >= 2:
        return [
            (j, cname, "direct", True) for _pt, j, cname in cands[:2]
        ]
    _pt, j0, cname = cands[0]
    r, r0 = work[rid], work[j0]
    if cname == "TL":
        if not (r.yt == r0.yt and r0.yb < r.yb and r.xr == r0.xl):
            raise ChargingError(
                f"single seen corner TL of {j0} without the aligned-top shape"
            )
        return [(j0, cname, "direct", True)] + _second_token_top(
            work, ids, rid, j0, h_nested
        )
    if not (r.yb == r0.yb and r.yt < r0.yt and r.xr == r0.xl):
        raise ChargingError(
            f"single seen corner BL of {j0} without the aligned-bottom shape"
        )
    mwork = _mirror_y(work)
    toks = _second_token_top(mwork, ids, rid, j0, h_nested)
    return [(j0, cname, "direct", True)] + [
        (j, _MIRROR_Y_CORNER[c], kind, seen) for j, c, kind, seen in toks
    ]


def _second_token_top(
    work: Sequence[Rect],
    ids: Sequence[int],
    rid: int,
    j0: int,
    h_nested: frozenset[int],
) -> list[tuple[int, str, str, bool]]:
    """Second rightward token when the unique seen corner is a top-left
    corner with aligned top edges: follow the ray from the payer's
    top-right vertex to the first blocking left edge."""
    r = work[rid]
    y = r.yt
    blockers = [
        j for j in ids
        if j != rid and work[j].yb < y < work[j].yt and work[j].xl >= r.xr
    ]
    if not blockers:
        raise ChargingError(
            f"rect {rid}: no blocking rect right of the aligned top edge "
            f"(would imply 3-protection)"
        )
    jb = min(blockers, key=lambda j: (work[j].xl, j))
    rb = work[jb]
    in_h = [
        j for j in ids
        if work[j].yt == y and r.xr <= work[j].xl and work[j].xr <= rb.xl
    ]
    if j0 not in in_h:
        raise ChargingError(f"rect {rid}: seen rect {j0} not on the top-edge ray")
    nested = [j for j in in_h if j in h_nested]
    if nested:
        ja = max(nested, key=lambda j: work[j].xl)
        ra = work[ja]
        if not (ra.xr == rb.xl and rb.yb <= ra.yb and ra.yt <= rb.yt):
            raise ChargingError(
                f"nested rect {ja} on the ray without its right edge on "
                f"the blocker's left edge"
            )
        seen = sees(work, rid, ja, "TL", "right")
        return [(ja, "TL", "indirect_a", seen)]
    seen = sees(work, rid, jb, "BL", "right")
    return [(jb, "BL", "indirect_b", seen)]


def charge_three(run: PartitionRun) -> ChargeLedger:
    """Four quarter-tokens per intersected non-horizontally-nested rect:
    two to the right, two to the left (mirrored)."""
    h_nested = run.nesting.horizontally_nested
    work = run.work_rects
    ledger = ChargeLedger("three")
    mwork = _mirror_x(work)
    for v in run.trace:
        node = run.nodes[v]
        for rid in node.intersected:
            if rid in h_nested:
                continue
            for j, cname, kind, seen in _tokens_right(work, node.rects, rid, h_nested):
                ledger.entries.append(
                    ChargeEntry(rid, j, cname, Fraction(1, 4), kind, v, "right", seen)
                )
            for j, cname, kind, seen in _tokens_right(mwork, node.rects, rid, h_nested):
                ledger.entries.append(
                    ChargeEntry(
                        rid, j, _MIRROR_X_CORNER[cname], Fraction(1, 4), kind,
                        v, "left", seen,
                    )
                )
    return ledger


# -- factor 2 + eps -------------------------------------------------------------


def build_see_forest(work: Sequence[Rect]) -> SeeForest:
    n = len(work)
    edges = []
    chosen: list[Optional[int]] = [None] * n
    for i in range(n):
        outs = [j for j in range(n) if j != i and sees(work, i, j, "BL", "right")]
        for j in outs:
            edges.append((i, j))
        if outs:
            chosen[i] = min(
                outs, key=lambda j: (work[j].xl, work[j].yb, j)
            )
    forest = SeeForest(n, edges, tuple(chosen))
    for j, deg in enumerate(forest.in_degrees()):
        if deg > 1:
            raise ChargingError(f"rect {j}: bottom-left corner seen twice")
    return forest


def _distance_fence_chain(work: Sequence[Rect], path: list[int]) -> list[Segment]:
    """The 2d+1-segment x-monotone chain containing the bottom edges of the
    first and last rect of an H-path; verified rect-free."""
    segs: list[Segment] = []
    first = work[path[0]]
    segs.append(Segment(Point(first.xl, first.yb), Point(first.xr, first.yb)))
    for prev_i, cur_i in zip(path, path[1:]):
        prev, cur = work[prev_i], work[cur_i]
        segs.append(
            Segment(Point(prev.xr, prev.yb), Point(prev.xr, cur.yb))
        )
        segs.append(Segment(Point(prev.xr, cur.yb), Point(cur.xr, cur.yb)))
    for s in segs:
        for r in work:
            if segment_intersects_rect(s, r):
                raise ChargingError("distance-fence chain crosses a rectangle")
    xs = [segs[0].a.x] + [s.b.x for s in segs]
    if any(b < a for a, b in zip(xs, xs[1:])):
        raise ChargingError("distance-fence chain not x-monotone")
    if len(segs) != 2 * (len(path) - 1) + 1:
        raise ChargingError("distance-fence chain has the wrong segment count")
    return segs


def charge_two_eps(run: PartitionRun, eps: Fraction) -> tuple[ChargeLedger, SeeForest]:
    """Follow the chosen maximal see-forest path inside the cut polygon
    from every intersected horizontally nice rect: epsilon/2 to each of the
    first 2/eps rects, or a unit to a terminal that is not horizontally
    nice.

    A path that wants to leave the polygon is the impossible case 2(b)
    and raises.  A path ending early on a boundary-nice rect (bottom edge
    on S, no out-edge) is flagged: the short path's epsilon/2 charges are
    all the payer distributes.
    """
    eps = Fraction(eps)
    if (1 / eps).denominator != 1:
        raise ChargingError("two_eps requires 1/eps integral")
    quota = int(2 / eps)
    blue = run.nice.horizontally_nice
    work = run.work_rects
    forest = build_see_forest(work)
    ledger = ChargeLedger("two_eps")
    for v in run.trace:
        node = run.nodes[v]
        contained = set(node.rects)
        for rid in node.intersected:
            if rid not in blue:
                continue  # lost red rects distribute nothing
            path = [rid]
            cur = rid
            terminal = None
            while len(path) - 1 < quota:
                nxt = forest.next[cur]
                if nxt is None:
                    terminal = cur
                    break
                if nxt not in contained:
                    raise ChargingError(
                        f"node {v}: path from {rid} leaves the polygon "
                        f"(case 2(b) must not happen)"
                    )
                path.append(nxt)
                _distance_fence_chain(work, path)
                cur = nxt
            if terminal is None:
                # long path: epsilon/2 to each of the first 2/eps rects
                for payee in path[1:]:
                    ledger.entries.append(
                        ChargeEntry(rid, payee, "BL", eps / 2, "path_unit", v)
                    )
            elif terminal not in blue:
                # short path ending on a rect that is not horizontally
                # nice: the terminal takes the whole unit
                ledger.entries.append(
                    ChargeEntry(rid, terminal, "BL", Fraction(1), "leaf_full", v)
                )
            else:
                # short path ending on a boundary-nice rect: undefined
                # corner of the scheme; distribute over the short path
                ledger.flags.append(
                    f"node {v}: path from {rid} ends on boundary-nice "
                    f"rect {terminal} after {len(path) - 1} hops"
                )
                for payee in path[1:]:
                    ledger.entries.append(
                        ChargeEntry(rid, payee, "BL", eps / 2, "path_unit", v)
                    )
    return ledger, forest


# -- verification ----------------------------------------------------------------


def verify_ratios(
    run: PartitionRun,
    ledger: ChargeLedger,
    opt_size: int,
    forest: Optional[SeeForest] = None,
) -> list[dict]:
    """Charged-implies-saved, the per-regime token bounds, and the final
    cardinality inequality, all in exact arithmetic."""
    report: list[dict] = []
    saved = run.tracked
    n = len(run.work_rects)

    payees = {e.payee for e in ledger.entries}
    _check(
        report,
        "charged_implies_saved",
        payees <= saved,
        f"unsaved payees: {sorted(payees - saved)}",
    )

    lost = frozenset(range(n)) - saved
    h = run.nesting.horizontally_nested
    if ledger.regime == "six":
        per_corner: dict[tuple[int, str], int] = {}
        for e in ledger.entries:
            per_corner[(e.payee, e.corner)] = per_corner.get((e.payee, e.corner), 0) + 1
        _check(
            report,
            "corner_charged_at_most_once",
            all(v <= 1 for v in per_corner.values()),
            f"worst={max(per_corner.values(), default=0)}",
        )
        _check(
            report,
            "rect_total_at_most_two",
            all(ledger.total_on(i) <= 2 for i in saved),
            "",
        )
        lost_plain = [i for i in lost if i not in h]
        _check(
            report,
            "lost_nonnested_at_most_2_saved",
            len(lost_plain) <= 2 * len(saved),
            f"{len(lost_plain)} vs 2*{len(saved)}",
        )
    elif ledger.regime == "three":
        per_corner: dict[tuple[int, str], list[ChargeEntry]] = {}
        for e in ledger.entries:
            per_corner.setdefault((e.payee, e.corner), []).append(e)
        ok = True
        detail = ""
        for (payee, corner), es in per_corner.items():
            limit = 2 if payee in h else 1
            if len(es) > limit:
                ok, detail = False, f"corner {corner} of {payee} holds {len(es)}"
                break
            direct_payers = {e.payer for e in es if e.seen}
            if len(direct_payers) > 1:
                ok, detail = False, f"corner {corner} of {payee} seen-charged twice"
                break
            indirect = [e for e in es if not e.seen]
            if direct_payers and any(e.payer not in direct_payers for e in indirect):
                ok, detail = False, f"corner {corner} of {payee} direct+indirect"
                break
            for kind in ("indirect_a", "indirect_b"):
                if len([e for e in indirect if e.kind == kind]) > 1:
                    ok, detail = False, f"corner {corner} of {payee} kind {kind} twice"
                    break
        _check(report, "per_corner_token_bounds", ok, detail)
        sides_ok = True
        for payee in payees:
            sides = {
                "L" if e.corner in ("TL", "BL") else "R"
                for e in ledger.entries
                if e.payee == payee
            }
            if len(sides) > 1:
                sides_ok = False
                break
        _check(report, "charged_on_one_side_only", sides_ok, "")
        _check(
            report,
            "rect_total_bounds",
            all(
                ledger.total_on(i) <= (1 if i in h else Fraction(1, 2))
                for i in saved
            ),
            "",
        )
        # (3/2)|I| <= |OPT'| chain, line by line
        I = lost
        lhs = Fraction(len(I & h) + len(I - h))
        eq1 = 2 * len(h) <= n
        eq2 = Fraction(len(I - h)) <= Fraction(len(saved & h)) + Fraction(
            len(saved - h), 2
        )
        chain = Fraction(3, 2) * len(I) <= Fraction(n)
        _check(report, "at_most_half_nested", eq1, f"|OPT'_h|={len(h)} n={n}")
        _check(report, "lost_covered_by_receipts", eq2, "")
        _check(report, "two_thirds_lost_bound", chain, f"lhs={lhs}")
    elif ledger.regime == "two_eps":
        eps = run.eps
        blue = run.nice.horizontally_nice
        if forest is not None:
            _check(
                report,
                "forest_in_degree",
                all(d <= 1 for d in forest.in_degrees()),
                "",
            )
        ok = True
        detail = ""
        for payee in payees:
            total = ledger.total_on(payee)
            limit = eps / 2 if payee in blue else Fraction(1)
            if total > limit:
                ok, detail = False, f"payee {payee} holds {total} > {limit}"
                break
        _check(report, "payee_charge_limits", ok, detail)
        b_l = len([i for i in lost if i in blue])
        r_c = len([i for i in saved if i not in blue and ledger.total_on(i) > 0])
        b_c = len([i for i in saved if i in blue and ledger.total_on(i) > 0])
        ineq = Fraction(b_l) <= Fraction(b_c) * eps / 2 + r_c
        if ledger.flags and not ineq:
            _check(
                report,
                "lost_blue_covered",
                True,
                f"waived: boundary-nice terminals flagged ({len(ledger.flags)})",
            )
        else:
            _check(report, "lost_blue_covered", ineq, f"b_l={b_l} b_c={b_c} r_c={r_c}")
    else:
        raise ChargingError(f"unknown ledger regime {ledger.regime}")
    # the final cardinality inequality: bound * |R'| >= |OPT|
    detail = f"|R'|={len(saved)} |OPT|={opt_size}"
    if ledger.regime == "two_eps":
        detail += f" eps={run.eps}"
    bound = regime_bound(ledger.regime, run.eps)
    _check(report, f"ratio_{ledger.regime}", bound * len(saved) >= opt_size, detail)
    return report


def ledger_to_json(ledger: ChargeLedger) -> dict:
    return {
        "regime": ledger.regime,
        "entries": [
            {
                "payer": e.payer,
                "payee": e.payee,
                "corner": e.corner,
                "amount": f"{e.amount.numerator}/{e.amount.denominator}",
                "kind": e.kind,
                "node": e.node,
                "side": e.side,
                "seen": e.seen,
            }
            for e in ledger.entries
        ],
        "flags": list(ledger.flags),
    }


_ENTRY_TYPES = {
    "payer": int,
    "payee": int,
    "corner": str,
    "amount": str,
    "kind": str,
    "node": int,
    "side": str,
    "seen": bool,
}


def ledger_from_json(doc: dict) -> ChargeLedger:
    """Rebuild a ledger from ledger_to_json's document; anything malformed
    raises InstanceError."""
    if (
        not isinstance(doc, dict)
        or not isinstance(doc.get("regime"), str)
        or not isinstance(doc.get("entries"), list)
    ):
        raise InstanceError("ledger document needs a 'regime' and an 'entries' list")
    flags = doc.get("flags", [])
    if not isinstance(flags, list) or not all(isinstance(f, str) for f in flags):
        raise InstanceError("ledger 'flags' must be a list of strings")
    entries = []
    for e in doc["entries"]:
        fields = {"side": "", "seen": False, **e} if isinstance(e, dict) else {}
        if not fields or not all(
            is_json_int(fields.get(k)) if t is int else isinstance(fields.get(k), t)
            for k, t in _ENTRY_TYPES.items()
        ):
            raise InstanceError(f"malformed ledger entry: {e!r}")
        num, _, den = fields["amount"].partition("/")
        try:
            amount = Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            raise InstanceError(f"malformed ledger amount: {fields['amount']!r}") from None
        entries.append(
            ChargeEntry(
                fields["payer"], fields["payee"], fields["corner"], amount,
                fields["kind"], fields["node"], fields["side"], fields["seen"],
            )
        )
    return ChargeLedger(doc["regime"], entries, list(flags))
