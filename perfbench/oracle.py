"""Independent correctness oracle for the two-round serving protocol.

It rebuilds the user history the session store must hold at request time
from the inputs alone (the event log and the propagation lag, or the
snapshot), scores every candidate on its own with ``models.forward_batch``
(batch of one), replays the two-round rule, and compares winner, order,
count and pCTRs against what the server answered.

The history rules are restated here from the specification rather than
taken from ``adctr.session``: at most ``HISTORY_CAP`` clicked and unclicked
entries, a ``WINDOW_SECONDS`` window, most recent first, and a click retiring
the most recent matching unclicked entry at or before it.
"""

from __future__ import annotations

from dataclasses import dataclass

WINDOW_SECONDS = 3 * 24 * 3600
HISTORY_CAP = 5

# In-process replay keeps full precision: batch and single-row scoring may
# differ only by summation order (ROADMAP item 4 gates at 1e-12).
REPLAY_TOL = 1e-12
# RANK replies print pCTRs with 6 decimals.
RANK_TOL = 5e-7 + 1e-12


@dataclass
class _Entry:
    key: object  # the ad's raw fields, its identity
    ad: object
    ts: int


class HistoryModel:
    """Per-user clicked/unclicked lists under the store's rules."""

    def __init__(self):
        self.users: dict[str, tuple[list[_Entry], list[_Entry]]] = {}

    def record(self, user: str, key, ad, clicked: bool, ts: int) -> None:
        clk, unclk = self.users.setdefault(user, ([], []))
        if clicked:
            for i in range(len(unclk) - 1, -1, -1):
                if unclk[i].key == key and unclk[i].ts <= ts:
                    del unclk[i]
                    break
        target = clk if clicked else unclk
        target.append(_Entry(key, ad, ts))  # callers record in time order
        if len(target) > HISTORY_CAP:
            del target[0]

    def at(self, user: str, now: int) -> tuple[tuple, tuple]:
        clk, unclk = self.users.get(user, ([], []))
        cutoff = now - WINDOW_SECONDS
        return (tuple(e.ad for e in reversed(clk) if e.ts > cutoff),
                tuple(e.ad for e in reversed(unclk) if e.ts > cutoff))

    def entries(self, user: str):
        return self.users.get(user, ([], []))


def history_from_log(events, upto: int, lag: int) -> tuple[tuple, tuple]:
    """History visible to the REQ at ``events[upto]``: every IMP/CLICK of that
    user earlier in the log whose timestamp is at least ``lag`` seconds old.
    Valid for logs in global time order."""
    req = events[upto]
    hist = HistoryModel()
    for ev in events[:upto]:
        if ev.kind != "req" and ev.user_id == req.user_id and ev.ts + lag <= req.ts:
            hist.record(ev.user_id, ev.ad.raw, ev.ad, ev.kind == "click", ev.ts)
    return hist.at(req.user_id, req.ts)


def history_from_snapshot(rows, user: str, now: int) -> tuple[tuple, tuple]:
    """``rows`` are (user, tag, ts, ad) in snapshot file order. A snapshot
    lists the entries the store holds, so no click retires anything here."""
    cutoff = now - WINDOW_SECONDS
    out = []
    for tag in ("clk", "unclk"):
        entries = sorted((r for r in rows if r[0] == user and r[1] == tag), key=lambda r: r[2])
        out.append(tuple(r[3] for r in reversed(entries[-HISTORY_CAP:]) if r[2] > cutoff))
    return out[0], out[1]


def expected_ranking(model, user_id: str, now: int, candidates, slots: int,
                     history) -> list[tuple[int, float, int]]:
    """(candidate index, pCTR, round) in rank order, each candidate scored
    alone."""
    from adctr.ingest import LabeledExample
    from adctr.models import forward_batch

    clicked, unclicked = history

    def score(cand, contextual) -> float:
        ex = LabeledExample(label=0, timestamp=now, user_id=user_id, target=cand,
                            contextual=contextual, clicked=tuple(clicked),
                            unclicked=tuple(unclicked))
        pctr, _ = forward_batch(model, [ex], mode="eval")
        return float(pctr[0])

    round1 = [score(c, ()) for c in candidates]
    win = max(range(len(candidates)), key=lambda i: (round1[i], -i))
    ranked = [(win, round1[win], 1)]
    rest = [i for i in range(len(candidates)) if i != win]
    round2 = {i: score(candidates[i], (candidates[win],)) for i in rest}
    order = sorted(rest, key=lambda i: (-round2[i], rest.index(i)))
    ranked.extend((i, round2[i], 2) for i in order[: slots - 1])
    return ranked


def compare(expected, actual, tol: float) -> str | None:
    """None when ``actual`` (same (index, pCTR, round) rows) matches, else the
    first difference. Count must be min(slots, n); swapped positions are
    accepted only between candidates whose expected scores tie within tol."""
    if len(actual) != len(expected):
        return f"count {len(actual)} != expected {len(expected)}"
    exp_score = {i: (p, r) for i, p, r in expected}
    for pos, ((ei, ep, er), (ai, ap, ar)) in enumerate(zip(expected, actual)):
        if ar != er:
            return f"position {pos}: round {ar} != expected {er}"
        if ai not in exp_score:
            return f"position {pos}: candidate {ai} should not be shown"
        if abs(ap - exp_score[ai][0]) > tol:
            return f"position {pos}: pctr {ap!r} != expected {exp_score[ai][0]!r}"
        if ai != ei and abs(exp_score[ai][0] - ep) > tol:
            return f"position {pos}: candidate {ai} != expected {ei}"
    return None
