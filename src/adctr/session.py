"""Per-user bounded, time-windowed click/impression history (the streaming-
phase user session server, in-process).

Each user carries two lists, clicked and unclicked, capped at 5 entries and
scoped to the last 3 days. An impression is recorded as unclicked right away;
a later click on the same ad adds a clicked entry and retires the matching
unclicked one, so a single exposure is never counted twice.
"""

from __future__ import annotations

import threading
from bisect import insort
from collections import OrderedDict
from operator import itemgetter

WINDOW_SECONDS = 3 * 24 * 3600
CAPACITY = 5
SWEEP_PER_RECORD = 2  # users a record checks for expiry: more than the one it may add
_CLICKED_BY_TAG = {"clk": True, "unclk": False}
_TS = itemgetter(0)


def _retire_unclicked(unclicked: list, ad, click_ts: int) -> None:
    ident = ad.identity()
    for i in range(len(unclicked) - 1, -1, -1):
        ts, old = unclicked[i]
        if ts <= click_ts and old.identity() == ident:
            del unclicked[i]
            return


class SessionStore:
    """Hashmap of user histories, each a (clicked, unclicked) pair of
    ``(ts, ad)`` lists in ts order, equal timestamps in arrival order. One
    lock guards the map and every history; a user whose entries have all
    expired is dropped when a read purges them, or by the sweep that each
    record runs.

    The map keeps the users recorded or checked least recently at its
    front, and each record checks up to ``SWEEP_PER_RECORD`` of them: one
    whose every entry is at least the window older than both the event's
    time and the latest read's ``now`` is dropped, any other moves to the
    back. So a user who only gets events and is never read still goes, and a
    read whose ``now`` is no earlier than every earlier read's gets the same
    answer as if nobody had been swept."""

    def __init__(self):
        self._users: OrderedDict[str, tuple[list, list]] = OrderedDict()
        self._lock = threading.Lock()
        self._read_now = 0  # the latest `now` a read has asked for

    def record_event(self, user_id: str, ad, clicked: bool, ts: int) -> None:
        """Insert one behavior event, keeping ts order and the capacity cap."""
        if ts < 0:
            raise ValueError(f"negative timestamp {ts}")
        with self._lock:
            hist = self._users.get(user_id)
            if hist is None:
                hist = self._users[user_id] = ([], [])
            else:
                self._users.move_to_end(user_id)
            entries = hist[0] if clicked else hist[1]
            if clicked:
                _retire_unclicked(hist[1], ad, ts)
            insort(entries, (ts, ad), key=_TS)  # after the entries with the same ts
            if len(entries) > CAPACITY:
                del entries[0]
            self._sweep(min(ts, self._read_now) - WINDOW_SECONDS)

    def _sweep(self, cutoff: int) -> None:
        """Check the users at the front: drop those with no entry after
        ``cutoff``, move the others to the back."""
        for _ in range(SWEEP_PER_RECORD):
            user_id, hist = next(iter(self._users.items()))
            if any(entries and entries[-1][0] > cutoff for entries in hist):
                self._users.move_to_end(user_id)
            else:
                del self._users[user_id]

    def get_history(self, user_id: str, now: int) -> tuple[tuple, tuple]:
        """(clicked, unclicked) ads within the window, most recent first.

        Unknown users get two empty tuples; expired entries are purged lazily,
        and a user left with none is removed.
        """
        cutoff = now - WINDOW_SECONDS
        with self._lock:
            self._read_now = max(self._read_now, now)
            hist = self._users.get(user_id)
            if hist is None:
                return (), ()
            for entries in hist:
                while entries and entries[0][0] <= cutoff:
                    del entries[0]
            if not any(hist):
                del self._users[user_id]
                return (), ()
            return tuple(tuple(ad for _, ad in reversed(entries)) for entries in hist)

    def user_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._users)

    # -- snapshot / restore (TSV: user_id \t {clk|unclk} \t ts \t ad fields) --

    def snapshot(self, path) -> None:
        from .ingest import serialize_ad

        with self._lock:
            rows = [(user_id, tag, ts, ad) for user_id, hist in sorted(self._users.items())
                    for tag, entries in zip(("clk", "unclk"), hist) for ts, ad in entries]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for user_id, tag, ts, ad in rows:
                fh.write(f"{user_id}\t{tag}\t{ts}\t{serialize_ad(ad)}\n")

    @classmethod
    def restore(cls, path, schemas, vocab) -> "SessionStore":
        from .ingest import ParseError, parse_ad, parse_uint

        store = cls()
        cache: dict = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                cols = line.rstrip("\n").split("\t")
                if len(cols) != 4:
                    raise ParseError(f"snapshot line needs 4 columns, got {len(cols)}", lineno)
                user_id, tag, ts_text, ad_text = cols
                clicked = _CLICKED_BY_TAG.get(tag)
                if clicked is None:
                    raise ParseError(f"bad tag {tag!r}, expected clk or unclk", lineno)
                ts = parse_uint(ts_text, "timestamp", lineno)
                ad = parse_ad(ad_text, schemas["clicked" if clicked else "unclicked"], vocab,
                              lineno, cache)
                store.record_event(user_id, ad, clicked, ts)
        return store
