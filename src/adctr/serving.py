"""Desk-scale replica of the online phase: a model server scoring candidate
batches, an ad server running the two-round ranking protocol against the
session store, an event-log replayer, and an optional line-delimited TCP
protocol between the two halves.

Two-round protocol per request: round 1 scores every candidate with the
user's clicked/unclicked history and no contextual ads, and the highest-pCTR
candidate wins (ties go to the lowest ordinal). Round 2 re-scores the
remaining candidates with the winner as the single contextual ad and keeps
the top slots-1 of them. The re-scoring round runs exactly once. The work
both rounds share (the candidates, the history, the fusion pre-activation
without its contextual term) is done once per request.

Event log (TSV), timestamps non-decreasing per user; requests are served in
file order and behavior events reach the store in (timestamp, file order):

    IMP \\t ts \\t user_id \\t ad_fields          # impression -> unclicked
    CLICK \\t ts \\t user_id \\t ad_fields        # click -> clicked
    REQ \\t ts \\t user_id \\t request_id \\t slots \\t ad_fields|ad_fields|...

REQ candidates carry the target-schema ad fields; the user_id field is filled
in from the request. Behavior events become visible to requests only after
the configured propagation lag.

Wire protocol (one line per message):

    RANK <user_id> <now> <slots> <ad_id,ad_id,...>
    OK <ad_id>:<pctr>:<round> ...   |   ERR <message>

A line longer than MAX_LINE_BYTES gets ``ERR line too long`` and the
connection is closed; a request naming more than MAX_CANDIDATES candidates
gets ``ERR too many candidates``. Each open connection holds a thread; one
that would exceed MAX_CONNECTIONS gets ``ERR too many connections`` and is
closed. Idle connections are not timed out.
"""

from __future__ import annotations

import heapq
import socketserver
import threading
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .ingest import ParseError, parse_ad, _parse_fields
# forward_batch is not called here: perfbench's span test reads serving.forward_batch.
from .models import (ModelParams, RequestRows, forward_batch,  # noqa: F401
                     prepare_request, score_request)
from .schema import EncodedInstance, GroupSchema, Vocabulary
from .session import SessionStore

MAX_LINE_BYTES = 64 * 1024  # a RANK line, newline included
MAX_CANDIDATES = 1024       # candidates named on one RANK line
MAX_CONNECTIONS = 64        # open RANK connections, one thread each


@dataclass(frozen=True)
class RankRequest:
    request_id: str
    user_id: str
    now: int
    candidates: tuple[EncodedInstance, ...]
    slots: int = 4

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("rank request needs at least one candidate")
        if self.slots < 1:
            raise ValueError("slots must be >= 1")
        seen: set = set()
        deduped = []
        for c in self.candidates:
            key = c.identity()
            if key not in seen:
                seen.add(key)
                deduped.append(c)
        object.__setattr__(self, "candidates", tuple(deduped))


@dataclass(frozen=True)
class RankedAd:
    ad: EncodedInstance
    pctr: float
    round: int


@dataclass(frozen=True)
class RankResult:
    request_id: str
    ranked: tuple[RankedAd, ...]

    @property
    def winner(self) -> RankedAd:
        return self.ranked[0]


class ModelScorer:
    """Model-server half. ``prepare`` does the eval-mode work a request's
    candidates share in every round, once per request (they share one
    clicked and one unclicked history); ``score`` gives the pCTRs of prepared
    rows under the given contextual ads, in row order, and counts forwards
    (rows scored)."""

    def __init__(self, model: ModelParams):
        self.model = model
        self.forward_count = 0

    def prepare(self, candidates, clicked, unclicked) -> RequestRows:
        return prepare_request(self.model, candidates, clicked, unclicked)

    def score(self, rows: RequestRows, contextual) -> list[float]:
        self.forward_count += len(rows)
        return score_request(self.model, rows, contextual).tolist()


def rank_request(scorer, store: SessionStore, req: RankRequest) -> RankResult:
    """Two-round contextual-promotion ranking by pCTR. Round 2 reuses round
    1's prepared rows; the winner fills the contextual slots by position."""
    clicked, unclicked = store.get_history(req.user_id, req.now)
    rows = scorer.prepare(req.candidates, clicked, unclicked)
    scores1 = scorer.score(rows, ())
    win = int(np.argmax(scores1))  # first occurrence wins ties
    ranked = [RankedAd(req.candidates[win], scores1[win], 1)]

    rest = [i for i in range(len(req.candidates)) if i != win]
    if rest:
        scores2 = scorer.score(rows.take(rest), (req.candidates[win],))
        order = sorted(range(len(rest)), key=lambda i: (-scores2[i], i))
        ranked.extend(RankedAd(req.candidates[rest[i]], scores2[i], 2)
                      for i in order[: req.slots - 1])
    return RankResult(request_id=req.request_id, ranked=tuple(ranked))


class AdServer:
    """Ad-server half: ranks requests and records behavior events against the
    session store, which serializes per-user work itself."""

    def __init__(self, scorer, store: SessionStore):
        self.scorer = scorer
        self.store = store

    def rank(self, req: RankRequest) -> RankResult:
        return rank_request(self.scorer, self.store, req)

    def record(self, user_id: str, ad, clicked: bool, ts: int) -> None:
        self.store.record_event(user_id, ad, clicked, ts)


# ---------------------------------------------------------------------------
# event-log replay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimEvent:
    kind: str  # "imp" | "click" | "req"
    ts: int
    user_id: str
    ad: EncodedInstance | None = None
    request: RankRequest | None = None


def parse_events(path, schemas: Mapping[str, GroupSchema], vocab: Vocabulary) -> list[SimEvent]:
    events: list[SimEvent] = []
    cache: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            tag = cols[0]
            if tag in ("IMP", "CLICK"):
                if len(cols) != 4:
                    raise ParseError(f"{tag} line needs 4 columns", lineno)
                group = "clicked" if tag == "CLICK" else "unclicked"
                ad = parse_ad(cols[3], schemas[group], vocab, lineno, cache)
                events.append(SimEvent(kind=tag.lower(), ts=_parse_int(cols[1], "timestamp", lineno),
                                       user_id=cols[2], ad=ad))
            elif tag == "REQ":
                if len(cols) != 6:
                    raise ParseError("REQ line needs 6 columns", lineno)
                ts, user_id = _parse_int(cols[1], "timestamp", lineno), cols[2]
                slots = _parse_int(cols[4], "slots", lineno)
                if slots < 1:
                    raise ParseError(f"bad slots {cols[4]!r}", lineno)
                candidates = tuple(
                    _encode_candidate(text, user_id, schemas["target"], vocab, lineno)
                    for text in cols[5].split("|"))
                events.append(SimEvent(kind="req", ts=ts, user_id=user_id,
                                       request=RankRequest(request_id=cols[3], user_id=user_id,
                                                           now=ts, candidates=candidates,
                                                           slots=slots)))
            else:
                raise ParseError(f"unknown event tag {tag!r}", lineno)
    return events


def _parse_int(text: str, what: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {what} {text!r}", lineno) from None


def _encode_candidate(text: str, user_id: str, target_schema: GroupSchema,
                      vocab: Vocabulary, lineno: int) -> EncodedInstance:
    record = _parse_fields(text, lineno)
    record.setdefault("user_id", (user_id,))
    from .schema import encode_instance

    return encode_instance(record, target_schema, vocab)


def replay_session(scorer, store: SessionStore, events: Sequence[SimEvent],
                   lag_seconds: int = 0) -> list[RankResult]:
    """Interleave behavior events and rank requests; events reach the store
    only once the replay clock is at least lag_seconds past them, in
    (timestamp, file order), whichever user logged the events between."""
    last_ts: dict[str, int] = {}
    for ev in events:
        if ev.ts < last_ts.get(ev.user_id, ev.ts):
            raise ValueError(f"timestamps go backwards for user {ev.user_id!r}")
        last_ts[ev.user_id] = ev.ts

    server = AdServer(scorer, store)
    pending: list[tuple[int, int, SimEvent]] = []  # heap on (ts, file position)
    results: list[RankResult] = []

    def flush(now: float) -> None:
        while pending and pending[0][0] + lag_seconds <= now:
            ev = heapq.heappop(pending)[2]
            server.record(ev.user_id, ev.ad, ev.kind == "click", ev.ts)

    for seq, ev in enumerate(events):
        if ev.kind == "req":
            flush(ev.ts)
            results.append(server.rank(ev.request))
        else:
            heapq.heappush(pending, (ev.ts, seq, ev))
    flush(float("inf"))
    return results


def ad_display_id(inst: EncodedInstance) -> str:
    return inst.raw_dict().get("ad_id", ("?",))[0]


def write_results(path, results: Sequence[RankResult]) -> None:
    """request_id \\t position \\t ad_id \\t round \\t pctr rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for res in results:
            for pos, ranked in enumerate(res.ranked):
                fh.write(f"{res.request_id}\t{pos}\t{ad_display_id(ranked.ad)}"
                         f"\t{ranked.round}\t{ranked.pctr:.6f}\n")


# ---------------------------------------------------------------------------
# line protocol over a local socket
# ---------------------------------------------------------------------------

class RankProtocolServer:
    """Threaded TCP server speaking the RANK line protocol. Candidates are
    referenced by ad_id against a preloaded catalog of target-schema ads."""

    def __init__(self, ad_server: AdServer, catalog: Mapping[str, Mapping[str, Sequence[str]]],
                 target_schema: GroupSchema, vocab: Vocabulary,
                 host: str = "127.0.0.1", port: int = 0):
        self.ad_server = ad_server
        self.catalog = dict(catalog)
        self.target_schema = target_schema
        self.vocab = vocab
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            # Replies are small writes; without TCP_NODELAY a pipelined reply
            # waits behind the client's delayed ACK.
            disable_nagle_algorithm = True

            def handle(self):
                while raw := self.rfile.readline(MAX_LINE_BYTES):
                    if len(raw) == MAX_LINE_BYTES and not raw.endswith(b"\n"):
                        self.wfile.write(f"ERR line too long: over {MAX_LINE_BYTES} bytes\n"
                                         .encode("utf-8"))
                        return  # the rest of the line would read as new requests
                    line = raw.decode("utf-8", "replace").rstrip("\r\n")
                    self.wfile.write((outer.handle_line(line) + "\n").encode("utf-8"))
                    self.wfile.flush()

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

            def process_request(self, request, client_address):
                with outer._conn_lock:
                    admit = outer._connections < MAX_CONNECTIONS
                    outer._connections += admit
                if not admit:  # refused before a thread is started for it
                    request.sendall(b"ERR too many connections\n")
                    self.shutdown_request(request)
                    return
                try:
                    super().process_request(request, client_address)
                except BaseException:  # no thread runs to release the slot
                    with outer._conn_lock:
                        outer._connections -= 1
                    raise

            def process_request_thread(self, request, client_address):
                try:
                    super().process_request_thread(request, client_address)
                finally:
                    with outer._conn_lock:
                        outer._connections -= 1

        self._conn_lock = threading.Lock()
        self._connections = 0
        self._server = Server((host, port), Handler)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address

    def handle_line(self, line: str) -> str:
        try:
            parts = line.split(" ")
            if len(parts) != 5 or parts[0] != "RANK":
                return "ERR malformed request"
            _, user_id, now, slots, ad_ids = parts
            ad_ids = ad_ids.split(",")
            if len(ad_ids) > MAX_CANDIDATES:
                return f"ERR too many candidates: {len(ad_ids)} > {MAX_CANDIDATES}"
            candidates = []
            from .schema import encode_instance

            for ad_id in ad_ids:
                record = self.catalog.get(ad_id)
                if record is None:
                    return f"ERR unknown ad {ad_id}"
                rec = dict(record)
                rec.setdefault("user_id", (user_id,))
                candidates.append(encode_instance(rec, self.target_schema, self.vocab))
            req = RankRequest(request_id="-", user_id=user_id, now=int(now),
                              candidates=tuple(candidates), slots=int(slots))
            res = self.ad_server.rank(req)
            body = " ".join(f"{ad_display_id(r.ad)}:{r.pctr:.6f}:{r.round}" for r in res.ranked)
            return f"OK {body}"
        except Exception as exc:  # protocol boundary: report, don't crash the server
            return f"ERR {exc}"

    def start(self) -> None:
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread:
            self._thread.join(timeout=5)


def load_catalog(path, target_schema: GroupSchema) -> dict[str, dict[str, tuple[str, ...]]]:
    """Catalog file: ad_id \\t field=value;... (target-schema ad fields)."""
    catalog: dict[str, dict[str, tuple[str, ...]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            ad_id, _, fields = line.partition("\t")
            catalog[ad_id] = _parse_fields(fields, lineno)
    return catalog
