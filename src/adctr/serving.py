"""Desk-scale replica of the online phase: a model server scoring candidate
batches, an ad server running the two-round ranking protocol against the
session store, an event-log replayer, and an optional line-delimited TCP
protocol between the two halves.

Two-round protocol per request: round 1 scores every candidate with the
user's clicked/unclicked history and no contextual ads, and the highest-pCTR
candidate wins (ties go to the lowest ordinal). Round 2 re-scores the
remaining candidates with the winner as the single contextual ad, its
contextual-schema fields read by name out of the winner's round-1 embedding,
and keeps the top slots-1 of them. The re-scoring round runs exactly once.
The work both rounds share (the candidates, the history, the fusion
pre-activation without its contextual term) is done once per request.

Event log (TSV), timestamps non-decreasing per user; requests are served in
file order and behavior events reach the store in (timestamp, file order):

    IMP \\t ts \\t user_id \\t ad_fields          # impression -> unclicked
    CLICK \\t ts \\t user_id \\t ad_fields        # click -> clicked
    REQ \\t ts \\t user_id \\t request_id \\t slots \\t ad_fields|ad_fields|...

REQ candidates carry the target-schema ad fields; the user_id field is filled
in from the request. A field the ad's group does not have is a ``ParseError``
naming the line, here and in the catalog. Behavior events become visible to
requests only after the configured propagation lag.

Wire protocol (one line per message):

    RANK <user_id> <now> <slots> <ad_id,ad_id,...>
    OK <ad_id>:<pctr>:<round> ...   |   ERR <message>

Candidates are catalog ads. Each is encoded once, on its first request, into
a target-schema row with its user_id bag left open; a request takes its
candidates' rows and fills that bag with its own user. ``now`` and ``slots``
are ASCII digits only. A line longer than MAX_LINE_BYTES gets ``ERR line too
long`` and the connection is closed; a request naming more than
MAX_CANDIDATES candidates gets ``ERR too many candidates``. Each open
connection holds a thread; one that would exceed MAX_CONNECTIONS gets ``ERR
too many connections`` and is closed, and one that sends nothing for
IDLE_TIMEOUT_SECONDS is closed.
"""

from __future__ import annotations

import heapq
import socketserver
import threading
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .embedding import AdColumns
from .ingest import ParseError, encode_record, parse_ad, parse_uint, read_record
# forward_batch is not called here: perfbench's span test reads serving.forward_batch.
from .models import (ModelParams, RequestRows, forward_batch,  # noqa: F401
                     prepare_request, score_request)
from .schema import (EncodedInstance, EncodeError, GroupSchema, RawRecord, Vocabulary,
                     encode_field, encode_instance)
from .session import SessionStore

MAX_LINE_BYTES = 64 * 1024  # a RANK line, newline included
MAX_CANDIDATES = 1024       # candidates named on one RANK line
MAX_CONNECTIONS = 64        # open RANK connections, one thread each
IDLE_TIMEOUT_SECONDS = 300  # a RANK connection that sends nothing this long is closed


@dataclass(frozen=True)
class RankRequest:
    """Candidates are target-group ads, of which a repeat is dropped; or,
    with ``columns`` (their target columns, one ad per candidate), distinct
    catalog ad_ids."""

    request_id: str
    user_id: str
    now: int
    candidates: tuple[EncodedInstance, ...] | tuple[str, ...]
    slots: int = 4
    columns: AdColumns | None = None

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("rank request needs at least one candidate")
        if self.slots < 1:
            raise ValueError("slots must be >= 1")
        if self.columns is not None:
            if len(self.columns) != len(self.candidates):
                raise ValueError("columns must hold one ad per candidate")
            return
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
    ad: EncodedInstance | str  # the candidate as the request named it
    pctr: float
    round: int


@dataclass(frozen=True)
class RankResult:
    request_id: str
    ranked: tuple[RankedAd, ...]


class ModelScorer:
    """Model-server half. ``prepare`` does the eval-mode work a request's
    candidates share in every round, once per request (they share one
    clicked and one unclicked history); ``score`` gives the pCTRs of prepared
    rows under the given contextual ads (None for none), in row order, and
    counts forwards (rows scored)."""

    def __init__(self, model: ModelParams):
        self.model = model
        self.forward_count = 0

    def prepare(self, candidates, clicked, unclicked) -> RequestRows:
        return prepare_request(self.model, candidates, clicked, unclicked)

    def score(self, rows: RequestRows, contextual: RequestRows | None) -> list[float]:
        self.forward_count += len(rows)
        return score_request(self.model, rows, contextual).tolist()


def rank_request(scorer, store: SessionStore, req: RankRequest) -> RankResult:
    """Two-round contextual-promotion ranking by pCTR. Round 2 reuses round
    1's prepared rows, with the winner's row as the contextual ad: the
    scorer reads the winner's contextual-schema fields by name out of it."""
    clicked, unclicked = store.get_history(req.user_id, req.now)
    target = req.candidates if req.columns is None else req.columns
    rows = scorer.prepare(target, clicked, unclicked)
    scores1 = scorer.score(rows, None)
    win = int(np.argmax(scores1))  # first occurrence wins ties
    ranked = [RankedAd(req.candidates[win], scores1[win], 1)]

    rest = [i for i in range(len(req.candidates)) if i != win]
    if rest:
        scores2 = scorer.score(rows.take(rest), rows.take([win]))
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
                events.append(SimEvent(kind=tag.lower(), ts=parse_uint(cols[1], "timestamp", lineno),
                                       user_id=cols[2], ad=ad))
            elif tag == "REQ":
                if len(cols) != 6:
                    raise ParseError("REQ line needs 6 columns", lineno)
                ts, user_id = parse_uint(cols[1], "timestamp", lineno), cols[2]
                slots = parse_uint(cols[4], "slots", lineno)
                if slots < 1:
                    raise ParseError(f"bad slots {cols[4]!r}", lineno)
                candidates = tuple(
                    _encode_candidate(read_record(text, schemas["target"], lineno), user_id,
                                      schemas["target"], vocab, lineno, cache)
                    for text in cols[5].split("|"))
                events.append(SimEvent(kind="req", ts=ts, user_id=user_id,
                                       request=RankRequest(request_id=cols[3], user_id=user_id,
                                                           now=ts, candidates=candidates,
                                                           slots=slots)))
            else:
                raise ParseError(f"unknown event tag {tag!r}", lineno)
    return events


def _encode_candidate(record: RawRecord, user_id: str, target_schema: GroupSchema,
                      vocab: Vocabulary, lineno: int = 0,
                      memo: dict | None = None) -> EncodedInstance:
    """A request's candidate: a target-schema record, with the request's
    user_id filled in where the record names none."""
    return encode_record({"user_id": (user_id,), **record}, target_schema, vocab, lineno,
                         memo)


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

class CatalogRows:
    """The catalog's ads as target-schema rows with the user_id bag left
    empty: per row, its bag lengths in field order, and its indices in one
    int32 buffer that holds every row, row after row. An ad is encoded on its
    first request and kept, so the rows grow to the catalog's size at most;
    an ad that does not encode keeps no row and is refused again each time
    it is named."""

    def __init__(self, catalog: Mapping[str, RawRecord], target_schema: GroupSchema,
                 vocab: Vocabulary):
        if any("user_id" in record for record in catalog.values()):
            raise ValueError("a catalog ad has a user_id: the request fills it in")
        self.catalog = dict(catalog)
        self.schema = target_schema
        self.vocab = vocab
        names = target_schema.field_names
        self._user = names.index("user_id") if "user_id" in names else None
        self._ad_schema = GroupSchema(target_schema.group, tuple(
            f for f in target_schema.fields if f.name != "user_id"))
        self._lock = threading.Lock()  # serializes encodes
        self._row: dict[str, int] = {}
        self._lens = np.zeros((len(self.catalog), len(names)), dtype=np.int32)
        # per row: where its indices start, where its user_id bag goes, where they end
        self._spans = np.zeros((len(self.catalog), 3), dtype=np.int64)
        self._indices = np.zeros(4096, dtype=np.int32)
        self._end = 0

    def _row_of(self, ad_id: str) -> int:
        """The ad's row, encoded now if it has none. A row is written past the
        end of the rows before it (into a grown copy of the buffer if need be)
        and complete before its ad_id is published, so a reader that finds an
        ad_id finds its row in the buffer it reads next."""
        with self._lock:
            row = self._row.get(ad_id)
            if row is not None:
                return row
            bags = list(encode_instance(self.catalog[ad_id], self._ad_schema, self.vocab).indices)
            start = self._end
            cut = start + sum(map(len, bags[: self._user]))
            if self._user is not None:
                bags.insert(self._user, ())
            flat = [i for bag in bags for i in bag]
            self._end = start + len(flat)
            if self._end > len(self._indices):
                grown = np.zeros(max(2 * len(self._indices), self._end), dtype=np.int32)
                grown[:start] = self._indices[:start]
                self._indices = grown
            self._indices[start : self._end] = flat
            row = len(self._row)
            self._lens[row] = [len(bag) for bag in bags]
            self._spans[row] = start, cut, self._end
            self._row[ad_id] = row
            return row

    def columns(self, user_id: str, ad_ids: Sequence[str]) -> AdColumns:
        """Target columns of the named catalog ads for the given user: their
        rows with the user's bag filled in. The first ad that is unknown or
        does not encode is refused with the error encoding it in full would
        raise."""
        rows = []
        bag = np.zeros(0, dtype=np.int32)
        for ad_id in ad_ids:
            record = self.catalog.get(ad_id)
            if record is None:
                raise ValueError(f"unknown ad {ad_id}")
            if not rows and self._user is not None:
                try:
                    bag = np.array(encode_field(self.schema.fields[self._user], (user_id,),
                                                self.vocab), dtype=np.int32)
                except EncodeError:
                    # The first field in schema order that fails names the error.
                    encode_instance({**record, "user_id": (user_id,)}, self.schema, self.vocab)
                    raise
            row = self._row.get(ad_id)
            rows.append(self._row_of(ad_id) if row is None else row)
        lens = self._lens[rows]
        if self._user is not None:
            lens[:, self._user] = len(bag)
        offsets = np.zeros(lens.size + 1, dtype=np.int32)
        lens.cumsum(out=offsets[1:])
        indices, pieces = self._indices, []
        for start, cut, end in self._spans[rows].tolist():
            pieces += (indices[start:cut], bag, indices[cut:end])
        return AdColumns(lens.shape[1], offsets, np.concatenate(pieces))


class RankProtocolServer:
    """Threaded TCP server speaking the RANK line protocol. Candidates are
    referenced by ad_id against a preloaded catalog of target-schema ads,
    each encoded once (``CatalogRows``)."""

    def __init__(self, ad_server: AdServer, catalog: Mapping[str, Mapping[str, Sequence[str]]],
                 target_schema: GroupSchema, vocab: Vocabulary,
                 host: str = "127.0.0.1", port: int = 0):
        self.ad_server = ad_server
        self.rows = CatalogRows(catalog, target_schema, vocab)
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            # Replies are small writes; without TCP_NODELAY a pipelined reply
            # waits behind the client's delayed ACK.
            disable_nagle_algorithm = True

            def setup(self):
                self.timeout = IDLE_TIMEOUT_SECONDS  # read when the connection opens
                super().setup()

            def handle(self):
                try:
                    while raw := self.rfile.readline(MAX_LINE_BYTES):
                        if len(raw) == MAX_LINE_BYTES and not raw.endswith(b"\n"):
                            self.wfile.write(f"ERR line too long: over {MAX_LINE_BYTES} bytes\n"
                                             .encode("utf-8"))
                            return  # the rest of the line would read as new requests
                        line = raw.decode("utf-8", "replace").rstrip("\r\n")
                        self.wfile.write((outer.handle_line(line) + "\n").encode("utf-8"))
                        self.wfile.flush()
                except TimeoutError:
                    pass  # idle too long: closing the connection frees its slot

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
            ad_ids = tuple(dict.fromkeys(ad_ids))  # a repeated id is the same candidate
            columns = self.rows.columns(user_id, ad_ids)
            req = RankRequest(request_id="-", user_id=user_id, now=parse_uint(now, "now", 0),
                              candidates=ad_ids, slots=parse_uint(slots, "slots", 0),
                              columns=columns)
            res = self.ad_server.rank(req)
            body = " ".join(f"{r.ad}:{r.pctr:.6f}:{r.round}" for r in res.ranked)
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
    """Catalog file: ad_id \\t field=value;... (target-schema ad fields
    except user_id, which a request fills in). A field the target schema does
    not have, a user_id, a key other than the ad's own ``ad_id`` value, or a
    repeated key is a ``ParseError`` naming the line."""
    catalog: dict[str, dict[str, tuple[str, ...]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            ad_id, _, fields = line.partition("\t")
            if ad_id in catalog:
                raise ParseError(f"repeated catalog key {ad_id!r}", lineno)
            record = read_record(fields, target_schema, lineno)
            if "user_id" in record:
                raise ParseError(f"catalog ad {ad_id!r} has a user_id: the request fills it in",
                                 lineno)
            if record.get("ad_id") != (ad_id,):
                raise ParseError(f"catalog key {ad_id!r} is not the ad's ad_id "
                                 f"{','.join(record.get('ad_id', ()))!r}", lineno)
            catalog[ad_id] = record
    return catalog
