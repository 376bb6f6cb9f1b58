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
pre-activation without its contextual term) is done once per request, what
every request reads of the model is laid out once per scorer, and each
history and catalog ad is embedded once per scorer.

Event log (TSV), timestamps non-decreasing per user (``parse_events``
refuses a line that goes back); requests are served in file order and
behavior events reach the store in (timestamp, file order):

    IMP \\t ts \\t user_id \\t ad_fields          # impression -> unclicked
    CLICK \\t ts \\t user_id \\t ad_fields        # click -> clicked
    REQ \\t ts \\t user_id \\t request_id \\t slots \\t ad_fields|ad_fields|...

REQ candidates carry the target-schema ad fields except user_id, which is
filled in from the request. A candidate or catalog ad that names a user_id,
or a field its group does not have, is a ``ParseError`` naming the file and
the line. Each distinct ``field=value`` text of an event log is split and
encoded once (``ingest.read_fields``), and each request's user_id once per
user. Behavior events become visible to requests only after the configured
propagation lag.

Wire protocol (one line per message):

    RANK <user_id> <now> <slots> <ad_id,ad_id,...>
    OK <ad_id>:<pctr>:<round> ...   |   ERR <message>

Candidates are catalog ads. Each is encoded and embedded once, on its first
request, into a target row of the scorer's model kept by ad_id with its
user_id segment left zero; a request stacks its candidates' rows and adds
its user's segment, a row read for a one-index user_id (the OOV index
included). ``now`` and ``slots`` are ASCII digits only. A line longer than MAX_LINE_BYTES gets ``ERR line too long`` and the
connection is closed; a request naming more than MAX_CANDIDATES candidates
gets ``ERR too many candidates``. Each open connection holds a thread and
one of MAX_CONNECTIONS slots, which it returns when it closes or its thread
fails to start; one that finds no slot free gets ``ERR too many
connections`` and is closed, and one that sends nothing for
IDLE_TIMEOUT_SECONDS is closed.
"""

from __future__ import annotations

import heapq
import socketserver
import threading
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from .embedding import AdColumns, embed_matrix
from .ingest import (FieldHit, ParseError, encode_ad, field_hit, parse_ad, parse_uint, read_fields,
                     read_record)
# forward_batch is not called here: perfbench's span test reads serving.forward_batch.
from .models import ModelScorer, forward_batch  # noqa: F401
from .numerics import Array
from .schema import (EncodedInstance, EncodeError, GroupSchema, RawRecord, Vocabulary,
                     encode_field, encode_instance, read_lines)
from .session import SessionStore

MAX_LINE_BYTES = 64 * 1024  # a RANK line, newline included
MAX_CANDIDATES = 1024       # candidates named on one RANK line
MAX_CONNECTIONS = 64        # open RANK connections, one thread each
IDLE_TIMEOUT_SECONDS = 300  # a RANK connection that sends nothing this long is closed


@dataclass(frozen=True)
class RankRequest:
    """Candidates are target-group ads, of which a repeat is dropped; or,
    with ``rows`` (their embedded target rows, one per candidate), distinct
    catalog ad_ids."""

    request_id: str
    user_id: str
    now: int
    candidates: tuple[EncodedInstance, ...] | tuple[str, ...]
    slots: int = 4
    rows: Array | None = None

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("rank request needs at least one candidate")
        if self.slots < 1:
            raise ValueError("slots must be >= 1")
        if self.rows is not None:
            if len(self.rows) != len(self.candidates):
                raise ValueError("rows must hold one row per candidate")
            return
        first: dict = {}
        for c in self.candidates:
            first.setdefault(c.identity(), c)
        object.__setattr__(self, "candidates", tuple(first.values()))


@dataclass(frozen=True)
class RankedAd:
    ad: EncodedInstance | str  # the candidate as the request named it
    pctr: float
    round: int


@dataclass(frozen=True)
class RankResult:
    request_id: str
    ranked: tuple[RankedAd, ...]
    rounds: tuple[tuple[float, int], ...]  # (seconds, rows scored) per round run


def rank_request(scorer, store: SessionStore, req: RankRequest) -> RankResult:
    """Two-round contextual-promotion ranking by pCTR. Round 2 reuses round
    1's prepared rows, with the winner's row as the contextual ad: the
    scorer reads the winner's contextual-schema fields by name out of it.
    Each round run is timed: round 1 from ``prepare`` to the end of its
    ``score``, round 2 its ``score`` call alone."""
    clicked, unclicked = store.get_history(req.user_id, req.now)
    target = req.candidates if req.rows is None else req.rows
    start = time.perf_counter()
    rows = scorer.prepare(target, clicked, unclicked)
    scores1 = scorer.score(rows, None)
    rounds = [(time.perf_counter() - start, len(req.candidates))]
    win = scores1.index(max(scores1))  # first occurrence wins ties
    ranked = [RankedAd(req.candidates[win], scores1[win], 1)]

    rest = [i for i in range(len(req.candidates)) if i != win]
    if rest:
        others, winner = rows.take(rest), rows.take([win])
        start = time.perf_counter()
        scores2 = scorer.score(others, winner)
        rounds.append((time.perf_counter() - start, len(rest)))
        # highest first; a stable sort keeps ties in candidate order
        order = sorted(range(len(rest)), key=scores2.__getitem__, reverse=True)
        ranked.extend(RankedAd(req.candidates[rest[i]], scores2[i], 2)
                      for i in order[: req.slots - 1])
    return RankResult(request_id=req.request_id, ranked=tuple(ranked), rounds=tuple(rounds))


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
    target = schemas["target"]
    user_fs = target.field("user_id")
    users: dict[str, FieldHit] = {}  # each user's user_id field, encoded once
    last_ts: dict[str, int] = {}  # each user's latest timestamp so far
    with read_lines(path, ParseError) as lines:
        for lineno, line in lines:
            if not line:
                continue
            cols = line.split("\t")
            tag = cols[0]
            if tag in ("IMP", "CLICK"):
                if len(cols) != 4:
                    raise ParseError(f"{tag} line needs 4 columns", lineno)
                group = "clicked" if tag == "CLICK" else "unclicked"
                ad = parse_ad(cols[3], schemas[group], vocab, lineno, cache)
                event = SimEvent(kind=tag.lower(), ts=parse_uint(cols[1], "timestamp", lineno),
                                 user_id=cols[2], ad=ad)
            elif tag == "REQ":
                if len(cols) != 6:
                    raise ParseError("REQ line needs 6 columns", lineno)
                ts, user_id = parse_uint(cols[1], "timestamp", lineno), cols[2]
                slots = parse_uint(cols[4], "slots", lineno)
                if slots < 1:
                    raise ParseError(f"bad slots {cols[4]!r}", lineno)
                user = users.get(user_id)
                if user is None and user_fs is not None:
                    user = users[user_id] = field_hit(user_fs, (user_fs.name, (user_id,)), vocab)
                candidates = []
                for text in cols[5].split("|"):
                    found = read_fields(text, target, vocab, lineno, cache)
                    if "user_id" in found:
                        raise ParseError("a REQ candidate has a user_id: the request fills it in",
                                         lineno)
                    if user is not None:
                        found["user_id"] = user
                    candidates.append(encode_ad(found, target, vocab, lineno))
                event = SimEvent(kind="req", ts=ts, user_id=user_id,
                                 request=RankRequest(request_id=cols[3], user_id=user_id, now=ts,
                                                     candidates=tuple(candidates), slots=slots))
            else:
                raise ParseError(f"unknown event tag {tag!r}", lineno)
            if event.ts < last_ts.setdefault(event.user_id, event.ts):
                raise ParseError(f"timestamp {event.ts} is earlier than {last_ts[event.user_id]}, "
                                 f"the previous event of user {event.user_id!r}", lineno)
            last_ts[event.user_id] = event.ts
            events.append(event)
    return events


def replay_session(scorer, store: SessionStore, events: Sequence[SimEvent],
                   lag_seconds: int = 0) -> list[RankResult]:
    """Interleave behavior events and rank requests in the order given; events
    reach the store only once the replay clock is at least lag_seconds past
    them, in (timestamp, list order), whichever user logged the events between."""
    server = AdServer(scorer, store)
    pending: list[tuple[int, int, SimEvent]] = []  # heap on (ts, list position)
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
    """The catalog's ads as embedded target rows, by ad_id, each with its
    user_id segment left zero. The rows are kept by the scorer a request is
    served by (``ModelScorer.targets``), so they belong to its model: an ad
    is encoded and embedded on the first request that names it for that
    scorer, and its row kept, so the rows grow to the catalog's size at most
    per scorer; an ad that does not encode keeps no row and is refused again
    each time it is named. A request takes its candidates' rows and writes
    its user's segment into them."""

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

    def _encode(self, ad_ids: Sequence[str]) -> AdColumns:
        """Target columns of the named ads with their user_id bags empty; the
        first that is unknown or does not encode is refused."""
        bags: list[tuple[int, ...]] = []
        for ad_id in ad_ids:
            record = self.catalog.get(ad_id)
            if record is None:
                raise ValueError(f"unknown ad {ad_id}")
            ad = list(encode_instance(record, self._ad_schema, self.vocab).indices)
            if self._user is not None:
                ad.insert(self._user, ())
            bags += ad
        return AdColumns.from_bags(len(self.schema.fields), bags)

    def embedded(self, scorer: ModelScorer, user_id: str, ad_ids: Sequence[str]) -> Array:
        """Embedded target rows of the named catalog ads for the given user,
        in the scorer's model: their kept rows with the user's segment
        written in. The first ad that is unknown or does not encode is
        refused with the error encoding it in full would raise."""
        if self._user is not None:
            record = self.catalog.get(ad_ids[0])
            if record is None:
                raise ValueError(f"unknown ad {ad_ids[0]}")
            try:
                bag = encode_field(self.schema.fields[self._user], (user_id,), self.vocab)
            except EncodeError:
                # The first field in schema order that fails names the error.
                encode_instance({**record, "user_id": (user_id,)}, self.schema, self.vocab)
                raise
        kept = scorer.targets
        x_t = kept.take(ad_ids, self._encode)
        if self._user is not None:
            k = kept.table.shape[1]
            user = x_t[:, self._user * k : (self._user + 1) * k]  # zero in every kept row
            user += kept.table[bag[0]] if len(bag) == 1 else embed_matrix(  # a row read
                AdColumns.from_bags(1, [bag]), kept.table)
        return x_t


class RankProtocolServer:
    """Threaded TCP server speaking the RANK line protocol. Candidates are
    referenced by ad_id against a preloaded catalog of target-schema ads,
    each encoded and embedded once per scorer (``CatalogRows``). A request
    reads ``ad_server.scorer`` once and both embeds and ranks its candidates
    with that scorer, so a scorer put there for another model serves every
    request that starts after the swap with that model's rows, and a request
    in flight at the swap with the old model alone."""

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
                if not outer._slots.acquire(blocking=False):  # refused before a thread starts
                    request.sendall(b"ERR too many connections\n")
                    self.shutdown_request(request)
                    return
                try:
                    super().process_request(request, client_address)
                except BaseException:  # no thread runs to release the slot
                    outer._slots.release()
                    raise

            def process_request_thread(self, request, client_address):
                try:
                    super().process_request_thread(request, client_address)
                finally:
                    outer._slots.release()

        self._slots = threading.BoundedSemaphore(MAX_CONNECTIONS)
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
            scorer = self.ad_server.scorer
            rows = self.rows.embedded(scorer, user_id, ad_ids)
            req = RankRequest(request_id="-", user_id=user_id, now=parse_uint(now, "now", 0),
                              candidates=ad_ids, slots=parse_uint(slots, "slots", 0),
                              rows=rows)
            res = rank_request(scorer, self.ad_server.store, req)
            body = " ".join(f"{r.ad}:{r.pctr:.6f}:{r.round}" for r in res.ranked)
            return f"OK {body}"
        except Exception as exc:  # protocol boundary: report, don't crash the server
            return f"ERR {exc}"

    def start(self) -> None:
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._thread:  # shutdown() waits for the serve_forever loop that start() runs
            self._server.shutdown()
            self._thread.join(timeout=5)
        self._server.server_close()


def load_catalog(path, target_schema: GroupSchema) -> dict[str, dict[str, tuple[str, ...]]]:
    """Catalog file: ad_id \\t field=value;... (target-schema ad fields
    except user_id, which a request fills in). A field the target schema does
    not have, a user_id, a key other than the ad's own ``ad_id`` value, or a
    repeated key is a ``ParseError`` naming the file and the line."""
    catalog: dict[str, dict[str, tuple[str, ...]]] = {}
    with read_lines(path, ParseError) as lines:
        for lineno, line in lines:
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
