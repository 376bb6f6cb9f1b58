"""One workload in its own process: set up from the input files, do the
measured work, check the outputs, and print one JSON result line.

    python3 perfbench/worker.py <workload> <input dir> <trace 0|1>

End-to-end numbers are taken with tracing off. With tracing on, the same run
also records spans at every layer boundary (see layers.py) and reports the
per-layer metrics plus the traced end-to-end values.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import layers
import loadgen
import oracle
from common import E2E, lower_quartile, median, peak_rss_mb, summarize
from tracer import SpanIndex, Tracer, read_spans

clock = time.perf_counter
SERVER_SPAN_OFFSET = 1 << 40


class Result:
    """Collects metrics, the operation tally and failed checks of one run."""

    def __init__(self):
        self.e2e: dict[str, dict] = {}
        self.named: dict[str, dict] = {}
        self.extra: dict[str, float] = {}
        self.records: dict[str, object] = {}
        self.server_spans: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def metric(self, generic: str | None, named: str, value: float, unit: str, n: int) -> None:
        entry = {"value": float(value), "unit": unit, "n": int(n)}
        self.named[named] = entry
        if generic:
            self.e2e[generic] = entry

    def latency(self, p50_name: str, tail_name: str, samples_ms) -> None:
        """Median and tail of a latency sample; ``tail_name`` has a ``{q}``
        slot for the percentile actually reported."""
        s = summarize(samples_ms)
        self.metric(None, p50_name, s["p50"], "ms", s["n"])
        self.metric(None, tail_name.format(q=f"{s['tail_q']:g}"), s["tail"], "ms", s["n"])

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


class CallTimer:
    """Always-on latency timer around one method; part of the measurement,
    not of tracing."""

    def __init__(self, cls, attr: str):
        self.cls, self.attr = cls, attr
        self.original = cls.__dict__[attr]
        self.samples_ms: list[float] = []

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return self.original(*args, **kwargs)
            finally:
                self.samples_ms.append((clock() - t0) * 1e3)

        setattr(cls, attr, timed)

    def close(self) -> None:
        setattr(self.cls, self.attr, self.original)


def _timed_setups(reps: int, setup):
    """Run ``setup`` ``reps`` times; return the durations and the last value."""
    times, value = [], None
    for _ in range(reps):
        value = None  # drop the previous set-up's data before building the next
        gc.collect()
        t0 = clock()
        value = setup()
        times.append(clock() - t0)
    return times, value


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# train-dstn-i
# ---------------------------------------------------------------------------

def run_train(man: dict, d: Path, tracer: Tracer | None, res: Result) -> None:
    from adctr import ingest, models, schema, train_eval

    def setup():
        schemas = schema.load_schemas(d / "schema.tsv")
        with open(d / "train.tsv", "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        vocab = schema.build_vocabulary(ingest.iter_group_records(lines), schemas)
        cache: dict = {}
        train_ex = [ingest.parse_log_line(l, schemas, vocab, i + 1, cache)
                    for i, l in enumerate(lines)]
        val_ex = ingest.read_examples(d / "val.tsv", schemas, vocab)
        test_ex = ingest.read_examples(d / "test.tsv", schemas, vocab)
        return schemas, vocab, train_ex, val_ex, test_ex

    setup_times, (schemas, vocab, train_ex, val_ex, test_ex) = _timed_setups(
        man["setup_reps"], setup)
    res.metric("setup_s", "setup_s", median(setup_times), "s", len(setup_times))

    losses = {"n": 0, "bad": 0}
    loss_at: list[float] = []  # when each training loss was taken: step boundaries
    original_loss = train_eval.loss_from_logits

    def checked_loss(logits, labels):
        value = original_loss(logits, labels)
        loss_at.append(clock())
        losses["n"] += 1
        losses["bad"] += not math.isfinite(value)
        return value

    train_eval.loss_from_logits = checked_loss
    # One epoch per train() call, so the run is many calls of about a second
    # each; every other TrainConfig value is the default.
    config = train_eval.TrainConfig(epochs=1)
    bs = config.batch_size
    slices = [test_ex[lo:lo + bs] for lo in range(0, len(test_ex), bs)]
    ckpt = d / "model.ckpt"
    train_s, step_ms, hashes, batch_ms, pass_scores = [], [], [], [], []
    try:
        for _ in range(man["train_rounds"]):
            gc.collect()
            first = len(loss_at)
            t0 = clock()
            model, history = train_eval.train(config, train_ex, val_ex, schemas, vocab)
            train_s.append(clock() - t0)
            # A step is the time between two consecutive training losses of
            # one call (forward, backward, Adagrad); validation comes after
            # the last one.
            step_ms += [(b - a) * 1e3 for a, b in zip(loss_at[first:], loss_at[first + 1:])]
            models.save_model(ckpt, model, schema.schemas_hash(schemas), vocab.content_hash())
            hashes.append(_sha256(ckpt))
            for _ in range(man["predict_passes_per_round"]):
                parts = []
                for batch in slices:
                    t0 = clock()
                    scores, _ = train_eval.predict(model, batch, batch_size=bs)
                    batch_ms.append((clock() - t0) * 1e3)
                    parts.append(scores)
                pass_scores.append([float(x) for p in parts for x in p])
    finally:
        train_eval.loss_from_logits = original_loss
    res.metric("work_per_s", "train_examples_per_s",
               len(train_ex) * config.epochs * len(train_s) / sum(train_s), "1/s", len(train_s))
    res.latency("train_step_p50_ms", "train_step_p{q}_ms", step_ms)
    res.e2e["latency_ms"] = res.named["train_step_p50_ms"]
    res.attempted, res.failed = losses["n"], losses["bad"]
    res.check(len(set(hashes)) == 1, f"training is not deterministic: checkpoints {hashes}")
    res.metric(None, "eval_examples_per_s",
               len(pass_scores) * len(test_ex) / (sum(batch_ms) / 1e3), "1/s", len(pass_scores))
    res.latency("predict_batch_p50_ms", "predict_batch_p{q}_ms", batch_ms)

    if tracer is not None:
        tracer.uninstall()
    scores = pass_scores[0]
    labels = [ex.label for ex in test_ex]
    res.check(all(p == scores for p in pass_scores), "predict is not deterministic")
    res.check(all(0.0 < s < 1.0 for s in scores), "a test pCTR is outside (0, 1)")
    test_auc = train_eval.auc(scores, labels)
    test_logloss = train_eval.logloss_eval(scores, labels)
    res.metric(None, "test_auc", test_auc, "auc", len(scores))
    res.metric(None, "test_logloss", test_logloss, "nats", len(scores))
    reloaded, _ = models.load_model(ckpt, schemas)
    again, _ = train_eval.predict(reloaded, slices[0], batch_size=bs)
    res.check([float(x) for x in again] == scores[:len(slices[0])],
              "the saved checkpoint does not reproduce the trained model's predictions")
    res.records.update({"train_call_s": train_s, "test_auc": test_auc,
                        "test_logloss": test_logloss,
                        "ckpt_sha256": hashes[0] if hashes else None,
                        "history": history})


# ---------------------------------------------------------------------------
# serve-replay
# ---------------------------------------------------------------------------

def _load_ckpt(path: Path):
    from adctr import models, schema

    schemas = schema.load_schemas(f"{path}.schema.tsv")
    vocab = schema.Vocabulary.load(f"{path}.vocab.tsv")
    model, header = models.load_model(path, schemas)
    if (header["schema_hash"] != schema.schemas_hash(schemas)
            or header["vocab_hash"] != vocab.content_hash()):
        raise ValueError(f"{path}: sidecars do not match the checkpoint")
    return schemas, vocab, model


def _replay_digest(events, results) -> list:
    """Per request, [(candidate position, pctr, round)] of the ranked ads:
    comparable across replays, and holding no objects of their set-ups."""
    requests = [ev.request for ev in events if ev.kind == "req"]
    digest = []
    for req, result in zip(requests, results):
        position = {c.raw: j for j, c in enumerate(req.candidates)}
        digest.append([(position[a.ad.raw], a.pctr, a.round) for a in result.ranked])
    return digest


def run_replay(man: dict, d: Path, tracer: Tracer | None, res: Result) -> None:
    from adctr import serving, session

    def setup():
        schemas, vocab, model = _load_ckpt(d / "model.ckpt")
        return model, serving.parse_events(d / "events.tsv", schemas, vocab)

    # Every replay runs on a fresh set-up, so the set-ups are spread over the
    # whole run rather than bunched at its start (a set-up is short, and the
    # host has slow episodes seconds long). Only one set-up is alive at a time.
    lag = man["lag_seconds"]
    timer = CallTimer(serving.AdServer, "rank")
    setup_times, replay_s, runs, lengths = [], [], [], []
    try:
        for _ in range(man["replays"]):
            model = events = store = None  # drop the previous set-up first
            gc.collect()
            t0 = clock()
            model, events = setup()
            setup_times.append(clock() - t0)
            store = session.SessionStore()
            gc.collect()
            t0 = clock()
            results = serving.replay_session(serving.ModelScorer(model), store, events,
                                             lag_seconds=lag)
            replay_s.append(clock() - t0)
            runs.append(_replay_digest(events, results))
            lengths.append(len(results))
            del results
    finally:
        timer.close()
    if tracer is not None:
        tracer.uninstall()
    res.metric("setup_s", "setup_s", median(setup_times), "s", len(setup_times))
    res.metric("work_per_s", "replay_events_per_s", len(events) * len(replay_s) / sum(replay_s),
               "1/s", len(replay_s))
    res.latency("request_p50_ms", "request_p{q}_ms", timer.samples_ms)
    res.e2e["latency_ms"] = res.named["request_p50_ms"]

    last_ts = events[-1].ts
    users = store.user_ids()
    live = sum(1 for u in users if any(store.get_history(u, last_ts)))
    res.extra["session.users_retained"] = len(users)
    res.extra["session.users_live_frac"] = live / len(users) if users else 0.0

    reqs = [i for i, ev in enumerate(events) if ev.kind == "req"]
    res.attempted = len(reqs) * len(runs)
    first = runs[0]
    res.check(all(n == len(reqs) for n in lengths),
              f"results per replay {sorted(set(lengths))} for {len(reqs)} requests")
    res.check(all(r == first for r in runs[1:]), "replays of the same log disagree")
    step = max(1, len(reqs) // man["oracle_samples"])
    bad = 0
    for i in range(0, len(reqs), step):
        ev = events[reqs[i]]
        cands = ev.request.candidates
        expected = oracle.expected_ranking(model, ev.user_id, ev.ts, cands, ev.request.slots,
                                           oracle.history_from_log(events, reqs[i], lag))
        diff = oracle.compare(expected, first[i], oracle.REPLAY_TOL)
        if diff:
            bad += 1
            res.problems.append(f"request {ev.request.request_id}: {diff}")
    res.failed = bad * len(runs)  # replays are identical, so a mismatch fails in each
    res.records["oracle_checked"] = len(range(0, len(reqs), step))
    res.records["replay_s"] = replay_s


# ---------------------------------------------------------------------------
# serve-rank
# ---------------------------------------------------------------------------

def _start_server(d: Path, man: dict, spans: Path | None, server_cpu: int | None):
    cmd = [sys.executable, str(Path(__file__).with_name("rank_server.py")),
           "--ckpt", str(d / "model.ckpt"), "--snapshot", str(d / "snapshot.tsv"),
           "--catalog", str(d / "catalog.tsv"), "--now", str(man["now"])]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if server_cpu is not None:
        cmd += ["--cpu", str(server_cpu)]
    t0 = clock()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError(f"server did not start: {line!r}")
        port = int(line.split()[1])
        probe = loadgen.connect(port, 1)[0]
        with probe:
            reply = loadgen.request_once(probe, man["probe"])
        ready = clock() - t0
        if not reply.startswith("OK "):
            raise RuntimeError(f"probe request failed: {reply}")
    except BaseException:
        _stop_server(proc)
        raise
    return proc, port, ready


def _stop_server(proc) -> dict:
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"server exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _server_cpu_s(proc) -> float:
    """CPU time the server process has used so far (see rank_server.py)."""
    proc.stdin.write("cpu\n")
    proc.stdin.flush()
    return float(json.loads(proc.stdout.readline())["cpu_s"])


def _parse_reply(reply: str):
    """[(ad_id, pctr, round)] of an ``OK`` reply; None for anything else."""
    if not reply.startswith("OK "):
        return None
    rows = []
    try:
        for item in reply[3:].split(" "):
            ad_id, pctr, rnd = item.rsplit(":", 2)
            rows.append((ad_id, float(pctr), int(rnd)))
    except ValueError:
        return None
    return rows


def run_rank(man: dict, d: Path, tracer: Tracer | None, res: Result) -> None:
    spans = d / "server-spans.tsv" if tracer is not None else None
    # With two or more CPUs the client and the server each get their own.
    cpus = sorted(os.sched_getaffinity(0))
    server_cpu = None
    if len(cpus) >= 2:
        os.sched_setaffinity(0, {cpus[0]})
        server_cpu = cpus[1]
    setup_times = []
    for rep in range(man["setup_reps"]):
        proc, port, ready = _start_server(d, man, spans, server_cpu)
        setup_times.append(ready)
        if rep < man["setup_reps"] - 1:
            _stop_server(proc)
    res.metric("setup_s", "setup_s", median(setup_times), "s", len(setup_times))

    # The schedule alternates light and heavy segments; each segment runs on
    # its own, drained before the next, with the server's CPU time taken
    # around it.
    warmup, segments = [], []
    with open(d / "requests.tsv", "r", encoding="utf-8") as fh:
        for line in fh:
            phase, due, req = line.rstrip("\n").split("\t")
            if phase == "warmup":
                warmup.append(req)
                continue
            if not segments or segments[-1][0] != phase:
                segments.append((phase, []))
            segments[-1][1].append((float(due), req))
    n_conns = min(2, len(cpus))
    outcomes = {"light": [], "heavy": []}
    cpu_s = {"light": 0.0, "heavy": 0.0}
    wall_s = {"light": 0.0, "heavy": 0.0}
    segment_p50_ms = {"light": [], "heavy": []}
    try:
        socks = loadgen.connect(port, n_conns)
        try:
            for req in warmup:
                loadgen.request_once(socks[0], req)
            base = 0.0
            for phase, schedule in segments:
                gc.collect()
                c0 = _server_cpu_s(proc)
                done = loadgen.run_open_loop(socks, [(due - base, req) for due, req in schedule])
                cpu_s[phase] += _server_cpu_s(proc) - c0
                wall_s[phase] += (max((o.received for o in done if o.reply is not None),
                                      default=done[-1].due) - done[0].due)
                outcomes[phase] += done
                segment_p50_ms[phase].append(
                    summarize([o.latency_ms for o in done if o.reply is not None])["p50"])
                base = schedule[-1][0]
        finally:
            for s in socks:
                s.close()
    finally:
        server = _stop_server(proc)
    res.metric("peak_rss_mb", "peak_rss_mb", server["peak_rss_mb"], "MB", 1)
    res.extra["session.users_retained"] = server["users_retained"]
    res.extra["session.users_live_frac"] = (server["users_live"] / server["users_retained"]
                                            if server["users_retained"] else 0.0)

    for phase in ("light", "heavy"):
        ok = [o for o in outcomes[phase] if o.reply is not None]
        res.latency(f"rank_p50_ms.{phase}", "rank_p{q}_ms." + phase,
                    [o.latency_ms for o in ok])
        res.metric(None, f"server_cpu_util.{phase}", cpu_s[phase] / wall_s[phase], "ratio",
                   len(ok))
    # The gated latency is the light rate's median per segment (about 80
    # requests in 1.4 s), at the lower quartile of the segments: the host has
    # episodes, seconds long, in which it runs about half as fast, and the
    # whole-run median moves with the share of the run they cover.
    res.metric("latency_ms", "rank_p50_ms.light.segment_q1",
               lower_quartile(segment_p50_ms["light"]), "ms", len(segment_p50_ms["light"]))
    res.records["segment_p50_ms"] = segment_p50_ms
    # Capacity: replies per CPU-second the server spent on them. The offered
    # load is fixed, so replies per wall second would only restate it.
    every = outcomes["light"] + outcomes["heavy"]
    ok = sum(1 for o in every if o.reply is not None)
    res.metric("work_per_s", "rank_replies_per_cpu_s", ok / sum(cpu_s.values()), "1/s", ok)
    late = summarize([o.late_ms for o in every if o.noticed == o.noticed])
    res.named["generator_late_ms"] = {"value": late["tail"], "unit": "ms", "n": late["n"],
                                      "percentile": late["tail_q"]}
    res.extra["loadgen.late_ms.tail"] = late["tail"]

    if tracer is not None:
        tracer.uninstall()
        # Server span ids are offset so they cannot collide with the client's.
        res.server_spans = [
            s._replace(id=s.id + SERVER_SPAN_OFFSET,
                       parent=None if s.parent is None else s.parent + SERVER_SPAN_OFFSET)
            for s in read_spans(spans)]
        ix = SpanIndex(res.server_spans)
        handle = {s.request: s.duration * 1e3 for s in ix.named("serving.handle_line")}
        for phase in ("light", "heavy"):
            waits = [o.latency_ms - handle[o.line] for o in outcomes[phase]
                     if o.reply is not None and o.line in handle]
            res.extra[f"serving.queue_wait_ms.{phase}"] = summarize(waits)["p50"] if waits else 0.0

    _check_rank(man, d, outcomes, res)


def _check_rank(man: dict, d: Path, outcomes: dict, res: Result) -> None:
    from adctr import ingest, schema, serving

    schemas, vocab, model = _load_ckpt(d / "model.ckpt")
    catalog = serving.load_catalog(d / "catalog.tsv", schemas["target"])
    rows = []
    with open(d / "snapshot.tsv", "r", encoding="utf-8") as fh:
        for line in fh:
            user, tag, ts, text = line.rstrip("\n").split("\t")
            group = "clicked" if tag == "clk" else "unclicked"
            rows.append((user, tag, int(ts), ingest.parse_ad(text, schemas[group], vocab)))
    now, slots = man["now"], man["slots"]
    all_outcomes = outcomes["light"] + outcomes["heavy"]
    res.attempted = len(all_outcomes)
    step = max(1, len(all_outcomes) // man["oracle_samples"])
    failed = 0
    for i, o in enumerate(all_outcomes):
        ranked = _parse_reply(o.reply) if o.reply is not None else None
        if ranked is None:
            failed += 1
            res.problems.append(f"{o.line!r}: {o.reply or 'timed out'}")
            continue
        _, user, _, _, ids = o.line.split(" ")
        ad_ids = ids.split(",")
        if len(ranked) != min(slots, len(ad_ids)):
            failed += 1
            res.problems.append(f"{o.line!r}: {len(ranked)} ads returned")
            continue
        if i % step:
            continue
        cands = []
        for ad_id in ad_ids:
            rec = dict(catalog[ad_id])
            rec.setdefault("user_id", (user,))
            cands.append(schema.encode_instance(rec, schemas["target"], vocab))
        expected = oracle.expected_ranking(model, user, now, cands, slots,
                                           oracle.history_from_snapshot(rows, user, now))
        position = {a: j for j, a in enumerate(ad_ids)}
        actual = [(position.get(a, -1), p, r) for a, p, r in ranked]
        diff = oracle.compare(expected, actual, oracle.RANK_TOL)
        if diff:
            failed += 1
            res.problems.append(f"{o.line!r}: {diff}")
    res.failed = failed


WORKLOADS = {"train-dstn-i": run_train, "serve-replay": run_replay, "serve-rank": run_rank}


def main(argv) -> int:
    workload, d, trace = argv[0], Path(argv[1]), argv[2] == "1"
    with open(d / "manifest.json", "r", encoding="utf-8") as fh:
        man = json.load(fh)
    tracer = None
    if trace:
        tracer = Tracer()
        layers.install(tracer)
    res = Result()
    t0 = clock()
    WORKLOADS[workload](man, d, tracer, res)
    wall = clock() - t0
    if tracer is not None:
        tracer.uninstall()
    if "peak_rss_mb" not in res.e2e:
        res.metric("peak_rss_mb", "peak_rss_mb", peak_rss_mb(), "MB", 1)

    out = {"e2e": res.e2e, "named": res.named, "attempted": res.attempted,
           "failed": res.failed, "problems": res.problems[:20],
           "n_problems": len(res.problems), "wall_s": wall,
           "records": res.records}
    if tracer is not None:
        spans = tracer.spans + res.server_spans
        tracer.write(d / "spans.tsv")
        extra = dict(res.extra)
        for name in E2E:
            extra[f"traced.{name}"] = res.e2e[name]["value"]
        out["per_layer"] = layers.compute(SpanIndex(spans), extra)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
