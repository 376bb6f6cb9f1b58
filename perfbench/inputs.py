"""Seeded input generation. Everything the program later reads is written
here as files: the impression logs and schema (``ingest.generate_synthetic``),
and the benchmark's own event log, ad catalog, session snapshot and serving
checkpoint. The same seed and size give byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from oracle import HistoryModel

LAG_SECONDS = 10
SLOTS = 4
EXTRA_CANDIDATES = 7  # REQ candidates: the shown ad plus this many catalog ads
RANK_CANDIDATES = 8
DAY = 24 * 3600


# serve-rank offers two Poisson rates, stated as fractions of the server's
# saturation throughput: light about 20%, heavy about 70%. Saturation was
# measured once on a 2-vCPU box (client and server pinned to their own CPU,
# two connections each sending its next request as soon as a reply arrives):
# 299-313 replies/s, 301-316 replies per server CPU-second (NOTES.md).
SATURATION_RPS = 300.0


@dataclass(frozen=True)
class Size:
    train: int
    val: int
    test: int
    replay_impressions: int
    replay_users: int
    rank_impressions: int
    rank_users: int
    light_rps: float
    heavy_rps: float
    # Work per measured second at the reference speed (see NOTES.md). The
    # amount of work is fixed by --seconds, so sample counts, and with them
    # the reported tail percentile, are the same on every commit.
    train_rounds_per_s: float
    replays_per_s: float
    light_share: float
    heavy_share: float
    predict_passes_per_round: int = 2
    rank_segments: int = 10
    # Set-up is repeated and its median reported (serve-replay sets up again
    # before each replay); serve-rank's set-up, about 0.4 s against 1.5 s for
    # train-dstn-i, needs more repeats to be steady.
    train_setup_reps: int = 3
    rank_setup_reps: int = 5
    warmup_requests: int = 20
    oracle_samples: int = 40


SIZES = {
    "full": Size(train=4000, val=1000, test=2048,
                 replay_impressions=500, replay_users=50,
                 rank_impressions=3000, rank_users=300,
                 light_rps=0.2 * SATURATION_RPS, heavy_rps=0.7 * SATURATION_RPS,
                 train_rounds_per_s=0.4, replays_per_s=0.5,
                 light_share=0.45, heavy_share=0.45),
    "tiny": Size(train=300, val=100, test=256,
                 replay_impressions=40, replay_users=8,
                 rank_impressions=200, rank_users=20,
                 light_rps=40.0, heavy_rps=80.0,
                 train_rounds_per_s=0.0, replays_per_s=0.0,
                 light_share=0.5, heavy_share=0.5, predict_passes_per_round=1,
                 rank_segments=1, train_setup_reps=2, rank_setup_reps=2,
                 warmup_requests=2, oracle_samples=5),
}


def plan(size: Size, seconds: int) -> dict:
    """How much work one run does for a given --seconds."""
    return {
        "train_rounds": max(1, round(size.train_rounds_per_s * seconds)),
        "replays": max(1, round(size.replays_per_s * seconds)),
        "light_requests": max(10, round(size.light_rps * size.light_share * seconds)),
        "heavy_requests": max(10, round(size.heavy_rps * size.heavy_share * seconds)),
    }


def _synthetic(seed: int, n_train: int, n_val: int, n_test: int, n_users: int):
    from adctr.ingest import SyntheticConfig, generate_synthetic

    return generate_synthetic(SyntheticConfig(n_users=n_users, n_train=n_train, n_val=n_val,
                                              n_test=n_test, seed=seed))


def _target_parts(line: str) -> tuple[str, int, str, str, int]:
    """(user, ts, age, ad text without user fields, label) of an impression."""
    cols = line.split("\t")
    _, age_part, ad_text = cols[3].split(";", 2)
    return cols[2], int(cols[1]), age_part.partition("=")[2], ad_text, int(cols[0])


def _ad_id(ad_text: str) -> str:
    return ad_text.split(";", 1)[0].partition("=")[2]


def _write_checkpoint(ds, lines: list[str], seed: int, out: Path) -> None:
    """A seeded, untrained DSTN-I model at the default dims, with sidecars."""
    from adctr.ingest import iter_group_records
    from adctr.models import Variant, init_model, save_model
    from adctr.numerics import make_rng
    from adctr.schema import build_vocabulary, save_schemas, schemas_hash

    vocab = build_vocabulary(iter_group_records(lines), ds.schemas)
    model = init_model(Variant.DSTN_I, ds.schemas, vocab.size, make_rng(seed))
    save_model(out, model, schemas_hash(ds.schemas), vocab.content_hash())
    save_schemas(ds.schemas, f"{out}.schema.tsv")
    vocab.save(f"{out}.vocab.tsv")


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def make_train(seed: int, size: Size, out: Path) -> dict:
    ds = _synthetic(seed, size.train, size.val, size.test, n_users=1000)
    ds.write(out)
    return {}


def make_replay(seed: int, size: Size, out: Path) -> dict:
    """Event log: per impression one REQ (the shown ad plus seven catalog
    ads, four slots), then IMP, then CLICK if it was clicked. The log is in
    global time order."""
    from adctr.numerics import make_rng

    ds = _synthetic(seed, size.replay_impressions, 0, 0, n_users=size.replay_users)
    _write_checkpoint(ds, ds.train, seed, out / "model.ckpt")
    parts = [_target_parts(line) for line in ds.train]
    catalog = sorted({_ad_id(p[3]): p[3] for p in parts}.items())
    rng = make_rng(seed + 1)
    events = []
    for i, (user, ts, age, ad_text, label) in enumerate(parts):
        others = [catalog[int(j)][1] for j in rng.permutation(len(catalog))
                  if catalog[int(j)][1] != ad_text][:EXTRA_CANDIDATES]
        cands = [ad_text] + others
        order = rng.permutation(len(cands))
        cand_text = "|".join(f"age={age};{cands[int(j)]}" for j in order)
        events.append(f"REQ\t{ts}\t{user}\tr{i}\t{SLOTS}\t{cand_text}")
        events.append(f"IMP\t{ts}\t{user}\t{ad_text}")
        if label:
            events.append(f"CLICK\t{ts}\t{user}\t{ad_text}")
    _write_lines(out / "events.tsv", events)
    return {"lag_seconds": LAG_SECONDS}


def make_rank(seed: int, size: Size, seconds_plan: dict, out: Path) -> dict:
    """Catalog, session snapshot, and the open-loop request schedule."""
    from adctr.numerics import make_rng

    ds = _synthetic(seed, size.rank_impressions, 0, 0, n_users=size.rank_users)
    _write_checkpoint(ds, ds.train, seed, out / "model.ckpt")
    parts = [_target_parts(line) for line in ds.train]
    rng = make_rng(seed + 2)
    ads = sorted({_ad_id(p[3]): p[3] for p in parts}.items())
    _write_lines(out / "catalog.tsv",
                 (f"{ad_id}\tage={int(rng.integers(18, 71))};{text}" for ad_id, text in ads))

    hist = HistoryModel()
    for user, ts, _, ad_text, label in parts:
        hist.record(user, ad_text, ad_text, False, ts)
        if label:
            hist.record(user, ad_text, ad_text, True, ts)
    snapshot = []
    for user in sorted(hist.users):
        clk, unclk = hist.entries(user)
        snapshot += [f"{user}\tclk\t{e.ts}\t{e.ad}" for e in clk]
        snapshot += [f"{user}\tunclk\t{e.ts}\t{e.ad}" for e in unclk]
    _write_lines(out / "snapshot.tsv", snapshot)

    # Half a day of the history stays inside the 3-day window at `now`.
    now = parts[-1][1] + int(2.5 * DAY)
    users = sorted({p[0] for p in parts})
    ad_ids = [a for a, _ in ads]

    def request() -> str:
        user = users[int(rng.integers(0, len(users)))]
        picks = rng.choice(len(ad_ids), size=RANK_CANDIDATES, replace=False)
        return f"RANK {user} {now} {SLOTS} {','.join(ad_ids[int(j)] for j in picks)}"

    # Light and heavy segments alternate, so both rates sample the whole run.
    schedule = [f"warmup\t0.0\t{request()}" for _ in range(size.warmup_requests)]
    due = 0.0
    for seg in range(size.rank_segments):
        for phase, rate in (("light", size.light_rps), ("heavy", size.heavy_rps)):
            total = seconds_plan[f"{phase}_requests"]
            n = total // size.rank_segments + (seg < total % size.rank_segments)
            # Poisson arrivals, with the gaps scaled to sum to exactly n / rate
            # so every seed offers the same load over the same time.
            gaps = rng.exponential(1.0, size=n)
            for gap in gaps * (n / rate / gaps.sum()):
                due += float(gap)
                schedule.append(f"{phase}\t{due!r}\t{request()}")
    _write_lines(out / "requests.tsv", schedule)
    return {"now": now, "probe": request()}


def make(workload: str, seed: int, seconds: int, size_name: str, out: Path) -> dict:
    """Write the inputs of one run into ``out`` and return its manifest."""
    size = SIZES[size_name]
    work = plan(size, seconds)
    out.mkdir(parents=True, exist_ok=True)
    if workload == "train-dstn-i":
        extra = make_train(seed, size, out)
        setup_reps = size.train_setup_reps
    elif workload == "serve-replay":
        extra = make_replay(seed, size, out)
        setup_reps = work["replays"]
    elif workload == "serve-rank":
        extra = make_rank(seed, size, work, out)
        setup_reps = size.rank_setup_reps
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, "seconds": seconds, "size": size_name,
                "slots": SLOTS, **asdict(size), **work, **extra, "setup_reps": setup_reps}
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return manifest
