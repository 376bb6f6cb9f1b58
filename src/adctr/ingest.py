"""Log parsing/serialization and the seeded synthetic log generator.

Log format (TSV, UTF-8, LF), one impression per line:

    label \\t timestamp \\t user_id \\t target_fields \\t ctx \\t clk \\t unclk

``target_fields`` is ``field=value`` pairs joined by ``;`` in schema order,
multivalent values joined by ``,``. Each auxiliary block is ads joined by
``|`` (empty block = empty string). Contextual ads are in top-to-bottom page
order, clicked/unclicked most recent first; parsing truncates every auxiliary
list to the first five entries.

The synthetic generator simulates an impression stream over a latent-topic ad
catalog. Each ad either carries one of ``n_topics`` topics or is a topicless
"promo" filler. The click probability of an impression is

    base_ctr
      + affinity_boost      * (clicked history ads sharing the target's topic)
      - context_suppression * (contextual ads sharing the target's topic)
      - unclicked_penalty   * (unclicked history ads sharing the target's topic)

clamped away from 0 and 1. Histories are maintained with the real session
store, so the <=5 / 3-day constraints hold by construction, and the sampling
probability of every emitted example is recorded for oracle use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .numerics import make_rng
from .schema import (AUX_GROUPS, GROUPS, EncodedInstance, EncodeError, FieldKind, FieldSchema,
                     GroupSchema, RawRecord, Vocabulary, encode_instance, save_schemas)
from .session import SessionStore

MAX_AUX = 5
PROB_CLAMP = 0.005


class ParseError(ValueError):
    def __init__(self, message: str, line_number: int = 0):
        super().__init__(f"line {line_number}: {message}" if line_number else message)
        self.line_number = line_number


@dataclass(frozen=True, slots=True)
class LabeledExample:
    label: int
    timestamp: int
    user_id: str
    target: EncodedInstance
    contextual: tuple[EncodedInstance, ...]
    clicked: tuple[EncodedInstance, ...]
    unclicked: tuple[EncodedInstance, ...]


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------

def _parse_fields(text: str, line_number: int) -> dict[str, tuple[str, ...]]:
    record: dict[str, tuple[str, ...]] = {}
    for pair in text.split(";"):
        if not pair:
            raise ParseError("empty field=value pair", line_number)
        name, sep, value = pair.partition("=")
        if not sep:
            raise ParseError(f"field pair {pair!r} has no '='", line_number)
        if name in record:
            raise ParseError(f"field {name!r} appears twice", line_number)
        values = value.split(",")
        record[name] = tuple(values) if "" not in values else tuple(v for v in values if v)
    return record


def read_record(text: str, group_schema: GroupSchema,
                line_number: int) -> dict[str, tuple[str, ...]]:
    """One ``field=value;...`` ad as a raw record; a field its group does not
    have, or one named twice, is a ``ParseError`` naming the line."""
    record = _parse_fields(text, line_number)
    unknown = record.keys() - group_schema.field_names
    if unknown:
        raise ParseError(f"unknown field(s) {sorted(unknown)} for group {group_schema.group!r}",
                         line_number)
    return record


def parse_ad(text: str, group_schema: GroupSchema, vocab: Vocabulary,
             line_number: int = 0, cache: dict | None = None) -> EncodedInstance:
    """Parse one ``field=value;...`` ad and encode it. ``cache`` is the
    caller's per-file dict: it keeps each auxiliary ad by its group and text
    (a target's text names its user and age, so it seldom repeats), and
    serves ``encode_instance`` as its memo of field values."""
    keep = cache is not None and group_schema.group in AUX_GROUPS
    if keep:
        hit = cache.get((group_schema.group, text))
        if hit is not None:
            return hit
    inst = encode_record(read_record(text, group_schema, line_number), group_schema, vocab,
                         line_number, cache)
    if keep:
        cache[group_schema.group, text] = inst
    return inst


def encode_record(record: RawRecord, group_schema: GroupSchema, vocab: Vocabulary,
                  line_number: int, memo: dict | None) -> EncodedInstance:
    """``encode_instance``, with its error (a missing required field, a bad
    numerical value) raised as a ``ParseError`` naming the line."""
    try:
        return encode_instance(record, group_schema, vocab, memo)
    except EncodeError as exc:
        raise ParseError(str(exc), line_number) from None


def ad_text(pairs: Iterable[tuple[str, Sequence[str]]]) -> str:
    """An ad's ``field=value;...`` text from its (field, values) pairs."""
    return ";".join(f"{name}={','.join(values)}" for name, values in pairs)


def serialize_ad(inst: EncodedInstance) -> str:
    return ad_text(inst.raw)


def parse_uint(text: str, what: str, line_number: int) -> int:
    """A non-negative integer written in ASCII digits only (no sign, space
    or underscore); anything else is a ``ParseError`` naming the line."""
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"bad {what} {text!r}", line_number)
    return int(text)


def _split_line(line: str, line_number: int) -> tuple[list[str], list[list[str]]]:
    """An impression line's label, timestamp and user_id texts, and the ad
    texts of each group in ``GROUPS`` order (auxiliary lists cut to their
    first ``MAX_AUX``)."""
    cols = line.rstrip("\n").split("\t")
    if len(cols) != 7:
        raise ParseError(f"expected 7 columns, got {len(cols)}", line_number)
    return cols[:3], [[cols[3]]] + [t.split("|")[:MAX_AUX] if t else [] for t in cols[4:]]


def parse_log_line(line: str, schemas: Mapping[str, GroupSchema], vocab: Vocabulary,
                   line_number: int, cache: dict | None) -> LabeledExample:
    """Parse one impression line; auxiliary lists are truncated to five ads."""
    (label_s, ts_s, user_id), texts = _split_line(line, line_number)
    if label_s not in ("0", "1"):
        raise ParseError(f"label must be 0 or 1, got {label_s!r}", line_number)
    ts = parse_uint(ts_s, "timestamp", line_number)
    (target,), contextual, clicked, unclicked = [
        tuple([parse_ad(t, schemas[g], vocab, line_number, cache) for t in ads])
        for g, ads in zip(GROUPS, texts)]
    return LabeledExample(label=int(label_s), timestamp=ts, user_id=user_id, target=target,
                          contextual=contextual, clicked=clicked, unclicked=unclicked)


def read_examples(path, schemas: Mapping[str, GroupSchema], vocab: Vocabulary) -> list[LabeledExample]:
    cache: dict = {}
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            out.append(parse_log_line(line, schemas, vocab, line_number=i, cache=cache))
    return out


def iter_group_records(lines: Iterable[str]) -> Iterable[tuple[str, dict[str, tuple[str, ...]]]]:
    """Yield (group, raw record) pairs from raw log lines, for vocabulary
    building. Each distinct auxiliary ad text is parsed once: a repeat
    yields the same record object, which callers must not change. Target
    texts, which name the user and age, are parsed every time and not kept."""
    records: dict[str, dict[str, tuple[str, ...]]] = {}
    for lineno, line in enumerate(lines, start=1):
        (target,), *aux = _split_line(line, lineno)[1]
        yield "target", _parse_fields(target, lineno)
        for group, texts in zip(AUX_GROUPS, aux):
            for text in texts:
                record = records.get(text)
                if record is None:
                    record = records[text] = _parse_fields(text, lineno)
                yield group, record


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticConfig:
    n_users: int = 1000
    n_ads: int = 1500
    n_topics: int = 10
    promo_fraction: float = 0.25
    n_extra_fields: int = 1
    base_ctr: float = 0.3
    affinity_boost: float = 0.3
    context_suppression: float = 0.2
    unclicked_penalty: float = 0.06
    max_contextual: int = 4
    n_train: int = 100_000
    n_val: int = 10_000
    n_test: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.base_ctr < 1.0:
            raise ValueError("base_ctr must be in (0, 1)")
        for name in ("affinity_boost", "context_suppression", "unclicked_penalty"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if min(self.n_users, self.n_ads, self.n_topics) < 1:
            raise ValueError("n_users, n_ads and n_topics must be positive")

    @classmethod
    def from_json(cls, path) -> "SyntheticConfig":
        return cls(**read_config(cls, path))


def read_config(cls, path, **overrides) -> dict:
    """The keyword arguments of a config dataclass: a JSON object file's
    keys, then ``overrides``. A key the class does not have is a
    ``ValueError`` naming the file and the keys."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    data.update(overrides)
    unknown = data.keys() - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"{path}: unknown {cls.__name__} key(s) {sorted(unknown)}")
    return data


def click_probability(cfg: SyntheticConfig, n_clicked_match: int, n_contextual_match: int,
                      n_unclicked_match: int) -> float:
    """Sampling probability for one impression; clamped inside (0, 1)."""
    p = (cfg.base_ctr
         + cfg.affinity_boost * n_clicked_match
         - cfg.context_suppression * n_contextual_match
         - cfg.unclicked_penalty * n_unclicked_match)
    return min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP)


@dataclass(frozen=True)
class AdRecord:
    ad_id: str
    topic: int | None  # None = topicless promo filler
    fields: tuple[tuple[str, tuple[str, ...]], ...]  # aux-group raw record

    def identity(self) -> str:
        return self.ad_id


def _random_word(rng, length: int) -> str:
    letters = "abcdefghijklmnopqrstuvwxyz"
    return "".join(letters[int(i)] for i in rng.integers(0, 26, size=length))


def synthetic_schemas(cfg: SyntheticConfig) -> dict[str, GroupSchema]:
    extra = tuple(FieldSchema(f"x{i}", FieldKind.UNIVALENT) for i in range(cfg.n_extra_fields))
    ad_fields = (FieldSchema("ad_id", FieldKind.UNIVALENT),
                 FieldSchema("src", FieldKind.UNIVALENT),
                 FieldSchema("title", FieldKind.MULTIVALENT)) + extra
    target_fields = (FieldSchema("user_id", FieldKind.UNIVALENT),
                     FieldSchema("age", FieldKind.NUMERICAL, (25.0, 35.0, 50.0))) + ad_fields
    return {
        "target": GroupSchema("target", target_fields),
        "contextual": GroupSchema("contextual", ad_fields),
        "clicked": GroupSchema("clicked", ad_fields),
        "unclicked": GroupSchema("unclicked", ad_fields),
    }


@dataclass
class SyntheticDataset:
    config: SyntheticConfig
    schemas: dict[str, GroupSchema]
    train: list[str]
    validation: list[str]
    test: list[str]
    train_probs: list[float]
    validation_probs: list[float]
    test_probs: list[float]
    ad_topics: dict[str, int | None]

    def splits(self) -> dict[str, tuple[list[str], list[float]]]:
        return {"train": (self.train, self.train_probs),
                "val": (self.validation, self.validation_probs),
                "test": (self.test, self.test_probs)}

    def write(self, outdir) -> None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        save_schemas(self.schemas, outdir / "schema.tsv")
        for name, (lines, probs) in self.splits().items():
            with open(outdir / f"{name}.tsv", "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(line + "\n" for line in lines)
            with open(outdir / f"{name}.probs.tsv", "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(repr(p) + "\n" for p in probs)
        with open(outdir / "topics.tsv", "w", encoding="utf-8", newline="\n") as fh:
            for ad_id in sorted(self.ad_topics):
                topic = self.ad_topics[ad_id]
                fh.write(f"{ad_id}\t{'-' if topic is None else topic}\n")
        with open(outdir / "config.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.config.__dict__, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _make_catalog(cfg: SyntheticConfig, rng) -> list[AdRecord]:
    pools = [[_random_word(rng, 5) for _ in range(6)] for _ in range(cfg.n_topics)]
    promo_pool = [_random_word(rng, 5) for _ in range(6)]
    extra_values = [[_random_word(rng, 4) for _ in range(30)] for _ in range(cfg.n_extra_fields)]
    ads = []
    for i in range(cfg.n_ads):
        promo = rng.random() < cfg.promo_fraction
        topic = None if promo else int(rng.integers(0, cfg.n_topics))
        pool = promo_pool if promo else pools[topic]
        w1, w2 = rng.choice(len(pool), size=2, replace=False)
        fields = [("ad_id", (f"a{i:04d}",)),
                  ("src", ("promo" if promo else "organic",)),
                  ("title", (f"{pool[int(w1)]} {pool[int(w2)]}",))]
        for j in range(cfg.n_extra_fields):
            fields.append((f"x{j}", (extra_values[j][int(rng.integers(0, 30))],)))
        ads.append(AdRecord(ad_id=f"a{i:04d}", topic=topic, fields=tuple(fields)))
    return ads


def _match_count(target: AdRecord, ads: Sequence[AdRecord]) -> int:
    if target.topic is None:
        return 0
    return sum(1 for a in ads if a.topic == target.topic)


def generate_synthetic(cfg: SyntheticConfig) -> SyntheticDataset:
    """Deterministic synthetic impression stream, split chronologically."""
    rng = make_rng(cfg.seed)
    schemas = synthetic_schemas(cfg)
    ads = _make_catalog(cfg, rng)
    users = [f"u{i:04d}" for i in range(cfg.n_users)]
    ages = rng.integers(18, 71, size=cfg.n_users)
    store = SessionStore()

    text_of = {ad.ad_id: ad_text(ad.fields) for ad in ads}
    lines: list[str] = []
    probs: list[float] = []
    ts = 0
    total = cfg.n_train + cfg.n_val + cfg.n_test
    for _ in range(total):
        ts += int(rng.integers(5, 61))
        ui = int(rng.integers(0, cfg.n_users))
        ti = int(rng.integers(0, cfg.n_ads))
        target = ads[ti]
        n_ctx = int(rng.integers(0, cfg.max_contextual + 1))
        ctx: list[AdRecord] = []
        if n_ctx:
            others = rng.choice(cfg.n_ads - 1, size=n_ctx, replace=False)
            ctx = [ads[int(j) if j < ti else int(j) + 1] for j in others]
        clicked, unclicked = store.get_history(users[ui], ts)
        p = click_probability(cfg,
                              _match_count(target, clicked),
                              _match_count(target, ctx),
                              _match_count(target, unclicked))
        label = 1 if rng.random() < p else 0
        target_text = f"user_id={users[ui]};age={int(ages[ui])};" + text_of[target.ad_id]
        lines.append("\t".join([
            str(label), str(ts), users[ui], target_text,
            "|".join(text_of[a.ad_id] for a in ctx),
            "|".join(text_of[a.ad_id] for a in clicked),
            "|".join(text_of[a.ad_id] for a in unclicked),
        ]))
        probs.append(p)
        store.record_event(users[ui], target, clicked=bool(label), ts=ts)

    a, b = cfg.n_train, cfg.n_train + cfg.n_val
    return SyntheticDataset(
        config=cfg,
        schemas=schemas,
        train=lines[:a], validation=lines[a:b], test=lines[b:],
        train_probs=probs[:a], validation_probs=probs[a:b], test_probs=probs[b:],
        ad_topics={ad.ad_id: ad.topic for ad in ads},
    )
