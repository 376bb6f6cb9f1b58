"""The per-file parse memo (``ingest.read_fields``): a file parsed through
one memo gives what each of its lines gives parsed with a fresh memo, for
valid and refused lines alike, through ``read_examples``, ``parse_events``
and ``SessionStore.restore``; a parse keys each distinct field text once,
and hashes no field schema per lookup."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adctr.ingest import (ParseError, SyntheticConfig, generate_synthetic, iter_group_records,
                          parse_log_line, read_examples)
from adctr.schema import FieldSchema, build_vocabulary
from adctr.serving import parse_events
from adctr.session import SessionStore

# Few users and ads, so that field texts and whole ads repeat across lines
# and across groups.
_DS = generate_synthetic(SyntheticConfig(n_users=6, n_ads=10, n_train=40, n_val=1, n_test=1,
                                         seed=8))
_SCHEMAS = _DS.schemas
_VOCAB = build_vocabulary(iter_group_records(_DS.train), _SCHEMAS)

# Two mutations keep the ad valid: its fields in reverse order, and an empty
# title. Each other refuses the ad it is applied to: an empty pair, a pair
# without "=", a field named twice, an unknown field, two values for a
# univalent field, a bad number (or an unknown field where the group has no
# age), a missing required field, a field text seen valid on an earlier line
# put where it is refused, and a user_id (refused in a REQ candidate and an
# auxiliary ad, named twice in a target).
_KINDS = ("reverse", "no_title", "empty", "no_eq", "twice", "unknown", "two_values",
          "bad_number", "missing", "moved", "user_id")


def _mutate(ad: str, kind: str, earlier: str) -> str:
    pairs = ad.split(";")
    if kind == "reverse":
        pairs.reverse()
    elif kind == "no_title":
        pairs = [p.partition("=")[0] + "=" if p.startswith("title=") else p for p in pairs]
    elif kind == "empty":
        pairs.insert(1, "")
    elif kind == "no_eq":
        pairs[-1] = pairs[-1].partition("=")[0]
    elif kind == "twice":
        pairs.append(pairs[-1])
    elif kind == "unknown":
        pairs.append("bogus=1")
    elif kind == "two_values":
        pairs = [p + ",zz" if p.startswith("src=") else p for p in pairs]
    elif kind == "bad_number":
        pairs = [p for p in pairs if not p.startswith("age=")] + ["age=old"]
    elif kind == "missing":
        pairs = [p for p in pairs if not p.startswith("ad_id=")]
    elif kind == "moved":
        pairs.append(earlier)
    else:
        pairs.insert(0, "user_id=u0001")
    return ";".join(pairs)


def _apply(lines, ad_columns, mutations):
    """``lines`` with each mutation applied to one ad of one line; an ad
    column holds ads joined by ``|``."""
    lines = [line.split("\t") for line in lines]
    for at, kind, pick in mutations:
        cols = lines[at % len(lines)]
        slots = [(c, k) for c in ad_columns(cols) if c < len(cols)
                 for k, ad in enumerate(cols[c].split("|")) if ad]
        if not slots:
            continue
        c, k = slots[pick % len(slots)]
        seen = [p for cols_before in lines[:at % len(lines)] for c2 in ad_columns(cols_before)
                if c2 < len(cols_before) for ad in cols_before[c2].split("|") if ad
                for p in ad.split(";")]
        ads = cols[c].split("|")
        ads[k] = _mutate(ads[k], kind, seen[pick % len(seen)] if seen else "bogus=2")
        cols[c] = "|".join(ads)
    return ["\t".join(cols) for cols in lines]


_MUTATIONS = st.lists(st.tuples(st.integers(0, 200), st.sampled_from(_KINDS),
                                st.integers(0, 1000)), max_size=3)


def _outcome(parse):
    """(result, None) or (None, (message, line number)) of a parse."""
    try:
        return parse(), None
    except ParseError as exc:  # the file's path aside: a line parsed alone has none
        return None, (exc.message, exc.line_number)


def _each_line_alone(lines, parse_line):
    """Each line parsed with a fresh memo, in order: the results up to the
    first refusal, and that refusal."""
    out = []
    for lineno, line in enumerate(lines, start=1):
        result, refusal = _outcome(lambda: parse_line(lineno, line))
        if refusal is not None:
            return out, refusal
        out.append(result)
    return out, None


def _instances(examples):
    return [[(ad.group, ad.indices, ad.raw)
             for ad in (ex.target, *ex.contextual, *ex.clicked, *ex.unclicked)]
            for ex in examples]


@settings(max_examples=80, deadline=None)
@given(mutations=_MUTATIONS)
def test_read_examples_parses_as_a_fresh_memo_per_line_does(tmp_path_factory, mutations):
    lines = _apply(_DS.train, lambda cols: range(3, 7), mutations)
    path = tmp_path_factory.getbasetemp() / "memo_train.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    shared, refused = _outcome(lambda: read_examples(path, _SCHEMAS, _VOCAB))
    alone, refused_alone = _each_line_alone(
        lines, lambda i, line: parse_log_line(line + "\n", _SCHEMAS, _VOCAB, i, {}))
    assert refused == refused_alone
    if refused is None:
        assert _instances(shared) == _instances(alone)
        assert shared == alone


def _event_lines():
    """Per impression a REQ (its ad and the one before, with the user's age),
    an IMP and, if clicked, a CLICK."""
    out, previous = [], None
    for line in _DS.train:
        label, ts, user, target = line.split("\t")[:4]
        _, age, ad = target.split(";", 2)
        cands = "|".join(f"{age};{a}" for a in (ad, previous or ad))
        out += [f"REQ\t{ts}\t{user}\tr{ts}\t2\t{cands}", f"IMP\t{ts}\t{user}\t{ad}"]
        if label == "1":
            out.append(f"CLICK\t{ts}\t{user}\t{ad}")
        previous = ad
    return out


_EVENTS = _event_lines()


@settings(max_examples=80, deadline=None)
@given(mutations=_MUTATIONS)
def test_parse_events_parses_as_a_fresh_memo_per_line_does(tmp_path_factory, mutations):
    lines = _apply(_EVENTS, lambda cols: (5,) if cols[0] == "REQ" else (3,), mutations)
    path = tmp_path_factory.getbasetemp() / "memo_events.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    shared, refused = _outcome(lambda: parse_events(path, _SCHEMAS, _VOCAB))
    alone_path = tmp_path_factory.getbasetemp() / "memo_event.tsv"

    def parse_line(lineno, line):
        # Blank lines are skipped, so the line keeps its number.
        alone_path.write_text("\n" * (lineno - 1) + line + "\n", encoding="utf-8")
        (event,) = parse_events(alone_path, _SCHEMAS, _VOCAB)
        return event

    alone, refused_alone = _each_line_alone(lines, parse_line)
    assert refused == refused_alone
    if refused is None:
        assert shared == alone


_SNAPSHOT = [f"{cols[2]}\t{'clk' if cols[0] == '1' else 'unclk'}\t{cols[1]}\t"
             f"{cols[3].split(';', 2)[2]}" for cols in (line.split("\t") for line in _DS.train)]


@settings(max_examples=80, deadline=None)
@given(mutations=_MUTATIONS)
def test_restore_parses_as_a_fresh_memo_per_line_does(tmp_path_factory, mutations):
    lines = _apply(_SNAPSHOT, lambda cols: (3,), mutations)
    path = tmp_path_factory.getbasetemp() / "memo_snapshot.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    shared, refused = _outcome(lambda: SessionStore.restore(path, _SCHEMAS, _VOCAB))
    alone_path = tmp_path_factory.getbasetemp() / "memo_snapshot_line.tsv"

    def parse_line(lineno, line):
        alone_path.write_text(line + "\n", encoding="utf-8")
        try:
            store = SessionStore.restore(alone_path, _SCHEMAS, _VOCAB)
        except ParseError as exc:  # alone, the line is line 1
            raise ParseError(exc.message, lineno) from None
        user, tag, ts = line.split("\t")[:3]
        (ad,) = store.get_history(user, int(ts))[tag == "unclk"]
        return user, ad, tag == "clk", int(ts)

    alone, refused_alone = _each_line_alone(lines, parse_line)
    assert refused == refused_alone
    if refused is None:
        expected = SessionStore()
        for event in alone:
            expected.record_event(*event)
        now = max(ts for *_, ts in alone)
        for user in expected.user_ids():
            assert shared.get_history(user, now) == expected.get_history(user, now)
        assert shared.user_ids() == expected.user_ids()


@pytest.mark.parametrize("make", [copy.copy, copy.deepcopy,
                                  lambda x: pickle.loads(pickle.dumps(x)), dataclasses.replace])
def test_copies_of_field_and_group_schemas_hash_equal_to_the_originals(make):
    for gs in _SCHEMAS.values():
        for original in (gs, *gs.fields):
            made = make(original)
            assert made == original and hash(made) == hash(original)
        made = make(gs)
        assert made.field_names == gs.field_names
        assert all(made.field(fs.name) == fs for fs in gs.fields) and made.field("x") is None


def _field_texts(lines, ad_columns):
    return {pair for cols in (line.split("\t") for line in lines) for c in ad_columns(cols)
            for ad in cols[c].split("|") if ad for pair in ad.split(";")}


@pytest.fixture()
def schema_hashes(monkeypatch):
    calls = []
    original = FieldSchema.__hash__
    monkeypatch.setattr(FieldSchema, "__hash__", lambda fs: calls.append(fs) or original(fs))
    return calls


def test_a_log_parse_keys_each_distinct_field_text_once(tmp_path, schema_hashes):
    path = tmp_path / "train.tsv"
    path.write_text("".join(line + "\n" for line in _DS.train), encoding="utf-8")
    examples = read_examples(path, _SCHEMAS, _VOCAB)
    n_ads = sum(1 + len(ex.contextual) + len(ex.clicked) + len(ex.unclicked) for ex in examples)
    # About six hashes per parsed ad were made when the memo was keyed by
    # (field schema, values).
    assert len(schema_hashes) <= len(_field_texts(_DS.train, lambda cols: range(3, 7))) < n_ads


def test_an_event_log_parse_keys_each_distinct_field_text_once(tmp_path, schema_hashes):
    path = tmp_path / "events.tsv"
    path.write_text("".join(line + "\n" for line in _EVENTS), encoding="utf-8")
    events = parse_events(path, _SCHEMAS, _VOCAB)
    n_candidates = sum(len(ev.request.candidates) for ev in events if ev.kind == "req")
    texts = _field_texts(_EVENTS, lambda cols: (5,) if cols[0] == "REQ" else (3,))
    assert len(schema_hashes) <= len(texts) < n_candidates
