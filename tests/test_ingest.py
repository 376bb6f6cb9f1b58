import copy
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adctr import schema
from adctr.ingest import (ParseError, SyntheticConfig, click_probability, generate_synthetic,
                          iter_group_records, parse_log_line, read_examples)
from adctr.schema import GROUPS, FieldKind, FieldSchema, GroupSchema, build_vocabulary
from oracles import reference_examples, reference_vocabulary, serialize_example


def _ad(i):
    return f"ad_id=a{i:04d};src=organic;title=word{i};x0=v"


class TestParseLogLine:
    @pytest.fixture()
    def env(self, tiny_dataset):
        ds, vocab, *_ = tiny_dataset
        return ds.schemas, vocab

    def test_round_trip_is_byte_exact(self, tiny_dataset):
        ds, vocab, train, *_ = tiny_dataset
        for line, ex in zip(ds.train, train):
            assert serialize_example(ex) == line

    def test_empty_contextual_block(self, env):
        schemas, vocab = env
        line = "\t".join(["0", "123", "u1", f"user_id=u1;age=30;{_ad(1)}", "", _ad(2), ""])
        ex = parse_log_line(line, schemas, vocab, line_number=0, cache=None)
        assert ex.contextual == ()
        assert len(ex.clicked) == 1

    def test_seven_clicked_keeps_most_recent_five(self, env):
        schemas, vocab = env
        clk = "|".join(_ad(i) for i in range(7))  # most recent first
        line = "\t".join(["1", "123", "u1", f"user_id=u1;age=30;{_ad(1)}", "", clk, ""])
        ex = parse_log_line(line, schemas, vocab, line_number=0, cache=None)
        assert len(ex.clicked) == 5
        kept = [ad.raw_dict()["ad_id"][0] for ad in ex.clicked]
        assert kept == [f"a{i:04d}" for i in range(5)]

    def test_bad_label(self, env):
        schemas, vocab = env
        line = "\t".join(["2", "123", "u1", f"user_id=u1;age=30;{_ad(1)}", "", "", ""])
        with pytest.raises(ParseError, match="label"):
            parse_log_line(line, schemas, vocab, line_number=17, cache=None)

    def test_bad_column_count(self, env):
        schemas, vocab = env
        with pytest.raises(ParseError, match="line 4"):
            parse_log_line("1\t2\t3", schemas, vocab, line_number=4, cache=None)

    @pytest.mark.parametrize("ts", ["noon", "-5", "+5", " 5", "5 ", "1_000", "1.5", "٥", ""])
    def test_bad_timestamp(self, env, ts):
        # ASCII digits only: int() would take most of these
        schemas, vocab = env
        line = "\t".join(["1", ts, "u1", f"user_id=u1;age=30;{_ad(1)}", "", "", ""])
        with pytest.raises(ParseError, match=re.escape(f"line 9: bad timestamp {ts!r}")):
            parse_log_line(line, schemas, vocab, line_number=9, cache=None)

    def test_unknown_field_rejected(self, env):
        schemas, vocab = env
        line = "\t".join(["1", "12", "u1", f"user_id=u1;age=30;{_ad(1)};bogus=x", "", "", ""])
        with pytest.raises(ParseError, match="bogus"):
            parse_log_line(line, schemas, vocab, line_number=0, cache=None)

    @pytest.mark.parametrize("target, message", [
        (f"user_id=u1;{_ad(1)}", "missing required numerical field 'age'"),
        (f"user_id=u1;age=old;{_ad(1)}", "numerical field 'age': bad value 'old'"),
        ("user_id=u1;age=30;src=organic;title=t;x0=v", "missing required univalent field 'ad_id'"),
    ])
    def test_encode_errors_name_the_line(self, env, target, message):
        schemas, vocab = env
        line = "\t".join(["1", "12", "u1", target, "", _ad(2), ""])
        with pytest.raises(ParseError, match=f"line 42: {message}") as info:
            parse_log_line(line, schemas, vocab, line_number=42, cache=None)
        assert info.value.line_number == 42


class TestParsedForm:
    def test_a_value_on_two_lines_of_a_file_is_one_object(self, tmp_path, tiny_dataset):
        ds, vocab, *_ = tiny_dataset
        lines = ["\t".join(["0", "10", "u1", f"user_id=u1;age=30;{_ad(1)}", _ad(2), "", ""]),
                 "\t".join(["1", "20", "u2", f"user_id=u2;age=60;{_ad(1)}", "", "", _ad(3)])]
        path = tmp_path / "log.tsv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        a, b = read_examples(path, ds.schemas, vocab)
        names = ds.schemas["target"].field_names
        assert a.target is not b.target
        for i, name in enumerate(names):
            assert (a.target.raw[i] is b.target.raw[i]) == (name not in ("user_id", "age"))
        # src=organic and x0=v: one object in every ad of the file that has them
        src, x0 = (a.target.raw[names.index(n)] for n in ("src", "x0"))
        for ad in (a.contextual[0], b.unclicked[0]):
            assert ad.raw[1] is src and ad.raw[3] is x0
        assert [serialize_example(ex) for ex in (a, b)] == lines

    def test_the_cache_keeps_no_target_ad(self, tiny_dataset):
        # A target's text names its user and age, so it is not kept by text.
        ds, vocab, *_ = tiny_dataset
        cache: dict = {}
        line = next(l for l in ds.train if l.split("\t")[5])  # one with a clicked ad
        a, b = (parse_log_line(line, ds.schemas, vocab, line_number=i, cache=cache)
                for i in (1, 2))
        assert a == b and a.target is not b.target and a.clicked[0] is b.clicked[0]
        assert ("clicked", line.split("\t")[5].split("|")[0]) in cache
        assert not any(key[0] == "target" for key in cache)

    def test_the_vocabulary_pass_reuses_auxiliary_records_only(self, tiny_dataset):
        line = next(l for l in tiny_dataset[0].train if l.split("\t")[5])
        pairs = list(iter_group_records([line, line]))
        half = len(pairs) // 2
        assert [g for g, _ in pairs[:half]] == [g for g, _ in pairs[half:]]
        for (group, a), (_, b) in zip(pairs[:half], pairs[half:]):
            assert a == b and (a is b) == (group != "target")

    def test_an_example_is_slotted_and_still_copied_and_replaced(self, tiny_dataset):
        ex = tiny_dataset[2][0]
        assert not hasattr(ex, "__dict__") and not hasattr(ex.target, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            ex.label = 1 - ex.label
        for dup in (copy.copy(ex), copy.deepcopy(ex), dataclasses.replace(ex)):
            assert dup == ex
        bare = dataclasses.replace(ex, label=1 - ex.label, clicked=())
        assert (bare.label, bare.clicked, bare.target) == (1 - ex.label, (), ex.target)


class TestGenerator:
    def test_same_seed_is_byte_identical(self):
        cfg = SyntheticConfig(n_users=20, n_ads=30, n_train=400, n_val=50, n_test=50, seed=99)
        a, b = generate_synthetic(cfg), generate_synthetic(cfg)
        assert a.train == b.train and a.validation == b.validation and a.test == b.test
        assert a.train_probs == b.train_probs
        assert a.ad_topics == b.ad_topics

    def test_different_seed_differs(self):
        base = dict(n_users=20, n_ads=30, n_train=400, n_val=50, n_test=50)
        a = generate_synthetic(SyntheticConfig(seed=1, **base))
        b = generate_synthetic(SyntheticConfig(seed=2, **base))
        assert a.train != b.train

    def test_flat_ctr_matches_base_rate(self):
        # Monte Carlo: with all effects off the empirical CTR is the base CTR.
        cfg = SyntheticConfig(n_users=50, n_ads=60, base_ctr=0.10, affinity_boost=0.0,
                              context_suppression=0.0, unclicked_penalty=0.0,
                              n_train=100_000, n_val=0, n_test=0, seed=17)
        ds = generate_synthetic(cfg)
        ctr = np.mean([int(l.split("\t", 1)[0]) for l in ds.train])
        assert abs(ctr - 0.10) <= 0.01

    def test_aux_lists_capped_at_five(self, tiny_dataset):
        _, _, train, val, test = tiny_dataset
        for ex in train + val + test:
            assert len(ex.contextual) <= 5
            assert len(ex.clicked) <= 5
            assert len(ex.unclicked) <= 5

    def test_recorded_probabilities_recompute_exactly(self, tiny_dataset):
        # Oracle: derive topic-match counts from the emitted lines and the
        # topic map, feed them through the probability formula, and demand
        # exactly the recorded sampling probabilities.
        ds, _, train, *_ = tiny_dataset
        topic = ds.ad_topics
        for ex, p_recorded in zip(train, ds.train_probs):
            t_topic = topic[ex.target.raw_dict()["ad_id"][0]]

            def matches(ads):
                if t_topic is None:
                    return 0
                return sum(1 for a in ads if topic[a.raw_dict()["ad_id"][0]] == t_topic)

            p = click_probability(ds.config, matches(ex.clicked), matches(ex.contextual),
                                  matches(ex.unclicked))
            assert p == p_recorded

    def test_write_outputs(self, tmp_path):
        cfg = SyntheticConfig(n_users=10, n_ads=15, n_train=60, n_val=20, n_test=20, seed=3)
        ds = generate_synthetic(cfg)
        ds.write(tmp_path)
        for name in ("schema.tsv", "train.tsv", "val.tsv", "test.tsv",
                     "train.probs.tsv", "topics.tsv", "config.json"):
            assert (tmp_path / name).exists()
        probs = [float(l) for l in (tmp_path / "train.probs.tsv").read_text().splitlines()]
        assert probs == ds.train_probs  # repr round-trips floats exactly

    def test_vocabulary_covers_train_stream(self, tiny_dataset):
        ds, vocab, train, *_ = tiny_dataset
        rebuilt = build_vocabulary(iter_group_records(ds.train), ds.schemas)
        assert rebuilt.content_hash() == vocab.content_hash()


def test_click_probability_clamps():
    cfg = SyntheticConfig(n_users=5, n_ads=5, base_ctr=0.5, affinity_boost=0.3,
                          context_suppression=0.3, unclicked_penalty=0.1,
                          n_train=1, n_val=0, n_test=0)
    assert click_probability(cfg, 5, 0, 0) == pytest.approx(0.995)
    assert click_probability(cfg, 0, 5, 5) == pytest.approx(0.005)


def test_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(base_ctr=0.0)
    with pytest.raises(ValueError):
        SyntheticConfig(affinity_boost=-0.1)


def test_config_file_with_an_unknown_key_is_refused_naming_file_and_key(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text('{"n_users": 5, "n_user": 6, "patience": 2}', encoding="utf-8")
    with pytest.raises(ValueError, match=r"gen\.json: unknown SyntheticConfig key\(s\) "
                                         r"\['n_user', 'patience'\]"):
        SyntheticConfig.from_json(path)
    path.write_text('[1, 2]', encoding="utf-8")
    with pytest.raises(ValueError, match=r"gen\.json: expected a JSON object"):
        SyntheticConfig.from_json(path)


def test_the_vocabulary_pass_adds_no_value_encoding_refuses(tiny_dataset):
    # The bad values add nothing, as a missing field adds nothing; the parse
    # pass then names the line.
    ds, *_ = tiny_dataset
    target, clicked = "user_id=u1;age={};" + _ad(1), "ad_id={};src=organic;title=t;x0=v"
    bad = "\t".join(["1", "12", "u1", target.format("x45"), "", clicked.format("a,b"), ""])
    dropped = "\t".join(["1", "12", "u1", target.replace("age={};", ""), "",
                         clicked.replace("ad_id={};", ""), ""])
    vocab = build_vocabulary(iter_group_records(ds.train + [bad]), ds.schemas)
    assert vocab.dumps() == \
        build_vocabulary(iter_group_records(ds.train + [dropped]), ds.schemas).dumps()
    with pytest.raises(ParseError, match="line 9: numerical field 'age': bad value 'x45'"):
        parse_log_line(bad, ds.schemas, vocab, line_number=9, cache=None)


def test_a_field_named_twice_is_refused_naming_the_line(tiny_dataset):
    ds, vocab, *_ = tiny_dataset
    line = "\t".join(["1", "12", "u1", f"user_id=u1;age=30;{_ad(1)}", "",
                      f"ad_id=a0001;{_ad(2)}", ""])
    with pytest.raises(ParseError, match="line 8: field 'ad_id' appears twice") as info:
        parse_log_line(line, ds.schemas, vocab, line_number=8, cache=None)
    assert info.value.line_number == 8
    with pytest.raises(ParseError, match="line 2: field 'ad_id' appears twice"):
        build_vocabulary(iter_group_records([ds.train[0], line]), ds.schemas)


# Random logs over a small schema and small value pools, so that values and
# whole ad texts repeat, across lines and across groups. Some values are ones
# encoding refuses: a missing univalent or numerical field, two values for
# one, an empty one, a bad number.
_FIELDS = (FieldSchema("ad_id", FieldKind.UNIVALENT),
           FieldSchema("age", FieldKind.NUMERICAL, (25.0, 35.0)),
           FieldSchema("title", FieldKind.MULTIVALENT))
_SCHEMAS = {g: GroupSchema(g, ((FieldSchema("user_id", FieldKind.UNIVALENT),) if g == "target"
                               else ()) + _FIELDS) for g in GROUPS}
_GOOD = {"user_id": ["u1", "u2"], "ad_id": ["a1", "a2", "a3"], "age": ["20", "30", "30.0", "99"],
         "title": ["ab cd", "AB  cd", "x", "", "ab,ba", "a1"]}
_REFUSED = {"user_id": ["", "u1,u2"], "ad_id": ["", "a1,a2"], "age": ["", "old"], "title": []}


@st.composite
def _ad_text(draw, fields):
    pairs = []
    for name in draw(st.permutations(fields)):
        # About one field in 30 is left out and one in 30 refused (mid-range
        # rolls: hypothesis draws the ends of a range more often).
        roll = draw(st.integers(0, 29))
        if roll == 10:
            continue
        pool = _REFUSED[name] if roll == 20 and _REFUSED[name] else _GOOD[name]
        pairs.append(f"{name}={draw(st.sampled_from(pool))}")
    return ";".join(pairs) or "title="


@st.composite
def _log(draw):
    ads = draw(st.lists(_ad_text(["ad_id", "age", "title"]), min_size=1, max_size=4))
    lines = []
    for ts in range(draw(st.integers(1, 8))):
        blocks = ["|".join(draw(st.lists(st.sampled_from(ads), max_size=3))) for _ in range(3)]
        target = draw(_ad_text(["user_id", "ad_id", "age", "title"])
                      | st.sampled_from(ads).map("user_id=u1;{}".format))
        lines.append("\t".join([draw(st.sampled_from("01")), str(ts), "u", target] + blocks))
    return lines


@settings(max_examples=200, deadline=None)
@given(lines=_log())
def test_memoized_passes_equal_the_token_by_token_reference(tmp_path_factory, lines):
    vocab = build_vocabulary(iter_group_records(lines), _SCHEMAS)
    assert vocab.dumps() == reference_vocabulary(lines, _SCHEMAS).dumps()
    path = tmp_path_factory.getbasetemp() / "memo_log.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    try:
        expected = reference_examples(lines, _SCHEMAS, vocab)
    except ParseError as exc:  # the first refused value, named by its own line
        with pytest.raises(ParseError) as info:
            read_examples(path, _SCHEMAS, vocab)
        assert str(info.value) == str(exc)
        assert info.value.line_number == exc.line_number
    else:
        assert read_examples(path, _SCHEMAS, vocab) == expected


def test_a_refused_value_raises_naming_its_line_after_good_values_were_memoized(tmp_path):
    good = "ad_id=a1;age=30;title=ab"
    lines = [f"1\t1\tu\tuser_id=u1;{good}\t{good}\t\t",
             f"0\t2\tu\tuser_id=u2;{good}\t\t{good}\t",
             f"0\t3\tu\tuser_id=u2;ad_id=a1;age=old;title=ab\t\t\t",
             f"0\t4\tu\tuser_id=u2;{good}\t\t\tad_id=a1,a2;age=30"]
    vocab = build_vocabulary(iter_group_records(lines), _SCHEMAS)
    path = tmp_path / "log.tsv"
    for bad, message in ((2, "numerical field 'age': bad value 'old'"),
                         (3, "univalent field 'ad_id' needs exactly one value")):
        path.write_text("".join(line + "\n" for line in lines[:2] + lines[bad:bad + 1]),
                        encoding="utf-8")
        with pytest.raises(ParseError, match=f"line 3: {message}"):
            read_examples(path, _SCHEMAS, vocab)


def test_the_vocabulary_pass_tokenizes_each_distinct_field_value_once(tiny_dataset, monkeypatch):
    ds, vocab, *_ = tiny_dataset
    records = list(iter_group_records(ds.train))
    distinct = {(fs, rec.get(fs.name, ())) for g, rec in records for fs in ds.schemas[g].fields}
    calls = []
    original = schema._field_tokens
    monkeypatch.setattr(schema, "_field_tokens", lambda fs, v: calls.append(1) or original(fs, v))
    assert build_vocabulary(records, ds.schemas).dumps() == vocab.dumps()
    assert len(calls) == len(distinct) < sum(len(ds.schemas[g].fields) for g, _ in records)
