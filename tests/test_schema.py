import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adctr.numerics import make_rng
from adctr.schema import (EncodedInstance, EncodeError, FieldKind, FieldSchema, GroupSchema,
                          SchemaError, Vocabulary, bigrams, bucketize, build_vocabulary, dump_schemas,
                          encode_instance, load_schemas, parse_schemas, save_schemas,
                          schemas_hash)
from oracles import oov

AD_FIELDS = (FieldSchema("ad_id", FieldKind.UNIVALENT),
             FieldSchema("title", FieldKind.MULTIVALENT))
SCHEMAS = {
    "target": GroupSchema("target", (FieldSchema("user_id", FieldKind.UNIVALENT),
                                     FieldSchema("age", FieldKind.NUMERICAL, (18.0, 30.0, 45.0)))
                          + AD_FIELDS),
    "clicked": GroupSchema("clicked", AD_FIELDS),
}


def test_field_schema_validation():
    with pytest.raises(SchemaError):
        FieldSchema("age", FieldKind.NUMERICAL, ())  # numerical needs boundaries
    with pytest.raises(SchemaError):
        FieldSchema("age", FieldKind.NUMERICAL, (30.0, 18.0))  # not increasing
    with pytest.raises(SchemaError):
        FieldSchema("age", FieldKind.NUMERICAL, (18.0, 18.0))  # not strict
    with pytest.raises(SchemaError):
        FieldSchema("uid", FieldKind.UNIVALENT, (1.0,))  # boundaries only for numerical
    with pytest.raises(SchemaError):
        GroupSchema("target", (FieldSchema("a", FieldKind.UNIVALENT),
                               FieldSchema("a", FieldKind.UNIVALENT)))
    with pytest.raises(SchemaError):
        GroupSchema("other", AD_FIELDS)


class TestBigrams:
    def test_paper_example(self):
        assert bigrams("ABCD") == ["ab", "bc", "cd"]

    def test_whitespace_normalized(self):
        assert bigrams("  Nike   shoes ") == bigrams("nike shoes")

    def test_short_strings(self):
        assert bigrams("a") == []
        assert bigrams("") == []


class TestBucketize:
    @pytest.mark.parametrize("value,expected", [
        (24, 1),   # [18, 30)
        (10, 0),   # below first boundary
        (18, 1),   # boundary belongs to the bucket it opens
        (30, 2),
        (45, 3),   # at last boundary -> final bucket
        (99, 3),   # above last -> final bucket
    ])
    def test_buckets(self, value, expected):
        assert bucketize(value, (18.0, 30.0, 45.0)) == expected


class TestVocabulary:
    def test_empty_stream_has_only_oov(self):
        vocab = build_vocabulary([], SCHEMAS)
        distinct_fields = {f.name for g in SCHEMAS.values() for f in g.fields}
        assert vocab.size == len(distinct_fields)

    def test_same_value_same_index(self):
        records = [("target", {"user_id": ("2135147",), "age": ("24",),
                               "ad_id": ("a1",), "title": ("flowers",)}),
                   ("target", {"user_id": ("2135147",), "age": ("31",),
                               "ad_id": ("a2",), "title": ("shoes",)})]
        vocab = build_vocabulary(records, SCHEMAS)
        assert vocab.lookup("user_id", "2135147") == vocab.lookup("user_id", "2135147")

    def test_distinct_bigrams_distinct_indices(self):
        records = [("clicked", {"ad_id": ("a1",), "title": ("ABCD",)})]
        vocab = build_vocabulary(records, SCHEMAS)
        ids = {vocab.lookup("title", t) for t in ("ab", "bc", "cd")}
        assert len(ids) == 3
        assert all(i != oov(vocab, "title") for i in ids)

    def test_a_repeated_record_object_is_skipped_and_a_fresh_equal_one_is_not(self):
        ads = [("a1", "ab"), ("a2", "cd"), ("a1", "ab"), ("a3", "ef"), ("a2", "cd")]
        target = {"user_id": ("u1",), "age": ("24",), "ad_id": ("a2",), "title": ("cd",)}

        def stream(record):  # ``record(ad, title)`` gives each auxiliary record
            for i, (ad, title) in enumerate(ads * 3):
                yield "clicked", record(ad, title)
                if i % 4 == 0:
                    yield "target", dict(target)

        def fresh(ad, title):  # a new dict, dropped once the next record is read
            return {"ad_id": (ad,), "title": (title,)}

        # every record alive at once: no two share an id, so none is skipped
        want = build_vocabulary(list(stream(fresh)), SCHEMAS)
        assert want.target_counts[want.lookup("ad_id", "a2")] == 4
        assert build_vocabulary(stream(fresh), SCHEMAS).dumps() == want.dumps()
        cache = {}  # one object per distinct ad, as the parse cache yields them
        cached = stream(lambda ad, title: cache.setdefault(ad, fresh(ad, title)))
        assert build_vocabulary(cached, SCHEMAS).dumps() == want.dumps()

    def test_counts_of_a_built_vocabulary_cannot_be_written(self):
        vocab = build_vocabulary([("clicked", {"ad_id": ("a1",), "title": ("ab",)})], SCHEMAS)
        with pytest.raises(TypeError):
            vocab.target_counts[oov(vocab, "title")] += 1

    def test_save_load_round_trip(self, tmp_path):
        records = [("clicked", {"ad_id": ("a1",), "title": ("ABCD",)}),
                   ("target", {"user_id": ("u9",), "age": ("24",),
                               "ad_id": ("a1",), "title": ("xy",)})]
        vocab = build_vocabulary(records, SCHEMAS)
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.size == vocab.size
        assert loaded.lookup("title", "ab") == vocab.lookup("title", "ab")
        assert oov(loaded, "age") == oov(vocab, "age")
        assert loaded.target_counts == vocab.target_counts
        assert loaded.content_hash() == vocab.content_hash()

    @pytest.mark.parametrize("bad", ["title\tab\t3", "title\tab\tx\t0", "title\tab\t3\t-1"])
    def test_load_names_the_bad_line(self, tmp_path, bad):
        path = tmp_path / "vocab.tsv"
        path.write_text(f"title\t<oov>\t0\t0\n{bad}\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="line 2: expected field, value, index and count"):
            Vocabulary.load(path)

    @pytest.mark.parametrize("rows, message", [
        (["title\t<oov>\t0\t0", "title\tab\t1\t2", "title\tbc\t1\t0"],
         "line 3: index 1 repeats an earlier line's index"),
        (["title\t<oov>\t0\t0", "title\tab\t1\t2", "title\tab\t2\t0"],
         "line 3: repeated value 'ab' of field 'title'"),
        (["title\t<oov>\t0\t0", "title\t<oov>\t1\t0"],
         "line 2: repeated value '<oov>' of field 'title'"),
        (["title\t<oov>\t0\t0", "title\tab\t5\t2"], "line 2: index 5 skips index 1"),
        (["title\tab\t1\t2", "title\t<oov>\t0\t0"], "line 1: index 1 skips index 0"),
        (["title\t<oov>\t0\t0", "title\tab\t\u0661\t\u0662"],
         "line 2: expected field, value, index and count"),
        (["title\t<oov>\t0\t0", "title\tab\t1\t\u0662"],
         "line 2: expected field, value, index and count"),
    ])
    def test_load_refuses_a_file_dumps_cannot_write(self, tmp_path, rows, message):
        path = tmp_path / "vocab.tsv"
        path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
        with pytest.raises(SchemaError, match=message):
            Vocabulary.load(path)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(
        st.sampled_from(["<oov>", "\\<oov>", "\\", "\\\\x", "\\x", "<oov", "é<oov>"]),
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
                min_size=1, max_size=6)), max_size=8))
    def test_any_value_survives_save_and_load(self, tmp_path_factory, values):
        records = [("target", {"user_id": (v,), "age": ("24",), "ad_id": (v[::-1],),
                               "title": (v,)}) for v in values]
        vocab = build_vocabulary(records, SCHEMAS)
        path = tmp_path_factory.mktemp("vocab") / "vocab.tsv"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.dumps() == vocab.dumps()
        assert loaded.content_hash() == vocab.content_hash()
        assert loaded.target_counts == vocab.target_counts
        for v in values:
            for name, value in (("user_id", v), ("ad_id", v[::-1])):
                assert loaded.lookup(name, value) == vocab.lookup(name, value)
                assert vocab.lookup(name, value) != oov(vocab, name)
            for token in bigrams(v):
                assert loaded.lookup("title", token) == vocab.lookup("title", token)

    def test_counts_occurrences_on_target_ads_only(self):
        records = [("target", {"user_id": ("u1",), "age": ("24",), "ad_id": ("a1",),
                               "title": ("abab",)}),
                   ("target", {"user_id": ("u2",), "age": ("31",), "ad_id": ("a1",),
                               "title": ("xy",)}),
                   ("clicked", {"ad_id": ("a1",), "title": ("xy",)}),
                   ("clicked", {"ad_id": ("a9",), "title": ("xy",)})]
        vocab = build_vocabulary(records, SCHEMAS)
        counts = vocab.target_counts
        assert len(counts) == vocab.size
        assert counts[vocab.lookup("ad_id", "a1")] == 2
        assert counts[vocab.lookup("user_id", "u1")] == 1
        assert counts[vocab.lookup("title", "ab")] == 2  # twice in one bag
        assert counts[vocab.lookup("title", "xy")] == 1
        assert counts[vocab.lookup("ad_id", "a9")] == 0  # auxiliary only
        assert counts[oov(vocab, "ad_id")] == 0


class TestEncodeInstance:
    @pytest.fixture()
    def vocab(self):
        records = [("target", {"user_id": ("2135147",), "age": ("24",),
                               "ad_id": ("a1",), "title": ("ABCD",)})]
        return build_vocabulary(records, SCHEMAS)

    def test_title_bigram_bag(self, vocab):
        inst = encode_instance({"user_id": ("2135147",), "age": ("24",),
                                "ad_id": ("a1",), "title": ("ABCD",)},
                               SCHEMAS["target"], vocab)
        title_idx = inst.indices[3]
        assert len(title_idx) == 3
        assert set(title_idx) == {vocab.lookup("title", t) for t in ("ab", "bc", "cd")}

    def test_bucket_index(self, vocab):
        inst = encode_instance({"user_id": ("2135147",), "age": ("24",),
                                "ad_id": ("a1",), "title": ("ABCD",)},
                               SCHEMAS["target"], vocab)
        assert inst.indices[1] == (vocab.lookup("age", "1"),)

    def test_unseen_value_maps_to_oov(self, vocab):
        inst = encode_instance({"user_id": ("never-seen",), "age": ("24",),
                                "ad_id": ("a1",), "title": ("ABCD",)},
                               SCHEMAS["target"], vocab)
        assert inst.indices[0] == (oov(vocab, "user_id"),)

    def test_missing_univalent_field_names_it(self, vocab):
        with pytest.raises(EncodeError, match="user_id"):
            encode_instance({"age": ("24",), "ad_id": ("a1",), "title": ("ABCD",)},
                            SCHEMAS["target"], vocab)

    def test_empty_multivalent_is_legal(self, vocab):
        inst = encode_instance({"ad_id": ("a1",), "title": ()}, SCHEMAS["clicked"], vocab)
        assert inst.indices[1] == ()

    def test_deterministic(self, vocab):
        record = {"user_id": ("2135147",), "age": ("24",), "ad_id": ("a1",), "title": ("ABCD",)}
        a = encode_instance(record, SCHEMAS["target"], vocab)
        b = encode_instance(record, SCHEMAS["target"], vocab)
        assert a == b

    def test_all_indices_below_vocab_size(self, vocab):
        rng = make_rng(3)
        for _ in range(50):
            record = {"user_id": (f"u{rng.integers(0, 5)}",),
                      "age": (str(rng.integers(0, 90)),),
                      "ad_id": (f"a{rng.integers(0, 4)}",),
                      "title": ("".join("abcd"[i] for i in rng.integers(0, 4, size=6)),)}
            inst = encode_instance(record, SCHEMAS["target"], vocab)
            assert all(i < vocab.size for idx in inst.indices for i in idx)

    def test_a_memo_shares_each_value_across_records(self, vocab):
        memo: dict = {}
        first = {"user_id": ("u1",), "age": ("24",), "ad_id": ("a1",), "title": ("ABCD",)}
        a = encode_instance(first, SCHEMAS["target"], vocab, memo)
        # Equal values in new tuples, as each parsed line splits its own.
        b = encode_instance({"user_id": ("u2",), "age": ("24",), "ad_id": ("a1",),
                             "title": ("ABCD",)}, SCHEMAS["target"], vocab, memo)
        clicked = encode_instance({"ad_id": ("a1",), "title": ("ABCD",)}, SCHEMAS["clicked"],
                                  vocab, memo)
        assert a.raw[0] is not b.raw[0]
        for i in (1, 2, 3):
            assert a.raw[i] is b.raw[i] and a.raw[i][1] is first[a.raw[i][0]]
        # A field two groups declare alike is one memo key.
        assert clicked.raw == a.raw[2:] and all(x is y for x, y in zip(clicked.raw, a.raw[2:]))
        assert b == encode_instance(dict(b.raw), SCHEMAS["target"], vocab)  # no memo

    def test_same_bucket_same_encoding(self):
        # All buckets must be in-vocabulary, otherwise distinct unseen buckets
        # would collapse onto the shared OOV index.
        records = [("target", {"user_id": ("u",), "age": (str(v),),
                               "ad_id": ("a1",), "title": ("ABCD",)})
                   for v in (10, 24, 35, 50)]
        vocab = build_vocabulary(records, SCHEMAS)
        rng = make_rng(4)
        boundaries = (18.0, 30.0, 45.0)
        base = {"user_id": ("2135147",), "ad_id": ("a1",), "title": ("ABCD",)}
        for _ in range(100):
            x, y = (float(v) for v in rng.uniform(0, 60, size=2))
            ex = encode_instance({**base, "age": (repr(x),)}, SCHEMAS["target"], vocab)
            ey = encode_instance({**base, "age": (repr(y),)}, SCHEMAS["target"], vocab)
            same_bucket = bucketize(x, boundaries) == bucketize(y, boundaries)
            assert (ex.indices[1] == ey.indices[1]) == same_bucket


class TestEncodedInstanceObject:
    def _pair(self):
        record = {"ad_id": ("a1",), "title": ("ABCD",)}
        vocab = build_vocabulary([("clicked", record)], SCHEMAS)
        # Two equal instances that share no tuple.
        return (encode_instance(record, SCHEMAS["clicked"], vocab),
                encode_instance({k: tuple(list(v)) for k, v in record.items()},
                                SCHEMAS["clicked"], vocab))

    def test_equal_instances_hash_equal(self):
        a, b = self._pair()
        assert a == b and a is not b and hash(a) == hash(b)
        assert hash(a) == hash((a.group, a.indices, a.raw))
        assert hash(dataclasses.replace(a, group="unclicked")) != hash(a)

    def test_the_hash_is_computed_once(self):
        calls = []

        class Counted(str):
            def __hash__(self):
                calls.append(self)
                return str.__hash__(self)

        inst = EncodedInstance("clicked", ((1,),), (("ad_id", (Counted("a1"),)),))
        first = hash(inst)
        assert len(calls) == 1
        assert hash(inst) == first and {inst: 1}[inst] == 1
        assert len(calls) == 1

    def test_slotted_and_still_copied_and_replaced(self):
        a, _ = self._pair()
        assert not hasattr(a, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.group = "target"
        hash(a)
        for dup in (copy.copy(a), copy.deepcopy(a), dataclasses.replace(a)):
            assert dup == a and hash(dup) == hash(a)
        moved = dataclasses.replace(a, group="unclicked")
        assert (moved.group, moved.indices, moved.raw) == ("unclicked", a.indices, a.raw)


def test_schema_file_round_trip(tmp_path):
    path = tmp_path / "schema.tsv"
    save_schemas(SCHEMAS, path)
    loaded = load_schemas(path)
    assert loaded == SCHEMAS
    assert schemas_hash(loaded) == schemas_hash(SCHEMAS)


@pytest.mark.parametrize("text, message", [
    ("target\tuser_id\tunivalent\ntarget\tage\tbogus", "line 2: 'bogus' is not a valid"),
    ("target\tage\tnumerical\t1,x", "line 1: could not convert string to float: 'x'"),
    ("target\tuser_id\tunivalent\n\ntarget\tage\tnumerical\t3,2",
     "line 3: boundaries of 'age' must be strictly increasing"),
    ("target\tage\tnumerical", "line 1: numerical field 'age' needs bucket boundaries"),
    ("target\tuser_id\tunivalent\t1", "line 1: non-numerical field 'user_id' must not"),
    ("target\tuser_id\tunivalent\nbanner\tad_id\tunivalent", "line 2: unknown ad group"),
    ("clicked\tad_id\tunivalent\ntarget\tad_id\tunivalent\nclicked\tad_id\tmultivalent",
     "line 3: field 'ad_id' repeats in group 'clicked'"),
    ("target\tuser_id\n", "line 1: expected 3 or 4 columns"),
], ids=["kind", "boundary-number", "boundary-order", "no-boundaries", "stray-boundaries",
        "group", "repeated-field", "columns"])
def test_parse_schemas_rejects_bad_lines(text, message):
    with pytest.raises(SchemaError, match=f"^schema {message}"):
        parse_schemas(text)


def test_dump_schemas_orders_groups_canonically():
    text = dump_schemas(SCHEMAS)
    assert text.index("target\t") < text.index("clicked\t")
