"""The one text reader (``schema.read_lines``) and the input boundary: every
text reader in ``src/adctr`` reads through it, so a refusal names its file
and its line as ``<path>: line <n>: <message>``; a mutated valid file either
reads or is refused that way, never with another exception type."""

import ast
import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adctr import cli, ingest
from adctr.ingest import (ConfigError, ParseError, SyntheticConfig, generate_synthetic,
                          iter_group_records, read_config, read_examples)
from adctr.models import load_model
from adctr.schema import (InputError, SchemaError, Vocabulary, build_vocabulary, dump_schemas,
                          load_schemas, read_lines)
from adctr.serving import AdServer, ModelScorer, RankProtocolServer, load_catalog, parse_events
from adctr.session import SessionStore
from adctr.train_eval import TrainConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "adctr"


# ---------------------------------------------------------------------------
# the reader and the refusal form
# ---------------------------------------------------------------------------

def test_read_lines_numbers_lines_without_their_newlines(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes("a\tb\r\n\ncafé\rlast".encode())
    with read_lines(path, ParseError) as lines:
        assert list(lines) == [(1, "a\tb"), (2, ""), (3, "café"), (4, "last")]
    path.write_bytes(b"")
    with read_lines(path, ParseError) as lines:
        assert list(lines) == []


@pytest.mark.parametrize("error", [ParseError, SchemaError, ConfigError])
def test_read_lines_refuses_a_line_that_is_not_utf8_naming_file_and_line(tmp_path, error):
    path = tmp_path / "lines.txt"
    path.write_bytes(b"ok\nab\xffc\nnever read\n")
    seen = []
    with pytest.raises(error) as info:
        with read_lines(path, error) as lines:
            seen.extend(lines)
    assert seen == [(1, "ok")]
    assert (type(info.value), info.value.path, info.value.line_number) == (error, path, 2)
    assert str(info.value) == f"{path}: line 2: character 3 is not UTF-8 text"


def test_a_refusal_raised_while_the_file_is_open_is_given_its_path(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_text("x\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        with read_lines(path, ParseError):
            raise ParseError("bad", 7)
    assert str(info.value) == f"{path}: line 7: bad"
    with pytest.raises(SchemaError) as info:
        with read_lines(path, ParseError):
            raise SchemaError("no line")
    assert str(info.value) == f"{path}: no line"
    named = ConfigError("kept", 3)
    named.path = "other.json"
    with pytest.raises(ConfigError) as info:
        with read_lines(path, ParseError):
            raise named
    assert str(info.value) == "other.json: line 3: kept"
    with pytest.raises(KeyError):  # not a refusal: passes through untouched
        with read_lines(path, ParseError):
            raise KeyError("x")


def test_the_refusal_types_share_one_base_and_one_form():
    for cls in (ParseError, SchemaError, ConfigError):
        assert issubclass(cls, InputError) and issubclass(cls, ValueError)
    assert str(ParseError("bad label")) == "bad label"
    assert str(ParseError("bad label", 4)) == "line 4: bad label"
    refusal = SchemaError("bad kind", 2)
    assert (refusal.message, refusal.line_number, refusal.path) == ("bad kind", 2, None)


# ---------------------------------------------------------------------------
# no text read but through the reader
# ---------------------------------------------------------------------------

def _text_reads(tree: ast.AST):
    """(function, line) of every call that opens a file for text reading:
    ``open``, ``io.open``, ``codecs.open`` and ``Path.open`` with a mode
    that is not binary and does not write (or a mode that is not a
    constant), and ``read_text``. ``os.open`` takes flags, not a mode."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func, mode = node.func, None
            if isinstance(func, ast.Name) and func.id == "open":
                mode = node.args[1] if len(node.args) > 1 else ast.Constant("r")
            elif isinstance(func, ast.Attribute) and func.attr == "open":
                owner = func.value.id if isinstance(func.value, ast.Name) else None
                if owner != "os":
                    at = 1 if owner in ("io", "codecs") else 0
                    mode = node.args[at] if len(node.args) > at else ast.Constant("r")
            elif isinstance(func, ast.Attribute) and func.attr == "read_text":
                mode = ast.Constant("r")
            for kw in node.keywords:
                if mode is not None and kw.arg == "mode":
                    mode = kw.value
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and (set(mode.value) & set("bwax"))):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_no_module_opens_a_text_file_for_reading_but_through_read_lines():
    reads = {f"{path.stem}.{function}"
             for path in sorted(SRC.glob("*.py"))
             for function, _ in _text_reads(ast.parse(path.read_text(encoding="utf-8")))}
    assert reads == {"schema.read_lines"}


@pytest.mark.parametrize("code, flagged", [
    ("def f(p):\n    with open(p) as fh:\n        return fh.read()", True),
    ("def f(p):\n    return open(p, 'r', encoding='utf-8')", True),
    ("def f(p):\n    return open(p, mode='rt')", True),
    ("def f(p, m):\n    return open(p, m)", True),
    ("def f(p):\n    return p.open()", True),
    ("def f(p):\n    return io.open(p, 'r')", True),
    ("def f(p):\n    return p.read_text()", True),
    ("def f(p):\n    return open(p, 'rb')", False),
    ("def f(p):\n    return open(p, 'w', newline='\\n')", False),
    ("def f(p):\n    return open(p, mode='ab')", False),
    ("def f(p):\n    return os.open(p, os.O_RDONLY)", False),
])
def test_the_text_read_scan_sees_reads_and_passes_writers(code, flagged):
    assert bool(_text_reads(ast.parse(code))) is flagged


# ---------------------------------------------------------------------------
# mutated valid files: each reads, or is refused naming its file and line
# ---------------------------------------------------------------------------

_DS = generate_synthetic(SyntheticConfig(n_users=5, n_ads=8, n_train=12, n_val=1, n_test=1,
                                         seed=9))
_SCHEMAS = _DS.schemas
_VOCAB = build_vocabulary(iter_group_records(_DS.train), _SCHEMAS)


def _events():
    out = []
    for line in _DS.train:
        label, ts, user, target = line.split("\t")[:4]
        _, age, ad = target.split(";", 2)
        out += [f"REQ\t{ts}\t{user}\tr{ts}\t2\t{age};{ad}|{age};{ad}", f"IMP\t{ts}\t{user}\t{ad}"]
        if label == "1":
            out.append(f"CLICK\t{ts}\t{user}\t{ad}")
    return out


def _catalog():
    ads = {}
    for line in _DS.train:
        pairs = line.split("\t")[3].split(";")[1:]  # the target's fields but its user_id
        ads[pairs[1].partition("=")[2]] = ";".join(pairs)
    return [f"{ad_id}\t{text}" for ad_id, text in sorted(ads.items())]


_SNAPSHOT = [f"{cols[2]}\t{'clk' if cols[0] == '1' else 'unclk'}\t{cols[1]}\t"
             f"{cols[3].split(';', 2)[2]}" for cols in (line.split("\t") for line in _DS.train)]

_VALID = {
    "log": "".join(line + "\n" for line in _DS.train),
    "schema": dump_schemas(_SCHEMAS),
    "vocab": _VOCAB.dumps(),
    "snapshot": "".join(line + "\n" for line in _SNAPSHOT),
    "catalog": "".join(line + "\n" for line in _catalog()),
    "events": "".join(line + "\n" for line in _events()),
    "gen_config": json.dumps({"n_users": 30, "n_ads": 40, "seed": 12}, indent=1) + "\n",
    "train_config": json.dumps({"epochs": 1, "fc_dims": [16, 8], "dropout": 0.25},
                               indent=1) + "\n",
}

# Bytes a mutation inserts or writes over: the formats' separators, digits
# and letters, the OOV token and an escape, and bytes that are not UTF-8
# alone (\xff never, \xc3 without its continuation byte).
_PIECES = [b"\t", b"\n", b"\r", b"|", b";", b"=", b",", b" ", b"\\", b"0", b"7", b"a", b"-",
           b"<oov>", b"\xff", b"\xc3", b"\xc3\xa9", b"{", b"\"", b":", b"[", b"]"]
_MUTATIONS = st.lists(st.tuples(st.sampled_from(["insert", "replace", "delete", "repeat_line",
                                                 "drop_line"]),
                                st.integers(0, 1 << 16), st.sampled_from(_PIECES)),
                      min_size=1, max_size=4)


def _mutate(data: bytes, mutations) -> bytes:
    for kind, at, piece in mutations:
        at %= len(data) + 1
        if kind in ("repeat_line", "drop_line"):
            start = data.rfind(b"\n", 0, at) + 1
            end = data.find(b"\n", at)
            end = len(data) if end < 0 else end + 1
            line = data[start:end]
            data = data[:start] + (line + line if kind == "repeat_line" else b"") + data[end:]
        else:
            data = data[:at] + (piece if kind != "delete" else b"") + \
                data[at + (kind != "insert"):]
    return data


def _line_count(path) -> int:
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return sum(1 for _ in fh)


def _reads_or_names_its_line(read, refusal, path, data, whole_file=()):
    """``read(path)`` of the mutated bytes returns, or raises the format's
    ``refusal`` type naming the path and a line of the file (or, for a
    refusal in ``whole_file``, the path alone)."""
    path.write_bytes(data)
    try:
        read(path)
    except InputError as exc:
        assert type(exc) is refusal and exc.path == path, repr(exc)
        if exc.message.startswith(whole_file):
            assert exc.line_number == 0 and str(exc) == f"{path}: {exc.message}"
        else:
            assert 1 <= exc.line_number <= max(_line_count(path), 1), exc
            assert str(exc) == f"{path}: line {exc.line_number}: {exc.message}"


def _store(path):
    return SessionStore.restore(path, _SCHEMAS, _VOCAB)


_READERS = {  # each reader and the refusal type of its format
    "log": (lambda path: read_examples(path, _SCHEMAS, _VOCAB), ParseError),
    "schema": (load_schemas, SchemaError),
    "vocab": (Vocabulary.load, SchemaError),
    "snapshot": (_store, ParseError),
    "catalog": (lambda path: load_catalog(path, _SCHEMAS["target"]), ParseError),
    "events": (lambda path: parse_events(path, _SCHEMAS, _VOCAB), ParseError),
}
# A hang or a quadratic blow-up shows as an example past the deadline.
_DEADLINE_MS = 2000


@pytest.mark.parametrize("name", sorted(_READERS))
def test_each_reader_reads_its_valid_file(tmp_path, name):
    path = tmp_path / name
    path.write_text(_VALID[name], encoding="utf-8")
    _READERS[name][0](path)


@pytest.mark.parametrize("name", sorted(_READERS))
@settings(max_examples=60, deadline=_DEADLINE_MS)
@given(mutations=_MUTATIONS)
def test_a_mutated_file_reads_or_names_its_file_and_line(tmp_path_factory, name, mutations):
    path = tmp_path_factory.getbasetemp() / f"mutated_{name}"
    _reads_or_names_its_line(*_READERS[name], path, _mutate(_VALID[name].encode(), mutations))


@pytest.mark.parametrize("cls, name", [(SyntheticConfig, "gen_config"),
                                       (TrainConfig, "train_config")])
@settings(max_examples=60, deadline=_DEADLINE_MS)
@given(mutations=_MUTATIONS)
def test_a_mutated_config_reads_or_names_its_file(tmp_path_factory, cls, name, mutations):
    path = tmp_path_factory.getbasetemp() / f"mutated_{name}.json"
    _reads_or_names_its_line(lambda p: read_config(cls, p), ConfigError, path,
                             _mutate(_VALID[name].encode(), mutations),
                             whole_file=("expected a JSON object", f"unknown {cls.__name__} key"))


class _VocabularyRead(Exception):
    """Raised in place of the parse that follows ``adctr train``'s
    vocabulary pass."""


@settings(max_examples=60, deadline=_DEADLINE_MS)
@given(mutations=_MUTATIONS)
def test_the_train_vocabulary_pass_reads_or_names_its_file_and_line(tmp_path_factory,
                                                                    mutations):
    base = tmp_path_factory.getbasetemp()
    schema = base / "vocab_pass_schema.tsv"
    schema.write_text(_VALID["schema"], encoding="utf-8")
    log = base / "vocab_pass_train.tsv"
    log.write_bytes(_mutate(_VALID["log"].encode(), mutations))
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setattr(ingest, "read_examples", lambda *a: (_ for _ in ()).throw(_VocabularyRead))
        try:
            status = cli.main(["train", "--variant", "lr", "--train", str(log),
                               "--val", str(log), "--schema", str(schema),
                               "--out", str(base / "vocab_pass.ckpt")])
        except _VocabularyRead:
            return
    assert status == 2
    named = re.fullmatch(rf"adctr: {re.escape(str(log))}: line (\d+): [^\n]+\n", err.getvalue())
    assert named is not None, err.getvalue()
    assert 1 <= int(named.group(1)) <= _line_count(log)


# ---------------------------------------------------------------------------
# the RANK wire protocol: a mutated request line gets one reply naming a refusal
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def rank_server(rank_server_files):
    ckpt = rank_server_files["model.ckpt"]
    schemas = load_schemas(f"{ckpt}.schema.tsv")
    vocab = Vocabulary.load(f"{ckpt}.vocab.tsv")
    model, _ = load_model(ckpt, schemas)
    store = SessionStore.restore(rank_server_files["snapshot.tsv"], schemas, vocab)
    catalog = load_catalog(rank_server_files["catalog.tsv"], schemas["target"])
    server = RankProtocolServer(AdServer(ModelScorer(model), store), catalog, schemas["target"],
                                vocab)
    lines = rank_server_files["requests.tsv"].read_bytes().splitlines()
    yield server, lines
    server.stop()


# What the server says when it refuses a line: a malformed or oversized
# request, an unknown ad, a number that is not ASCII digits, no slots, and
# the encoding refusals of the request's user_id.
_REFUSALS = re.compile(r"ERR (malformed request|too many candidates: \d+ > \d+|unknown ad .*"
                       r"|bad (now|slots) .*|slots must be >= 1|univalent field 'user_id' "
                       r"needs exactly one value)", re.DOTALL)


@settings(max_examples=150, deadline=_DEADLINE_MS)
@given(pick=st.integers(0, 19), mutations=_MUTATIONS)
def test_a_mutated_rank_line_gets_one_reply_ok_or_a_named_refusal(rank_server, pick, mutations):
    server, lines = rank_server
    raw = _mutate(lines[pick % len(lines)], mutations)
    # As the connection handler reads it: one line of the stream, decoded with
    # "replace" and without its line ending.
    line = raw.split(b"\n", 1)[0].decode("utf-8", "replace").rstrip("\r\n")
    reply = server.handle_line(line)
    assert "\n" not in reply, reply
    if reply.startswith("OK "):
        named = set(line.split(" ")[4].split(","))
        for entry in reply[3:].split(" "):
            ad_id, pctr, rnd = entry.rsplit(":", 2)
            assert ad_id in named and 0.0 <= float(pctr) <= 1.0 and rnd in ("1", "2"), reply
    else:
        assert _REFUSALS.fullmatch(reply), reply
