"""Field schemas per ad group, the feature vocabulary, and record encoding.

An ad record is a mapping from field name to a tuple of raw string values.
Encoding turns it into per-field lists of integer feature indices:

* univalent fields keep their single value as one index,
* multivalent fields are lowercased, whitespace-normalized, split into
  character bi-grams, and each bi-gram becomes one index (a bag),
* numerical fields are bucketized against the schema's boundaries and the
  bucket id becomes the index.

Values never seen while the vocabulary was built map to the field's reserved
out-of-vocabulary index.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

GROUPS = ("target", "contextual", "clicked", "unclicked")
AUX_GROUPS = ("contextual", "clicked", "unclicked")

RawRecord = Mapping[str, Sequence[str]]


class FieldKind(str, Enum):
    UNIVALENT = "univalent"
    MULTIVALENT = "multivalent"
    NUMERICAL = "numerical"


class InputError(ValueError):
    """A refused input, read as ``<path>: line <n>: <message>`` with the
    parts that are known; ``read_lines`` fills in the path."""

    def __init__(self, message: str, line_number: int = 0):
        super().__init__(message)
        self.message, self.line_number, self.path = message, line_number, None

    def __str__(self) -> str:
        return "".join((f"{self.path}: " if self.path is not None else "",
                        f"line {self.line_number}: " if self.line_number else "", self.message))


class SchemaError(InputError):
    pass


class EncodeError(ValueError):
    pass


@dataclass(frozen=True)
class FieldSchema:
    """One field of an ad group. Equal schemas have equal names, so the hash
    is the name's (which a ``str`` keeps once computed): hashing one builds
    no tuple and hashes no ``FieldKind``."""

    name: str
    kind: FieldKind
    boundaries: tuple[float, ...] = ()

    def __hash__(self) -> int:
        return hash(self.name)

    def __post_init__(self):
        if self.kind == FieldKind.NUMERICAL:
            if not self.boundaries:
                raise SchemaError(f"numerical field {self.name!r} needs bucket boundaries")
            if any(nxt <= prev for prev, nxt in zip(self.boundaries, self.boundaries[1:])):
                raise SchemaError(f"boundaries of {self.name!r} must be strictly increasing")
        elif self.boundaries:
            raise SchemaError(f"non-numerical field {self.name!r} must not have boundaries")


@dataclass(frozen=True)
class GroupSchema:
    """An ad group's fields in order. ``field_names`` and the by-name map
    that ``field`` reads are computed once, when the schema is made (copies
    made through ``__init__`` compute their own; pickles and copies carry
    them along)."""

    group: str
    fields: tuple[FieldSchema, ...]

    def __post_init__(self):
        if self.group not in GROUPS:
            raise SchemaError(f"unknown ad group {self.group!r}")
        by_name = {f.name: f for f in self.fields}
        if len(by_name) != len(self.fields):
            raise SchemaError(f"duplicate field names in group {self.group!r}")
        object.__setattr__(self, "field_names", tuple(by_name))
        object.__setattr__(self, "_by_name", by_name)

    def field(self, name: str) -> FieldSchema | None:
        """The group's field of that name, or None."""
        return self._by_name.get(name)


def normalize_text(text: str) -> str:
    """Lowercase and collapse runs of whitespace to single spaces."""
    return " ".join(text.lower().split())


def bigrams(text: str) -> list[str]:
    """Character bi-grams of the normalized text ('ABCD' -> ab, bc, cd)."""
    norm = normalize_text(text)
    return [norm[i : i + 2] for i in range(len(norm) - 1)]


def bucketize(value: float, boundaries: Sequence[float]) -> int:
    """Bucket id for a numerical value: 0 below the first boundary, then one
    bucket per half-open interval, values at/above the last boundary go to the
    final bucket."""
    return bisect_right(boundaries, value)


class Vocabulary:
    """Dense (field, value) -> index map with one reserved OOV index per field.

    A vocabulary is a value: ``build_vocabulary`` builds one from a record
    stream and ``Vocabulary.load`` reads one from a file, and it never changes
    after that, so it is safe to share across threads.

    It also counts, per index, the occurrences on target ads in the stream it
    was built from: one target ad per impression. Auxiliary ads are earlier
    impressions of the same user or neighbours on the same page, so they are
    not counted again. OOV indices count 0. Training scales its embedding
    penalty by these counts.
    """

    def __init__(self, oov: dict[str, int], index: dict[tuple[str, str], int],
                 counts: list[int]):
        self._oov = oov
        self._index = index
        self._counts = tuple(counts)  # target-ad occurrences per index

    @property
    def size(self) -> int:
        """Total number of distinct feature indices (the embedding row count)."""
        return len(self._counts)

    @property
    def target_counts(self) -> tuple[int, ...]:
        """Occurrences of each index on target ads of the build stream, by index."""
        return self._counts

    def lookup(self, field_name: str, value: str) -> int:
        """Index of (field, value); the field's OOV index if unseen."""
        idx = self._index.get((field_name, value))
        if idx is not None:
            return idx
        try:
            return self._oov[field_name]
        except KeyError:
            raise EncodeError(f"field {field_name!r} is not in the vocabulary") from None

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.dumps())

    def dumps(self) -> str:
        """One ``field, value, index, target count`` line per index, in index
        order. An OOV index reads ``<oov>``; a value that reads ``<oov>`` or
        starts with a backslash is written with one more leading backslash."""
        rows = [(i, f, "<oov>") for f, i in self._oov.items()]
        rows += [(i, f, "\\" + v if v == "<oov>" or v[:1] == "\\" else v)
                 for (f, v), i in self._index.items()]
        rows.sort()
        return "".join(f"{f}\t{v}\t{i}\t{self._counts[i]}\n" for i, f, v in rows)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read a file ``dumps`` wrote: line n holds index n - 1, and no
        (field, value) has two lines. Any other file is a ``SchemaError``
        naming the file and the line."""
        oov: dict[str, int] = {}
        index: dict[tuple[str, str], int] = {}
        counts: list[int] = []
        with read_lines(path, SchemaError) as lines:
            for lineno, text in lines:
                cols = text.split("\t")
                if len(cols) != 4 or not all(c.isascii() and c.isdigit() for c in cols[2:]):
                    raise SchemaError("expected field, value, index and count columns, "
                                      f"got {text!r}", lineno)
                field_name, value, idx, count = cols
                try:
                    idx, count = int(idx), int(count)
                except ValueError:  # over sys.get_int_max_str_digits()
                    raise SchemaError("a number has too many digits to read", lineno) from None
                if idx != len(counts):
                    problem = ("repeats an earlier line's index" if idx < len(counts)
                               else f"skips index {len(counts)}")
                    raise SchemaError(f"index {idx} {problem}", lineno)
                table, key = ((oov, field_name) if value == "<oov>"
                              else (index, (field_name, value[1:] if value[:1] == "\\"
                                            else value)))
                if key in table:
                    raise SchemaError(f"repeated value {value!r} of field {field_name!r}", lineno)
                table[key] = idx
                counts.append(count)
        return cls(oov, index, counts)

    def content_hash(self) -> str:
        return _digest(self.dumps())


@dataclass(frozen=True, eq=True)
class EncodedInstance:
    """One ad's features as per-field index lists, plus the raw values they
    came from (kept so instances can be re-serialized and deduplicated).

    Slotted, with no per-object ``__dict__``; the hash is computed on first
    use and kept, since serving hashes each history ad per request."""

    __slots__ = ("group", "indices", "raw", "_hash")

    group: str
    indices: tuple[tuple[int, ...], ...]
    raw: tuple[tuple[str, tuple[str, ...]], ...]

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.group, self.indices, self.raw))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        # A frozen instance cannot take its slots back through setattr, so
        # copies and pickles are built through __init__.
        return EncodedInstance, (self.group, self.indices, self.raw)

    def identity(self) -> tuple:
        """Group-independent ad identity, used for click/impression matching."""
        return self.raw

    def raw_dict(self) -> dict[str, tuple[str, ...]]:
        return dict(self.raw)


def _field_tokens(fs: FieldSchema, values: Sequence[str]) -> list[str]:
    """Vocabulary keys contributed by one field of a raw record; a univalent
    or numerical field needs exactly one value."""
    if fs.kind != FieldKind.MULTIVALENT and (len(values) != 1 or values[0] == ""):
        if not values:
            raise EncodeError(f"missing required {fs.kind.value} field {fs.name!r}")
        raise EncodeError(f"{fs.kind.value} field {fs.name!r} needs exactly one value")
    if fs.kind == FieldKind.UNIVALENT:
        return [values[0]]
    if fs.kind == FieldKind.NUMERICAL:
        try:
            x = float(values[0])
        except ValueError:
            raise EncodeError(f"numerical field {fs.name!r}: bad value {values[0]!r}") from None
        return [str(bucketize(x, fs.boundaries))]
    tokens: list[str] = []
    for v in values:
        tokens.extend(bigrams(v))
    return tokens


def build_vocabulary(records: Iterable[tuple[str, RawRecord]],
                     schemas: Mapping[str, GroupSchema]) -> Vocabulary:
    """Build a vocabulary from a stream of (group, record) pairs.

    Indices are handed out in order of first appearance: first one OOV index
    per field of every group, in group and field order, even if no record
    mentions the field; then each new (field, token) pair in stream order.
    Only target records add to the per-index counts. A field value that
    ``encode_instance`` would refuse (missing, several values for a univalent
    field, a bad number) adds nothing: the parse pass names its line.

    Each distinct value of a field is tokenized once per call; a repeat only
    adds its target count. The memo is one table per field schema, keyed by
    the field's values and picked once per group, so no lookup hashes a
    ``FieldSchema``.
    """
    oov: dict[str, int] = {}
    for group in GROUPS:
        if group in schemas:
            for fs in schemas[group].fields:
                oov.setdefault(fs.name, len(oov))
    index: dict[tuple[str, str], int] = {}
    counts = [0] * len(oov)
    memos: dict[FieldSchema, dict[tuple[str, ...], tuple[int, ...]]] = {}
    tables = {group: [(fs, memos.setdefault(fs, {})) for fs in gs.fields]
              for group, gs in schemas.items()}
    for group, record in records:
        target = group == "target"
        for fs, memo in tables[group]:
            values = tuple(record.get(fs.name, ()))
            indices = memo.get(values)
            if indices is None:
                try:
                    tokens = _field_tokens(fs, values)
                except EncodeError:
                    continue
                for t in tokens:
                    if (fs.name, t) not in index:
                        index[fs.name, t] = len(counts)
                        counts.append(0)
                indices = memo[values] = tuple(index[fs.name, t] for t in tokens)
            if target:
                for i in indices:
                    counts[i] += 1
    return Vocabulary(oov, index, counts)


def encode_field(fs: FieldSchema, values: Sequence[str], vocab: Vocabulary) -> tuple[int, ...]:
    """One field's index bag, refused as ``encode_instance`` refuses it."""
    return tuple(vocab.lookup(fs.name, t) for t in _field_tokens(fs, values))


def encode_instance(record: RawRecord, group_schema: GroupSchema,
                    vocab: Vocabulary) -> EncodedInstance:
    """Encode a raw record against a vocabulary, field by field in schema
    order.

    Unseen values map to the field's OOV index; a univalent or numerical
    field without exactly one value is an error naming the field. A record
    that is not parsed from a log (a catalog ad, a test's record) is
    encoded here; a parsed ad is encoded by ``ingest.parse_ad``, which
    encodes each distinct ``field=value`` text of a file once.
    """
    per_field: list[tuple[int, ...]] = []
    raw: list[tuple[str, tuple[str, ...]]] = []
    for fs in group_schema.fields:
        values = tuple(record.get(fs.name, ()))
        per_field.append(encode_field(fs, values, vocab))
        raw.append((fs.name, values))
    return EncodedInstance(group=group_schema.group, indices=tuple(per_field), raw=tuple(raw))


# ---------------------------------------------------------------------------
# Schema file I/O: one field per line,
#   <group>\t<field_name>\t<kind>[\t<comma-separated boundaries>]
# ---------------------------------------------------------------------------

def dump_schemas(schemas: Mapping[str, GroupSchema]) -> str:
    lines = []
    for group in GROUPS:
        if group not in schemas:
            continue
        for fs in schemas[group].fields:
            cols = [group, fs.name, fs.kind.value]
            if fs.kind == FieldKind.NUMERICAL:
                cols.append(",".join(repr(b) for b in fs.boundaries))
            lines.append("\t".join(cols) + "\n")
    return "".join(lines)


def save_schemas(schemas: Mapping[str, GroupSchema], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_schemas(schemas))


def load_schemas(path) -> dict[str, GroupSchema]:
    """Read the schema file format, skipping blank lines; every refusal is a
    ``SchemaError`` naming the file and the line."""
    fields: dict[str, list[FieldSchema]] = {}
    # A field several groups declare alike is one object, so a parse memo's
    # entry, which holds the field schema it was encoded under, serves each
    # of those groups.
    shared: dict[FieldSchema, FieldSchema] = {}
    with read_lines(path, SchemaError) as lines:
        for lineno, line in lines:
            if not line.strip():
                continue
            cols = line.split("\t")
            try:
                if len(cols) not in (3, 4):
                    raise SchemaError("expected 3 or 4 columns")
                group, name, kind = cols[:3]
                if group not in GROUPS:
                    raise SchemaError(f"unknown ad group {group!r}")
                if name in (f.name for f in fields.get(group, ())):
                    raise SchemaError(f"field {name!r} repeats in group {group!r}")
                # FieldKind and float refuse a bad kind or boundary with a ValueError
                boundaries = tuple(float(b) for b in cols[3].split(",")) if len(cols) == 4 else ()
                fs = FieldSchema(name, FieldKind(kind), boundaries)
            except ValueError as exc:
                raise SchemaError(str(exc), lineno) from None
            fields.setdefault(group, []).append(shared.setdefault(fs, fs))
    return {g: GroupSchema(g, tuple(fs)) for g, fs in fields.items()}


def schemas_hash(schemas: Mapping[str, GroupSchema]) -> str:
    return _digest(dump_schemas(schemas))


@contextmanager
def read_lines(path, error: type[InputError]):
    """A text file's ``(line number, text)`` pairs, newlines stripped, read as
    UTF-8 with universal newlines. A line that is not UTF-8 is an ``error`` (the
    format's refusal type); an ``InputError`` raised in the block gets the path."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        try:
            yield ((n, check_utf8(line.rstrip("\n"), n, error)) for n, line in enumerate(fh, 1))
        except InputError as exc:
            exc.path = exc.path or path
            raise


def check_utf8(text: str, line_number: int, error: type[InputError]) -> str:
    """``text``, or, if it was read with ``errors="surrogateescape"`` and
    held a byte that is not UTF-8, an ``error`` naming the line."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise error(f"character {exc.start + 1} is not UTF-8 text", line_number) from None
    return text


def _digest(text: str) -> str:
    """The first 16 hex digits of the sha256 of ``text``'s UTF-8 bytes."""
    import hashlib  # here, not at the top: it loads OpenSSL, which a RANK server never needs

    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
