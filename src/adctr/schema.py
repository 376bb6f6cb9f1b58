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

import hashlib
from bisect import bisect_right
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


class SchemaError(ValueError):
    pass


class EncodeError(ValueError):
    pass


@dataclass(frozen=True)
class FieldSchema:
    name: str
    kind: FieldKind
    boundaries: tuple[float, ...] = ()

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
    group: str
    fields: tuple[FieldSchema, ...]

    def __post_init__(self):
        if self.group not in GROUPS:
            raise SchemaError(f"unknown ad group {self.group!r}")
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in group {self.group!r}")

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)


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
        naming the line."""
        oov: dict[str, int] = {}
        index: dict[tuple[str, str], int] = {}
        counts: list[int] = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.rstrip("\n")
                cols = text.split("\t")
                if len(cols) != 4 or not all(c.isascii() and c.isdigit() for c in cols[2:]):
                    raise SchemaError(f"{path}: line {lineno}: expected field, value, index "
                                      f"and count columns, got {text!r}")
                field_name, value, idx, count = cols
                idx = int(idx)
                if idx != len(counts):
                    problem = ("repeats an earlier line's index" if idx < len(counts)
                               else f"skips index {len(counts)}")
                    raise SchemaError(f"{path}: line {lineno}: index {idx} {problem}")
                table, key = ((oov, field_name) if value == "<oov>"
                              else (index, (field_name, value[1:] if value[:1] == "\\"
                                            else value)))
                if key in table:
                    raise SchemaError(f"{path}: line {lineno}: repeated value {value!r} "
                                      f"of field {field_name!r}")
                table[key] = idx
                counts.append(int(count))
        return cls(oov, index, counts)

    def content_hash(self) -> str:
        return hashlib.sha256(self.dumps().encode("utf-8")).hexdigest()[:16]


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

    Each distinct (field, values) pair is tokenized once per call; a repeat
    only adds its target count. An auxiliary record object already seen in
    its group (a parse cache yields one object per distinct ad) is skipped
    whole: it adds no count and no index. The skip is keyed by identity,
    and each seen record is held until the call returns, so a freed
    record's ``id`` cannot be taken for a new one's.
    """
    oov: dict[str, int] = {}
    for group in GROUPS:
        if group in schemas:
            for fs in schemas[group].fields:
                oov.setdefault(fs.name, len(oov))
    index: dict[tuple[str, str], int] = {}
    counts = [0] * len(oov)
    memo: dict[tuple[FieldSchema, tuple[str, ...]], tuple[int, ...]] = {}
    seen: dict[tuple[str, int], RawRecord] = {}  # (aux group, id) -> the record, held
    for group, record in records:
        schema = schemas[group]
        target = group == "target"
        if not target:
            if (group, id(record)) in seen:
                continue
            seen[group, id(record)] = record
        for fs in schema.fields:
            key = (fs, tuple(record.get(fs.name, ())))
            indices = memo.get(key)
            if indices is None:
                try:
                    tokens = _field_tokens(fs, key[1])
                except EncodeError:
                    continue
                for t in tokens:
                    if (fs.name, t) not in index:
                        index[fs.name, t] = len(counts)
                        counts.append(0)
                indices = memo[key] = tuple(index[fs.name, t] for t in tokens)
            if target:
                for i in indices:
                    counts[i] += 1
    return Vocabulary(oov, index, counts)


def encode_field(fs: FieldSchema, values: Sequence[str], vocab: Vocabulary) -> tuple[int, ...]:
    """One field's index bag, refused as ``encode_instance`` refuses it."""
    return tuple(vocab.lookup(fs.name, t) for t in _field_tokens(fs, values))


def encode_instance(record: RawRecord, group_schema: GroupSchema, vocab: Vocabulary,
                    memo: dict | None = None) -> EncodedInstance:
    """Encode a raw record against a vocabulary.

    Unseen values map to the field's OOV index; a univalent or numerical
    field without exactly one value is an error naming the field.

    ``memo`` is a caller's per-pass dict from (field schema, values) to the
    first-seen ``(name, values)`` pair and the field's indices, filled here;
    every instance encoded through it holds that pair in ``raw``, so a value
    repeated across records is kept once. Only values that encode are kept,
    so a refused value raises on every occurrence. It must be used with one
    vocabulary only.
    """
    per_field: list[tuple[int, ...]] = []
    raw: list[tuple[str, tuple[str, ...]]] = []
    for fs in group_schema.fields:
        values = tuple(record.get(fs.name, ()))
        # Without a memo (a catalog ad) no key is built.
        hit = memo.get((fs, values)) if memo is not None else None
        if hit is None:
            hit = (fs.name, values), encode_field(fs, values, vocab)
            if memo is not None:
                memo[(fs, values)] = hit
        raw.append(hit[0])
        per_field.append(hit[1])
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


def parse_schemas(text: str) -> dict[str, GroupSchema]:
    """Read the schema file format; every refusal is a ``SchemaError``
    naming the line."""
    fields: dict[str, list[FieldSchema]] = {}
    # A field several groups declare alike is one object, so the encoding
    # memos' keys of those groups match by identity.
    shared: dict[FieldSchema, FieldSchema] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
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
            raise SchemaError(f"schema line {lineno}: {exc}") from None
        fields.setdefault(group, []).append(shared.setdefault(fs, fs))
    return {g: GroupSchema(g, tuple(fs)) for g, fs in fields.items()}


def load_schemas(path) -> dict[str, GroupSchema]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_schemas(fh.read())


def schemas_hash(schemas: Mapping[str, GroupSchema]) -> str:
    return hashlib.sha256(dump_schemas(schemas).encode("utf-8")).hexdigest()[:16]
