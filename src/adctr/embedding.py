"""The columnar encoding of ads and examples, and the gather/sum that turns
encoded ads into dense per-group vectors through the embedding table,
together with its exact adjoint (gradient scatter).

The table is a model's ``emb.E`` tensor, an (N, K) array shared by all ad
groups: a feature index means the same thing wherever it appears. A group's
vector is the concatenation, in schema order, of one K-dim segment per
field; multivalent segments are the sum over the field's index bag in bag
order (an empty bag contributes a zero segment).

Examples are encoded once into int32 columns (``EncodedBatch``). An encoded
split holds each auxiliary group's distinct ads once, as a table, and one
table row per occurrence; a mini-batch is a take over example ids, which
gathers its ads' columns out of those tables, and gather and scatter work on
whole columns with no Python loop per example or per ad. Both sum with
``numerics.segment_sum``. The gather's blocks are K columns wide; in
training they are also thousands of rows long, and such a block is summed
one column at a time, with no int64 cell array and no float64 copy of the
gathered rows. The scatter sums one column at a time too, repeating only
that column of its gradient terms per index. Serving embeds an ad once and
keeps its row by the ad's value (``EmbeddedAds``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Callable, Mapping, Sequence

import numpy as np

from .numerics import Array, ContractViolation, segment_sum
from .schema import AUX_GROUPS, EncodedInstance, GroupSchema


def group_dim(schema: GroupSchema, k: int) -> int:
    return k * len(schema.fields)


def _ragged_take(offsets: Array, rows: Array) -> tuple[Array, Array]:
    """For a CSR with the given row offsets: the element positions of
    ``rows``, concatenated in the order given, and their offsets there."""
    starts = offsets[rows]
    lens = offsets[rows + 1] - starts
    out = np.zeros(len(rows) + 1, dtype=np.int32)
    lens.cumsum(out=out[1:])
    pos = np.repeat(starts - out[:-1], lens) + np.arange(out[-1], dtype=np.int32)
    return pos, out


def _fields_by_name(inst: EncodedInstance, schema: GroupSchema) -> list[tuple[int, ...]]:
    """The index bags of ``inst`` for the fields of ``schema``, by name."""
    bags = {name: idx for (name, _), idx in zip(inst.raw, inst.indices)}
    try:
        return [bags[f.name] for f in schema.fields]
    except KeyError as exc:
        raise ContractViolation(f"a {inst.group} ad has no field {exc.args[0]!r} of group "
                                f"{schema.group!r}") from None


@dataclass(frozen=True)
class AdColumns:
    """Same-group ads as a CSR over (ad, field): the feature indices of field
    f of ad a are ``indices[offsets[a * n_fields + f] : offsets[a * n_fields + f + 1]]``."""

    n_fields: int
    offsets: Array  # (n_ads * n_fields + 1,) int32
    indices: Array  # int32

    def __len__(self) -> int:
        return (len(self.offsets) - 1) // self.n_fields

    @classmethod
    def from_instances(cls, instances: Sequence[EncodedInstance],
                       schema: GroupSchema) -> "AdColumns":
        """Encode a list of ads in the fields of the given group. An ad of
        another group is read by field name (serving passes its round-2
        winner, a target-group ad, as contextual); a field name means the
        same vocabulary rows in every group."""
        n_fields = len(schema.fields)
        bags = [idx for inst in instances for idx in (
            inst.indices if inst.group == schema.group else _fields_by_name(inst, schema))]
        if len(bags) != n_fields * len(instances):
            raise ContractViolation("an instance does not have the fields of its group schema")
        return cls.from_bags(n_fields, bags)

    @classmethod
    def from_bags(cls, n_fields: int, bags: Sequence[Sequence[int]]) -> "AdColumns":
        """Ads given as their index bags, ``n_fields`` per ad in field order."""
        offsets = np.fromiter(accumulate(map(len, bags), initial=0), dtype=np.int32,
                              count=len(bags) + 1)
        flat = chain.from_iterable(bags)
        return cls(n_fields, offsets, np.fromiter(flat, dtype=np.int32, count=int(offsets[-1])))

    def take(self, ads: Array) -> "AdColumns":
        """The given ads, in the order given."""
        segs = (ads[:, None] * self.n_fields + np.arange(self.n_fields)).ravel()
        pos, offsets = _ragged_take(self.offsets, segs)
        return AdColumns(self.n_fields, offsets, self.indices[pos])


@dataclass(frozen=True)
class EncodedBatch:
    """Examples as columns: labels, the target ads (one per example) and, per
    auxiliary group, each example's ads (``aux[g] = (offsets, ads)``: the ads
    of example i are ``offsets[i]:offsets[i + 1]`` of the group's ads in
    example order).

    The group's ads are held in one of two forms. In an encoded split
    (``encode_examples``), ``ads`` is a table of the group's distinct ads in
    first-appearance order and ``ad_rows[g]`` the table row of each ad in
    example order, so an ad that many examples repeat is encoded once. In a
    batch made by ``take``, ``ads`` has one row per ad in example order and
    ``ad_rows`` is empty. ``columns`` gives the second form of either."""

    labels: Array  # (B,) float64
    target: AdColumns
    aux: dict[str, tuple[Array, AdColumns]]
    ad_rows: dict[str, Array]  # group -> (T,) int32 table rows; empty in a taken batch

    def __len__(self) -> int:
        return len(self.labels)

    def columns(self, group: str) -> tuple[Array, AdColumns]:
        """The group's (offsets, ads) with one row of ``ads`` per ad, in
        example order."""
        offsets, ads = self.aux[group]
        rows = self.ad_rows.get(group)
        return (offsets, ads) if rows is None else (offsets, ads.take(rows))

    def take(self, ids: Array) -> "EncodedBatch":
        """The examples with the given ids, in the order given; each group's
        ads one row per ad, gathered through the table where there is one."""
        aux = {}
        for group, (offsets, ads) in self.aux.items():
            pos, sub = _ragged_take(offsets, ids)
            rows = self.ad_rows.get(group)
            aux[group] = (sub, ads.take(pos if rows is None else rows[pos]))
        return EncodedBatch(self.labels[ids], self.target.take(ids), aux, {})

    def ablate(self, keep_group: str) -> "EncodedBatch":
        """A copy in which every auxiliary group except ``keep_group`` holds
        no ads: the columns ``encode_examples`` builds from emptied lists."""
        if keep_group not in AUX_GROUPS:
            raise ValueError(f"unknown auxiliary group {keep_group!r}")
        empty = np.zeros(len(self) + 1, dtype=np.int32)
        aux = {group: (offsets, ads) if group == keep_group else
               (empty, AdColumns(ads.n_fields, np.zeros(1, dtype=np.int32),
                                 np.zeros(0, dtype=np.int32)))
               for group, (offsets, ads) in self.aux.items()}
        ad_rows = {group: rows if group == keep_group else np.zeros(0, dtype=np.int32)
                   for group, rows in self.ad_rows.items()}
        return EncodedBatch(self.labels, self.target, aux, ad_rows)


def encode_examples(examples: Sequence, schemas: Mapping[str, GroupSchema],
                    groups: Sequence[str]) -> EncodedBatch:
    """Encode ``LabeledExample``s with their target ads and the ads of the
    given auxiliary groups; each group's distinct ads (equal
    ``EncodedInstance``s are one ad) are encoded once, into the group's
    table."""
    n = len(examples)
    labels = np.fromiter((ex.label for ex in examples), dtype=np.float64, count=n)
    target = AdColumns.from_instances([ex.target for ex in examples], schemas["target"])
    aux, ad_rows = {}, {}
    for group in groups:
        lists = [getattr(ex, group) for ex in examples]
        offsets = np.fromiter(accumulate(map(len, lists), initial=0), dtype=np.int32,
                              count=n + 1)
        table: dict[EncodedInstance, int] = {}  # distinct ad -> its row
        ad_rows[group] = np.fromiter((table.setdefault(ad, len(table))
                                      for ad in chain.from_iterable(lists)),
                                     dtype=np.int32, count=int(offsets[-1]))
        aux[group] = (offsets, AdColumns.from_instances(list(table), schemas[group]))
    return EncodedBatch(labels, target, aux, ad_rows)


def _check_bounds(indices: Array, n: int) -> None:
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise ContractViolation("feature index out of range for the embedding table")


def embed_matrix(cols: AdColumns, table: Array) -> Array:
    """Embed same-group ads into an (M, D_group) matrix: each (ad, field)
    segment is the sum of its bag's rows of the (N, K) table."""
    k, segs = table.shape[1], len(cols.offsets) - 1
    _check_bounds(cols.indices, len(table))
    segment = np.arange(segs).repeat(cols.offsets[1:] - cols.offsets[:-1])
    return segment_sum(table[cols.indices], segment, segs).reshape(len(cols), cols.n_fields * k)


MAX_KEPT_ROWS = 16384  # rows an EmbeddedAds keeps, over ten times the benchmark's distinct ads


class EmbeddedAds:
    """Ads of one group embedded through ``table`` once and kept by value.
    ``take`` reads back the rows of ads named before; the others are encoded
    by the caller's ``encode(ads) -> AdColumns`` and embedded in one
    ``embed_matrix`` call, whose block is kept with each ad's row in it
    (``index[ad] = (block, row)``, no array per row). An ad whose encoding
    fails keeps none. A miss that would take the index past
    ``MAX_KEPT_ROWS`` starts a new index with only the call's ads in it; a
    row does not depend on the block it was embedded in, so the rows read
    back are the same. Only a request that names an ad with no row takes
    the lock, which makes each ad embedded once per index; the others read
    the index without it, and an index or an entry is published only once
    its block is complete."""

    def __init__(self, table: Array):
        self.table = table
        self.index: dict = {}
        self._lock = threading.Lock()

    def take(self, ads: Sequence, encode: Callable[[list], AdColumns]) -> Array:
        """A new (len(ads), D_g) array of the rows of ``ads`` (at least one),
        in the order given."""
        try:
            kept = [self.index[ad] for ad in ads]
        except KeyError:
            with self._lock:
                index = self.index  # another thread may have started a new one
                misses = [ad for ad in dict.fromkeys(ads) if ad not in index]
                if misses:  # another thread may have embedded them meanwhile
                    if len(index) + len(misses) > MAX_KEPT_ROWS:
                        index, misses = {}, list(dict.fromkeys(ads))
                    block = embed_matrix(encode(misses), self.table)
                    index.update(zip(misses, ((block, i) for i in range(len(misses)))))
                    self.index = index
            kept = [index[ad] for ad in ads]
        return np.array([block[i] for block, i in kept])


class RowGradAccumulator:
    """Collects embedding-row gradient terms from scatter calls across a batch
    and sums them per touched row, each row's terms in the order collected;
    the sums come back in the table's dtype. A scatter is kept as its
    (segments, bag lengths): one K-wide gradient row per (ad, field) segment,
    not yet repeated per index. ``n``, the table's row count, is not kept:
    it stays in the signature because the benchmark's layer map counts the
    buffer by it."""

    def __init__(self, n: int, k: int, dtype):
        self.k = k
        self.dtype = np.dtype(dtype)
        self._rows: list[Array] = []
        self._terms: list[tuple[Array, Array]] = []

    def scatter_matrix(self, cols: AdColumns, upstream: Array) -> None:
        """Adjoint of embed_matrix: every index of a (ad, field) bag gets that
        segment of the ad's upstream gradient."""
        if cols.indices.size == 0:
            return
        segs = upstream.reshape(-1, self.k)
        if segs.shape[0] != len(cols.offsets) - 1:
            raise ContractViolation("upstream gradient does not match the ads")
        self._rows.append(cols.indices)
        self._terms.append((segs, cols.offsets[1:] - cols.offsets[:-1]))

    def finalize(self) -> tuple[Array, Array]:
        """(sorted unique touched rows, their summed gradients). The sums are
        taken one column at a time, with only that column of every scatter
        repeated per index: the bits of ``segment_sum`` over the repeated
        rows, with one column of them held at once."""
        if not self._rows:
            return np.zeros(0, dtype=np.intp), np.zeros((0, self.k), dtype=self.dtype)
        rows, slot = np.unique(np.concatenate(self._rows), return_inverse=True)
        sums = np.empty((len(rows), self.k), dtype=self.dtype)
        for j in range(self.k):
            col = np.concatenate([segs[:, j].repeat(lens) for segs, lens in self._terms])
            sums[:, j] = segment_sum(col, slot, len(rows))
        return rows.astype(np.intp), sums
