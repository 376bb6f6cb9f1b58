"""The shared embedding table, the columnar encoding of ads and examples, and
the gather/sum that turns encoded ads into dense per-group vectors together
with its exact adjoint (gradient scatter).

One table is shared by all ad groups: a feature index means the same thing
wherever it appears. A group's vector is the concatenation, in schema order,
of one K-dim segment per field; multivalent segments are the sum over the
field's index bag in bag order (an empty bag contributes a zero segment).

Examples are encoded once into int32 columns (``EncodedBatch``); a
mini-batch is a fancy index over example ids, and gather and scatter work on
whole columns with no Python loop per example or per ad.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Mapping, Sequence

import numpy as np

from .numerics import Array, ContractViolation
from .schema import AUX_GROUPS, EncodedInstance, GroupSchema

INIT_SCALE = 0.01  # keeps initial logits near 0 so sigmoid starts around 0.5


@dataclass
class EmbeddingTable:
    e: Array  # (N, K)

    @property
    def n(self) -> int:
        return self.e.shape[0]

    @property
    def k(self) -> int:
        return self.e.shape[1]

    @classmethod
    def init(cls, vocab_size: int, k: int, rng: np.random.Generator) -> "EmbeddingTable":
        return cls(rng.uniform(-INIT_SCALE, INIT_SCALE, size=(vocab_size, k)))


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
        fields = [inst.indices if inst.group == schema.group else _fields_by_name(inst, schema)
                  for inst in instances]
        lens = [len(idx) for per_ad in fields for idx in per_ad]
        if len(lens) != n_fields * len(instances):
            raise ContractViolation("an instance does not have the fields of its group schema")
        offsets = np.fromiter(accumulate(lens, initial=0), dtype=np.int32, count=len(lens) + 1)
        flat = chain.from_iterable(chain.from_iterable(fields))
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
    of example i are ``offsets[i]:offsets[i + 1]`` of ``ads``)."""

    labels: Array  # (B,) float64
    target: AdColumns
    aux: dict[str, tuple[Array, AdColumns]]

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, ids: Array) -> "EncodedBatch":
        """The examples with the given ids, in the order given."""
        aux = {}
        for group, (offsets, ads) in self.aux.items():
            pos, sub = _ragged_take(offsets, ids)
            aux[group] = (sub, ads.take(pos))
        return EncodedBatch(self.labels[ids], self.target.take(ids), aux)

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
        return EncodedBatch(self.labels, self.target, aux)


def encode_examples(examples: Sequence, schemas: Mapping[str, GroupSchema],
                    groups: Sequence[str] = AUX_GROUPS) -> EncodedBatch:
    """Encode ``LabeledExample``s with their target ads and the ads of the
    given auxiliary groups."""
    n = len(examples)
    labels = np.fromiter((ex.label for ex in examples), dtype=np.float64, count=n)
    target = AdColumns.from_instances([ex.target for ex in examples], schemas["target"])
    aux = {}
    for group in groups:
        lists = [getattr(ex, group) for ex in examples]
        offsets = np.fromiter(accumulate(map(len, lists), initial=0), dtype=np.int32,
                              count=n + 1)
        aux[group] = (offsets, AdColumns.from_instances(list(chain.from_iterable(lists)),
                                                        schemas[group]))
    return EncodedBatch(labels, target, aux)


def _check_bounds(indices: Array, n: int) -> None:
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise ContractViolation("feature index out of range for the embedding table")


def embed_matrix(cols: AdColumns, table: EmbeddingTable) -> Array:
    """Embed same-group ads into an (M, D_group) matrix."""
    k, segs = table.k, len(cols.offsets) - 1
    _check_bounds(cols.indices, table.n)
    # Cell (segment, component) of every gathered value; bincount adds each
    # cell's values in bag order, starting from 0.0.
    owner = np.arange(0, segs * k, k).repeat(cols.offsets[1:] - cols.offsets[:-1])
    cells = (owner[:, None] + np.arange(k)).ravel()
    out = np.bincount(cells, weights=table.e[cols.indices].ravel(), minlength=segs * k)
    # bincount sums in float64, and returns integers when there is nothing to sum
    return out.astype(table.e.dtype, copy=False).reshape(len(cols), cols.n_fields * k)


class RowGradAccumulator:
    """Collects embedding-row gradient terms from scatter calls across a batch
    and sums them per touched row, each row's terms in the order collected;
    the sums come back in the table's dtype."""

    def __init__(self, n: int, k: int, dtype=np.float64):
        self.n = n
        self.k = k
        self.dtype = np.dtype(dtype)
        self._rows: list[Array] = []
        self._grads: list[Array] = []

    def scatter_matrix(self, cols: AdColumns, upstream: Array) -> None:
        """Adjoint of embed_matrix: every index of a (ad, field) bag gets that
        segment of the ad's upstream gradient."""
        if cols.indices.size == 0:
            return
        segs = upstream.reshape(-1, self.k)
        if segs.shape[0] != len(cols.offsets) - 1:
            raise ContractViolation("upstream gradient does not match the ads")
        self._rows.append(cols.indices)
        self._grads.append(segs.repeat(cols.offsets[1:] - cols.offsets[:-1], axis=0))

    def finalize(self) -> tuple[Array, Array]:
        """(sorted unique touched rows, their summed gradients)."""
        if not self._rows:
            return np.zeros(0, dtype=np.intp), np.zeros((0, self.k), dtype=self.dtype)
        rows, slot = np.unique(np.concatenate(self._rows), return_inverse=True)
        flat = (slot[:, None] * self.k + np.arange(self.k)).ravel()
        # bincount adds the terms of each cell in order, starting from 0.0
        sums = np.bincount(flat, weights=np.concatenate(self._grads).ravel(),
                           minlength=len(rows) * self.k)
        sums = sums.astype(self.dtype, copy=False).reshape(len(rows), self.k)
        return rows.astype(np.intp), sums
