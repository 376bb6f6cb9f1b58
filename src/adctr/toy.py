"""Small random problem builders shared by the gradient checker and tests."""

from __future__ import annotations

from .ingest import LabeledExample
from .numerics import make_rng
from .schema import (FieldKind, FieldSchema, GroupSchema, Vocabulary,
                     build_vocabulary, encode_instance)

_LETTERS = "abcdefghij"
_N_USERS = 6
_N_ADS = 8


def toy_schemas() -> dict[str, GroupSchema]:
    ad_fields = (FieldSchema("aid", FieldKind.UNIVALENT),
                 FieldSchema("ttl", FieldKind.MULTIVALENT))
    return {
        "target": GroupSchema("target", (FieldSchema("uid", FieldKind.UNIVALENT),
                                         FieldSchema("aff", FieldKind.NUMERICAL, (0.5, 1.5)))
                              + ad_fields),
        "contextual": GroupSchema("contextual", ad_fields),
        "clicked": GroupSchema("clicked", ad_fields),
        "unclicked": GroupSchema("unclicked", ad_fields),
    }


def _random_title(rng) -> str:
    length = int(rng.integers(2, 7))
    return "".join(_LETTERS[int(i)] for i in rng.integers(0, len(_LETTERS), size=length))


def make_toy_problem(seed: int = 0, n_examples: int = 10
                     ) -> tuple[dict[str, GroupSchema], Vocabulary, list[LabeledExample]]:
    """Random schemas/vocabulary/examples small enough for entrywise finite
    differences. Every auxiliary group is nonempty somewhere in the batch."""
    rng = make_rng(seed)
    schemas = toy_schemas()
    ads = [{"aid": (f"a{i}",), "ttl": (_random_title(rng),)} for i in range(_N_ADS)]

    raw_examples = []
    for i in range(n_examples):
        target = {"uid": (f"u{int(rng.integers(0, _N_USERS))}",),
                  "aff": (repr(round(float(rng.uniform(0, 2)), 3)),),
                  **ads[int(rng.integers(0, _N_ADS))]}
        counts = {g: int(rng.integers(0, 4)) for g in ("contextual", "clicked", "unclicked")}
        if i == 0:
            counts = {g: max(1, c) for g, c in counts.items()}  # exercise every group
        groups = {g: [ads[int(rng.integers(0, _N_ADS))] for _ in range(c)]
                  for g, c in counts.items()}
        raw_examples.append((int(rng.integers(0, 2)), target, groups))

    stream = []
    for _, target, groups in raw_examples:
        stream.append(("target", target))
        stream.extend((g, ad) for g, lst in groups.items() for ad in lst)
    vocab = build_vocabulary(stream, schemas)

    examples = []
    for i, (label, target, groups) in enumerate(raw_examples):
        examples.append(LabeledExample(
            label=label,
            timestamp=i,
            user_id=target["uid"][0],
            target=encode_instance(target, schemas["target"], vocab),
            contextual=tuple(encode_instance(a, schemas["contextual"], vocab)
                             for a in groups["contextual"]),
            clicked=tuple(encode_instance(a, schemas["clicked"], vocab)
                          for a in groups["clicked"]),
            unclicked=tuple(encode_instance(a, schemas["unclicked"], vocab)
                            for a in groups["unclicked"]),
        ))
    return schemas, vocab, examples
