"""Small random problem builders shared by the gradient checker and tests; a
toy problem is written as impression-log lines and read by the log parser."""

from __future__ import annotations

from .ingest import LabeledExample, ad_text, iter_group_records, parse_log_line
from .numerics import make_rng
from .schema import FieldKind, FieldSchema, GroupSchema, Vocabulary, build_vocabulary

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

    lines = []
    for i in range(n_examples):
        target = {"uid": (f"u{int(rng.integers(0, _N_USERS))}",),
                  "aff": (repr(round(float(rng.uniform(0, 2)), 3)),),
                  **ads[int(rng.integers(0, _N_ADS))]}
        counts = {g: int(rng.integers(0, 4)) for g in ("contextual", "clicked", "unclicked")}
        if i == 0:
            counts = {g: max(1, c) for g, c in counts.items()}  # exercise every group
        groups = [[ads[int(rng.integers(0, _N_ADS))] for _ in range(c)] for c in counts.values()]
        label = int(rng.integers(0, 2))
        lines.append("\t".join([str(label), str(i), target["uid"][0], ad_text(target.items())]
                               + ["|".join(ad_text(ad.items()) for ad in g) for g in groups]))

    vocab = build_vocabulary(iter_group_records(lines), schemas)
    cache: dict = {}
    examples = [parse_log_line(line, schemas, vocab, line_number=i, cache=cache)
                for i, line in enumerate(lines, start=1)]
    return schemas, vocab, examples
