"""CTR prediction with contextual and behavioral auxiliary ads. The package root
imports none of its modules (schema, ingest, numerics, embedding, models, train_eval,
session, serving, cli), so a process loads only the modules it imports."""
