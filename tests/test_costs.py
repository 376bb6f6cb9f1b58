"""``tools/costs.py`` on small generated RANK server inputs, in a process of
its own, and two serving regressions read through it: the C calls of a warm
DSTN-I RANK request, and the bytes of the RANK replies."""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("costs", ROOT / "tools" / "costs.py")
costs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(costs)

NAMES = ["rank.requests", "rank.python_calls", "rank.c_calls",
         "replay.requests", "replay.python_calls", "replay.c_calls"]
# At most this many C calls per warm RANK request on the fixture: 45 once the
# user's segment became a row read and attention a matmul (73 before), plus 10%.
WARM_RANK_C_CALLS = 49
# sha256 of the fixture's twenty RANK replies, one per line, as they were
# before that change (the same at one and two BLAS threads).
RANK_REPLIES_SHA256 = "bfb892637fc4c4e57e6adef329e4aff35522f4d03cbaa2c48da055b1648b8d45"


def run_costs(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "tools" / "costs.py"), *args],
                          capture_output=True, text=True, timeout=300)


def event_log(files, path: Path) -> Path:
    """An event log of the fixture's history (the snapshot's entries as IMP
    and CLICK events, in time order) and then its RANK lines as REQs."""
    history = sorted((int(ts), user, kind, ad) for user, kind, ts, ad in (
        line.split("\t") for line in files["snapshot.tsv"].read_text(encoding="utf-8").splitlines()
        if line))
    catalog = dict(line.split("\t", 1) for line in
                   files["catalog.tsv"].read_text(encoding="utf-8").splitlines())
    lines = [f"{'CLICK' if kind == 'clk' else 'IMP'}\t{ts}\t{user}\t{ad}"
             for ts, user, kind, ad in history]
    for i, line in enumerate(files["requests.tsv"].read_text(encoding="utf-8").splitlines()):
        _, user, now, slots, ad_ids = line.split(" ")
        lines.append(f"REQ\t{now}\t{user}\tr{i}\t{slots}\t"
                     + "|".join(catalog[a] for a in ad_ids.split(",")))
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return path


def server_args(files) -> list[str]:
    return [str(files[name]) for name in ("model.ckpt", "snapshot.tsv", "catalog.tsv",
                                          "requests.tsv")]


def warm_server(files):
    """A RANK server of the fixture's files, in this process, that has served
    each of its request lines once; and those lines."""
    from adctr import models, schema, serving, session

    ckpt = files["model.ckpt"]
    schemas = schema.load_schemas(f"{ckpt}.schema.tsv")
    vocab = schema.Vocabulary.load(f"{ckpt}.vocab.tsv")
    model, _ = models.load_model(ckpt, schemas)
    store = session.SessionStore.restore(files["snapshot.tsv"], schemas, vocab)
    catalog = serving.load_catalog(files["catalog.tsv"], schemas["target"])
    server = serving.RankProtocolServer(serving.AdServer(serving.ModelScorer(model), store),
                                        catalog, schemas["target"], vocab)
    server.stop()  # requests go to handle_line: the socket is not needed
    lines = files["requests.tsv"].read_text(encoding="utf-8").splitlines()
    replies = [server.handle_line(line) for line in lines]
    return server, lines, replies


def test_two_runs_print_identical_counts(rank_server_files, tmp_path):
    events = event_log(rank_server_files, tmp_path / "events.tsv")
    runs = [run_costs(*server_args(rank_server_files), "--events", str(events))
            for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    assert runs[0].stdout == runs[1].stdout
    out = [line.split(" ") for line in runs[0].stdout.splitlines()]
    assert [line[0] for line in out] == NAMES
    values = {name: list(map(int, rest)) for name, *rest in out}
    assert values["rank.requests"] == values["replay.requests"] == [20] * 3
    for name in NAMES[1:3] + NAMES[4:]:
        median, least, most = values[name]
        assert 0 < least <= median <= most


def test_n_and_compare_on_the_same_tree(rank_server_files):
    run = run_costs(*server_args(rank_server_files), "-n", "5", "--compare", str(ROOT))
    assert run.returncode == 0, run.stderr
    out = [line.split(" ") for line in run.stdout.splitlines()]
    assert [line[0] for line in out] == NAMES[:3]
    assert out[0][1:] == ["5", "5", "+0.0%"]
    assert all(here == there and change == "+0.0%" for _, here, there, change in out)


def test_refuses_other_arguments(rank_server_files):
    run = run_costs("model.ckpt", "snapshot.tsv")
    assert run.returncode == 2 and "usage" in run.stderr
    run = run_costs(*server_args(rank_server_files), "-n", "0")
    assert run.returncode == 2 and "-n must be at least 1" in run.stderr


def test_a_warm_dstn_i_rank_request_makes_at_most_the_pinned_c_calls(rank_server_files):
    from adctr.serving import RankProtocolServer

    server, lines, _ = warm_server(rank_server_files)
    counter = costs.CallCounter(RankProtocolServer.handle_line.__code__)
    samples = counter.counted(lambda: [server.handle_line(line) for line in lines])
    assert len(samples) == len(lines)
    assert max(c for _, c in samples) <= WARM_RANK_C_CALLS


def test_the_rank_replies_match_the_pinned_digest(rank_server_files):
    _, _, replies = warm_server(rank_server_files)
    assert all(reply.startswith("OK ") for reply in replies)
    digest = hashlib.sha256("".join(f"{r}\n" for r in replies).encode("utf-8")).hexdigest()
    assert digest == RANK_REPLIES_SHA256
