"""``tools/parse_mem.py``: its output lines on a small generated log."""

import importlib.util
from pathlib import Path

from adctr.ingest import SyntheticConfig, generate_synthetic

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("parse_mem", ROOT / "tools" / "parse_mem.py")
parse_mem = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parse_mem)


def test_main_prints_lines_bytes_per_line_and_parse_time(tmp_path, capsys):
    generate_synthetic(SyntheticConfig(n_users=20, n_ads=40, n_train=300, n_val=10,
                                       n_test=10, seed=3)).write(tmp_path)
    assert parse_mem.main(["parse_mem.py", str(tmp_path / "train.tsv"),
                           str(tmp_path / "schema.tsv")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(" ")[0] for line in out] == ["lines", "bytes_per_line",
                                                    "peak_bytes_per_line", "parse_s",
                                                    "parse_cpu_s", "vocab_cpu_s"]
    values = {line.split(" ")[0]: float(line.split(" ")[1]) for line in out}
    assert values["lines"] == 300
    # An example holds at least its own target ad; a line's text is ~300 bytes.
    assert 100 < values["bytes_per_line"] < 5000
    # The peak holds the examples and the pass's cache at once.
    assert values["bytes_per_line"] < values["peak_bytes_per_line"] < 20000
    assert 0 < values["parse_s"] < 60
    # Process CPU time, the parse's and the vocabulary pass's, each a few ms here.
    assert 0 <= values["parse_cpu_s"] < 60 and 0 <= values["vocab_cpu_s"] < 60


def test_two_calls_in_one_process_read_the_same_bytes_per_line(tmp_path, capsys):
    generate_synthetic(SyntheticConfig(n_users=20, n_ads=40, n_train=300, n_val=10,
                                       n_test=10, seed=3)).write(tmp_path)
    args = ["parse_mem.py", str(tmp_path / "train.tsv"), str(tmp_path / "schema.tsv")]
    readings = []
    for _ in range(2):
        assert parse_mem.main(args) == 0
        readings += [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("bytes_per_line ")]
    assert len(readings) == 2 and readings[0] == readings[1]


def test_main_refuses_other_arguments(capsys):
    assert parse_mem.main(["parse_mem.py", "only-a-log"]) == 2
    assert "usage" in capsys.readouterr().err
