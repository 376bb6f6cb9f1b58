"""``tools/train_mem.py``: its output lines on small generated logs."""

import importlib.util
from pathlib import Path

from adctr.ingest import SyntheticConfig, generate_synthetic

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("train_mem", ROOT / "tools" / "train_mem.py")
train_mem = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(train_mem)


def test_main_prints_examples_bytes_stage_peaks_and_train_time(tmp_path, capsys):
    generate_synthetic(SyntheticConfig(n_users=20, n_ads=40, n_train=300, n_val=60,
                                       n_test=10, seed=3)).write(tmp_path)
    assert train_mem.main(["train_mem.py", str(tmp_path / "train.tsv"),
                           str(tmp_path / "val.tsv"), str(tmp_path / "schema.tsv")]) == 0
    out = capsys.readouterr().out.splitlines()
    stages = ["forward_peak_bytes", "backward_peak_bytes", "optimizer_peak_bytes",
              "validation_peak_bytes"]
    assert [line.split(" ")[0] for line in out] == ["examples", "peak_bytes", "retained_bytes",
                                                    "held_bytes", *stages, "train_s"]
    values = {line.split(" ")[0]: float(line.split(" ")[1]) for line in out}
    assert values["examples"] == 300
    # The result keeps the best model: at least its two float32 FC layers
    # at the default widths, (512 * 256 + 256) * 4 bytes for fc2 alone.
    assert 500_000 < values["retained_bytes"] < values["peak_bytes"]
    # The peak also holds the training model, its Adagrad state and one batch.
    assert values["peak_bytes"] < 50_000_000
    assert 0 < values["train_s"] < 60
    # At the first step the model and its Adagrad state are held (fc2's
    # weights twice over), and every stage runs above that level; the
    # call's peak is the highest stage's.
    assert 1_000_000 < values["held_bytes"] < values["peak_bytes"]
    assert all(values["held_bytes"] < values[s] <= values["peak_bytes"] for s in stages)
    assert max(values[s] for s in stages) == values["peak_bytes"]


def test_main_refuses_other_arguments(capsys):
    assert train_mem.main(["train_mem.py", "train.tsv", "val.tsv"]) == 2
    assert "usage" in capsys.readouterr().err
