"""`tools/same_outputs.py` compares what two trees write: trainlogs by
their loss and dev-BLEU columns, every other file byte for byte.  Only
`artifacts`, `compare` and the worker switch are checked here; the
pipeline itself takes minutes."""

import importlib.util
from pathlib import Path

import pytest

from docnmt import tensor as T
from docnmt import training as TR

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)


def write_tree(root, seconds=(1.25, 2.5), loss=3.5, hyp=b"a b\tc\n\nd"):
    (root / "models").mkdir(parents=True)
    TR.TrainLog([TR.EpochRecord(1, loss, 12.5, seconds[0]),
                 TR.EpochRecord(2, loss / 2, 20.0, seconds[1])]
                ).save(root / "models" / "base.trainlog")
    (root / "hyps").mkdir()
    (root / "hyps" / "base.greedy").write_bytes(hyp)
    (root / "models" / "base.bin").write_bytes(bytes(range(256)))
    return same_outputs.artifacts(root)


def test_trainlog_keeps_loss_and_bleu_columns_only(tmp_path):
    found = write_tree(tmp_path)
    assert sorted(found) == ["hyps/base.greedy", "models/base.bin",
                             "models/base.trainlog"]
    assert found["models/base.trainlog"] == \
        b"1\t3.500000\t12.5000\n2\t1.750000\t20.0000\n"


def test_seconds_ignored_loss_compared(tmp_path):
    base = write_tree(tmp_path / "base")
    assert write_tree(tmp_path / "slower", seconds=(9.0, 0.5)) == base
    changed = write_tree(tmp_path / "loss", loss=3.25)
    assert [k for k in base if base[k] != changed[k]] == \
        ["models/base.trainlog"]


def test_other_files_compared_byte_for_byte(tmp_path):
    # tabs and a missing final newline outside a trainlog are kept as is
    base = write_tree(tmp_path / "base")
    assert base["hyps/base.greedy"] == b"a b\tc\n\nd"
    assert base["models/base.bin"] == bytes(range(256))
    changed = write_tree(tmp_path / "hyp", hyp=b"a b\tc\n\nd\n")
    assert [k for k in base if base[k] != changed[k]] == ["hyps/base.greedy"]


def test_compare_prints_what_differs_and_the_count(tmp_path, capsys):
    base = write_tree(tmp_path / "base")
    assert same_outputs.compare("as is", base, dict(base))
    changed = write_tree(tmp_path / "hyp", hyp=b"x")
    assert not same_outputs.compare("on the worker", base, changed)
    assert capsys.readouterr().out.splitlines() == [
        "as is: 3 of 3 identical",
        "on the worker: differs: hyps/base.greedy",
        "on the worker: 2 of 3 identical"]


def test_worker_run_fails_loudly_without_the_size_rule(monkeypatch):
    # the run that sends every product to the worker must not silently
    # run the inline path when the name it sets is gone
    monkeypatch.delattr(T, "WORKER_MIN_MACS")
    with pytest.raises(SystemExit, match="WORKER_MIN_MACS"):
        same_outputs.pipeline(all_on_worker=True)
