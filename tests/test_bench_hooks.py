"""The benchmark's hooks into docnmt.

`bench/tracer.py` patches docnmt functions and methods by name, and
`bench/workloads.py` calls the model API directly, so renaming either side
would leave every other test passing and crash `bench/run.py`.  Both files
are loaded here by path.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    module_name = f"bench_{name}"
    spec = importlib.util.spec_from_file_location(module_name,
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module


tracer = load_bench("tracer")


def test_every_tracer_target_resolves():
    # functions through getattr on the module, methods through the class's
    # own __dict__, as Tracer.install() looks them up
    missing = []
    for module, attr, name in tracer.TARGETS:
        owner = importlib.import_module(f"docnmt.{module}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name, None)
            found = cls is not None and callable(cls.__dict__.get(method))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"docnmt.{module}.{attr} ({name})")
    assert missing == []


def test_warm_up_runs_under_the_tracer():
    workloads = load_bench("workloads")
    spans = tracer.Tracer()
    try:
        spans.install()
        workloads.warm_up(4, 4, 10, seed=1)
    finally:
        spans.uninstall()
    assert spans.calls["model.forward_loss"] == 1
    assert spans.calls["model.decode_step"] == 1
    assert spans.calls["tensor.lstm_cell"] == 2
