"""The benchmark's wrappers still fit the package's names.

``perfbench/tracing.py`` times spnstream from outside by swapping public
functions and methods for wrappers, looked up by name.  A refactor that
renames or removes one of those names breaks the benchmark with an
``AttributeError``; this test finds that in milliseconds, and checks that
uninstalling puts every original back.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_names() -> dict:
    """Every module attribute of spnstream, and every attribute of its classes."""
    names = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "spnstream" and not modname.startswith("spnstream."):
            continue
        for key, value in vars(mod).items():
            names[(modname, key)] = value
            if isinstance(value, type) and value.__module__ == modname:
                for attr, member in vars(value).items():
                    names[(modname, key, attr)] = member
    return names


def test_tracer_and_batch_meter_install_and_uninstall():
    tracing = load_tracing()  # imports the spnstream modules it wraps
    before = package_names()
    meter_inst, trace_inst = tracing.Instrument(), tracing.Instrument()
    try:
        # Installed in the order the benchmark installs them.
        tracing.BatchMeter().install(meter_inst)
        tracing.Tracer().install(trace_inst)
        during = package_names()
    finally:
        trace_inst.uninstall()
        meter_inst.uninstall()
    after = package_names()

    swapped = {k for k in before if during.get(k) is not before[k]}
    for name in [("spnstream.evaluate", "CompiledNet", "eval_rows"),
                 ("spnstream.evaluate", "CompiledNet", "refresh_leaf"),
                 ("spnstream.evaluate", "CompiledNet", "refresh_weights"),
                 ("spnstream.evaluate", "compile_pool"),
                 ("spnstream.evaluate", "log_density_rows"),
                 ("spnstream.learner", "learn_batch"),
                 ("spnstream.gstats", "GaussianStats", "update")]:
        assert name in swapped, name
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
