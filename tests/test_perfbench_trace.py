"""The benchmark's traced mode (``perfbench/run.py --trace 1``) wraps
public functions of the package by name and reads their arguments by
name. Nothing else in this suite runs it, so a rename or a dropped
parameter here is what would break it."""

import importlib.util
from pathlib import Path

from minregime import analytics, engine

from conftest import make_series

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_mode_wraps_every_target_and_reads_its_arguments():
    spans = load_spans()
    tracer = spans.Tracer()
    saved = spans.rebind(tracer.wrap)
    try:
        for module, (mod, names) in spans.TARGETS.items():
            for name in names:
                assert hasattr(getattr(mod, name), "__wrapped__"), \
                    f"{module}.{name} is not wrapped"
        series = make_series(300, seed=3)
        # through the wrappers, so the hooks read ``jobs`` and
        # ``replicates`` from the bound arguments
        grid = analytics.sensitivity_grid(series, (0.5, 1.0), (0.25,))
        analytics.block_bootstrap_mrp(series, block_len=21, replicates=3,
                                      d=30)
        # the bootstrap scores its replicates without the engine's entry
        # points, so the one-split hook is driven directly
        engine.mrp_one_split(series, 30)
    finally:
        spans.restore(saved)
    for mod, names in spans.TARGETS.values():
        for name in names:
            assert not hasattr(getattr(mod, name), "__wrapped__")
    metrics = tracer.metrics(stdout_bytes=0)
    assert set(metrics) <= set(spans.UNITS)
    assert metrics["analytics.grid_cells"] == grid.cells.size == 2
    assert metrics["analytics.replicates"] == 3
    assert metrics["engine.calls.one_split"] == 1
