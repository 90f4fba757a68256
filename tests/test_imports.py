import os
import subprocess
import sys
from pathlib import Path

import minregime

#: slow to import and needed by no common path: the bias module loads
#: scipy inside the functions that use it, and no code path starts
#: worker processes
HEAVY = ("scipy", "concurrent.futures.process", "multiprocessing")


def loaded_after(code: str, modules: tuple[str, ...]) -> list[str]:
    """Which of ``modules`` a fresh interpreter holds after running
    ``code`` with this checkout's package on its path."""
    src = str(Path(minregime.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code += ("\nimport sys\n"
             f"print(' '.join(m for m in {modules!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def test_import_leaves_heavy_modules_unloaded():
    assert loaded_after("import minregime, minregime.cli", HEAVY) == []


def test_bias_and_simulate_leave_scipy_stats_unloaded():
    # the KS statistic is computed without scipy.stats, and the exact
    # expectation without scipy.integrate: each import takes longer than
    # a simulate call
    code = ("import contextlib, io\n"
            "from minregime import BiasModel, expected_min_exact\n"
            "from minregime.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['bias', '--trials', '200'])\n"
            "    main(['simulate', '--N', '1000', '--trials', '200'])\n"
            "expected_min_exact(BiasModel(0, 1, 1, 10 ** 6))")
    assert loaded_after(code, ("scipy.special", "scipy.stats",
                               "scipy.integrate")) == ["scipy.special"]
