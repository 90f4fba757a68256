import os
import subprocess
import sys
from pathlib import Path

import minregime

#: slow to import and needed by no common path: the bias module loads
#: scipy inside the functions that use it, and no code path starts
#: worker processes
HEAVY = ("scipy", "concurrent.futures.process", "multiprocessing")


def test_import_leaves_heavy_modules_unloaded():
    src = str(Path(minregime.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, minregime, minregime.cli\n"
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
