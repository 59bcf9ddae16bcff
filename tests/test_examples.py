"""Every script under ``examples/`` runs to exit 0.

Nothing else imports the examples, so a name deleted from ``src`` would
otherwise break them silently.  Each runs in its own interpreter, as a
reader would run it, on a small budget (``REPRO_INSTRUCTIONS=600``),
with no result store and one worker.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"

#: Command-line arguments of the examples that take them: a budget, or
#: a generated suite's size and seed.
ARGS = {
    "suite_characterization.py": ["600"],
    "generated_suite_study.py": ["2", "7"],
}


@pytest.mark.parametrize("script",
                         sorted(path.name for path in EXAMPLES.glob("*.py")))
def test_example_runs(script, tmp_path):
    env = dict(os.environ, REPRO_INSTRUCTIONS="600", REPRO_STORE="0",
               REPRO_JOBS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *ARGS.get(script, ())],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout
