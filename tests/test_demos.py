"""Every script in demos/ runs to completion."""

import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_demos_run():
    scripts = sorted(DEMOS.glob("*.py"))
    assert scripts
    for script in scripts:
        r = subprocess.run([sys.executable, str(script)], capture_output=True,
                           text=True, timeout=120)
        assert r.returncode == 0, f"{script.name}: {r.stderr}"
