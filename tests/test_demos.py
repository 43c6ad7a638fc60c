"""Every script in demos/ runs to completion and prints what it always has."""

import hashlib
import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# sha256 of each demo's stdout: a change to what a demo prints must update
# its digest here
DEMO_SHA256 = {
    "adversary_bounds.py":
        "35c0e30aed8b97ef40ba8438b50540e4cc426f89f036cac5c4cb33b3d045b5c9",
    "congestion_staircases.py":
        "e492538e284ac2ab4ec235bc2fc85d0b369cc1de2d20ab63f6ad7479e532a7cc",
    "separation_arrangements.py":
        "07aa67b51d80d67302ed3eca051cbb129ef3ba402cfebddc30ec5bcf2471e61f",
    "solver_benchmark.py":
        "a734c0603d7e6c59379a941758905d60d81ebbe866388db6916c0ad0cf170ffe",
}


def test_demos_run():
    scripts = sorted(DEMOS.glob("*.py"))
    assert [script.name for script in scripts] == sorted(DEMO_SHA256)
    for script in scripts:
        r = subprocess.run([sys.executable, str(script)], capture_output=True,
                           timeout=120)
        assert r.returncode == 0, f"{script.name}: {r.stderr.decode()}"
        assert (hashlib.sha256(r.stdout).hexdigest()
                == DEMO_SHA256[script.name]), script.name
