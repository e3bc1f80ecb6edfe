from __future__ import annotations

import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import nfbounds

TOOL = Path(__file__).resolve().parents[1] / "tools" / "make_fixtures.py"


def test_make_fixtures_regenerates_packaged_fixtures(tmp_path):
    """The fixture generator, run against this library, rewrites every
    packaged field document byte for byte."""
    src = str(Path(nfbounds.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, str(TOOL), str(tmp_path)], check=True,
                   capture_output=True, timeout=300, env={**os.environ, "PYTHONPATH": path})
    fixtures = resources.files("nfbounds.fixtures")
    for name in ("qsqrt5.json", "quartic725.json", "cyclo32real.json"):
        assert (tmp_path / name).read_bytes() == fixtures.joinpath(name).read_bytes(), name
