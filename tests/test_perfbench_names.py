"""The benchmark's tracer binds library names by string: `perfbench/tracer.py`
wraps methods, CLI functions and the scan generator, and
`perfbench/metrics.py` reads spans named "<module>.<function>".  A name
that leaves `src/` breaks the benchmark, not the library, so this test
installs the tracer against the library in a fresh process and checks
that every bound and every reported name is there and wrapped."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import nfbounds

ROOT = Path(__file__).resolve().parents[1]

CHECK = """
import sys
sys.path.insert(0, sys.argv[1])
import metrics, tracer
tracer.install(tracer.Tracer())
import nfbounds.cli as cli

bound = {}
for short in tracer.LAYER_MODULES:
    for attr, obj in vars(sys.modules["nfbounds." + short]).items():
        bound[short + "." + attr] = obj
for attr, name in tracer.CLI_FUNCTIONS.items():
    bound[name] = getattr(cli, attr, None)
wanted = [span for span, _suffix in metrics._SPAN_METRICS] + list(tracer.CLI_FUNCTIONS.values())
for (short, cls_name), methods in tracer.METHODS.items():
    cls = getattr(sys.modules["nfbounds." + short], cls_name)
    for meth in methods:
        bound[short + "." + meth] = getattr(cls, meth)
        wanted.append(short + "." + meth)
print(" ".join(name for name in wanted if not hasattr(bound.get(name), "__wrapped__")))
"""


def test_tracer_binds_every_name_it_reports():
    src = str(Path(nfbounds.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CHECK, str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "", f"names the tracer cannot wrap: {done.stdout}"
