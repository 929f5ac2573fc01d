"""A validated run loads no OpenSSL.

Importing ``hashlib`` loads OpenSSL's ``_hashlib``, about 3.5 MiB of resident
memory; the library's one hash (:meth:`RandomSource.fork`) takes SHA-256 from
the interpreter's built-in module instead.  A fresh interpreter imports the
package and the experiment runner, builds a Small run, applies and validates
one round of joins, and reports which of ``hashlib``, ``_hashlib`` and
``ssl`` were added to ``sys.modules``.  Only modules added after the start
count: what ``site`` loads differs between machines.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

SCRIPT = """
import json
import sys

before = set(sys.modules)
import repro
from repro.experiments.runner import ExperimentRunner, ScenarioSpec

runner = ExperimentRunner(ScenarioSpec(size="small", seed=1))
runner.populate(20)
measurement = runner.checkpoint("one round")
added = set(sys.modules) - before
print(json.dumps({
    "validated": measurement.validated,
    "sessions": len(runner.active_ids),
    "heavy": sorted(added & {"hashlib", "_hashlib", "ssl"}),
}))
"""


def test_a_validated_run_imports_no_hashlib():
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in environment.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    output = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=environment, check=True,
        capture_output=True, text=True, timeout=120,
    ).stdout
    report = json.loads(output)
    assert report == {"validated": True, "sessions": 20, "heavy": []}
