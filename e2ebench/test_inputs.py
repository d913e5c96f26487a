"""The benchmark's inputs must not depend on Python's per-process hash salt.

Run with ``PYTHONPATH=src python3 -m pytest e2ebench/test_inputs.py``.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _manifest(hash_seed, seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.path.join(ROOT, "src"))
    output = subprocess.run(
        [sys.executable, os.path.join(HERE, "inputs.py"), "--seed",
         str(seed), "--ported-ir"],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    return json.loads(output)


def test_inputs_identical_across_hash_seeds():
    first, second = _manifest(1, 7), _manifest(2, 7)
    assert first == second
    assert first["port-apps"] and first["serve-apps"] and first["ported-ir"]


def test_seed_changes_the_generated_apps():
    assert _manifest(1, 7)["port-apps"] != _manifest(1, 8)["port-apps"]
