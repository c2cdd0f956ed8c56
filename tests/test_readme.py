"""The README's library example runs as written and prints what it says."""

import os
import pathlib
import re
import subprocess
import sys

import povmkit as pk

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    src = os.path.dirname(os.path.dirname(pk.__file__))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # the first two prints, the values the example states in its comments
    stated = re.findall(r"^print\(.*\)[ \t]+# (.+)$", code, re.M)
    assert stated == ["[0.5000000000000001, 0.5]", "0.75"]
    assert proc.stdout.splitlines()[:2] == stated
