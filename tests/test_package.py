"""What ``import hammerprint`` loads.

The package re-exports no names, but it still imports the library
modules, so ``import hammerprint; hammerprint.registry.identify(...)``
works and the benchmark's ``setup_s``, which times a fresh interpreter's
``import hammerprint``, keeps measuring the library's import.
"""

import os
import subprocess
import sys
from pathlib import Path

import hammerprint


def test_import_loads_the_library_modules():
    src = str(Path(hammerprint.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, hammerprint; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('hammerprint'))))")
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=60, check=True)
    assert child.stdout.split() == [
        "hammerprint", "hammerprint.challenge", "hammerprint.codec", "hammerprint.fingerprint",
        "hammerprint.geometry", "hammerprint.gf2", "hammerprint.registry",
        "hammerprint.simdevice"]
