"""What importing the package costs: the scipy subpackages it loads.

The benchmark's setup_s times interpreter start-up and the package's
imports, so an import is paid by every run of every workload.  Importing
scipy.optimize alone, after the package's own imports, took 0.13-0.20 s
(median 0.135 s, 10 fresh processes on a 2-core x86-64 VM), about a fifth
of a workload's setup_s.  So every gaborstab submodule together may load
scipy's linalg and sparse packages and no other: scipy.optimize,
scipy.special and scipy.integrate stay out unless a change brings them in
on purpose.
"""

import json
import subprocess
import sys

ALLOWED = {"scipy.linalg", "scipy.sparse"}

PROBE = """
import importlib, json, pkgutil, sys
import gaborstab
for module in pkgutil.iter_modules(gaborstab.__path__):
    importlib.import_module("gaborstab." + module.name)
print(json.dumps(sorted(
    name for name, module in list(sys.modules.items())
    if name.count(".") == 1 and name.startswith("scipy.")
    and not name.split(".")[1].startswith("_") and hasattr(module, "__path__"))))
"""


def test_every_submodule_loads_only_scipy_linalg_and_sparse():
    # A fresh interpreter: this session has imported whatever the tests need.
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          check=True)
    loaded = set(json.loads(proc.stdout))
    assert loaded <= ALLOWED, sorted(loaded - ALLOWED)
    assert "scipy.linalg" in loaded  # the probe sees the package's own imports
