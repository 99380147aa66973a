"""Session set-up shared by every test module."""

import os
from pathlib import Path

import gaborstab


def pytest_configure(config):
    # pytest's `pythonpath` setting reaches only this interpreter's sys.path.
    # The subprocess tests start child interpreters, which must import the
    # same gaborstab as this session, so its parent directory goes first on
    # the PYTHONPATH they inherit.
    src = str(Path(gaborstab.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [inherited])])
