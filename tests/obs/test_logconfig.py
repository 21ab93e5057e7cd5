"""The logging contract: nothing reaches stderr unless you opt in."""

import logging
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def test_warnings_print_only_after_configure_logging():
    # A fresh interpreter: pytest's own capture handlers on the root
    # logger would otherwise hide a fall-through to logging.lastResort.
    script = (
        "import logging, sys\n"
        "import repro.gridftp.reliable\n"
        "from repro.obs import configure_logging\n"
        "log = logging.getLogger('repro.gridftp.reliable')\n"
        "log.warning('unconfigured')\n"
        "configure_logging('WARNING', stream=sys.stdout)\n"
        "log.warning('configured')\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True,
    )
    assert completed.stderr == ""
    assert completed.stdout == "WARNING repro.gridftp.reliable: configured\n"


def test_caplog_still_sees_warnings(caplog):
    with caplog.at_level(logging.WARNING, logger="repro"):
        logging.getLogger("repro.gridftp.reliable").warning("retrying")
    assert [r.getMessage() for r in caplog.records] == ["retrying"]
