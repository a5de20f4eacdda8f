"""``import seqprod`` loads the kernel only: the auditor's names load ``seqprod.auditor`` on
first use (``tests/test_backends.py`` checks that no kernel module imports it)."""

import os
import subprocess
import sys
from pathlib import Path

import seqprod as sp

PACKAGE = Path(sp.__file__).parent
AUDITOR_NAMES = ("AuditEntry", "AuditReport", "LawId", "SuiteConfig", "SuiteRow", "audit_law",
                 "default_config", "demo_characterizations", "replay_witness", "run_full_suite")

# run in a fresh interpreter, so that nothing this test session imported is in sys.modules
FRESH = f"""
import sys
import seqprod
loaded = [m for m in ("seqprod.auditor", "seqprod.cli", "numpy.random") if m in sys.modules]
assert not loaded, loaded
for name in {AUDITOR_NAMES!r}:
    assert name in dir(seqprod), name
    assert getattr(seqprod, name) is getattr(seqprod.auditor, name), name
assert not set({AUDITOR_NAMES!r}) & set(vars(seqprod)), "an auditor name was cached"
from seqprod import LawId
assert LawId is seqprod.auditor.LawId
original = seqprod.auditor.audit_law
seqprod.auditor.audit_law = rebound = lambda *args: None
assert seqprod.audit_law is rebound
seqprod.auditor.audit_law = original
assert seqprod.audit_law is original
try:
    seqprod.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'seqprod' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("seqprod.no_such_name resolved")
print("ok")
"""


def test_import_seqprod_leaves_the_auditor_until_its_names_are_used():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", FRESH], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
