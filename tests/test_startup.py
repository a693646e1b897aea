"""Start-up guard: a one-shot command loads no module it does not use.

``import lefdet``, ``import lefdet.cli`` and an ``slp`` run must not add
``dataclasses`` (which pulls in ``inspect``, ``ast`` and ``dis``), ``hashlib``
(OpenSSL), ``csv`` or ``shlex`` to ``sys.modules``; ``verify`` still loads
``hashlib`` for its seeded generators.  Each check runs in a fresh
interpreter and counts only what the steps add to what start-up already
loaded, so a site hook that loads some module does not count against it.

The file runs without pytest too: ``python tests/test_startup.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
UNUSED = ("dataclasses", "inspect", "hashlib", "csv", "shlex")

PROBE = """
import io, json, sys
watch = {watch!r}
before = set(sys.modules)
added = {{}}  # step -> watched modules added since start-up, by the end of that step
def step(name):
    added[name] = sorted(m for m in watch if m in sys.modules and m not in before)
import lefdet
step("import lefdet")
import lefdet.cli
step("import lefdet.cli")
out, sys.stdout = sys.stdout, io.StringIO()
code = lefdet.cli.main({argv!r})
sys.stdout = out
step("main")
loaded = sorted(m for m in watch if m in sys.modules)
print(json.dumps({{"code": code, "added": added, "loaded": loaded}}))
"""


def probe(argv) -> dict:
    """Run the three steps in a fresh interpreter: what each added, what is loaded at the end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(watch=UNUSED, argv=list(argv))],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


def test_slp_loads_none_of_the_unused_modules():
    report = probe(["slp", "--d", "12", "--q", "9", "--forms=-7/2,5/3"])
    assert report["code"] == 0
    assert report["added"] == {
        "import lefdet": [],
        "import lefdet.cli": [],
        "main": [],
    }, report


def test_verify_still_loads_hashlib():
    report = probe(["verify", "--dmax", "2", "--trials", "1"])
    assert report["code"] == 0
    assert "hashlib" in report["loaded"], report


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
