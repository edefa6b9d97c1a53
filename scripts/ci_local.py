"""Run the steps of the CI workflow on this machine, one at a time.

    python3 scripts/ci_local.py

Run from anywhere inside a source checkout.  It reads the steps of
``.github/workflows/tests.yml`` and runs each ``run:`` block, in order,
under ``bash -e`` from the checkout's root, as CI runs it.  It skips the
``uses:`` steps (checkout and interpreter set-up) and the ``Install``
step: nothing is installed.  Instead each step gets
``PYTHONPATH=<root>/src`` and, first on ``PATH``, an ``eulersym`` shim
that runs ``python -m eulersym.cli "$@"`` with this interpreter, so the
console-script steps run this checkout's code.

After each step it prints the step's name, exit code and seconds; it
stops at the first step that fails and exits 1, and exits 0 when every
step passes.  It reads only the subset of YAML the workflow uses: a
``steps:`` list whose items hold ``name:``, ``uses:``, ``with:`` and
``run:`` keys, a ``run:`` given inline or as a ``|`` block.  Standard
library only; it takes no options.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


def _steps(text: str) -> list[dict[str, str]]:
    """Each item of the workflow's ``steps:`` list as its keys' values: an
    inline value as written, a ``|`` block as its lines, dedented, each
    ending in a newline; a nested mapping (``with:``) as ''."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == "steps:")
    top = _indent(lines[start])
    steps: list[dict[str, str]] = []
    i = start + 1
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        if _indent(line) <= top:
            break
        stripped = line.lstrip(" ")
        if stripped.startswith("- "):
            steps.append({})
            stripped = stripped[2:]
        key_indent = len(line) - len(stripped)
        key, _, value = stripped.partition(":")
        value = value.strip()
        i += 1
        block: list[str] = []
        while i < len(lines) and (not lines[i].strip() or _indent(lines[i]) > key_indent):
            block.append(lines[i])
            i += 1
        if value == "|":
            while block and not block[-1].strip():
                block.pop()
            cut = min(_indent(b) for b in block if b.strip())
            value = "".join(b[cut:] + "\n" for b in block)
        steps[-1][key.strip()] = value
    return steps


def main() -> int:
    steps = [s for s in _steps(WORKFLOW.read_text())
             if "run" in s and "uses" not in s and s.get("name") != "Install"]
    with tempfile.TemporaryDirectory() as shim_dir:
        shim = Path(shim_dir) / "eulersym"
        shim.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m eulersym.cli "$@"\n')
        shim.chmod(0o755)
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
               "PATH": f"{shim_dir}{os.pathsep}{os.environ.get('PATH', '')}"}
        began = time.perf_counter()
        for number, step in enumerate(steps, 1):
            name = step.get("name", step["run"].splitlines()[0])
            print(f"--- step {number}/{len(steps)}: {name}", flush=True)
            t0 = time.perf_counter()
            code = subprocess.run(["bash", "-e", "-c", step["run"]], cwd=ROOT, env=env).returncode
            print(f"--- {name}: exit {code}, {time.perf_counter() - t0:.1f} s", flush=True)
            if code != 0:
                print(f"FAILED at step {number}/{len(steps)}: {name}", flush=True)
                return 1
        print(f"all {len(steps)} steps passed in {time.perf_counter() - began:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
