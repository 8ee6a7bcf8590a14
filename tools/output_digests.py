"""Print one SHA-256 per output of the bundled configs and the demos.

Runs every bundled reference config through the CLI and every script
under ``demos/``, each in its own interpreter with one BLAS thread and the
package imported from ``src/`` of this checkout.  It prints one digest per
table CSV, per ``verdicts.json`` and per stdout, with the exit code of
each run.  ``metadata.json`` (timestamps, peak memory, wall times) is left
out, and the output directory is masked in stdout, so two checkouts that
produce the same numbers print the same lines.

Run: python tools/output_digests.py > digests.txt
Compare two checkouts with ``diff`` on their outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "src" / "nonstatcov" / "reference_configs"
DEMOS = ROOT / "demos"
#: one BLAS thread in every child, set before its numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str], mask: str | None = None) -> tuple[int, bytes]:
    done = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True,
                          timeout=600)
    out = done.stdout
    if mask is not None:
        out = out.replace(mask.encode(), b"<out>")
    return done.returncode, out


def config_lines(name: str) -> list[str]:
    """Digest lines of one bundled config run through the CLI."""
    experiment = json.loads((CONFIGS / name).read_text(encoding="utf-8"))["experiment"]
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "out")
        code, stdout = _run([sys.executable, "-m", "nonstatcov.cli", experiment,
                             "--config", name, "--out", out_dir], mask=out_dir)
        lines = [f"{_digest(stdout)}  {name} stdout (exit {code})"]
        for path in sorted(Path(out_dir).glob("*")) if os.path.isdir(out_dir) else ():
            if path.name != "metadata.json":
                lines.append(f"{_digest(path.read_bytes())}  {name} {path.name}")
    return lines


def demo_lines(path: Path) -> list[str]:
    code, stdout = _run([sys.executable, str(path)])
    return [f"{_digest(stdout)}  {path.name} stdout (exit {code})"]


def main() -> int:
    for name in sorted(p.name for p in CONFIGS.glob("*.json")):
        print("\n".join(config_lines(name)), flush=True)
    for path in sorted(DEMOS.glob("*.py")):
        print("\n".join(demo_lines(path)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
