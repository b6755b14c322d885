"""README's code blocks, run as written: the library quick start in full, and
the CLI walkthrough with only its synthetic split sizes scaled down."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
SMALL_SPLITS = {"train": 2000, "cal": 1000, "test": 1500}


def code_block(language: str, heading: str) -> str:
    """The first ``language`` code block after ``heading`` in README."""
    return re.search(rf"```{language}\n(.*?)```", README[README.index(heading) :], re.S).group(1)


def run(argv, cwd=ROOT):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_quick_start_runs():
    done = run([sys.executable, "-c", code_block("python", "## Quick start (library)")])
    assert done.returncode == 0, done.stderr
    bin_id, action = done.stdout.split()[:2]
    assert bin_id.startswith("c") and action in ("predict", "route:0", "abstain")


def test_cli_walkthrough_runs(tmp_path):
    """Every step exits 0, so each file a step reads was written by an earlier
    one, and ``route`` decides every line of the test split."""
    script = code_block("bash", "## CLI walkthrough")
    script = re.sub(r"--(train|cal|test) \d+", lambda m: f"--{m[1]} {SMALL_SPLITS[m[1]]}", script)
    assert script.count(" 1500") == 1  # the sizes were found and scaled
    hocroute = f'hocroute() {{ "{sys.executable}" -m hocroute.cli "$@"; }}\n'
    done = run(["bash", "-e", "-c", hocroute + script], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    decisions = [line for line in done.stdout.splitlines() if line.startswith('{"id"')]
    assert len(decisions) == SMALL_SPLITS["test"]
