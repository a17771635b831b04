"""Every CLI output of ``tools/compare_outputs.py``'s runs, against the
digests committed in ``tests/data/cli_digests.json``.

The runs are made in this process through ``cli.main``; the committed
digests were taken from fresh processes by
``python tools/compare_outputs.py --write-digests tests/data/cli_digests.json``.
A change that moves an output regenerates the file, and the JSON diff names
the runs that moved; ``compare_outputs.py OLD_SRC NEW_SRC`` shows how they
moved.  Like ``TestGoldenSolves``, the digests assume this platform's numpy
and BLAS (recorded in the file), and the test runs on every platform.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _compare_outputs():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_run_keeps_its_committed_digest():
    tool = _compare_outputs()
    committed = json.loads((ROOT / "tests" / "data" / "cli_digests.json").read_text())
    digests = {tool.run_name(name, seed): tool.digest(tool.run_in_process(
                   config, argv, env, seed))
               for name, config, argv, env in tool.RUNS for seed in tool.SEEDS}
    moved = sorted(name for name in digests
                   if committed["digests"].get(name) != digests[name])
    missing = sorted(set(committed["digests"]) - set(digests))
    assert not moved and not missing, (
        f"outputs moved: {moved}; committed but not run: {missing} (digests "
        f"taken with numpy {committed['numpy']}, BLAS {committed['blas']})")
