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


def test_differing_outputs_name_their_largest_relative_change():
    tool = _compare_outputs()
    old = {"exit code": 0, "stdout": b"", "stderr": b"",
           "files": {"out": b"x,rho\n-0.1,0.3120\n0.0,0.3183\n"}}
    new = dict(old, files={"out": b"x,rho\n-0.1,0.3120\n0.0,0.3184\n"})
    assert tool.differences(old, new) == [
        "  file out: largest relative change 3.141e-04",
        "    --- old", "    +++ new", "    @@ -3 +3 @@",
        "    -0.0,0.3183", "    +0.0,0.3184"]
    assert tool.relative_change("x,rho\n0.0,0.3183\n", "x,rho\n0.0,0.3184\n") == (
        (0.3184 - 0.3183) / 0.3184)
    # equal numbers in another notation, and a sign of zero, are no change
    assert tool.relative_change("1e-05j, 0.0", "1.0e-05j, -0.0") == 0.0
    # text that differs apart from its numbers, or a column more, has no bound
    assert tool.relative_change("x,rho\n0.1,0.3\n", "x,rho,n\n0.1,0.3,5\n") is None
    assert tool.differences(dict(old, stdout=b"rows 3\n"), dict(old, stdout=b"cols 3\n"))[0] == (
        "  stdout: text differs apart from its numbers")
    assert tool.relative_change("mean nan", "mean 0.5") == float("inf")
