"""The perfbench tracer still installs on the package and sees its layers.

perfbench/spans.py wraps every public function, reads cache_info() of
every lru_cache and unpacks the arguments of reachable_tuples; a change to
any of those breaks `perfbench/run.py --trace 1` without failing any other
test.  No command calls reachable_tuples, so the child calls it once
itself.  The tracer runs in a child process because it rebinds the package
in place.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import contextlib, io, json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
from spans import Tracer
tracer = Tracer()
tracer.install()
import hesscomb
import hesscomb.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["verify", "--n", "3"]),
             cli.main(["fixed-points", "--h", "3,4,4,4", "--w", "2,3,1,4",
                       "--method", "both"]),
             cli.main(["fixed-points", "--h", "3,4,4,4", "--w", "2,3,1,4",
                       "--method", "chl"])]
hesscomb.reachable_tuples((2, 3, 1, 4), (3, 4, 4, 4), 2)
snap = tracer.snapshot()
print(json.dumps({{"codes": codes, "spans": sorted(snap["spans"]),
                   "caches": snap["caches"]}}))
"""


def test_tracer_installs_and_records_spans_and_caches():
    code = CHILD.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0, 0, 0]
    assert "verify.main-theorem" in report["spans"]
    assert "reach.reachable_tuples" in report["spans"]
    # each command clears the per-class pass and its counts when it ends, so
    # the --method chl query does not read back what --method both built;
    # the direct call after them fills the pass once
    cache = report["caches"]["reach.reachable_masks"]
    assert (cache["misses"], cache["hits"]) == (1, 0)
