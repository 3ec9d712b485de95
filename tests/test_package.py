import contextlib
import io
import json
import subprocess
import sys
import types

import pytest

import hidim
import hidim.cli


def test_star_import_binds_no_module():
    namespace = {}
    exec("from hidim import *", namespace)
    bound = {name: value for name, value in namespace.items() if name != "__builtins__"}
    assert sorted(bound) == sorted(hidim.__all__)
    assert not [name for name, value in bound.items() if isinstance(value, types.ModuleType)]


# Run in a fresh interpreter on a JSON list of cli.main argvs: prints, after
# the imports and after each run, whether scipy.special, fractions and
# decimal are loaded, and the exit code and stdout of the last run.
_STARTUP = """
import contextlib, io, json, sys
import hidim, hidim.cli, hidim.sim
names = ("scipy.special", "fractions", "decimal")
loaded = [[name in sys.modules for name in names]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = hidim.cli.main(argv)
    loaded.append([name in sys.modules for name in names])
print(json.dumps({"file": hidim.__file__, "loaded": loaded, "code": code,
                  "stdout": out.getvalue()}))
"""
_GEN = ["gen", "--b", "1", "--m", "5", "--n", "30", "--seed", "3", "--out", "{tmp}/d.csv"]


def _main_in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = hidim.cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("last", [["test", "{tmp}/d.csv", "--format", "json"],
                                  ["power", "--m", "6", "--n", "25", "--trials", "120",
                                   "--b-grid", "0,1,2", "--out", "{tmp}/p.csv"]],
                         ids=["test", "power"])
def test_scipy_special_loads_only_for_a_normal_cdf_or_quantile(tmp_path, last):
    """Importing hidim, ``verify`` and ``gen`` take no normal CDF or
    quantile, so they leave scipy.special unloaded; ``test`` and ``power``
    load it on first use and write what an in-process run writes.  Neither
    the imports nor ``verify`` load fractions or decimal."""
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    fresh.mkdir()
    here.mkdir()
    runs = [["verify", "isserlis"], ["verify", "all", "--trials", "200"], _GEN, last]
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP,
         json.dumps([[arg.format(tmp=fresh) for arg in argv] for argv in runs])],
        capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(proc.stdout)
    assert report["file"] == hidim.__file__
    # after the imports, verify isserlis, verify all, gen and the last run
    assert [special for special, _, _ in report["loaded"]] == [False, False, False, False, True]
    # verify computes f_partial exactly without the ~5 ms import of fractions
    assert [exact for _, *exact in report["loaded"][:3]] == [[False, False]] * 3
    assert report["code"] == 0
    assert _main_in_process([arg.format(tmp=here) for arg in _GEN])[0] == 0
    assert _main_in_process([arg.format(tmp=here) for arg in last]) == (0, report["stdout"])
    files = [{path.name: path.read_bytes() for path in tree.iterdir()} for tree in (here, fresh)]
    assert files[0] == files[1]


# Run in a fresh interpreter, so that its peak RSS is the kernel check's own:
# prints whether every check passed and how far the peak grew, in MB.
_KERNEL_RSS = """
import json, resource
from hidim import Seed
from hidim.sim import verify_kernels
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
checks = verify_kernels(0.5, 10, 1000000, Seed(0))
grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
print(json.dumps([all(c.passed for c in checks), grown]))
"""


def test_the_kernel_check_does_not_grow_with_its_draws():
    """A million kernel draws: the check holds one block of draws at a time
    and reduces it before the next, so its peak grows by far less than the
    61 MB that the draws' normals take together."""
    proc = subprocess.run([sys.executable, "-c", _KERNEL_RSS],
                          capture_output=True, text=True, timeout=300, check=True)
    passed, grown = json.loads(proc.stdout)
    assert passed and grown < 16, (passed, grown)
