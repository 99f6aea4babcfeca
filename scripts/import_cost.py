#!/usr/bin/env python3
"""Report what the fourlevel package costs to compile and to import.

For each source tree given (default: this repository's src/), prints

  - each src/fourlevel/*.py module's compile() time, the least of
    COMPILES runs, and their sum;
  - the summed `python -X importtime` self time of the fourlevel modules
    of `import fourlevel.cli`, the median of INTERPRETERS fresh
    interpreters, once compiling the package from source and once from
    cached bytecode; their difference is what compiling costs an import.

The interpreters import a copy of the package, with
PYTHONDONTWRITEBYTECODE=1: from source, a copy that has no __pycache__,
as an interpreter does that finds no cached bytecode; cached, a copy whose
__pycache__ compileall writes first.  numpy and the standard library keep
their bytecode either way.  The script only reports; it compares nothing
and fails only if a compile or an import fails.

    python scripts/import_cost.py [SRC ...]
"""

import argparse
import compileall
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
#: compile() runs per module (the least is taken) and fresh interpreters (the median).
COMPILES = 50
INTERPRETERS = 5
#: `-X importtime` lines: self and cumulative microseconds, then the module.
IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s*(\S+)")


def compile_seconds(path: Path) -> float:
    """The least time of compile() on the module's source, over COMPILES runs."""
    source = path.read_text()
    best = float("inf")
    for _ in range(COMPILES):
        start = time.perf_counter()
        compile(source, str(path), "exec", dont_inherit=True)
        best = min(best, time.perf_counter() - start)
    return best


def import_self_seconds(src: Path, cached: bool) -> float:
    """The fourlevel modules' summed -X importtime self time of one fresh
    interpreter that imports the package from cached bytecode (cached) or
    compiles it from source."""
    with tempfile.TemporaryDirectory() as tmp:
        package = Path(tmp) / "fourlevel"
        shutil.copytree(src / "fourlevel", package, ignore=shutil.ignore_patterns("__pycache__"))
        if cached and not compileall.compile_dir(package, quiet=1):
            raise RuntimeError(f"compileall failed on {package}")
        env = {**os.environ, "PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fourlevel.cli"],
            env=env, cwd=tmp, capture_output=True, text=True, timeout=120, check=True,
        )
    seen, total = set(), 0
    for line in proc.stderr.splitlines():
        m = IMPORT_LINE.match(line)
        if m and (m.group(2) == "fourlevel" or m.group(2).startswith("fourlevel.")) and m.group(2) not in seen:
            seen.add(m.group(2))
            total += int(m.group(1))
    return total * 1e-6


def run(args=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("src", type=Path, nargs="*", default=[REPO / "src"], help="source trees holding fourlevel/")
    opts = parser.parse_args(args)
    for src in opts.src:
        modules = sorted((src / "fourlevel").glob("*.py"))
        times = {path.stem: compile_seconds(path) for path in modules}
        lines = sum(len(path.read_text().splitlines()) for path in modules)
        print(f"{src}: {len(modules)} modules, {lines} lines")
        for name, seconds in times.items():
            print(f"  compile_s {name:<12} {seconds * 1e3:8.3f} ms")
        print(f"  compile_s {'total':<12} {sum(times.values()) * 1e3:8.3f} ms (least of {COMPILES} each)")
        for cached, how in ((False, "from source"), (True, "cached bytecode")):
            imports = [import_self_seconds(src, cached) for _ in range(INTERPRETERS)]
            print(f"  import_self_s fourlevel {statistics.median(imports) * 1e3:8.3f} ms"
                  f" (median of {INTERPRETERS} fresh interpreters, {how})")
    return 0


if __name__ == "__main__":
    sys.exit(run())
