#!/usr/bin/env python3
"""Print the lines of each source file that the tests never ran.

Usage (from the repository root):
    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS="-O0 --coverage" \\
        -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-cov -j && (cd build-cov && ctest -j)
    python3 tools/coverage_report.py build-cov src/sched src/dse

Runs gcov (it ships with GCC) on every .gcda file under the build
directory and merges the line counts of the sources under the given
directories across translation units: a line counts as run if any
unit ran it, so a header's inline code is judged once. Prints, per
file, how many of its executable lines never ran and which, as line
ranges. It reports and gates nothing: the exit status is 0 unless
it is called wrongly or gcov fails.
"""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINE = re.compile(r"^\s*([-#=0-9*]+):\s*(\d+):")


def gcov_listing(build, gcda):
    """gcov's text listing of one .gcda file (all of its sources)."""
    out = subprocess.run(
        ["gcov", "-t", "-o", os.path.dirname(gcda), gcda],
        capture_output=True, text=True, check=True, cwd=build)
    return out.stdout


def merge(build, listing, dirs, runs):
    """Fold @p listing into @p runs: {file: {line: ran}} under @p dirs.
    Relative source paths are the compiler's, from @p build."""
    source = None
    for text in listing.splitlines():
        m = LINE.match(text)
        if not m:
            continue
        count, line = m.group(1), int(m.group(2))
        if line == 0:
            if text.split(":", 2)[2].startswith("Source:"):
                path = os.path.relpath(os.path.realpath(os.path.join(
                    build, text.split("Source:", 1)[1])), ROOT)
                source = path if any(
                    path.startswith(d.rstrip("/") + "/") for d in dirs) \
                    else None
            continue
        if source is None or count == "-":
            continue
        ran = not count.startswith(("#", "="))
        lines = runs.setdefault(source, {})
        lines[line] = lines.get(line, False) or ran


def ranges(lines):
    """[3, 4, 5, 9] -> "3-5, 9"."""
    out = []
    for n in sorted(lines):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in out)


def main(argv):
    if len(argv) < 3:
        sys.stderr.write(__doc__)
        return 2
    build, dirs = os.path.abspath(argv[1]), argv[2:]
    runs = {}
    for top, _, files in os.walk(build):
        for name in sorted(files):
            if name.endswith(".gcda"):
                gcda = os.path.join(top, name)
                merge(build, gcov_listing(build, gcda), dirs, runs)
    total = missed = 0
    for source in sorted(runs):
        lines = runs[source]
        never = [n for n, ran in lines.items() if not ran]
        total += len(lines)
        missed += len(never)
        print("%s: %d of %d lines never ran%s" % (
            source, len(never), len(lines),
            (": " + ranges(never)) if never else ""))
    print("total: %d of %d lines never ran" % (missed, total))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
