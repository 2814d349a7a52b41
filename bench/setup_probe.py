"""Time one cold set-up: import the package and parse a workload's pattern files.

Usage: python3 bench/setup_probe.py SRC_DIR WORK_DIR

Prints the elapsed seconds. run.py starts this in a fresh interpreter for
each set-up sample, since a second import in one process is free.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    src, work = sys.argv[1:3]
    started = time.perf_counter()
    sys.path.insert(0, src)
    from mirrorqam import cli, patterns

    for path in sorted(Path(work).glob("patterns-*.txt")):
        patterns.parse_pattern_file(path.read_text(encoding="utf-8"))
    elapsed = time.perf_counter() - started
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"imported mirrorqam from {cli.__file__}, not from {src}")
    print(repr(elapsed))


if __name__ == "__main__":
    main()
