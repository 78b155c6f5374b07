"""Fixed reference job that measures how fast the machine is right now.

    python3 perfbench/reference.py OUT_DIR

Imports numpy, runs a Viterbi-style recurrence over fixed random scores
and writes small files through temp-file-and-rename, the same mix of
interpreter start, small numpy operations and file creation the
landmark-frames commands spend their time on. It uses no program code,
so no change to the program moves its time.
"""

import os
import sys
import tempfile

import numpy as np

FRAMES = 20000
FILES = 300


def main(out: str) -> int:
    rng = np.random.default_rng(0)
    trans = rng.normal(size=(24, 24))
    emissions = rng.normal(size=(FRAMES, 24))
    columns = np.arange(24)
    delta = emissions[0]
    for row in emissions[1:]:
        cand = delta[:, None] + trans
        best = np.argmax(cand, axis=0)
        delta = cand[best, columns] + row
        delta -= delta.max()
    os.makedirs(out)
    line = " ".join(str(int(v)) for v in np.argsort(delta)) + "\n"
    for i in range(FILES):
        fd, tmp = tempfile.mkstemp(dir=out, prefix=".tmp-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(line * 10)
        os.replace(tmp, os.path.join(out, f"f{i:04d}"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
