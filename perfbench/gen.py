"""Write one seeded zipf-duplicated stream to a ``.npy`` file.

Run as a separate process so the temporaries of generation (the zipf
weights and cumulative sums, several times the stream's size) never
enter the high-water RSS of the process that runs the system::

    python3 perfbench/gen.py OUT.npy SEED DISTINCT LENGTH
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.streams.synthetic import stream_with_duplicates  # noqa: E402


def main(argv: list[str]) -> int:
    out, seed, distinct, length = argv
    stream = stream_with_duplicates(
        int(distinct), int(length), model="zipf", seed=int(seed)
    )
    np.save(out, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
