"""Deterministic CSV emission: header row, comma-separated, 17 significant digits.

Data files never carry timestamps, so identical runs produce byte-identical
bodies; run metadata lives in the manifest instead.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 1024  # rows formatted together; bounds the text held in memory


def write_csv(path, columns: dict) -> None:
    """Write named columns (equal-length sequences) as a CSV file.

    Booleans are written as 0/1, integers exactly, and floats to 17 significant digits.
    """
    names = list(columns)
    arrays = [np.asarray(columns[n]) for n in names]
    length = arrays[0].shape[0]
    for n, arr in zip(names, arrays):
        if arr.shape[0] != length:
            raise ValueError(f"column {n!r} has length {arr.shape[0]}, expected {length}")
    row = ",".join("%d" if arr.dtype.kind in "biu" else "%.17g" for arr in arrays) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(0, length, _BLOCK):
            fh.write("".join(map(row.__mod__, zip(*(a[i:i + _BLOCK].tolist() for a in arrays)))))
