"""Compare two archives of ``tools/output_digest.py --save``, value by value.

    python3 tools/output_compare.py before.npz after.npz

Prints one line per key, ``<label>/<name> <result>``, in the first
archive's order, then the keys only the second holds.  The result is
``bitwise`` where both archives hold the same dtype, shape and bytes;
``reshaped`` with both shapes where they hold the same dtype, size and
bytes in different shapes (the values did not move, only the layout);
for a float array that differs, ``max|a - b| / max|a|`` with a from the
first archive (``max|a - b|`` alone, marked ``abs``, where a is all zero);
``differs`` for any other array that differs (a written file's bytes,
an exit code); ``shape`` for float arrays whose shapes differ, and
``missing`` where one archive lacks the key.  Exits 0 when every entry
reads ``bitwise``, 1 otherwise.
"""

import sys

import numpy as np


def compare(a, b):
    """The result text of one key held by both archives."""
    if a.dtype == b.dtype and a.tobytes() == b.tobytes():
        return "bitwise" if a.shape == b.shape else f"reshaped {a.shape} -> {b.shape}"
    if a.dtype.kind != "f" or b.dtype.kind != "f":
        return "differs"
    if a.shape != b.shape:
        return f"shape {a.shape} -> {b.shape}"
    gap, scale = np.max(np.abs(a - b)), np.max(np.abs(a))
    return f"{gap / scale:.3e}" if scale > 0.0 else f"{gap:.3e} abs"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit("usage: output_compare.py A.npz B.npz")
    with np.load(argv[0]) as first, np.load(argv[1]) as second:
        keys = first.files + [key for key in second.files if key not in first.files]
        width = max(map(len, keys), default=0)
        results = [compare(first[key], second[key])
                   if key in first.files and key in second.files else "missing"
                   for key in keys]
    for key, result in zip(keys, results):
        print(f"{key:<{width}}  {result}")
    return 0 if all(result == "bitwise" for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
