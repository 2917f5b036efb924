"""Check the CSV writer's float kernel against ``repr`` on many seeded
random doubles: half of them uniform 64-bit patterns, half with exponents
in the range repr writes in fixed notation, where the kernel does its own
formatting. Not collected by pytest (too slow for the Tier-1 suite); run
it directly:

    PYTHONPATH=src python tests/float_repr_sweep.py [COUNT] [SEED]

COUNT defaults to 5,000,000 and SEED to 1. It exits 1 and prints the first
mismatches when the kernel's text differs from repr's for any value.
"""

import sys

import numpy as np

from marginlab._csvio import _float_slots

CHUNK = 1 << 16


def kernel_texts(values: np.ndarray) -> list[str]:
    slots = _float_slots(values)
    lines = np.column_stack([slots, np.full(len(slots), ord("\n"),
                                            dtype=np.uint8)])
    return lines.tobytes().translate(None, b"\0").decode().split("\n")[:-1]


def main(count: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    checked, mismatches, first = 0, 0, []
    while checked < count:
        n = min(CHUNK, count - checked)
        bits = rng.integers(0, 2 ** 64, size=n, dtype=np.uint64)
        fixed = bits[n // 2:]
        fixed &= np.uint64(2 ** 63 + 2 ** 52 - 1)
        fixed |= rng.integers(1023 - 14, 1023 + 54, size=fixed.size,
                              dtype=np.uint64) << np.uint64(52)
        values = bits.view(np.float64)
        expected = list(map(repr, values.tolist()))
        bad = [(e, g) for e, g in zip(expected, kernel_texts(values))
               if e != g]
        mismatches += len(bad)
        first += bad[:10 - len(first)]
        checked += n
    print(f"{checked} values, {mismatches} mismatches (repr, kernel): "
          f"{first}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    sys.exit(main(args[0] if args else 5_000_000,
                  args[1] if len(args) > 1 else 1))
