"""Time the exact kernel at scale through bimop's public API.

    python3 tools/kernel_scale.py [SRC_DIR]

imports bimop from SRC_DIR, the directory that holds the package (default:
the repository's src).  For each input it builds a fresh system per run and
times type2 and then type1 of one index, best of 3; both read one
factorisation of M_n.  It then reads det(M_n) from normality.  One line per
input: "<system> <index> <best time> ms, det <numerator bits>/<denominator
bits> bits".
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from pathlib import Path

RUNS = 3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src")
    sys.path.insert(0, str(src.resolve()))
    import bimop as bm

    def pair():
        # the README system: (x e^{-x}) x (y^{23/10} e^{-y}) and its sibling
        return bm.MeasureSystem(measures=(
            bm.TensorMeasure(bm.Laguerre(1), bm.Laguerre(Fraction(23, 10))),
            bm.TensorMeasure(bm.Laguerre(Fraction(11, 5)), bm.Laguerre(Fraction(17, 5)))))

    def univariate():
        return bm.UniMeasureSystem(families=(bm.Laguerre(1), bm.Laguerre(Fraction(11, 5))))

    calls = {"pair": (pair, bm.type2, bm.type1, bm.normality),
             "univariate": (univariate, bm.uni_type2, bm.uni_type1, bm.uni_normality)}
    for name, n in (("pair", (20, 20)), ("pair", (30, 30)),
                    ("univariate", (20, 20)), ("univariate", (30, 30))):
        make, type2, type1, normality = calls[name]
        best = float("inf")
        for _ in range(RUNS):
            sys_ = make()
            t0 = time.perf_counter()
            type2(sys_, n)
            type1(sys_, n)
            best = min(best, time.perf_counter() - t0)
        det = Fraction(normality(sys_, n).det)
        print(f"{name} {n} {best * 1e3:.1f} ms, det {det.numerator.bit_length()}/"
              f"{det.denominator.bit_length()} bits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
