"""Write refs.json: the partners' couplings v, and the zetas and shooting
log-determinants that the ``determinants`` workload checks against.

    python3 bench/make_refs.py

The stored values come from the program at the commit that introduced the
benchmark; regenerate them only on purpose, since they are the gate that
catches a change in what ``zeta_from_det`` and ``shooting_det`` return.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from oscdet.potential import PotentialSpec, symanzik_map  # noqa: E402
from oscdet.spectral import shooting_det, zeta_from_det  # noqa: E402

from workloads import PARTNERS, REFS_PATH  # noqa: E402


def main():
    refs = {}
    for N, g in PARTNERS:
        v, _ = symanzik_map(2, N, g, 0.0)
        spec = PotentialSpec.trinomial(N, 2, v)
        d = shooting_det(spec, 0.0)
        refs[f"{N} {g!r}"] = {
            "v": v,
            "z1": zeta_from_det(spec, 1).value,
            "zp1": zeta_from_det(spec, 1, skew=True).value,
            "z2": zeta_from_det(spec, 2).value,
            "log_full": d.log_abs_full,
            "log_skew": d.log_abs_skew,
        }
    REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
