"""Recompute the stored references that are too slow to recompute on every run.

    python3 benchmarks/make_references.py

The ideal regular volumes at the regular-sweep's dimensions d >= 5 come from
``ideal_volume_highprec``, the mpmath twin of the engine (a few seconds per d),
and are stored as decimal strings with 25 significant digits.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import mpmath  # noqa: E402

from simplexvol import ideal_volume_highprec  # noqa: E402

from workloads import REFERENCES, RegularSweep  # noqa: E402


def main():
    dims = sorted({d for d, kappa in RegularSweep.SWEEPS if kappa == -1.0 and d >= 5})
    refs = {str(d): mpmath.nstr(ideal_volume_highprec(d), 25) for d in dims}
    payload = {
        "command": "python3 benchmarks/make_references.py",
        "ideal_volume_highprec": refs,
    }
    REFERENCES.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES.name}: {refs}")


if __name__ == "__main__":
    main()
