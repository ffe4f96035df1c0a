"""Regenerate golden_effects.json from a fresh n=20000 run.

Run from the repo root after any intentional change to the estimation path:
    python tests/data/regen_golden.py
The inputs (simulation seed 11, run seed 2, five folds, mean/glm/glm_sat
stack) must stay in sync with test_report.test_effect_table_matches_committed_golden.
The last digits of the table depend on the BLAS build and CPU kernel, so the
script prints the toolchain it ran on and, per float field, the largest
absolute change from the committed table; record both with the regeneration.
"""
import ctypes
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from medrule import oracle
from medrule.data import write_csv
from medrule.dgps import crossover_dgp
from medrule.report import load_config, run_pipeline


def print_toolchain() -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"python {platform.python_version()}, numpy {np.__version__}")
    print(f"blas: {blas.get('openblas configuration') or blas['name'] + ' ' + blas['version']}")
    # DYNAMIC_ARCH OpenBLAS picks its kernel at load time; ask it which one
    for lib_path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        get_core = getattr(ctypes.CDLL(str(lib_path)),
                           "scipy_openblas_get_corename64_", None)
        if get_core is not None:
            get_core.restype = ctypes.c_char_p
            print(f"openblas kernel: {get_core().decode()}")


def print_deltas(new: list, old: list) -> None:
    if len(new) != len(old):
        print(f"row count changed: {len(old)} -> {len(new)}")
        return
    for key in ("estimate", "se", "ci_low", "ci_high"):
        deltas = [abs(a[key] - b[key]) for a, b in zip(new, old)]
        moved = sum(d > 0.0 for d in deltas)
        print(f"{key}: max |delta| {max(deltas):.3g}, {moved} of {len(deltas)} rows moved")


def main() -> None:
    print_toolchain()
    here = Path(__file__).parent
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ds = oracle.simulate(crossover_dgp(), 20000, seed=11)
        write_csv(tmp / "data.csv",
                  {name: ds.column(name) for name in ds.schema.all_columns})
        config = {
            "data": str(tmp / "data.csv"),
            "roles": {"baseline": ["w"], "rule_covariates": ["w"],
                      "treatment": "A", "post_treatment": "Z",
                      "mediators": ["m"], "outcome": "Y"},
            "folds": 5, "seed": 2, "stack": ["mean", "glm", "glm_sat"],
            "blip_methods": ["stack", "adaptive-lasso"],
            "epsilon": 0.01, "output_dir": str(tmp / "out"), "threads": 1,
        }
        (tmp / "config.json").write_text(json.dumps(config))
        run_pipeline(load_config(tmp / "config.json"))
        golden = (tmp / "out" / "effects.json").read_text()
    path = here / "golden_effects.json"
    print_deltas(json.loads(golden), json.loads(path.read_text()))
    path.write_text(golden)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
