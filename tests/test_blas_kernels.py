"""The same runs under different OpenBLAS kernels agree to declared bounds.

OpenBLAS built with DYNAMIC_ARCH picks its kernel at run time, and
OPENBLAS_CORETYPE forces one.  The runs go to subprocesses, since the
kernel is chosen when the library loads.  A forced kernel the CPU cannot
run dies on an illegal instruction, so the test runs only on a CPU with
AVX2, the most either forced kernel needs (Haswell; Prescott needs SSE3).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blas_compare import compare_trees

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("fig2-bell", "fig3", "fig3-control", "fig4", "fig6")


def _dynamic_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def _has_avx2() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX2"))


pytestmark = pytest.mark.skipif(
    not (_dynamic_openblas() and _has_avx2()),
    reason="needs numpy on a DYNAMIC_ARCH OpenBLAS and a CPU with AVX2")

# each config at grid.n = 100, in one process per kernel
_RUN = """
import sys
from pathlib import Path
from priondyn.cli import main
for cfg in map(Path, sys.argv[2:]):
    experiment = next(line.split("=")[1].strip() for line in cfg.read_text().splitlines()
                      if line.startswith("experiment"))
    if main([experiment, "--config", str(cfg), "--out", str(Path(sys.argv[1], cfg.stem))]):
        sys.exit("%s failed" % cfg.stem)
"""


def _run(tmp_path: Path, coretype) -> Path:
    configs = []
    for name in CONFIGS:
        text = (ROOT / "configs" / (name + ".cfg")).read_text()
        cfg = tmp_path / (name + ".cfg")
        cfg.write_text("".join("grid.n = 100\n" if line.startswith("grid.n") else line
                               for line in text.splitlines(keepends=True)))
        configs.append(str(cfg))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")]))
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    out = tmp_path / (coretype or "default")
    subprocess.run([sys.executable, "-W", "error", "-c", _RUN, str(out), *configs],
                   env=env, check=True)
    return out


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("default"), None)


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_outputs_agree_across_blas_kernels(reference, tmp_path, coretype):
    # counters equal exactly, every float within its key's bound
    # (tests/blas_compare.py); the bytes may differ
    assert compare_trees(reference, _run(tmp_path, coretype)) == []
