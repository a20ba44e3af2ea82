"""The benchmark harness runs end to end at tiny sizes.

perfbench/ drives the package through the CLI and also reaches into it
directly (init_params, ModelParams.tensors, PRETRAIN_TENSORS), so a change
to those can break the benchmark without breaking any other test. Its
set-up writes the lstm-rf checkpoint as getattr(init_params(...), name) for
each name in PRETRAIN_TENSORS, so PRETRAIN_TENSORS must name ModelParams
fields only. Its tracer wraps `numerics.RmsPropState.step` with the fixed
signature (self, tensor_name, params, grads), so `step` must keep it. The
smoke mode checks correctness gates only, never timings.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_runs_clean():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "smoke: ok" in proc.stdout
