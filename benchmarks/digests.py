"""The three bitwise digests a change to the numerics is checked against.

    python3 benchmarks/digests.py

Prints, at one BLAS thread, the first 8 hex digits of:
  - gate-train: the state digest (`checkpoint.state_digest`, sha256 of
    theta||m||v) after 40 train steps from the gate-train workload's
    `setup()` at seed 5;
  - long-train: the same after 3 long-train steps;
  - gate-decode: sha256 of the beam outputs of the first 20 test documents
    of the gate-decode workload at seed 101, the benchmark's `token_digest`.

It reads the workloads in `benchmarks/perf/` and changes nothing there.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pinned before numpy loads: the digests hold at one thread

import hashlib  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "perf")]

from convsum import checkpoint, decoding  # noqa: E402
from workloads import GateDecode, GateTrain, LongTrain  # noqa: E402


def train_digest(workload, steps: int) -> str:
    workload.setup()
    tr = workload.trainer
    tr.train(until_step=steps)
    return checkpoint.state_digest(tr.model.params.theta, tr.opt.m, tr.opt.v)[:8]


def decode_digest(workload) -> str:
    workload.setup()
    head = [decoding.beam_search(workload.model, src, workload.dec_cfg)
            for src, _ in workload.test_pairs[:workload.DIGEST_DOCS]]
    return hashlib.sha256(json.dumps(head).encode()).hexdigest()[:8]


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        print("gate-train ", train_digest(GateTrain(5, workdir), 40))
        print("long-train ", train_digest(LongTrain(5, workdir), 3))
        print("gate-decode", decode_digest(GateDecode(101, workdir)))


if __name__ == "__main__":
    main()
