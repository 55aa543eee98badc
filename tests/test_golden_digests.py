"""SHA-256 digests of seeded outputs, recorded before the dense-network
objective and the shared label sampler replaced their hand-written forms.

Each output is hashed as little-endian float64 (labels as int64) bytes, so
any drift in a single bit fails.  The label-noise table goes through numpy's
matrix products; the digests were recorded on x86-64 with numpy's bundled
OpenBLAS.  To print the digests of the code under ``src``:

    PYTHONPATH=src python3 tests/test_golden_digests.py
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from calerr import (
    label_noise_experiment,
    sample_mixed_difficulty_logits,
    sample_overconfident_logits,
)

DIGESTS = {
    "label-noise": "eaa8e74e3cfffeca47f2a1ec8d1599621a7d1b80cea3917d9bfd1641de1faf42",
    "overconfident": "b119baf8f84d5577ab3d1844c60f15e99f32fcb276c0f4b0f504454c58b421ac",
    "mixed-difficulty": "5b4eb3e55ac9c85233d7855fc63136a51f5d9997a3cb3345badeef0b6c5f16f0",
}


def sha256(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()


def outputs() -> dict[str, str]:
    noise = label_noise_experiment(
        seed=3, levels=[0.0, 0.02, 0.05], n_train=200, n_test=80, train_iterations=10
    )
    table = np.array([dataclasses.astuple(r) for r in noise], dtype=np.float64)
    over = sample_overconfident_logits(64, 5, seed=7)
    mixed = sample_mixed_difficulty_logits(64, 5, seed=7)
    return {
        "label-noise": sha256(table),
        "overconfident": sha256(over.logits, over.labels.astype(np.int64)),
        "mixed-difficulty": sha256(mixed.logits, mixed.labels.astype(np.int64)),
    }


def test_digests_unchanged():
    assert outputs() == DIGESTS


if __name__ == "__main__":
    for name, value in outputs().items():
        print(f'    "{name}": "{value}",')
