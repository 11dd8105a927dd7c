import hashlib

from nirscope import synth
from nirscope.pipeline import PipelineConfig, preprocess_dataset

# sha256 over hbo.tobytes() + hbr.tobytes() of every recording, in order.
# Recorded from the per-channel implementation, before preprocessing worked on
# (channels x samples) arrays; the array code must reproduce it bit for bit.
GOLDEN_HEMO_SHA256 = "415fff1a4564b3ebf4d2c024753e7adb4311cdf879ddc93ff1e3052faac573a1"


def test_preprocessed_hemo_matches_golden_digest():
    dataset, _ = synth.generate_dataset(n_patients=2, n_controls=2, seed=1)
    hemo = preprocess_dataset(dataset, PipelineConfig(seed=1))
    digest = hashlib.sha256()
    for rec in hemo.hemo:
        digest.update(rec.hbo.tobytes())
        digest.update(rec.hbr.tobytes())
    assert digest.hexdigest() == GOLDEN_HEMO_SHA256
