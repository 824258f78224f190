"""Golden record bytes for fixed master seeds.

The digests pin the exact RNG stream and the on-disk encoding of
records.jsonl and trajectory.json. A change that alters either on purpose
re-captures them and says so in CHANGES.md; any other change must leave
them untouched.
"""

import hashlib
import json

from hmajority.cli import main
from hmajority.montecarlo import SweepSpec, write_sweep

GOLDEN = {
    "sweep_categorical":
        "3c4d1d1b3b00ffb1d28f6ae636372b92876ac921b22a4d037d9ff8e0bbd7860c",
    "simulate_chain_two_chunks":
        "ba94987a749d88f9b91214d99ea2ede0d6f36d93b154404740daeba303a23b76",
    "simulate_oracle_level":
        "67f85864282bcb293c70f4762d3419cc0f99e018e12357da2aa348c0502f3075",
    "simulate_top_counts":
        "aeb86d9218eb780856e632034a079255872252f690fd01d546692b27e6629c57",
    "simulate_auto":
        "ba1e1ef72df91049e96b4c903dfd589fac3a0f70e0cde017a16a2c6bfb44866b",
    "sweep_auto_small_h":
        "0a4be021ff396697d854152f8271b4a16722cf8bf746e607023591592adc6610",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _simulate(tmp_path, name, config) -> str:
    config_path = tmp_path / f"{name}.json"
    config_path.write_text(json.dumps({"schema_version": 1, **config}))
    out = tmp_path / name
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    return _sha256(out / "trajectory.json")


def test_sweep_records_bytes(tmp_path, pin_sweep_step_mode):
    # h = 3 < k: every round takes each agent's mode from its draw ids
    pin_sweep_step_mode("agent_level")
    spec = SweepSpec(
        ns=(2000,), ks=(8, 64), hs=(3,), bias_multiplier=2.0,
        trials=2, master_seed=20260417, max_rounds=300,
    )
    # the writer that `hmajority sweep` runs
    assert write_sweep(spec, str(tmp_path)) == (4, 0)
    assert _sha256(tmp_path / "records.jsonl") == GOLDEN["sweep_categorical"]


def test_trajectory_bytes(tmp_path, capsys):
    digests = {
        # k = 4 <= h = 5: the chain path, n = 70 000 rows in two chunks, the
        # first of four chain sub-blocks; rows leave the chain once their
        # leader is out of reach
        "simulate_chain_two_chunks": _simulate(tmp_path, "chain", {
            "counts": [20000, 18000, 17000, 15000], "h": 5, "max_rounds": 6,
            "step_mode": "agent_level", "seed": 41,
        }),
        "simulate_oracle_level": _simulate(tmp_path, "oracle", {
            "counts": [150, 130, 120, 100], "h": 3, "max_rounds": 40,
            "step_mode": "oracle_level", "seed": 43,
        }),
        # k = 80 > 64: rounds keep only the top counts plus an "other" bucket
        "simulate_top_counts": _simulate(tmp_path, "top", {
            "counts": [60] + [30] * 79, "h": 3, "max_rounds": 5,
            "step_mode": "agent_level", "seed": 47,
        }),
    }
    capsys.readouterr()
    for name, digest in digests.items():
        assert digest == GOLDEN[name], name


def test_auto_trajectory_bytes(tmp_path, capsys, round_paths):
    # the default step mode from a balanced start at n = 1e4, h = 3, k = 64:
    # agent rounds while 17 or more opinions live, oracle rounds once the
    # live opinions collapse
    digest = _simulate(tmp_path, "auto", {
        "counts": [157] * 16 + [156] * 48, "h": 3, "max_rounds": 200, "seed": 53,
    })
    capsys.readouterr()
    assert set(round_paths) == {"step", "oracle_step"}
    assert digest == GOLDEN["simulate_auto"]


def test_auto_sweep_records_bytes(tmp_path, round_paths):
    # the default step mode at n = 1e4, h = 3, k = 8 from a balanced start:
    # oracle rounds draw Multinomial(n, q) with q from the Loader-form
    # Poisson factors, and on these near-symmetric rounds an ulp of q
    # changes the draw, so trial 4 pins those factors' bits
    spec = SweepSpec(ns=(10**4,), ks=(8,), hs=(3,), trials=5, master_seed=50)
    assert write_sweep(spec, str(tmp_path)) == (5, 0)
    assert "oracle_step" in round_paths
    assert _sha256(tmp_path / "records.jsonl") == GOLDEN["sweep_auto_small_h"]
