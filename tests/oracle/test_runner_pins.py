"""Byte-identity pins for the differential runner.

Each row is the SHA-256 of a sweep's ``canonical_json()``.  The
canonical report holds every count, every discrepancy (with its shrunk
witness) and every native-check tally, so a change to how the runner
walks, batches, compares or tallies evaluations that alters any verdict
changes a digest.  The digests were recorded from the row-wise runner
(one oracle comparison per evaluation); a runner that computes the same
sweep another way must reproduce them byte for byte.

Every format/seed row runs on all three engine backends, which must
agree with each other as well as with the table.
"""

import hashlib

import pytest

from repro.engine import Engine, EngineConfig, in_process_engine
from repro.oracle import run_conformance
from repro.oracle import runner as runner_mod
from repro.oracle.runner import ENGINE_OPS, FORMATS_BY_NAME

#: ``--ftz both --daz both``
BOTH = ((False, False), (False, True), (True, False), (True, True))

#: (format, seed) -> digest over all six ops, 20-cell matrix
SWEEP_PINS = {
    ("tiny8", 3):
        "8d420fff6d5d710a39f15702ad604a6b5d36ec0c93555e71b96852479c82ffff",
    ("tiny8", 8):
        "ceb822f4c1720f4caeaea6edf5828056e692223ac077777f01ccc91e1d1f6a38",
    ("e5m2", 3):
        "b5446d2b7e1d8df512b03f28d9f40519fa145d158d73d46f797d4df654e3fa61",
    ("e5m2", 8):
        "5853941e408692a39e6aea227eaf0951d38a38b875ddda34aabe487e722f13c5",
    ("binary16", 3):
        "49421c7329d89aeec61e89224a3a7b56eb452b8eb809d19cf1054fe793e16cf2",
    ("binary16", 8):
        "d2861de07d072224b2c4480d32255572a735d0ad7c4ffccf7dc3e08785db5923",
    ("binary32", 3):
        "d405d20adb01521fa038a6b2025ea73d15359f2f503d3df5714d86e02175c436",
    ("binary32", 8):
        "67b52f9f279813cb0a35b3a36e4aa6026438bae23b0e92d18f6608f3f1dd6a24",
    ("binary64", 3):
        "cc666e96091e1b62294446d299e515fd52432ca06008e31e3309c7a00463da42",
    ("binary64", 8):
        "965db8f83e8583f563b1a0346a2b9626f25e98bdc5a2152bbb3809e2bec064ef",
    ("binary128", 3):
        "53ae1a36ebc3ea756bf40de924b70e440c133743d012722ed178e2460e0d00a2",
    ("binary128", 8):
        "cc73fba06818a629f266feac806790160caeea3e0ffd8a2987deb3bfc5bf3ed5",
}

#: tiny8 runs add/mul/sqrt exhaustively (every encoding pair fits the
#: budget); the wider formats run the boundary lattice then random fill
TINY8_OPS = ("add", "mul", "sqrt")
TINY8_BUDGET = 4096
BUDGET = 1200

#: binary16 mul under ``tininess="after"``: real flag-only
#: discrepancies, each shrunk; keyed by ``max_discrepancies``
AFTER_PINS = {
    100: "b18655f66a7e8e50a5a9b3dbfc988743be3d79ba64ca1c90a6d8a448b83c4ad3",
    3: "60835784878777137573610bb6ce47a4853be7860d446d56c743a853a812294e",
}

#: binary64 sweep cut into one slice versus three by ``plan_op_slices``
SLICED_PIN = (
    "fb6bd2cf1ea885904b53e9be9df5901df997dd877d1f788e5f6bdeff62f78ffd")


def _digest(report) -> str:
    return hashlib.sha256(report.canonical_json().encode()).hexdigest()


def _sweep(fmt_name: str, seed: int, backend: str):
    ops = TINY8_OPS if fmt_name == "tiny8" else tuple(ENGINE_OPS)
    budget = TINY8_BUDGET if fmt_name == "tiny8" else BUDGET
    return run_conformance(FORMATS_BY_NAME[fmt_name], ops, budget=budget,
                           seed=seed, env_combos=BOTH,
                           engine_backend=backend)


def _after(max_discrepancies: int):
    return run_conformance(FORMATS_BY_NAME["binary16"], ["mul"],
                           budget=6000, seed=1, tininess="after",
                           max_discrepancies=max_discrepancies)


class _ThreeSliceEngine(Engine):
    """The in-process engine, planning three slices per op."""

    shards_per_unit = 3


def _sliced(engine):
    return run_conformance(FORMATS_BY_NAME["binary64"],
                           ["add", "mul", "fma"], budget=2500, seed=5,
                           env_combos=BOTH, engine_backend="auto",
                           engine=engine)


@pytest.mark.parametrize("backend", ["scalar", "batch", "auto"])
@pytest.mark.parametrize("fmt_name,seed", sorted(SWEEP_PINS))
def test_sweep_digest(fmt_name, seed, backend):
    report = _sweep(fmt_name, seed, backend)
    assert report.clean
    assert _digest(report) == SWEEP_PINS[fmt_name, seed]


@pytest.mark.parametrize("max_discrepancies", sorted(AFTER_PINS))
def test_tininess_after_digest(max_discrepancies):
    report = _after(max_discrepancies)
    assert not report.clean
    assert len(report.discrepancies) <= max_discrepancies
    assert all(d.shrunk_operands is not None for d in report.discrepancies)
    assert _digest(report) == AFTER_PINS[max_discrepancies]


def test_one_slice_and_three_slices_merge_to_the_pin():
    one = _sliced(in_process_engine())
    engine = _ThreeSliceEngine(EngineConfig(cache_enabled=False))
    three = _sliced(engine)
    assert engine.last_report.shards == 9
    assert _digest(one) == _digest(three) == SLICED_PIN


def test_window_and_chunk_seams_do_not_show(monkeypatch):
    """Tiny evaluation windows and backend chunks cut cases, cells and
    discrepancies across seams; the report cannot change."""
    monkeypatch.setattr(runner_mod, "_EVAL_WINDOW", 97)
    monkeypatch.setattr(runner_mod, "_ENGINE_CHUNK", 13)
    assert _digest(_after(100)) == AFTER_PINS[100]
    assert _digest(_sweep("binary64", 3, "auto")) == SWEEP_PINS["binary64", 3]
