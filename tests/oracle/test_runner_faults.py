"""Planted engine faults: the runner's discrepancy path for every kind.

The engine is believed conformant, so the only real discrepancies are
the flag-only ones ``tininess="after"`` produces.  Here the backend the
runner resolves is wrapped (a monkeypatch; no source edit) so that it
corrupts chosen lanes: result bit 0 on some, the inexact flag on
others, both on a third set.  Lanes are chosen by a function of their
operands alone, so a shrink probe of the same operands sees the same
fault.  The pins cover the kinds in stream order, the
``max_discrepancies`` cap, the agreement tallies, the discrepancy
counter and the shrunk witnesses.
"""

import numpy as np
import pytest

from repro.fpenv.flags import FPFlag
from repro.fpenv.rounding import RoundingMode
from repro.oracle import check_case, run_conformance
from repro.oracle import runner as runner_mod
from repro.softfloat import get_backend
from repro.softfloat.backend import BatchResult, SoftFloatBackend
from repro.softfloat.formats import BINARY32
from repro.telemetry import telemetry_session

BOTH = ((False, False), (False, True), (True, False), (True, True))
#: lanes whose key is VALUE get bit 0 flipped, FLAGS the inexact flag,
#: BOTH_KINDS both
MODULUS, VALUE, FLAGS, BOTH_KINDS = 23, 1, 2, 3
CAP = 12


def _lane_key(operands) -> np.ndarray:
    first = np.asarray(operands[0], dtype=np.uint64)
    last = np.asarray(operands[-1], dtype=np.uint64)
    mixed = first * np.uint64(0x9E3779B1) + last * np.uint64(0x85EBCA77)
    return (mixed >> np.uint64(11)) % np.uint64(MODULUS)


def _expected_kind(operands: tuple[int, ...]) -> str | None:
    key = int(_lane_key([[x] for x in operands])[0])
    return {VALUE: "value", FLAGS: "flags", BOTH_KINDS: "both"}.get(key)


class PlantedBackend(SoftFloatBackend):
    """The scalar reference with faults planted on keyed lanes."""

    name = "planted"

    def __init__(self) -> None:
        self.inner = get_backend("scalar")

    def supports(self, *args, **kwargs) -> bool:
        return self.inner.supports(*args, **kwargs)

    def run_packed(self, op, fmt, operands, mode, ftz, daz, dst_fmt=None):
        result = self.inner.run_packed(op, fmt, operands, mode, ftz, daz,
                                       dst_fmt)
        key = _lane_key(operands)
        bits, flags = result.bits.copy(), result.flags.copy()
        bits[(key == VALUE) | (key == BOTH_KINDS)] ^= np.uint64(1)
        flags[(key == FLAGS) | (key == BOTH_KINDS)] ^= np.uint8(
            FPFlag.INEXACT.value)
        return BatchResult(bits, flags)


@pytest.fixture
def planted(monkeypatch):
    backend = PlantedBackend()
    monkeypatch.setattr(runner_mod, "get_backend", lambda spec: backend)
    return backend


def _run(max_discrepancies=CAP):
    with telemetry_session() as session:
        report = run_conformance(BINARY32, ["add", "sqrt"], budget=800,
                                 seed=4, env_combos=BOTH,
                                 max_discrepancies=max_discrepancies)
    return report, session.metrics.snapshot()


#: op -> (cases, evals, value_agree, flag_agree, discrepancies,
#: native_evals, native_agree)
STATS_PINS = {
    "add": (610, 800, 753, 757, 67, 40, 40),
    "sqrt": (610, 800, 751, 736, 92, 40, 38),
}

#: (op, kind, operands, rounding, ftz, daz, shrunk operands), stream order
DISCREPANCY_PINS = [
    ("add", "value", (0x00000000, 0x7f7ffffe), "nearest-even", False, True,
     (0x00000000, 0x5f7ffffe)),
    ("add", "value", (0x00000000, 0x80800001), "toward-zero", False, True,
     (0x00000000, 0x80800001)),
    ("add", "value", (0x00000000, 0xbf7fffff), "toward-zero", True, True,
     (0x00000000, 0xbf000000)),
    ("add", "flags", (0x00000000, 0xff800000), "toward-positive", True, True,
     (0x00000000, 0xff800000)),
    ("add", "value", (0x00000000, 0x7fc00000), "toward-negative", False, False,
     (0x00000000, 0x7fc00000)),
    ("add", "value", (0x00000001, 0x00800001), "toward-zero", True, False,
     (0x00000001, 0x00800001)),
    ("add", "value", (0x00000001, 0x3f7fffff), "toward-positive", False, False,
     (0x00000001, 0x3f000000)),
    ("add", "flags", (0x00000001, 0x7f800000), "toward-negative", False, False,
     (0x00000001, 0x7f800000)),
    ("add", "both", (0x00000001, 0x807ffffe), "nearest-even", False, True,
     (0x00000001, 0x807ffffe)),
    ("add", "flags", (0x00000001, 0xbf800001), "nearest-away", True, False,
     (0x00000001, 0xbf800001)),
    ("add", "value", (0x00000001, 0xffa00000), "toward-negative", False, True,
     (0x00000001, 0xffa00000)),
    ("add", "both", (0x00000002, 0x007ffffe), "nearest-even", True, False,
     (0x00000002, 0x007ffffe)),
]


def test_planted_faults_are_reported_by_kind_in_stream_order(planted):
    report, snapshot = _run()
    rows = [
        (d.op, d.kind, d.operands, d.rounding, d.ftz, d.daz,
         d.shrunk_operands)
        for d in report.discrepancies
    ]
    assert rows == DISCREPANCY_PINS
    assert {row[1] for row in rows} == {"value", "flags", "both"}
    for disc in report.discrepancies:
        assert disc.kind == _expected_kind(disc.operands)
        assert _expected_kind(disc.shrunk_operands) is not None
        assert check_case(disc.op, BINARY32, disc.shrunk_operands,
                          RoundingMode(disc.rounding), ftz=disc.ftz,
                          daz=disc.daz) is not None
    for op, stats in report.op_stats.items():
        assert (stats.cases, stats.evals, stats.value_agree,
                stats.flag_agree, stats.discrepancies, stats.native_evals,
                stats.native_agree) == STATS_PINS[op]
        assert snapshot[f"oracle.discrepancies_total{{op={op}}}"][
            "value"] == stats.discrepancies


def test_cap_bounds_the_records_not_the_counts(planted):
    capped, _ = _run(max_discrepancies=5)
    full, _ = _run()
    assert len(capped.discrepancies) == 5
    assert capped.discrepancies == full.discrepancies[:5]
    for op, stats in full.op_stats.items():
        assert (capped.op_stats[op].to_dict(timing=False)
                == stats.to_dict(timing=False))
