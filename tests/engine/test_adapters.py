"""The bit-identity contract: one job per sweep, one answer per job.

``run_conformance``, ``run_study`` and ``corpus_outcomes`` each build
one engine job.  Their output must be byte-identical — same canonical
JSON, same rendered text — on the default in-process engine, on an
in-process engine with a result cache (again when every shard is a
cache hit), and on a two-worker pool.
"""

import json

import pytest

from repro.analysis.study import run_study
from repro.engine import Engine, EngineConfig
from repro.oracle import FORMATS_BY_NAME
from repro.oracle.runner import run_conformance
from repro.staticfp.corpus import corpus_outcomes


def _engine(workers: int, **overrides) -> Engine:
    defaults = dict(workers=workers, shard_timeout=120.0,
                    cache_enabled=False)
    defaults.update(overrides)
    return Engine(EngineConfig(**defaults))


def _conformance(backend: str):
    fmt = FORMATS_BY_NAME["binary16"]

    def run(engine):
        return run_conformance(
            fmt, ["add", "mul"], budget=1200, seed=754,
            engine_backend=backend, engine=engine,
        ).canonical_json()

    return run


def _study(engine):
    results = run_study(seed=11, n_developers=30, n_students=10,
                        engine=engine)
    return results.to_json() + results.render()


def _corpus(engine):
    return json.dumps(corpus_outcomes(engine), sort_keys=True)


JOBS = {
    "conformance-scalar": _conformance("scalar"),
    "conformance-batch": _conformance("batch"),
    "conformance-auto": _conformance("auto"),
    "study": _study,
    "corpus": _corpus,
}


@pytest.mark.parametrize("job", sorted(JOBS))
def test_output_identical_on_every_engine(job):
    run = JOBS[job]
    default = run(None)

    cached = _engine(0, cache_enabled=True)
    assert run(cached) == default
    assert cached.last_report.from_cache == 0
    assert run(cached) == default
    assert cached.last_report.from_cache == cached.last_report.shards

    pool = _engine(2)
    assert run(pool) == default
    assert pool.last_report.parallel


@pytest.fixture(scope="module")
def serial_binary16_report():
    fmt = FORMATS_BY_NAME["binary16"]
    return run_conformance(fmt, ["add", "mul"], budget=1200, seed=754)


class TestOracleAdapter:
    def test_serial_engine_is_bit_identical(self, serial_binary16_report):
        """In process, the sweep plans one shard per op."""
        fmt = FORMATS_BY_NAME["binary16"]
        eng = _engine(0)
        report = run_conformance(fmt, ["add", "mul"], budget=1200,
                                 seed=754, engine=eng)
        assert eng.last_report.shards == 2
        assert not eng.last_report.parallel
        assert (report.canonical_json()
                == serial_binary16_report.canonical_json())

    def test_two_workers_bit_identical(self, serial_binary16_report):
        """A pool plans 2 x workers slices per op."""
        fmt = FORMATS_BY_NAME["binary16"]
        eng = _engine(2)
        report = run_conformance(fmt, ["add", "mul"], budget=1200,
                                 seed=754, engine=eng)
        assert eng.last_report.shards == 8
        assert (report.canonical_json()
                == serial_binary16_report.canonical_json())

    def test_exhaustive_format_bit_identical(self):
        """tiny8's exhaustive path shards identically too."""
        fmt = FORMATS_BY_NAME["tiny8"]
        serial = run_conformance(fmt, ["add"], budget=60000, seed=7)
        sharded = run_conformance(fmt, ["add"], budget=60000, seed=7,
                                  engine=_engine(2))
        assert sharded.canonical_json() == serial.canonical_json()

    def test_cached_rerun_bit_identical(self, serial_binary16_report):
        fmt = FORMATS_BY_NAME["binary16"]
        eng = Engine(EngineConfig(workers=0, cache_enabled=True))
        kwargs = dict(budget=1200, seed=754, engine=eng)
        run_conformance(fmt, ["add", "mul"], **kwargs)
        cached = run_conformance(fmt, ["add", "mul"], **kwargs)
        assert eng.last_report.from_cache == eng.last_report.shards
        assert (cached.canonical_json()
                == serial_binary16_report.canonical_json())

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown ops"):
            run_conformance(FORMATS_BY_NAME["binary16"], ["nope"])


class TestStudyAdapter:
    def test_sharded_study_matches_serial(self, study):
        sharded = run_study(seed=754, n_developers=199, n_students=52,
                            engine=_engine(2))
        assert sharded.to_json() == study.to_json()
        assert sharded.render() == study.render()

    def test_worker_count_does_not_change_records(self):
        one = run_study(seed=11, n_developers=30, n_students=10,
                        engine=_engine(0))
        two = run_study(seed=11, n_developers=30, n_students=10,
                        engine=_engine(2))
        assert [r.to_dict() for r in one.responses] == \
            [r.to_dict() for r in two.responses]


class TestCorpusAdapter:
    def test_outcomes_match_serial(self):
        assert corpus_outcomes(_engine(2)) == corpus_outcomes()

    def test_summary_and_golden_accept_sharded_outcomes(self):
        from repro.staticfp.corpus import check_golden, precision_summary

        outcomes = corpus_outcomes(_engine(2))
        summary = precision_summary(outcomes)
        assert summary["gotchas_detected"] == summary["gotchas_total"]
        assert not summary["false_positives"]
        assert check_golden(outcomes=outcomes) == []
