"""Job model: seed derivation, canonical specs, the task registry."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.engine import (
    ShardContext,
    TaskSpec,
    derive_seed,
    execute_task,
    get_task,
    make_job,
    registered_tasks,
    task,
)
from repro.errors import EngineError


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(754, "x", 3) == derive_seed(754, "x", 3)

    def test_positional_independence(self):
        """Shard 3's seed is the same no matter how many shards exist."""
        few = [derive_seed(754, "t", i) for i in range(4)]
        many = [derive_seed(754, "t", i) for i in range(100)]
        assert many[:4] == few

    def test_distinct_across_key_parts(self):
        seeds = {
            derive_seed(754, "a", 0),
            derive_seed(754, "a", 1),
            derive_seed(754, "b", 0),
            derive_seed(755, "a", 0),
        }
        assert len(seeds) == 4

    def test_63_bit_range(self):
        for i in range(50):
            assert 0 <= derive_seed(1, i) < (1 << 63)


class TestTaskSpec:
    def test_canonical_sorts_keys(self):
        a = TaskSpec("t", {"b": 1, "a": 2})
        b = TaskSpec("t", {"a": 2, "b": 1})
        assert a.canonical() == b.canonical()

    def test_canonical_distinguishes_values(self):
        assert (TaskSpec("t", {"a": 1}).canonical()
                != TaskSpec("t", {"a": 2}).canonical())


class TestMakeJob:
    def test_shards_ordered_and_seeded(self):
        job = make_job("j", "engine.test.echo", [{"payload": i}
                                                for i in range(5)])
        assert [s.index for s in job.shards] == [0, 1, 2, 3, 4]
        assert len({s.seed for s in job.shards}) == 5
        assert job.shards[2].seed == derive_seed(754, "engine.test.echo", 2)

    def test_cacheable_default(self):
        job = make_job("j", "engine.test.echo", [{}])
        assert job.cacheable


class TestRegistry:
    def test_known_tasks_registered(self):
        names = registered_tasks()
        assert "oracle.op_slice" in names
        assert "study.simulate_slice" in names
        assert "staticfp.lint_entries" in names
        assert "engine.test.crash_once" in names

    def test_concurrent_cold_start_lookups_all_succeed(self):
        """The first lookups in a fresh interpreter race the task-module
        imports; every one must see the full registry."""
        script = textwrap.dedent("""
            import threading
            from repro.engine.tasks import get_task

            barrier = threading.Barrier(8)
            errors = []

            def lookup():
                barrier.wait()
                try:
                    get_task("oracle.op_slice")
                except Exception as exc:
                    errors.append(repr(exc))

            threads = [threading.Thread(target=lookup) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            print(len(errors))
            for error in errors:
                print(error)
        """)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        ).stdout
        assert out.splitlines()[0] == "0", out

    def test_unknown_task_raises(self):
        with pytest.raises(EngineError, match="unknown task"):
            get_task("no.such.task")

    def test_double_registration_raises(self):
        @task("engine.test.once_only")
        def _once(params, ctx):
            return None

        with pytest.raises(EngineError, match="registered twice"):
            task("engine.test.once_only")(lambda params, ctx: None)

    def test_execute_task(self):
        ctx = ShardContext(index=1, n_shards=3, seed=99)
        out = execute_task("engine.test.echo", {"payload": "hi"}, ctx)
        assert out["payload"] == "hi"
        assert out["index"] == 1
        assert out["n_shards"] == 3

    def test_rng_draw_depends_only_on_seed(self):
        ctx_a = ShardContext(index=0, n_shards=2, seed=42)
        ctx_b = ShardContext(index=1, n_shards=9, seed=42)
        assert (execute_task("engine.test.rng_draw", {"n": 4}, ctx_a)
                == execute_task("engine.test.rng_draw", {"n": 4}, ctx_b))
