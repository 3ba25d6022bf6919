"""CLI surface of the engine: repro-fp engine, --parallel flags."""

import json

from repro.cli import main


class TestEngineStatus:
    def test_lists_tasks_and_fingerprint(self, capsys, tmp_path):
        assert main(["engine", "status",
                     "--cache", str(tmp_path / "c.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "oracle.op_slice" in out
        assert "study.simulate_slice" in out
        assert "code_version" in out
        assert "cpus:" in out


class TestEngineRun:
    def test_runs_shards_and_prints_results(self, capsys):
        assert main(["engine", "run", "engine.test.rng_draw",
                     "--shards", "3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "engine: 3 shards" in out
        payload = json.loads(out[out.index("["):])
        assert len(payload) == 3
        assert all(len(draws) == 3 for draws in payload)

    def test_param_json(self, capsys):
        assert main(["engine", "run", "engine.test.echo",
                     "--param", '{"payload": 7}']) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("["):])
        assert payload[0]["payload"] == 7

    def test_bad_param_json(self, capsys):
        assert main(["engine", "run", "engine.test.echo",
                     "--param", "{nope"]) == 2
        assert "bad --param JSON" in capsys.readouterr().err

    def test_unknown_task(self, capsys):
        assert main(["engine", "run", "no.such.task"]) == 2
        assert "unknown task" in capsys.readouterr().err

    def test_task_error_exit_code(self, capsys):
        assert main(["engine", "run", "engine.test.fail",
                     "--shards", "1"]) == 1
        assert "ValueError" in capsys.readouterr().err

    def test_json_output(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        assert main(["engine", "run", "engine.test.rng_draw",
                     "--shards", "2", "--json", str(target)]) == 0
        assert len(json.loads(target.read_text())) == 2


class TestEngineCache:
    def test_show_and_clear(self, capsys, tmp_path):
        path = tmp_path / "cache.jsonl"
        from repro.engine import ResultCache

        ResultCache(disk_path=path).put("k", "t", 1)
        assert main(["engine", "cache", "show", "--cache", str(path)]) == 0
        assert "disk: 1 entries" in capsys.readouterr().out
        assert main(["engine", "cache", "clear", "--cache", str(path)]) == 0
        assert "cleared 1 entries" in capsys.readouterr().out
        assert path.read_text() == ""


class TestParallelFlags:
    def test_oracle_parallel_json_is_byte_identical(self, capsys, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        base = ["oracle", "run", "--format", "binary16", "--ops", "add",
                "--budget", "600", "--no-timing"]
        assert main(base + ["--json", str(serial)]) == 0
        assert main(base + ["--json", str(parallel), "--parallel", "2",
                            "--cache", str(tmp_path / "c.jsonl")]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()

    def test_serial_oracle_run_creates_no_cache_file(self, capsys, tmp_path,
                                                     monkeypatch):
        cache = tmp_path / "engine-cache.jsonl"
        monkeypatch.setenv("REPRO_ENGINE_CACHE", str(cache))
        assert main(["oracle", "run", "--format", "binary16", "--ops",
                     "add", "--budget", "300"]) == 0
        assert not cache.exists()
        assert "engine:" not in capsys.readouterr().out

    def test_oracle_parallel_rerun_hits_cache(self, capsys, tmp_path):
        cache = tmp_path / "c.jsonl"
        argv = ["oracle", "run", "--format", "binary16", "--ops", "add",
                "--budget", "600", "--parallel", "2", "--cache", str(cache)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out  # every shard served from cache

    def test_study_parallel_matches_serial(self, capsys):
        argv = ["study", "--developers", "25", "--students", "8",
                "--figure", "Figure 14"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--parallel", "2", "--no-cache"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out.startswith(serial_out)
        assert "engine:" in parallel_out

    def test_lint_corpus_parallel(self, capsys):
        assert main(["lint", "--corpus", "--parallel", "2",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "gotchas detected: 16/16" in out
        assert "no drift" in out
