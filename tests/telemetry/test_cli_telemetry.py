"""CLI: telemetry subcommand and the --trace/--metrics-out flags."""

import json

from repro.cli import main


class TestOracleRunExports:
    def test_metrics_out_has_per_op_counters_and_latency(self, tmp_path,
                                                         capsys):
        metrics_path = tmp_path / "m.json"
        code = main([
            "oracle", "run", "--format", "binary16", "--ops", "add,mul",
            "--budget", "200", "--no-native",
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["oracle.evals_total{op=add}"]["value"] == 200
        assert snapshot["oracle.evals_total{op=mul}"]["value"] == 200
        assert snapshot["softfloat.ops_total{format=binary16,op=add}"][
            "value"] == 200
        latency = snapshot["oracle.eval_seconds{op=add}"]
        assert latency["count"] == 200
        assert latency["p50"] is not None and latency["p95"] is not None
        assert snapshot["oracle.evals_per_sec{op=add}"]["value"] > 0
        assert "wrote" in capsys.readouterr().out

    def test_trace_out_is_valid_jsonl(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        code = main([
            "oracle", "run", "--format", "binary16", "--ops", "add",
            "--budget", "100", "--no-native", "--trace", str(trace_path),
        ])
        assert code == 0
        types = set()
        names = set()
        for line in trace_path.read_text().splitlines():
            record = json.loads(line)
            types.add(record["type"])
            if record["type"] == "span":
                names.add(record["name"])
        assert "span" in types
        assert {"oracle.run", "oracle.op"} <= names


class TestBackendTierCounters:
    """Decision counters: which tier served each lane, and how many
    lanes the native tier handed back to scalar."""

    @staticmethod
    def _lanes_by_backend(snapshot, op):
        prefix = "softfloat.lanes_total{backend="
        suffix = f",format=binary64,op={op}}}"
        return {
            key[len(prefix):-len(suffix)]: entry["value"]
            for key, entry in snapshot.items()
            if key.startswith(prefix) and key.endswith(suffix)
        }

    def test_traced_binary64_sweep_never_lands_on_scalar(self):
        from repro.oracle import FORMATS_BY_NAME
        from repro.oracle.runner import run_conformance
        from repro.telemetry import telemetry_session

        with telemetry_session() as session:
            run_conformance(
                FORMATS_BY_NAME["binary64"], ["mul", "div", "fma", "sqrt"],
                budget=300, seed=5, engine_backend="auto",
                env_combos=((False, False), (False, True), (True, False),
                            (True, True)))
        snapshot = session.metrics.snapshot()
        for op in ("mul", "div", "fma", "sqrt"):
            lanes = self._lanes_by_backend(snapshot, op)
            assert lanes.get("scalar", 0) == 0, (op, lanes)
            assert sum(lanes.values()) == 300, (op, lanes)

    def test_counters_in_metrics_out(self, tmp_path, capsys):
        from repro.softfloat.nativefast import host_fastpath_ok

        metrics_path = tmp_path / "m.json"
        code = main([
            "oracle", "run", "--format", "binary64", "--ops", "add,mul",
            "--budget", "200", "--engine-backend", "auto",
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        snapshot = json.loads(metrics_path.read_text())
        assert sum(self._lanes_by_backend(snapshot, "mul").values()) == 200
        assert sum(self._lanes_by_backend(snapshot, "add").values()) == 200
        if host_fastpath_ok():  # native serves add under RNE, no FTZ/DAZ
            fallback = snapshot[
                "softfloat.scalar_fallback_lanes_total{format=binary64,op=add}"]
            assert 0 < fallback["value"] <= self._lanes_by_backend(
                snapshot, "add")["native"]


class TestTelemetryView:
    def test_view_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        main(["oracle", "run", "--format", "binary16", "--ops", "add",
              "--budget", "100", "--no-native", "--trace", str(trace_path)])
        capsys.readouterr()
        assert main(["telemetry", "view", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "oracle.run" in out and "wall=" in out

    def test_view_metrics(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        main(["oracle", "run", "--format", "binary16", "--ops", "add",
              "--budget", "100", "--no-native",
              "--metrics-out", str(metrics_path)])
        capsys.readouterr()
        assert main(["telemetry", "view", str(metrics_path)]) == 0
        assert "oracle.evals_total{op=add}" in capsys.readouterr().out

    def test_view_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["telemetry", "view", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_view_garbage_exits_2(self, tmp_path, capsys):
        path = tmp_path / "garbage.txt"
        path.write_text("not json at all\n")
        assert main(["telemetry", "view", str(path)]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestTelemetryViewFilters:
    @staticmethod
    def _write_trace(path):
        trace_id = "ab" * 16
        records = [
            {"type": "meta", "version": 2, "trace_id": trace_id,
             "dropped_spans": 0},
            {"type": "span", "id": 1, "parent": 0, "name": "engine.job",
             "path": "engine.job", "start": 0.0, "wall": 0.050,
             "cpu": 0.01, "attrs": {}, "trace_id": trace_id},
            {"type": "span", "id": 2, "parent": 1, "name": "engine.shard",
             "path": "engine.job/engine.shard", "start": 0.001,
             "wall": 0.001, "cpu": 0.001, "attrs": {},
             "trace_id": trace_id},
            {"type": "span", "id": 3, "parent": 2, "name": "worker.execute",
             "path": "engine.job/engine.shard/worker.execute",
             "start": 0.002, "wall": 0.020, "cpu": 0.01, "attrs": {},
             "trace_id": trace_id},
            {"type": "fp_event", "sequence": 1, "operation": "add",
             "flags": ["overflow"], "fmt": "binary16", "span": None,
             "trace_id": trace_id},
        ]
        path.write_text(
            "\n".join(json.dumps(record) for record in records) + "\n"
        )
        return trace_id

    def test_trace_id_prefix_matches(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        trace_id = self._write_trace(path)
        assert main(["telemetry", "view", str(path),
                     "--trace-id", trace_id[:8]]) == 0
        out = capsys.readouterr().out
        assert "engine.job" in out and "worker.execute" in out

    def test_trace_id_mismatch_filters_everything(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        self._write_trace(path)
        assert main(["telemetry", "view", str(path),
                     "--trace-id", "ffffffff"]) == 0
        out = capsys.readouterr().out
        assert "no records match" in out

    def test_min_ms_drops_fast_spans_and_rehomes_survivors(
            self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        self._write_trace(path)
        assert main(["telemetry", "view", str(path), "--min-ms", "5"]) == 0
        out = capsys.readouterr().out
        # the 1ms shard span is gone; its 20ms child survives and
        # renders under the surviving job root
        assert "engine.shard" not in out
        assert "engine.job" in out and "worker.execute" in out

    def test_meta_line_prints_the_trace_id(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        trace_id = self._write_trace(path)
        assert main(["telemetry", "view", str(path)]) == 0
        assert f"trace {trace_id} (schema v2)" in capsys.readouterr().out


class TestTelemetryDemo:
    def test_demo_prints_tree_and_metrics(self, capsys):
        assert main(["telemetry", "demo", "--budget", "50"]) == 0
        out = capsys.readouterr().out
        assert "oracle.run" in out
        assert "softfloat.ops_total" in out
        assert "first occurrences:" in out


class TestStudyExports:
    def test_study_trace_and_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.json"
        code = main([
            "study", "--developers", "10", "--students", "3",
            "--figure", "Figure 14",
            "--trace", str(trace_path), "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["study.respondents_simulated{cohort=developer}"][
            "value"] == 10
        assert snapshot["study.respondents_simulated{cohort=student}"][
            "value"] == 3
        names = {
            json.loads(line)["name"]
            for line in trace_path.read_text().splitlines()
            if json.loads(line)["type"] == "span"
        }
        assert "study.run" in names and "study.analyze" in names
