"""Tests for the artifact/diff/gate pipeline (``repro.artifacts``).

Covers the satellite contracts of the ``repro`` CLI redesign:

- manifest determinism — two same-seed runs of a deterministic bench
  diff clean (no changed metrics, identical table fingerprints);
- ``diff.json`` structure on a synthetic baseline/candidate pair;
- the gate pass/fail/exit-code matrix for every rule kind;
- CLI smoke via ``python -m repro.artifacts.cli``;
- the fallback TOML parser used when :mod:`tomllib` is absent.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.artifacts import (
    BenchSpec,
    MetricSink,
    Rule,
    RulesError,
    diff_runs,
    evaluate,
    exit_code,
    latest_runs,
    load_rules,
    register_bench,
    resolve_bench_name,
    run_bench,
    write_diff,
    write_run,
)
from repro.artifacts import rules_toml
from repro.artifacts.gate import EXIT_FAIL, EXIT_PASS


def _deterministic_runner(sink, scale=1.0):
    sink.text("table_a", "row one\nrow two")
    sink.record("block", {"score": 0.75 * scale, "n": 10,
                          "nested": {"ok": True}})
    sink.metric("headline", 2.0 * scale)


def _spec(name="det_bench", scale=1.0):
    return BenchSpec(
        name=name,
        runner=lambda sink: _deterministic_runner(sink, scale),
        title="deterministic test bench",
        tags=("test",),
        metrics={"headline": "a headline metric"},
    )


# ---------------------------------------------------------------- sink
class TestMetricSink:
    def test_flattens_payload_numeric_leaves(self):
        sink = MetricSink(bench="t", echo=False)
        sink.record("a", {"x": 1, "sub": {"y": 2.5, "flag": True},
                          "name": "not-numeric", "list": [3, 4]})
        metrics = sink.metrics()
        assert metrics == {
            "a.x": 1.0, "a.sub.y": 2.5, "a.sub.flag": 1.0,
            "a.list.0": 3.0, "a.list.1": 4.0,
        }

    def test_record_deep_merges(self):
        sink = MetricSink(bench="t", echo=False)
        sink.record("a", {"x": 1, "keep": {"p": 1}})
        sink.record("a", {"y": 2, "keep": {"q": 2}})
        assert sink.payload["a"] == {"x": 1, "y": 2,
                                     "keep": {"p": 1, "q": 2}}

    def test_explicit_metric_wins_and_units_kept(self):
        sink = MetricSink(bench="t", echo=False)
        sink.record("a", {"x": 1})
        sink.metric("a.x", 9, unit="ms")
        assert sink.metrics()["a.x"] == 9.0
        assert sink.summary()["units"] == {"a.x": "ms"}

    def test_non_numeric_metric_rejected(self):
        sink = MetricSink(bench="t", echo=False)
        with pytest.raises(TypeError):
            sink.metric("bad", "fast")

    def test_injection_env_multiplies_metrics(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_ARTIFACTS_INJECT", '{"a.x": 0.5, "missing": 2.0}'
        )
        sink = MetricSink(bench="t", echo=False)
        sink.record("a", {"x": 4.0})
        assert sink.metrics()["a.x"] == 2.0
        assert sink.summary()["injected"] == {"a.x": 0.5, "missing": 2.0}

    def test_malformed_injection_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACTS_INJECT", "not json")
        with pytest.raises(ValueError):
            MetricSink(bench="t", echo=False)

    def test_aux_path_requires_bare_name(self):
        sink = MetricSink(bench="t", echo=False)
        with pytest.raises(ValueError):
            sink.path("sub/dir.json")
        target = sink.path("trace.json")
        assert sink.aux_files() == {}  # not written yet
        target.write_text("{}")
        assert list(sink.aux_files()) == ["trace.json"]
        sink.close()


# ------------------------------------------------------------ registry
class TestRegistry:
    def test_resolves_prefix_and_module_name(self):
        register_bench(_spec("resolver_demo_bench"))
        assert resolve_bench_name("resolver_demo_bench") \
            == "resolver_demo_bench"
        assert resolve_bench_name("bench_resolver_demo_bench") \
            == "resolver_demo_bench"
        assert resolve_bench_name("resolver_demo") == "resolver_demo_bench"

    def test_unknown_name_raises_with_candidates(self):
        with pytest.raises(KeyError, match="no match"):
            resolve_bench_name("definitely_not_a_bench")

    def test_conflicting_source_files_rejected(self):
        register_bench(BenchSpec(
            name="conflict_bench", runner=lambda sink: None,
            source="/tmp/one.py",
        ))
        with pytest.raises(ValueError, match="claimed by both"):
            register_bench(BenchSpec(
                name="conflict_bench", runner=lambda sink: None,
                source="/tmp/two.py",
            ))
        # same file re-registering (pytest + CLI discovery) is fine
        register_bench(BenchSpec(
            name="conflict_bench", runner=lambda sink: None,
            source="/elsewhere/one.py",
        ))


# ------------------------------------------------- run dirs + manifest
class TestRunArtifacts:
    def test_run_dir_layout(self, tmp_path):
        result = run_bench(_spec(), out_root=tmp_path, echo=False)
        assert (result.path / "manifest.json").is_file()
        assert (result.path / "summary.json").is_file()
        assert (result.path / "report.md").is_file()
        assert (result.path / "tables" / "table_a.txt").read_text() \
            == "row one\nrow two\n"
        manifest = result.manifest
        assert manifest["bench"] == "det_bench"
        assert "tables/table_a.txt" in manifest["artifacts"]
        assert manifest["platform"]["python"]
        assert result.summary["metrics"]["headline"] == 2.0

    def test_crashing_runner_wrapped_in_bench_run_error(self, tmp_path):
        from repro.artifacts import BenchRunError

        spec = BenchSpec(name="boom", runner=lambda sink: 1 / 0)
        with pytest.raises(BenchRunError, match="ZeroDivisionError"):
            run_bench(spec, out_root=tmp_path, echo=False)
        # no half-written run directory is left behind
        assert not (tmp_path / "boom").exists()

    def test_two_runs_never_clobber(self, tmp_path):
        first = run_bench(_spec(), out_root=tmp_path, echo=False)
        second = run_bench(_spec(), out_root=tmp_path, echo=False)
        assert first.path != second.path
        assert first.path.is_dir() and second.path.is_dir()

    def test_mirror_files_are_stamped_with_run_id(self, tmp_path):
        mirror = tmp_path / "results"
        result = run_bench(
            _spec(), out_root=tmp_path / "artifacts", mirror_dir=mirror,
            echo=False,
        )
        stamped = (mirror / "table_a.txt").read_text()
        assert f"[run {result.manifest['run_id']}]" in stamped
        record = json.loads((mirror / "BENCH_det_bench.json").read_text())
        assert record["bench"] == "det_bench"
        assert record["run_id"] == result.manifest["run_id"]
        assert record["metrics"]["headline"] == 2.0

    def test_same_seed_runs_diff_clean(self, tmp_path):
        spec = _spec()
        a = run_bench(spec, out_root=tmp_path, seed=0, echo=False)
        b = run_bench(spec, out_root=tmp_path, seed=0, echo=False)
        diff = diff_runs(a.path, b.path)
        assert diff["changed"] == []
        assert diff["added_metrics"] == []
        assert diff["removed_metrics"] == []
        assert diff["artifacts"]["differing"] == []
        assert "tables/table_a.txt" in diff["artifacts"]["identical"]
        assert diff["context"]["same_seed"] is True
        assert diff["context"]["same_bench"] is True


# ------------------------------------------------------------ diffing
class TestDiff:
    def _pair(self, tmp_path):
        a = run_bench(_spec(scale=1.0), out_root=tmp_path, echo=False)
        b = run_bench(_spec(scale=0.9), out_root=tmp_path, echo=False)
        return a, b

    def test_diff_reports_abs_and_rel_deltas(self, tmp_path):
        a, b = self._pair(tmp_path)
        diff = diff_runs(a.path, b.path)
        entry = diff["metrics"]["headline"]
        assert entry["baseline"] == 2.0
        assert entry["candidate"] == pytest.approx(1.8)
        assert entry["abs_delta"] == pytest.approx(-0.2)
        assert entry["rel_delta"] == pytest.approx(-0.1)
        assert "headline" in diff["changed"]
        assert "block.n" not in diff["changed"]

    def test_latest_runs_orders_and_disambiguates(self, tmp_path):
        a, b = self._pair(tmp_path)
        runs = latest_runs(tmp_path)
        assert runs == [a.path, b.path]
        run_bench(_spec("other_bench"), out_root=tmp_path, echo=False)
        with pytest.raises(ValueError, match="disambiguate"):
            latest_runs(tmp_path)
        assert latest_runs(tmp_path, bench="det_bench") == [a.path, b.path]

    def test_write_diff_round_trips(self, tmp_path):
        a, b = self._pair(tmp_path)
        diff = diff_runs(a.path, b.path)
        path = write_diff(diff, tmp_path / "out" / "diff.json")
        assert json.loads(path.read_text())["bench"] == "det_bench"


# -------------------------------------------------------------- gating
def _diff_for(baseline, candidate, bench="det_bench"):
    metrics = {}
    for name in set(baseline) | set(candidate):
        entry = {"baseline": baseline.get(name),
                 "candidate": candidate.get(name)}
        if entry["baseline"] is not None and entry["candidate"] is not None:
            entry["abs_delta"] = entry["candidate"] - entry["baseline"]
        metrics[name] = entry
    return {"bench": bench, "metrics": metrics}


class TestGate:
    @pytest.mark.parametrize("kind,limit,baseline,candidate,passes", [
        ("min", 0.9, None, 0.95, True),
        ("min", 0.9, None, 0.85, False),
        ("max", 20.0, None, 19.0, True),
        ("max", 20.0, None, 21.0, False),
        ("max_abs_delta", 0.1, 1.0, 1.05, True),
        ("max_abs_delta", 0.1, 1.0, 1.2, False),
        ("max_rel_delta", 0.05, 2.0, 2.09, True),
        ("max_rel_delta", 0.05, 2.0, 2.2, False),
        ("max_drop", 0.1, 1.0, 0.95, True),
        ("max_drop", 0.1, 1.0, 0.8, False),
        ("max_rel_drop", 0.05, 1.0, 0.96, True),
        ("max_rel_drop", 0.05, 1.0, 0.9, False),
        ("max_increase", 0.1, 1.0, 1.05, True),
        ("max_increase", 0.1, 1.0, 1.2, False),
        ("max_rel_increase", 0.5, 2.0, 2.9, True),
        ("max_rel_increase", 0.5, 2.0, 3.1, False),
        ("equal", True, 1.0, 1.0, True),
        ("equal", True, 1.0, 0.99, False),
    ])
    def test_rule_kind_matrix(self, kind, limit, baseline, candidate,
                              passes):
        rule = Rule(metric="m", constraints={kind: limit})
        diff = _diff_for({"m": baseline} if baseline is not None else {},
                         {"m": candidate})
        report = evaluate(diff, [rule])
        assert report["passed"] is passes
        assert exit_code(report) == (EXIT_PASS if passes else EXIT_FAIL)

    def test_relative_rule_skipped_without_baseline(self):
        rule = Rule(metric="m", constraints={"max_rel_drop": 0.05})
        report = evaluate(_diff_for({}, {"m": 1.0}), [rule])
        assert report["passed"] is True
        (result,) = report["results"]
        assert result["checks"][0]["skipped"] == "no baseline value"

    def test_missing_metric_fails_unless_optional(self):
        required = Rule(metric="absent", constraints={"min": 1.0})
        report = evaluate(_diff_for({}, {}), [required])
        assert report["passed"] is False
        assert report["failed_rules"] == [required.name]

        optional = Rule(metric="absent", constraints={"min": 1.0},
                        optional=True)
        report = evaluate(_diff_for({}, {}), [optional])
        assert report["passed"] is True
        assert report["skipped_rules"] == [optional.name]

    def test_bench_scope_skips_other_benches(self):
        rule = Rule(metric="m", bench="other", constraints={"min": 1.0})
        report = evaluate(_diff_for({}, {"m": 0.0}), [rule])
        assert report["passed"] is True
        assert report["skipped_rules"] == [rule.name]

    def test_warn_severity_never_fails_gate(self):
        rule = Rule(metric="m", severity="warn",
                    constraints={"min": 10.0})
        report = evaluate(_diff_for({}, {"m": 1.0}), [rule])
        assert report["passed"] is True
        assert report["warned_rules"] == [rule.name]

    def test_load_rules_validates(self, tmp_path):
        good = tmp_path / "rules.toml"
        good.write_text(
            '[[rule]]\nmetric = "m"\nmin = 0.5\n'
            '[[rule]]\nname = "two"\nmetric = "m"\nmax = 2.0\n'
        )
        rules = load_rules(good)
        assert [r.name for r in rules] == ["m:min", "two"]

        for body, message in [
            ("x = 1\n", "no \\[\\[rule\\]\\]"),
            ('[[rule]]\nmin = 0.5\n', "has no metric"),
            ('[[rule]]\nmetric = "m"\nbogus = 1\n', "unknown keys"),
            ('[[rule]]\nmetric = "m"\n', "no constraint"),
            ('[[rule]]\nmetric = "m"\nmin = 0.1\nseverity = "loud"\n',
             "severity"),
        ]:
            bad = tmp_path / "bad.toml"
            bad.write_text(body)
            with pytest.raises(RulesError, match=message):
                load_rules(bad)

    def test_committed_rules_file_loads(self):
        import pathlib

        rules = load_rules(
            pathlib.Path(__file__).parent.parent
            / "benchmarks" / "rules.toml"
        )
        assert any(r.name == "warm-hit-rate-floor" for r in rules)
        metrics = {r.metric for r in rules}
        assert "gram_engine_sequence_500.warm_hit_rate" in metrics


# ---------------------------------------------------- fallback parser
class TestTomlFallback:
    def test_parses_rules_grammar(self):
        document = rules_toml.parse_fallback(
            '# comment\n'
            'title = "top"  # trailing\n'
            '[table]\n'
            'flag = true\n'
            'count = 3\n'
            'ratio = 0.5\n'
            '[[rule]]\n'
            'metric = "a.b"\n'
            'min = 0.9\n'
            '[[rule]]\n'
            'metric = "c"\n'
            'tags = ["x", "y"]\n'
        )
        assert document["title"] == "top"
        assert document["table"] == {"flag": True, "count": 3,
                                     "ratio": 0.5}
        assert document["rule"][0] == {"metric": "a.b", "min": 0.9}
        assert document["rule"][1]["tags"] == ["x", "y"]

    def test_hash_inside_string_is_not_a_comment(self):
        document = rules_toml.parse_fallback('name = "a#b"\n')
        assert document["name"] == "a#b"

    def test_malformed_lines_raise(self):
        for body in ("just words\n", 'x = \n', '[unclosed\n',
                     'x = "unterminated\n'):
            with pytest.raises(rules_toml.TomlError):
                rules_toml.parse_fallback(body)

    def test_fallback_agrees_with_tomllib_on_rules_file(self):
        import pathlib

        text = (
            pathlib.Path(__file__).parent.parent
            / "benchmarks" / "rules.toml"
        ).read_text()
        fallback = rules_toml.parse_fallback(text)
        tomllib = pytest.importorskip("tomllib")
        assert fallback == tomllib.loads(text)


# ------------------------------------------------------------ the CLI
class TestCLI:
    def _cli(self, *args, cwd):
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.artifacts.cli", *args],
            capture_output=True, text=True, cwd=cwd, timeout=120, env=env,
        )

    @pytest.fixture()
    def bench_dir(self, tmp_path):
        (tmp_path / "bench_cli_smoke.py").write_text(
            "from repro.artifacts import BenchSpec, register_bench\n"
            "\n"
            "def _run(sink):\n"
            "    sink.text('tbl', 'hello')\n"
            "    sink.record('block', {'score': 0.75})\n"
            "\n"
            "register_bench(BenchSpec(\n"
            "    name='cli_smoke', runner=_run, source=__file__,\n"
            "))\n"
        )
        return tmp_path

    def test_help_per_subcommand(self, tmp_path):
        for sub in ("list", "run", "diff", "gate"):
            proc = self._cli(sub, "--help", cwd=tmp_path)
            assert proc.returncode == 0
            assert "usage: repro" in proc.stdout

    def test_run_diff_gate_round_trip(self, bench_dir, tmp_path):
        args = ["--bench-dir", str(bench_dir),
                "--artifacts-root", str(tmp_path / "arts")]
        for _ in range(2):
            proc = self._cli(*args, "run", "cli_smoke", "--quiet",
                             cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
        proc = self._cli(*args, "--format", "json", "diff", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        diff = json.loads(proc.stdout)["diff"]
        assert diff["bench"] == "cli_smoke"
        assert diff["changed"] == []  # deterministic bench

        rules = tmp_path / "rules.toml"
        rules.write_text('[[rule]]\nmetric = "block.score"\nmin = 0.5\n')
        proc = self._cli(*args, "--format", "json", "gate",
                         "--rules", str(rules), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)["gate"]
        assert report["passed"] is True
        # the verdict lands back in diff.json
        on_disk = json.loads(
            (tmp_path / "arts" / "cli_smoke" / "diff.json").read_text()
        )
        assert on_disk["gate"]["passed"] is True

        failing = tmp_path / "failing.toml"
        failing.write_text('[[rule]]\nmetric = "block.score"\nmin = 0.9\n')
        proc = self._cli(*args, "gate", "--rules", str(failing),
                         cwd=tmp_path)
        assert proc.returncode == 1

    def test_unknown_bench_exits_2(self, bench_dir, tmp_path):
        proc = self._cli("--bench-dir", str(bench_dir), "run", "nope",
                         cwd=tmp_path)
        assert proc.returncode == 2
        assert "unknown bench" in proc.stderr
