"""Unit tests for the analysis runner, registry, suppressions, reporters."""

import json
import textwrap

import pytest

from repro.analysis import (
    REPORT_VERSION,
    RULES,
    discover_files,
    render_report,
    render_rules,
    report_payload,
    run_check,
)
from repro.analysis.runner import module_name_for
from repro.analysis.suppressions import (
    ALL_RULES,
    is_suppressed,
    parse_suppressions,
)
from repro.exceptions import ValidationError

EXPECTED_RULES = [
    "bare-lock",
    "float-eq",
    "global-rng",
    "iter-hotpath",
    "mutable-default",
    "ndarray-eq",
    "spec-signature",
    "task-pickle",
    "wall-clock",
]


class TestRegistry:
    def test_catalog_holds_the_nine_rules(self):
        assert RULES.names() == EXPECTED_RULES

    def test_get_unknown_rule_raises(self):
        with pytest.raises(ValidationError, match="unknown rule"):
            RULES.get("no-such-rule")

    def test_select_subset_preserves_order(self):
        rules = RULES.select(["wall-clock", "float-eq"])
        assert [rule.key for rule in rules] == ["wall-clock", "float-eq"]

    def test_every_rule_documents_itself(self):
        for key in RULES.names():
            rule = RULES.get(key)
            assert rule.title, key
            assert rule.rationale, key
            assert rule.hint, key
            assert rule.severity in ("error", "warning"), key


class TestSuppressions:
    def test_bare_marker_suppresses_everything(self):
        suppressions = parse_suppressions("x = 1  # repro: ignore\n")
        assert suppressions == {1: {ALL_RULES}}
        assert is_suppressed(suppressions, 1, "float-eq")
        assert not is_suppressed(suppressions, 2, "float-eq")

    def test_listed_rules_only(self):
        suppressions = parse_suppressions(
            "a = 1\nb = 2  # repro: ignore[float-eq, wall-clock] why\n"
        )
        assert suppressions == {2: {"float-eq", "wall-clock"}}
        assert is_suppressed(suppressions, 2, "wall-clock")
        assert not is_suppressed(suppressions, 2, "global-rng")

    def test_marker_inside_string_is_data(self):
        suppressions = parse_suppressions('text = "# repro: ignore[x]"\n')
        assert suppressions == {}

    def test_unreadable_source_yields_nothing(self):
        assert parse_suppressions("def broken(:\n") == {}


class TestRunner:
    def test_discover_skips_cache_dirs_and_dedupes(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "mod.py").write_text("x = 1\n")
        files = discover_files([tmp_path, tmp_path / "pkg" / "mod.py"])
        assert [f.name for f in files] == ["mod.py"]

    def test_discover_missing_path_raises(self, tmp_path):
        with pytest.raises(ValidationError, match="no such file"):
            discover_files([tmp_path / "absent"])

    def test_module_name_walks_packages(self, tmp_path):
        package = tmp_path / "outer" / "inner"
        package.mkdir(parents=True)
        (tmp_path / "outer" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "mod.py").write_text("")
        assert module_name_for(package / "mod.py") == "outer.inner.mod"
        assert module_name_for(package / "__init__.py") == "outer.inner"
        script = tmp_path / "script.py"
        script.write_text("")
        assert module_name_for(script) == "script"

    def test_unknown_rule_key_raises(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("x = 1\n")
        with pytest.raises(ValidationError, match="unknown rule"):
            run_check([path], rules=["bogus"])

    def test_syntax_error_becomes_report_error(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        report = run_check([path])
        assert not report.ok
        assert len(report.errors) == 1
        assert "SyntaxError" in report.errors[0][1]

    def test_findings_sorted_by_location(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            textwrap.dedent(
                """
                def later(x):
                    return x == 2.5

                def earlier(values=[]):
                    return values
                """
            )
        )
        report = run_check([path])
        assert [f.rule for f in report.active] == [
            "float-eq",
            "mutable-default",
        ]
        assert report.active[0].line < report.active[1].line


class TestReporters:
    @pytest.fixture()
    def failing_report(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "def check(x):\n"
            "    return x == 0.5\n"
            "\n"
            "def guard(y):\n"
            "    return y == 0.0  # repro: ignore[float-eq] exact guard\n"
        )
        return run_check([path])

    def test_text_report_lines_and_summary(self, failing_report):
        text = render_report(failing_report)
        assert ":2:12: warning[float-eq]" in text
        assert "repro check: FAILED" in text
        assert "1 finding (1 suppressed)" in text

    def test_fix_hints_render_once_per_rule(self, failing_report):
        text = render_report(failing_report, fix_hints=True)
        assert text.count("hint:") == 1
        assert "tolerance" in text

    def test_clean_report_says_clean(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("x = 1\n")
        text = render_report(run_check([path]))
        assert "repro check: clean" in text

    def test_json_payload_shape(self, failing_report):
        payload = report_payload(failing_report)
        assert payload["version"] == REPORT_VERSION
        assert json.loads(json.dumps(payload)) == payload
        assert [rule["key"] for rule in payload["rules"]] == EXPECTED_RULES
        assert payload["summary"] == {
            "files": 1,
            "findings": 1,
            "suppressed": 1,
            "errors": 0,
            "ok": False,
        }
        active = [f for f in payload["findings"] if not f["suppressed"]]
        assert active[0]["rule"] == "float-eq"
        assert active[0]["col"] == 12  # 1-based in the JSON document

    def test_rule_catalog_lists_every_rule(self):
        catalog = render_rules()
        for key in EXPECTED_RULES:
            assert key in catalog
        assert "scope:" in catalog
