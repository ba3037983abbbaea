"""Unit tests for the ``repro-trace/v2`` stream: writing and folding.

A streaming :class:`Recorder` appends header, span, metrics, and end
lines while the run goes; :func:`fold_trace` / :func:`read_trace` fold
them back into the document :meth:`Recorder.to_document` returns.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.exceptions import ValidationError
from repro.telemetry import (
    TRACE_SCHEMA,
    Recorder,
    fold_trace,
    read_trace,
    trace,
    validate_trace,
)


def _lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _fold_equals_document(path, recorder, manifest=None):
    folded = read_trace(path)
    document = recorder.to_document(manifest=manifest)
    folded.pop("created_unix")
    document.pop("created_unix")
    return folded == document


def _nested_run(recorder):
    with trace.recording(recorder):
        with trace.span("engine.run", jobs=2):
            for job in range(2):
                with trace.span("engine.job", key=f"k{job}"):
                    with trace.span("pipeline.run"):
                        trace.count("pipeline.records", 10)
            trace.gauge("engine.jobs.completed", 2.0)
        with trace.span("tail", values=(1, 2), ratio=float("nan")):
            pass


class TestStreamingRecorder:
    def test_header_is_the_first_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        Recorder(path).close()
        header, metrics, end = _lines(path)
        assert header["kind"] == "header"
        assert header["schema"] == TRACE_SCHEMA == "repro-trace/v2"
        assert isinstance(header["created_unix"], float)
        assert metrics["kind"] == "metrics"
        assert end == {
            "kind": "end", "ts_unix": end["ts_unix"], "manifest": None
        }

    def test_each_closed_span_is_one_line_with_id_and_parent(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recorder = Recorder(path)
        _nested_run(recorder)
        recorder.close()
        spans = [line for line in _lines(path) if line["kind"] == "span"]
        # Closed innermost first: pipeline.run, engine.job, ... engine.run.
        names = [span["name"] for span in spans]
        assert names == [
            "pipeline.run", "engine.job", "pipeline.run", "engine.job",
            "engine.run", "tail",
        ]
        by_id = {span["id"]: span for span in spans}
        assert len(by_id) == 6
        run = next(s for s in spans if s["name"] == "engine.run")
        assert run["parent"] is None
        for job in (s for s in spans if s["name"] == "engine.job"):
            assert job["parent"] == run["id"]
        assert set(spans[0]) == {
            "kind", "id", "parent", "name", "start_unix", "duration", "attrs"
        }

    def test_span_attrs_are_strict_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recorder = Recorder(path)
        _nested_run(recorder)
        recorder.close()
        [tail] = [line for line in _lines(path) if line.get("name") == "tail"]
        assert tail["attrs"] == {"values": [1, 2], "ratio": "__nan__"}

    def test_fold_equals_the_in_memory_document(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recorder = Recorder(path)
        _nested_run(recorder)
        manifest = {"kind": "repro-manifest/v1", "jobs": []}
        recorder.close(manifest)
        assert _fold_equals_document(path, recorder, manifest)
        validate_trace(read_trace(path))

    def test_adopted_fragment_is_written_when_adopted(self, tmp_path):
        worker = Recorder()
        with trace.recording(worker):
            with trace.span("engine.job", key="w"):
                with trace.span("pipeline.run"):
                    trace.count("kernel.em.fit.fits")
        fragment = worker.export_fragment()

        path = tmp_path / "t.jsonl"
        recorder = Recorder(path)
        with trace.recording(recorder):
            with trace.span("engine.run"):
                trace.adopt(fragment)
                adopted = [
                    line["name"] for line in _lines(path)
                    if line["kind"] == "span"
                ]
                assert adopted == ["engine.job", "pipeline.run"]
        recorder.close()
        assert _fold_equals_document(path, recorder)
        [run] = read_trace(path)["spans"]
        assert run["children"][0]["attrs"] == {"key": "w"}
        assert run["children"][0]["children"][0]["name"] == "pipeline.run"
        assert read_trace(path)["counters"] == {"kernel.em.fit.fits": 1}

    def test_adopted_root_without_open_span(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recorder = Recorder(path)
        recorder.adopt({"name": "orphan", "start_unix": 1.0, "duration": 0.5})
        recorder.close()
        assert _fold_equals_document(path, recorder)

    def test_spans_from_several_threads_fold_back(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recorder = Recorder(path)

        def work(index):
            with trace.span("thread.root", index=index):
                with trace.span("thread.child"):
                    pass

        with trace.recording(recorder):
            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        recorder.close()
        assert _fold_equals_document(path, recorder)
        assert len(read_trace(path)["spans"]) == 4

    def test_in_memory_recorder_never_writes(self):
        recorder = Recorder()
        recorder.close({"x": 1})
        assert recorder.to_document()["spans"] == []

    def test_close_is_idempotent_and_stops_writing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recorder = Recorder(path)
        recorder.close()
        size = path.stat().st_size
        recorder.close()
        with trace.recording(recorder):
            with trace.span("late"):
                pass
        assert path.stat().st_size == size

    def test_incomplete_close_writes_no_end_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recorder = Recorder(path)
        recorder.close({"ignored": True}, complete=False)
        kinds = [line["kind"] for line in _lines(path)]
        assert kinds == ["header", "metrics"]
        stream = fold_trace(path.read_text())
        assert not stream.finished
        assert stream.document["manifest"] is None

    def test_path_is_truncated_on_open(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("stale content\n" * 10)
        Recorder(path).close()
        assert _lines(path)[0]["kind"] == "header"


def _text(*records):
    return "".join(json.dumps(record) + "\n" for record in records)


_HEADER = {"kind": "header", "schema": TRACE_SCHEMA, "created_unix": 5.0}


def _span(span_id, parent, name, start=10.0, duration=1.0):
    return {
        "kind": "span",
        "id": span_id,
        "parent": parent,
        "name": name,
        "start_unix": start,
        "duration": duration,
        "attrs": {},
    }


class TestFoldTrace:
    def test_siblings_are_ordered_by_id_not_by_line(self):
        stream = fold_trace(
            _text(
                _HEADER,
                _span(2, 0, "second"),
                _span(1, 0, "first"),
                _span(0, None, "root"),
            )
        )
        [root] = stream.document["spans"]
        assert [c["name"] for c in root["children"]] == ["first", "second"]

    def test_span_whose_parent_is_still_open_becomes_a_root(self):
        stream = fold_trace(_text(_HEADER, _span(1, 0, "done")))
        assert [s["name"] for s in stream.document["spans"]] == ["done"]

    def test_partial_last_line_is_ignored(self):
        text = _text(_HEADER, _span(0, None, "root"))
        stream = fold_trace(text + '{"kind": "span", "id": 1, "par')
        assert len(stream.document["spans"]) == 1

    def test_counters_and_gauges_come_from_the_last_metrics_line(self):
        stream = fold_trace(
            _text(
                _HEADER,
                {"kind": "metrics", "ts_unix": 6.0,
                 "counters": {"a": 1}, "gauges": {"g": 1.0}},
                {"kind": "metrics", "ts_unix": 7.0,
                 "counters": {"a": 2}, "gauges": {"g": 3.0}},
            )
        )
        assert stream.document["counters"] == {"a": 2}
        assert stream.document["gauges"] == {"g": 3.0}

    def test_end_line_finishes_and_carries_the_manifest(self):
        stream = fold_trace(
            _text(
                _HEADER,
                {"kind": "end", "ts_unix": 9.0, "manifest": {"m": 1}},
            )
        )
        assert stream.finished
        assert stream.document["manifest"] == {"m": 1}

    def test_empty_text_folds_to_an_empty_stream(self):
        stream = fold_trace("")
        assert stream.document["schema"] is None
        assert stream.document["spans"] == []
        assert stream.document["counters"] == {}
        assert not stream.finished

    @pytest.mark.parametrize(
        "text,match",
        [
            ("not json\n", "line 1"),
            (_text(_span(0, None, "x")), "header"),
            (_text(_HEADER, {"kind": "mystery"}), "unknown line kind"),
            (_text(_HEADER, {"kind": "span", "id": 0}), "line 2"),
            (_text(_HEADER, ["a", "list"]), "line 2"),
            (
                _text(_HEADER, {"kind": "metrics", "ts_unix": 1.0,
                                "counters": [], "gauges": {}}),
                "counters and gauges",
            ),
        ],
    )
    def test_malformed_lines_raise(self, text, match):
        with pytest.raises(ValidationError, match=match):
            fold_trace(text)


class TestReadTrace:
    def test_v1_document_fails_naming_its_schema(self, tmp_path):
        path = tmp_path / "old.json"
        document = Recorder().to_document()
        document["schema"] = "repro-trace/v1"
        path.write_text(json.dumps(document, indent=2) + "\n")
        with pytest.raises(ValidationError, match="'repro-trace/v1'"):
            read_trace(path)

    def test_compact_v1_document_fails_naming_its_schema(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": "repro-trace/v1"}) + "\n")
        with pytest.raises(ValidationError, match="'repro-trace/v1'"):
            read_trace(path)

    def test_empty_file_has_no_header(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValidationError, match="no complete header"):
            read_trace(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_trace(tmp_path / "absent.jsonl")

    def test_unfinished_stream_reads_with_a_null_manifest(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(_text(_HEADER, _span(0, None, "root")))
        document = validate_trace(read_trace(path))
        assert document["manifest"] is None
        assert document["created_unix"] == 5.0

    def test_cli_rejects_a_v1_document_with_its_schema(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": "repro-trace/v1"}, indent=2))
        assert main(["trace", str(path)]) == 1
        assert "'repro-trace/v1'" in capsys.readouterr().err


class TestTraceCommandOnDamagedFiles:
    """``repro trace`` exits 2 on an unreadable file, 1 on a file that is
    not a stream, and reads a stream cut mid-line as an unfinished run."""

    @pytest.fixture
    def good(self, tmp_path):
        path = tmp_path / "good.jsonl"
        path.write_text(_text(_HEADER, _span(0, None, "root")))
        return path

    @pytest.mark.parametrize("side", [0, 1])
    def test_diff_with_a_missing_side_exits_2(
        self, good, tmp_path, capsys, side
    ):
        from repro.cli import main

        files = [str(good), str(good)]
        files[side] = str(tmp_path / "absent.jsonl")
        assert main(["trace", "diff", *files]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: trace file not found: {files[side]}\n"
        assert captured.out == ""

    def test_validate_of_a_missing_file_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", str(tmp_path / "absent.jsonl"), "--validate"]) == 2
        assert "trace file not found" in capsys.readouterr().err

    def test_stream_cut_mid_line_validates_and_renders(self, tmp_path, capsys):
        from repro.cli import main

        text = _text(
            _HEADER,
            _span(1, 0, "engine.job"),
            _span(0, None, "engine.run"),
            {"kind": "metrics", "ts_unix": 12.0, "counters": {"jobs": 1},
             "gauges": {}},
            {"kind": "end", "ts_unix": 12.5, "manifest": None},
        )
        path = tmp_path / "cut.jsonl"
        path.write_text(text[: len(text) - 10])  # the end line is torn
        assert not fold_trace(path.read_text()).finished
        assert main(["trace", str(path), "--validate"]) == 0
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "engine.run" in out and "engine.job" in out
        assert "jobs=1" in out

    def test_corrupt_complete_line_exits_1(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.jsonl"
        path.write_text(_text(_HEADER) + "not json\n")
        assert main(["trace", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid trace:")
        assert "line 2" in err

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "binary.jsonl"
        path.write_bytes(b"\xff\xfe\x00garbage\n")
        assert main(["trace", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read trace:")

    def test_view_takes_one_file(self, good, capsys):
        from repro.cli import main

        assert main(["trace", str(good), str(good)]) == 2
        assert "views one file" in capsys.readouterr().err
