"""Tests for the command-line interface."""

import csv
import json

import pytest

from repro.cli import build_parser, main
from repro.data.adult import adult_schema
from repro.data.io import read_csv


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_generate_writes_csv(tmp_path, capsys):
    output = tmp_path / "adult.csv"
    code = main(["generate", "--rows", "120", "--seed", "7", "--output", str(output)])
    assert code == 0
    assert "wrote 120 rows" in capsys.readouterr().out
    table = read_csv(output, adult_schema())
    assert table.n_rows == 120


def test_generate_is_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    main(["generate", "--rows", "50", "--seed", "3", "--output", str(first)])
    main(["generate", "--rows", "50", "--seed", "3", "--output", str(second)])
    assert first.read_text() == second.read_text()


def test_anonymize_synthetic_table(tmp_path, capsys):
    output = tmp_path / "release.csv"
    code = main(
        [
            "anonymize",
            "--rows", "300",
            "--model", "bt",
            "--b", "0.3",
            "--t", "0.25",
            "--k", "3",
            "--output", str(output),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "groups" in out and "DM=" in out
    with output.open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 300
    # Quasi-identifiers are generalized (ranges or labels), sensitive values are exact.
    assert any("[" in row["Age"] for row in rows)
    assert all(row["Occupation"] for row in rows)


def test_anonymize_from_csv_input(tmp_path):
    source = tmp_path / "source.csv"
    release = tmp_path / "release.csv"
    main(["generate", "--rows", "200", "--seed", "5", "--output", str(source)])
    code = main(
        [
            "anonymize",
            "--input", str(source),
            "--model", "distinct-l",
            "--l", "3",
            "--k", "3",
            "--output", str(release),
        ]
    )
    assert code == 0
    with release.open() as handle:
        assert len(list(csv.DictReader(handle))) == 200


def test_attack_reports_vulnerable_tuples(capsys):
    code = main(
        [
            "attack",
            "--rows", "300",
            "--model", "distinct-l",
            "--l", "3",
            "--k", "3",
            "--t", "0.25",
            "--b-prime", "0.3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "vulnerable tuples:" in out
    assert "worst-case knowledge gain:" in out


def test_attack_bt_matched_adversary_is_safe(capsys):
    code = main(
        [
            "attack",
            "--rows", "300",
            "--model", "bt",
            "--b", "0.3",
            "--t", "0.25",
            "--k", "3",
            "--b-prime", "0.3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "vulnerable tuples: 0 /" in out


def test_figure_command_prints_table(capsys):
    code = main(["figure", "--id", "2", "--rows", "400", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "N value" in out


def test_figure_rejects_unknown_id():
    with pytest.raises(SystemExit):
        main(["figure", "--id", "99", "--rows", "200"])


def test_model_choices_sourced_from_registry():
    from repro.api import MODELS

    parser = build_parser()
    args = parser.parse_args(["anonymize", "--model", "bt", "--output", "x.csv"])
    assert args.model == "bt"
    for name in MODELS.names():
        parser.parse_args(["anonymize", "--model", name, "--output", "x.csv"])
    with pytest.raises(SystemExit):
        parser.parse_args(["anonymize", "--model", "not-a-model", "--output", "x.csv"])


def test_distinct_l_rejects_non_integer_l(tmp_path, capsys):
    code = main(
        [
            "anonymize",
            "--rows", "100",
            "--model", "distinct-l",
            "--l", "2.5",
            "--k", "2",
            "--output", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "integer" in err


def test_sweep_runs_model_grid(capsys):
    code = main(
        [
            "sweep",
            "--rows", "250",
            "--seed", "7",
            "--k", "3",
            "--t", "0.25",
            "--l", "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    # The default grid spans the paper's four models through one session.
    assert "4 configurations" in out
    for label in ("bt(", "distinct-l(", "probabilistic-l(", "t-closeness("):
        assert label in out
    assert "vulnerable_tuples" in out
    assert "1 prior estimation(s)" in out


def test_sweep_explicit_models_and_no_audit(capsys):
    code = main(
        [
            "sweep",
            "--rows", "250",
            "--seed", "7",
            "--k", "3",
            "--t", "0.25",
            "--l", "3",
            "--model", "distinct-l",
            "--model", "entropy-l",
            "--model", "t-closeness",
            "--no-audit",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "3 configurations" in out
    assert "entropy-l(" in out
    assert "vulnerable_tuples" not in out


def test_error_paths_return_nonzero(tmp_path, capsys):
    # Impossible requirement: more distinct values than the domain holds.
    code = main(
        [
            "anonymize",
            "--rows", "100",
            "--model", "distinct-l",
            "--l", "50",
            "--k", "2",
            "--output", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_audit_reports_skyline(capsys, tmp_path):
    import json

    output = tmp_path / "audit.json"
    code = main([
        "audit", "--rows", "250", "--seed", "5", "--model", "distinct-l", "--l", "3",
        "--k", "3", "--skyline", "0.1:0.3,0.4:0.25", "--json", str(output),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "skyline audit" in out and "2 adversaries" in out
    payload = json.loads(output.read_text())
    assert payload["skyline_size"] == 2
    assert [entry["t"] for entry in payload["adversaries"]] == [0.3, 0.25]


def test_audit_defaults_to_model_point_and_fail_on_breach(capsys):
    # A bt release audited against its own (b, t) must satisfy the skyline.
    code = main([
        "audit", "--rows", "250", "--seed", "5", "--model", "bt",
        "--b", "0.3", "--t", "0.3", "--k", "3", "--fail-on-breach",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 adversaries (SATISFIED)" in out
    # An impossible budget breaches and, with --fail-on-breach, exits 3.
    code = main([
        "audit", "--rows", "250", "--seed", "5", "--model", "distinct-l", "--l", "3",
        "--k", "3", "--skyline", "0.3:0.0", "--fail-on-breach",
    ])
    assert code == 3


@pytest.mark.parametrize("command", ["anonymize", "attack", "audit", "sweep", "stream"])
def test_max_cells_rejects_malformed_budgets(capsys, command):
    # Malformed/non-positive budgets are caught by argparse validation: usage
    # error, exit 2, one line on stderr instead of a traceback - like --skyline.
    for bad in ("0", "-1", "abc", "1.5", ""):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--rows", "100", "--max-cells", bad])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "cell budget" in err
        assert "Traceback" not in err


def test_max_cells_threads_through_audit(capsys):
    # A tiny budget forces the blocked contraction; the audit still runs and
    # reports the same shape of output.
    code = main([
        "audit", "--rows", "150", "--model", "distinct-l", "--l", "3", "--k", "3",
        "--max-cells", "40", "--skyline", "0.2:0.4,0.4:0.4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "skyline audit" in out and "2 adversaries" in out


def test_audit_rejects_bad_skyline_spec(capsys):
    # Malformed specs are caught by argparse validation: usage error, exit 2,
    # one line on stderr instead of a traceback.
    for spec in ("0.3", "a:b", ",", "b:t:x", "0.3:-0.1", "-0.2:0.1", "0.3:1.5"):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "audit", "--rows", "200", "--model", "distinct-l", "--l", "3",
                "--k", "3", "--skyline", spec,
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "skyline" in err
        assert "Traceback" not in err


def test_stream_publishes_versions(capsys):
    code = main([
        "stream", "--rows", "400", "--batch-size", "60", "--batches", "2",
        "--model", "distinct-l", "--l", "3", "--k", "3",
        "--skyline", "0.3:0.35",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "v0: seed 400 rows" in out
    assert "v1: +60 rows" in out and "v2: +60 rows" in out
    assert "reused" in out and "rebuilt" in out


def test_stream_writes_json_lineage(tmp_path, capsys):
    lineage_path = tmp_path / "lineage.json"
    code = main([
        "stream", "--rows", "400", "--batch-size", "50", "--batches", "2",
        "--model", "distinct-l", "--l", "3", "--k", "3",
        "--skyline", "0.3:0.35", "--json", str(lineage_path),
    ])
    assert code == 0
    payload = json.loads(lineage_path.read_text())
    assert len(payload["versions"]) == 3
    assert payload["versions"][1]["delta"]["appended_rows"] == 50
    assert "audit" in payload["versions"][0]
    assert "audit_delta" in payload["versions"][1]


def test_stream_fail_on_breach_exits_3(capsys):
    # A t=0.01 budget is unsatisfiable for the seed release: every version
    # breaches and --fail-on-breach must report it via exit status 3.
    code = main([
        "stream", "--rows", "400", "--batch-size", "50", "--batches", "1",
        "--model", "distinct-l", "--l", "3", "--k", "3",
        "--skyline", "0.3:0.01", "--fail-on-breach",
    ])
    assert code == 3
    assert "BREACH" in capsys.readouterr().out


def test_stream_rejects_malformed_skyline(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "stream", "--rows", "200", "--model", "distinct-l", "--l", "3",
            "--skyline", "0.3",
        ])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "skyline" in err and "Traceback" not in err


def test_stream_rejects_bad_batch_configuration(capsys):
    code = main([
        "stream", "--rows", "200", "--model", "distinct-l", "--l", "3",
        "--batches", "0",
    ])
    assert code == 1
    assert "batch" in capsys.readouterr().err


def test_stream_full_lifecycle_with_store_and_resume(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    code = main([
        "stream", "--rows", "300", "--batch-size", "40", "--batches", "2",
        "--model", "distinct-l", "--l", "2", "--k", "2",
        "--skyline", "0.3:0.5",
        "--delete-frac", "0.25", "--update-frac", "0.25",
        "--store-dir", store_dir,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "v1: +40 rows" in out
    assert "v2: -10 rows" in out  # the delete slice of each round
    assert "v3: ~10 rows" in out  # the update slice of each round
    assert (tmp_path / "store" / "lineage.jsonl").exists()
    assert (tmp_path / "store" / "state.json").exists()

    # Resume from the persisted store and keep streaming.
    code = main([
        "stream", "--rows", "300", "--batch-size", "40", "--batches", "1",
        "--model", "distinct-l", "--l", "2", "--k", "2",
        "--resume", "--store-dir", store_dir,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "resumed at v6" in out
    assert "v7: +40 rows" in out


def test_stream_rejects_malformed_fractions(capsys):
    for flag, value in (("--delete-frac", "1.5"), ("--update-frac", "nope")):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "stream", "--rows", "200", "--model", "distinct-l", "--l", "3",
                flag, value,
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "fraction" in err and "Traceback" not in err


def test_stream_rejects_bad_compact_drift(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "stream", "--rows", "200", "--model", "distinct-l", "--l", "3",
            "--compact-drift", "0",
        ])
    assert excinfo.value.code == 2
    assert "positive" in capsys.readouterr().err


def test_stream_resume_requires_store_dir(capsys):
    code = main([
        "stream", "--rows", "200", "--model", "distinct-l", "--l", "3",
        "--resume",
    ])
    assert code == 1
    assert "--store-dir" in capsys.readouterr().err


def test_serve_requires_data_dir(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["serve"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--data-dir" in err and "Traceback" not in err


def test_serve_rejects_malformed_ports(capsys, tmp_path):
    # Malformed/out-of-range ports are argparse usage errors: exit 2, one
    # line on stderr, no traceback - same contract as --skyline/--max-cells.
    for bad in ("-1", "65536", "abc", "8.5", ""):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--data-dir", str(tmp_path), "--port", bad])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --port" in err and "Traceback" not in err


def test_serve_rejects_malformed_hosts(capsys, tmp_path):
    for bad in ("", "   ", "bad host", "http://x/y"):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--data-dir", str(tmp_path), "--host", bad])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "host" in err and "Traceback" not in err


def test_serve_rejects_malformed_coalesce_windows(capsys, tmp_path):
    for bad in ("-1", "nan", "inf", "1e20", "soon", ""):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--data-dir", str(tmp_path), "--coalesce-ms", bad])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "coalescing window" in err and "Traceback" not in err


def test_serve_has_no_publication_pool_flags(capsys, tmp_path):
    # Publication runs on each stream's host thread only; the old
    # process-pool flags are unknown options now, not silent no-ops.
    for flag, value in (("--publish-workers", "2"), ("--publish-timeout", "5")):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--data-dir", str(tmp_path), flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag in err


def test_serve_rejects_data_dir_colliding_with_a_file(capsys, tmp_path):
    collision = tmp_path / "not-a-dir"
    collision.write_text("occupied")
    for bad in (str(collision), ""):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--data-dir", bad])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "data dir" in err and "Traceback" not in err


def test_serve_reports_bind_failures_as_one_line_errors(capsys, tmp_path):
    # An unresolvable host passes syntactic validation but cannot bind; the
    # daemon wraps the OSError as a ReproError -> exit 1, one line, no trace.
    code = main([
        "serve", "--data-dir", str(tmp_path),
        "--host", "definitely-not-a-host-xyz.invalid", "--port", "0",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "cannot serve" in err and "Traceback" not in err


def test_stream_trace_out_writes_one_nested_span_tree(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    code = main([
        "stream", "--rows", "300", "--batch-size", "40", "--batches", "2",
        "--model", "distinct-l", "--l", "3", "--k", "3",
        "--skyline", "0.3:0.35", "--trace-out", str(trace_path),
    ])
    assert code == 0
    assert "wrote span trace to" in capsys.readouterr().out
    trace = json.loads(trace_path.read_text())
    # The whole run - seed publish plus every batch - is one tree under the
    # enclosing cli.stream span, with each publication a publish.* child.
    assert trace["name"] == "cli.stream"
    assert trace["attributes"]["batches"] == 2
    publishes = [
        child["name"] for child in trace["children"]
        if child["name"].startswith("publish.")
    ]
    assert publishes == ["publish.full", "publish.append", "publish.append"]
    for child in trace["children"]:
        assert child["duration_s"] <= trace["duration_s"]
        assert child["start_s"] >= 0.0


def test_anonymize_trace_out_captures_the_pipeline(tmp_path):
    trace_path = tmp_path / "trace.json"
    code = main([
        "anonymize", "--rows", "200", "--model", "distinct-l", "--l", "3",
        "--k", "2", "--output", str(tmp_path / "release.csv"),
        "--trace-out", str(trace_path),
    ])
    assert code == 0
    trace = json.loads(trace_path.read_text())
    assert trace["duration_s"] > 0.0
    assert trace["children"], "the pipeline stages are recorded as spans"


def test_trace_out_rejects_malformed_paths(tmp_path, capsys):
    # A directory, and a file in a directory that does not exist: both are
    # argparse-level failures -> exit 2, one line, no traceback.
    for bad in (str(tmp_path), str(tmp_path / "absent" / "trace.json"), ""):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "stream", "--rows", "200", "--model", "distinct-l", "--l", "3",
                "--trace-out", bad,
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "bad trace path" in err and "Traceback" not in err


def test_chunk_rows_rejects_malformed_sizes(capsys):
    # Same house style as --max-cells/--skyline: argparse usage error, exit 2,
    # one line on stderr, no traceback.
    for bad in ("0", "-4", "abc", "1.5", ""):
        with pytest.raises(SystemExit) as excinfo:
            main(["audit", "--rows", "100", "--chunk-rows", bad])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "chunk size" in err
        assert "Traceback" not in err


def test_generate_npz_then_chunked_audit(capsys, tmp_path):
    source = tmp_path / "adult.npz"
    code = main(["generate", "--rows", "300", "--seed", "5", "--output", str(source)])
    assert code == 0
    assert "300 rows" in capsys.readouterr().out
    code = main([
        "audit", "--input", str(source), "--chunk-rows", "64",
        "--model", "distinct-l", "--l", "3", "--k", "3",
        "--skyline", "0.2:0.4,0.4:0.4",
    ])
    assert code == 0
    assert "skyline audit" in capsys.readouterr().out


def test_csv_and_npz_inputs_give_identical_releases(capsys, tmp_path):
    csv_source = tmp_path / "adult.csv"
    npz_source = tmp_path / "adult.npz"
    main(["generate", "--rows", "250", "--seed", "9", "--output", str(csv_source)])
    main(["generate", "--rows", "250", "--seed", "9", "--output", str(npz_source)])
    capsys.readouterr()
    from_csv = tmp_path / "from-csv.csv"
    from_npz = tmp_path / "from-npz.csv"
    for source, release in ((csv_source, from_csv), (npz_source, from_npz)):
        code = main([
            "anonymize", "--input", str(source), "--chunk-rows", "100",
            "--model", "distinct-l", "--l", "3", "--k", "3",
            "--output", str(release),
        ])
        assert code == 0
    assert from_csv.read_text() == from_npz.read_text()
