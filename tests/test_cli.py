"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import (
    EXIT_ARTIFACT,
    EXIT_QUERY,
    EXIT_USAGE,
    EXIT_WORKLOAD,
    build_parser,
    build_system,
    load_dataset,
    main,
    run_compress,
    run_query,
)
from repro.storage import inspect_model


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_requires_dataset_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compress"])

    def test_synthetic_defaults(self):
        args = build_parser().parse_args(["compress", "--synthetic", "porto"])
        assert args.synthetic == "porto"
        assert args.variant == "ppq-a"
        assert args.trajectories == 100

    def test_query_requires_coordinates(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--synthetic", "porto"])


class TestBuilders:
    def test_load_synthetic_dataset(self):
        args = build_parser().parse_args(
            ["compress", "--synthetic", "porto", "--trajectories", "5"]
        )
        dataset = load_dataset(args)
        assert len(dataset) == 5

    def test_build_system_variants(self):
        for variant, expected in [("ppq-a", "ppq"), ("ppq-s", "ppq"), ("epq", "epq")]:
            args = build_parser().parse_args(
                ["compress", "--synthetic", "porto", "--variant", variant]
            )
            system = build_system(args)
            assert system.variant == expected

    def test_no_cqc_flag(self):
        args = build_parser().parse_args(
            ["compress", "--synthetic", "porto", "--no-cqc"]
        )
        system = build_system(args)
        assert not system.cqc_config.enabled


class TestCommands:
    def test_compress_prints_statistics(self):
        out = io.StringIO()
        args = build_parser().parse_args(
            ["compress", "--synthetic", "porto", "--trajectories", "8", "--seed", "3"]
        )
        assert run_compress(args, out=out) == 0
        text = out.getvalue()
        assert "codewords" in text
        assert "compression ratio" in text

    def test_query_finds_known_trajectory(self):
        args = build_parser().parse_args(
            ["query", "--synthetic", "porto", "--trajectories", "8", "--seed", "3",
             "--x", "0", "--y", "0", "--t", "5", "--length", "4"]
        )
        # Use the actual position of trajectory 0 at t=5 as the query point.
        dataset = load_dataset(args)
        point = dataset.get(0).points[5]
        args.x, args.y = float(point[0]), float(point[1])
        out = io.StringIO()
        assert run_query(args, out=out) == 0
        assert "STRQ" in out.getvalue()

    def test_main_dispatch(self, capsys):
        code = main(["compress", "--synthetic", "porto", "--trajectories", "5", "--seed", "1"])
        assert code == 0
        assert "points" in capsys.readouterr().out


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """A small saved artifact shared by the exit-code tests."""
    path = tmp_path_factory.mktemp("cli") / "model.ppq"
    code = main(["save", "--synthetic", "porto", "--trajectories", "8",
                 "--seed", "3", "--output", str(path)])
    assert code == 0
    return path


class TestExitCodes:
    def test_missing_artifact_is_usage_error(self, tmp_path, capsys):
        assert main(["load", str(tmp_path / "nope.ppq")]) == EXIT_USAGE
        assert "cannot read artifact" in capsys.readouterr().err

    def test_malformed_artifact_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "garbage.ppq"
        bad.write_bytes(b"this is not a model artifact" * 8)
        assert main(["load", str(bad)]) == EXIT_ARTIFACT
        assert main(["info", str(bad)]) == EXIT_ARTIFACT
        assert main(["query", "--model", str(bad), "--x", "0", "--y", "0",
                     "--t", "0"]) == EXIT_ARTIFACT
        err = capsys.readouterr().err
        assert "error: artifact" in err

    def test_corrupt_artifact_strict_vs_salvage(self, saved_model, tmp_path, capsys):
        section = next(s for s in inspect_model(saved_model).sections
                       if s.name == "INDEX")
        blob = bytearray(saved_model.read_bytes())
        blob[section.offset + section.length // 2] ^= 0xFF
        bad = tmp_path / "corrupt.ppq"
        bad.write_bytes(bytes(blob))

        # info prints the whole section table, then fails like a strict load.
        assert main(["info", str(bad)]) == EXIT_ARTIFACT
        captured = capsys.readouterr()
        assert "crc=CORRUPT" in captured.out and "checksums           : FAILED" in captured.out
        assert captured.err.startswith("error: artifact") and "INDEX" in captured.err
        assert main(["load", str(bad)]) == EXIT_ARTIFACT
        capsys.readouterr()
        assert main(["load", "--no-strict", str(bad)]) == 0
        out = capsys.readouterr().out
        assert "salvaged" in out
        assert "INDEX: rebuilt" in out

    def test_bad_workload_exit_code(self, saved_model, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"type": "bogus", "x": 0, "y": 0, "t": 0}]))
        assert main(["query", "--model", str(saved_model),
                     "--workload", str(bad)]) == EXIT_WORKLOAD
        assert "invalid workload" in capsys.readouterr().err

    def test_missing_workload_file_is_usage_error(self, saved_model, tmp_path):
        assert main(["query", "--model", str(saved_model),
                     "--workload", str(tmp_path / "none.json")]) == EXIT_USAGE

    def test_failed_query_exit_code(self, tmp_path, capsys):
        """Exact queries against a --no-raw artifact fail with EXIT_QUERY."""
        path = tmp_path / "noraw.ppq"
        assert main(["save", "--synthetic", "porto", "--trajectories", "6",
                     "--seed", "3", "--output", str(path), "--no-raw"]) == 0
        workload = tmp_path / "exact.json"
        workload.write_text(json.dumps([{"type": "exact", "x": 0, "y": 0, "t": 0}]))
        capsys.readouterr()
        assert main(["query", "--model", str(path),
                     "--workload", str(workload)]) == EXIT_QUERY
        err = capsys.readouterr().err
        assert "query #0 (exact) failed" in err

    def test_good_workload_still_exits_zero(self, saved_model, tmp_path, capsys):
        workload = tmp_path / "ok.json"
        workload.write_text(json.dumps([{"type": "strq", "x": 0, "y": 0, "t": 0}]))
        assert main(["query", "--model", str(saved_model),
                     "--workload", str(workload)]) == 0
        assert "workload" in capsys.readouterr().out

    @pytest.mark.parametrize("payload", [
        ["strq"],                                       # entry is a string
        [{"x": 0, "y": 0, "t": 0}],                     # missing kind
        [{"type": "strq", "y": 0, "t": 0}],             # missing coordinate
        [{"type": "strq", "x": "a", "y": 0, "t": 0}],   # non-numeric field
        [{"type": "tpq", "x": 0, "y": 0, "t": 0}],      # tpq without length
        {"queries": "strq"},                            # queries not a list
        "just a string",
    ])
    def test_malformed_workloads_exit_code_four(self, saved_model, tmp_path,
                                                capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["query", "--model", str(saved_model),
                     "--workload", str(bad)]) == EXIT_WORKLOAD
        assert "invalid workload" in capsys.readouterr().err

    def test_unparseable_json_workload_exit_code_four(self, saved_model,
                                                      tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json at all")
        assert main(["query", "--model", str(saved_model),
                     "--workload", str(bad)]) == EXIT_WORKLOAD
        assert "invalid workload" in capsys.readouterr().err

    def test_empty_workload_exits_zero(self, saved_model, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"queries": []}))
        assert main(["query", "--model", str(saved_model),
                     "--workload", str(empty)]) == 0
        assert "0 queries" in capsys.readouterr().out


class TestDatasetSourceErrors:
    """A source that cannot be loaded or holds no trajectories fails with a
    one-line error and exit code 2 instead of a traceback or an empty fit."""

    @pytest.mark.parametrize("command", ["compress", "save", "query"])
    @pytest.mark.parametrize("flag, name, message", [
        ("--porto-csv", "missing.csv", "cannot load dataset"),
        ("--geolife-dir", "nowhere", "cannot load dataset"),
        ("--geolife-dir", "empty", "holds no trajectories"),
    ], ids=["missing-csv", "missing-dir", "empty-dir"])
    def test_unusable_source(self, command, flag, name, message, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        argv = [command, flag, str(tmp_path / name), *_command_tail(command, tmp_path)]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert name in captured.err and len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""
        assert not (tmp_path / "model.ppq").exists()

    def test_malformed_porto_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("A,B\n1,2\n", encoding="utf-8")
        assert main(["compress", "--porto-csv", str(bad)]) == EXIT_USAGE
        assert "POLYLINE" in capsys.readouterr().err


def _command_tail(command: str, tmp_path) -> list[str]:
    """The flags ``command`` needs besides its dataset source."""
    if command == "save":
        return ["--output", str(tmp_path / "model.ppq")]
    if command == "query":
        return ["--x", "0", "--y", "0", "--t", "0"]
    return []
