import json

import pytest
from click.testing import CliRunner

from dualnav.cli import main


def test_help_lists_commands():
    result = CliRunner().invoke(main, ["--help"])
    assert result.exit_code == 0
    for cmd in ("bench-map2d", "bench-flight3d", "bench-optimizer", "run"):
        assert cmd in result.output


def test_bench_optimizer_command(tmp_path):
    result = CliRunner().invoke(
        main, ["bench-optimizer", "--instances", "20",
               "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "bench_optimizer.json").read_text())
    assert payload["instances"] == 20


def test_run_empty_world_command(tmp_path):
    result = CliRunner().invoke(
        main, ["run", "--world", "empty", "--seed", "1",
               "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "episode_000_trajectory.csv").exists()
    assert (tmp_path / "manifest.json").exists()
    assert '"status"' in result.output


def test_bench_map2d_command(tmp_path):
    result = CliRunner().invoke(
        main, ["bench-map2d", "--trials", "1", "--map-size", "200",
               "--local-size", "100", "--min-dist", "120",
               "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "bench_map2d.json").read_text())
    assert payload["trials"] == 1
    assert len(payload["rows"]) == 1


def assert_usage_error(tmp_path, args, text):
    """Exit 2 with a usage message that names `text`, and no file written."""
    result = CliRunner().invoke(main, args + ["--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "Usage:" in result.output and text in result.output
    assert not list(tmp_path.iterdir())


def test_bench_map2d_min_dist_beyond_the_diagonal_is_a_usage_error(tmp_path):
    # the default --min-dist 500 exceeds a 200-cell map's diagonal
    assert_usage_error(tmp_path, ["bench-map2d", "--map-size", "200"],
                       "diagonal")


def test_bench_map2d_local_size_without_a_fine_window_is_a_usage_error(
        tmp_path):
    # a 2-cell local map gives Map_c int(2 * 0.35) = 0 cells per side
    assert_usage_error(tmp_path, ["bench-map2d", "--trials", "1",
                                  "--map-size", "200", "--min-dist", "100",
                                  "--local-size", "2"], "m >= 1")


def test_bench_map2d_local_size_leaving_map_c_is_a_usage_error(tmp_path):
    # local size 10: Map_c 3 cells, stride 6; this raised IndexError
    assert_usage_error(tmp_path, ["bench-map2d", "--trials", "1",
                                  "--map-size", "200", "--min-dist", "100",
                                  "--local-size", "10"], "outside Map_c")


def test_negative_seed_is_a_usage_error(tmp_path):
    assert_usage_error(tmp_path, ["run", "--seed", "-1"], "--seed")


@pytest.mark.parametrize("args", [
    ["bench-optimizer", "--instances", "0"],
    ["bench-optimizer", "--instances", "-5"],
    ["bench-map2d", "--trials", "0"], ["bench-map2d", "--map-size", "0"],
    ["bench-flight3d", "--worlds", "-1"]])
def test_out_of_range_count_is_a_usage_error(tmp_path, args):
    # a count of 0 divided by zero or wrote NaN; a negative one ran anyway
    assert_usage_error(tmp_path, args, args[1])
