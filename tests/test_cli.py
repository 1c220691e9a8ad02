import json

from click.testing import CliRunner

from dualnav.cli import main


def test_help_lists_commands():
    result = CliRunner().invoke(main, ["--help"])
    assert result.exit_code == 0
    for cmd in ("bench-map2d", "bench-flight3d", "bench-optimizer",
                "run", "export"):
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


def test_bench_map2d_min_dist_beyond_the_diagonal_is_a_usage_error(tmp_path):
    # the default --min-dist 500 exceeds a 200-cell map's diagonal
    result = CliRunner().invoke(
        main, ["bench-map2d", "--map-size", "200", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "Usage:" in result.output and "diagonal" in result.output
    assert not (tmp_path / "bench_map2d.json").exists()


def test_bench_map2d_local_size_without_a_fine_window_is_a_usage_error(
        tmp_path):
    # a 2-cell local map gives Map_c int(2 * 0.35) = 0 cells per side
    result = CliRunner().invoke(
        main, ["bench-map2d", "--trials", "1", "--map-size", "200",
               "--min-dist", "100", "--local-size", "2",
               "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "Usage:" in result.output and "m >= 1" in result.output
    assert not (tmp_path / "bench_map2d.json").exists()


def test_bench_map2d_local_size_leaving_map_c_is_a_usage_error(tmp_path):
    # local size 10: Map_c 3 cells, stride 6; this raised IndexError
    result = CliRunner().invoke(
        main, ["bench-map2d", "--trials", "1", "--map-size", "200",
               "--min-dist", "100", "--local-size", "10",
               "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "Usage:" in result.output and "outside Map_c" in result.output
    assert not (tmp_path / "bench_map2d.json").exists()


def test_negative_seed_is_a_usage_error(tmp_path):
    result = CliRunner().invoke(
        main, ["run", "--seed", "-1", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "Usage:" in result.output and "--seed" in result.output
    assert not (tmp_path / "manifest.json").exists()
