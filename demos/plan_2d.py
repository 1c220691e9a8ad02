"""Stitched dual-resolution 2D planning on one large random map."""
import time

from dualnav.bench import bench_map2d


def main():
    tic = time.perf_counter()
    out = bench_map2d(map_size=800, trials=3, seed=1, min_dist=500,
                      local_size=200)
    elapsed = time.perf_counter() - tic
    print(f"{out['trials']} trials in {elapsed:.1f}s")
    for row in out["rows"]:
        print(f"  seed {row['seed']}: global {row['len_global']:.1f}, "
              f"local {row['len_local']:.1f}, "
              f"stitched {row['len_stitched']:.1f} cells")
    print(f"mean length ratio local/global:     "
          f"{out['mean_len_ratio_local']:.4f}")
    print(f"mean step-time ratio local/global:  "
          f"{out['mean_time_ratio_local']:.4f}")
    print(f"mean length ratio stitched/local:   "
          f"{out['mean_len_ratio_stitched']:.4f}")
    print(f"mean step-time ratio stitched/local:"
          f" {out['mean_time_ratio_stitched']:.4f}")


if __name__ == "__main__":
    main()
