#!/usr/bin/env python3
"""Mobile vs desktop GPU optimisation study (the paper's Fig. 15).

Runs the six SGEMM variants — iteratively optimized *for desktop GPUs* —
on the simulated mobile GPU, and compares the first-order Mali cycle
estimate from their statistics with an analytical desktop-GPU cost
model. Reproduces the paper's headline: optimisations that help a
desktop GPU can hurt a mobile GPU, where register pressure and global
traffic decide the cost.

Run: ``python examples/mobile_vs_desktop.py``
"""

from repro.analysis.figures import fig15_sgemm


def main():
    data = fig15_sgemm(n=32)
    raw = {row["variant"]: row for row in data["raw"]}

    print(f"{'variant':22s} {'global LS':>10s} {'local LS':>10s} "
          f"{'registers':>10s} {'Mali cyc':>10s} {'desktop':>10s}")
    for variant in range(1, 7):
        row = raw[variant]
        print(f"{variant}:{row['label']:20s} {row['global_ls']:>10d} "
              f"{row['local_ls']:>10d} {row['registers']:>10d} "
              f"{row['mali_runtime']:>10.0f} {row['desktop_runtime']:>10.0f}")

    mali_best = min(raw.values(), key=lambda r: r["mali_runtime"])
    desk_best = min(raw.values(), key=lambda r: r["desktop_runtime"])
    print()
    print(f"best on mobile  : variant {mali_best['variant']} "
          f"({mali_best['label']})")
    print(f"best on desktop : variant {desk_best['variant']} "
          f"({desk_best['label']})")
    print()
    print("observations (cf. paper Section V-E2):")
    v4, v6 = raw[4], raw[6]
    print(f"  - variant 4 almost avoids global memory "
          f"({v4['global_ls']} vs {v6['global_ls']} accesses), "
          "shifting work to local memory")
    print(f"  - variant 6 (2D register blocking) eliminates local memory "
          f"({v6['local_ls']} accesses) but pays with global traffic — "
          "good for a desktop GPU, bad for a mobile one")
    print("  - there is no positive correlation between the two platforms' "
          "runtimes: desktop-tuned kernels do not transfer")


if __name__ == "__main__":
    main()
