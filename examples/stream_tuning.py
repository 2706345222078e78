#!/usr/bin/env python
"""VMPI stream tuning: throughput vs writer/reader ratio (paper Figure 14).

Sweeps the analyzer-partition sizing ratio for a fixed writer count using
the paper's own coupling codes (Figures 11/12) and compares stream
throughput against the job-scaled file-system bandwidth — reproducing the
paper's guidance that ratios between 1/1 and 1/32 provide enough bandwidth
for profiling, with 1/10 a good bandwidth-resource trade-off and the
file-system crossover near 1/25.

Run:  python examples/stream_tuning.py [writers]
"""

import sys

from repro.bench.harness import stream_point
from repro.network.machine import TERA100
from repro.util.tables import Table
from repro.util.units import GB, MIB


def main() -> None:
    writers = int(sys.argv[1]) if len(sys.argv) > 1 else 640
    fs_scaled = TERA100.fs_job_bandwidth(writers)
    table = Table(
        ["ratio", "readers", "stream_GBps", "fs_scaled_GBps", "verdict"],
        title=f"VMPI stream throughput at {writers} writers (Tera 100 model)",
    )
    for ratio in (1, 2, 4, 8, 10, 16, 25, 32, 64):
        point = stream_point(
            TERA100, writers, ratio, bytes_per_writer=32 * MIB, block_size=MIB, seed=0
        )
        verdict = "streams win" if point["throughput"] > fs_scaled else "file system wins"
        table.add_row(
            ratio,
            int(point["readers"]),
            point["throughput"] / GB,
            fs_scaled / GB,
            verdict,
        )
    print(table.render())
    print()
    print("Paper reference points (2560 writers, 1 GB each): peak 98.5 GB/s at")
    print("ratio 1/1; competitive with the 9.1 GB/s scaled file system until")
    print("~1/25; 1/10 recommended as the bandwidth-resource trade-off.")


if __name__ == "__main__":
    main()
