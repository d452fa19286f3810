"""Sweep every labeled graph up to n=4 and audit the blocked reduction.

Writes the row CSV and JSON summary next to this script, then tallies where
the measured backward direction fails. Re-running produces byte-identical
files.
"""

from pathlib import Path

from arcseq import SweepConfig, run_sweep

out = Path(__file__).with_name("t2_sweep.csv")
report = run_sweep(SweepConfig("T2", (1, 4), output_csv=out))

counts = report.counts()
print(f"rows: {counts['rows']}   skipped: {counts['skipped']}")
print(f"forward failures:  {counts['forward_failures']}")
print(f"backward failures: {counts['backward_failures']}")

print()
print("first few backward counterexamples (dense graph, small independence number,")
print("yet few enough conflicts that the sequence optimum clears the threshold):")
for row in report.counterexamples[:5]:
    print(
        f"  {row.graph_id:7s} n={row.n} m={row.m} k={row.k}: "
        f"lapcs {row.lapcs_len} >= threshold {row.threshold} "
        f"but max independent set < {row.k}"
    )

print()
print(f"full report: {out} and {out.with_suffix('.summary.json')}")
