#!/usr/bin/env python3
"""Print the deterministic work counters of one armed campaign run.

Input is what `psched_campaign SPEC --stats --out DIR` leaves behind: its
stdout (the "subsystem counters" table) and DIR/summary.json (the armed
"breakdown" block). Output is one line per deterministic-class counter,
then one line per cell with its events_delivered and scheduler_invocations.
Every value is exact and independent of --jobs, so the output is diffed
verbatim against a committed snapshot (tests/data/*_smoke.counters):
a cost blow-up such as a timer storm fails the gate instead of waiting for
someone to read a wall-clock number.

Usage:
  tools/counter_snapshot.py STATS_STDOUT SUMMARY_JSON
"""

import json
import sys

TABLE_TITLE = "== subsystem counters (nonzero) =="


def counter_rows(stdout_path):
    with open(stdout_path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if TABLE_TITLE not in lines:
        sys.exit("counter_snapshot: no counter table in %s (run with --stats)" % stdout_path)
    rows = []
    # Title, header and rule lines precede the rows; a blank line ends them.
    for line in lines[lines.index(TABLE_TITLE) + 3:]:
        fields = line.split()
        if len(fields) != 3:
            break
        if fields[1] == "deterministic":
            rows.append("counter %s %s" % (fields[0], fields[2]))
    return rows


def cell_rows(summary_path):
    with open(summary_path, "r", encoding="utf-8") as handle:
        summary = json.load(handle)
    if "breakdown" not in summary:
        sys.exit("counter_snapshot: %s has no breakdown block (run with --stats)" % summary_path)
    return ["cell %d %s events_delivered %d scheduler_invocations %d"
            % (cell["index"], cell["policy"], cell["events_delivered"],
               cell["scheduler_invocations"])
            for cell in summary["breakdown"]]


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: tools/counter_snapshot.py STATS_STDOUT SUMMARY_JSON")
    for row in counter_rows(sys.argv[1]) + cell_rows(sys.argv[2]):
        print(row)


if __name__ == "__main__":
    main()
