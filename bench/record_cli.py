"""Record the exit code and stdout digest of every well-formed cli-verbs case.

    python3 bench/record_cli.py

Writes bench/fixtures/cli_expected.json.  The cli-verbs workload compares
each invocation against this record, so re-run it only when a change is
meant to alter a report, and say so in the change.
"""

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from posetspace import cli

    import workloads

    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    record = {}
    for label, argv in sorted(workloads.all_recorded_cases().items()):
        code, stdout = workloads.run_cli(cli, argv)
        record[label] = {"argv": argv, "exit": code, "sha256": hashlib.sha256(stdout).hexdigest()}
        print(f"{label}: exit {code}, {len(stdout)} bytes")
    with open(workloads.CLI_EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
