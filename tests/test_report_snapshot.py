import json

import report_snapshot


def test_reports_match_the_snapshot(tmp_path):
    """Every report over the small inputs hashes as recorded; regenerate with tests/report_snapshot.py."""
    expected = json.loads(report_snapshot.SNAPSHOT.read_text(encoding="utf-8"))
    differ = report_snapshot.first_difference(expected, report_snapshot.reports(tmp_path))
    assert differ is None, f"the report of posetctl {differ} differs from the snapshot"
