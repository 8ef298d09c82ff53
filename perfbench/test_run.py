"""Tests of the runner's accounting that need no measured process.

Run with `python3 -m pytest perfbench/test_run.py` from the root of the
checkout.
"""

import pytest

from probe import clock
from run import Runner, select

DECLARED = [{'name': 'norm_s', 'unit': 's'},
            {'name': 'pass_ratio', 'unit': 'ratio'}]


def test_past_deadline_starts_nothing_and_marks_the_cut(tmp_path):
    runner = Runner(str(tmp_path), str(tmp_path), clock() - 1.0)
    assert runner.launch({'mode': 'import'}) is None
    assert runner.cut_off
    assert list(tmp_path.iterdir()) == []


def test_complete_run_must_report_every_declared_metric():
    with pytest.raises(KeyError):
        select({'pass_ratio': 1.0}, DECLARED)


def test_failed_run_reports_what_it_measured():
    assert select({'pass_ratio': 0.5}, DECLARED, complete=False) == {
        'pass_ratio': {'value': 0.5, 'unit': 'ratio'}}
