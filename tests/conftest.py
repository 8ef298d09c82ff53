"""Fixtures shared by the serialization and command-line tests."""

import pytest


def _drop_last(entries):
    del entries[-1]


def _repeat_one(entries):
    entries[-1] = entries[-2]


def _letter_out_of_range(entries):
    entries[-1]['word'] = [9]


@pytest.fixture(params=[_drop_last, _repeat_one, _letter_out_of_range],
                ids=lambda f: f.__name__.lstrip('_'))
def break_entries(request):
    """Edits the entry list of a rank-2 catalog file so that it must not
    load: an entry missing or repeated, or a word letter out of range.
    The module data of an entry are refused in test_cli's
    MODULE_REFUSALS, each with its message."""
    return request.param
