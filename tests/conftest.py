"""Fixtures shared by the serialization and command-line tests."""

import pytest


def _drop_last(entries):
    del entries[-1]


def _repeat_one(entries):
    entries[-1] = entries[-2]


def _letter_out_of_range(entries):
    entries[-1]['word'] = [9]


def _odd_degree(entries):
    entries[0]['dims'] = {'1': 1}


def _stray_variable(entries):
    entries[-1]['actions'][0]['var'] = -5


@pytest.fixture(params=[_drop_last, _repeat_one, _letter_out_of_range,
                        _odd_degree, _stray_variable],
                ids=lambda f: f.__name__.lstrip('_'))
def break_entries(request):
    """Edits the entry list of a rank-2 catalog file so that it must not
    load: an entry missing or repeated, a word letter, a degree or an
    action variable out of range."""
    return request.param
