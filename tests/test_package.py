"""The package namespace: every exported name resolves, and only once."""

import collections

import adasamp


def test_all_names_resolve_once():
    repeated = [name for name, k in collections.Counter(adasamp.__all__).items() if k > 1]
    assert repeated == []
    assert [name for name in adasamp.__all__ if not hasattr(adasamp, name)] == []
    namespace = {}
    exec("from adasamp import *", namespace)  # a stale name would raise AttributeError
    assert set(adasamp.__all__) <= set(namespace)
