"""The package namespace: every exported name resolves, and only once; the
scalar forms that only tests call live in the tests' oracles, not here."""

import collections
import importlib
import pathlib
import pkgutil
import re

import adasamp

MOVED_OR_DELETED = ("weight_update", "posterior_objective", "objective_value",
                    "kl_divergence", "chisq_divergence", "mean_bounded_loss",
                    "utility", "predict_proba", "objective_grad", "Example")


def test_all_names_resolve_once():
    repeated = [name for name, k in collections.Counter(adasamp.__all__).items() if k > 1]
    assert repeated == []
    assert [name for name in adasamp.__all__ if not hasattr(adasamp, name)] == []
    namespace = {}
    exec("from adasamp import *", namespace)  # a stale name would raise AttributeError
    assert set(adasamp.__all__) <= set(namespace)
    assert len(adasamp.__all__) == 35


def test_no_module_holds_the_test_oracles():
    modules = [adasamp] + [importlib.import_module(f"adasamp.{m.name}")
                           for m in pkgutil.iter_modules(adasamp.__path__)]
    assert len(modules) == 9
    for mod in modules:
        assert [name for name in MOVED_OR_DELETED if hasattr(mod, name)] == [], mod.__name__
    assert not hasattr(adasamp.Dataset, "example") and not hasattr(adasamp.Dataset, "split")
    importing = re.compile(r"^\s*(from|import)\s+(\S*\.)?oracles\b", re.MULTILINE)
    for path in pathlib.Path(adasamp.__file__).parent.glob("*.py"):
        assert not importing.search(path.read_text()), path.name
