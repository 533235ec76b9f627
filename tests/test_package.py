import sparseclust


def test_all_names_resolve():
    missing = [name for name in sparseclust.__all__ if not hasattr(sparseclust, name)]
    assert not missing
    assert len(set(sparseclust.__all__)) == len(sparseclust.__all__)


def test_star_import():
    namespace = {}
    exec("from sparseclust import *", namespace)
    assert set(sparseclust.__all__) <= set(namespace)
