import kanagg


def test_every_export_resolves():
    missing = [name for name in kanagg.__all__ if not hasattr(kanagg, name)]
    assert not missing
    assert len(set(kanagg.__all__)) == len(kanagg.__all__)


def test_star_import():
    namespace = {}
    exec("from kanagg import *", namespace)
    assert set(kanagg.__all__) <= set(namespace)
