import linecontrast


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from linecontrast import *", namespace)
    assert set(linecontrast.__all__) <= namespace.keys()


def test_every_public_name_is_an_attribute():
    assert len(set(linecontrast.__all__)) == len(linecontrast.__all__)
    for name in linecontrast.__all__:
        assert hasattr(linecontrast, name), name
