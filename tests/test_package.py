import pfrlab


def test_export_list_is_unique_and_resolves():
    names = pfrlab.__all__
    assert len(set(names)) == len(names)
    # a star import raises AttributeError on a name the package does not define
    namespace = {}
    exec("from pfrlab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names)
    assert all(namespace[name] is getattr(pfrlab, name) for name in names)
