import hmic


def test_every_export_resolves_and_the_list_is_sorted():
    missing = [name for name in hmic.__all__ if not hasattr(hmic, name)]
    assert missing == []
    assert hmic.__all__ == sorted(set(hmic.__all__))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from hmic import *", namespace)
    assert {name: namespace[name] for name in hmic.__all__} == {
        name: getattr(hmic, name) for name in hmic.__all__}
