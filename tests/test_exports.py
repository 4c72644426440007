"""The package's public names: __all__ and the attributes agree."""

import ranklab


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from ranklab import *", namespace)
    assert set(ranklab.__all__) <= namespace.keys()
    assert len(set(ranklab.__all__)) == len(ranklab.__all__)
    for name in ranklab.__all__:
        assert namespace[name] is getattr(ranklab, name), name
