"""The package's public surface, as ``from convexpoint import *`` sees it."""

import convexpoint


def test_star_import_gives_every_public_name_once():
    namespace = {}
    # a star import raises AttributeError for a name in __all__ that the
    # package does not define
    exec("from convexpoint import *", namespace)
    names = convexpoint.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert namespace[name] is getattr(convexpoint, name)
